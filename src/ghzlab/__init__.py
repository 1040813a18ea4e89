"""Toolkit for the three-player GHZ parity game and its surrounding arguments.

The package simulates the game with quantum, classical, and
local-hidden-variable strategies under imperfect detection, plays the
teleported variant on particles with no common origin, proves the parity
impossibility results mechanically, and computes pre/post-selected
inference showing that definite intermediate values do not obey the
product rule.
"""

from .qsim import (
    Axis,
    BellIndex,
    ProductObservable,
    StateVector,
    bell_measure,
    expectation_product,
    joint_distribution,
    make_ghz,
    make_singlet,
    measure_pauli,
    measure_product,
    pauli_product,
    reduced_density,
    tensor_product,
)
from .game import (
    DeterministicTable,
    ExperimentReport,
    QuestionPattern,
    Strategy,
    draw_pattern,
    play_deterministic,
    quantum_strategy,
    run_experiment,
    scan_deterministic,
    theoretical_win_rate,
    wins,
)
from .lhv import enumerate_kits, kit_is_admissible, lhv_statistics
from .parity import (
    ParityConstraint,
    ParitySystem,
    Sat,
    Unsat,
    build_classical_game_system,
    build_stapp_system,
    drop_one_analysis,
    solve_enumerate,
    solve_gf2,
)
from .prepost import (
    PrePostEnsemble,
    abl_distribution,
    conditionals_check,
    element_of_reality,
    generalized_elements_check,
    ghz_x_ensemble,
    product_rule_report,
)
from .teleport import build_setup, derive_correction_rule, run_trial, run_trials, summarize

__version__ = "0.1.0"

__all__ = [
    "Axis",
    "BellIndex",
    "DeterministicTable",
    "ExperimentReport",
    "ParityConstraint",
    "ParitySystem",
    "PrePostEnsemble",
    "ProductObservable",
    "QuestionPattern",
    "Sat",
    "StateVector",
    "Strategy",
    "Unsat",
    "abl_distribution",
    "bell_measure",
    "build_classical_game_system",
    "build_setup",
    "build_stapp_system",
    "conditionals_check",
    "derive_correction_rule",
    "draw_pattern",
    "drop_one_analysis",
    "element_of_reality",
    "enumerate_kits",
    "expectation_product",
    "generalized_elements_check",
    "ghz_x_ensemble",
    "joint_distribution",
    "kit_is_admissible",
    "lhv_statistics",
    "make_ghz",
    "make_singlet",
    "measure_pauli",
    "measure_product",
    "pauli_product",
    "play_deterministic",
    "product_rule_report",
    "quantum_strategy",
    "reduced_density",
    "run_experiment",
    "run_trial",
    "run_trials",
    "scan_deterministic",
    "solve_enumerate",
    "solve_gf2",
    "summarize",
    "tensor_product",
    "theoretical_win_rate",
    "wins",
]
