"""Toolkit for the three-player GHZ parity game and its surrounding arguments.

The package simulates the game with quantum, classical, and
local-hidden-variable strategies under imperfect detection, plays the
teleported variant on particles with no common origin, proves the parity
impossibility results mechanically, and computes pre/post-selected
inference showing that definite intermediate values do not obey the
product rule.

Importing the package loads none of its modules: each public name below is
imported from its module on first use (PEP 562), so a caller that needs only
the parity proofs never loads numpy.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the module that defines it.
_MODULE_OF = {
    **dict.fromkeys(("Axis", "QuestionPattern", "wins"), "rules"),
    **dict.fromkeys((
        "BellIndex", "ProductObservable", "StateVector", "bell_measure", "expectation_product",
        "joint_distribution", "make_ghz", "make_singlet", "measure_pauli", "measure_product",
        "pauli_product", "reduced_density", "tensor_product",
    ), "qsim"),
    **dict.fromkeys((
        "DeterministicTable", "ExperimentReport", "Strategy", "draw_pattern", "play_deterministic",
        "quantum_strategy", "run_experiment", "scan_deterministic", "theoretical_win_rate",
    ), "game"),
    **dict.fromkeys(("enumerate_kits", "kit_is_admissible", "lhv_statistics"), "lhv"),
    **dict.fromkeys((
        "ParityConstraint", "ParitySystem", "Sat", "Unsat", "build_classical_game_system",
        "build_stapp_system", "drop_one_analysis", "solve_enumerate", "solve_gf2",
    ), "parity"),
    **dict.fromkeys((
        "PrePostEnsemble", "abl_distribution", "conditionals_check", "element_of_reality",
        "generalized_elements_check", "ghz_x_ensemble", "product_rule_report",
    ), "prepost"),
    **dict.fromkeys(
        ("build_setup", "derive_correction_rule", "run_trial", "run_trials", "summarize"), "teleport"
    ),
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
