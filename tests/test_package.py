"""The package's public names, and what importing it and running light commands loads.

``ghzlab`` imports each public name from its module on first use, so a
command that needs no simulation (``prove``, ``--help``, a rejected flag)
runs without numpy.
"""

import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import ghzlab

SRC = pathlib.Path(ghzlab.__file__).resolve().parent.parent

PUBLIC_NAMES = (
    "Axis", "BellIndex", "DeterministicTable", "ExperimentReport", "ParityConstraint",
    "ParitySystem", "PrePostEnsemble", "ProductObservable", "QuestionPattern", "Sat",
    "StateVector", "Strategy", "Unsat", "abl_distribution", "bell_measure",
    "build_classical_game_system", "build_setup", "build_stapp_system", "conditionals_check",
    "derive_correction_rule", "draw_pattern", "drop_one_analysis", "element_of_reality",
    "enumerate_kits", "expectation_product", "generalized_elements_check", "ghz_x_ensemble",
    "joint_distribution", "kit_is_admissible", "lhv_statistics", "make_ghz", "make_singlet",
    "measure_pauli", "measure_product", "pauli_product", "play_deterministic",
    "product_rule_report", "quantum_strategy", "reduced_density", "run_experiment", "run_trial",
    "run_trials", "scan_deterministic", "solve_enumerate", "solve_gf2", "summarize",
    "tensor_product", "theoretical_win_rate", "wins",
)


def test_all_lists_every_public_name():
    assert len(PUBLIC_NAMES) == 49
    assert sorted(ghzlab.__all__) == sorted(PUBLIC_NAMES)


def test_game_and_qsim_re_export_the_rules():
    from ghzlab import game, qsim, rules

    assert qsim.Axis is game.Axis is rules.Axis
    assert (game.QuestionPattern, game.PATTERNS, game.wins) == (
        rules.QuestionPattern, rules.PATTERNS, rules.wins)


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_public_name_imports_from_the_package(name):
    namespace = {}
    exec(f"from ghzlab import {name}", namespace)
    assert namespace[name] is getattr(ghzlab, name)
    assert name in dir(ghzlab)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from ghzlab import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ghzlab.no_such_name
    with pytest.raises(ImportError):
        exec("from ghzlab import no_such_name", {})


def _run_fresh(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120,
    )


def test_bare_import_loads_no_submodule():
    done = _run_fresh("""
        import sys
        import ghzlab
        print(sorted(m for m in sys.modules if m.startswith("ghzlab.")))
    """)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_light_commands_leave_numpy_unimported():
    done = _run_fresh("""
        import contextlib, io, sys
        from ghzlab.cli import main

        for argv in (["prove", "classical"], ["prove", "stapp", "1", "1", "-1", "--format", "json"],
                     ["--help"], ["game", "--trials", "0"]):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            print(argv, code, "numpy" in sys.modules)
    """)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "['prove', 'classical'] 0 False",
        "['prove', 'stapp', '1', '1', '-1', '--format', 'json'] 0 False",
        "['--help'] 0 False",
        "['game', '--trials', '0'] 1 False",
    ]
