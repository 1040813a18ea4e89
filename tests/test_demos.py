"""Pin the stdout of every demo, so a change to a seeded result they print shows up.

Each digest is the first 12 hex digits of the sha256 of one demo's stdout.
A deliberate change to a demo's output updates its digest here.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

import ghzlab

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"
SRC = pathlib.Path(ghzlab.__file__).resolve().parent.parent

DIGESTS = {
    "01_quantum_team_wins.py": "a0e026605033",
    "02_classical_ceiling.py": "4977a5255d8e",
    "03_detector_efficiency.py": "215adf5954cc",
    "04_instruction_kits.py": "09e2900a079d",
    "05_remote_correlations.py": "e3976a00e283",
    "06_counterfactual_consistency.py": "5b843572b562",
    "07_inferred_elements.py": "14c3202eb3b2",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_output_is_unchanged(name):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, str(DEMOS / name)], env=env, capture_output=True, timeout=300
    )
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest()[:12] == DIGESTS[name]
