"""The benchmark's workloads: fixed lists of ghzlab operations.

Each operation is one ``ghzlab`` command line, run in process through
``ghzlab.cli.main`` with ``--out`` appended, except one direct call of
``prepost.generalized_elements_check`` in ``game``.  A pass runs a
workload's list once, in order.  Seeded calls take a 32-bit seed derived
from the benchmark's ``--seed``, the workload and the call's label, so the
same benchmark seed always produces the same inputs.

This module uses the standard library only: it is imported before
``ghzlab`` and numpy, so that the cold set-up time covers their imports.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

WORKLOADS = ("game", "teleport", "inference")

GAME_TRIALS = 2000
GAME_ETA = "0.9"
SWEEP_GRID = ("0.5", "0.7937", "0.9", "1.0")
SWEEP_TRIALS = 500  # per grid point
ELEMENTS_TRIALS = 500  # per question pattern
TELEPORT_JSON_TRIALS = 1024
TELEPORT_JSONL_TRIALS = 256
INFERENCE_ROUNDS = 8

# The four x-outcome triples with product -1, the only reachable ones.
ODD_TRIPLES = (("1", "1", "-1"), ("1", "-1", "1"), ("-1", "1", "1"), ("-1", "-1", "-1"))


@dataclass(frozen=True)
class Call:
    """One operation of a workload.

    ``kind`` names the output check in ``checks.py``; ``trials`` is the
    number of Monte Carlo trials the operation plays (0 for exact ones).
    ``argv`` is the command line without ``--out``; for the direct API call
    it is empty and ``seed`` is its master seed.
    """

    label: str
    kind: str
    argv: tuple[str, ...]
    trials: int = 0
    seed: int | None = None
    params: tuple = ()


def call_seed(bench_seed: int, workload: str, label: str) -> int:
    digest = hashlib.sha256(f"{bench_seed}/{workload}/{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _game(bench_seed: int) -> list[Call]:
    def seeded(label: str, kind: str, argv: tuple[str, ...], trials: int, params=()) -> Call:
        seed = call_seed(bench_seed, "game", label)
        return Call(label, kind, argv + ("--seed", str(seed)), trials, seed, params)

    n = str(GAME_TRIALS)
    calls = [
        seeded(
            "game-quantum-json",
            "game_perfect",
            ("game", "--strategy", "quantum", "--trials", n, "--format", "json"),
            GAME_TRIALS,
        ),
        seeded(
            "game-quantum-eta-jsonl",
            "game_lossy_jsonl",
            ("game", "--strategy", "quantum", "--eta", GAME_ETA, "--trials", n, "--format", "jsonl"),
            GAME_TRIALS,
            (float(GAME_ETA),),
        ),
        seeded(
            "game-classical-best-json",
            "game_classical_best",
            ("game", "--strategy", "classical-best", "--trials", n, "--format", "json"),
            GAME_TRIALS,
        ),
        seeded(
            "game-random-json",
            "game_random",
            ("game", "--strategy", "random", "--trials", n, "--format", "json"),
            GAME_TRIALS,
        ),
        seeded(
            "game-lhv-json",
            "game_lhv",
            ("game", "--strategy", "lhv", "--trials", n, "--format", "json"),
            GAME_TRIALS,
        ),
        seeded(
            "sweep-json",
            "sweep",
            ("sweep", "--grid") + SWEEP_GRID
            + ("--trials", str(SWEEP_TRIALS), "--format", "json"),
            SWEEP_TRIALS * len(SWEEP_GRID),
            tuple(float(g) for g in SWEEP_GRID),
        ),
    ]
    label = "generalized-elements"
    calls.append(
        Call(label, "generalized_elements", (), 4 * ELEMENTS_TRIALS,
             call_seed(bench_seed, "game", label), (ELEMENTS_TRIALS,))
    )
    return calls


def _teleport(bench_seed: int) -> list[Call]:
    calls = []
    for fmt, trials in (("json", TELEPORT_JSON_TRIALS), ("jsonl", TELEPORT_JSONL_TRIALS)):
        label = f"teleport-{fmt}"
        seed = call_seed(bench_seed, "teleport", label)
        argv = ("teleport", "--trials", str(trials), "--seed", str(seed), "--format", fmt)
        calls.append(Call(label, f"teleport_{fmt}", argv, trials, seed))
    return calls


def _inference(bench_seed: int) -> list[Call]:
    # prove and elements take no seed: their outputs are exact
    one_round = [Call("prove-classical", "prove_classical", ("prove", "classical", "--format", "json"))]
    for signs in ODD_TRIPLES:
        tag = "".join("+" if s == "1" else "-" for s in signs)
        params = tuple(int(s) for s in signs)
        one_round.append(
            Call(f"prove-stapp{tag}", "prove_stapp", ("prove", "stapp") + signs + ("--format", "json"),
                 params=params)
        )
    for signs in ODD_TRIPLES:
        tag = "".join("+" if s == "1" else "-" for s in signs)
        params = tuple(int(s) for s in signs)
        one_round.append(
            Call(f"elements{tag}", "elements", ("elements",) + signs + ("--format", "json"),
                 params=params)
        )
    return [
        Call(f"{c.label}.r{r}", c.kind, c.argv, c.trials, c.seed, c.params)
        for r in range(INFERENCE_ROUNDS)
        for c in one_round
    ]


def build(workload: str, bench_seed: int) -> list[Call]:
    """The ordered operations of one pass of ``workload``."""
    if workload == "game":
        return _game(bench_seed)
    if workload == "teleport":
        return _teleport(bench_seed)
    if workload == "inference":
        return _inference(bench_seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
