"""Playing the parity game on particles that never shared an origin.

Layout of the nine sites:

    0, 1, 2   GHZ triple held at stations A, B, C
    3, 4, 5   local halves of three singlet pairs, also at A, B, C
    6, 7, 8   remote halves of those pairs, at stations A', B', C'

Each station Bell-measures its GHZ particle against its local singlet
half, while the remote stations measure the x or y spin component their
question demands.  No outcome is transmitted and no conditioning rotation
is ever applied to the remote particles; instead, each Bell outcome tells
us in post-processing whether the remote record must be sign-flipped to
agree with a direct measurement on the original GHZ particle.  After the
flips the remote outcomes reproduce the GHZ parity targets exactly, even
though the remote particles were never in one place together.

The flip table is derived numerically from the single-particle identity
rather than written down, so it stays correct under this package's sign
conventions by construction.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping

import numpy as np

from .game import PATTERNS, QuestionPattern, TrialStreams, draw_pattern, wins
from .qsim import (
    Axis,
    BellIndex,
    ProductObservable,
    RandomSource,
    StateVector,
    _SharedState,
    bell_measure,
    bell_project,
    expectation_product,
    make_ghz,
    make_singlet,
    measure_pauli,
    pauli_eigenstate,
    tensor_product,
)

GHZ_SITES = (0, 1, 2)
LOCAL_EPR_SITES = (3, 4, 5)
REMOTE_SITES = (6, 7, 8)
BELL_PAIRS = ((0, 3), (1, 4), (2, 5))
EPR_LINKS = ((3, 6), (4, 7), (5, 8))


@lru_cache(maxsize=1)
def build_setup() -> StateVector:
    """Nine-site state: GHZ(0,1,2) times singlets on (3,6), (4,7), (5,8).

    States are immutable, so the instance is cached and shared, and so are
    the branches a :func:`run_trial` collapses it to: 2389 states, 19 MiB.
    Beside them sit at most 1024 shared records, one per branch path.
    """
    ghz = make_ghz().amps
    singlet = make_singlet().amps
    idx = np.arange(1 << 9)

    def link_amp(local: int, remote: int) -> np.ndarray:
        return singlet[((idx >> local) & 1) + 2 * ((idx >> remote) & 1)]

    amps = ghz[idx & 7]
    for local, remote in EPR_LINKS:
        amps *= link_amp(local, remote)
    return _SharedState(StateVector(9, amps))


@dataclass(frozen=True)
class CorrectionRule:
    """Whether each (Bell outcome, axis) pair flips the remote record."""

    flips: Mapping[tuple[BellIndex, Axis], bool]

    def flip(self, bell: BellIndex, axis: Axis) -> bool:
        return self.flips[(bell, axis)]

    def sign(self, bell: BellIndex, axis: Axis) -> int:
        return -1 if self.flips[(bell, axis)] else 1

    def describe(self) -> str:
        lines = []
        for axis in (Axis.X, Axis.Y):
            flipped = [b.label for b in BellIndex if self.flip(b, axis)]
            lines.append(f"axis {axis.value}: flip on {', '.join(flipped)}")
        return "\n".join(lines)


@lru_cache(maxsize=1)
def derive_correction_rule() -> CorrectionRule:
    """Compute the flip table from the single-particle identity.

    A +1 eigenstate of the axis is teleported through one singlet; for
    each Bell outcome the remote particle must then measure +1 (no flip)
    or -1 (flip), deterministically.  Anything else means the package's
    sign conventions are inconsistent, which raises.
    """
    flips: dict[tuple[BellIndex, Axis], bool] = {}
    for axis in (Axis.X, Axis.Y):
        # site 0: source, sites 1, 2: singlet with 2 remote
        state = tensor_product(pauli_eigenstate(axis, 1), make_singlet())
        remote_obs = ProductObservable.of((2, axis))
        n_flip = 0
        for bell in BellIndex:
            prob, collapsed = bell_project(state, 0, 1, bell)
            if collapsed is None or abs(prob - 0.25) > 1e-9:
                raise RuntimeError(
                    f"Bell outcome {bell.label} has probability {prob}, expected 1/4"
                )
            value = expectation_product(collapsed, remote_obs)
            if abs(value - 1.0) < 1e-9:
                flips[(bell, axis)] = False
            elif abs(value + 1.0) < 1e-9:
                flips[(bell, axis)] = True
                n_flip += 1
            else:
                raise RuntimeError(
                    f"remote outcome not deterministic for {bell.label}/{axis.value}: "
                    f"expectation {value}"
                )
        if n_flip != 2:
            raise RuntimeError(f"axis {axis.value} flips {n_flip} Bell outcomes, expected 2")
    return CorrectionRule(flips)


@dataclass(frozen=True, slots=True)
class TeleportTrialRecord:
    pattern: QuestionPattern  # the fields in declaration order are the keys of its JSON line
    bell_outcomes: tuple[BellIndex, BellIndex, BellIndex]
    raw_outcomes: tuple[int, int, int]
    corrected_outcomes: tuple[int, int, int]
    win: bool


@lru_cache(maxsize=None)
def _record(pattern: QuestionPattern, bells: tuple, raws: tuple) -> TeleportTrialRecord:
    """The one record of a branch path, shared by every trial that takes it.

    A path fixes the corrected triple and the verdict, and at most 4 patterns
    x 64 Bell triples x 4 raw triples are reachable, so a kept trial costs
    one pointer.
    """
    sign = derive_correction_rule().sign
    corrected = tuple(raw * sign(bell, axis) for raw, bell, axis in zip(raws, bells, pattern.axes))
    return TeleportTrialRecord(pattern, bells, raws, corrected, wins(pattern, corrected))


def run_trial(pattern: QuestionPattern, rnd: RandomSource) -> TeleportTrialRecord:
    """One full run: three Bell measurements, three remote spin measurements.

    The Bell and remote measurements act on disjoint sites, so the order
    used here is statistically irrelevant.  Corrections touch only the
    recorded numbers, never the state.
    """
    (ghz_a, local_a), (ghz_b, local_b), (ghz_c, local_c) = BELL_PAIRS
    remote_a, remote_b, remote_c = REMOTE_SITES
    axis_a, axis_b, axis_c = pattern.axes
    bell_a, state = bell_measure(build_setup(), ghz_a, local_a, rnd)
    bell_b, state = bell_measure(state, ghz_b, local_b, rnd)
    bell_c, state = bell_measure(state, ghz_c, local_c, rnd)
    raw_a, state = measure_pauli(state, remote_a, axis_a, rnd)
    raw_b, state = measure_pauli(state, remote_b, axis_b, rnd)
    raw_c, state = measure_pauli(state, remote_c, axis_c, rnd)
    return _record(pattern, (bell_a, bell_b, bell_c), (raw_a, raw_b, raw_c))


@dataclass(frozen=True)
class PatternRates:
    trials: int
    corrected_success_rate: float
    raw_success_rate: float


@dataclass(frozen=True)
class TeleportSummary:
    trials: int
    per_pattern: dict[str, PatternRates]
    corrected_success_rate: float
    raw_success_rate: float
    bell_histogram: dict[tuple[BellIndex, BellIndex, BellIndex], int]

    def to_json_dict(self) -> dict:
        # JSON keys are strings: "phi_plus,psi_minus,phi_minus", in sorted order
        histogram = {",".join(b.value for b in key): n for key, n in self.bell_histogram.items()}
        return {
            **vars(self),
            "bell_histogram": dict(sorted(histogram.items())),
        }


def summarize(records: list[TeleportTrialRecord]) -> TeleportSummary:
    """Aggregate per-pattern success rates and the Bell-outcome histogram."""
    if not records:
        raise ValueError("cannot summarize zero records")
    # one pass, each record counted once; the two tallies keep at most 128 and
    # 64 keys, so they add little to the records still held
    cells: dict = {}
    histogram: dict = {}  # in the order each triple first occurs
    for rec in records:
        cell = rec.pattern, rec.win, rec.raw_outcomes
        cells[cell] = cells.get(cell, 0) + 1
        histogram[rec.bell_outcomes] = histogram.get(rec.bell_outcomes, 0) + 1
    trials, corrected_hits, raw_hits = Counter(), Counter(), Counter()
    for (pattern, win, raws), n in cells.items():
        trials[pattern] += n
        corrected_hits[pattern] += win * n
        raw_hits[pattern] += wins(pattern, raws) * n
    per_pattern = {
        p.value: PatternRates(
            trials=trials[p],
            corrected_success_rate=corrected_hits[p] / trials[p],
            raw_success_rate=raw_hits[p] / trials[p],
        )
        for p in PATTERNS
        if trials[p]
    }
    total = len(records)
    return TeleportSummary(
        trials=total,
        per_pattern=per_pattern,
        corrected_success_rate=corrected_hits.total() / total,
        raw_success_rate=raw_hits.total() / total,
        bell_histogram=histogram,
    )


def run_trials(
    trials: int,
    master_seed: int,
    record_sink: Callable[[TeleportTrialRecord], None] | None = None,
) -> TeleportSummary:
    """Run seeded trials with uniformly drawn patterns and summarize them."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    streams = TrialStreams(master_seed, 2)
    records = []
    for i in range(trials):
        _, (referee, lab) = streams.trial(i)
        record = run_trial(draw_pattern(referee), lab)
        records.append(record)
        if record_sink is not None:
            record_sink(record)
    return summarize(records)

