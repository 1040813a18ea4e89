"""The three-player parity game: referee, strategies, and experiment harness.

Each round the referee asks every player one of two questions, X or Y,
drawn from the four legal patterns XXX, XYY, YXY, YYX.  Players answer
+1 or -1 without communicating.  The team wins when the product of the
answers is -1 for the XXX pattern and +1 for the other three patterns.

Players are isolated by construction: a strategy is one answer rule, which
the harness asks once per seat with only that seat's question and random
stream, and the round's shared resource (say, a GHZ triple), so no
implementation can react to a teammate's question.  The harness, not the
strategy, decides whether a seat's detector fires.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import asdict, dataclass
from enum import Enum
from typing import Callable, Iterable, Sequence

import numpy as np

from .qsim import Axis, RandomSource, StateVector, make_ghz, measure_pauli


class QuestionPattern(Enum):
    """One of the four legal question assignments to players (A, B, C)."""

    XXX = "XXX"
    XYY = "XYY"
    YXY = "YXY"
    YYX = "YYX"

    def __init__(self, value: str):
        self.axes: tuple[Axis, ...] = tuple(Axis(c.lower()) for c in value)
        self.target = -1 if value == "XXX" else 1  # the answer product that wins


PATTERNS: tuple[QuestionPattern, ...] = tuple(QuestionPattern)


class _NoDetection:
    """Sentinel a player returns when its detector does not fire."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "NO_DETECTION"


NO_DETECTION = _NoDetection()


def draw_pattern(rnd: RandomSource) -> QuestionPattern:
    """Draw a question pattern uniformly."""
    return PATTERNS[int(rnd.random() * 4) & 3]


def wins(pattern: QuestionPattern, answers: Sequence[int]) -> bool:
    """Referee predicate: does the answer product hit the pattern's target?"""
    a, b, c = answers
    return a * b * c == pattern.target


# ---------------------------------------------------------------------------
# Deterministic strategies and the exhaustive scan


class DeterministicTable(
    tuple
):  # (x_a, y_a, x_b, y_b, x_c, y_c), each +1 or -1
    """A full pre-agreed answer table, one entry per (player, question)."""

    __slots__ = ()

    def __new__(cls, x_a: int, y_a: int, x_b: int, y_b: int, x_c: int, y_c: int):
        entries = (x_a, y_a, x_b, y_b, x_c, y_c)
        if any(e not in (1, -1) for e in entries):
            raise ValueError(f"table entries must be +1 or -1, got {entries}")
        return super().__new__(cls, entries)

    def answer(self, player: int, question: Axis) -> int:
        return self[2 * player + (0 if question is Axis.X else 1)]

    def expected_win_rate(self) -> float:
        """Exact win rate under uniformly drawn patterns."""
        hits = sum(wins(p, play_deterministic(self, p)) for p in PATTERNS)
        return hits / len(PATTERNS)

    def __repr__(self) -> str:
        return "DeterministicTable" + tuple.__repr__(self)


def play_deterministic(
    table: DeterministicTable, pattern: QuestionPattern
) -> tuple[int, int, int]:
    """Answers the table produces for a pattern."""
    ax = pattern.axes
    return tuple(table.answer(i, ax[i]) for i in range(3))  # type: ignore[return-value]


@dataclass(frozen=True)
class ScanResult:
    best_rate: float
    best_tables: tuple[DeterministicTable, ...]
    histogram: dict[float, int]


def all_tables() -> Iterable[DeterministicTable]:
    """All 64 deterministic tables, in ascending lexicographic order."""
    for entries in itertools.product((-1, 1), repeat=6):
        yield DeterministicTable(*entries)


def scan_deterministic() -> ScanResult:
    """Exhaustively evaluate every deterministic table against all patterns."""
    histogram: dict[float, int] = {}
    best_rate = -1.0
    best: list[DeterministicTable] = []
    for table in all_tables():
        rate = table.expected_win_rate()
        histogram[rate] = histogram.get(rate, 0) + 1
        if rate > best_rate:
            best_rate = rate
            best = [table]
        elif rate == best_rate:
            best.append(table)
    return ScanResult(best_rate, tuple(best), histogram)


# ---------------------------------------------------------------------------
# Strategies


class Strategy:
    """A team recipe: a resource shared each round, and one answer rule for every seat.

    ``setup`` draws the round's shared resource from the setup stream, or
    returns ``None`` when the team shares nothing.  The harness then calls
    ``answer(shared, site, question, rnd)`` once per seat, in seat order,
    with that seat's own question and own random stream.  It returns
    ``(reply, shared)``: the reply is +1, -1 or ``NO_DETECTION``, and
    ``shared`` is the resource as the next seat finds it.

    ``uses_detectors`` marks strategies whose answers come out of a
    measurement device; only those are affected by detection efficiency.
    ``eta`` is each seat's detection efficiency: below 1 the harness fails
    a seat's detector with probability ``1 - eta`` and then does not ask
    that seat's answer rule.
    """

    name: str = "abstract"
    uses_detectors: bool = False
    eta: float = 1.0

    def setup(self, rnd: RandomSource):
        return None

    def answer(self, shared, site: int, question: Axis, rnd: RandomSource):
        raise NotImplementedError


class QuantumStrategy(Strategy):
    """Players share a fresh GHZ triple each round and measure their site.

    Asked X a player measures the x spin component of her own particle,
    asked Y the y component, and answers with the outcome.
    """

    name = "quantum"
    uses_detectors = True

    def setup(self, rnd: RandomSource) -> StateVector:
        return make_ghz()

    def answer(self, shared: StateVector, site: int, question: Axis, rnd: RandomSource):
        return measure_pauli(shared, site, question, rnd)


def quantum_strategy() -> Strategy:
    return QuantumStrategy()


class TableStrategy(Strategy):
    """Players read their answers off a pre-agreed deterministic table."""

    def __init__(self, table: DeterministicTable, name: str | None = None):
        self.table = table
        self.name = name or f"table{tuple(table)}"

    def answer(self, shared, site: int, question: Axis, rnd: RandomSource):
        return self.table.answer(site, question), shared


class RandomStrategy(Strategy):
    """Every player answers with an independent fair coin."""

    name = "random"

    def answer(self, shared, site: int, question: Axis, rnd: RandomSource):
        return (1 if rnd.random() < 0.5 else -1), shared


@dataclass(frozen=True)
class EfficiencyModel:
    """Independent per-player detection with probability ``eta``."""

    eta: float

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")


def apply_detection(strategy: Strategy, model: EfficiencyModel) -> Strategy:
    """A copy of a measuring strategy whose detectors fire with probability ``model.eta``.

    Strategies that never measure (pre-agreed tables, coin flipping) are
    returned unchanged; there is no detector to fail.  The argument is
    left as it was.
    """
    if not strategy.uses_detectors:
        return strategy
    lossy = copy.copy(strategy)
    lossy.eta = model.eta
    lossy.name = f"{strategy.name}[eta={model.eta:g}]"
    return lossy


def theoretical_win_rate(eta: float) -> float:
    """Win probability of the measuring team under detector efficiency eta.

    All three detectors fire with probability eta**3 and the team then wins
    for sure; otherwise at least one answer is a fair coin, which makes the
    answer product a fair coin as well.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    p_all = eta**3
    return p_all + (1.0 - p_all) / 2.0


# ---------------------------------------------------------------------------
# Seeded experiment harness


_GOLDEN_GAMMA = 0x9E3779B97F4A7C15  # 2**64 / golden ratio, used to label trials


class _RoleStream:
    """One role's generator, sought onto the current trial at its first draw.

    Until then ``random`` and ``integers`` are seeking stand-ins; seeking
    sets them to the generator's own methods, so every later draw in the
    trial costs what a plain ``Generator`` draw costs.  Any other
    ``Generator`` attribute is read from the sought generator.
    """

    __slots__ = ("random", "integers", "_gen", "_state", "_counter", "_streams", "_armed", "_sought")

    def __init__(self, key: list[int], role: int, streams: "TrialStreams"):
        self._gen = gen = np.random.Generator(np.random.Philox(key=0))
        # numpy's Philox state with an exhausted output buffer, in lists where
        # numpy keeps arrays: its setter reads both, and lists halve its cost
        self._counter = [0, role, 0, 0]
        self._state = {"bit_generator": "Philox", "state": {"counter": self._counter, "key": key},
                       "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        self._streams = streams
        self._armed = (self._seek_random, self._seek_integers)
        self._sought = (gen.random, gen.integers)
        self.random, self.integers = self._armed

    def _seek(self) -> None:
        self._counter[2] = self._streams._index  # the only word that differs between trials
        self._gen.bit_generator.state = self._state
        self.random, self.integers = self._sought

    def _seek_random(self, *args, **kwargs):
        self._seek()
        return self.random(*args, **kwargs)

    def _seek_integers(self, *args, **kwargs):
        self._seek()
        return self.integers(*args, **kwargs)

    def __getattr__(self, name):
        if self.random == self._seek_random:
            self._seek()
        return getattr(self._gen, name)


class TrialStreams:
    """Deterministic per-(trial, role) random streams from one master seed.

    The master seed expands once, through ``SeedSequence``, into a 128-bit
    Philox key shared by the whole experiment.  Trial ``i`` and role ``r``
    then address the counter block (draws, r, i, 0) of that keyed Philox
    stream, which is exactly the independence guarantee a counter-based
    generator provides.  Streams depend only on (master_seed, trial, role),
    never on execution order, so trials may run in any order or in
    parallel with identical results.  Each role reuses one ``Generator``
    across trials and seeks its counter onto the current trial only when
    the trial first draws from that role, so a role a trial never uses
    costs nothing, and the draws a role does make are the ones an eagerly
    reset stream would give.
    """

    def __init__(self, master_seed: int, n_roles: int):
        if master_seed < 0:
            raise ValueError("master_seed must be a non-negative integer")
        self.master_seed = master_seed
        self._index = 0
        key = [int(k) for k in np.random.SeedSequence(master_seed).generate_state(2, np.uint64)]
        self._key0 = key[0]
        self._roles = tuple(_RoleStream(key, role, self) for role in range(n_roles))

    def trial(self, index: int) -> tuple[int, tuple[RandomSource, ...]]:
        """Move every role onto trial ``index`` and return (trial_seed, generators).

        Each role seeks onto the trial at its first draw.  ``trial_seed`` is
        the 64-bit label derived from (master_seed, trial index) that is
        recorded with the trial; replaying a trial means rebuilding streams
        from those two numbers.
        """
        if index < 0:
            raise ValueError("trial index must be non-negative")
        self._index = index
        for role in self._roles:
            role.random, role.integers = role._armed
        return (self._key0 ^ ((index * _GOLDEN_GAMMA) & 0xFFFFFFFFFFFFFFFF)), self._roles


_ROLE_REFEREE, _ROLE_SETUP, _ROLE_A, _ROLE_B, _ROLE_C = range(5)


@dataclass(frozen=True)
class TrialRecord:
    pattern: QuestionPattern
    answers: tuple[int, int, int]
    detections: tuple[bool, bool, bool]
    win: bool
    trial_index: int
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "trial_index": self.trial_index,
            "seed": self.seed,
            "pattern": self.pattern.value,
            "answers": list(self.answers),
            "detections": list(self.detections),
            "win": self.win,
        }


@dataclass(frozen=True)
class ExperimentReport:
    strategy: str
    trials: int
    wins: int
    win_rate: float
    per_pattern_trials: dict[str, int]
    per_pattern_win_rates: dict[str, float | None]
    triple_detection_rate: float
    master_seed: int

    def to_json_dict(self) -> dict:
        return asdict(self)


class _Tally:
    """Counts over the trials of one run, from which its report is built."""

    def __init__(self):
        self.trials = dict.fromkeys(PATTERNS, 0)
        self.wins = dict.fromkeys(PATTERNS, 0)
        self.detected_wins = dict.fromkeys(PATTERNS, 0)  # wins with all three detecting
        self.detections = [0, 0, 0, 0]  # trials by the number of players detecting

    def report_fields(self, wins: dict[QuestionPattern, int], master_seed: int) -> dict:
        """The ``ExperimentReport`` fields, scoring ``wins`` per pattern."""
        trials = sum(self.trials.values())
        total = sum(wins.values())
        return dict(
            trials=trials,
            wins=total,
            win_rate=total / trials,
            per_pattern_trials={p.value: self.trials[p] for p in PATTERNS},
            per_pattern_win_rates={
                p.value: (wins[p] / self.trials[p] if self.trials[p] else None) for p in PATTERNS
            },
            triple_detection_rate=self.detections[3] / trials,
            master_seed=master_seed,
        )


def _play(
    strategy: Strategy,
    trials: int,
    master_seed: int,
    record_sink: Callable[[TrialRecord], None] | None,
) -> _Tally:
    """The one trial loop: play seeded rounds, tally them, pass records on."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    streams = TrialStreams(master_seed, 5)
    tally = _Tally()
    answer = strategy.answer
    eta = strategy.eta
    lossy = eta < 1.0  # no detection coin at eta == 1, so a lossless copy draws as the bare strategy
    for i in range(trials):
        trial_seed, gens = streams.trial(i)
        shared = strategy.setup(gens[_ROLE_SETUP])
        pattern = draw_pattern(gens[_ROLE_REFEREE])
        axes = pattern.axes
        answers = []
        detections = []
        for site in range(3):
            prnd = gens[_ROLE_A + site]
            if lossy and prnd.random() >= eta:
                reply = NO_DETECTION
            else:
                reply, shared = answer(shared, site, axes[site], prnd)
            if reply is NO_DETECTION:
                detections.append(False)
                answers.append(1 if prnd.random() < 0.5 else -1)
            else:
                detections.append(True)
                answers.append(reply)
        won = wins(pattern, answers)
        detected = sum(detections)
        tally.trials[pattern] += 1
        tally.wins[pattern] += won
        tally.detections[detected] += 1
        if detected == 3:
            tally.detected_wins[pattern] += won
        if record_sink is not None:
            record_sink(
                TrialRecord(
                    pattern=pattern,
                    answers=tuple(answers),  # type: ignore[arg-type]
                    detections=tuple(detections),  # type: ignore[arg-type]
                    win=won,
                    trial_index=i,
                    seed=trial_seed,
                )
            )
    return tally


def run_experiment(
    strategy: Strategy,
    trials: int,
    master_seed: int,
    record_sink: Callable[[TrialRecord], None] | None = None,
) -> ExperimentReport:
    """Play ``trials`` seeded rounds and aggregate the outcomes.

    Undetected players are scored with a fair random sign drawn from their
    own stream, and the failure is recorded in ``TrialRecord.detections``.
    Identical inputs produce an identical report.
    """
    tally = _play(strategy, trials, master_seed, record_sink)
    return ExperimentReport(strategy=strategy.name, **tally.report_fields(tally.wins, master_seed))
