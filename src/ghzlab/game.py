"""The three-player parity game: referee, strategies, and experiment harness.

The rules themselves (the question patterns and the referee's predicate
``wins``) are defined in ``ghzlab.rules`` and re-exported here.

Players are isolated by construction: a strategy is one answer rule, which
the harness asks once per seat with only that seat's question and random
stream, and the round's shared resource (say, a GHZ triple), so no
implementation can react to a teammate's question.  The harness, not the
strategy, decides whether a seat's detector fires.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .qsim import RandomSource, StateVector, make_ghz, measure_pauli
from .rules import PATTERNS, Axis, QuestionPattern, wins


class _NoDetection:
    """Sentinel a player returns when its detector does not fire."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "NO_DETECTION"


NO_DETECTION = _NoDetection()


def draw_pattern(rnd: RandomSource) -> QuestionPattern:
    """Draw a question pattern uniformly."""
    return PATTERNS[int(rnd.random() * 4) & 3]


# ---------------------------------------------------------------------------
# Deterministic strategies and the exhaustive scan


class DeterministicTable(tuple):  # (x_a, y_a, x_b, y_b, x_c, y_c)
    """A pre-agreed answer table, one reply per (player, question) slot.

    A reply is +1 or -1, or, in an instruction kit (``ghzlab.lhv``),
    ``NO_DETECTION``: the seat's detector stays silent when asked that slot.
    """

    __slots__ = ()

    def __new__(cls, x_a, y_a, x_b, y_b, x_c, y_c):
        replies = (x_a, y_a, x_b, y_b, x_c, y_c)
        # bool and float replies compare equal to 1 and -1, so check the type too
        if not all(r is NO_DETECTION or (type(r) is int and r in (1, -1)) for r in replies):
            raise ValueError(f"table replies must be int +1, -1 or NO_DETECTION, got {replies}")
        return super().__new__(cls, replies)

    def answer(self, player: int, question: Axis) -> "int | _NoDetection":
        return self[2 * player + (0 if question is Axis.X else 1)]

    def expected_win_rate(self) -> float:
        """Exact win rate as played against uniform patterns: a silent seat answers a fair coin."""
        replies = [(p, play_deterministic(self, p)) for p in PATTERNS]
        return sum(0.5 if NO_DETECTION in r else wins(p, r) for p, r in replies) / len(PATTERNS)

    def describe(self) -> str:
        """The replies slot by slot, such as ``A.x=+1 ... C.y=silent``."""
        return " ".join(
            f"{'ABC'[k // 2]}.{'xy'[k % 2]}=" + ("silent" if r is NO_DETECTION else f"{r:+d}")
            for k, r in enumerate(self)
        )

    def __repr__(self) -> str:
        return "DeterministicTable" + tuple.__repr__(self)


def play_deterministic(table: DeterministicTable, pattern: QuestionPattern) -> tuple:
    """Replies the table gives to a pattern."""
    ax = pattern.axes
    return tuple(table.answer(i, ax[i]) for i in range(3))


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
    rates = {table: table.expected_win_rate() for table in all_tables()}
    best_rate = max(rates.values())
    best = tuple(table for table, rate in rates.items() if rate == best_rate)
    return ScanResult(best_rate, best, dict(Counter(rates.values())))


# ---------------------------------------------------------------------------
# Strategies


class Strategy:
    """A team recipe: a resource shared each round, and one answer rule for every seat.

    ``setup`` draws the round's shared resource from the setup stream: a
    GHZ triple, or an answer table that every seat reads by one rule
    (``TableStrategy`` hands out its one table, ``lhv.KitStrategy`` draws a
    kit), or ``None`` when the team shares nothing.  The harness then calls
    ``answer(shared, site, question, rnd)`` once per seat, in seat order,
    with that seat's own question and own random stream.  It returns
    ``(reply, shared)``: the reply is +1, -1 or ``NO_DETECTION``, and
    ``shared`` is the resource as the next seat finds it.

    ``eta`` is each seat's detection efficiency: below 1 the harness fails
    a seat's detector with probability ``1 - eta`` and then does not ask
    that seat's answer rule.  Only a team that measures has detectors to
    fail, so the built-in teams other than ``QuantumStrategy`` keep 1.
    """

    name: str = "abstract"
    eta: float = 1.0

    def setup(self, rnd: RandomSource):
        return None

    def answer(self, shared, site: int, question: Axis, rnd: RandomSource):
        raise NotImplementedError


class QuantumStrategy(Strategy):
    """Players share a fresh GHZ triple each round and measure their site.

    Asked X a player measures the x spin component of her own particle,
    asked Y the y component, and answers with the outcome.  Each detector
    fires with probability ``eta``; below 1 the team is named
    ``quantum[eta=...]``.
    """

    def __init__(self, eta: float = 1.0):
        if not 0.0 <= eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {eta}")
        self.eta = eta
        self.name = "quantum" if eta == 1.0 else f"quantum[eta={eta:g}]"

    def expected_win_rate(self) -> float:
        """Win probability under uniformly drawn patterns: ``theoretical_win_rate(eta)``."""
        return theoretical_win_rate(self.eta)

    def setup(self, rnd: RandomSource) -> StateVector:
        return make_ghz()

    def answer(self, shared: StateVector, site: int, question: Axis, rnd: RandomSource):
        return measure_pauli(shared, site, question, rnd)


def quantum_strategy(eta: float = 1.0) -> Strategy:
    return QuantumStrategy(eta)


class TableStrategy(Strategy):
    """Players read their answers off a pre-agreed table, shared as the round's resource.

    ``setup`` hands every round the one table and draws nothing.  The answer
    rule is the one every pre-agreed team plays by: a seat replies with its
    table's entry for the question asked.  ``lhv.KitStrategy`` plays by the
    same rule and differs only in drawing a fresh table, a kit, each round.
    """

    def __init__(self, table: DeterministicTable, name: str | None = None):
        self.table = table
        self.name = name or f"table{tuple(table)}"

    def expected_win_rate(self) -> float:
        return self.table.expected_win_rate()

    def setup(self, rnd: RandomSource) -> DeterministicTable:
        return self.table

    def answer(self, table: DeterministicTable, site: int, question: Axis, rnd: RandomSource):
        return table.answer(site, question), table


class RandomStrategy(Strategy):
    """Every player answers with an independent fair coin."""

    name = "random"

    def expected_win_rate(self) -> float:
        return 0.5

    def answer(self, shared, site: int, question: Axis, rnd: RandomSource):
        return (1 if rnd.random() < 0.5 else -1), shared


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


class TrialStreams:
    """Deterministic per-(trial, role) random streams from one master seed.

    The master seed expands once, through ``SeedSequence``, into a 128-bit
    Philox key shared by the whole experiment.  Trial ``i`` and role ``r``
    then address the counter block (draws, r, i, 0) of that keyed Philox
    stream, which is exactly the independence guarantee a counter-based
    generator provides.  Streams depend only on (master_seed, trial, role),
    never on execution order, so trials may run in any order or in
    parallel with identical results.  Each role keeps one ``Generator``
    across trials, and moving it onto a trial writes one counter word.
    """

    def __init__(self, master_seed: int, n_roles: int):
        if master_seed < 0:
            raise ValueError("master_seed must be a non-negative integer")
        key = [int(k) for k in np.random.SeedSequence(master_seed).generate_state(2, np.uint64)]
        self._key0 = key[0]
        self._gens = tuple(np.random.Generator(np.random.Philox(key=0)) for _ in range(n_roles))
        # numpy's Philox state with an exhausted output buffer, in lists where
        # numpy keeps arrays: its setter reads both, and lists halve its cost
        self._resets = []
        for role, gen in enumerate(self._gens):
            counter = [0, role, 0, 0]
            state = {"bit_generator": "Philox", "state": {"counter": counter, "key": key},
                     "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
            self._resets.append((gen.bit_generator, counter, state))

    def trial(self, index: int) -> tuple[int, tuple[RandomSource, ...]]:
        """Reset every role onto trial ``index`` and return (trial_seed, generators).

        The generators are the same tuple on every call.  ``trial_seed`` is
        the 64-bit label derived from (master_seed, trial index) that is
        recorded with the trial; replaying a trial means rebuilding streams
        from those two numbers.
        """
        if index < 0:
            raise ValueError("trial index must be non-negative")
        for bit_generator, counter, state in self._resets:
            counter[2] = index  # the only word that differs between trials
            bit_generator.state = state
        return (self._key0 ^ ((index * _GOLDEN_GAMMA) & 0xFFFFFFFFFFFFFFFF)), self._gens


def _trials(trials: int, master_seed: int, roles: int) -> Iterator[tuple[int, int, tuple]]:
    """The one loop over trial indices: ``(i, trial_seed, gens)``, after checking ``trials``."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    trial = TrialStreams(master_seed, roles).trial
    for i in range(trials):
        trial_seed, gens = trial(i)
        yield i, trial_seed, gens


_ROLE_REFEREE, _ROLE_SETUP, _ROLE_A, _ROLE_B, _ROLE_C = range(5)


@dataclass(frozen=True)
class TrialRecord:
    trial_index: int  # the fields in declaration order are the keys of its JSON line
    seed: int
    pattern: QuestionPattern
    answers: tuple[int, int, int]
    detections: tuple[bool, bool, bool]
    win: bool


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


def _report_fields(counts: Counter, scored: Callable[[int, bool], bool], master_seed: int) -> dict:
    """The ``ExperimentReport`` fields of a run's counts, scoring trials that pass ``scored``.

    ``counts`` is ``_play``'s tally over ``_trials``; ``scored(detections, win)``
    tells whether a trial with that many detecting players and that verdict counts as won.
    """
    trials, hits = Counter(), Counter()
    triple = 0
    for (pattern, detections, win), n in counts.items():
        trials[pattern] += n
        if scored(detections, win):
            hits[pattern] += n
        if detections == 3:
            triple += n
    total = counts.total()
    won = hits.total()
    return dict(
        trials=total,
        wins=won,
        win_rate=won / total,
        per_pattern_trials={p.value: trials[p] for p in PATTERNS},
        per_pattern_win_rates={
            p.value: (hits[p] / trials[p] if trials[p] else None) for p in PATTERNS
        },
        triple_detection_rate=triple / total,
        master_seed=master_seed,
    )


def _play(
    strategy: Strategy,
    trials: int,
    master_seed: int,
    record_sink: Callable[[TrialRecord], None] | None,
) -> Counter:
    """Play seeded rounds through ``_trials``, count them, pass records on.

    Each trial adds one to ``counts[pattern, detections, win]``: its question
    pattern, how many of the three players detected, and whether the answer
    product hit the target.  Every report is read from these counts.
    """
    counts = Counter()
    answer = strategy.answer
    eta = strategy.eta
    lossy = eta < 1.0  # no detection coin at eta == 1, so a lossless copy draws as the bare strategy
    for i, trial_seed, gens in _trials(trials, master_seed, 5):
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
        counts[pattern, sum(detections), won] += 1
        if record_sink is not None:
            record_sink(TrialRecord(i, trial_seed, pattern, tuple(answers), tuple(detections), won))
    return counts


def run_experiment(
    strategy: Strategy,
    trials: int,
    master_seed: int,
    record_sink: Callable[[TrialRecord], None] | None = None,
) -> ExperimentReport:
    """Play ``trials`` seeded rounds and report the counts ``_play`` keeps.

    Every won round scores, however many players detected.  Undetected
    players are scored with a fair random sign drawn from their own stream,
    and the failure is recorded in ``TrialRecord.detections``.  Identical
    inputs produce an identical report.
    """
    counts = _play(strategy, trials, master_seed, record_sink)
    fields = _report_fields(counts, lambda detections, win: win, master_seed)
    return ExperimentReport(strategy=strategy.name, **fields)
