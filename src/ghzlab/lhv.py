"""Instruction-kit local model that survives inefficient detectors.

Each particle triple carries a kit: a pre-assigned reply for every
(player, question) slot, where a reply is +1, -1, or an instruction for
the detector to stay silent.  An admissible kit has exactly one silent
slot and satisfies the two game constraints whose question sets avoid
that slot; the other two constraints are never tested, because the silent
slot suppresses one answer whenever they come up.

Played against a referee who draws patterns uniformly, such kits produce
triple detections in exactly half the runs, win every one of those runs,
and never produce runs with fewer than two detections.  That last feature
separates the model from a quantum team with lossy detectors, whose
detection failures are independent across players.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable

from .game import (
    NO_DETECTION,
    PATTERNS,
    ExperimentReport,
    QuestionPattern,
    Strategy,
    TrialRecord,
    _NoDetection,
    _play,
)
from .qsim import Axis, RandomSource

PLAYER_NAMES = ("A", "B", "C")
_AXES = (Axis.X, Axis.Y)


class InstructionEntry(Enum):
    PLUS = "+1"
    MINUS = "-1"
    NOT_DETECTED = "not_detected"

    @property
    def sign(self) -> int | None:
        if self is InstructionEntry.PLUS:
            return 1
        if self is InstructionEntry.MINUS:
            return -1
        return None


_ENTRY_RANK = {e: k for k, e in enumerate(InstructionEntry)}


def _slot(player: int, axis: Axis) -> int:
    return 2 * player + (0 if axis is Axis.X else 1)


@dataclass(frozen=True)
class InstructionKit:
    """Six instruction entries, indexed by (player, axis) slots.

    Slot order is (A.X, A.Y, B.X, B.Y, C.X, C.Y).
    """

    entries: tuple[InstructionEntry, ...]

    def __post_init__(self):
        if len(self.entries) != 6:
            raise ValueError(f"a kit has 6 entries, got {len(self.entries)}")

    def entry(self, player: int, axis: Axis) -> InstructionEntry:
        return self.entries[_slot(player, axis)]

    def reply(self, player: int, axis: Axis) -> "int | _NoDetection":
        sign = self.entry(player, axis).sign
        return NO_DETECTION if sign is None else sign

    def describe(self) -> str:
        parts = []
        for player in range(3):
            for axis in _AXES:
                e = self.entry(player, axis)
                text = "silent" if e.sign is None else f"{e.sign:+d}"
                parts.append(f"{PLAYER_NAMES[player]}.{axis.value}={text}")
        return " ".join(parts)


def _pattern_tests_slot(pattern: QuestionPattern, player: int, axis: Axis) -> bool:
    return pattern.axes[player] is axis


@lru_cache(maxsize=256)
def kit_is_admissible(kit: InstructionKit) -> bool:
    """Exactly one silent slot, and both untouched patterns satisfied."""
    silent = [
        (p, a) for p in range(3) for a in _AXES
        if kit.entry(p, a) is InstructionEntry.NOT_DETECTED
    ]
    if len(silent) != 1:
        return False
    player, axis = silent[0]
    for pattern in PATTERNS:
        if _pattern_tests_slot(pattern, player, axis):
            continue  # this pattern never gets three answers, so it is untested
        product = 1
        for j in range(3):
            sign = kit.entry(j, pattern.axes[j]).sign
            assert sign is not None  # distinct slots cannot hit the silent one
            product *= sign
        if product != pattern.target:
            return False
    return True


@lru_cache(maxsize=1)
def enumerate_kits() -> tuple[InstructionKit, ...]:
    """All admissible kits, sorted lexicographically by slot entries."""
    kits = []
    for silent in range(6):
        for signs in itertools.product(
            (InstructionEntry.PLUS, InstructionEntry.MINUS), repeat=5
        ):
            entries = list(signs[:silent]) + [InstructionEntry.NOT_DETECTED] + list(signs[silent:])
            kit = InstructionKit(tuple(entries))
            if kit_is_admissible(kit):
                kits.append(kit)
    kits.sort(key=lambda k: tuple(_ENTRY_RANK[e] for e in k.entries))
    return tuple(kits)


class KitStrategy(Strategy):
    """Each round the triple carries one kit, drawn uniformly from the admissible family.

    A player replies with the kit entry for the question asked, or stays
    silent.  Kits carry their own detection model, so detection efficiency
    does not apply to them.
    """

    name = "lhv-instruction-kits"

    def setup(self, rnd: RandomSource) -> InstructionKit:
        kits = enumerate_kits()
        return kits[int(rnd.integers(len(kits)))]

    def answer(self, kit: InstructionKit, site: int, question: Axis, rnd: RandomSource):
        return kit.reply(site, question), kit


@dataclass(frozen=True)
class LhvReport(ExperimentReport):
    """An experiment report that scores only runs in which all three detect."""

    conditional_win_rate: float | None
    single_detections: int
    null_detections: int


def lhv_statistics(
    trials: int,
    master_seed: int,
    record_sink: Callable[[TrialRecord], None] | None = None,
) -> LhvReport:
    """Play instruction kits against the referee and tally detections.

    A run counts as a win only when all three players answer and the
    answer product hits the pattern target.  Kits are drawn uniformly from
    the full admissible family.
    """
    strategy = KitStrategy()
    tally = _play(strategy, trials, master_seed, record_sink)
    wins = sum(tally.detected_wins.values())
    triple = tally.detections[3]
    return LhvReport(
        strategy=strategy.name,
        **tally.report_fields(tally.detected_wins, master_seed),
        conditional_win_rate=(wins / triple if triple else None),
        single_detections=tally.detections[1],
        null_detections=tally.detections[0],
    )
