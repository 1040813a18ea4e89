"""Instruction-kit local model that survives inefficient detectors.

Each particle triple carries a kit: a pre-agreed answer table, the
``game.DeterministicTable`` the classical teams play, with one reply per
(player, question) slot, where a reply is +1, -1, or ``NO_DETECTION``, an
instruction for the detector to stay silent.  Players read a kit by the
answer rule of every pre-agreed team.  An admissible kit has exactly one
silent slot and satisfies the two game constraints whose question sets
avoid that slot; the other two constraints are never tested, because the
silent slot suppresses one answer whenever they come up.

Played against a referee who draws patterns uniformly, such kits produce
triple detections in exactly half the runs, win every one of those runs,
and never produce runs with fewer than two detections.  That last feature
separates the model from a quantum team with lossy detectors, whose
detection failures are independent across players.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .game import (
    NO_DETECTION,
    PATTERNS,
    DeterministicTable,
    ExperimentReport,
    Strategy,
    TableStrategy,
    TrialRecord,
    _play,
    _report_fields,
    play_deterministic,
    wins,
)
from .qsim import RandomSource


def kit_is_admissible(kit: DeterministicTable) -> bool:
    """Exactly one silent reply, and both patterns that never ask for it won."""
    if kit.count(NO_DETECTION) != 1:
        return False
    for pattern in PATTERNS:
        replies = play_deterministic(kit, pattern)
        if NO_DETECTION not in replies and not wins(pattern, replies):
            return False
    return True


@lru_cache(maxsize=1)
def enumerate_kits() -> tuple[DeterministicTable, ...]:
    """All admissible kits, in lexicographic order of their replies ranked +1, -1, silent."""
    replies = itertools.product((1, -1, NO_DETECTION), repeat=6)
    return tuple(kit for kit in (DeterministicTable(*r) for r in replies) if kit_is_admissible(kit))


class KitStrategy(Strategy):
    """Each round the triple carries one kit, drawn uniformly from the admissible family.

    A kit is an answer table, and a player reads it by the answer rule of
    every pre-agreed team (``TableStrategy.answer``): the kit's reply for the
    question asked, or silence.  Kits carry their own detection model, so
    detection efficiency does not apply to them.
    """

    name = "lhv-instruction-kits"
    answer = TableStrategy.answer

    def setup(self, rnd: RandomSource) -> DeterministicTable:
        kits = enumerate_kits()
        return kits[int(rnd.integers(len(kits)))]


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
    counts = _play(strategy, trials, master_seed, record_sink)
    fields = _report_fields(counts, lambda detections, win: detections == 3 and win, master_seed)
    detected = Counter()
    for (_, detections, _), n in counts.items():
        detected[detections] += n
    return LhvReport(
        strategy=strategy.name,
        **fields,
        conditional_win_rate=(fields["wins"] / detected[3] if detected[3] else None),
        single_detections=detected[1],
        null_detections=detected[0],
    )
