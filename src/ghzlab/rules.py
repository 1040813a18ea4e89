"""The rules of the three-player parity game, in plain Python.

Each round the referee asks every player one of two questions, X or Y,
drawn from the four legal patterns XXX, XYY, YXY, YYX.  Players answer
+1 or -1 without communicating.  The team wins when the product of the
answers is -1 for the XXX pattern and +1 for the other three patterns.

``ghzlab.game`` and ``ghzlab.qsim`` re-export these names; this module
imports no numpy, so the parity proofs can use it without the simulator.
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence


class Axis(Enum):
    """A spin measurement axis with outcomes +1 and -1."""

    X = "x"
    Y = "y"
    Z = "z"

    __hash__ = object.__hash__


class QuestionPattern(Enum):
    """One of the four legal question assignments to players (A, B, C)."""

    XXX = "XXX"
    XYY = "XYY"
    YXY = "YXY"
    YYX = "YYX"

    __hash__ = object.__hash__

    def __init__(self, value: str):
        self.axes: tuple[Axis, ...] = tuple(Axis(c.lower()) for c in value)
        self.target = -1 if value == "XXX" else 1  # the answer product that wins


PATTERNS: tuple[QuestionPattern, ...] = tuple(QuestionPattern)


def wins(pattern: QuestionPattern, answers: Sequence[int]) -> bool:
    """Referee predicate: does the answer product hit the pattern's target?"""
    a, b, c = answers
    return a * b * c == pattern.target
