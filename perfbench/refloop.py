"""The reference loop that defines the benchmark's unit of time, the cal.

One cal is the duration of one call of :func:`reference_loop`.  The loop is
written to resemble the program's work: each iteration does a gather, a
``vdot`` and scatters on an 8- and a 512-element complex array (the 3-site
and 9-site state sizes), then builds a few small records, dicts and strings
as the CLI layer does.  A host that runs the program slower runs this loop
slower by nearly the same factor, so a pass length in cals repeats where a
pass length in seconds does not.

The loop is part of the definition of every ``*_per_cal`` metric.  Never
change it once baselines exist: a different loop is a different unit.
"""

from __future__ import annotations

import math
import time

import numpy as np

ITERATIONS = 5500
RECORDS_PER_ITERATION = 6
_SQRT1_2 = 1.0 / math.sqrt(2.0)


class _Record:
    __slots__ = ("index", "pair", "name")

    def __init__(self, index: int, pair: tuple[int, int], name: str):
        self.index = index
        self.pair = pair
        self.name = name


def _record_work(k: int) -> int:
    rec = _Record(k & 7, (k, k + 1), f"x{k & 7}")
    fields = {"name": rec.name, "values": list(rec.pair), "flag": rec.index > 3}
    text = ",".join(str(v) for v in fields["values"])
    return len(text) + len(fields)


def _operands() -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    rng = np.random.default_rng(20260101)
    operands = []
    for sites in (3, 9):
        dim = 1 << sites
        amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        amps /= math.sqrt(float(np.vdot(amps, amps).real))
        idx = np.arange(dim)
        i0 = idx[((idx >> 1) & 1) == 0]
        operands.append((amps, i0, i0 + 2))
    return operands


def reference_loop() -> float:
    """Run the fixed loop once; returns a checksum so no work is skipped."""
    operands = _operands()
    tally: dict[int, float] = {}
    count = 0
    for k in range(ITERATIONS):
        for amps, i0, i1 in operands:
            a0 = amps[i0]
            a1 = amps[i1]
            coeff = (a0 + a1) * _SQRT1_2
            prob = float(np.vdot(coeff, coeff).real)
            out = np.zeros(amps.shape[0], dtype=complex)
            out[i0] = coeff * _SQRT1_2
            out[i1] = coeff * _SQRT1_2
            key = k & 15
            tally[key] = tally.get(key, 0.0) + prob
        for j in range(RECORDS_PER_ITERATION):
            count += _record_work(k + j)
    return sum(tally.values()) + count


def cal_seconds() -> float:
    """Seconds one run of the reference loop takes now."""
    start = time.perf_counter()
    checksum = reference_loop()
    elapsed = time.perf_counter() - start
    if not math.isfinite(checksum):
        raise RuntimeError("reference loop produced a non-finite checksum")
    return elapsed
