"""Per-layer metrics from the spans and counters of traced passes.

Times are raw microseconds (not cals), summed over every traced pass of a
run and divided by the number of calls, trials or records named in the
metric.  ``*_us`` is inclusive time per call; ``*self*`` excludes the time of
child spans.  Counts are per trial of the workload that plays them, using
the trial counts the workload asks for.  A metric whose span never occurred,
or whose function no longer exists, is reported with value null and
``"absent": true``.
"""

from __future__ import annotations

import sys
from collections import defaultdict

from tracer import COLLAPSES

PATTERNS_PER_ELEMENTS_TRIAL = 4  # generalized_elements_check runs `trials` per pattern

# name -> (span, field, divisor); divisor "calls", or a key of Accumulator.trials/records
TIMED = {
    "cli.build_parser_us": ("cli.build_parser", "total", "calls"),
    "cli.record_serialize_us": ("cli.record_serialize", "total", "calls"),
    "game.trial_streams_us": ("game.trial_streams", "total", "calls"),
    "game.draw_pattern_us": ("game.draw_pattern", "total", "calls"),
    "game.harness_self_us_per_trial": ("game.run_experiment", "self", "trials"),
    "lhv.self_us_per_trial": ("lhv.lhv_statistics", "self", "trials"),
    "qsim.measure_pauli_3site_us": ("qsim.measure_pauli_3site", "total", "calls"),
    "qsim.measure_pauli_9site_us": ("qsim.measure_pauli_9site", "total", "calls"),
    "qsim.bell_measure_9site_us": ("qsim.bell_measure_9site", "total", "calls"),
    "qsim.pauli_project_us": ("qsim.pauli_project", "total", "calls"),
    "qsim.product_project_us": ("qsim.product_project", "total", "calls"),
    "qsim.measure_product_us": ("qsim.measure_product", "total", "calls"),
    "teleport.run_trial_self_us": ("teleport.run_trial", "self", "calls"),
    "teleport.summarize_us_per_record": ("teleport.summarize", "total", "records"),
    "prepost.abl_distribution_us": ("prepost.abl_distribution", "total", "calls"),
    "prepost.conditionals_check_us": ("prepost.conditionals_check", "total", "calls"),
    "prepost.generalized_elements_us_per_trial":
        ("prepost.generalized_elements_check", "total", "trials"),
    "parity.solve_gf2_us": ("parity.solve_gf2", "total", "calls"),
    "parity.solve_enumerate_us": ("parity.solve_enumerate", "total", "calls"),
    "parity.drop_one_analysis_us": ("parity.drop_one_analysis", "total", "calls"),
}


class Accumulator:
    """Span totals and counters summed over the traced passes of one run."""

    def __init__(self):
        self.spans = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
        self.trials: dict[str, int] = defaultdict(int)
        self.records: dict[str, int] = defaultdict(int)
        self.draws: dict[str, int] = defaultdict(int)  # workload -> draws
        self.collapses: dict[str, int] = defaultdict(int)  # workload -> sampling collapses
        self.workload_trials: dict[str, int] = defaultdict(int)  # workload -> trials asked

    def add(self, workload: str, calls, tracer) -> None:
        totals = tracer.totals()
        for name, entry in totals.items():
            for field, value in entry.items():
                self.spans[name][field] += value
        for name, n in tracer.trials.items():
            factor = PATTERNS_PER_ELEMENTS_TRIAL if name == "prepost.generalized_elements_check" else 1
            self.trials[name] += factor * n
        for name, n in tracer.records.items():
            self.records[name] += n
        self.draws[workload] += tracer.draws
        self.collapses[workload] += sum(
            entry["calls"] for name, entry in totals.items()
            if any(name.startswith(c) for c in COLLAPSES)
        )
        self.workload_trials[workload] += sum(c.trials for c in calls)


def _value(value, unit: str) -> dict:
    if value is None:
        return {"value": None, "unit": unit, "absent": True}
    return {"value": value, "unit": unit}


def metrics(acc: Accumulator, absent: list[str], overhead: float, peak_per_trial: float) -> dict:
    out = {}
    for name, (span, field, divisor) in TIMED.items():
        entry = acc.spans.get(span)
        count = {"calls": entry and entry["calls"], "trials": acc.trials.get(span),
                 "records": acc.records.get(span)}[divisor]
        value = entry[field] / count * 1e6 if entry and count else None
        out[name] = _value(value, "us")

    def per_trial(counter: dict[str, int], *names: str):
        trials = sum(acc.workload_trials[w] for w in names)
        total = sum(counter[w] for w in names)
        return total / trials if total and trials else None

    out["game.draws_per_trial"] = _value(per_trial(acc.draws, "game"), "count")
    out["teleport.draws_per_trial"] = _value(per_trial(acc.draws, "teleport"), "count")
    out["qsim.collapses_per_trial"] = _value(per_trial(acc.collapses, "game", "teleport"), "count")
    out["teleport.peak_bytes_per_trial"] = _value(peak_per_trial, "B")
    out["trace.overhead_ratio"] = _value(overhead, "ratio")
    if absent:
        print("absent layers: " + ", ".join(absent), file=sys.stderr)
    return out
