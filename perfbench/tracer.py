"""Spans and counters around ghzlab's layers, for the traced run only.

:class:`Tracer` replaces public functions of the imported ``ghzlab`` package
by wrappers, in this process only and only between :meth:`Tracer.install`
and :meth:`Tracer.uninstall`.  A function is replaced wherever a ``ghzlab``
module holds it as an attribute, so ``from .qsim import measure_pauli`` in
``game`` is wrapped as well.  Each wrapper records a span (name, start,
end, parent); self time is a span's duration minus its children's.  The
generators that ``TrialStreams.trial`` returns are handed to the program as
counting proxies, which count random draws.

A target that no longer exists is listed in :attr:`Tracer.absent` and its
metrics are reported as absent, so a refactor does not stop the benchmark.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

# (dotted path under ghzlab, span name, what else the wrapper records).  A
# name containing "{sites}" is completed with the site count of the call's
# first argument, a state.  "trials" adds the call's ``trials`` argument to
# Tracer.trials, "records" the length of its ``records`` argument to
# Tracer.records, and "streams" hands out counting generators.
TARGETS = (
    ("cli.build_parser", "cli.build_parser", ""),
    ("game.TrialStreams.trial", "game.trial_streams", "streams"),
    ("game.draw_pattern", "game.draw_pattern", ""),
    ("game.run_experiment", "game.run_experiment", "trials"),
    ("lhv.lhv_statistics", "lhv.lhv_statistics", "trials"),
    ("qsim.measure_pauli", "qsim.measure_pauli_{sites}site", ""),
    ("qsim.bell_measure", "qsim.bell_measure_{sites}site", ""),
    ("qsim.bell_project", "qsim.bell_project", ""),
    ("qsim.pauli_project", "qsim.pauli_project", ""),
    ("qsim.product_project", "qsim.product_project", ""),
    ("qsim.measure_product", "qsim.measure_product", ""),
    ("qsim.expectation_product", "qsim.expectation_product", ""),
    ("teleport.run_trials", "teleport.run_trials", ""),
    ("teleport.run_trial", "teleport.run_trial", ""),
    ("teleport.summarize", "teleport.summarize", "records"),
    ("prepost.abl_distribution", "prepost.abl_distribution", ""),
    ("prepost.conditionals_check", "prepost.conditionals_check", ""),
    ("prepost.generalized_elements_check", "prepost.generalized_elements_check", "trials"),
    ("parity.solve_gf2", "parity.solve_gf2", ""),
    ("parity.solve_enumerate", "parity.solve_enumerate", ""),
    ("parity.drop_one_analysis", "parity.drop_one_analysis", ""),
)

# A ``record_sink`` argument is wrapped in this span: the jsonl serialization.
SINK_SPAN = "cli.record_serialize"
# Span name prefixes of the sampling collapses, counted per trial.
COLLAPSES = ("qsim.measure_pauli", "qsim.bell_measure", "qsim.measure_product")


class _CountingGenerator:
    """Forwards to a numpy Generator, counting the values drawn."""

    __slots__ = ("_gen", "_tracer")

    def __init__(self, gen, tracer: "Tracer"):
        self._gen = gen
        self._tracer = tracer

    def random(self, *args, **kwargs):
        out = self._gen.random(*args, **kwargs)
        self._tracer.draws += getattr(out, "size", 1)
        return out

    def integers(self, *args, **kwargs):
        out = self._gen.integers(*args, **kwargs)
        self._tracer.draws += getattr(out, "size", 1)
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, root label]
        self._stack: list[int] = []
        self.root = ""
        self.draws = 0
        self.trials: dict[str, int] = defaultdict(int)  # span name -> trials requested
        self.records: dict[str, int] = defaultdict(int)  # span name -> records summarized
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._proxies: dict[int, tuple] = {}

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.root])
        self._stack.append(index)
        return index

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        index = self._enter(name)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[index][1] = start
            self.spans[index][2] = perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, extra: str, fn):
        tracer = self
        signature = inspect.signature(fn)
        per_state = "{sites}" in name
        bind = extra in ("trials", "records") or "record_sink" in signature.parameters

        def wrapper(*args, **kwargs):
            span_name = name.format(sites=args[0].num_sites) if per_state else name
            if bind:
                bound = signature.bind(*args, **kwargs)
                if extra == "trials":
                    tracer.trials[span_name] += bound.arguments["trials"]
                elif extra == "records":
                    tracer.records[span_name] += len(bound.arguments["records"])
                sink = bound.arguments.get("record_sink")
                if sink is not None:
                    bound.arguments["record_sink"] = lambda rec: tracer.span(SINK_SPAN, sink, rec)
                    args, kwargs = bound.args, bound.kwargs
            result = tracer.span(span_name, fn, *args, **kwargs)
            if extra == "streams":
                result = (result[0], tracer._counting(result[1]))
            return result

        return wrapper

    def _counting(self, gens: tuple) -> tuple:
        proxies = self._proxies.get(id(gens))
        if proxies is None or proxies[0] is not gens:
            proxies = (gens, tuple(_CountingGenerator(g, self) for g in gens))
            self._proxies[id(gens)] = proxies
        return proxies[1]

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ghzlab" or n.startswith("ghzlab."))]
        self.absent = []
        for path, name, extra in TARGETS:
            module_name, *attrs = path.split(".")
            owner = sys.modules.get(f"ghzlab.{module_name}")
            for attr in attrs[:-1]:
                owner = getattr(owner, attr, None)
            fn = getattr(owner, attrs[-1], None)
            if fn is None or not callable(fn):
                self.absent.append(path)
                continue
            wrapper = self._wrap(name, extra, fn)
            holders = [owner] if len(attrs) > 1 else [
                m for m in modules if getattr(m, attrs[-1], None) is fn
            ]
            for holder in holders:
                self._patches.append((holder, attrs[-1], fn))
                setattr(holder, attrs[-1], wrapper)

    def uninstall(self) -> None:
        for holder, attr, fn in reversed(self._patches):
            setattr(holder, attr, fn)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
        for k, (name, start, end, _, _) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["total"] += end - start
            entry["self"] += end - start - child_time[k]
        return dict(out)

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self.draws = 0
        self.trials.clear()
        self.records.clear()
        self._proxies.clear()


def write_spans(path, spans_by_workload: dict[str, list]) -> None:
    """Write spans, one JSON object per line; ``id`` and ``parent`` count within a workload."""
    with open(path, "w") as fh:
        for workload, spans in spans_by_workload.items():
            for k, (name, start, end, parent, root) in enumerate(spans):
                fh.write(json.dumps({"workload": workload, "id": k, "parent": parent,
                                     "call": root, "name": name, "start": start, "end": end}) + "\n")
