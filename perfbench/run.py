"""Benchmark for ghzlab: seeded CLI workloads timed in calibration units.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload game --seed 1 --seconds 25 --trace 0

The program is imported from ``src/`` of the checkout and driven as users
drive it, through ``ghzlab.cli.main(argv)`` with ``--out`` into a temporary
directory under ``perfbench/_runs``, in this one process and thread.  Every
output is checked (see ``checks.py``); the last line on stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are end to end: ``trials_per_cal``,
``cmds_per_cal``, ``peak_mem_kib`` and ``setup_s``.  With ``--trace 1`` they
are the per-layer figures of a traced run over all three workloads.  See
README.md for what each metric means and which layer moves which metric.

Modules of the benchmark that import numpy are imported inside functions,
after the cold set-up has been timed.
"""

import time

_PROCESS_START = time.perf_counter()

import os  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS_DIR = BENCH_DIR / "_runs"
MIN_PASSES = 3
# Untimed memory passes; peak_mem_kib is the largest peak among them.  The
# same teleport operation peaks up to 5% lower in some passes than in others.
PEAK_PASSES = 2
PEAK_TRIALS = 512  # teleport trials for the per-trial peak-memory difference


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


class Runner:
    """Runs passes of operations and checks every output they write."""

    def __init__(self, out_dir: Path):
        import ghzlab.cli
        import ghzlab.prepost
        import ghzlab.qsim

        self.ghzlab = sys.modules["ghzlab"]
        self.out_dir = str(out_dir)
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.reference: dict[str, str] = {}
        self.context: dict = {"twin_wins": {}}
        self._reported: set[str] = set()
        self._api_results: dict[str, object] = {}

    def invoke(self, call) -> bool:
        """Run one operation; True when it succeeded."""
        g = self.ghzlab
        if call.kind == "generalized_elements":
            try:
                self._api_results[call.label] = g.prepost.generalized_elements_check(
                    g.qsim.make_ghz(), call.params[0], call.seed)
            except Exception as exc:  # an operation that fails is counted, not fatal
                _log(f"{call.label}: {type(exc).__name__}: {exc}")
                return False
            return True
        return g.cli.main([*call.argv, "--out", self._out_path(call)]) == 0

    def _out_path(self, call) -> str:
        # A new file per pass: truncating and rewriting a file makes ext4
        # flush it on close, and those waits were the largest noise in
        # passes of many small outputs.  A plain string, not a Path: pathlib
        # interns every new name, and the interned-string table then grows
        # with the number of passes and now and then reallocates (about
        # 0.9 MiB at once), which showed as a jump in peak_mem_kib.
        return os.path.join(self.out_dir, f"{call.label}.{self.passes}")

    def output(self, call) -> str:
        """The output an operation produced in the current pass."""
        if call.kind == "generalized_elements":
            rep = self._api_results.pop(call.label)
            return json.dumps({
                "checks": [{"pattern": c.pattern.value, "trials": c.trials,
                            "target": c.target, "matches": c.matches} for c in rep.checks],
                "all_hold": rep.all_hold,
            })
        with open(self._out_path(call)) as fh:
            return fh.read()

    def run_pass(self, calls, wrap=None, counted=True) -> tuple[float, dict[str, str]]:
        """Time one pass; return its seconds and the outputs of the calls that succeeded.

        Only whole passes of a workload are ``counted`` in attempted and
        failed, so a call that always fails is the same share in every run;
        a failed auxiliary call (``counted=False``) fails the run's checks.
        """
        start = time.perf_counter()
        ok = self._invoke_all(calls, wrap)
        elapsed = time.perf_counter() - start
        return elapsed, self._outputs(calls, ok, counted)

    def peak_pass(self, calls, counted=True) -> tuple[int, dict[str, str]]:
        """Run one untimed pass; return the largest peak of one call in it, in bytes, and its outputs.

        A call's peak is its ``tracemalloc`` peak above what the process
        held when the call began, after a full collection, as a CLI user
        starts each command in a fresh process; a peak over the whole pass
        was mostly garbage and leftovers of earlier calls, and moved by 10%
        between runs of the same inputs (see README.md).  The outputs are
        read after tracing stops, so the peak is the program's own.
        """
        import tracemalloc

        peaks = [0]

        def measured(call, invoke):
            gc.collect()
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            result = invoke(call)
            peaks.append(tracemalloc.get_traced_memory()[1] - held)
            return result

        tracemalloc.start()
        try:
            ok = self._invoke_all(calls, measured)
        finally:
            tracemalloc.stop()
        return max(peaks), self._outputs(calls, ok, counted)

    def _invoke_all(self, calls, wrap=None) -> dict[str, bool]:
        self.passes += 1
        if wrap is None:
            return {call.label: self.invoke(call) for call in calls}
        return {call.label: wrap(call, self.invoke) for call in calls}

    def _outputs(self, calls, ok: dict[str, bool], counted: bool) -> dict[str, str]:
        outputs = {}
        for call in calls:
            if ok[call.label]:
                outputs[call.label] = self.output(call)
            elif not counted:
                self.fail(call.label, "the call failed")
        if counted:
            self.attempted += len(calls)
            self.failed += len(calls) - len(outputs)
        return outputs

    def fail(self, label: str, message: str) -> None:
        self.correct = False
        if label not in self._reported:
            self._reported.add(label)
            _log(f"check failed: {label}: {message}")

    def check(self, calls, outputs: dict[str, str]) -> None:
        import checks

        for call in calls:
            text = outputs.get(call.label)
            if text is None:
                continue
            reference = self.reference.setdefault(call.label, text)
            if text != reference:
                self.fail(call.label, "output differs from an earlier run of the same call")
            try:
                checks.check(call, text, self.context)
            except checks.CheckFailed as exc:
                self.fail(call.label, str(exc))

    def prepare_checks(self, calls, outputs: dict[str, str]) -> None:
        """Untimed extras: the json twin of each jsonl game call, and the self-test."""
        import checks

        for call in calls:
            if call.kind != "game_lossy_jsonl":
                continue
            argv = tuple("json" if a == "jsonl" else a for a in call.argv)
            twin = workloads.Call(call.label + "-twin", "game_lossy_json", argv,
                                  call.trials, call.seed, call.params)
            _, twin_out = self.run_pass([twin], counted=False)
            if twin.label in twin_out:
                self.check([twin], twin_out)
                self.context["twin_wins"][call.label] = json.loads(twin_out[twin.label])["wins"]
        for name, caught in checks.self_test(calls, outputs, self.context):
            if not caught:
                self.fail(f"self-test/{name}", "a corrupted output passed its check")


def end_to_end(runner: Runner, calls, seconds: float, setup_s: float) -> dict:
    from refloop import cal_seconds

    _, outputs = runner.run_pass(calls)  # untimed first pass: reference outputs
    runner.check(calls, outputs)
    runner.prepare_checks(calls, outputs)

    # Peak memory before the timed loop, so that what the process holds and
    # has interned by then does not depend on how many passes fit in --seconds.
    peak = 0
    for _ in range(PEAK_PASSES):
        pass_peak, outputs = runner.peak_pass(calls)
        runner.check(calls, outputs)
        peak = max(peak, pass_peak)

    # Consecutive passes share the cal between them; outputs are checked
    # after the loop so that nothing runs between a cal and its pass.
    pass_seconds, pass_cals, pass_outputs = [], [], []
    deadline = time.perf_counter() + seconds
    gc.collect()
    cal_before = cal_seconds()
    while len(pass_cals) < MIN_PASSES or time.perf_counter() < deadline:
        elapsed, outputs = runner.run_pass(calls)
        gc.collect()
        cal_after = cal_seconds()
        pass_seconds.append(elapsed)
        pass_cals.append(elapsed / ((cal_before + cal_after) / 2.0))
        pass_outputs.append(outputs)
        cal_before = cal_after
    for outputs in pass_outputs:
        runner.check(calls, outputs)
    trials = sum(c.trials for c in calls) or len(calls)
    pass_s = statistics.median(pass_seconds)

    _log(f"{len(pass_cals)} timed passes: median {statistics.median(pass_cals):.4f} cals, "
         f"{pass_s * 1e3:.1f} ms; {trials / pass_s:.0f} trials/s, {len(calls) / pass_s:.1f} commands/s")
    return {
        "trials_per_cal": {"value": statistics.median([trials / c for c in pass_cals]),
                           "unit": "trials/cal"},
        "cmds_per_cal": {"value": statistics.median([len(calls) / c for c in pass_cals]),
                         "unit": "commands/cal"},
        "peak_mem_kib": {"value": peak / 1024.0, "unit": "KiB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def traced(runner: Runner, seed: int, seconds: float) -> dict:
    import layers
    from tracer import Tracer, write_spans

    passes = {w: workloads.build(w, seed) for w in workloads.WORKLOADS}
    for calls in passes.values():
        _, outputs = runner.run_pass(calls)
        runner.check(calls, outputs)
        runner.prepare_checks(calls, outputs)

    tracer = Tracer()

    def wrap(call, invoke):
        tracer.root = call.label
        return tracer.span(f"call:{call.label}", invoke, call)

    acc = layers.Accumulator()
    last_spans: dict[str, list] = {}
    ratios = []
    deadline = time.perf_counter() + seconds
    while len(ratios) < 1 or time.perf_counter() < deadline:
        times = {}
        for mode in (("plain", "traced") if len(ratios) % 2 == 0 else ("traced", "plain")):
            total = 0.0
            for workload, calls in passes.items():
                gc.collect()
                if mode == "plain":
                    elapsed, outputs = runner.run_pass(calls)
                else:
                    tracer.reset()
                    tracer.install()
                    try:
                        elapsed, outputs = runner.run_pass(calls, wrap)
                    finally:
                        tracer.uninstall()
                    acc.add(workload, calls, tracer)
                    last_spans[workload] = list(tracer.spans)
                runner.check(calls, outputs)
                total += elapsed
            times[mode] = total
        ratios.append(times["traced"] / times["plain"])

    write_spans(RUNS_DIR / "spans.jsonl", last_spans)  # the last traced pass of each workload
    peak_per_trial = _teleport_peak_bytes_per_trial(runner, passes["teleport"])
    return layers.metrics(acc, tracer.absent, statistics.median(ratios), peak_per_trial)


def _teleport_peak_bytes_per_trial(runner: Runner, teleport_calls) -> float:
    """Growth of tracemalloc peak per extra teleport trial, json output."""
    base = next(c for c in teleport_calls if c.kind == "teleport_json")
    peaks = []
    for trials in (PEAK_TRIALS, 2 * PEAK_TRIALS):
        argv = list(base.argv)
        argv[argv.index("--trials") + 1] = str(trials)
        call = workloads.Call(f"{base.label}-peak{trials}", base.kind, tuple(argv), trials, base.seed)
        peak, outputs = runner.peak_pass([call], counted=False)
        peaks.append(peak)
        runner.check([call], outputs)
    return (peaks[1] - peaks[0]) / PEAK_TRIALS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")

    if not (SRC / "ghzlab" / "__init__.py").is_file():
        _log(f"no ghzlab package under {SRC}; run from a checkout of the repository")
        return 2
    sys.path.insert(0, str(SRC))
    calls = workloads.build(args.workload, args.seed)

    RUNS_DIR.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS_DIR))
    try:
        runner = Runner(out_dir)  # imports ghzlab, and numpy with it
        if not Path(runner.ghzlab.__file__).resolve().is_relative_to(SRC.resolve()):
            _log(f"ghzlab was imported from {runner.ghzlab.__file__}, not from {SRC}")
            return 2
        # the cold set-up: imports and the workload's first call, timed from
        # the start of this process; a failure here shows again in the passes
        first_ok = runner.invoke(calls[0])
        setup_s = time.perf_counter() - _PROCESS_START
        if first_ok:
            runner.check(calls[:1], {calls[0].label: runner.output(calls[0])})

        if args.trace:
            metrics = traced(runner, args.seed, args.seconds)
        else:
            metrics = end_to_end(runner, calls, args.seconds, setup_s)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    print(json.dumps({
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
