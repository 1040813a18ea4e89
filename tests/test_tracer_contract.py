"""The benchmark's traced run wraps ghzlab functions by dotted path.

``perfbench/tracer.py`` lists them in ``TARGETS``; a target that is gone or
renamed is reported absent and its per-layer metric is lost.  These tests
load the tracer, without changing the benchmark, and check that every target
still resolves and still takes the arguments the tracer binds by name, and
that small traced commands write what untraced ones write, with the random
draws and sampling collapses the tracer counted for them when the counts
were first pinned.
"""

import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "perfbench" / "tracer.py"
# Functions the command line hands a record sink; the tracer times the sink.
RECORD_SINK_TARGETS = {"game.run_experiment", "lhv.lhv_statistics", "teleport.run_trials"}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = load_tracer()
TARGETS = TRACER.TARGETS


@pytest.mark.parametrize("path, span, extra", TARGETS, ids=[t[0] for t in TARGETS])
def test_tracer_target_resolves(path, span, extra):
    module_name, *attrs = path.split(".")
    target = importlib.import_module(f"ghzlab.{module_name}")
    for attr in attrs:
        target = getattr(target, attr)
    assert callable(target)
    params = inspect.signature(target).parameters
    if extra in ("trials", "records"):
        assert extra in params
    if path in RECORD_SINK_TARGETS:
        assert "record_sink" in params


def test_every_record_sink_target_is_traced():
    assert RECORD_SINK_TARGETS <= {path for path, _, _ in TARGETS}


# (argv, random draws, sampling collapses) of a traced run of the command
TRACED_COMMANDS = (
    (("game", "--strategy", "quantum", "--eta", "0.9", "--trials", "200", "--seed", "5",
      "--format", "jsonl"), 1249, 540),
    (("game", "--strategy", "lhv", "--trials", "200", "--seed", "5", "--format", "json"), 501, 0),
    # records with silent seats through the wrapped record sink
    (("game", "--strategy", "lhv", "--trials", "200", "--seed", "5", "--format", "jsonl"), 501, 0),
    # a table team draws only the referee's pattern: its setup draws nothing
    (("game", "--strategy", "classical-best", "--trials", "200", "--seed", "5", "--format", "json"),
     200, 0),
    (("game", "--strategy", "random", "--trials", "200", "--seed", "5", "--format", "json"), 800, 0),
    (("teleport", "--trials", "40", "--seed", "5", "--format", "json"), 240, 240),
    # the tracer wraps the record sink that teleport.run_trials hands each record
    (("teleport", "--trials", "64", "--seed", "9", "--format", "jsonl"), 384, 384),
    (("sweep", "--grid", "0.5", "1", "--trials", "100", "--seed", "5", "--format", "json"), 985, 454),
)


@pytest.mark.parametrize("argv, draws, collapses", TRACED_COMMANDS,
                         ids=["game-quantum-eta-jsonl", "game-lhv-json", "game-lhv-jsonl",
                              "game-classical-best-json", "game-random-json", "teleport-json",
                              "teleport-jsonl", "sweep-json"])
def test_traced_command_matches_untraced(tmp_path, argv, draws, collapses):
    from ghzlab.cli import main

    assert main([*argv, "--out", str(tmp_path / "plain")]) == 0
    # the tracer wraps only modules already imported, and commands import theirs on use
    for path, _, _ in TARGETS:
        importlib.import_module(f"ghzlab.{path.split('.')[0]}")
    tracer = TRACER.Tracer()
    tracer.install()
    try:
        assert main([*argv, "--out", str(tmp_path / "traced")]) == 0
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    assert (tmp_path / "traced").read_bytes() == (tmp_path / "plain").read_bytes()
    assert tracer.draws == draws
    assert sum(span[0].startswith(TRACER.COLLAPSES) for span in tracer.spans) == collapses


def test_traced_benchmark_run_reports_every_layer():
    # the whole traced run, as the benchmark starts it: a metric the tracer
    # cannot compute is written as null, and the run is then not a result
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "game", "--seed", "1",
         "--seconds", "0.1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    for metric in declared:
        value = result["metrics"][metric["name"]]["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool), metric["name"]
