"""The benchmark's traced run wraps ghzlab functions by dotted path.

``perfbench/tracer.py`` lists them in ``TARGETS``; a target that is gone or
renamed is reported absent and its per-layer metric is lost.  This test reads
that list, without changing the benchmark, and checks that every target
still resolves and still takes the arguments the tracer binds by name.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
# Functions the command line hands a record sink; the tracer times the sink.
RECORD_SINK_TARGETS = {"game.run_experiment", "lhv.lhv_statistics", "teleport.run_trials"}


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = load_targets()


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
