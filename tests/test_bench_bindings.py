"""The benchmark's tracer must find every package name it wraps.

bench/tracing.py records spans by swapping names bound in the package's
modules; a rename there leaves its spans silently at zero.  This guard
loads the tracer from the benchmark directory and checks that every entry
point resolves, and that a gradcheck run under it records forward spans.
"""

import importlib.util
from pathlib import Path

from visthresh import training

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_entry_point_is_bound_and_traced():
    tracing = load_tracing()
    tracer = tracing.Tracer(tracing.ENTRY_POINTS)
    with tracer(0):
        assert tracer.absent == set()
        report = training.gradcheck(seed=1, n_coords=2)
    assert report.passed
    spans = tracer.summary(lambda op: op == 0)
    assert spans["regressor.forward"]["calls"] >= 2 * report.n_coords
    assert spans["training.gradcheck"]["calls"] == 1
    assert tracing.absent_layers(tracer) == []
