"""The benchmark's tracer must find every package name it wraps.

bench/tracing.py records spans by swapping names bound in the package's
modules; a rename there leaves its spans silently at zero.  This guard
loads the tracer from the benchmark directory and checks that every entry
point resolves, and that a gradcheck run under it records forward spans.
The workloads also call the package directly (the training-sample API
among others), so the smallest train workload runs here as well.
"""

import importlib.util
from pathlib import Path

from visthresh import training

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracing():
    return load_bench("tracing")


def test_every_entry_point_is_bound_and_traced():
    tracing = load_tracing()
    tracer = tracing.Tracer(tracing.ENTRY_POINTS)
    with tracer(0):
        assert tracer.absent == set()
        report = training.gradcheck(seed=1, n_coords=2)
    assert report.passed
    spans = tracer.summary(lambda op: op == 0)
    # the base forward; differences of fc-side coordinates resume past it
    assert spans["regressor.forward"]["calls"] >= 1
    assert spans["training.gradcheck"]["calls"] == 1
    assert tracing.absent_layers(tracer) == []
    # a conv1 weight reruns the full forward for each of its differences
    with tracer(1):
        training.gradcheck(seed=1, n_coords=1, corrupt_index=0)
    assert tracer.summary(lambda op: op == 1)["regressor.forward"]["calls"] >= 3


def test_tiny_train_workload_passes_its_check(tmp_path):
    workload = load_bench("workloads").Train(seed=3, tiny=True)
    workload.setup(tmp_path)
    message, fingerprint = workload.check(0, workload.op(0))
    assert message is None
    assert fingerprint is not None
