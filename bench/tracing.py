"""Span tracing for the benchmark's traced runs.

Spans are recorded at module boundaries by swapping, for the length of one
traced operation, the names that consumer modules bind (for example
``training._forward_batch`` or ``cli.predict_map``) with thin wrappers.
Nothing in the package is edited: every wrapper calls the original and
returns its result unchanged.  An entry point that no longer exists is
reported as absent instead of failing the run.

Each span holds (id, parent id, operation id, name, start, end).  Spans are
kept in memory and written out once, when the run ends.  A span's self
time is its duration minus the durations of its direct children (calls are
single-threaded, so children never overlap).
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# Computed (not measured) kernel counts for one 4x32x32 patch through the
# fixed architecture: 5x5 convs with 4->32 and 32->32 channels, two 2x2 max
# pools, an 800->100 fully connected layer and a scalar head.  One
# multiply-add counts as two FLOPs.
CONV1_MACS = 28 * 28 * 32 * (4 * 5 * 5)
CONV2_MACS = 10 * 10 * 32 * (32 * 5 * 5)
FC1_MACS = 800 * 100
FC2_MACS = 100
FORWARD_FLOP_PER_PATCH = 2 * (CONV1_MACS + CONV2_MACS + FC1_MACS + FC2_MACS)
# backward: weight gradients of every layer, input gradients of every layer
# but conv1 (the network input needs none)
BACKWARD_FLOP_PER_PATCH = 2 * (CONV1_MACS + 2 * CONV2_MACS + 2 * FC1_MACS + 2 * FC2_MACS)
IM2COL_BYTES_PER_PATCH = 8 * (4 * 5 * 5 * 28 * 28 + 32 * 5 * 5 * 10 * 10)


def _n_pixels(img) -> int:
    return int(getattr(img, "pixels", img).size)


def _manifest_rows(path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip()) - 1


# (module, attribute, span name, work counter).  The counter maps
# (args, kwargs, result) to a number of work items added to the span's
# counter; spans without one count calls only.
ENTRY_POINTS = (
    ("visthresh.cli", "run", "cli.run", None),
    ("visthresh.cli", "generate", "synthetic.generate", lambda a, k, r: _manifest_rows(r)),
    ("visthresh.cli", "load_quality_records", "image_io.load_quality_records", None),
    ("visthresh.image_io", "load_pgm", "image_io.load_pgm", None),
    ("visthresh.cli", "load_pgm", "image_io.load_pgm", None),
    ("visthresh.synthetic", "load_pgm", "image_io.load_pgm", None),
    ("visthresh.training", "mscn_map", "features.mscn_map", lambda a, k, r: _n_pixels(a[0])),
    ("visthresh.inference", "mscn_map", "features.mscn_map", lambda a, k, r: _n_pixels(a[0])),
    ("visthresh.training", "augment_patch", "features.augment_patch", None),
    ("visthresh.inference", "augment_patch", "features.augment_patch", None),
    ("visthresh.training", "_forward_batch", "regressor.forward", lambda a, k, r: a[0].shape[0]),
    ("visthresh.inference", "_forward_batch", "regressor.forward", lambda a, k, r: a[0].shape[0]),
    ("visthresh.training", "forward", "regressor.forward", lambda a, k, r: 1),
    ("visthresh.training", "_backward_batch", "regressor.backward", lambda a, k, r: a[2].shape[0]),
    ("visthresh.training", "backward", "regressor.backward", lambda a, k, r: 1),
    ("visthresh.regressor.PNetParams", "from_vector", "regressor.param_unpack", None),
    ("visthresh.cli", "save_checkpoint", "regressor.checkpoint_io", None),
    ("visthresh.cli", "load_checkpoint", "regressor.checkpoint_io", None),
    ("visthresh.training", "grad_wrt_threshold_scale", "quality_model.grad", None),
    ("visthresh.training", "predict_quality", "quality_model.predict", None),
    ("visthresh.training", "build_samples", "training.build_samples", lambda a, k, r: len(r)),
    ("visthresh.training", "adam_step", "training.adam", None),
    ("visthresh.training", "_mean_holdout_loss", "training.holdout_eval", None),
    ("visthresh.cli", "train", "training.train", None),
    ("visthresh.training", "gradcheck", "training.gradcheck", None),
    ("visthresh.cli", "predict_map", "inference.predict_map", lambda a, k, r: r.values.size),
    ("visthresh.cli", "export_map", "inference.export_map", None),
    ("visthresh.cli", "load_map", "inference.load_map", None),
    ("visthresh.cli", "decimate_map", "inference.decimate", None),
    (
        "visthresh.evaluation", "fit_monotonic_cubic", "evaluation.fit",
        lambda a, k, r: 0 if r.converged else 1,
    ),
    ("visthresh.cli", "load_groundtruth", "evaluation.load_groundtruth", None),
    ("visthresh.cli", "evaluate", "evaluation.evaluate", None),
)

def _resolve(path: str):
    """Import 'a.b.C' as module a.b plus attribute C, or a plain module."""
    try:
        return importlib.import_module(path)
    except ImportError:
        module, _, attr = path.rpartition(".")
        if not module:
            raise
        return getattr(importlib.import_module(module), attr)


class Tracer:
    """In-memory span recorder that patches ENTRY_POINTS while active."""

    def __init__(self, entry_points=ENTRY_POINTS):
        self.entry_points = entry_points
        self.spans: list[list] = []
        self.absent: set[str] = set()
        self.uncounted: set[str] = set()
        self._stack: list[int] = []
        self._op = None
        self._saved: list = []

    def _wrap(self, name, fn, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            record = [len(tracer.spans), tracer._stack[-1] if tracer._stack else None,
                      tracer._op, name, time.perf_counter(), None, 0]
            tracer.spans.append(record)
            tracer._stack.append(record[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                record[5] = time.perf_counter()
            if counter is not None:
                try:
                    record[6] = counter(args, kwargs, result)
                except (AttributeError, IndexError, TypeError, OSError):
                    tracer.uncounted.add(name)  # the entry point changed its signature
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def __call__(self, op_id):
        """Context manager: trace everything run inside as operation op_id."""
        self._op = op_id
        return self

    def __enter__(self):
        for module_path, attr, name, counter in self.entry_points:
            try:
                owner = _resolve(module_path)
            except (ImportError, AttributeError):
                self.absent.add(f"{module_path}.{attr}")
                continue
            original = owner.__dict__.get(attr) if isinstance(owner, type) else None
            current = getattr(owner, attr, None)
            if current is None or (isinstance(owner, type) and not hasattr(current, "__func__")):
                self.absent.add(f"{module_path}.{attr}")
                continue
            if isinstance(owner, type):
                # a classmethod on the class or a base: wrap the function and
                # re-bind it to the class it is looked up on
                func = self._wrap(name, current.__func__, counter)
                setattr(owner, attr, classmethod(func))
            else:
                setattr(owner, attr, self._wrap(name, current, counter))
            self._saved.append((owner, attr, original if isinstance(owner, type) else current))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            if isinstance(owner, type) and original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._saved.clear()
        self._op = None
        return False

    def summary(self, op_filter) -> dict:
        """Per span name: calls, inclusive and self seconds, total and largest work.

        Only spans whose operation id satisfies op_filter are included.
        """
        child_time = defaultdict(float)
        for _sid, parent, _op, _name, start, end, _work in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0, "max_work": 0})
        for sid, _parent, op, name, start, end, work in self.spans:
            if not op_filter(op):
                continue
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[sid]
            entry["work"] += work
            entry["max_work"] = max(entry["max_work"], work)
        return out


def layer_metrics(tracer: Tracer, n_ops: int, n_setups: int) -> dict:
    """The per-layer metrics, per traced operation (synthetic: per set-up)."""
    loop = tracer.summary(lambda op: isinstance(op, int))
    setup = tracer.summary(lambda op: isinstance(op, str) and op.startswith("setup"))
    per_op = 1.0 / max(n_ops, 1)
    per_setup = 1.0 / max(n_setups, 1)

    def s(name, key="s"):
        return loop[name][key] * per_op if name in loop else 0.0

    def calls(name):
        return s(name, "calls")

    def work(name):
        return s(name, "work")

    fwd_s, bwd_s = s("regressor.forward"), s("regressor.backward")
    flops = (work("regressor.forward") * FORWARD_FLOP_PER_PATCH
             + work("regressor.backward") * BACKWARD_FLOP_PER_PATCH)
    mscn_s = s("features.mscn_map")
    m = {
        "synthetic.generate_s": (setup["synthetic.generate"]["s"] * per_setup, "s/setup"),
        "synthetic.pairs_written": (setup["synthetic.generate"]["work"] * per_setup, "count/setup"),
        "image_io.load_pgm_calls": (calls("image_io.load_pgm"), "count/op"),
        "image_io.load_pgm_s": (s("image_io.load_pgm"), "s/op"),
        "image_io.load_quality_records_s": (s("image_io.load_quality_records"), "s/op"),
        "features.mscn_map_calls": (calls("features.mscn_map"), "count/op"),
        "features.mscn_map_s": (mscn_s, "s/op"),
        "features.mscn_mpix_per_s": (
            work("features.mscn_map") / 1e6 / mscn_s if mscn_s > 0 else 0.0, "Mpx/s"),
        "features.augment_patch_calls": (calls("features.augment_patch"), "count/op"),
        "features.augment_patch_s": (s("features.augment_patch"), "s/op"),
        "regressor.forward_calls": (calls("regressor.forward"), "count/op"),
        "regressor.forward_patches": (work("regressor.forward"), "count/op"),
        "regressor.forward_s": (fwd_s, "s/op"),
        "regressor.backward_calls": (calls("regressor.backward"), "count/op"),
        "regressor.backward_s": (bwd_s, "s/op"),
        "regressor.gflop_per_s": (
            flops / 1e9 / (fwd_s + bwd_s) if fwd_s + bwd_s > 0 else 0.0, "GFLOP/s"),
        "regressor.im2col_peak_mb": (
            loop["regressor.forward"]["max_work"] * IM2COL_BYTES_PER_PATCH / 1e6, "MB"),
        "regressor.param_unpacks": (calls("regressor.param_unpack"), "count/op"),
        "regressor.param_unpack_s": (s("regressor.param_unpack"), "s/op"),
        "regressor.checkpoint_io_s": (s("regressor.checkpoint_io"), "s/op"),
        "quality_model.grad_calls": (calls("quality_model.grad"), "count/op"),
        "quality_model.grad_s": (s("quality_model.grad"), "s/op"),
        "quality_model.predict_calls": (calls("quality_model.predict"), "count/op"),
        "quality_model.predict_s": (s("quality_model.predict"), "s/op"),
        "training.build_samples_s": (s("training.build_samples"), "s/op"),
        "training.samples": (work("training.build_samples"), "count/op"),
        "training.adam_calls": (calls("training.adam"), "count/op"),
        "training.adam_s": (s("training.adam"), "s/op"),
        "training.holdout_eval_s": (s("training.holdout_eval"), "s/op"),
        "training.train_self_s": (s("training.train", "self_s"), "s/op"),
        "training.gradcheck_self_s": (s("training.gradcheck", "self_s"), "s/op"),
        "inference.cells": (work("inference.predict_map"), "count/op"),
        "inference.predict_map_s": (s("inference.predict_map"), "s/op"),
        "inference.predict_map_self_s": (s("inference.predict_map", "self_s"), "s/op"),
        "inference.export_map_s": (s("inference.export_map"), "s/op"),
        "inference.load_map_s": (s("inference.load_map"), "s/op"),
        "inference.decimate_s": (s("inference.decimate"), "s/op"),
        "evaluation.fit_calls": (calls("evaluation.fit"), "count/op"),
        "evaluation.fit_s": (s("evaluation.fit"), "s/op"),
        "evaluation.fit_nonconverged": (work("evaluation.fit"), "count/op"),
        "evaluation.load_groundtruth_s": (s("evaluation.load_groundtruth"), "s/op"),
        "evaluation.evaluate_self_s": (s("evaluation.evaluate", "self_s"), "s/op"),
        "cli.self_s": (s("cli.run", "self_s"), "s/op"),
    }
    return {name: {"value": float(v), "unit": unit} for name, (v, unit) in m.items()}


def absent_layers(tracer: Tracer) -> list[str]:
    """Layers with at least one entry point that could not be wrapped."""
    names = {name for mod, attr, name, _ in tracer.entry_points
             if f"{mod}.{attr}" in tracer.absent}
    return sorted({name.split(".")[0] for name in names})
