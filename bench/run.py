"""visthresh benchmark: one workload per process, a closed loop with one caller.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src.  The run
writes its inputs with the package's own writers (set-up, repeated
SETUP_REPEATS times), then runs the workload's operation until the
operations' own time (checks excluded) reaches --seconds, checking every
output.  It prints each metric by name with its
unit, writes the full result (machine record, every operation, the
workload-specific metric names) to .bench_out/, and prints as its last line
one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics.  --trace 1 runs every operation
twice, untraced and then traced, reports the per-layer metrics of the traced
copies, the tracing overhead, and fails the run if tracing changed any
output.  Workloads and metric names are listed in BENCHMARK.json and
explained in bench/README.md.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
# Single-threaded BLAS, set before numpy loads.  On a 2-core shared VM, two
# OpenBLAS threads made the batch-1 forwards of predict slower (4.5 s against
# 3.3 s per 256x256 map at stride 4) and their time depend on other load.
BLAS_THREADS = "1"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for bench/selftest.py")
    return p.parse_args(argv)


def timed_op(workload, i, tracer):
    """Run and check operation i; returns (seconds, error or None, fingerprint)."""
    scope = tracer(i) if tracer is not None else contextlib.nullcontext()
    tic = time.perf_counter()
    try:
        with scope:
            tic = time.perf_counter()
            out = workload.op(i)
            seconds = time.perf_counter() - tic
        error, fingerprint = workload.check(i, out)
    except Exception:  # a failed operation is counted, and the loop goes on
        return time.perf_counter() - tic, traceback.format_exc(limit=3), None
    return seconds, error, fingerprint


def main(argv) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import machine
        import tracing
        import workloads
    except ImportError as exc:
        print(f"bench: cannot import the visthresh package from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _START

    workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
    tracer = tracing.Tracer() if args.trace else None
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        setup_times = []
        for k in range(SETUP_REPEATS):
            directory = work / f"setup{k}"
            directory.mkdir(parents=True)
            scope = tracer(f"setup{k}") if tracer is not None else contextlib.nullcontext()
            tic = time.perf_counter()
            with scope:
                workload.setup(directory)
            setup_times.append(time.perf_counter() - tic)
            if k + 1 < SETUP_REPEATS:
                shutil.rmtree(directory)

        # Operations run until their own time (checks excluded) reaches
        # --seconds.  A traced run runs each input twice, untraced then
        # traced, so both copies can be compared.
        plain, traced, errors = [], [], []
        i = 0
        while sum(plain) + sum(traced) < args.seconds:
            seconds, error, fingerprint = timed_op(workload, i, None)
            plain.append(seconds)
            if error:
                errors.append(f"op {i}: {error}")
            if tracer is not None:
                seconds, traced_error, traced_fingerprint = timed_op(workload, i, tracer)
                traced.append(seconds)
                if traced_error:
                    errors.append(f"op {i} traced: {traced_error}")
                elif not error and traced_fingerprint != fingerprint:
                    errors.append(f"op {i}: output differs with tracing on")
            i += 1
        attempted = len(plain) + len(traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    rate = len(plain) / sum(plain)
    p50 = statistics.median(plain)
    metrics = {
        "setup_s": {"value": import_s + statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        "ops_per_s": {"value": rate, "unit": "1/s"},
        "op_p50_s": {"value": p50, "unit": "s"},
    }
    named = {name: {"value": v, "unit": u}
             for name, (v, u) in workload.workload_metrics(rate, p50).items()}
    named["error_rate"] = {"value": len(errors) / attempted, "unit": "ratio"}
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "machine": machine.machine_record(ROOT),
        "import_s": import_s,
        "setup_repeats_s": setup_times,
        "op_seconds": plain,
        "end_to_end": metrics,
        "workload_metrics": named,
        "errors": errors,
        "kernel_counts_computed": {
            "forward_flop_per_patch": tracing.FORWARD_FLOP_PER_PATCH,
            "backward_flop_per_patch": tracing.BACKWARD_FLOP_PER_PATCH,
            "im2col_bytes_per_patch": tracing.IM2COL_BYTES_PER_PATCH,
        },
    }
    if tracer is not None:
        layers = tracing.layer_metrics(tracer, len(traced), SETUP_REPEATS)
        layers["trace.overhead_pct"] = {
            "value": 100.0 * (sum(traced) / sum(plain) - 1.0), "unit": "%"}
        result.update(
            traced_op_seconds=traced,
            per_layer=layers,
            absent_layers=tracing.absent_layers(tracer),
            uncounted_spans=sorted(tracer.uncounted),
        )
        reported = layers
    else:
        reported = metrics

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(
            {"fields": ["id", "parent", "op", "name", "start", "end", "work"],
             "spans": tracer.spans}) + "\n", encoding="utf-8")

    m = result["machine"]
    print(f"machine: nproc {m['nproc']}, python {m['python']}, numpy {m['numpy']}, "
          f"blas {m['blas']['name']} {m['blas']['version']} ({m['blas']['threads']} threads), "
          f"commit {m['git_commit']}")
    print(f"{args.workload} seed {args.seed}: {len(plain)} ops, {len(errors)} failed")
    for name, entry in {**metrics, **named, **(layers if tracer else {})}.items():
        print(f"  {name:34s} {entry['value']:.6g} {entry['unit']}")
    if tracer is not None and result["absent_layers"]:
        print(f"  absent layers: {', '.join(result['absent_layers'])}")
    for error in errors[:5]:
        print(f"  FAILED {error}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
