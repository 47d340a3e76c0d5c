"""Fast self-test of the benchmark at tiny input sizes (about a minute).

    python3 bench/selftest.py

Runs every workload of BENCHMARK.json once untraced and once traced with
--tiny, and asserts that each run exits 0, passes every output check, and
emits exactly the metric names and units BENCHMARK.json lists, plus the
workload-specific names in its result file.  It also checks that a traced
run survives an entry point that no longer exists, and that the benchmark
exits non-zero without a result where the package is missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".bench_out" / "selftest"

WORKLOAD_METRICS = {
    "train": {"train_samples_per_s": "1/s", "holdout_loss": "L1"},
    "predict_s4": {"predict_s4_mpix_per_s": "Mpx/s"},
    "predict_s16": {"predict_s16_mpix_per_s": "Mpx/s"},
    "gradcheck": {"gradcheck_seeds_per_s": "1/s"},
    "evaluate": {"eval_reports_per_s": "1/s", "eval_report_p50_s": "s"},
}


def run_bench(cwd: Path, workload: str, trace: int, tiny=True) -> subprocess.CompletedProcess:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace)] + (["--tiny"] if tiny else [])
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_workload(spec: dict, workload: str, trace: int) -> None:
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert got == wanted, f"{workload} trace {trace}: metrics {sorted(set(got) ^ set(wanted))}"
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float)), entry
    saved = json.loads((ROOT / ".bench_out" / f"result-{workload}-seed3-trace{trace}.json").read_text())
    named = {name: entry["unit"] for name, entry in saved["workload_metrics"].items()}
    for name, unit in {**WORKLOAD_METRICS[workload], "error_rate": "ratio"}.items():
        assert named.get(name) == unit, f"{workload}: {name} missing or not in {unit}"
    if trace:
        assert saved["absent_layers"] == [], saved["absent_layers"]
    print(f"ok  {workload:12s} trace {trace}: {len(got)} metrics, {result['attempted']} ops")


def check_absent_entry_point() -> None:
    sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]
    import tracing

    module = types.ModuleType("bench_selftest_target")
    module.present = lambda x: x + 1
    sys.modules[module.__name__] = module
    tracer = tracing.Tracer(entry_points=(
        (module.__name__, "present", "cli.run", None),
        (module.__name__, "renamed_away", "evaluation.fit", None),
        ("no_such_module_xyz", "f", "features.mscn_map", None),
    ))
    with tracer(0):
        assert module.present(1) == 2
    assert module.present.__name__ == "<lambda>", "entry point not restored"
    assert tracing.absent_layers(tracer) == ["evaluation", "features"]
    metrics = tracing.layer_metrics(tracer, 1, 1)
    assert metrics["evaluation.fit_calls"]["value"] == 0.0
    print("ok  absent entry points are reported, not fatal")


def check_bare_directory(spec: dict) -> None:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(bare, spec["workloads"][0]["name"], 0, tiny=False)
    shutil.rmtree(bare)
    assert proc.returncode != 0, "benchmark succeeded without the package"
    assert '"metrics"' not in proc.stdout, "benchmark printed a result without the package"
    print("ok  exits non-zero without the package")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOAD_METRICS)
    for workload in WORKLOAD_METRICS:
        for trace in (0, 1):
            check_workload(spec, workload, trace)
    check_absent_entry_point()
    check_bare_directory(spec)
    shutil.rmtree(SCRATCH, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
