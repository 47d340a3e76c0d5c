"""Acceptance criteria, one test per criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  The synthetic-oracle recovery (criterion 4) trains the full
model and takes a few minutes; everything else is fast.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from visthresh.cli import run
from visthresh.evaluation import (
    DEFAULT_LUMINANCE_BAND,
    PairedData,
    evaluate,
    fit_monotonic_cubic,
    plcc,
)
from visthresh.features import DEFAULT_EPSILON, gaussian_window, local_moments, mscn_map
from visthresh.image_io import GrayImage, load_manifest, load_quality_records, save_pgm
from visthresh.quality_model import predict_quality
from visthresh.synthetic import SynthConfig, generate, load_oracle, _texture
from visthresh.training import (
    TrainConfig,
    build_samples,
    gradcheck,
    predict_sample_thresholds,
    train,
)

from conftest import brute_force_maps


def report(criterion: int, message: str) -> None:
    print(f"\n[PASS] criterion {criterion}: {message}")


@pytest.fixture(scope="module")
def oracle_run(tmp_path_factory):
    """Criterion 4 artifacts: synth (seed 7, 200 textures) -> train (30 epochs, defaults)."""
    data_dir = tmp_path_factory.mktemp("synth200")
    tic = time.perf_counter()
    manifest = generate(SynthConfig(n_images=200, seed=7), data_dir)
    records = load_quality_records(manifest)
    cfg = TrainConfig(epochs=30, seed=0)
    params, train_report = train(records, cfg)
    samples = build_samples(records, cfg)
    oracle = load_oracle(data_dir / "oracle.csv")
    manifest_records = load_manifest(manifest)
    holdout = train_report.holdout_indices
    predicted = predict_sample_thresholds(samples, params, holdout)
    # samples come in record order; join each to its record by counting the
    # patches of that record that survive the minimum-error filter
    record_of = np.repeat(np.arange(len(records)), [len(build_samples([r], cfg)) for r in records])
    assert len(record_of) == len(samples)
    t_star = np.array([oracle[manifest_records[record_of[i]].reference_path.stem] for i in holdout])
    elapsed = time.perf_counter() - tic
    return {
        "predicted": predicted,
        "t_star": t_star,
        "elapsed": elapsed,
        "train_report": train_report,
        "n_holdout": len(holdout),
    }


class TestCriterion1GradientFidelity:
    def test_gradcheck_20_seeds(self):
        tic = time.perf_counter()
        worst = 0.0
        for seed in range(1, 21):
            result = gradcheck(seed=seed)
            assert result.passed, f"seed {seed}: max rel error {result.max_rel_error:.3e}"
            worst = max(worst, result.max_rel_error)
        elapsed = time.perf_counter() - tic
        assert worst < 1e-4
        assert elapsed < 60.0, f"gradcheck over 20 seeds took {elapsed:.1f}s"
        report(1, f"20 seeds, max relative error {worst:.3e} < 1e-4 in {elapsed:.1f}s")


class TestCriterion2FeatureOracle:
    def test_maps_match_brute_force_on_50_images(self):
        window = gaussian_window()
        worst = 0.0
        for seed in range(50):
            rng = np.random.default_rng(1000 + seed)
            img = rng.uniform(0.0, 1.0, (16, 16))
            maps = mscn_map(img, window)
            moments = local_moments(img, window)
            mean_o, var_o, mscn_o = brute_force_maps(img, window, DEFAULT_EPSILON)
            worst = max(
                worst,
                np.max(np.abs(moments.mean_map - mean_o)),
                np.max(np.abs(moments.var_map - var_o)),
                np.max(np.abs(maps.mscn_map - mscn_o)),
            )
        assert worst < 1e-10
        report(2, f"mean/variance/MSCN vs nested-loop oracle on 50 images, max abs diff {worst:.2e}")


class TestCriterion3MixingAnalytics:
    def test_analytic_points_and_scale_absorption(self):
        p1 = predict_quality(0.2, 0.2, 1.0).q_hat
        assert abs(p1 - (1.0 - math.exp(-1.0))) < 1e-12
        p2 = predict_quality(math.log(2.0) * 0.4, 0.4, 1.0).q_hat
        assert abs(p2 - 0.5) < 1e-12
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(1000):
            e = rng.uniform(1e-4, 0.5)
            t = rng.uniform(0.05, 2.0)
            alpha = rng.uniform(0.1, 3.0)
            k = rng.uniform(0.05, 20.0)
            q0 = predict_quality(e, t, alpha).q_hat
            qk = predict_quality(k * e, k * t, alpha).q_hat
            worst = max(worst, abs(qk - q0))
        assert worst < 1e-12
        report(3, f"q(u=1), q(u=ln2) exact to 1e-12; scale absorption over 1000 draws, worst {worst:.2e}")


class TestCriterion4SyntheticOracleRecovery:
    def test_holdout_correlation(self, oracle_run):
        r = plcc(oracle_run["predicted"], oracle_run["t_star"])
        rho = spearmanr(oracle_run["predicted"], oracle_run["t_star"]).statistic
        assert r >= 0.8, f"holdout PLCC {r:.4f} < 0.8"
        assert rho >= 0.7, f"holdout Spearman {rho:.4f} < 0.7"
        assert oracle_run["elapsed"] <= 1200.0, f"pipeline took {oracle_run['elapsed']:.0f}s"
        report(
            4,
            f"PLCC {r:.3f} >= 0.8, Spearman {rho:.3f} >= 0.7 on "
            f"{oracle_run['n_holdout']} holdout patches in {oracle_run['elapsed']:.0f}s "
            f"(alpha converged to {oracle_run['train_report'].final_alpha:.2f}; "
            f"alpha recovery itself is not asserted: only the ratio alpha*E/T is identified)",
        )


class TestCriterion5MonotoneFit:
    def test_noisy_cubic(self):
        rng = np.random.default_rng(42)
        x = rng.uniform(-5.0, 5.0, 200)
        y = 2.0 + 0.5 * x + 0.01 * x**3 + rng.normal(0.0, 0.1, 200)
        fit = fit_monotonic_cubic(x, y)
        grid = np.linspace(x.min(), x.max(), 256)
        s = 1.0 if fit.direction == "increasing" else -1.0
        min_deriv = float(np.min(s * fit.derivative(grid)))
        assert fit.residual_rmse <= 0.12
        assert min_deriv >= -1e-9
        report(
            5,
            f"noisy cubic residual RMSE {fit.residual_rmse:.4f} <= 0.12, "
            f"min hull-grid derivative {min_deriv:.3e} >= -1e-9",
        )

    def test_exact_linear_recovery(self):
        x = np.linspace(-3.0, 5.0, 50)
        y = 2.0 + 0.5 * x
        fit = fit_monotonic_cubic(x, y)
        phi = np.stack([np.ones_like(x), x, x**2, x**3], axis=1)
        oracle, *_ = np.linalg.lstsq(phi, y, rcond=None)
        err = np.max(np.abs(np.array(fit.coefficients) - oracle))
        assert err < 1e-6
        report(5, f"exactly-linear data: coefficients within {err:.1e} of the closed-form oracle")


class TestCriterion6ProtocolMechanics:
    def test_full_band_equals_no_band(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(0.0, 1.0, 60)
        y = 4.0 * x + rng.normal(0, 0.1, 60)
        lum = rng.uniform(20.0, 240.0, 60)
        data = PairedData(x=x, y=y, luminance=lum)
        a = evaluate(data)
        b = evaluate(data, band=(0.0, 255.0))
        assert a.plcc_raw == b.plcc_raw
        assert a.plcc_fitted == b.plcc_fitted
        assert a.rmse_fitted == b.rmse_fitted
        report(6, "evaluate with band [0,255] identical to evaluate without a band")

    def test_outlier_filtering_raises_fitted_plcc(self):
        rng = np.random.default_rng(60)
        x = rng.uniform(0.0, 1.0, 100)
        y = 4.0 * x + 1.0 + rng.normal(0, 0.15, 100)
        lum = rng.uniform(30.0, 220.0, 100)
        x_out = rng.uniform(0.0, 1.0, 8)
        y_out = rng.uniform(-4.0, 9.0, 8)
        lum_out = np.array([2.0, 4.0, 6.0, 8.0, 251.0, 252.0, 253.0, 254.0])
        data = PairedData(
            x=np.concatenate([x, x_out]),
            y=np.concatenate([y, y_out]),
            luminance=np.concatenate([lum, lum_out]),
        )
        unfiltered = evaluate(data)
        filtered = evaluate(data, band=DEFAULT_LUMINANCE_BAND)
        assert filtered.plcc_fitted > unfiltered.plcc_fitted
        assert filtered.n_kept == 100 and filtered.n_total == 108
        report(
            6,
            f"planted outliers outside [10,250]: PLCC {unfiltered.plcc_fitted:.3f} -> "
            f"{filtered.plcc_fitted:.3f} after filtering (qualitative r -> r' effect)",
        )


class TestCriterion7Determinism:
    def test_end_to_end_byte_identical(self, tmp_path):
        outputs = []
        for tag in ("first", "second"):
            root = tmp_path / tag
            data = root / "data"
            manifest = generate(SynthConfig(n_images=2, seed=3), data)
            assert run(["train", "--manifest", str(manifest), "--out", str(root / "m.vth"),
                        "--epochs", "2", "--seed", "5"]) == 0
            image = next(iter(sorted((data / "ref").glob("*.pgm"))))
            assert run(["predict", "--model", str(root / "m.vth"), "--image", str(image),
                        "--stride", "16", "--out", str(root / "map")]) == 0
            outputs.append(
                (
                    (root / "m.vth").read_bytes(),
                    (root / "map.csv").read_bytes(),
                    (root / "map.json").read_bytes(),
                )
            )
        assert outputs[0][0] == outputs[1][0], "checkpoints differ"
        assert outputs[0][1] == outputs[1][1], "threshold-map CSVs differ"
        assert outputs[0][2] == outputs[1][2], "map sidecars differ"
        report(7, "synth -> train -> predict twice with equal seeds: checkpoint and map bytes identical")


class TestCriterion8PaperNumberStatus:
    def test_pipeline_runs_on_user_supplied_formats(self, tmp_path):
        # stand-in for a user-converted dataset: manifest + images + gt CSV
        data = tmp_path / "data"
        manifest = generate(SynthConfig(n_images=2, seed=9), data)
        ckpt = tmp_path / "model.vth"
        assert run(["train", "--manifest", str(manifest), "--out", str(ckpt),
                    "--epochs", "1", "--seed", "0"]) == 0
        demo = _texture(np.random.default_rng(1), 64)
        image_path = tmp_path / "demo.pgm"
        save_pgm(GrayImage(demo), image_path)
        prefix = tmp_path / "map"
        assert run(["predict", "--model", str(ckpt), "--image", str(image_path),
                    "--stride", "16", "--out", str(prefix)]) == 0
        gt = tmp_path / "gt.csv"
        rng = np.random.default_rng(2)
        lines = ["row,col,threshold_db"]
        for r in range(2):
            for c in range(2):
                lines.append(f"{r},{c},{-24.0 + 6.0 * rng.uniform():.4f}")
        gt.write_text("\n".join(lines) + "\n")
        out = tmp_path / "report.json"
        assert run(["evaluate", "--pred", str(prefix), "--gt", str(gt), "--out", str(out)]) == 0
        blob = json.loads(out.read_text())
        needed = {
            "plcc_raw", "plcc_fitted", "rmse_fitted", "n_total", "n_kept",
            "excluded_indices", "band", "fit_coefficients", "fit_direction",
        }
        assert needed <= set(blob), f"report missing {needed - set(blob)}"
        assert math.isfinite(blob["rmse_fitted"]) and math.isfinite(blob["plcc_fitted"])
        report(
            8,
            "end-to-end run on user-supplied manifest + ground-truth CSV; evaluation JSON "
            "carries every Table-1-style quantity (published RMSE 5.6-6.0 and r=0.56/r'=0.68 "
            "require the licensed LIVE/TID2013/CSIQ and masking datasets and are not asserted)",
        )
