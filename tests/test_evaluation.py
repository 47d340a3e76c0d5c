from fractions import Fraction
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import minimize

from visthresh.errors import DataError
from visthresh.evaluation import (
    DEFAULT_LUMINANCE_BAND,
    MonotoneCubic,
    PairedData,
    evaluate,
    fit_monotonic_cubic,
    intensity_histogram,
    load_groundtruth,
    pair_with_map,
    plcc,
    rmse,
)
from visthresh.image_io import GrayImage
from visthresh.inference import ThresholdMap


def lstsq_cubic(x, y):
    """Closed-form unconstrained least-squares cubic (independent oracle)."""
    phi = np.stack([np.ones_like(x), x, x**2, x**3], axis=1)
    coeffs, *_ = np.linalg.lstsq(phi, y, rcond=None)
    return coeffs


def slsqp_monotone_cubic(x, y, s):
    """Independent oracle: SLSQP with slope constraints at 16,384 hull points.

    Returns the oracle's residual RMSE.  The grid slightly relaxes the
    whole-hull constraint, so an exact fit's residual may sit a little above.
    """
    t = (x - x.mean()) / x.std()
    grid = np.linspace(t.min(), t.max(), 16384)
    phi = np.stack([np.ones_like(t), t, t**2, t**3], axis=1)
    psi = np.stack([np.zeros_like(grid), np.ones_like(grid), 2.0 * grid, 3.0 * grid**2], axis=1)
    start, *_ = np.linalg.lstsq(phi, y, rcond=None)
    res = minimize(
        lambda c: float(np.sum((phi @ c - y) ** 2)), start,
        jac=lambda c: 2.0 * phi.T @ (phi @ c - y),
        constraints=[{"type": "ineq", "fun": lambda c: s * (psi @ c), "jac": lambda c: s * psi}],
        method="SLSQP", options={"ftol": 1e-12, "maxiter": 1000},
    )
    assert res.success, res.message
    return rmse(phi @ res.x, y)


def hull_slopes(fit, x):
    """s * p' at both ends of the hull and at the clipped vertex of p', where its minimum lies."""
    _, _, c2, c3 = fit.scaled_coefficients
    ends = [x.min(), x.max()]
    vertex = fit.center - fit.scale * c2 / (3.0 * c3) if c3 else ends[0]
    s = 1.0 if fit.direction == "increasing" else -1.0
    return s * fit.derivative(np.array(ends + [np.clip(vertex, *ends)]))


def exact_plcc(x, y) -> float:
    """PLCC of the given floats in exact rational arithmetic, rounded once at the end."""
    xs = [Fraction(float(v)) for v in x]
    ys = [Fraction(float(v)) for v in y]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxy = sum((a - mx) * (b - my) for a, b in zip(xs, ys))
    sxx = sum((a - mx) ** 2 for a in xs)
    syy = sum((b - my) ** 2 for b in ys)
    return math.copysign(math.sqrt(sxy * sxy / (sxx * syy)), sxy)


def s_shaped_scatter():
    rng = np.random.default_rng(5)
    x = np.linspace(0.0, 1.0, 80)
    return x, np.where(x < 0.5, 0.2 * x, 0.2 * x + 0.05) + rng.normal(0, 0.2, 80)


def noisy_cubic_scatter():
    rng = np.random.default_rng(42)
    x = rng.uniform(-5.0, 5.0, 200)
    return x, 2.0 + 0.5 * x + 0.01 * x**3 + rng.normal(0.0, 0.1, 200)


def u_shaped_scatter():
    # log-normal thresholds against a ground truth peaking mid-range, as in
    # the benchmark's evaluate workload: no monotone cubic fits it well
    rng = np.random.default_rng(9)
    x = np.exp(rng.normal(np.log(0.05), 0.5, 196))
    t = (x - x.mean()) / x.std()
    return x, -t * t + 0.02 * rng.normal(0.0, 1.0, 196)


class TestPlcc:
    def test_perfect_positive(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        assert plcc(x, 3 * x + 1) == pytest.approx(1.0, abs=1e-12)

    def test_perfect_negative(self):
        x = np.array([1.0, 2.0, 3.0])
        assert plcc(x, -x) == pytest.approx(-1.0, abs=1e-12)

    def test_hand_computed_half(self):
        # mean 2 each; cov = 1/3; sx = sy = sqrt(2/3) -> r = 0.5
        assert plcc([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]) == pytest.approx(0.5, abs=1e-12)

    def test_constant_input_rejected(self):
        with pytest.raises(DataError, match="constant"):
            plcc([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    @given(
        st.floats(1e-3, 50.0), st.floats(-10.0, 10.0),
        st.floats(1e-3, 50.0), st.floats(-10.0, 10.0),
    )
    @settings(max_examples=50)
    @example(a=0.001, b=8.0, c=0.001, d=2.0)  # off by 1.07e-12 under the old abs=1e-12
    def test_affine_invariance(self, a, b, c, d):
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 1, 20)
        y = rng.uniform(0, 1, 20)
        base = plcc(x, y)
        xt, yt = a * x + b, c * y + d
        r = plcc(xt, yt)
        # plcc is accurate on the floats it is given
        assert r == pytest.approx(exact_plcc(xt, yt), abs=1e-14)
        # xt differs from the exact a*x + b by one rounding per entry, at most
        # eps * (a*max|x| + |b|), or that over a*std(x) in standardized units;
        # n times that (and the same for y) bounds the change in correlation
        eps = np.finfo(np.float64).eps
        bound = x.size * eps * (
            (a * np.abs(x).max() + abs(b)) / (a * x.std())
            + (c * np.abs(y).max() + abs(d)) / (c * y.std())
        )
        assert r == pytest.approx(base, abs=bound)


class TestRmse:
    def test_identical(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_arithmetic(self):
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(np.sqrt(12.5), abs=1e-12)

    def test_single_pair(self):
        assert rmse([1.0], [4.0]) == 3.0

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            rmse([1.0], [1.0, 2.0])


class TestFitMonotonicCubic:
    def test_recovers_exact_line(self):
        x = np.linspace(-3.0, 5.0, 50)
        y = 2.0 + 0.5 * x
        fit = fit_monotonic_cubic(x, y)
        oracle = lstsq_cubic(x, y)  # the line itself
        assert np.max(np.abs(np.array(fit.coefficients) - oracle)) < 1e-6
        assert np.max(np.abs(np.array(fit.coefficients) - [2.0, 0.5, 0.0, 0.0])) < 1e-6
        assert fit.direction == "increasing"
        assert fit.residual_rmse < 1e-9

    def test_pure_cubic_already_monotone(self):
        x = np.linspace(0.0, 2.0, 60)
        y = x**3
        fit = fit_monotonic_cubic(x, y)
        oracle = lstsq_cubic(x, y)
        assert np.max(np.abs(np.array(fit.coefficients) - oracle)) < 1e-8
        grid = np.linspace(x.min(), x.max(), 256)
        assert np.min(fit.derivative(grid)) >= -1e-9

    def test_decreasing_direction(self):
        x = np.linspace(0.0, 4.0, 40)
        y = 10.0 - 2.0 * x
        fit = fit_monotonic_cubic(x, y)
        assert fit.direction == "decreasing"
        grid = np.linspace(0.0, 4.0, 256)
        assert np.max(fit.derivative(grid)) <= 1e-9

    def test_constant_x_rejected(self):
        with pytest.raises(DataError, match="constant"):
            fit_monotonic_cubic(np.ones(10), np.arange(10.0))

    def test_too_few_points(self):
        with pytest.raises(DataError, match="4"):
            fit_monotonic_cubic(np.arange(3.0), np.arange(3.0))

    def test_monotone_on_hull_even_when_constraint_binds(self):
        # an S-shaped scatter whose unconstrained cubic wiggles downward
        x, y = s_shaped_scatter()
        fit = fit_monotonic_cubic(x, y)
        grid = np.linspace(0.0, 1.0, 256)
        direction = 1.0 if fit.direction == "increasing" else -1.0
        assert np.min(direction * fit.derivative(grid)) >= -1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_no_worse_than_best_monotone_line(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-2.0, 2.0, 60)
        y = rng.normal(0.0, 1.0, 60) + 0.3 * x
        fit = fit_monotonic_cubic(x, y)
        s = 1.0 if fit.direction == "increasing" else -1.0
        slope, intercept = np.polyfit(x, y, 1)
        if s * slope < 0:  # best monotone line degenerates to the mean
            slope, intercept = 0.0, y.mean()
        line_rmse = rmse(slope * x + intercept, y)
        assert fit.residual_rmse <= line_rmse * (1.0 + 1e-9) + 1e-12

    @pytest.mark.parametrize(
        "scatter", [s_shaped_scatter, noisy_cubic_scatter, u_shaped_scatter],
        ids=["s_shaped", "noisy_cubic", "u_shaped"],
    )
    def test_exact_against_slsqp(self, scatter):
        x, y = scatter()
        fit = fit_monotonic_cubic(x, y)
        s = 1.0 if fit.direction == "increasing" else -1.0
        assert fit.residual_rmse <= slsqp_monotone_cubic(x, y, s) * (1.0 + 1e-6)
        slope = hull_slopes(fit, x)
        assert slope.min() >= -1e-12 * np.abs(slope).max()

    def test_monotone_on_whole_hull_over_random_scatters(self):
        # noisy parabolas with a linear tilt either way, at x scales 1e-6..1e6:
        # the unconstrained cubics dip, so the constraint binds
        rng = np.random.default_rng(17)
        for _ in range(300):
            n = int(rng.integers(8, 200))
            u = rng.uniform(-1.0, 1.0, n)
            x = 10.0 ** rng.uniform(-6.0, 6.0) * (u + rng.uniform(-3.0, 3.0))
            y = u * u + rng.choice([-0.3, 0.3]) * u + rng.normal(0.0, 0.1, n)
            slope = hull_slopes(fit_monotonic_cubic(x, y), x)
            assert slope.min() >= -1e-12 * np.abs(slope).max()

    def test_fewer_than_four_distinct_x_rejected(self):
        with pytest.raises(DataError, match="distinct"):
            fit_monotonic_cubic(np.repeat([0.0, 1.0, 2.0], 3), np.arange(9.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, bad):
        y = np.arange(8.0)
        y[3] = bad
        with pytest.raises(DataError, match="finite"):
            fit_monotonic_cubic(np.arange(8.0), y)

    def test_noise_dominated_x_stays_bounded(self):
        # x varies only at floating-point noise level (e.g. an untrained
        # model pinned at the threshold floor); the fit must not blow up
        rng = np.random.default_rng(0)
        x = np.full(9, 0.001) + rng.normal(0, 1e-13, 9)
        y = rng.uniform(-28.0, -20.0, 9)
        fit = fit_monotonic_cubic(x, y)
        flat_rmse = rmse(np.full(9, y.mean()), y)
        assert fit.residual_rmse <= flat_rmse * (1.0 + 1e-9)
        assert np.all(np.isfinite(fit(x)))


def build_paired(x, y, lum):
    return PairedData(x=np.asarray(x, float), y=np.asarray(y, float), luminance=np.asarray(lum, float))


class TestEvaluate:
    def make_clean_scatter(self, n=60, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 1.0, n)
        y = 3.0 * x + 1.0 + rng.normal(0, 0.05, n)
        lum = rng.uniform(60.0, 200.0, n)
        return x, y, lum

    def test_full_band_equals_no_band(self):
        x, y, lum = self.make_clean_scatter()
        data = build_paired(x, y, lum)
        no_band = evaluate(data)
        full_band = evaluate(data, band=(0.0, 255.0))
        assert no_band.plcc_raw == full_band.plcc_raw
        assert no_band.plcc_fitted == full_band.plcc_fitted
        assert no_band.rmse_fitted == full_band.rmse_fitted
        assert full_band.n_kept == full_band.n_total == len(x)
        assert full_band.excluded_indices == ()

    def test_outlier_filtering_raises_plcc(self):
        x, y, lum = self.make_clean_scatter(n=80, seed=3)
        # plant outliers: very dark/bright patches far off the line
        x_out = np.array([0.2, 0.4, 0.6, 0.8])
        y_out = np.array([9.0, 0.2, 8.0, 0.5])
        lum_out = np.array([3.0, 252.0, 5.0, 254.0])
        data = build_paired(
            np.concatenate([x, x_out]), np.concatenate([y, y_out]),
            np.concatenate([lum, lum_out]),
        )
        unfiltered = evaluate(data)
        filtered = evaluate(data, band=DEFAULT_LUMINANCE_BAND)
        assert filtered.plcc_fitted > unfiltered.plcc_fitted
        assert filtered.n_kept == 80 and filtered.n_total == 84
        assert set(filtered.excluded_indices) == {80, 81, 82, 83}

    def test_band_requires_luminance(self):
        x, y, _ = self.make_clean_scatter()
        with pytest.raises(DataError, match="luminance"):
            evaluate(PairedData(x=x, y=y), band=(10.0, 250.0))

    def test_too_few_kept(self):
        x, y, lum = self.make_clean_scatter(n=10)
        with pytest.raises(DataError, match="fewer than 4"):
            evaluate(build_paired(x, y, lum), band=(300.0, 400.0))

    def test_default_band_constant(self):
        assert DEFAULT_LUMINANCE_BAND == (10.0, 250.0)

    def test_result_serializes(self):
        x, y, lum = self.make_clean_scatter()
        d = evaluate(build_paired(x, y, lum), band=(0.0, 255.0)).to_dict()
        assert set(d) >= {
            "plcc_raw", "plcc_fitted", "rmse_fitted", "n_total", "n_kept",
            "excluded_indices", "band", "fit_coefficients", "fit_direction",
        }


class TestIntensityHistogram:
    def test_constant_half_gray(self):
        counts = intensity_histogram([GrayImage(np.full((32, 32), 0.5))])
        assert counts[128] == 1 and counts.sum() == 1

    def test_total_count_conservation(self):
        rng = np.random.default_rng(1)
        imgs = [GrayImage(rng.uniform(0, 1, (64, 48))) for _ in range(3)]
        counts = intensity_histogram(imgs)
        # origins: rows {0,16,32}, cols {0,16} -> 6 patches per image
        assert counts.sum() == 18

    def test_border_patches_counted(self):
        # origins {0, 8} per axis: the stride misses the border, which
        # gets its own patch
        img = GrayImage(np.tile(np.linspace(0.0, 1.0, 40), (40, 1)))
        counts = intensity_histogram([img])
        assert counts.sum() == 4
        right = img.pixels[:32, 8:40].mean()
        assert counts[min(int(np.floor(right * 255.0 + 0.5)), 255)] == 2

    def test_matches_brute_force_on_shaded_image(self):
        # smooth shading plus noise, quantized to the 8-bit lattice like a
        # real loaded image; patch means then sit away from bin boundaries
        rng = np.random.default_rng(11)
        raw = np.tile(np.linspace(0.05, 0.95, 64), (64, 1)) + rng.uniform(-0.05, 0.05, (64, 64))
        img = np.floor(np.clip(raw, 0, 1) * 255.0 + 0.5) / 255.0
        counts = intensity_histogram([GrayImage(img)])
        expected = np.zeros(256, dtype=int)
        for r in range(0, 33, 16):
            for c in range(0, 33, 16):
                total = 0.0
                for i in range(32):
                    for j in range(32):
                        total += img[r + i, c + j]
                expected[min(int(total / 1024 * 255 + 0.5), 255)] += 1
        np.testing.assert_array_equal(counts, expected)

    def test_undersized_image(self):
        with pytest.raises(DataError, match="smaller"):
            intensity_histogram([GrayImage(np.full((16, 16), 0.5))])


GT_HEADER = "row,col,threshold_db"


class TestGroundTruth:
    def test_loads_grid(self, tmp_path):
        (tmp_path / "gt.csv").write_text(f"{GT_HEADER}\n0,0,-12.5\n0,1,-10.0\n")
        grid = load_groundtruth(tmp_path / "gt.csv")
        np.testing.assert_array_equal(grid, [[-12.5, -10.0]])

    def test_pairs_with_map(self, tmp_path):
        (tmp_path / "gt.csv").write_text(f"{GT_HEADER}\n0,0,-12.5\n0,1,-10.0\n")
        grid = load_groundtruth(tmp_path / "gt.csv")
        tmap = ThresholdMap(
            values=np.array([[0.2, 0.4]]), origin_stride=16, patch_size=32,
            source_width=64, source_height=48,
            mean_luminance=np.array([[100.0, 120.0]]),
        )
        data = pair_with_map(grid, tmap)
        assert len(data) == 2
        np.testing.assert_array_equal(data.x, [0.2, 0.4])
        np.testing.assert_array_equal(data.y, [-12.5, -10.0])

    def test_duplicate_cell(self, tmp_path):
        (tmp_path / "gt.csv").write_text(f"{GT_HEADER}\n0,0,1.0\n0,0,2.0\n")
        with pytest.raises(DataError, match="duplicate"):
            load_groundtruth(tmp_path / "gt.csv")

    def test_missing_cell_listed(self, tmp_path):
        (tmp_path / "gt.csv").write_text(f"{GT_HEADER}\n0,0,1.0\n1,1,2.0\n")
        with pytest.raises(DataError, match=r"missing cells.*\(0, 1\)"):
            load_groundtruth(tmp_path / "gt.csv")

    def test_negative_index_rejected(self, tmp_path):
        # -1 must not wrap around onto cell (1, 0) of a complete 2x2 grid
        (tmp_path / "gt.csv").write_text(f"{GT_HEADER}\n0,0,1\n0,1,2\n1,0,3\n1,1,4\n-1,0,9\n")
        with pytest.raises(DataError, match=r"gt.csv:6: negative cell index"):
            load_groundtruth(tmp_path / "gt.csv")

    def test_error_names_file_line_after_blank_and_comment(self, tmp_path):
        (tmp_path / "gt.csv").write_text(f"{GT_HEADER}\n0,0,1.0\n\n# comment\n0,x,2.0\n")
        with pytest.raises(DataError, match=r"gt.csv:5: unparsable cell"):
            load_groundtruth(tmp_path / "gt.csv")

    def test_huge_index_lists_few_missing_cells(self, tmp_path):
        (tmp_path / "gt.csv").write_text(f"{GT_HEADER}\n0,0,1.0\n1000000000,1000000000,2.0\n")
        with pytest.raises(DataError, match=r"missing cells") as err:
            load_groundtruth(tmp_path / "gt.csv")
        assert len(str(err.value)) < 400

    def test_bad_header(self, tmp_path):
        (tmp_path / "gt.csv").write_text("r,c,v\n0,0,1.0\n")
        with pytest.raises(DataError, match="header"):
            load_groundtruth(tmp_path / "gt.csv")

    def test_grid_size_mismatch_with_map(self, tmp_path):
        (tmp_path / "gt.csv").write_text(f"{GT_HEADER}\n0,0,1.0\n")
        grid = load_groundtruth(tmp_path / "gt.csv")
        tmap = ThresholdMap(
            values=np.ones((1, 2)), origin_stride=16, patch_size=32,
            source_width=64, source_height=48,
        )
        with pytest.raises(DataError, match="does not match"):
            pair_with_map(grid, tmap)


class TestMonotoneCubicType:
    def test_callable_and_derivative(self):
        cubic = MonotoneCubic(
            (1.0, 2.0, 0.0, 0.5), "increasing", 0.0, True, 0.0, 1.0, (1.0, 2.0, 0.0, 0.5)
        )
        assert cubic(2.0) == pytest.approx(1.0 + 4.0 + 4.0)
        assert cubic.derivative(2.0) == pytest.approx(2.0 + 6.0)
