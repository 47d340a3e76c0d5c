import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from visthresh.errors import DataError
from visthresh.features import augment_patch, gaussian_window, mscn_map
from visthresh.image_io import GrayImage
from visthresh.inference import (
    ThresholdMap,
    _bin_edges,
    decimate_map,
    export_map,
    load_map,
    normalize_map,
    predict_map,
)
from visthresh.regressor import _forward_batch, init_params, params_digest


def make_map(values, **kwargs) -> ThresholdMap:
    values = np.asarray(values, dtype=np.float64)
    defaults = dict(
        origin_stride=16,
        patch_size=32,
        source_width=64,
        source_height=64,
        mean_luminance=np.full(values.shape, 128.0),
    )
    defaults.update(kwargs)
    return ThresholdMap(values=values, **defaults)


@pytest.fixture(scope="module")
def trained_like_params():
    return init_params(99)


@pytest.fixture(scope="module")
def test_image():
    rng = np.random.default_rng(42)
    return GrayImage(rng.uniform(0.1, 0.9, (64, 64)))


class TestPredictMap:
    def test_single_patch_image(self, trained_like_params):
        rng = np.random.default_rng(0)
        img = GrayImage(rng.uniform(0, 1, (32, 32)))
        tmap = predict_map(img, trained_like_params, stride=16)
        assert tmap.values.shape == (1, 1)
        assert tmap.model_digest == params_digest(trained_like_params)

    def test_grid_shape(self, test_image, trained_like_params):
        tmap = predict_map(test_image, trained_like_params, stride=16)
        assert (tmap.grid_rows, tmap.grid_cols) == (3, 3)

    def test_repeat_runs_bit_identical(self, test_image, trained_like_params):
        a = predict_map(test_image, trained_like_params, stride=32)
        b = predict_map(test_image, trained_like_params, stride=32)
        np.testing.assert_array_equal(a.values, b.values)

    def test_cells_equal_independent_single_patch_forwards(self, test_image, trained_like_params):
        tmap = predict_map(test_image, trained_like_params, stride=32)
        maps = mscn_map(test_image.pixels, gaussian_window())
        for r in range(2):
            for c in range(2):
                patch = augment_patch(maps, test_image.pixels, (r * 32, c * 32), 32)
                trace = _forward_batch(patch.channels[None], trained_like_params, None)
                assert tmap.values[r, c] == trace.t[0]

    def test_stride_subgrid_consistency(self, test_image, trained_like_params):
        fine = predict_map(test_image, trained_like_params, stride=16)
        coarse = predict_map(test_image, trained_like_params, stride=32)
        np.testing.assert_array_equal(fine.values[::2, ::2], coarse.values)

    def test_mean_luminance_tracks_patches(self, test_image, trained_like_params):
        tmap = predict_map(test_image, trained_like_params, stride=32)
        expected = test_image.pixels[:32, :32].mean() * 255.0
        assert tmap.mean_luminance[0, 0] == pytest.approx(expected, abs=1e-12)

    def test_undersized_image(self, trained_like_params):
        with pytest.raises(DataError, match="smaller"):
            predict_map(GrayImage(np.full((16, 16), 0.5)), trained_like_params, stride=8)

    def test_bad_stride(self, test_image, trained_like_params):
        with pytest.raises(DataError, match="stride"):
            predict_map(test_image, trained_like_params, stride=0)


class TestDecimateMap:
    def test_identity_at_same_size(self):
        tmap = make_map(np.arange(12.0).reshape(3, 4) + 1.0)
        out = decimate_map(tmap, 3, 4)
        np.testing.assert_array_equal(out.values, tmap.values)

    def test_constant_map(self):
        tmap = make_map(np.full((5, 5), 2.5))
        out = decimate_map(tmap, 2, 3)
        np.testing.assert_array_equal(out.values, np.full((2, 3), 2.5))

    def test_block_means_4x4_to_2x2(self):
        tmap = make_map(np.arange(1.0, 17.0).reshape(4, 4))
        out = decimate_map(tmap, 2, 2)
        np.testing.assert_array_equal(out.values, [[3.5, 5.5], [11.5, 13.5]])

    def test_preserves_mean_with_equal_bins(self):
        rng = np.random.default_rng(1)
        tmap = make_map(rng.uniform(0.1, 1.0, (8, 8)))
        out = decimate_map(tmap, 4, 4)
        assert out.values.mean() == pytest.approx(tmap.values.mean(), abs=1e-12)

    def test_luminance_decimated_alongside(self):
        values = np.arange(1.0, 17.0).reshape(4, 4)
        tmap = make_map(values, mean_luminance=values * 10.0)
        out = decimate_map(tmap, 2, 2)
        np.testing.assert_array_equal(out.mean_luminance, [[35.0, 55.0], [115.0, 135.0]])

    def test_rejects_upsampling(self):
        with pytest.raises(DataError, match="exceeds"):
            decimate_map(make_map(np.ones((2, 2))), 3, 2)

    def test_uneven_partition(self):
        tmap = make_map(np.arange(5.0).reshape(5, 1) + 1.0)
        out = decimate_map(tmap, 3, 1)
        # edges at round(i*5/3): [0, 2, 3, 5] -> bins of 2, 1, 2 rows
        np.testing.assert_array_equal(out.values[:, 0], [1.5, 3.0, 4.5])

    def test_matches_per_block_means(self):
        rng = np.random.default_rng(2)
        tmap = make_map(rng.uniform(0.1, 1.0, (23, 17)))
        out = decimate_map(tmap, 7, 5)
        rows, cols = _bin_edges(23, 7), _bin_edges(17, 5)
        expected = [
            [tmap.values[r0:r1, c0:c1].mean() for c0, c1 in zip(cols, cols[1:])]
            for r0, r1 in zip(rows, rows[1:])
        ]
        np.testing.assert_allclose(out.values, expected, rtol=1e-14, atol=0)

    @given(st.integers(1, 500).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))))
    def test_bin_edges_strictly_increasing(self, n_target):
        # decimate_map rejects target > n, so every bin is non-empty
        n, target = n_target
        edges = _bin_edges(n, target)
        assert edges[0] == 0 and edges[-1] == n and len(edges) == target + 1
        assert all(lo < hi for lo, hi in zip(edges, edges[1:]))


class TestNormalizeMap:
    def test_two_values(self):
        img = normalize_map(make_map([[1.0, 3.0]]))
        np.testing.assert_array_equal(img.pixels, [[0.0, 1.0]])

    def test_constant_map_is_mid_gray(self):
        img = normalize_map(make_map([[2.0, 2.0], [2.0, 2.0]]))
        np.testing.assert_array_equal(img.pixels, np.full((2, 2), 0.5))

    def test_attains_both_extremes(self):
        rng = np.random.default_rng(2)
        img = normalize_map(make_map(rng.uniform(0.2, 0.7, (4, 4))))
        assert img.pixels.min() == 0.0 and img.pixels.max() == 1.0
        assert np.all((img.pixels >= 0) & (img.pixels <= 1))


class TestExportLoad:
    def test_single_value_csv_body(self, tmp_path):
        csv_path, _ = export_map(make_map([[0.25]]), tmp_path / "m")
        assert csv_path.read_text().strip() == "0.25"

    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        tmap = make_map(rng.uniform(1e-3, 2.0, (3, 5)))
        export_map(tmap, tmp_path / "m")
        again = load_map(tmp_path / "m")
        assert np.max(np.abs(again.values - tmap.values)) < 1e-12
        np.testing.assert_array_equal(again.mean_luminance, tmap.mean_luminance)

    def test_sidecar_fields(self, tmp_path):
        tmap = make_map(np.ones((2, 3)), model_digest="abc123")
        _, json_path = export_map(tmap, tmp_path / "m")
        meta = json.loads(json_path.read_text())
        assert meta["grid_rows"] == 2 and meta["grid_cols"] == 3
        assert meta["origin_stride"] == 16 and meta["patch_size"] == 32
        assert meta["source_width"] == 64 and meta["source_height"] == 64
        assert meta["model_digest"] == "abc123"

    def test_load_missing_files(self, tmp_path):
        with pytest.raises(DataError, match="missing"):
            load_map(tmp_path / "nothing")

    def test_load_rejects_grid_mismatch(self, tmp_path):
        export_map(make_map(np.ones((2, 2))), tmp_path / "m")
        (tmp_path / "m.csv").write_text("1.0,1.0\n")
        with pytest.raises(DataError, match="does not match"):
            load_map(tmp_path / "m")
