import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from visthresh.errors import DataError
from visthresh.features import augment_patch, gaussian_window, mscn_map, patch_grid
from visthresh.image_io import GrayImage
from visthresh.inference import (
    LATTICE,
    TILE_CELLS,
    ThresholdMap,
    _bin_edges,
    _tiles,
    decimate_map,
    export_map,
    load_map,
    normalize_map,
    predict_map,
)
from visthresh.regressor import _forward_batch, init_params, lattice_thresholds, params_digest


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


def single_patch_threshold(maps, pixels, origin, params) -> float:
    """The per-patch reference: one batch-1 forward of the patch at origin."""
    patch = augment_patch(maps, pixels, origin, 32)
    return _forward_batch(patch[None], params, None).t[0]


def assert_rel_close(got, want):
    # the whole-image pass sums the convolutions in another order
    assert abs(got - want) <= 1e-12 * abs(want), (got, want)


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
                want = single_patch_threshold(
                    maps, test_image.pixels, (r * 32, c * 32), trained_like_params
                )
                assert_rel_close(tmap.values[r, c], want)

    def test_border_cells_complete_the_grid(self, trained_like_params):
        # (70 - 32) % 16 and (90 - 32) % 16 are nonzero: the last row and
        # column sit at the border, at origins 38 and 58
        img = GrayImage(np.random.default_rng(7).uniform(0.1, 0.9, (70, 90)))
        tmap = predict_map(img, trained_like_params, stride=16)
        rows, cols = patch_grid(70, 16), patch_grid(90, 16)
        assert tmap.values.shape == (len(rows), len(cols)) == (4, 5)
        maps = mscn_map(img.pixels, gaussian_window())
        for i, r in enumerate(rows):
            for j, c in enumerate(cols):
                patch = augment_patch(maps, img.pixels, (r, c), 32)
                trace = _forward_batch(patch[None], trained_like_params, None)
                assert_rel_close(tmap.values[i, j], trace.t[0])
                assert tmap.mean_luminance[i, j] == patch[0].mean() * 255.0

    @pytest.mark.parametrize("shape", [(32, 32), (33, 100), (70, 90), (97, 130), (130, 97)])
    def test_every_cell_matches_per_patch_forward(self, shape, trained_like_params):
        # the strides reach every row/col phase mod 4 and leave border cells
        # at L - 32; each origin's reference is computed once per image
        img = GrayImage(np.random.default_rng(shape).uniform(0.1, 0.9, shape))
        maps = mscn_map(img.pixels, gaussian_window())
        reference = {}
        for stride in (1, 3, 4, 5, 7, 13, 16, 32):
            tmap = predict_map(img, trained_like_params, stride)
            rows, cols = patch_grid(shape[0], stride), patch_grid(shape[1], stride)
            assert tmap.values.shape == (len(rows), len(cols))
            for i, r in enumerate(rows):
                for j, c in enumerate(cols):
                    if (r, c) not in reference:
                        reference[r, c] = single_patch_threshold(
                            maps, img.pixels, (r, c), trained_like_params
                        )
                    assert_rel_close(tmap.values[i, j], reference[r, c])

    @pytest.mark.parametrize("stride", [4, 13, 16])
    def test_every_cell_matches_per_patch_forward_across_tiles(self, stride, trained_like_params):
        # 260x190 holds 58x40 lattice cells: 3x2 tiles of TILE_CELLS, the
        # last ones partial, and strides 13 and 16 add border phases
        shape = (260, 190)
        assert (shape[0] - 32) // 4 + 1 > 2 * TILE_CELLS and (shape[1] - 32) // 4 + 1 > TILE_CELLS
        img = GrayImage(np.random.default_rng(shape).uniform(0.1, 0.9, shape))
        maps = mscn_map(img.pixels, gaussian_window())
        tmap = predict_map(img, trained_like_params, stride)
        rows, cols = patch_grid(shape[0], stride), patch_grid(shape[1], stride)
        assert tmap.values.shape == (len(rows), len(cols))
        for i, r in enumerate(rows):
            for j, c in enumerate(cols):
                want = single_patch_threshold(maps, img.pixels, (r, c), trained_like_params)
                assert_rel_close(tmap.values[i, j], want)

    def test_merged_sliver_tiles_match_per_patch_forward(self, trained_like_params):
        # 224 rows hold 2 * TILE_CELLS + 1 phase-0 lattice cells, 130 columns
        # TILE_CELLS + 1 cells of phases 0 and 2 (the border origin 98): every
        # axis ends in a tile that took in a one-cell sliver
        shape = (224, 130)
        assert (shape[0] - 32) // 4 + 1 == 2 * TILE_CELLS + 1
        assert (shape[1] - 32) // 4 + 1 == (shape[1] - 34) // 4 + 1 == TILE_CELLS + 1
        img = GrayImage(np.random.default_rng(12).uniform(0.1, 0.9, shape))
        maps = mscn_map(img.pixels, gaussian_window())
        reference = {}
        for stride in (4, 13, 16):
            tmap = predict_map(img, trained_like_params, stride)
            rows, cols = patch_grid(shape[0], stride), patch_grid(shape[1], stride)
            for i, r in enumerate(rows):
                for j, c in enumerate(cols):
                    if (r, c) not in reference:
                        reference[r, c] = single_patch_threshold(
                            maps, img.pixels, (r, c), trained_like_params
                        )
                    assert_rel_close(tmap.values[i, j], reference[r, c])

    def test_multi_tile_stride_subgrids_bit_identical(self, trained_like_params):
        # each coarser grid's origins, border origins included, are a subset
        # of the finer grid's, and the cells they share are equal bit for bit;
        # (224, 130) ends both axes in a tile that took in a one-cell sliver
        for seed, shape in ((11, (300, 260)), (13, (224, 130))):
            img = GrayImage(np.random.default_rng(seed).uniform(0.1, 0.9, shape))
            maps = {s: predict_map(img, trained_like_params, s) for s in (4, 8, 16)}
            for fine, coarse in ((4, 8), (8, 16)):
                pick = [
                    [patch_grid(length, fine).index(o) for o in patch_grid(length, coarse)]
                    for length in shape
                ]
                np.testing.assert_array_equal(
                    maps[fine].values[np.ix_(*pick)], maps[coarse].values
                )

    def test_traced_peak_memory_bounded(self, trained_like_params):
        # tiles bound the working set; a whole-image im2col would need > 200 MB
        img = GrayImage(np.random.default_rng(5).uniform(0.1, 0.9, (512, 512)))
        tracemalloc.start()
        try:
            predict_map(img, trained_like_params, stride=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_tile_pass_traced_peak_bounded(self, trained_like_params):
        # conv1 runs in row strips: a whole-tile im2col alone would be 11 MiB;
        # the last tile of an axis may hold one cell more
        for cells in (TILE_CELLS, TILE_CELLS + 1):
            side = LATTICE * cells + 28
            tile = np.random.default_rng(6).standard_normal((4, side, side))
            tracemalloc.start()
            try:
                lattice_thresholds(tile, trained_like_params, range(cells))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 5 * 2**20

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


class TestTiles:
    def test_phase_lattice_split_without_one_cell_tiles(self):
        # stride 1 holds every origin of every phase; each phase's lattice is
        # split into consecutive tiles of TILE_CELLS cells, the last one
        # holding 2..TILE_CELLS + 1 (or the whole lattice, if it has 1 cell)
        for length in range(32, 440):
            origins = patch_grid(length, 1)
            by_phase = {}
            for start, end, grid_idx, tile_idx in _tiles(origins, length):
                n_cells = (end - start - 32) // LATTICE + 1
                assert [origins[k] for k in grid_idx] == [start + LATTICE * t for t in tile_idx]
                assert list(tile_idx) == list(range(n_cells))
                by_phase.setdefault(start % LATTICE, []).append(n_cells)
            for phase, sizes in by_phase.items():
                assert sum(sizes) == (length - 32 - phase) // LATTICE + 1, length
                assert all(n == TILE_CELLS for n in sizes[:-1]), length
                assert 2 <= sizes[-1] <= TILE_CELLS + 1 or len(sizes) == sizes[-1] == 1, length


class TestLatticeThresholds:
    def test_requested_rows_equal_all_rows_bit_for_bit(self, trained_like_params):
        # 13x7 lattice cells; rows out of order and repeated
        x = np.random.default_rng(8).standard_normal((4, 4 * 13 + 28, 4 * 7 + 28))
        every = lattice_thresholds(x, trained_like_params, range(13))
        assert every.shape == (13, 7)
        rows = [12, 0, 5, 5, 9]
        np.testing.assert_array_equal(lattice_thresholds(x, trained_like_params, rows), every[rows])
        assert lattice_thresholds(x, trained_like_params, []).shape == (0, 7)


class TestDecimateMap:
    def test_identity_at_same_size(self):
        # evaluate decimates to the ground truth's grid even when it is the map's own
        lum = np.random.default_rng(3).uniform(0.0, 255.0, (3, 4))
        tmap = make_map(np.arange(12.0).reshape(3, 4) + 1.0, mean_luminance=lum)
        out = decimate_map(tmap, 3, 4)
        np.testing.assert_array_equal(out.values, tmap.values)
        assert out.mean_luminance.tobytes() == lum.tobytes()

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
