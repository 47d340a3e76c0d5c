import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from visthresh.errors import DataError
from visthresh.features import (
    DEFAULT_EPSILON,
    DEFAULT_SIGMA,
    DEFAULT_WINDOW_SIZE,
    augment_patch,
    gaussian_window,
    mscn_map,
    patch_grid,
    patch_means,
)

from conftest import brute_force_maps


class TestGaussianWindow:
    @pytest.mark.parametrize("size, sigma", [(7, 7 / 6)])
    def test_weights_sum_to_one(self, size, sigma):
        assert (DEFAULT_WINDOW_SIZE, DEFAULT_SIGMA) == (size, sigma)
        w = gaussian_window()
        assert w.shape == (size, size)
        assert abs(w.sum() - 1.0) < 1e-12

    def test_symmetry(self):
        w = gaussian_window()
        np.testing.assert_array_equal(w, w[::-1, :])
        np.testing.assert_array_equal(w, w[:, ::-1])
        np.testing.assert_array_equal(w, w.T)

    def test_all_positive(self):
        assert np.all(gaussian_window() > 0)

    def test_center_weight_matches_direct_evaluation(self):
        # independent evaluation of the normalized Gaussian formula
        size, sigma = 7, 7 / 6
        total = 0.0
        for i in range(size):
            for j in range(size):
                total += math.exp(-((i - 3) ** 2 + (j - 3) ** 2) / (2 * sigma**2))
        expected_center = 1.0 / total  # exp(0) / sum
        assert abs(gaussian_window()[3, 3] - expected_center) < 1e-15


class TestLocalMoments:
    def test_constant_image(self):
        w = gaussian_window()
        maps = mscn_map(np.full((16, 16), 0.37), w)
        assert np.max(np.abs(maps.mean_map - 0.37)) < 1e-12
        assert np.max(np.abs(maps.var_map)) < 1e-12

    def test_window_larger_than_image(self):
        with pytest.raises(DataError, match="window"):
            mscn_map(np.zeros((5, 5)), gaussian_window())

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        img = rng.uniform(0.0, 1.0, (16, 16))
        w = gaussian_window()
        maps = mscn_map(img, w)
        mean_o, var_o, _ = brute_force_maps(img, w, DEFAULT_EPSILON)
        assert np.max(np.abs(maps.mean_map - mean_o)) < 1e-10
        assert np.max(np.abs(maps.var_map - var_o)) < 1e-10

    @pytest.mark.parametrize("shape", [(3, 64, 64), (2, 40, 33)])
    def test_stack_equals_each_image_bit_for_bit(self, shape):
        stack = np.random.default_rng(sum(shape)).uniform(0.0, 1.0, shape)
        w = gaussian_window()
        maps = mscn_map(stack, w)
        for k, img in enumerate(stack):
            alone = mscn_map(img, w)
            assert maps.mean_map[k].tobytes() == alone.mean_map.tobytes()
            assert maps.var_map[k].tobytes() == alone.var_map.tobytes()
            assert maps.mscn_map[k].tobytes() == alone.mscn_map.tobytes()

    def test_stack_window_check_reads_image_axes(self):
        # three images: the stack axis is shorter than the window, and allowed
        assert mscn_map(np.zeros((3, 64, 64)), gaussian_window()).mscn_map.shape == (3, 64, 64)
        with pytest.raises(DataError, match="window"):
            mscn_map(np.zeros((9, 64, 5)), gaussian_window())

    def test_shift_by_constant(self):
        rng = np.random.default_rng(3)
        img = rng.uniform(0.1, 0.5, (16, 16))
        w = gaussian_window()
        base = mscn_map(img, w)
        shifted = mscn_map(img + 0.3, w)
        assert np.max(np.abs(shifted.mean_map - base.mean_map - 0.3)) < 1e-12
        assert np.max(np.abs(shifted.var_map - base.var_map)) < 1e-12

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_variance_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        img = rng.uniform(0.0, 1.0, (12, 12))
        maps = mscn_map(img, gaussian_window())
        assert np.all(maps.var_map >= 0.0)


class TestMscnMap:
    def test_constant_image_is_zero(self):
        maps = mscn_map(np.full((16, 16), 0.8), gaussian_window())
        assert np.max(np.abs(maps.mscn_map)) == 0.0

    def test_default_epsilon(self):
        assert DEFAULT_EPSILON == 0.01

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(100 + seed)
        img = rng.uniform(0.0, 1.0, (16, 16))
        w = gaussian_window()
        maps = mscn_map(img, w)
        _, _, mscn_o = brute_force_maps(img, w, DEFAULT_EPSILON)
        assert np.max(np.abs(maps.mscn_map - mscn_o)) < 1e-10

    @pytest.mark.parametrize("shape", [(7, 9), (32, 32), (257, 300)])
    def test_bytes_equal_two_pad_path(self, shape):
        # the path that padded the image and its square separately
        img = np.random.default_rng(shape[0]).uniform(0.0, 1.0, shape)
        w = gaussian_window()

        def windowed_sum(arr):
            padded = np.pad(arr, len(w) // 2, mode="reflect")
            windows = np.lib.stride_tricks.sliding_window_view(padded, w.shape)
            return np.einsum("xyuv,uv->xy", windows, w)

        mean = windowed_sum(img)
        var = np.maximum(windowed_sum(img * img) - mean * mean, 0.0)
        mscn = (img - mean) / (np.sqrt(var) + DEFAULT_EPSILON)
        maps = mscn_map(img, w)
        assert maps.mean_map.tobytes() == mean.tobytes()
        assert maps.var_map.tobytes() == var.tobytes()
        assert maps.mscn_map.tobytes() == mscn.tobytes()


class TestAugmentPatch:
    def test_constant_image_channels(self):
        img = np.full((40, 40), 0.6)
        maps = mscn_map(img, gaussian_window())
        patch = augment_patch(maps, img, (4, 4), 32)
        assert patch.shape == (4, 32, 32)
        assert np.max(np.abs(patch[0] - 0.6)) == 0.0
        assert np.max(np.abs(patch[1] - 0.6)) < 1e-12
        assert np.max(np.abs(patch[2])) < 1e-12
        assert np.max(np.abs(patch[3])) == 0.0

    def test_full_image_crop_equals_maps(self, rng):
        img = rng.uniform(0.0, 1.0, (32, 32))
        maps = mscn_map(img, gaussian_window())
        patch = augment_patch(maps, img, (0, 0), 32)
        np.testing.assert_array_equal(patch[0], img)
        np.testing.assert_array_equal(patch[1], maps.mean_map)
        np.testing.assert_array_equal(patch[2], maps.var_map)
        np.testing.assert_array_equal(patch[3], maps.mscn_map)

    def test_crop_matches_direct_indexing(self, rng):
        img = rng.uniform(0.0, 1.0, (48, 64))
        maps = mscn_map(img, gaussian_window())
        patch = augment_patch(maps, img, (7, 21), 32)
        np.testing.assert_array_equal(patch[3], maps.mscn_map[7:39, 21:53])
        np.testing.assert_array_equal(patch[0], img[7:39, 21:53])

    def test_out_of_bounds(self, rng):
        img = rng.uniform(0.0, 1.0, (40, 40))
        maps = mscn_map(img, gaussian_window())
        with pytest.raises(DataError, match="bounds"):
            augment_patch(maps, img, (20, 0), 32)

    def test_channel_invariants(self, rng):
        img = rng.uniform(0.0, 1.0, (40, 40))
        maps = mscn_map(img, gaussian_window())
        patch = augment_patch(maps, img, (3, 5), 32)
        assert np.all(patch[0] >= 0) and np.all(patch[0] <= 1)
        assert np.all(patch[1] >= 0) and np.all(patch[1] <= 1)
        assert np.all(patch[2] >= 0)


class TestPatchMeans:
    def test_identical_patches(self, rng):
        patch = rng.uniform(0, 1, (32, 32))
        assert patch_means(np.abs(patch - patch), [0], [0]) == 0.0

    def test_constant_offset(self):
        ref = np.zeros((32, 32))
        assert patch_means(np.abs(ref + 0.2 - ref), [0], [0]) == pytest.approx(0.2, abs=1e-15)

    def test_direct_arithmetic(self):
        dist = np.tile([[0.1, 0.2], [0.3, 0.4]], (16, 16))
        assert patch_means(np.abs(dist - np.zeros((32, 32))), [0], [0]) == pytest.approx(0.25, abs=1e-15)

    def test_stack_equals_each_image_bit_for_bit(self):
        stack = np.random.default_rng(4).uniform(0.0, 1.0, (5, 96, 130))
        rows, cols = patch_grid(96, 7), patch_grid(130, 7)
        means = patch_means(stack, rows, cols)
        assert means.shape == (5, len(rows), len(cols))
        for k, img in enumerate(stack):
            assert means[k].tobytes() == patch_means(img, rows, cols).tobytes()

    @given(st.integers(32, 100), st.integers(32, 100), st.integers(1, 40), st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_bit_equal_to_each_crop_mean(self, height, width, stride, seed):
        # border origins included: patch_grid appends one where the stride misses the edge
        rng = np.random.default_rng(seed)
        ref, dist = rng.uniform(0.0, 1.0, (2, height, width))
        rows, cols = patch_grid(height, stride), patch_grid(width, stride)
        means = patch_means(ref, rows, cols)
        errors = patch_means(np.abs(dist - ref), rows, cols)
        assert means.shape == errors.shape == (len(rows), len(cols))
        for i, r in enumerate(rows):
            for j, c in enumerate(cols):
                ref_crop, dist_crop = ref[r : r + 32, c : c + 32], dist[r : r + 32, c : c + 32]
                assert means[i, j] == ref_crop.mean()
                assert errors[i, j] == np.mean(np.abs(dist_crop - ref_crop))
