"""Augmented input features: local mean, local variance, and MSCN maps.

All three maps are computed over the full image with one normalized 7x7
Gaussian window (sigma 7/6) and reflect-101 border padding, then cropped
per patch.  The MSCN (mean-subtracted, contrast-normalized) value at a
pixel is ``(I - mean) / (sqrt(var) + eps)``, eps = DEFAULT_EPSILON.  A
patch fed to the regressor is a ``(4, N, N)`` array of the planes
feature_planes returns, in that order: raw luminance, local mean, local
variance, and MSCN.

Every module that cuts patches (training samples, synthetic crops,
threshold maps, the intensity histogram) places them with patch_grid and
takes their means (the error E, the luminance) with patch_means.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

DEFAULT_WINDOW_SIZE = 7
DEFAULT_SIGMA = 7.0 / 6.0
DEFAULT_EPSILON = 0.01
PATCH_SIZE = 32


@dataclass(frozen=True, eq=False)
class FeatureMaps:
    """Per-pixel local mean, variance, and MSCN maps (image-sized)."""

    mean_map: np.ndarray
    var_map: np.ndarray
    mscn_map: np.ndarray


def gaussian_window() -> np.ndarray:
    """The normalized DEFAULT_WINDOW_SIZE-square Gaussian weights at DEFAULT_SIGMA.

    weights[i, j] is proportional to exp(-((i-c)^2 + (j-c)^2) / (2 sigma^2))
    with c the center index, normalized to sum exactly to 1.
    """
    c = (DEFAULT_WINDOW_SIZE - 1) / 2.0
    idx = np.arange(DEFAULT_WINDOW_SIZE, dtype=np.float64)
    d2 = (idx - c)[:, None] ** 2 + (idx - c)[None, :] ** 2
    w = np.exp(-d2 / (2.0 * DEFAULT_SIGMA * DEFAULT_SIGMA))
    w /= w.sum()
    return w


def _windowed_sum(padded: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted sliding-window sum over the valid windows of the last two axes of a padded array."""
    windows = np.lib.stride_tricks.sliding_window_view(padded, weights.shape, axis=(-2, -1))
    return np.einsum("...xyuv,uv->...xy", windows, weights)


def mscn_map(img, window: np.ndarray) -> FeatureMaps:
    """Weighted local mean, variance (clamped at 0) and MSCN maps of a pixel array.

    img is one (H, W) image or a stack (..., H, W) of images of one shape;
    each image of a stack gets the maps it gets alone, bit for bit.
    """
    arr = np.asarray(img, dtype=np.float64)
    size = len(window)
    if size > min(arr.shape[-2:]):
        raise DataError(f"window size {size} exceeds image dimensions {arr.shape[-2:]}")
    # reflect-101 padding only copies pixels, so the padded square is the
    # square of the padded image
    half = size // 2
    padded = np.pad(arr, [(0, 0)] * (arr.ndim - 2) + [(half, half)] * 2, mode="reflect")
    mean = _windowed_sum(padded, window)
    var = np.maximum(_windowed_sum(padded * padded, window) - mean * mean, 0.0)
    mscn = (arr - mean) / (np.sqrt(var) + DEFAULT_EPSILON)
    return FeatureMaps(mean_map=mean, var_map=var, mscn_map=mscn)


def patch_grid(length: int, stride: int) -> list[int]:
    """Stride-grid origins anchored at 0, last origin shifted to touch the border."""
    if length < PATCH_SIZE:
        raise DataError(f"image extent {length} smaller than patch size {PATCH_SIZE}")
    origins = list(range(0, length - PATCH_SIZE + 1, stride))
    if origins[-1] != length - PATCH_SIZE:
        origins.append(length - PATCH_SIZE)
    return origins


def patch_means(arr: np.ndarray, rows: list[int], cols: list[int]) -> np.ndarray:
    """The (..., len(rows), len(cols)) means of the PATCH_SIZE-square windows at those origins.

    arr is one (H, W) array or a stack (..., H, W) of them.  Each row of
    windows is copied into one (..., len(cols), 32, 32) array before its
    mean, so every patch is summed in the same order as
    arr[..., r:r+32, c:c+32].mean(), bit for bit.
    """
    windows = np.lib.stride_tricks.sliding_window_view(arr, (PATCH_SIZE, PATCH_SIZE), axis=(-2, -1))
    return np.stack([windows[..., row, cols, :, :].mean(axis=(-2, -1)) for row in rows], axis=-2)


def feature_planes(maps: FeatureMaps, img) -> tuple[np.ndarray, ...]:
    """The image-sized regressor input planes; the one place their order is written."""
    return (np.asarray(img, dtype=np.float64), maps.mean_map, maps.var_map, maps.mscn_map)


def augment_patch(maps: FeatureMaps, img, origin: tuple[int, int], size: int) -> np.ndarray:
    """Crop the four feature planes at `origin` into a (4, size, size) patch."""
    planes = feature_planes(maps, img)
    row, col = origin
    if row < 0 or col < 0 or row + size > planes[0].shape[0] or col + size > planes[0].shape[1]:
        raise DataError(f"patch at {origin} size {size} exceeds image bounds {planes[0].shape}")
    return np.stack([plane[row : row + size, col : col + size] for plane in planes])
