"""Augmented input features: local mean, local variance, and MSCN maps.

All three maps are computed over the full image with a normalized Gaussian
window and reflect-101 border padding, then cropped per patch.  The MSCN
(mean-subtracted, contrast-normalized) value at a pixel is
``(I - mean) / (sqrt(var) + eps)``.  A patch fed to the regressor is a
``(4, N, N)`` array of the planes feature_planes returns, in that order:
raw luminance, local mean, local variance, and MSCN.

Every module that cuts patches (training samples, synthetic crops,
threshold maps, the intensity histogram) places them with patch_grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .image_io import GrayImage

DEFAULT_WINDOW_SIZE = 7
DEFAULT_SIGMA = 7.0 / 6.0
DEFAULT_EPSILON = 0.01
PATCH_SIZE = 32


@dataclass(frozen=True, eq=False)
class GaussianWindow:
    """Normalized 2-D Gaussian weights on an odd M x M support."""

    size: int
    sigma: float
    weights: np.ndarray


@dataclass(frozen=True, eq=False)
class FeatureMaps:
    """Per-pixel local mean, variance, and MSCN maps (image-sized)."""

    mean_map: np.ndarray
    var_map: np.ndarray
    mscn_map: np.ndarray | None = None


def _pixels(img) -> np.ndarray:
    return img.pixels if isinstance(img, GrayImage) else np.asarray(img, dtype=np.float64)


def gaussian_window(size: int = DEFAULT_WINDOW_SIZE, sigma: float = DEFAULT_SIGMA) -> GaussianWindow:
    """Build a normalized Gaussian window of odd size >= 3.

    weights[i, j] is proportional to exp(-((i-c)^2 + (j-c)^2) / (2 sigma^2))
    with c the center index, normalized to sum exactly to 1.
    """
    if size % 2 == 0 or size < 3:
        raise DataError(f"window size must be odd and >= 3, got {size}")
    if sigma <= 0:
        raise DataError(f"sigma must be positive, got {sigma}")
    c = (size - 1) / 2.0
    idx = np.arange(size, dtype=np.float64)
    d2 = (idx - c)[:, None] ** 2 + (idx - c)[None, :] ** 2
    w = np.exp(-d2 / (2.0 * sigma * sigma))
    w /= w.sum()
    return GaussianWindow(size=size, sigma=sigma, weights=w)


def _windowed_sum(arr: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted sliding-window sum with reflect-101 padding, same size as arr."""
    half = weights.shape[0] // 2
    padded = np.pad(arr, half, mode="reflect")
    windows = np.lib.stride_tricks.sliding_window_view(padded, weights.shape)
    return np.einsum("xyuv,uv->xy", windows, weights)


def local_moments(img, window: GaussianWindow) -> FeatureMaps:
    """Per-pixel weighted local mean and variance (clamped at 0)."""
    arr = _pixels(img)
    if window.size > min(arr.shape):
        raise DataError(f"window size {window.size} exceeds image dimensions {arr.shape}")
    mean = _windowed_sum(arr, window.weights)
    var = np.maximum(_windowed_sum(arr * arr, window.weights) - mean * mean, 0.0)
    return FeatureMaps(mean_map=mean, var_map=var)


def mscn_map(img, window: GaussianWindow, epsilon: float = DEFAULT_EPSILON) -> FeatureMaps:
    """All three feature maps; MSCN = (I - mean) / (sqrt(var) + epsilon)."""
    if epsilon <= 0:
        raise DataError(f"epsilon must be positive, got {epsilon}")
    arr = _pixels(img)
    moments = local_moments(arr, window)
    mscn = (arr - moments.mean_map) / (np.sqrt(moments.var_map) + epsilon)
    return FeatureMaps(mean_map=moments.mean_map, var_map=moments.var_map, mscn_map=mscn)


def patch_grid(length: int, stride: int) -> list[int]:
    """Stride-grid origins anchored at 0, last origin shifted to touch the border."""
    if length < PATCH_SIZE:
        raise DataError(f"image extent {length} smaller than patch size {PATCH_SIZE}")
    origins = list(range(0, length - PATCH_SIZE + 1, stride))
    if origins[-1] != length - PATCH_SIZE:
        origins.append(length - PATCH_SIZE)
    return origins


def feature_planes(maps: FeatureMaps, img) -> tuple[np.ndarray, ...]:
    """The image-sized regressor input planes; the one place their order is written."""
    if maps.mscn_map is None:
        raise DataError("feature planes need feature maps including MSCN")
    return (_pixels(img), maps.mean_map, maps.var_map, maps.mscn_map)


def augment_patch(maps: FeatureMaps, img, origin: tuple[int, int], size: int) -> np.ndarray:
    """Crop the four feature planes at `origin` into a (4, size, size) patch."""
    planes = feature_planes(maps, img)
    row, col = origin
    if row < 0 or col < 0 or row + size > planes[0].shape[0] or col + size > planes[0].shape[1]:
        raise DataError(f"patch at {origin} size {size} exceeds image bounds {planes[0].shape}")
    return np.stack([plane[row : row + size, col : col + size] for plane in planes])
