"""Standalone threshold-map inference over whole images.

A trained regressor is slid over the image on features.patch_grid (origins
anchored at (0, 0), border completed); each grid cell holds the
eval-mode threshold of the patch anchored there, plus the patch's mean
luminance on the 0..255 scale for later outlier filtering.

The network's two 2x2 pools make patches whose origins differ by a
multiple of 4 share every convolution output, so the map is not built
from one forward per cell.  Rows and columns are grouped by one rule
(_strips): each phase's lattice (origins = phase mod 4) is one
full-length strip, and the border origin length - 32, when not of phase 0
and its phase has 2 or more cells, is a 32-pixel strip of its own, so a
stride that asks for no other cell of its phase pays a narrow strip for
it.  For each row strip x column strip that holds a grid origin, the conv
stack walks the rectangle top to bottom (regressor.lattice_thresholds):
in bands of lattice rows that carry the rows the next band reads,
skipping bands that hold no grid row, so no convolution output of a pass
is made twice.  The fc head runs only on the lattice rows that hold a
grid origin, on every cell of such a row.  A strip is fixed by its first
pixel and the axis length, so every GEMM's shape, and with it a cell's
value, does not depend on the stride.  The working memory is about
44 KiB per lattice column of the widest strip (55 KiB when a band makes
its own halo), whatever the image height.  A band that makes its own
halo over a wide strip does not keep its conv2 accumulator in cache,
which costs strides above 16 (they skip most bands) 13-23% at 512 x 512;
no caller predicts above the default stride 16.  A cell equals the
single-patch forward to within 1e-12 relative (the convolutions sum in
another order); repeated runs are bit-identical.

Maps can be decimated to a coarser grid with a block-averaging filter,
min-max normalized for visualization, and exported as CSV with a JSON
sidecar.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import DataError
# augment_patch and _forward_batch are unused here but stay bound:
# bench/tracing.py wraps inference.augment_patch and inference._forward_batch
from .features import (
    PATCH_SIZE, augment_patch, feature_planes, gaussian_window, mscn_map, patch_grid, patch_means,
)
from .image_io import GrayImage
from .quality_model import T_MIN
from .regressor import LATTICE, PNetParams, _forward_batch, lattice_thresholds, params_digest

# ThresholdMap fields that the JSON sidecar stores under their own names
GEOMETRY_KEYS = ("origin_stride", "patch_size", "source_width", "source_height")


@dataclass(eq=False)
class ThresholdMap:
    """Grid of predicted visibility thresholds with spatial metadata.

    Cell (r, c) holds the threshold of the patch anchored (top-left) at the
    r-th row and c-th column origin of features.patch_grid at origin_stride;
    assigning values to patch centers instead is a rendering choice left
    to consumers.
    """

    values: np.ndarray          # (grid rows, grid cols), all >= T_MIN
    origin_stride: int
    patch_size: int
    source_width: int
    source_height: int
    mean_luminance: np.ndarray  # per-cell patch mean on [0, 255], shaped like values
    model_digest: str | None = None


def _strips(origins: list[int], length: int) -> list[tuple[int, int, list[int], list[int]]]:
    """Group an axis's grid origins into the strips lattice_thresholds walks.

    Each phase's lattice (origins = phase mod LATTICE) is one full-length
    strip.  The border origin length - 32, when it is not of phase 0 and
    its phase has 2 or more cells, is a 32-pixel strip of its own:
    patch_grid adds it to every grid that does not reach it, and a stride
    that is a multiple of 4 asks for no other cell of its phase.  Returns (first
    pixel, end pixel, grid indices, lattice cells within the strip) per
    strip that holds at least one origin.  A strip is fixed by its first
    pixel and the axis length alone, never by the stride.
    """
    border = length - PATCH_SIZE
    alone = border % LATTICE != 0 and border > LATTICE
    members: dict[int, list[tuple[int, int]]] = {}
    for k, origin in enumerate(origins):
        first = origin if alone and origin == border else origin % LATTICE
        members.setdefault(first, []).append((k, (origin - first) // LATTICE))
    strips = []
    for first, pairs in sorted(members.items()):
        last = border - (border - first) % LATTICE  # the strip's last origin
        if alone and first == border % LATTICE:
            last -= LATTICE  # the border origin is a strip of its own
        grid_idx, cells = zip(*pairs)
        strips.append((first, last + PATCH_SIZE, list(grid_idx), list(cells)))
    return strips


def predict_map(img: GrayImage, params: PNetParams, stride: int) -> ThresholdMap:
    """Predict a threshold per patch origin on the patch grid.

    The conv stack walks each row strip x column strip once (see the
    module docstring), so every cell is within 1e-12 relative of an
    independent single-patch prediction, a cell's value is the same at every stride
    whose grid holds its origin, and repeated runs are bit-identical.  The
    mean luminance is computed per patch, as augment_patch would crop it.
    """
    if stride < 1:
        raise DataError(f"stride must be >= 1, got {stride}")
    arr = img.pixels
    rows, cols = patch_grid(arr.shape[0], stride), patch_grid(arr.shape[1], stride)
    planes = feature_planes(mscn_map(arr, gaussian_window()), arr)
    values = np.empty((len(rows), len(cols)))
    col_strips = _strips(cols, arr.shape[1])
    for top, bottom, grid_rows, strip_rows in _strips(rows, arr.shape[0]):
        for left, right, grid_cols, strip_cols in col_strips:
            strip = [plane[top:bottom, left:right] for plane in planes]
            cells = lattice_thresholds(strip, params, strip_rows)
            values[np.ix_(grid_rows, grid_cols)] = cells[:, strip_cols]
    luminance = patch_means(arr, rows, cols) * 255.0
    return ThresholdMap(
        values=values,
        origin_stride=stride,
        patch_size=PATCH_SIZE,
        source_width=arr.shape[1],
        source_height=arr.shape[0],
        mean_luminance=luminance,
        model_digest=params_digest(params),
    )


def _bin_edges(n: int, target: int) -> list[int]:
    # round-half-up so the partition is reproducible bit for bit
    return [int(np.floor(i * n / target + 0.5)) for i in range(target + 1)]


def _block_mean(grid: np.ndarray, row_edges, col_edges) -> np.ndarray:
    # the edges are strictly increasing, so every reduceat segment is one bin;
    # a bin that overflows is inf, which the fit rejects as non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        sums = np.add.reduceat(np.add.reduceat(grid, row_edges[:-1], axis=0), col_edges[:-1], axis=1)
    return sums / np.outer(np.diff(row_edges), np.diff(col_edges))


def decimate_map(tmap: ThresholdMap, target_rows: int, target_cols: int) -> ThresholdMap:
    """Average the map down to target_rows x target_cols contiguous bins."""
    if target_rows < 1 or target_cols < 1:
        raise DataError("target grid must be at least 1x1")
    n_rows, n_cols = tmap.values.shape
    if target_rows > n_rows or target_cols > n_cols:
        raise DataError(
            f"target grid {target_rows}x{target_cols} exceeds source "
            f"{n_rows}x{n_cols}; predict the map with a smaller stride"
        )
    row_edges = _bin_edges(n_rows, target_rows)
    col_edges = _bin_edges(n_cols, target_cols)
    return replace(
        tmap,
        values=_block_mean(tmap.values, row_edges, col_edges),
        mean_luminance=_block_mean(tmap.mean_luminance, row_edges, col_edges),
    )


def normalize_map(tmap: ThresholdMap) -> GrayImage:
    """Min-max scale to [0, 1] for visualization; black = lowest threshold."""
    lo, hi = float(tmap.values.min()), float(tmap.values.max())
    if hi == lo:
        return GrayImage(np.full_like(tmap.values, 0.5))
    return GrayImage((tmap.values - lo) / (hi - lo))


def export_map(tmap: ThresholdMap, prefix) -> tuple[Path, Path]:
    """Write <prefix>.csv (full-precision values) and <prefix>.json sidecar."""
    prefix = Path(prefix)
    csv_path = prefix.with_name(prefix.name + ".csv")
    json_path = prefix.with_name(prefix.name + ".json")
    lines = [",".join(format(v, ".17g") for v in row) for row in tmap.values]
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    sidecar = {
        "grid_rows": tmap.values.shape[0],
        "grid_cols": tmap.values.shape[1],
        **{k: getattr(tmap, k) for k in GEOMETRY_KEYS},
        "model_digest": tmap.model_digest,
        "mean_luminance": tmap.mean_luminance.tolist(),
    }
    json_path.write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return csv_path, json_path


def load_map(prefix) -> ThresholdMap:
    """Read a map exported by export_map (CSV values + JSON sidecar)."""
    prefix = Path(prefix)
    csv_path = prefix.with_name(prefix.name + ".csv")
    json_path = prefix.with_name(prefix.name + ".json")
    if not csv_path.exists() or not json_path.exists():
        raise DataError(f"missing exported map files {csv_path} / {json_path}")
    try:
        lines = csv_path.read_text().strip().splitlines()
        values = np.array([list(map(float, line.split(","))) for line in lines])
    except ValueError as exc:
        raise DataError(f"{csv_path}: malformed map values ({exc})") from None
    try:
        meta = json.loads(json_path.read_text())
        shape = (meta["grid_rows"], meta["grid_cols"])
        geometry = {k: meta[k] for k in GEOMETRY_KEYS}
        luminance = np.array(meta["mean_luminance"], dtype=np.float64)
    except (ValueError, KeyError, TypeError) as exc:
        raise DataError(f"{json_path}: malformed map sidecar ({exc!r})") from None
    if values.shape != shape:
        raise DataError(f"{csv_path}: value grid {values.shape} does not match sidecar {shape}")
    if luminance.shape != shape:
        raise DataError(
            f"{json_path}: mean_luminance grid {luminance.shape} does not match value grid {shape}"
        )
    return ThresholdMap(
        values=values,
        **geometry,
        mean_luminance=luminance,
        model_digest=meta.get("model_digest"),
    )
