"""Standalone threshold-map inference over whole images.

A trained regressor is slid over the image on features.patch_grid (origins
anchored at (0, 0), border completed); each grid cell holds the
eval-mode threshold of the patch anchored there, plus the patch's mean
luminance on the 0..255 scale for later outlier filtering.

The network's two 2x2 pools make patches whose origins differ by a
multiple of 4 share every convolution output, so the map is not built
from one forward per cell.  The grid origins are split by phase
(row mod 4, col mod 4), and for each phase that occurs the conv stack runs
over tiles of TILE_CELLS x TILE_CELLS lattice cells of that phase
(regressor.lattice_thresholds), the last tile of an axis taking one cell
more instead of leaving a one-cell tile; the fc head runs only on the tile's
lattice rows that hold a grid origin, on every cell of such a row.  Tiles
are anchored at absolute lattice positions and always cover every lattice
cell in their range, so every GEMM's shape, and with it a cell's value,
does not depend on the stride, and a tile bounds the working memory
whatever the image size.  A cell equals the single-patch forward to within
1e-12 relative (the convolutions sum in another order); repeated runs are
bit-identical.

Maps can be decimated to a coarser grid with a block-averaging filter,
min-max normalized for visualization, and exported as CSV with a JSON
sidecar.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
# augment_patch and _forward_batch are unused here but stay bound:
# bench/tracing.py wraps inference.augment_patch and inference._forward_batch
from .features import PATCH_SIZE, augment_patch, feature_planes, gaussian_window, mscn_map, patch_grid
from .image_io import GrayImage
from .quality_model import T_MIN
from .regressor import PNetParams, _forward_batch, lattice_thresholds, params_digest

LATTICE = 4  # origin spacing at which patches share conv outputs (two 2x2 pools)
# lattice cells per tile side: 124x124-pixel tiles, so the 28-pixel halo
# each tile recomputes is a small share of it; conv1 runs in row strips
# (regressor._pooled_map), so a tile pass peaks under 4 MB.  The last tile
# of an axis may hold TILE_CELLS + 1 cells (128 pixels), see _tiles.
TILE_CELLS = 24


@dataclass(eq=False)
class ThresholdMap:
    """Grid of predicted visibility thresholds with spatial metadata.

    Cell (r, c) holds the threshold of the patch anchored (top-left) at the
    r-th row and c-th column origin of features.patch_grid at origin_stride;
    assigning values to patch centers instead is a rendering choice left
    to consumers.
    """

    values: np.ndarray          # (grid_rows, grid_cols), all >= T_MIN
    origin_stride: int
    patch_size: int
    source_width: int
    source_height: int
    mean_luminance: np.ndarray | None = None  # per-cell patch mean on [0, 255]
    model_digest: str | None = None

    @property
    def grid_rows(self) -> int:
        return self.values.shape[0]

    @property
    def grid_cols(self) -> int:
        return self.values.shape[1]


def _lattice_cells(length: int, phase: int) -> int:
    """Patch origins of one phase that fit on an axis of length pixels."""
    return (length - PATCH_SIZE - phase) // LATTICE + 1


def _tiles(origins: list[int], length: int) -> list[tuple[int, int, list[int], list[int]]]:
    """Group one axis's grid origins into lattice tiles.

    Returns (first pixel, end pixel, grid indices, cells within the tile)
    per tile that holds at least one origin.  An origin's tile is fixed by
    its phase, its absolute lattice position and the axis length alone.
    When the phase's last tile would hold a single cell, the tile before it
    takes that cell (TILE_CELLS + 1 cells): a one-cell tile pass, all halo,
    costs about a quarter of a full one.
    """
    members: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for k, origin in enumerate(origins):
        phase, cell = origin % LATTICE, origin // LATTICE
        first = cell - cell % TILE_CELLS
        if first and first == _lattice_cells(length, phase) - 1:
            first -= TILE_CELLS
        members.setdefault((phase, first), []).append((k, cell - first))
    tiles = []
    for (phase, first), pairs in sorted(members.items()):
        n_cells = _lattice_cells(length, phase) - first
        if n_cells > TILE_CELLS + 1:  # not the phase's last tile
            n_cells = TILE_CELLS
        start = phase + LATTICE * first
        grid_idx, tile_idx = zip(*pairs)
        tiles.append((start, start + LATTICE * (n_cells - 1) + PATCH_SIZE,
                      list(grid_idx), list(tile_idx)))
    return tiles


def predict_map(img: GrayImage, params: PNetParams, stride: int) -> ThresholdMap:
    """Predict a threshold per patch origin on the patch grid.

    The conv stack runs once per lattice tile (see the module docstring),
    so every cell is within 1e-12 relative of an independent single-patch
    prediction, a cell's value is the same at every stride whose grid
    holds its origin, and repeated runs are bit-identical.  The mean
    luminance is computed per patch, as augment_patch would crop it.
    """
    if stride < 1:
        raise DataError(f"stride must be >= 1, got {stride}")
    arr = img.pixels
    rows, cols = patch_grid(arr.shape[0], stride), patch_grid(arr.shape[1], stride)
    planes = feature_planes(mscn_map(arr, gaussian_window()), arr)
    values = np.empty((len(rows), len(cols)))
    for top, bottom, grid_rows, tile_rows in _tiles(rows, arr.shape[0]):
        for left, right, grid_cols, tile_cols in _tiles(cols, arr.shape[1]):
            tile = np.stack([plane[top:bottom, left:right] for plane in planes])
            cells = lattice_thresholds(tile, params, tile_rows)
            values[np.ix_(grid_rows, grid_cols)] = cells[:, tile_cols]
    windows = np.lib.stride_tricks.sliding_window_view(arr, (PATCH_SIZE, PATCH_SIZE))
    # a contiguous (cols, 32, 32) copy per row sums each patch in the same
    # order as the mean of its augment_patch luminance plane
    luminance = np.stack([windows[row, cols].mean(axis=(1, 2)) for row in rows]) * 255.0
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
    if target_rows > tmap.grid_rows or target_cols > tmap.grid_cols:
        raise DataError(
            f"target grid {target_rows}x{target_cols} exceeds source "
            f"{tmap.grid_rows}x{tmap.grid_cols}; predict the map with a smaller stride"
        )
    row_edges = _bin_edges(tmap.grid_rows, target_rows)
    col_edges = _bin_edges(tmap.grid_cols, target_cols)
    return ThresholdMap(
        values=_block_mean(tmap.values, row_edges, col_edges),
        origin_stride=tmap.origin_stride,
        patch_size=tmap.patch_size,
        source_width=tmap.source_width,
        source_height=tmap.source_height,
        mean_luminance=(
            _block_mean(tmap.mean_luminance, row_edges, col_edges)
            if tmap.mean_luminance is not None
            else None
        ),
        model_digest=tmap.model_digest,
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
        "grid_rows": tmap.grid_rows,
        "grid_cols": tmap.grid_cols,
        "origin_stride": tmap.origin_stride,
        "patch_size": tmap.patch_size,
        "source_width": tmap.source_width,
        "source_height": tmap.source_height,
        "model_digest": tmap.model_digest,
        "mean_luminance": (
            tmap.mean_luminance.tolist() if tmap.mean_luminance is not None else None
        ),
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
        geometry = {
            k: meta[k] for k in ("origin_stride", "patch_size", "source_width", "source_height")
        }
        lum = meta.get("mean_luminance")
        luminance = np.array(lum, dtype=np.float64) if lum is not None else None
    except (ValueError, KeyError, TypeError) as exc:
        raise DataError(f"{json_path}: malformed map sidecar ({exc!r})") from None
    if values.shape != shape:
        raise DataError(f"{csv_path}: value grid {values.shape} does not match sidecar {shape}")
    if luminance is not None and luminance.shape != shape:
        raise DataError(
            f"{json_path}: mean_luminance grid {luminance.shape} does not match value grid {shape}"
        )
    return ThresholdMap(
        values=values,
        **geometry,
        mean_luminance=luminance,
        model_digest=meta.get("model_digest"),
    )
