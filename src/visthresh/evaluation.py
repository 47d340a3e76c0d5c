"""Statistical comparison of predicted thresholds against ground truth.

Predictions and psychophysical ground truth live on different scales, so
predictions are first linearized through a monotonic third-order
polynomial (the exact least-squares cubic whose derivative keeps one sign
on a dense grid over the data hull), then scored with Pearson correlation
and RMSE.
Patches whose mean luminance falls outside a configurable band can be
excluded, mirroring the outlier analysis of under-represented very dark
and very bright content.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, NumericError
from .features import PATCH_SIZE, patch_grid
from .image_io import GrayImage, read_csv_rows
from .inference import ThresholdMap

DEFAULT_LUMINANCE_BAND = (10.0, 250.0)
DERIVATIVE_GRID = 256


@dataclass(frozen=True, eq=False)
class PairedData:
    """Aligned (prediction, ground truth) pairs with per-pair mean luminance."""

    x: np.ndarray
    y: np.ndarray
    luminance: np.ndarray | None = None

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        if x.shape != y.shape or x.ndim != 1:
            raise DataError(f"paired data must be equal-length vectors, got {x.shape} vs {y.shape}")
        lum = self.luminance
        if lum is not None:
            lum = np.asarray(lum, dtype=np.float64)
            if lum.shape != x.shape:
                raise DataError("luminance metadata length does not match the pairs")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "luminance", lum)

    def __len__(self) -> int:
        return self.x.size


@dataclass(frozen=True)
class MonotoneCubic:
    """c0 + c1 x + c2 x^2 + c3 x^3, monotone over the fitted data hull.

    `coefficients` is the polynomial on the raw x scale.  Evaluation goes
    through the standardized variable t = (x - center)/scale with
    `scaled_coefficients`, which stays numerically stable even when the
    x values are nearly constant and the raw-scale coefficients blow up.
    Fits from fit_monotonic_cubic are exact, so `converged` is True.
    """

    coefficients: tuple[float, float, float, float]
    direction: str  # "increasing" | "decreasing"
    residual_rmse: float
    converged: bool
    center: float
    scale: float
    scaled_coefficients: tuple[float, float, float, float]

    def __call__(self, x) -> np.ndarray:
        c0, c1, c2, c3 = self.scaled_coefficients
        t = (np.asarray(x, dtype=np.float64) - self.center) / self.scale
        return ((c3 * t + c2) * t + c1) * t + c0

    def derivative(self, x) -> np.ndarray:
        """dp/dx, evaluated through the standardized form."""
        _, c1, c2, c3 = self.scaled_coefficients
        t = (np.asarray(x, dtype=np.float64) - self.center) / self.scale
        return ((3.0 * c3 * t + 2.0 * c2) * t + c1) / self.scale


@dataclass(frozen=True)
class EvalResult:
    plcc_raw: float
    plcc_fitted: float
    rmse_fitted: float
    n_total: int
    n_kept: int
    excluded_indices: tuple[int, ...]
    band: tuple[float, float] | None
    fit: MonotoneCubic

    def to_dict(self) -> dict:
        return {
            "plcc_raw": self.plcc_raw,
            "plcc_fitted": self.plcc_fitted,
            "rmse_fitted": self.rmse_fitted,
            "n_total": self.n_total,
            "n_kept": self.n_kept,
            "excluded_indices": list(self.excluded_indices),
            "band": list(self.band) if self.band is not None else None,
            "fit_coefficients": list(self.fit.coefficients),
            "fit_direction": self.fit.direction,
            "fit_residual_rmse": self.fit.residual_rmse,
        }


def plcc(x, y) -> float:
    """Pearson linear correlation coefficient."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.size < 2:
        raise DataError("plcc needs two equal-length vectors with at least 2 entries")
    dx = x - x.mean()
    dy = y - y.mean()
    denom = np.sqrt((dx @ dx) * (dy @ dy))
    if denom == 0.0:
        raise DataError("plcc undefined for constant input")
    return float((dx @ dy) / denom)


def rmse(pred, gt) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape or pred.size < 1:
        raise DataError("rmse needs two equal-length non-empty vectors")
    return float(np.sqrt(np.mean((pred - gt) ** 2)))


def _nnls(e, f) -> np.ndarray:
    """argmin ||e @ lam - f|| over lam >= 0, by Lawson and Hanson's active-set method.

    Each outer step frees the coordinate with the largest positive dual
    value; the inner loop steps back toward the previous iterate until
    every free coordinate is positive.  Finite in exact arithmetic; the
    3 * columns step bound only guards against rounding-induced cycling.
    """
    m, n = e.shape
    lam = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    tol = max(m, n) * np.finfo(np.float64).eps * float(np.linalg.norm(f))
    for _ in range(3 * n):
        w = e.T @ (f - e @ lam)
        w[passive] = -np.inf
        j = int(np.argmax(w))
        if w[j] <= tol:
            return lam
        passive[j] = True
        while True:
            trial = np.zeros(n)
            trial[passive] = np.linalg.lstsq(e[:, passive], f, rcond=None)[0]
            if np.all(trial[passive] > 0.0):
                lam = trial
                break
            blocked = np.flatnonzero(passive & (trial <= 0.0))
            ratios = lam[blocked] / (lam[blocked] - trial[blocked])
            lam = lam + ratios.min() * (trial - lam)
            lam[blocked[np.argmin(ratios)]] = 0.0
            passive &= lam > 0.0
    raise NumericError(f"NNLS did not converge within {3 * n} active-set steps")


def fit_monotonic_cubic(x, y) -> MonotoneCubic:
    """Least-squares cubic constrained to be monotone over [min x, max x].

    The direction s is the sign of the raw correlation.  On standardized
    t = (x - mean x)/sd x, with design rows phi = (1, t, t^2, t^3) and
    derivative rows psi = (0, 1, 2g, 3g^2) at DERIVATIVE_GRID uniform
    points g over the data hull, the fit solves exactly

        min ||phi c - y||  subject to  s * psi c >= 0.

    The constraints are homogeneous, so the feasible set is a cone.
    Whitening with phi = Q R turns the problem into projecting
    z0 = Q^T (y - mean y) onto {z : A z >= 0}, A = s psi R^-1.  By
    Moreau's decomposition that projection is z0 + A^T lam, where
    lam = argmin_{lam >= 0} ||A^T lam + z0|| is a small NNLS; then
    c = R^-1 (z0 + A^T lam).  When the unconstrained cubic is already
    monotone on the grid, lam = 0 and the fit is the least-squares cubic.
    Raises NumericError rather than return an unconverged fit.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.size < 4:
        raise DataError("monotone cubic fit needs at least 4 paired points")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise DataError("monotone cubic fit needs finite x and y values")
    mu, sd = float(x.mean()), float(x.std())
    if sd == 0.0:
        raise DataError("monotone cubic fit undefined for constant x")
    dx = x - mu
    dy = y - y.mean()
    s = -1.0 if float(dx @ dy) < 0.0 else 1.0

    ts = dx / sd
    grid = np.linspace(ts.min(), ts.max(), DERIVATIVE_GRID)
    phi = np.stack([np.ones_like(ts), ts, ts**2, ts**3], axis=1)
    if np.linalg.matrix_rank(phi) < 4:
        raise DataError("monotone cubic fit needs at least 4 distinct x values")
    psi = np.stack([np.zeros_like(grid), np.ones_like(grid), 2.0 * grid, 3.0 * grid**2], axis=1)
    q, r = np.linalg.qr(phi)
    z0 = q.T @ dy
    a = s * np.linalg.solve(r.T, psi.T).T
    # unit rows leave the cone unchanged and put the NNLS tolerance in
    # units of distance from each constraint's hyperplane
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    c = np.linalg.solve(r, z0 + a.T @ _nnls(a.T, -z0))
    c[0] += y.mean()

    # expand to raw-x coefficients for reporting; prediction always goes
    # through the standardized form, which stays stable for tiny sd
    b = 1.0 / sd
    a0 = -mu / sd
    c0, c1, c2, c3 = (float(v) for v in c)
    coeffs = (
        c0 + c1 * a0 + c2 * a0**2 + c3 * a0**3,
        b * (c1 + 2.0 * c2 * a0 + 3.0 * c3 * a0**2),
        b**2 * (c2 + 3.0 * c3 * a0),
        b**3 * c3,
    )
    predictions = ((c3 * ts + c2) * ts + c1) * ts + c0
    return MonotoneCubic(
        coefficients=coeffs,
        direction="increasing" if s > 0 else "decreasing",
        residual_rmse=rmse(predictions, y),
        converged=True,
        center=mu,
        scale=sd,
        scaled_coefficients=(c0, c1, c2, c3),
    )


def evaluate(data: PairedData, band: tuple[float, float] | None = None) -> EvalResult:
    """Correlation statistics, optionally restricted to a mean-luminance band.

    With a band, pairs whose luminance lies outside [lo, hi] are excluded
    and every statistic (including the polynomial fit) is recomputed on
    the kept subset.  Band endpoints on the 0..255 scale.
    """
    n_total = len(data)
    if band is not None:
        if data.luminance is None:
            raise DataError("luminance band filtering requires per-pair luminance metadata")
        lo, hi = band
        keep = (data.luminance >= lo) & (data.luminance <= hi)
        excluded = tuple(int(i) for i in np.flatnonzero(~keep))
        x, y = data.x[keep], data.y[keep]
    else:
        excluded = ()
        x, y = data.x, data.y
    if x.size < 4:
        raise DataError(f"fewer than 4 points kept for evaluation ({x.size})")
    fit = fit_monotonic_cubic(x, y)
    fitted = fit(x)
    return EvalResult(
        plcc_raw=plcc(x, y),
        plcc_fitted=plcc(fitted, y),
        rmse_fitted=rmse(fitted, y),
        n_total=n_total,
        n_kept=int(x.size),
        excluded_indices=excluded,
        band=tuple(band) if band is not None else None,
        fit=fit,
    )


def intensity_histogram(images, stride: int = 16) -> np.ndarray:
    """256-bin histogram of mean patch luminance (0..255 scale) over patch grids."""
    counts = np.zeros(256, dtype=np.int64)
    for img in images:
        arr = img.pixels if isinstance(img, GrayImage) else np.asarray(img, dtype=np.float64)
        for row in patch_grid(arr.shape[0], stride):
            for col in patch_grid(arr.shape[1], stride):
                mean = arr[row : row + PATCH_SIZE, col : col + PATCH_SIZE].mean()
                counts[min(int(np.floor(mean * 255.0 + 0.5)), 255)] += 1
    return counts


def load_groundtruth(path) -> np.ndarray:
    """Read a ground-truth grid CSV with header ``row,col,threshold_db``.

    The declared grid spans (max row + 1) x (max col + 1); every cell must
    appear exactly once.
    """
    path = Path(path)
    rows = read_csv_rows(path)
    if not rows or tuple(cell.strip() for cell in rows[0][1]) != ("row", "col", "threshold_db"):
        raise DataError(f"{path}: expected header 'row,col,threshold_db'")
    cells: dict[tuple[int, int], float] = {}
    for lineno, row in rows[1:]:
        if len(row) != 3:
            raise DataError(f"{path}:{lineno}: expected 3 columns")
        try:
            r, c, v = int(row[0]), int(row[1]), float(row[2])
        except ValueError:
            raise DataError(f"{path}:{lineno}: unparsable cell {row}") from None
        if r < 0 or c < 0:
            raise DataError(f"{path}:{lineno}: negative cell index ({r}, {c})")
        if (r, c) in cells:
            raise DataError(f"{path}:{lineno}: duplicate cell ({r}, {c})")
        cells[(r, c)] = v
    if not cells:
        raise DataError(f"{path}: no ground-truth cells")
    n_rows = max(r for r, _ in cells) + 1
    n_cols = max(c for _, c in cells) + 1
    if len(cells) != n_rows * n_cols:
        # cells are distinct and in range, so some are missing; name a few
        missing = itertools.islice(
            ((r, c) for r in range(n_rows) for c in range(n_cols) if (r, c) not in cells), 5
        )
        raise DataError(
            f"{path}: missing cells relative to the declared {n_rows}x{n_cols} grid "
            f"({n_rows * n_cols - len(cells)} in all): {list(missing)}"
        )
    grid = np.empty((n_rows, n_cols))
    for (r, c), v in cells.items():
        grid[r, c] = v
    return grid


def pair_with_map(gt_grid: np.ndarray, tmap: ThresholdMap) -> PairedData:
    """Pair a ground-truth grid with a (decimated) threshold map cell by cell."""
    if gt_grid.shape != tmap.values.shape:
        raise DataError(
            f"ground-truth grid {gt_grid.shape} does not match map {tmap.values.shape}"
        )
    return PairedData(
        x=tmap.values.ravel(),
        y=gt_grid.ravel(),
        luminance=tmap.mean_luminance.ravel() if tmap.mean_luminance is not None else None,
    )
