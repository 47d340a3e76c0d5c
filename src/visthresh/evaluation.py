"""Statistical comparison of predicted thresholds against ground truth.

Predictions and psychophysical ground truth live on different scales, so
predictions are first linearized through a monotonic third-order
polynomial (the exact least-squares cubic whose derivative keeps one sign
on the whole data hull, found in closed form), then scored with Pearson
correlation and RMSE.
Patches whose mean luminance falls outside a configurable band can be
excluded, mirroring the outlier analysis of under-represented very dark
and very bright content.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .features import patch_grid, patch_means
from .image_io import GrayImage, quantize, read_csv_rows
from .inference import ThresholdMap

DEFAULT_LUMINANCE_BAND = (10.0, 250.0)
DERIVATIVE_GRID = 256  # read only by the benchmark, which checks fitted slopes on this grid


@dataclass(frozen=True, eq=False)
class PairedData:
    """Aligned (prediction, ground truth) pairs with per-pair mean luminance."""

    x: np.ndarray
    y: np.ndarray
    luminance: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        if x.shape != y.shape or x.ndim != 1:
            raise DataError(f"paired data must be equal-length vectors, got {x.shape} vs {y.shape}")
        lum = np.asarray(self.luminance, dtype=np.float64)
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
    Fits from fit_monotonic_cubic are closed-form, so `converged` is True.
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
    band: tuple[float, float]
    fit: MonotoneCubic

    def to_dict(self) -> dict:
        return {
            "plcc_raw": self.plcc_raw,
            "plcc_fitted": self.plcc_fitted,
            "rmse_fitted": self.rmse_fitted,
            "n_total": self.n_total,
            "n_kept": self.n_kept,
            "excluded_indices": list(self.excluded_indices),
            "band": list(self.band),
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


def _hull_face_fit(r, z0, s, a, b) -> np.ndarray:
    """Best feasible face optimum of fit_monotonic_cubic, as scaled coefficients.

    R is triangular, so c0 zeroes the first row of R c - z0 and each family is
    solved for (c1, c2, c3) on the rest, R' and z, and checked on its own k.
    For p' = 3 k (t - tau)^2 the residual is const - N^2/D, with N = z . w and
    D = |w|^2 for w = R' (3 tau^2, -3 tau, 1), so tau is a root of 2 N' D - N D'.
    """
    rr, z = r[1:, 1:], z0[1:]

    def face(*columns):
        basis = np.array(columns).T
        k = np.linalg.lstsq(rr @ basis, z, rcond=None)[0]
        return k, basis @ k

    fits = [np.zeros(3)]  # p' = 0
    for e, side in ((a, 1.0), (b, -1.0)):  # p' = (t - e)(2 k0 + 3 k1 (t - e))
        k, c = face((-2.0 * e, 1.0, 0.0), (3.0 * e * e, -3.0 * e, 1.0))
        if min(side * s * (2.0 * k[0] + 3.0 * k[1] * (t - e)) for t in (a, b)) >= 0.0:
            fits.append(c)
    k, c = face((a * b, -0.5 * (a + b), 1.0 / 3.0))  # p' = k (t - a)(t - b)
    if s * k[0] <= 0.0:
        fits.append(c)
    w = rr * [3.0, -3.0, 1.0]  # rows: quadratics in tau, highest power first
    num = z @ w
    den = sum(np.convolve(row, row) for row in w)
    stationary = 2.0 * np.convolve(np.polyder(num), den) - np.convolve(num, np.polyder(den))
    # its degree-5 coefficient cancels exactly; an extra tau only adds a candidate
    for tau in np.clip(np.roots(stationary[1:]).real, a, b):
        k, c = face((3.0 * tau * tau, -3.0 * tau, 1.0))
        if s * k[0] >= 0.0:
            fits.append(c)
    c = min(fits, key=lambda c: np.linalg.norm(rr @ c - z))
    return np.concatenate([[(z0[0] - r[0, 1:] @ c) / r[0, 0]], c])


def fit_monotonic_cubic(x, y) -> MonotoneCubic:
    """Least-squares cubic whose slope keeps one sign s on all of [min x, max x].

    s is the sign of the raw correlation.  On standardized t = (x - mean x)/sd x,
    with hull [a, b] = [min t, max t] and phi = (1, t, t^2, t^3) = Q R, the fit
    exactly solves  min ||phi c - y||  subject to  s * p'(t) >= 0 on [a, b].
    p' is a quadratic, so the least-squares cubic is the fit when s * p' >= 0
    at a, at b and at its vertex.  Otherwise p' = 0 somewhere on [a, b], and
    p' is 0, (t - a) g(t) or (t - b) g(t) with g linear, k (t - a)(t - b) or
    k (t - tau)^2 with tau in [a, b].  Each is a linear family of cubics whose
    least-squares member is the optimum if the family holds it; the fit is
    the feasible member with the smallest residual.  No step iterates.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.size < 4:
        raise DataError("monotone cubic fit needs at least 4 paired points")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise DataError("monotone cubic fit needs finite x and y values")
    # values near the float64 limit overflow these sums; the checks below
    # turn that into a DataError, so numpy need not warn first
    with np.errstate(over="ignore", invalid="ignore"):
        mu, sd = float(x.mean()), float(x.std())
        if sd == 0.0:
            raise DataError("monotone cubic fit undefined for constant x")
        dx = x - mu
        dy = y - y.mean()
        if not np.isfinite(dx @ dx + dy @ dy):
            raise DataError("monotone cubic fit: squared deviations of x or y overflow float64")
    s = -1.0 if float(dx @ dy) < 0.0 else 1.0

    ts = dx / sd
    phi = np.stack([np.ones_like(ts), ts, ts**2, ts**3], axis=1)
    if np.linalg.matrix_rank(phi) < 4:
        raise DataError("monotone cubic fit needs at least 4 distinct x values")
    q, r = np.linalg.qr(phi)
    z0 = q.T @ dy
    c = np.linalg.solve(r, z0)
    lo, hi = float(ts.min()), float(ts.max())
    hull = [lo, hi] + ([min(max(-c[2] / (3.0 * c[3]), lo), hi)] if c[3] else [])
    if min(s * ((3.0 * c[3] * t + 2.0 * c[2]) * t + c[1]) for t in hull) < 0.0:
        c = _hull_face_fit(r, z0, s, lo, hi)
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


def evaluate(data: PairedData, band: tuple[float, float]) -> EvalResult:
    """Correlation statistics over the pairs inside a mean-luminance band.

    Pairs whose luminance lies outside [lo, hi] are excluded and every
    statistic (including the polynomial fit) is computed on the kept
    subset.  Band endpoints on the 0..255 scale; (-inf, inf) keeps all.
    """
    lo, hi = band
    keep = (data.luminance >= lo) & (data.luminance <= hi)
    excluded = tuple(int(i) for i in np.flatnonzero(~keep))
    x, y = data.x[keep], data.y[keep]
    if x.size < 4:
        raise DataError(f"fewer than 4 points kept for evaluation ({x.size})")
    fit = fit_monotonic_cubic(x, y)
    fitted = fit(x)
    return EvalResult(
        plcc_raw=plcc(x, y),
        plcc_fitted=plcc(fitted, y),
        rmse_fitted=rmse(fitted, y),
        n_total=len(data),
        n_kept=int(x.size),
        excluded_indices=excluded,
        band=tuple(band),
        fit=fit,
    )


def intensity_histogram(images: list[GrayImage]) -> np.ndarray:
    """256-bin histogram of mean patch luminance (0..255 scale) over stride-16 patch grids."""
    counts = np.zeros(256, dtype=np.int64)
    for img in images:
        arr = img.pixels
        means = patch_means(arr, patch_grid(arr.shape[0], 16), patch_grid(arr.shape[1], 16))
        counts += np.bincount(quantize(means).ravel(), minlength=256)
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
    rs, cs, values = [], [], []
    for lineno, row in rows[1:]:
        if len(row) != 3:
            raise DataError(f"{path}:{lineno}: expected 3 columns")
        try:
            r, c = int(row[0]), int(row[1])
            values.append(float(row[2]))
        except ValueError:
            raise DataError(f"{path}:{lineno}: unparsable cell {row}") from None
        if r < 0 or c < 0:
            raise DataError(f"{path}:{lineno}: negative cell index ({r}, {c})")
        rs.append(r)
        cs.append(c)
    if not values:
        raise DataError(f"{path}: no ground-truth cells")
    n_rows, n_cols = max(rs) + 1, max(cs) + 1
    if len(set(zip(rs, cs))) == len(values) == n_rows * n_cols:
        grid = np.empty((n_rows, n_cols))
        grid[rs, cs] = values
        return grid
    first = {}
    for (lineno, _), cell in zip(rows[1:], zip(rs, cs)):
        if first.setdefault(cell, lineno) != lineno:
            raise DataError(f"{path}:{lineno}: duplicate cell {cell}")
    # cells are distinct and in range, so some are missing; name a few
    missing = itertools.islice(
        ((r, c) for r in range(n_rows) for c in range(n_cols) if (r, c) not in first), 5
    )
    raise DataError(
        f"{path}: missing cells relative to the declared {n_rows}x{n_cols} grid "
        f"({n_rows * n_cols - len(first)} in all): {list(missing)}"
    )


def pair_with_map(gt_grid: np.ndarray, tmap: ThresholdMap) -> PairedData:
    """Pair a ground-truth grid with a (decimated) threshold map cell by cell."""
    if gt_grid.shape != tmap.values.shape:
        raise DataError(
            f"ground-truth grid {gt_grid.shape} does not match map {tmap.values.shape}"
        )
    return PairedData(
        x=tmap.values.ravel(),
        y=gt_grid.ravel(),
        luminance=tmap.mean_luminance.ravel(),
    )
