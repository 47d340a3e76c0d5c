"""Maps per-patch error and a visibility threshold to a local quality score.

The predicted quality of a patch with mean absolute error E, threshold T,
and global scale alpha is ``q_hat = 1 - exp(-alpha * E / T)``, a
saturating detection-style curve: q_hat = 0 iff E = 0, and q_hat -> 1 as
E/T grows.  The paper writes the exponent out, ``(alpha * E / T)**beta``,
and sets beta = 1.  alpha is learned in log-space (a = log alpha) so it
stays positive.  The per-sample training loss is L1 on (q_target, q_hat).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError

T_MIN = 1e-3  # floor applied to every predicted threshold


@dataclass(frozen=True)
class QualityPrediction:
    """Predicted local quality plus its derivatives w.r.t. T and alpha."""

    q_hat: float
    dq_dt: float
    dq_dalpha: float


def predict_quality(e: float, t: float, alpha: float) -> QualityPrediction:
    """Evaluate q_hat = 1 - exp(-alpha*E/T) and its T/alpha derivatives.

    The derivative identities used, with u = alpha*E/T:

        dq/dT     = -(u / T)     * exp(-u)
        dq/dalpha =  (u / alpha) * exp(-u)

    Both vanish at E = 0, so error-free patches contribute no gradient.
    """
    if e < 0 or not math.isfinite(e):
        raise DataError(f"error must be finite and >= 0, got {e}")
    if t < T_MIN:
        raise DataError(f"threshold must be >= {T_MIN}, got {t}")
    if alpha <= 0:
        raise DataError(f"alpha must be positive, got {alpha}")
    u = alpha * e / t
    decay = math.exp(-u)
    q_hat = 1.0 - decay
    dq_dt = -(u / t) * decay
    dq_dalpha = (u / alpha) * decay
    return QualityPrediction(q_hat=q_hat, dq_dt=dq_dt, dq_dalpha=dq_dalpha)


def sample_loss(q_target: float, q_hat: float) -> tuple[float, float]:
    """L1 loss |q_target - q_hat| and its subgradient w.r.t. q_hat (0 at the kink)."""
    diff = q_hat - q_target
    return abs(diff), float(np.sign(diff))


def grad_wrt_threshold_scale(
    e: float, t: float, alpha: float, q_target: float
) -> tuple[float, float, float]:
    """Loss and its gradients w.r.t. the threshold T and a = log(alpha).

    Returns (loss, dL_dT, dL_da).  dL_dT feeds the regressor's backward
    pass; dL_da accumulates into the global log-scale parameter (chain
    rule: dL/da = dL/dalpha * alpha).
    """
    pred = predict_quality(e, t, alpha)
    loss, dl_dq = sample_loss(q_target, pred.q_hat)
    return loss, dl_dq * pred.dq_dt, dl_dq * pred.dq_dalpha * alpha
