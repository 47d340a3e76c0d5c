"""Sample construction and deterministic training of the threshold regressor.

Every patch of a rated image pair becomes one training sample under the
local-equals-global assumption: the patch inherits the pair's normalized
quality score as its target.  Training minimizes the mean L1 gap between
target quality and the quality predicted from (patch error E, regressed
threshold T, learned scale alpha), using Adam on all parameters including
a = log alpha.

Determinism contract: all randomness (split, epoch shuffles, per-sample
dropout masks) derives from config.seed through numpy's PCG64 generator
with fixed derivation paths, so identical (records, config) reproduce the
final checkpoint bit for bit.  Derivation paths: [seed, 0] split,
[seed, 1, epoch] shuffle, [seed, 2, epoch, batch, index] dropout.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DataError, NumericError
from .features import AugmentedPatch, augment_patch, gaussian_window, mscn_map
from .image_io import QualityRecord
from .quality_model import grad_wrt_threshold_scale, mean_abs_error, predict_quality, sample_loss
from .regressor import (
    PARAM_COUNT,
    PATCH_SIZE,
    PNetParams,
    _backward_batch,
    _forward_batch,
    backward,
    dropout_mask,
    forward,
    init_params,
)


# samples per eval-mode forward in predict_sample_thresholds: the default
# training batch size, so the holdout pass needs no more im2col scratch
# than a training step (the thresholds do not depend on it)
PREDICT_CHUNK = 32
# gradcheck's central-difference step, and the smallest step it shrinks
# to near a kink
GRADCHECK_H = 1e-6
KINK_H_FLOOR = 1e-10
# Adam's standard constants (Kingma and Ba, arXiv 1412.6980)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# samples with a smaller patch error carry no threshold gradient
E_MIN = 1e-6


@dataclass(frozen=True)
class TrainConfig:
    # learning_rate and batch_size were calibrated on the synthetic-oracle
    # experiment: smaller/slower settings stall at the constant-threshold
    # solution within a 30-epoch budget
    patch_stride: int = 16
    batch_size: int = 32
    epochs: int = 30
    learning_rate: float = 3e-3
    seed: int = 0
    holdout_fraction: float = 0.2

    def __post_init__(self):
        if min(self.patch_stride, self.batch_size, self.epochs) < 1:
            raise DataError("patch_stride, batch_size and epochs must be positive")
        if self.learning_rate <= 0:
            raise DataError("learning_rate must be positive")
        if not 0.0 < self.holdout_fraction < 1.0:
            raise DataError(f"holdout_fraction must be in (0, 1), got {self.holdout_fraction}")


@dataclass(frozen=True, eq=False)
class TrainingSample:
    """One (augmented patch, patch error, quality target) triple."""

    patch: AugmentedPatch
    e: float
    q_target: float
    group: int  # index of the source record, to join a sample back to it


@dataclass
class TrainReport:
    train_loss: list = field(default_factory=list)
    holdout_loss: list = field(default_factory=list)
    epoch_seconds: list = field(default_factory=list)
    final_alpha: float = 1.0
    holdout_indices: list = field(default_factory=list)

    def to_dict(self, config: TrainConfig | None = None) -> dict:
        out = {
            "train_loss": self.train_loss,
            "holdout_loss": [v if v is None or math.isfinite(v) else None for v in self.holdout_loss],
            "epoch_seconds": self.epoch_seconds,
            "final_alpha": self.final_alpha,
            "holdout_indices": self.holdout_indices,
        }
        if config is not None:
            out["config"] = asdict(config)
            out["seed"] = config.seed
        return out


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray

    @classmethod
    def zeros(cls):
        return cls(m=np.zeros(PARAM_COUNT), v=np.zeros(PARAM_COUNT))


@dataclass(frozen=True)
class GradCheckReport:
    seed: int
    n_coords: int
    max_rel_error: float
    passed: bool
    refined: int = 0  # coordinates whose step was shrunk off an activation kink


def patch_grid(length: int, stride: int, patch: int = PATCH_SIZE) -> list[int]:
    """Stride-grid origins anchored at 0, last origin shifted to touch the border."""
    if length < patch:
        raise DataError(f"image extent {length} smaller than patch size {patch}")
    origins = list(range(0, length - patch + 1, stride))
    if origins[-1] != length - patch:
        origins.append(length - patch)
    return origins


def build_samples(records: list[QualityRecord], cfg: TrainConfig) -> list[TrainingSample]:
    """Cut aligned patches, compute features on the distorted image, attach targets.

    Samples whose patch error falls below E_MIN carry no threshold
    gradient and are dropped.
    """
    window = gaussian_window()
    samples = []
    for group, rec in enumerate(records):
        ref = rec.reference.pixels
        dist = rec.distorted.pixels
        maps = mscn_map(dist, window)
        for row in patch_grid(dist.shape[0], cfg.patch_stride):
            for col in patch_grid(dist.shape[1], cfg.patch_stride):
                ref_crop = ref[row : row + PATCH_SIZE, col : col + PATCH_SIZE]
                dist_crop = dist[row : row + PATCH_SIZE, col : col + PATCH_SIZE]
                e = mean_abs_error(ref_crop, dist_crop)
                if e < E_MIN:
                    continue
                patch = augment_patch(maps, dist, (row, col), PATCH_SIZE)
                samples.append(TrainingSample(patch=patch, e=e, q_target=rec.q_global, group=group))
    return samples


def adam_step(params: PNetParams, grads: PNetParams, state: AdamState, cfg: TrainConfig, t: int):
    """One Adam update with bias correction, over the flat parameter vector."""
    g = grads.vec
    m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * g
    v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * g * g
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    p = params.vec - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    if not np.all(np.isfinite(p)):
        raise NumericError(f"Adam step {t} produced non-finite parameters")
    return PNetParams(p), AdamState(m=m, v=v)


def split_indices(samples: list[TrainingSample], cfg: TrainConfig) -> tuple[list[int], list[int]]:
    """Disjoint (train, holdout) index sets from a seeded shuffle."""
    n = len(samples)
    order = np.random.default_rng([cfg.seed, 0]).permutation(n)
    holdout = sorted(int(i) for i in order[: int(round(n * cfg.holdout_fraction))])
    hold_set = set(holdout)
    train = [i for i in range(n) if i not in hold_set]
    if not train:
        raise DataError("holdout fraction leaves no training samples")
    return train, holdout


def _stack_patches(samples: list[TrainingSample], indices) -> np.ndarray:
    return np.stack([samples[i].patch.channels for i in indices])


def predict_sample_thresholds(
    samples: list[TrainingSample], params: PNetParams, indices=None
) -> np.ndarray:
    """Eval-mode thresholds for the given samples (all of them by default)."""
    if indices is None:
        indices = range(len(samples))
    indices = list(indices)
    out = np.empty(len(indices))
    ws: dict = {}
    for start in range(0, len(indices), PREDICT_CHUNK):
        batch = indices[start : start + PREDICT_CHUNK]
        trace = _forward_batch(_stack_patches(samples, batch), params, None, ws=ws)
        out[start : start + len(batch)] = trace.t
    return out


def _mean_holdout_loss(samples, indices, params, alpha) -> float | None:
    if not indices:
        return None
    thresholds = predict_sample_thresholds(samples, params, indices)
    total = 0.0
    for t, i in zip(thresholds, indices):
        q_hat = predict_quality(samples[i].e, float(t), alpha).q_hat
        total += abs(samples[i].q_target - q_hat)
    return total / len(indices)


def train(records: list[QualityRecord], cfg: TrainConfig) -> tuple[PNetParams, TrainReport]:
    """Optimize regressor parameters and the global scale against quality targets."""
    if not records:
        raise DataError("no records to train on")
    samples = build_samples(records, cfg)
    if not samples:
        raise DataError("no training samples left after the minimum-error filter")
    train_idx, holdout_idx = split_indices(samples, cfg)

    params = init_params(cfg.seed)
    state = AdamState.zeros()
    report = TrainReport(holdout_indices=list(holdout_idx))
    step = 0
    ws: dict = {}  # scratch buffers reused across batches
    for epoch in range(cfg.epochs):
        tic = time.perf_counter()
        order = np.random.default_rng([cfg.seed, 1, epoch]).permutation(len(train_idx))
        epoch_loss = 0.0
        for batch_no, start in enumerate(range(0, len(order), cfg.batch_size)):
            batch = [train_idx[i] for i in order[start : start + cfg.batch_size]]
            b = len(batch)
            masks = np.concatenate(
                [dropout_mask([cfg.seed, 2, epoch, batch_no, i]) for i in range(b)]
            )
            trace = _forward_batch(_stack_patches(samples, batch), params, masks, ws=ws)
            alpha = math.exp(params.a)
            dl_dt = np.zeros(b)
            dl_da = 0.0
            batch_loss = 0.0
            for i, idx in enumerate(batch):
                s = samples[idx]
                loss, g_t, g_a = grad_wrt_threshold_scale(s.e, float(trace.t[i]), alpha, s.q_target)
                batch_loss += loss
                dl_dt[i] = g_t / b
                dl_da += g_a / b
            if not math.isfinite(batch_loss):
                raise NumericError(f"non-finite loss at epoch {epoch}, batch {batch_no}")
            grads = _backward_batch(trace, params, dl_dt, ws=ws)
            grads.a = dl_da
            step += 1
            params, state = adam_step(params, grads, state, cfg, step)
            epoch_loss += batch_loss
        report.train_loss.append(epoch_loss / len(order))
        report.holdout_loss.append(
            _mean_holdout_loss(samples, holdout_idx, params, math.exp(params.a))
        )
        report.epoch_seconds.append(time.perf_counter() - tic)
    report.final_alpha = math.exp(params.a)
    return params, report


def _activation_pattern(trace, q_hat: float, q_target: float) -> tuple:
    """Every branch the loss takes: ReLU masks, pool argmaxes, the L1 sign."""
    return (
        trace.pre1 > 0.0, trace.idx1, trace.pre2 > 0.0, trace.idx2,
        trace.fc1_pre > 0.0, q_hat > q_target,
    )


def gradcheck(
    seed: int = 1,
    n_coords: int = 200,
    tolerance: float = 1e-4,
    corrupt_index: int | None = None,
) -> GradCheckReport:
    """Compare analytic full-pipeline gradients against central differences.

    Builds a random parameter vector, patch, error and target from the seed,
    then differentiates loss = |q_target - q_hat(T(patch), E, alpha)| both
    analytically (backward pass + quality-model chain rule) and numerically
    on n_coords randomly chosen parameter coordinates (the scalar head bias
    and the log-scale are always included).  corrupt_index, if given,
    doubles that analytic coordinate first; it exists so tests can prove
    the checker detects broken gradients.

    The loss is piecewise smooth: ReLU, max-pool and the L1 gap have kinks.
    A difference whose +-h points take another branch than the unperturbed
    point (another activation pattern) measures the kink, not the gradient,
    so its step h = GRADCHECK_H is divided by 10 until both patterns
    match, down to KINK_H_FLOOR; `refined` counts those coordinates.  A
    coordinate still straddling a kink at the floor keeps its estimate and
    fails the check.
    """
    rng = np.random.default_rng(seed)
    params = init_params(seed)
    params.a = float(rng.normal(0.0, 0.3))
    lum = rng.uniform(0.0, 1.0, (PATCH_SIZE, PATCH_SIZE))
    channels = np.stack(
        [
            lum,
            rng.uniform(0.0, 1.0, (PATCH_SIZE, PATCH_SIZE)),
            rng.uniform(0.0, 0.05, (PATCH_SIZE, PATCH_SIZE)),
            rng.normal(0.0, 1.0, (PATCH_SIZE, PATCH_SIZE)),
        ]
    )
    patch = AugmentedPatch(origin=(0, 0), size=PATCH_SIZE, channels=channels)
    e = float(rng.uniform(0.005, 0.2))
    q_target = float(rng.uniform(0.0, 1.0))

    trace = forward(patch, params)
    alpha = math.exp(params.a)
    _, dl_dt, dl_da = grad_wrt_threshold_scale(e, trace.threshold, alpha, q_target)
    grads = backward(trace, params, dl_dt)
    grads.a = dl_da
    gvec = grads.vec
    if corrupt_index is not None:
        gvec[corrupt_index] *= 2.0
    q_hat = predict_quality(e, trace.threshold, alpha).q_hat
    base_pattern = _activation_pattern(trace, q_hat, q_target)

    def loss_at() -> tuple[float, bool]:
        """Loss at the current params, and whether it is on the base branch."""
        trace = forward(patch, params)
        q_hat = predict_quality(e, trace.threshold, math.exp(params.a)).q_hat
        pattern = _activation_pattern(trace, q_hat, q_target)
        return sample_loss(q_target, q_hat)[0], all(map(np.array_equal, pattern, base_pattern))

    coords = set(rng.choice(PARAM_COUNT, size=n_coords, replace=False).tolist())
    coords.update({PARAM_COUNT - 2, PARAM_COUNT - 1})  # fc2 bias and log-scale
    if corrupt_index is not None:
        coords.add(corrupt_index)
    vec = params.vec
    max_rel, refined, stable_all = 0.0, 0, True
    for c in sorted(coords):
        saved, step = vec[c], GRADCHECK_H
        while True:
            vec[c] = saved + step
            loss_plus, stable_plus = loss_at()
            vec[c] = saved - step
            loss_minus, stable_minus = loss_at()
            vec[c] = saved
            stable = stable_plus and stable_minus
            if stable or step <= KINK_H_FLOOR:
                break
            step = max(step / 10.0, KINK_H_FLOOR)
        refined += step != GRADCHECK_H
        stable_all &= stable
        numeric = (loss_plus - loss_minus) / (2.0 * step)
        rel = abs(gvec[c] - numeric) / max(abs(gvec[c]), abs(numeric), 1e-5)
        max_rel = max(max_rel, rel)
    return GradCheckReport(
        seed=seed,
        n_coords=len(coords),
        max_rel_error=float(max_rel),
        passed=bool(max_rel < tolerance and stable_all),
        refined=refined,
    )
