"""Sample construction and deterministic training of the threshold regressor.

Every patch of a rated image pair becomes one training sample under the
local-equals-global assumption: the patch inherits the pair's normalized
quality score as its target.  Training minimizes the mean L1 gap between
target quality and the quality predicted from (patch error E, regressed
threshold T, learned scale alpha), using Adam on all parameters including
a = log alpha.

A sample holds its record's stacked feature planes and its patch origin,
not a copy of the patch, so the patches cost 32 bytes per image pixel
whatever the stride; batches are cut from the planes as they run.

Determinism contract: all randomness (split, epoch shuffles, per-sample
dropout masks) derives from config.seed through numpy's PCG64 generator
with fixed derivation paths, so identical (records, config) reproduce the
final checkpoint bit for bit.  Derivation paths: [seed, 0] split,
[seed, 1, epoch] shuffle, [seed, 2, epoch, batch, index] dropout.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import DataError, NumericError
# augment_patch is unused here but stays bound:
# bench/tracing.py wraps training.augment_patch
from .features import PATCH_SIZE, augment_patch, feature_planes, gaussian_window, mscn_map, patch_grid
from .image_io import QualityRecord
from .quality_model import grad_wrt_threshold_scale, mean_abs_error, predict_quality, sample_loss
from .regressor import (
    _OFFSETS,
    PARAM_COUNT,
    ForwardTrace,
    PNetParams,
    _backward_batch,
    _conv_gemm,
    _flatten,
    _forward_batch,
    _head,
    _relu_pool,
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
# the largest relative gap between analytic and numeric gradients it passes
GRADCHECK_TOLERANCE = 1e-4
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
        if self.seed < 0:
            raise DataError(f"seed must be non-negative, got {self.seed}")
        if not 0.0 < self.holdout_fraction < 1.0:
            raise DataError(f"holdout_fraction must be in (0, 1), got {self.holdout_fraction}")


@dataclass(frozen=True, eq=False)
class TrainingSample:
    """A patch origin in its record's shared (4, H, W) feature planes, with error and target."""

    planes: np.ndarray
    origin: tuple[int, int]
    e: float
    q_target: float


@dataclass
class TrainReport:
    train_loss: list = field(default_factory=list)
    holdout_loss: list = field(default_factory=list)
    epoch_seconds: list = field(default_factory=list)
    final_alpha: float = 1.0
    holdout_indices: list = field(default_factory=list)

    def to_dict(self, config: TrainConfig) -> dict:
        return {
            "train_loss": self.train_loss,
            "holdout_loss": [v if v is None or math.isfinite(v) else None for v in self.holdout_loss],
            "epoch_seconds": self.epoch_seconds,
            "final_alpha": self.final_alpha,
            "holdout_indices": self.holdout_indices,
            "config": asdict(config),
        }


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


def build_samples(records: list[QualityRecord], cfg: TrainConfig) -> list[TrainingSample]:
    """Cut aligned patches, compute features on the distorted image, attach targets.

    Samples whose patch error falls below E_MIN carry no threshold
    gradient and are dropped.
    """
    window = gaussian_window()
    samples = []
    for rec in records:
        ref = rec.reference.pixels
        dist = rec.distorted.pixels
        planes = np.stack(feature_planes(mscn_map(dist, window), dist))
        for row in patch_grid(dist.shape[0], cfg.patch_stride):
            for col in patch_grid(dist.shape[1], cfg.patch_stride):
                ref_crop = ref[row : row + PATCH_SIZE, col : col + PATCH_SIZE]
                dist_crop = dist[row : row + PATCH_SIZE, col : col + PATCH_SIZE]
                e = mean_abs_error(ref_crop, dist_crop)
                if e < E_MIN:
                    continue
                samples.append(TrainingSample(planes, (row, col), e, rec.q_global))
    return samples


def adam_step(params: PNetParams, grads: PNetParams, state: AdamState, cfg: TrainConfig, t: int):
    """One Adam update with bias correction, over the flat parameter vector.

    Returns new parameters and a new state; neither argument is modified.
    The textbook expressions are evaluated in their usual order, in place
    on four fresh arrays (m, v and two scratch vectors):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        p = p - lr * (m / (1 - b1**t)) / (sqrt(v / (1 - b2**t)) + eps)
    """
    g = grads.vec
    m = np.multiply(state.m, ADAM_BETA1)
    step = np.multiply(g, 1.0 - ADAM_BETA1)
    m += step
    v = np.multiply(state.v, ADAM_BETA2)
    np.multiply(g, 1.0 - ADAM_BETA2, out=step)
    step *= g
    v += step
    denom = np.divide(v, 1.0 - ADAM_BETA2**t)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    np.divide(m, 1.0 - ADAM_BETA1**t, out=step)
    step *= cfg.learning_rate
    step /= denom
    p = np.subtract(params.vec, step, out=step)
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
    crops = []
    for i in indices:
        row, col = samples[i].origin
        crops.append(samples[i].planes[:, row : row + PATCH_SIZE, col : col + PATCH_SIZE])
    return np.stack(crops)


def predict_sample_thresholds(
    samples: list[TrainingSample], params: PNetParams, indices, ws: dict | None = None
) -> np.ndarray:
    """Eval-mode thresholds for the samples at the given indices."""
    indices = list(indices)
    out = np.empty(len(indices))
    if ws is None:
        ws = {}
    for start in range(0, len(indices), PREDICT_CHUNK):
        batch = indices[start : start + PREDICT_CHUNK]
        trace = _forward_batch(_stack_patches(samples, batch), params, None, ws=ws)
        out[start : start + len(batch)] = trace.t
    return out


def _mean_holdout_loss(samples, indices, params, alpha, ws) -> float | None:
    if not indices:
        return None
    thresholds = predict_sample_thresholds(samples, params, indices, ws=ws)
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
            grads = _backward_batch(trace, params, dl_dt)
            grads.a = dl_da
            step += 1
            params, state = adam_step(params, grads, state, cfg, step)
            epoch_loss += batch_loss
        report.train_loss.append(epoch_loss / len(order))
        report.holdout_loss.append(
            _mean_holdout_loss(samples, holdout_idx, params, math.exp(params.a), ws=ws)
        )
        report.epoch_seconds.append(time.perf_counter() - tic)
    report.final_alpha = math.exp(params.a)
    return params, report


def _activation_pattern(trace, q_hat: float, q_target: float, stage: int = 0) -> list:
    """The branches the loss takes at network stage `stage` and after.

    Stages are 0 conv1 block, 1 conv2 block, 2 fully connected head.  The
    list runs back from the loss: the L1 sign, the fc1 ReLU mask, then each
    conv block's pooled live mask and pool argmax down to `stage` -- the
    branches the backward takes, so a conv output that is not its window's
    argmax may cross zero without a kink.  A later stage's pattern is a
    prefix of an earlier one's.
    """
    pattern = [q_hat > q_target, trace.fc1_pre > 0.0]
    if stage < 2:
        pattern += [trace.pooled2 > 0.0, trace.idx2]
    if stage < 1:
        pattern += [trace.pooled1 > 0.0, trace.idx1]
    return pattern


def _stage_of(index: int) -> int:
    """The first network stage parameter `index` feeds (see _activation_pattern).

    fc1, fc2 and the log-scale a count as the head; a feeds no stage.
    """
    return int(index >= _OFFSETS[2]) + int(index >= _OFFSETS[4])  # conv2_w, fc1_w start


def _resume(base: ForwardTrace, patch: np.ndarray, params: PNetParams, stage: int) -> ForwardTrace:
    """Eval-mode forward of patch under params, re-running stages `stage` on.

    base is the eval-mode trace of the same patch under parameters that
    differ from params only in blocks feeding stage `stage` or later; its
    earlier stages are reused as they are.  Every stage runs the functions
    forward runs, on the same arrays, so the result == forward(patch,
    params) bit for bit.  Stage 0 is the full forward.
    """
    if stage == 0:
        return forward(patch, params)
    trace = base
    if stage == 1:
        # conv2's input is unchanged, so base.cols2 is its im2col as is
        pooled2, idx2 = _relu_pool(_conv_gemm(base.cols2, params.conv2_w, params.conv2_b, (10, 10, 1)))
        trace = replace(base, idx2=idx2, pooled2=pooled2, flat=_flatten(pooled2))
    fc1_pre, dropped, z, t = _head(trace.flat, params, None)
    return replace(trace, fc1_pre=fc1_pre, dropped=dropped, z=z, t=t)


def gradcheck(
    seed: int = 1,
    n_coords: int = 200,
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

    The unperturbed forward runs once.  A difference re-runs only the
    stages downstream of its coordinate's block (_resume): the full
    forward for conv1, conv2's GEMM on the base im2col onwards for conv2,
    the fully connected head for the rest; each loss == the full forward's.
    """
    if seed < 0:
        raise DataError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    params = init_params(seed)
    params.a = float(rng.normal(0.0, 0.3))
    lum = rng.uniform(0.0, 1.0, (PATCH_SIZE, PATCH_SIZE))
    patch = np.stack(
        [
            lum,
            rng.uniform(0.0, 1.0, (PATCH_SIZE, PATCH_SIZE)),
            rng.uniform(0.0, 0.05, (PATCH_SIZE, PATCH_SIZE)),
            rng.normal(0.0, 1.0, (PATCH_SIZE, PATCH_SIZE)),
        ]
    )
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

    def loss_at(stage: int) -> tuple[float, bool]:
        """Loss at the current params, and whether the re-run stages take
        the base branch (map stops at the shorter, re-run pattern)."""
        resumed = _resume(trace, patch, params, stage)
        q_hat = predict_quality(e, resumed.threshold, math.exp(params.a)).q_hat
        pattern = _activation_pattern(resumed, q_hat, q_target, stage)
        return sample_loss(q_target, q_hat)[0], all(map(np.array_equal, pattern, base_pattern))

    coords = set(rng.choice(PARAM_COUNT, size=n_coords, replace=False).tolist())
    coords.update({PARAM_COUNT - 2, PARAM_COUNT - 1})  # fc2 bias and log-scale
    if corrupt_index is not None:
        coords.add(corrupt_index)
    vec = params.vec
    max_rel, refined, stable_all = 0.0, 0, True
    for c in sorted(coords):
        saved, step = vec[c], GRADCHECK_H
        stage = _stage_of(c)
        while True:
            vec[c] = saved + step
            loss_plus, stable_plus = loss_at(stage)
            vec[c] = saved - step
            loss_minus, stable_minus = loss_at(stage)
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
        passed=bool(max_rel < GRADCHECK_TOLERANCE and stable_all),
        refined=refined,
    )
