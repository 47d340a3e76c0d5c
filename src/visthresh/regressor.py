"""Convolutional threshold regressor: forward, exact backward, checkpoints.

Fixed architecture, float64 throughout.  A 4-channel 32x32 augmented patch
runs through two valid 5x5 conv + relu + 2x2 max-pool blocks (32 filters
each), a 100-node fully connected layer with relu and inverted dropout
(train mode only), and a scalar head; the visibility threshold is
``softplus(z) + T_MIN`` so it is always positive.  Shapes along the way:
4x32x32 -> 32x28x28 -> 32x14x14 -> 32x10x10 -> 32x5x5 -> 800 -> 100 -> 1.

Gradients are computed by hand with reverse-mode chain rule; pooling routes
the gradient to the argmax (first index wins ties, row-major within the
2x2 window).  Each conv block's relu mask is applied to the pooled
gradient, ``pooled > 0``, before it is routed: at the argmax that is
``pre > 0``, and every other element gets ``dpool * 0`` either way, so the
bits are those of masking the full-size gradient.  The trace therefore
keeps no conv output, and the relu runs in place on the GEMM result.
conv2's input gradient is one GEMM per kernel offset, each added into dx
as soon as it is made.
The global log-scale parameter ``a`` rides along with the network
parameters but its gradient comes from the quality model.

Threshold maps use an eval-only strip pass instead (lattice_thresholds):
the convolutions and pools walk one row strip x column strip of a
feature image top to bottom in bands that carry the rows the next band
reads, and every patch whose origin is a multiple of 4 reads its pool-2
output from them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .features import PATCH_SIZE
from .quality_model import T_MIN

IN_CHANNELS = 4
CONV1_FILTERS = 32
CONV2_FILTERS = 32
KERNEL_SIZE = 5
FC1_NODES = 100
FLAT_SIZE = CONV2_FILTERS * 5 * 5  # 800 after the second pool
DROPOUT_RATE = 0.5
STRIP_ROWS = 4  # conv1 output rows per im2col GEMM of a strip pass
BAND_ROWS = 4  # lattice rows per band of a strip pass (lattice_thresholds)
LATTICE = 4  # origin spacing at which patches share conv outputs (two 2x2 pools)

CHECKPOINT_MAGIC = b"VTH1"
_ARCH = (PATCH_SIZE, IN_CHANNELS, CONV1_FILTERS, CONV2_FILTERS, KERNEL_SIZE, FC1_NODES)

_SHAPES = (
    ("conv1_w", (CONV1_FILTERS, IN_CHANNELS, KERNEL_SIZE, KERNEL_SIZE)),
    ("conv1_b", (CONV1_FILTERS,)),
    ("conv2_w", (CONV2_FILTERS, CONV1_FILTERS, KERNEL_SIZE, KERNEL_SIZE)),
    ("conv2_b", (CONV2_FILTERS,)),
    ("fc1_w", (FC1_NODES, FLAT_SIZE)),
    ("fc1_b", (FC1_NODES,)),
    ("fc2_w", (FC1_NODES,)),
    ("fc2_b", ()),
    ("a", ()),
)
_OFFSETS = [0, *itertools.accumulate(math.prod(shape) for _, shape in _SHAPES)]
PARAM_COUNT = _OFFSETS[-1]


class PNetParams:
    """All learnable parameters (or their gradients), including the log-scale a.

    One float64 vector ``vec`` in checkpoint order; each ``_SHAPES`` name is
    a property that reads a reshaped view (a float for ``fc2_b`` and ``a``)
    and writes into ``vec``.  ``PNetParams()`` is all zeros.
    """

    __slots__ = ("vec",)

    def __init__(self, vec: np.ndarray | None = None):
        self.vec = np.zeros(PARAM_COUNT) if vec is None else vec

    @classmethod
    def from_vector(cls, vec: np.ndarray) -> PNetParams:
        """Checked copy of an outside vector (size and finiteness)."""
        vec = np.array(vec, dtype=np.float64)
        if vec.shape != (PARAM_COUNT,):
            raise DataError(f"parameter vector has {vec.size} entries, expected {PARAM_COUNT}")
        if not np.all(np.isfinite(vec)):
            raise DataError("parameter vector contains non-finite values")
        return cls(vec)


def _field(start: int, shape: tuple) -> property:
    stop = start + math.prod(shape)

    def get(self):
        return float(self.vec[start]) if shape == () else self.vec[start:stop].reshape(shape)

    def put(self, value):
        self.vec[start:stop].reshape(shape)[...] = value

    return property(get, put)


for (_name, _shape), _start in zip(_SHAPES, _OFFSETS):
    setattr(PNetParams, _name, _field(_start, _shape))


@dataclass(eq=False)
class ForwardTrace:
    """Everything the backward pass needs, and no more.

    Convolutional stages are stored batch-last, (channels, H, W, B), so
    the im2col copies run along long contiguous spans; fully connected
    stages are batch-outer.  The backward branches on pooled1 > 0, idx1,
    pooled2 > 0, idx2 and fc1_pre > 0, and nothing else; gradcheck's
    activation patterns compare the same arrays.
    """

    cols1: np.ndarray        # conv1 im2col, (100, 28*28*B)
    idx1: np.ndarray         # pool-1 argmax, (32, 14, 14, B)
    pooled1: np.ndarray      # pool-1 output, conv2's input, (32, 14, 14, B)
    cols2: np.ndarray        # conv2 im2col, (800, 10*10*B)
    idx2: np.ndarray         # pool-2 argmax, (32, 5, 5, B)
    pooled2: np.ndarray      # pool-2 output, (32, 5, 5, B)
    flat: np.ndarray         # (B, 800)
    fc1_pre: np.ndarray      # (B, 100)
    dropout_mask: np.ndarray | None  # (B, 100) inverted-scaled mask, None in eval
    dropped: np.ndarray      # fc1 output after relu (+ dropout), (B, 100)
    z: np.ndarray            # (B,)
    t: np.ndarray            # (B,) thresholds, >= T_MIN

    @property
    def threshold(self) -> float:
        """Scalar threshold for single-patch traces."""
        return float(self.t[0])


def init_params(seed: int) -> PNetParams:
    """He-style init: N(0, sqrt(2/fan_in)) weights, zero biases, a = 0."""
    rng = np.random.default_rng(seed)

    def he(shape, fan_in):
        return rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)

    params = PNetParams()
    params.conv1_w = he(_SHAPES[0][1], IN_CHANNELS * KERNEL_SIZE**2)
    params.conv2_w = he(_SHAPES[2][1], CONV1_FILTERS * KERNEL_SIZE**2)
    params.fc1_w = he(_SHAPES[4][1], FLAT_SIZE)
    params.fc2_w = he(_SHAPES[6][1], FC1_NODES)
    return params


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _ws_buffer(ws: dict | None, key: str, shape: tuple) -> np.ndarray:
    """Reusable scratch buffer so repeated batches skip large-allocation
    page faults (glibc never heap-caches blocks this size)."""
    if ws is None:
        return np.empty(shape)
    buf = ws.get(key)
    if buf is None or buf.shape != shape:
        buf = np.empty(shape)
        ws[key] = buf
    return buf


def _im2col(x, ws=None, tag=""):
    """im2col matrix (C*K*K, OH*OW*B) of batch-last input (C, H, W, B), K = KERNEL_SIZE.

    The (c, u, v) row order matches the C-order ravel of (F, C, K, K)
    filters; each kernel-offset copy spans OW*B contiguous values at a time.
    """
    k = KERNEL_SIZE
    c, h, w_, batch = x.shape
    oh, ow = h - k + 1, w_ - k + 1
    x3 = x.reshape(c, h, w_ * batch)
    cols = _ws_buffer(ws, tag + "cols", (c, k, k, oh, ow * batch))
    for u in range(k):
        for v in range(k):
            cols[:, u, v] = x3[:, u : u + oh, v * batch : (v + ow) * batch]
    return cols.reshape(c * k * k, oh * ow * batch)


def _conv_gemm(cols, w, b, out_shape):
    """The convolution of an _im2col matrix: (F, OH, OW, B) for out_shape (OH, OW, B)."""
    out = w.reshape(w.shape[0], -1) @ cols
    out += b[:, None]
    return out.reshape(w.shape[0], *out_shape)


def _conv_backward(delta, cols, w, x_shape=None):
    """Weight, bias and (for an input of shape x_shape) input gradients of _conv_gemm.

    The input gradient is one GEMM per kernel offset (u, v) into a single
    (C, OH, OW*B) buffer, added into dx right away, so the (C*K*K, OH*OW*B)
    matrix of all offsets is never held.
    """
    f, oh, ow, batch = delta.shape
    dmat = delta.reshape(f, oh * ow * batch)
    dw = (dmat @ cols.T).reshape(w.shape)
    db = dmat.sum(axis=1)
    if x_shape is None:
        return dw, db, None
    c, h, w_, _ = x_shape
    k = w.shape[-1]
    # contiguous (F, C) blocks per offset: the GEMMs on strided
    # w[:, :, u, v] slices took 1.4x as long at batch 32
    w_uv = np.ascontiguousarray(w.transpose(2, 3, 0, 1))
    dwin = np.empty((c, oh, ow * batch))
    dx3 = np.zeros((c, h, w_ * batch))
    for u in range(k):
        for v in range(k):
            np.matmul(w_uv[u, v].T, dmat, out=dwin.reshape(c, oh * ow * batch))
            dx3[:, u : u + oh, v * batch : (v + ow) * batch] += dwin
    return dw, db, dx3.reshape(x_shape)


def _pool2(x):
    """2x2 max pool, stride 2, over the H, W axes of (C, H, W, B).

    idx holds the row-major argmax within each window, encoded 0..3 as
    (0,0), (0,1), (1,0), (1,1); the first index wins ties.
    """
    x00 = x[:, 0::2, 0::2]
    x01 = x[:, 0::2, 1::2]
    x10 = x[:, 1::2, 0::2]
    x11 = x[:, 1::2, 1::2]
    # strict > keeps the first index on ties; the bool masks viewed as int8
    # are the index bits, so no wider integer temporary is built
    ltop = x01 > x00
    lbot = x11 > x10
    vtop = np.maximum(x00, x01)
    vbot = np.maximum(x10, x11)
    bot = vbot > vtop
    return np.where(bot, vbot, vtop), np.where(bot, lbot.view(np.int8) + 2, ltop.view(np.int8))


def _pool2_values(x, out=None):
    """Values of _pool2 without the argmax, for eval-only passes."""
    top = np.maximum(x[:, 0::2, 0::2], x[:, 0::2, 1::2])
    return np.maximum(top, np.maximum(x[:, 1::2, 0::2], x[:, 1::2, 1::2]), out=out)


def _pool2_backward(dpool, idx):
    """Route dpool to each 2x2 window's argmax; the others get dpool * 0.

    dx is twice dpool in H and W, so the four quadrant products write every
    element of it exactly once and it needs no zeroing.
    """
    c, h, w_, batch = dpool.shape
    dx = np.empty((c, 2 * h, 2 * w_, batch))
    for q, (r, s) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        np.multiply(dpool, idx == q, out=dx[:, r::2, s::2])
    return dx


def dropout_mask(seed) -> np.ndarray:
    """One sample's (1, FC1_NODES) inverted-dropout mask: kept units scaled by 1/(1-rate)."""
    rng = np.random.default_rng(seed)
    keep = rng.random((1, FC1_NODES)) >= DROPOUT_RATE
    return keep / (1.0 - DROPOUT_RATE)


def _head(flat: np.ndarray, params: PNetParams, masks: np.ndarray | None):
    """fc1 -> relu (-> dropout) -> scalar head -> threshold on (B, 800) rows.

    Returns (fc1_pre, dropped, z, t), the fully connected stages of a trace.
    """
    fc1_pre = flat @ params.fc1_w.T + params.fc1_b
    fc1_out = np.maximum(fc1_pre, 0.0)
    dropped = fc1_out * masks if masks is not None else fc1_out
    z = dropped @ params.fc2_w + params.fc2_b
    t = np.logaddexp(0.0, z) + T_MIN  # overflow-safe softplus
    return fc1_pre, dropped, z, t


def _relu_pool(pre):
    """relu -> 2x2 max-pool of a conv output: (pooled, idx) as _pool2 returns.

    The relu overwrites pre, which is dead afterwards; both results are
    fresh arrays.
    """
    return _pool2(np.maximum(pre, 0.0, out=pre))


def _flatten(pooled2: np.ndarray) -> np.ndarray:
    """Batch-last (32, 5, 5, B) pool-2 output -> (B, 800) fc1 input rows."""
    return pooled2.transpose(3, 0, 1, 2).reshape(pooled2.shape[-1], FLAT_SIZE)


def _forward_batch(
    x: np.ndarray, params: PNetParams, masks: np.ndarray | None, ws: dict | None = None
) -> ForwardTrace:
    batch = x.shape[0]
    xl = np.ascontiguousarray(x.transpose(1, 2, 3, 0))  # batch-last
    cols1 = _im2col(xl, ws, "c1.")
    pooled1, idx1 = _relu_pool(_conv_gemm(cols1, params.conv1_w, params.conv1_b, (28, 28, batch)))
    cols2 = _im2col(pooled1, ws, "c2.")
    pooled2, idx2 = _relu_pool(_conv_gemm(cols2, params.conv2_w, params.conv2_b, (10, 10, batch)))
    flat = _flatten(pooled2)
    fc1_pre, dropped, z, t = _head(flat, params, masks)
    return ForwardTrace(
        cols1=cols1, idx1=idx1, pooled1=pooled1, cols2=cols2, idx2=idx2, pooled2=pooled2,
        flat=flat, fc1_pre=fc1_pre, dropout_mask=masks, dropped=dropped, z=z, t=t,
    )


def _backward_batch(trace: ForwardTrace, params: PNetParams, dl_dt: np.ndarray) -> PNetParams:
    batch = trace.z.shape[0]
    dz = dl_dt * _sigmoid(trace.z)
    g = PNetParams()
    g.fc2_w = trace.dropped.T @ dz
    g.fc2_b = float(dz.sum())
    ddropped = dz[:, None] * params.fc2_w[None, :]
    dfc1_out = ddropped * trace.dropout_mask if trace.dropout_mask is not None else ddropped
    dfc1_pre = dfc1_out * (trace.fc1_pre > 0.0)
    g.fc1_w = dfc1_pre.T @ trace.flat
    g.fc1_b = dfc1_pre.sum(axis=0)
    dflat = dfc1_pre @ params.fc1_w
    # relu masks act on the pooled gradients (see the module docstring)
    dpooled2 = dflat.reshape(batch, CONV2_FILTERS, 5, 5).transpose(1, 2, 3, 0)
    dpre2 = _pool2_backward(dpooled2 * (trace.pooled2 > 0.0), trace.idx2)
    g.conv2_w, g.conv2_b, dpooled1 = _conv_backward(
        dpre2, trace.cols2, params.conv2_w, trace.pooled1.shape
    )
    dpooled1 *= trace.pooled1 > 0.0
    dpre1 = _pool2_backward(dpooled1, trace.idx1)
    g.conv1_w, g.conv1_b, _ = _conv_backward(dpre1, trace.cols1, params.conv1_w)
    return g


def _as_batch(patch) -> np.ndarray:
    x = np.asarray(patch, dtype=np.float64)
    if x.shape != (IN_CHANNELS, PATCH_SIZE, PATCH_SIZE):
        raise DataError(f"patch must have shape (4, 32, 32), got {x.shape}")
    return x[None]


def forward(patch, params: PNetParams) -> ForwardTrace:
    """Run one augmented patch through the network in eval mode.

    Eval mode uses no dropout, so the trace is a pure function of
    (patch, params).
    """
    return _forward_batch(_as_batch(patch), params, None)


def backward(trace: ForwardTrace, params: PNetParams, dl_dt: float) -> PNetParams:
    """Exact gradients of a scalar loss w.r.t. every parameter, given dL/dT.

    The gradient of the log-scale a is owned by the quality model and left
    at zero here; callers merge it.
    """
    if trace.z.shape[0] != 1:
        raise DataError("backward expects a single-patch trace")
    return _backward_batch(trace, params, np.array([dl_dt], dtype=np.float64))


def _conv_shifted(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Valid convolution of one (C, H, W) map as one GEMM per kernel offset.

    On the row-flattened map, the input of output pixel (y, x) at offset
    (u, v) sits u * W + v further on, so each offset is a single shifted
    (C, n) slice and no im2col copy is made.  The last K - 1 values of each
    output row wrap into the next input row and are cut off.  n is rounded
    up to a multiple of 8, reading zeros past the map: BLAS libraries such
    as OpenBLAS make the last n % 8 columns of a GEMM with narrower kernels
    whose last bits differ, so only then are an output's bits independent
    of the map's height.
    """
    c, h, w_ = x.shape
    f, _, k, _ = w.shape
    oh, ow = h - k + 1, w_ - k + 1
    n = -(-((oh - 1) * w_ + ow) // 8) * 8
    flat = np.empty((c, (k - 1) * (w_ + 1) + n))
    flat[:, : h * w_] = x.reshape(c, h * w_)
    flat[:, h * w_ :] = 0.0
    out = np.empty((f, max(n, oh * w_)))
    acc = out[:, :n]
    acc[...] = b[:, None]
    for u in range(k):
        for v in range(k):
            acc += w[:, :, u, v] @ flat[:, u * w_ + v : u * w_ + v + n]
    return out[:, : oh * w_].reshape(f, oh, w_)[:, :, :ow]


def _band(x, params: PNetParams, first: int, last: int, carry):
    """The ReLU'd pool-2 rows first .. last + 3, all that lattice rows [first, last) read.

    Pool-1 row q is made from conv1 rows 2q and 2q + 1, pool-2 row r from
    pool-1 rows 2r .. 2r + 5, so these rows need pool-1 rows 2 * first ..
    2 * last + 11.  carry is the previous band's last 4 pool-1 and 4 pool-2
    rows, exactly the first ones this band reads; with it the band makes
    only rows no band made before.  Without it (the top band, or a band
    after a skipped one) the band makes its 12-row pool-1 and 4-row pool-2
    halo as well.  conv1 runs in strips of STRIP_ROWS output rows, each one
    im2col GEMM whose 2x2 pool is written straight into pooled1; pooling
    then relu gives the same values as relu then pooling, on a quarter of
    the elements.  Returns the pool-2 rows and the carry of the next band.
    """
    k = KERNEL_SIZE
    ow = x[0].shape[1] - k + 1
    held = 0 if carry is None else 4  # carried rows at the top of both maps
    top1 = 2 * (first + held)  # first pool-1 row the band reads
    pooled1 = np.empty((CONV1_FILTERS, 2 * last + 12 - top1, ow // 2))
    pooled2 = np.empty((CONV2_FILTERS, last + 4 - first, ow // 4 - 2))
    if carry is not None:
        pooled1[:, :held], pooled2[:, :held] = carry
    end = 4 * last + 24  # conv1 rows from 2 * (top1 + held) up to end are new
    for top in range(2 * (top1 + held), end, STRIP_ROWS):
        bottom = min(top + STRIP_ROWS, end)
        rows = np.stack([plane[top : bottom + k - 1] for plane in x])[..., None]
        pre1 = _conv_gemm(_im2col(rows), params.conv1_w, params.conv1_b, (bottom - top, ow, 1))
        _pool2_values(pre1[..., 0], out=pooled1[:, top // 2 - top1 : bottom // 2 - top1])
    np.maximum(pooled1, 0.0, out=pooled1)
    pre2 = _conv_shifted(pooled1, params.conv2_w, params.conv2_b)
    np.maximum(_pool2_values(pre2), 0.0, out=pooled2[:, held:])
    return pooled2, (pooled1[:, -4:].copy(), pooled2[:, -4:].copy())


def lattice_thresholds(x, params: PNetParams, rows) -> np.ndarray:
    """Eval-mode thresholds of the patches of x whose origin is a multiple of 4.

    x holds the four (4m + 28, 4n + 28) feature planes of one row strip x
    column strip of a map (inference._strips), as one (4, H, W) array or a
    sequence of planes; cell (i, j) of the (m, n) lattice is the threshold
    of the patch at pixel (4i, 4j).  rows picks the lattice rows returned,
    in that order.

    The conv stack walks x top to bottom in bands of BAND_ROWS lattice
    rows (_band), each carrying the rows the next one reads, so no
    convolution output is made twice and the working memory is bounded by
    the width of x, not its height.  A band that holds no requested row is
    skipped, and the band after it makes its own halo.  The 5x5 window
    of pool-2 rows i .. i + 4 is the pool-2 output of the patch of lattice
    row i: both pools pair the same rows and columns as they do inside the
    patch.  Every conv1 GEMM is one STRIP_ROWS-row strip and every conv2
    GEMM a multiple of 8 columns wide (_conv_shifted), so a convolution
    output's bits do not depend on the band that made it; the head runs
    once per requested row on all n cells of it.  So a cell's bits depend
    on the shape of x alone, not on which rows are asked for.  A cell
    equals the single-patch forward to about 1e-15 relative: the
    convolutions sum in another order, every other operation is the same.
    """
    rows = list(rows)
    m = (x[0].shape[0] - PATCH_SIZE) // LATTICE + 1
    n = (x[0].shape[1] - PATCH_SIZE) // LATTICE + 1
    out = np.empty((len(rows), n))
    carry, done = None, None
    for band in sorted({i // BAND_ROWS for i in rows}):
        first, last = band * BAND_ROWS, min((band + 1) * BAND_ROWS, m)
        pooled2, next_carry = _band(x, params, first, last, carry if done == band - 1 else None)
        windows = np.lib.stride_tricks.sliding_window_view(pooled2, (5, 5), axis=(1, 2))
        for k, i in enumerate(rows):
            if first <= i < last:
                flat = windows[:, i - first].transpose(1, 0, 2, 3).reshape(n, FLAT_SIZE)
                out[k] = _head(flat, params, None)[3]
        carry, done = next_carry, band
    return out


def params_digest(params: PNetParams) -> str:
    """Hex digest identifying the parameter values (metadata excluded)."""
    h = hashlib.sha256()
    h.update(CHECKPOINT_MAGIC)
    h.update(np.asarray(_ARCH, dtype="<u4").tobytes())
    h.update(params.vec.astype("<f8").tobytes())
    return h.hexdigest()


def save_checkpoint(params: PNetParams, meta: dict, path) -> None:
    """Serialize parameters (little-endian float64, fixed order) plus JSON metadata."""
    blob = bytearray()
    blob += CHECKPOINT_MAGIC
    blob += np.asarray(_ARCH, dtype="<u4").tobytes()
    blob += np.asarray([PARAM_COUNT], dtype="<u8").tobytes()
    blob += params.vec.astype("<f8").tobytes()
    if meta:
        blob += json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    Path(path).write_bytes(bytes(blob))


def load_checkpoint(path) -> tuple[PNetParams, dict]:
    """Inverse of save_checkpoint; round-trips bit-exactly."""
    data = Path(path).read_bytes()
    magic = data[:4]
    if magic != CHECKPOINT_MAGIC:
        if magic[:3] == CHECKPOINT_MAGIC[:3]:
            raise DataError(f"{path}: unsupported checkpoint version {magic!r}")
        raise DataError(f"{path}: not a checkpoint file (bad magic {magic!r})")
    header_end = 4 + 4 * len(_ARCH) + 8
    if len(data) < header_end:
        raise DataError(f"{path}: truncated checkpoint header")
    arch = tuple(int(v) for v in np.frombuffer(data[4 : 4 + 4 * len(_ARCH)], dtype="<u4"))
    if arch != _ARCH:
        raise DataError(f"{path}: architecture mismatch {arch}, expected {_ARCH}")
    count = int(np.frombuffer(data[header_end - 8 : header_end], dtype="<u8")[0])
    if count != PARAM_COUNT:
        raise DataError(f"{path}: parameter count {count} does not match architecture ({PARAM_COUNT})")
    body_end = header_end + 8 * count
    if len(data) < body_end:
        raise DataError(f"{path}: size mismatch, parameter block truncated")
    vec = np.frombuffer(data[header_end:body_end], dtype="<f8")
    tail = data[body_end:]
    try:
        meta = json.loads(tail.decode("utf-8")) if tail.strip() else {}
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: malformed checkpoint metadata ({exc})") from None
    return PNetParams.from_vector(vec), meta
