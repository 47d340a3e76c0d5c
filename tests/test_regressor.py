import math
import tracemalloc

import numpy as np
import pytest

from visthresh.errors import DataError
from visthresh.quality_model import T_MIN
from visthresh.regressor import (
    CHECKPOINT_MAGIC,
    _OFFSETS,
    PARAM_COUNT,
    PNetParams,
    _backward_batch,
    _conv_backward,
    _conv_gemm,
    _forward_batch,
    _pool2,
    _pool2_backward,
    _relu_pool,
    _sigmoid,
    backward,
    dropout_mask,
    forward,
    init_params,
    load_checkpoint,
    params_digest,
    save_checkpoint,
)


def random_patch(seed=0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.stack(
        [
            rng.uniform(0, 1, (32, 32)),
            rng.uniform(0, 1, (32, 32)),
            rng.uniform(0, 0.05, (32, 32)),
            rng.normal(0, 1, (32, 32)),
        ]
    )


class TestInit:
    def test_param_count(self):
        expected = 4 * 5 * 5 * 32 + 32 + 32 * 5 * 5 * 32 + 32 + 100 * 800 + 100 + 100 + 1 + 1
        assert PARAM_COUNT == expected
        assert init_params(0).vec.size == expected

    def test_deterministic(self):
        a = init_params(42).vec
        b = init_params(42).vec
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, init_params(43).vec)

    def test_biases_zero_and_scale_zero(self):
        p = init_params(7)
        assert np.all(p.conv1_b == 0) and np.all(p.conv2_b == 0)
        assert np.all(p.fc1_b == 0) and p.fc2_b == 0.0 and p.a == 0.0

    def test_he_scale_of_conv1(self):
        # pool draws from several seeds; empirical std within 10% of sqrt(2/100)
        draws = np.concatenate([init_params(s).conv1_w.ravel() for s in range(8)])
        target = math.sqrt(2.0 / 100.0)
        assert abs(draws.std() - target) / target < 0.10


class TestForward:
    def test_all_zero_network(self):
        trace = forward(np.zeros((4, 32, 32)), PNetParams())
        assert trace.z[0] == 0.0
        assert trace.threshold == pytest.approx(math.log(2.0) + T_MIN, abs=1e-15)

    def test_intermediate_shapes(self):
        trace = forward(random_patch(), init_params(0))
        assert trace.pooled1.shape == (32, 14, 14, 1)
        assert trace.idx1.shape == (32, 14, 14, 1)
        assert trace.pooled2.shape == (32, 5, 5, 1)
        assert trace.idx2.shape == (32, 5, 5, 1)
        assert trace.flat.shape == (1, 800)
        assert trace.fc1_pre.shape == (1, 100)
        assert trace.z.shape == (1,)

    def test_warm_batch_traced_peak_bounded(self):
        # with the im2col scratch reused, the trace holds no conv output and
        # the relu runs in place: one 6.1 MiB conv1 output at a time
        x = np.stack([random_patch(i) for i in range(32)])
        params, ws = init_params(0), {}
        masks = np.concatenate([dropout_mask([0, i]) for i in range(32)])
        _forward_batch(x, params, masks, ws)
        tracemalloc.start()
        try:
            _forward_batch(x, params, masks, ws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, f"forward peak {peak / 2**20:.1f} MiB"

    def test_eval_mode_is_pure(self):
        patch, params = random_patch(3), init_params(3)
        t1 = forward(patch, params).threshold
        t2 = forward(patch, params).threshold
        assert t1 == t2

    def test_eval_ignores_dropout_seed(self):
        patch, params = random_patch(5), init_params(5)
        t_eval = forward(patch, params).threshold
        x = patch[None]
        t_train1 = float(_forward_batch(x, params, dropout_mask(1)).t[0])
        t_train2 = float(_forward_batch(x, params, dropout_mask(2)).t[0])
        assert t_train1 != t_train2  # distinct masks do change the output
        assert forward(patch, params).threshold == t_eval

    def test_threshold_positive_and_floored(self):
        params = init_params(1)
        params.fc2_b = -50.0  # drive z very negative
        assert forward(random_patch(1), params).threshold >= T_MIN

    def test_threshold_increases_with_head_bias(self):
        patch, params = random_patch(2), init_params(2)
        lo = forward(patch, params).threshold
        params.fc2_b += 0.7
        hi = forward(patch, params).threshold
        assert hi > lo

    def test_rejects_wrong_shape(self):
        with pytest.raises(DataError, match="shape"):
            forward(np.zeros((3, 32, 32)), init_params(0))


def pool2_where(x):
    """The np.where formulation of the 2x2 max pool, kept as the oracle."""
    x00, x01 = x[:, 0::2, 0::2], x[:, 0::2, 1::2]
    x10, x11 = x[:, 1::2, 0::2], x[:, 1::2, 1::2]
    itop = np.where(x00 >= x01, 0, 1).astype(np.int8)
    vtop = np.maximum(x00, x01)
    ibot = np.where(x10 >= x11, 2, 3).astype(np.int8)
    vbot = np.maximum(x10, x11)
    top_wins = vtop >= vbot
    return np.where(top_wins, vtop, vbot), np.where(top_wins, itop, ibot)


class TestPool2:
    def test_matches_where_oracle_with_ties(self):
        rng = np.random.default_rng(5)
        tied = rng.integers(-1, 2, (32, 28, 28, 3)).astype(np.float64)  # ties in most windows
        tied[..., 0] = 0.0  # every window a four-way tie
        tied[:5, :, :, 1] = -0.0  # signed-zero ties
        smooth = rng.normal(size=(32, 10, 10, 4))
        relu = np.maximum(smooth, 0.0)  # zero ties where a window is all negative
        for x in (tied, smooth, relu):
            values, idx = _pool2(x)
            want_values, want_idx = pool2_where(x)
            assert values.tobytes() == want_values.tobytes()
            assert idx.dtype == want_idx.dtype
            np.testing.assert_array_equal(idx, want_idx)


class TestDropout:
    def test_inverted_scaling_values(self):
        mask = dropout_mask(123)
        assert mask.shape == (1, 100)
        assert set(np.unique(mask)).issubset({0.0, 2.0})

    def test_seeded(self):
        np.testing.assert_array_equal(dropout_mask(9), dropout_mask(9))


class TestBackward:
    def test_zero_upstream_gradient(self):
        patch, params = random_patch(4), init_params(4)
        trace = forward(patch, params)
        grads = backward(trace, params, 0.0)
        assert np.all(grads.vec == 0.0)

    def test_single_fc2_weight_finite_difference(self):
        patch, params = random_patch(6), init_params(6)
        trace = forward(patch, params)
        grads = backward(trace, params, 1.0)  # dL/dT = 1 -> grads of T itself
        h = 1e-6
        for j in (0, 17, 99):
            plus, minus = init_params(6), init_params(6)
            plus.fc2_w[j] += h
            minus.fc2_w[j] -= h
            fd = (forward(patch, plus).threshold - forward(patch, minus).threshold) / (2 * h)
            assert grads.fc2_w[j] == pytest.approx(fd, rel=1e-5, abs=1e-9)

    def test_random_coordinates_finite_difference(self):
        patch, params = random_patch(8), init_params(8)
        trace = forward(patch, params)
        grads = backward(trace, params, 1.0).vec
        base = params.vec
        rng = np.random.default_rng(0)
        h = 1e-6
        for c in rng.choice(PARAM_COUNT - 2, size=40, replace=False):
            plus, minus = base.copy(), base.copy()
            plus[c] += h
            minus[c] -= h
            fd = (
                forward(patch, PNetParams.from_vector(plus)).threshold
                - forward(patch, PNetParams.from_vector(minus)).threshold
            ) / (2 * h)
            denom = max(abs(grads[c]), abs(fd), 1e-5)
            assert abs(grads[c] - fd) / denom < 1e-4


def pool2_backward_zeros(dpool, idx, x_shape):
    """The argmax routing into a zeroed array, kept as the oracle."""
    dx = np.zeros(x_shape)
    dx[:, 0::2, 0::2] = dpool * (idx == 0)
    dx[:, 0::2, 1::2] = dpool * (idx == 1)
    dx[:, 1::2, 0::2] = dpool * (idx == 2)
    dx[:, 1::2, 1::2] = dpool * (idx == 3)
    return dx


def conv_dx_col2im(delta, w, x_shape):
    """conv2's input gradient as one (C*K*K, OH*OW*B) GEMM, then col2im adds:
    the path before the per-offset GEMMs, kept as the oracle."""
    f, oh, ow, batch = delta.shape
    c, h, w_, _ = x_shape
    k = w.shape[-1]
    dwin = (w.reshape(f, -1).T @ delta.reshape(f, -1)).reshape(c, k, k, oh, ow * batch)
    dx3 = np.zeros((c, h, w_ * batch))
    for u in range(k):
        for v in range(k):
            dx3[:, u : u + oh, v * batch : (v + ow) * batch] += dwin[:, u, v]
    return dx3.reshape(x_shape)


def backward_batch_col2im(trace, params, dl_dt):
    """_backward_batch with full-size relu masks and the col2im input gradient.

    The conv outputs behind the masks are recomputed from the trace's im2col
    matrices, since the trace does not keep them."""
    batch = trace.z.shape[0]
    pre1 = _conv_gemm(trace.cols1, params.conv1_w, params.conv1_b, (28, 28, batch))
    pre2 = _conv_gemm(trace.cols2, params.conv2_w, params.conv2_b, (10, 10, batch))
    dz = dl_dt * _sigmoid(trace.z)
    g = PNetParams()
    g.fc2_w = trace.dropped.T @ dz
    g.fc2_b = float(dz.sum())
    dfc1_pre = dz[:, None] * params.fc2_w[None, :] * trace.dropout_mask * (trace.fc1_pre > 0.0)
    g.fc1_w = dfc1_pre.T @ trace.flat
    g.fc1_b = dfc1_pre.sum(axis=0)
    dpooled2 = (dfc1_pre @ params.fc1_w).reshape(batch, 32, 5, 5).transpose(1, 2, 3, 0)
    dpre2 = pool2_backward_zeros(dpooled2, trace.idx2, pre2.shape) * (pre2 > 0.0)
    g.conv2_w, g.conv2_b, _ = _conv_backward(dpre2, trace.cols2, params.conv2_w)
    dpooled1 = conv_dx_col2im(dpre2, params.conv2_w, trace.pooled1.shape)
    dpre1 = pool2_backward_zeros(dpooled1, trace.idx1, pre1.shape) * (pre1 > 0.0)
    g.conv1_w, g.conv1_b, _ = _conv_backward(dpre1, trace.cols1, params.conv1_w)
    return g


def batch_trace(batch, seed=0):
    x = np.stack([random_patch(seed * 1000 + i) for i in range(batch)])
    params = init_params(seed)
    masks = np.concatenate([dropout_mask([seed, i]) for i in range(batch)])
    trace = _forward_batch(x, params, masks, ws={})
    return trace, params, np.random.default_rng(seed).normal(size=batch)


class TestBatchBackward:
    def test_pooled_mask_equals_full_size_mask(self):
        # the relu mask applied before routing (pooled > 0) and after it
        # (pre > 0) give the same bits, signed zeros included
        rng = np.random.default_rng(3)
        pre = rng.normal(size=(32, 28, 28, 5))
        pre[:4] = -np.abs(pre[:4])  # dead units: every window non-positive
        pre[4:8, :, :, 1] = 0.0  # four-way zero ties
        pre[8:12, :, :, 2] = -0.0
        pre[12:16, ::3] = 0.0  # zeros planted beside live values
        pooled, idx = _relu_pool(pre.copy())
        dp = rng.normal(size=pooled.shape)
        dp[:, ::4] = 0.0
        dp[:, 1::4] = -0.0
        assert np.any(pooled == 0.0) and np.any(pooled > 0.0)
        got = _pool2_backward(dp * (pooled > 0.0), idx)
        want = _pool2_backward(dp, idx) * (pre > 0.0)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
        np.testing.assert_array_equal(want, pool2_backward_zeros(dp, idx, pre.shape) * (pre > 0.0))

    @pytest.mark.parametrize("batch", [1, 7, 32, 33])
    def test_matches_col2im_oracle(self, batch):
        # per-offset GEMMs may round differently from the full GEMM's rows
        # (odd batches on OpenBLAS), so each parameter block is held to 1e-13
        # of its largest gradient
        trace, params, dl_dt = batch_trace(batch, seed=batch)
        got = _backward_batch(trace, params, dl_dt).vec
        want = backward_batch_col2im(trace, params, dl_dt).vec
        for start, stop in zip(_OFFSETS[:-2], _OFFSETS[1:-1]):  # every block but a
            scale = np.max(np.abs(want[start:stop]))
            assert scale > 0.0
            assert np.max(np.abs(got[start:stop] - want[start:stop])) <= 1e-13 * scale

    def test_traced_peak_bounded(self):
        # a (800, 100*B) matrix of conv2's input gradients alone would be 19.5 MiB
        trace, params, dl_dt = batch_trace(32)
        tracemalloc.start()
        try:
            _backward_batch(trace, params, dl_dt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, f"backward peak {peak / 2**20:.1f} MiB"


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        params = init_params(11)
        params.a = 0.31
        path = tmp_path / "model.vth"
        save_checkpoint(params, {"seed": 11, "note": "x"}, path)
        loaded, meta = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.vec, params.vec)
        assert meta == {"seed": 11, "note": "x"}

    def test_save_load_save_byte_identical(self, tmp_path):
        params = init_params(12)
        p1, p2 = tmp_path / "a.vth", tmp_path / "b.vth"
        save_checkpoint(params, {"seed": 12, "lr": 0.0001}, p1)
        loaded, meta = load_checkpoint(p1)
        save_checkpoint(loaded, meta, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "model.vth"
        save_checkpoint(init_params(0), {}, path)
        path.write_bytes(path.read_bytes()[:-1024])
        with pytest.raises(DataError, match="truncated|size"):
            load_checkpoint(path)

    def test_old_version_magic(self, tmp_path):
        path = tmp_path / "model.vth"
        save_checkpoint(init_params(0), {}, path)
        data = bytearray(path.read_bytes())
        data[:4] = b"VTH0"
        path.write_bytes(bytes(data))
        with pytest.raises(DataError, match="version"):
            load_checkpoint(path)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"hello world, definitely not a checkpoint")
        with pytest.raises(DataError, match="magic"):
            load_checkpoint(path)

    def test_digest_tracks_parameters_not_metadata(self, tmp_path):
        p = init_params(3)
        d1 = params_digest(p)
        assert d1 == params_digest(p)
        p.a += 1e-9
        assert params_digest(p) != d1

    def test_magic_constant(self):
        assert CHECKPOINT_MAGIC == b"VTH1"


class TestVectorPacking:
    def test_grads_mirror_params(self):
        g = backward(forward(random_patch(1), init_params(1)), init_params(1), 1.0)
        assert type(g) is PNetParams and g.vec.shape == (PARAM_COUNT,)
        assert np.all(PNetParams().vec == 0.0)

    def test_field_write_changes_vec(self):
        p = PNetParams()
        p.conv2_b = np.arange(32.0)
        p.fc1_w[3, 7] = 5.0
        p.a = -0.25
        p.fc2_b += 0.7
        assert p.vec[-1] == -0.25 and p.vec[-2] == 0.7
        assert np.count_nonzero(p.vec) == 31 + 1 + 2
        np.testing.assert_array_equal(p.vec[3232 + 25600 : 3232 + 25632], np.arange(32.0))
        assert p.vec[28864 + 3 * 800 + 7] == 5.0

    def test_vec_write_changes_field(self):
        p = init_params(2)
        p.vec[:] = np.arange(PARAM_COUNT, dtype=np.float64)
        assert p.conv1_w[0, 0, 0, 1] == 1.0
        assert p.conv1_b[0] == 3200.0
        assert p.fc2_b == PARAM_COUNT - 2 and p.a == PARAM_COUNT - 1
        assert isinstance(p.a, float) and p.fc1_w.shape == (100, 800)

    def test_from_vector_copies(self):
        vec = init_params(4).vec.copy()
        p = PNetParams.from_vector(vec)
        vec[:] = 9.0
        np.testing.assert_array_equal(p.vec, init_params(4).vec)

    def test_from_vector_rejects_bad_size(self):
        with pytest.raises(DataError, match="entries"):
            PNetParams.from_vector(np.zeros(10))

    def test_from_vector_rejects_non_finite(self):
        vec = np.zeros(PARAM_COUNT)
        vec[5] = np.inf
        with pytest.raises(DataError, match="finite"):
            PNetParams.from_vector(vec)

    def test_pack_unpack_roundtrip(self):
        params = init_params(21)
        params.a = -0.4
        params.fc2_b = 0.9
        again = PNetParams.from_vector(params.vec)
        np.testing.assert_array_equal(again.vec, params.vec)
        assert again.a == params.a and again.fc2_b == params.fc2_b
