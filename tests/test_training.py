import math
import tracemalloc

import numpy as np
import pytest

from visthresh import synthetic, training
from visthresh.errors import DataError, NumericError
from visthresh.features import augment_patch, gaussian_window, mscn_map, patch_means
from visthresh.image_io import GrayImage, QualityRecord
from visthresh.quality_model import predict_quality
from visthresh.regressor import (
    _OFFSETS,
    _SHAPES,
    PARAM_COUNT,
    PNetParams,
    _conv_gemm,
    backward,
    forward,
    init_params,
)
from visthresh.training import (
    AdamState,
    TrainConfig,
    adam_step,
    build_samples,
    gradcheck,
    patch_grid,
    predict_sample_thresholds,
    split_indices,
    train,
)


def make_pair(seed=0, size=64, noise=0.05, q=0.5) -> QualityRecord:
    rng = np.random.default_rng(seed)
    shape = size if isinstance(size, tuple) else (size, size)
    ref = rng.uniform(0.2, 0.8, shape)
    dist = np.clip(ref + rng.uniform(-noise, noise, ref.shape), 0.0, 1.0)
    return QualityRecord(GrayImage(ref), GrayImage(dist), q)


def per_record_samples(records, stride):
    """Oracle: (planes, origin, e, q_target) from one mscn_map and one patch_means per record."""
    out = []
    for rec in records:
        dist = rec.distorted.pixels
        maps = mscn_map(dist, gaussian_window())
        planes = (dist, maps.mean_map, maps.var_map, maps.mscn_map)
        rows, cols = patch_grid(dist.shape[0], stride), patch_grid(dist.shape[1], stride)
        errors = patch_means(np.abs(dist - rec.reference.pixels), rows, cols)
        for i, row in enumerate(rows):
            for j, col in enumerate(cols):
                if errors[i, j] >= training.E_MIN:
                    out.append((planes, (row, col), float(errors[i, j]), rec.q_global))
    return out


def _owner(arr: np.ndarray) -> np.ndarray:
    while arr.base is not None:
        arr = arr.base
    return arr


class TestPatchGrid:
    @pytest.mark.parametrize(
        "length, stride, expected",
        [
            (32, 16, [0]),
            (64, 16, [0, 16, 32]),
            (40, 16, [0, 8]),          # border-touching final origin
            (65, 16, [0, 16, 32, 33]),
            (64, 32, [0, 32]),
        ],
    )
    def test_origins(self, length, stride, expected):
        assert patch_grid(length, stride) == expected

    def test_rejects_small_image(self):
        with pytest.raises(DataError, match="smaller"):
            patch_grid(31, 16)


class TestBuildSamples:
    def test_single_patch_image(self):
        cfg = TrainConfig(epochs=1, seed=0)
        samples = build_samples([make_pair(size=32)], cfg)
        assert len(samples) == 1
        assert samples[0].q_target == 0.5

    def test_stride_grid_count(self):
        cfg = TrainConfig(epochs=1, seed=0)
        samples = build_samples([make_pair(size=64)], cfg)
        assert len(samples) == 9  # origins {0,16,32}^2

    def test_identical_pair_filtered_out(self):
        rng = np.random.default_rng(1)
        ref = rng.uniform(0.2, 0.8, (32, 32))
        rec = QualityRecord(GrayImage(ref), GrayImage(ref.copy()), 0.0)
        assert build_samples([rec], TrainConfig(epochs=1)) == []

    def test_error_matches_patch(self):
        rec = make_pair(size=32, noise=0.1)
        samples = build_samples([rec], TrainConfig(epochs=1))
        expected = float(np.mean(np.abs(rec.distorted.pixels - rec.reference.pixels)))
        assert samples[0].e == pytest.approx(expected, abs=1e-15)

    def test_batch_rows_equal_augmented_patches(self):
        # 70x90 at stride 7 puts border origins (row 38, col 58) off the grid
        rng = np.random.default_rng(11)
        ref = rng.uniform(0.2, 0.8, (70, 90))
        dist = np.clip(ref + rng.uniform(-0.05, 0.05, ref.shape), 0.0, 1.0)
        rec = QualityRecord(GrayImage(ref), GrayImage(dist), 0.5)
        samples = build_samples([rec], TrainConfig(patch_stride=7, epochs=1))
        origins = [(r, c) for r in patch_grid(70, 7) for c in patch_grid(90, 7)]
        assert [s.origin for s in samples] == origins
        assert (38, 58) in origins
        maps = mscn_map(rec.distorted.pixels, gaussian_window())
        batch = training._stack_patches(samples, range(len(samples)))
        assert batch.shape == (len(samples), 4, 32, 32)
        for row, s in zip(batch, samples):
            want = augment_patch(maps, rec.distorted.pixels, s.origin, 32)
            assert np.array_equal(row, want), s.origin

    @pytest.mark.parametrize("chunk_pixels", [training.SAMPLE_CHUNK_PIXELS, 20_000])
    def test_grouped_build_equals_per_record_oracle(self, monkeypatch, chunk_pixels):
        # 260 records of 32x32 cross a chunk boundary at the module budget;
        # at 20,000 every shape group is cut into chunks of 2 to 19 records
        # (a row of 6-8 patches counts 6,144-8,192 pixels); shapes interleave
        shapes = [(32, 32)] * 260 + [(64, 64), (48, 80), (33, 70)] * 4
        records = [make_pair(seed, shape, q=seed / 300) for seed, shape in enumerate(shapes)]
        records[5] = QualityRecord(records[5].reference, records[5].reference, 0.5)  # no samples
        records = [records[i] for i in np.random.default_rng(0).permutation(len(records))]
        monkeypatch.setattr(training, "SAMPLE_CHUNK_PIXELS", chunk_pixels)
        samples = build_samples(records, TrainConfig(patch_stride=7, epochs=1))
        want = per_record_samples(records, 7)
        assert [(s.origin, s.e, s.q_target) for s in samples] == [w[1:] for w in want]
        for sample, (planes, *_) in zip(samples, want):
            assert np.shares_memory(sample.planes[0], planes[0])  # the record's own pixels
            assert [p.tobytes() for p in sample.planes] == [p.tobytes() for p in planes]
        batch = training._stack_patches(samples, range(0, len(samples), 3))
        for row, (planes, (r, c), *_) in zip(batch, want[::3]):
            assert row.tobytes() == np.stack([p[r : r + 32, c : c + 32] for p in planes]).tobytes()

    def test_row_of_patch_windows_counts_toward_the_chunk(self):
        # 16 pairs of 32x512 at stride 1 fit one chunk by image pixels, but
        # patch_means would copy 16 x 481 windows (60 MiB) per row at once
        records = [make_pair(seed, (32, 512)) for seed in range(16)]
        tracemalloc.start()
        try:
            samples = build_samples(records, TrainConfig(patch_stride=1, epochs=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(samples) == 16 * 481
        assert peak < 24 * 2**20, f"build_samples peak {peak / 2**20:.1f} MiB"

    def test_samples_share_record_planes(self):
        # 4 pairs of 512x512 at stride 8 are 14,884 samples; a 32 KiB patch
        # copy per sample would need 465 MiB, the record planes need 32 MiB
        records = []
        for seed in range(4):
            rng = np.random.default_rng(seed)
            ref = synthetic.texture(rng, 512)
            dist = np.clip(ref + rng.uniform(-0.05, 0.05, ref.shape), 0.0, 1.0)
            records.append(QualityRecord(GrayImage(ref), GrayImage(dist), 0.5))
        tracemalloc.start()
        try:
            samples = build_samples(records, TrainConfig(patch_stride=8, epochs=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(samples) == 4 * 61 * 61
        assert peak < 64 * 2**20, f"build_samples peak {peak / 2**20:.1f} MiB"
        # plane 0 is the record's own pixels; the mean, variance and MSCN
        # views own at most 24 bytes per distorted pixel between them
        for k, rec in enumerate(records):
            for s in samples[k * 61 * 61 : (k + 1) * 61 * 61]:
                assert np.shares_memory(s.planes[0], rec.distorted.pixels)
        owners = {id(o): o for s in samples for o in map(_owner, s.planes[1:])}
        held = sum(o.nbytes for o in owners.values())
        assert held <= 24 * 4 * 512 * 512, f"samples hold {held / 2**20:.1f} MiB of planes"


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        params = init_params(0)
        cfg = TrainConfig(epochs=1)
        updated, _ = adam_step(params, PNetParams(), AdamState.zeros(), cfg, t=1)
        np.testing.assert_array_equal(updated.vec, params.vec)

    def test_first_step_magnitude(self):
        # hand evaluation of the recurrence at t=1 with g=1:
        # m_hat = 1, v_hat = 1 -> step = lr / (1 + eps)
        cfg = TrainConfig(epochs=1, learning_rate=0.1)
        params = init_params(0)
        grads = PNetParams()
        grads.vec[3] = 1.0
        updated, state = adam_step(params, grads, AdamState.zeros(), cfg, t=1)
        delta = updated.vec - params.vec
        expected = -0.1 / (1.0 + training.ADAM_EPS)
        assert delta[3] == pytest.approx(expected, abs=1e-15)
        assert np.all(delta[np.arange(PARAM_COUNT) != 3] == 0.0)

    def test_state_evolves(self):
        cfg = TrainConfig(epochs=1)
        grads = PNetParams.from_vector(np.ones(PARAM_COUNT))
        _, state = adam_step(init_params(0), grads, AdamState.zeros(), cfg, t=1)
        assert np.all(state.m == (1.0 - training.ADAM_BETA1) * 1.0)
        assert np.all(state.v == (1.0 - training.ADAM_BETA2) * 1.0)

    @pytest.mark.parametrize("t", [1, 2, 37, 5000])
    def test_matches_textbook_expressions(self, t):
        rng = np.random.default_rng(t)
        cfg = TrainConfig(epochs=1, learning_rate=3e-3)
        params = PNetParams.from_vector(rng.normal(size=PARAM_COUNT))
        g = rng.normal(size=PARAM_COUNT) * 10.0 ** rng.integers(-9, 3, PARAM_COUNT)
        state = AdamState(rng.normal(size=PARAM_COUNT) * 1e-2, rng.uniform(0.0, 1e-3, PARAM_COUNT))
        m0, v0, p0 = state.m.copy(), state.v.copy(), params.vec.copy()
        updated, new = adam_step(params, PNetParams(g), state, cfg, t)
        m = 0.9 * m0 + (1.0 - 0.9) * g
        v = 0.999 * v0 + (1.0 - 0.999) * g * g
        m_hat = m / (1.0 - 0.9**t)
        v_hat = v / (1.0 - 0.999**t)
        p = p0 - 3e-3 * m_hat / (np.sqrt(v_hat) + 1e-8)
        np.testing.assert_array_equal(new.m, m)
        np.testing.assert_array_equal(new.v, v)
        np.testing.assert_array_equal(updated.vec, p)
        # the arguments are left as they were
        np.testing.assert_array_equal(state.m, m0)
        np.testing.assert_array_equal(state.v, v0)
        np.testing.assert_array_equal(params.vec, p0)
        assert not np.shares_memory(updated.vec, params.vec)

    def test_infinite_gradient_is_numeric_error(self):
        # inf/inf in m_hat / sqrt(v_hat) makes the parameter NaN
        grads = PNetParams()
        grads.conv1_b[0] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="non-finite"):
            adam_step(init_params(0), grads, AdamState.zeros(), TrainConfig(epochs=1), t=1)


class TestSplit:
    def test_disjoint_and_complete(self):
        cfg = TrainConfig(epochs=1, seed=5)
        samples = build_samples([make_pair(seed=s) for s in range(4)], cfg)
        train_idx, hold_idx = split_indices(samples, cfg)
        assert set(train_idx).isdisjoint(hold_idx)
        assert sorted(train_idx + hold_idx) == list(range(len(samples)))
        assert len(hold_idx) == round(0.2 * len(samples))


class TestTrain:
    def test_rejects_empty_records(self):
        with pytest.raises(DataError, match="records"):
            train([], TrainConfig(epochs=1))

    def test_rejects_all_filtered(self):
        rng = np.random.default_rng(1)
        ref = rng.uniform(0.2, 0.8, (32, 32))
        rec = QualityRecord(GrayImage(ref), GrayImage(ref.copy()), 0.0)
        with pytest.raises(DataError, match="samples"):
            train([rec], TrainConfig(epochs=1))

    def test_deterministic_checkpoints(self):
        records = [make_pair(seed=s, q=0.3 + 0.1 * s) for s in range(3)]
        cfg = TrainConfig(epochs=2, seed=9)
        p1, r1 = train(records, cfg)
        p2, r2 = train(records, cfg)
        np.testing.assert_array_equal(p1.vec, p2.vec)
        assert r1.train_loss == r2.train_loss
        assert r1.holdout_indices == r2.holdout_indices

    def test_alpha_stays_positive(self):
        records = [make_pair(seed=s, q=0.7) for s in range(3)]
        params, report = train(records, TrainConfig(epochs=3, seed=1))
        assert report.final_alpha > 0.0
        assert math.exp(params.a) == pytest.approx(report.final_alpha)

    def test_zero_targets_push_loss_down(self):
        # all targets 0 with nonzero E: the optimizer grows T, loss shrinks
        records = [make_pair(seed=s, q=0.0) for s in range(3)]
        _, report = train(records, TrainConfig(epochs=5, seed=2))
        assert report.train_loss[-1] < report.train_loss[0]

    def test_single_sample_loss_trend(self):
        records = [make_pair(seed=0, size=32, q=0.6)]
        _, report = train(records, TrainConfig(epochs=50, seed=3, holdout_fraction=0.5))
        losses = report.train_loss
        assert np.mean(losses[-10:]) <= np.mean(losses[:10]) + 1e-6

    def test_report_shapes(self):
        records = [make_pair(seed=s) for s in range(3)]
        cfg = TrainConfig(epochs=2, seed=4)
        params, report = train(records, cfg)
        assert len(report.train_loss) == 2
        assert len(report.holdout_loss) == 2
        assert len(report.epoch_seconds) == 2
        d = report.to_dict(cfg)
        assert d["config"]["learning_rate"] == cfg.learning_rate
        samples = build_samples(records, cfg)
        thresholds = predict_sample_thresholds(samples, params, range(len(samples)))
        assert np.all(thresholds >= 1e-3)


class TestGradCheck:
    def test_passes_on_seed_one(self):
        report = gradcheck(seed=1)
        assert report.passed
        assert report.max_rel_error < 1e-4

    def test_detects_corrupted_gradient(self):
        # double one fc2 weight's analytic gradient; the checker must flag it
        # for every unit that is active (dead-relu units have true zero grads)
        fc2_offset = PARAM_COUNT - 2 - 100
        failures = sum(
            not gradcheck(seed=1, n_coords=1, corrupt_index=fc2_offset + j).passed
            for j in range(20)
        )
        assert failures >= 5
        assert gradcheck(seed=1, n_coords=1).passed

    def test_deterministic(self):
        a = gradcheck(seed=2)
        b = gradcheck(seed=2)
        assert a == b

    @pytest.mark.parametrize("seed", [8018, 101010])
    def test_passes_across_pool_kinks(self, seed):
        # at h = 1e-6 one coordinate of each seed straddles a max-pool
        # argmax flip and its central difference misses by 0.36 / 0.15
        report = gradcheck(seed=seed)
        assert report.passed and report.max_rel_error < 1e-4
        assert report.refined >= 1

    def test_smooth_seed_is_not_refined(self):
        assert gradcheck(seed=1).refined == 0

    @pytest.mark.parametrize("index", [0, 13586, 50000, PARAM_COUNT - 1])
    def test_refinement_still_detects_corruption(self, index):
        assert not gradcheck(seed=8018, n_coords=1, corrupt_index=index).passed

    def test_unstable_pattern_at_floor_fails(self, monkeypatch):
        # with the floor at the step there is no room to refine: the
        # coordinate straddling the kink fails even under a loose tolerance
        monkeypatch.setattr(training, "KINK_H_FLOOR", 1e-6)
        monkeypatch.setattr(training, "GRADCHECK_TOLERANCE", 1.0)
        report = gradcheck(seed=101010)
        assert report.max_rel_error < 1.0
        assert not report.passed and report.refined == 0


def branch_pattern(trace, e, a, q_target, stage=0):
    q_hat = predict_quality(e, trace.threshold, math.exp(a)).q_hat
    return training._activation_pattern(trace, q_hat, q_target, stage)


class TestResume:
    @pytest.mark.parametrize("block", range(len(_SHAPES)), ids=[name for name, _ in _SHAPES])
    def test_resumed_forward_equals_full_forward(self, block):
        rng = np.random.default_rng(3)
        patch = np.stack([rng.uniform(0, 1, (32, 32)) for _ in range(3)] + [rng.normal(0, 1, (32, 32))])
        params = init_params(3)
        params.a = 0.2
        e = 0.05
        base = forward(patch, params)
        # a target just above the base quality, so a large enough step of
        # any block flips the L1 sign
        q_target = predict_quality(e, base.threshold, math.exp(params.a)).q_hat + 1e-3
        base_pattern = branch_pattern(base, e, params.a, q_target)
        # the block's coordinate with the largest threshold gradient (a has none)
        grads = backward(base, params, 1.0).vec[_OFFSETS[block] : _OFFSETS[block + 1]]
        c = _OFFSETS[block] + int(np.argmax(np.abs(grads)))
        stage = training._stage_of(c)
        saved, sign_flips, relu_flips = params.vec[c], 0, 0
        for step in [sign * 10.0**k for k in range(-6, 3) for sign in (1, -1)]:
            params.vec[c] = saved + step
            full = forward(patch, params)
            resumed = training._resume(base, patch, params, stage)
            assert resumed.threshold == full.threshold, step
            full_pattern = branch_pattern(full, e, params.a, q_target)
            stable = all(map(np.array_equal, full_pattern, base_pattern))
            resumed_pattern = branch_pattern(resumed, e, params.a, q_target, stage)
            assert all(map(np.array_equal, resumed_pattern, base_pattern)) == stable, step
            sign_flips += full_pattern[0] != base_pattern[0]
            relu_flips += not all(map(np.array_equal, full_pattern[1:], base_pattern[1:]))
        params.vec[c] = saved
        assert sign_flips > 0
        # conv and fc1 blocks feed a ReLU; fc2 and a feed only the L1 sign
        assert (relu_flips > 0) == (_SHAPES[block][0] not in ("fc2_w", "fc2_b", "a"))

    def test_reports_equal_full_forward_reference(self, monkeypatch):
        # corrupted coordinates in conv1, conv2, fc1, the log-scale a and
        # the pool-kink coordinate of seed 8018
        cases = [
            (0, None), (1, 0), (2, None), (3, 3300), (4, None), (5, 60000),
            (8018, None), (8018, 13586), (101010, None), (101019, PARAM_COUNT - 1),
        ]
        resumed = [gradcheck(seed=seed, corrupt_index=index) for seed, index in cases]
        # the reference: every difference a full forward with a full-pattern compare
        pattern = training._activation_pattern
        monkeypatch.setattr(training, "_resume", lambda base, patch, params, stage: forward(patch, params))
        monkeypatch.setattr(
            training, "_activation_pattern", lambda trace, q_hat, q_target, stage=0: pattern(trace, q_hat, q_target)
        )
        assert resumed == [gradcheck(seed=seed, corrupt_index=index) for seed, index in cases]


class TestActivationPattern:
    def test_non_argmax_zero_crossing_is_no_kink(self):
        # shift conv2_b[f] so that one conv2 output of a live pool-2 window,
        # not its argmax, sits at 0; +-h moves it across zero, but the
        # backward never reads it, so the loss is smooth and the pattern
        # is the base one
        rng = np.random.default_rng(5)
        patch = np.stack([rng.uniform(0, 1, (32, 32)) for _ in range(3)] + [rng.normal(0, 1, (32, 32))])
        params, e, h = init_params(5), 0.05, 1e-9
        base = forward(patch, params)
        pre2 = _conv_gemm(base.cols2, params.conv2_w, params.conv2_b, (10, 10, 1))[..., 0]
        # (|value|, filter, row, col) of each non-argmax element of a live window
        candidates = [
            (abs(pre2[f, r, s]), f, r, s)
            for f, i, j in zip(*np.nonzero(base.pooled2[..., 0] > 0.0))
            for q in range(4)
            for r, s in [(2 * i + q // 2, 2 * j + q % 2)]
            if q != base.idx2[f, i, j, 0] and pre2[f, r, s] < base.pooled2[f, i, j, 0] - 1e-3
        ]
        _, f, r, s = min(candidates)
        params.conv2_b[f] -= pre2[f, r, s]
        shifted = forward(patch, params)
        q_target = predict_quality(e, shifted.threshold, 1.0).q_hat + 0.1
        base_pattern = branch_pattern(shifted, e, 0.0, q_target)
        masks = []
        for step in (h, -h):
            params.conv2_b[f] += step
            trace = forward(patch, params)
            assert all(map(np.array_equal, branch_pattern(trace, e, 0.0, q_target), base_pattern))
            masks.append(_conv_gemm(trace.cols2, params.conv2_w, params.conv2_b, (10, 10, 1)) > 0.0)
            params.conv2_b[f] -= step
        assert not np.array_equal(*masks)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"holdout_fraction": 0.0},
            {"holdout_fraction": 1.0},
            {"learning_rate": 0.0},
            {"batch_size": 0},
            {"epochs": 0},
            {"learning_rate": float("nan")},
            {"learning_rate": float("inf")},
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(DataError):
            TrainConfig(**kwargs)
