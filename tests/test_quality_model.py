import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from visthresh.errors import DataError
from visthresh.quality_model import (
    T_MIN,
    grad_wrt_threshold_scale,
    predict_quality,
    sample_loss,
)

# Domains keep u = alpha*E/T <= 10 so 1 - exp(-u) stays strictly below 1.0
# in float64; saturation at larger u is covered by a dedicated test.
finite_e = st.floats(1e-6, 0.5)
finite_t = st.floats(0.1, 5.0)
finite_alpha = st.floats(0.05, 2.0)


class TestPredictQuality:
    def test_zero_error_is_perfect_quality(self):
        pred = predict_quality(0.0, 0.5, 2.0)
        assert pred.q_hat == 0.0
        assert pred.dq_dt == 0.0
        assert pred.dq_dalpha == 0.0

    def test_unit_ratio(self):
        pred = predict_quality(0.25, 0.25, 1.0)
        assert pred.q_hat == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)

    def test_log_two_ratio(self):
        pred = predict_quality(math.log(2.0) * 0.3, 0.3, 1.0)
        assert pred.q_hat == pytest.approx(0.5, abs=1e-12)

    @given(finite_e, finite_t, finite_alpha)
    def test_output_range(self, e, t, alpha):
        q = predict_quality(e, t, alpha).q_hat
        assert 0.0 <= q < 1.0

    @given(finite_e, finite_t, finite_alpha, st.floats(1.01, 3.0))
    def test_monotonicity(self, e, t, alpha, k):
        base = predict_quality(e, t, alpha).q_hat
        assert predict_quality(e * k, t, alpha).q_hat > base  # rises with error
        assert predict_quality(e, t, alpha * k).q_hat > base  # rises with scale
        assert predict_quality(e, t * k, alpha).q_hat < base  # falls with threshold

    @given(finite_e, finite_t, finite_alpha, st.floats(0.05, 1e3))
    def test_scale_absorption(self, e, t, alpha, k):
        base = predict_quality(e, t, alpha).q_hat
        scaled = predict_quality(k * e, k * t, alpha).q_hat
        assert scaled == pytest.approx(base, abs=1e-12)

    def test_threshold_gradient_is_nonpositive(self, rng):
        for _ in range(200):
            e = rng.uniform(0, 0.5)
            t = rng.uniform(T_MIN, 3.0)
            alpha = rng.uniform(0.05, 10.0)
            assert predict_quality(e, t, alpha).dq_dt <= 0.0

    def test_saturates_without_overflow(self):
        pred = predict_quality(1.0, T_MIN, 1e6)
        assert pred.q_hat == 1.0
        assert math.isfinite(pred.dq_dt) and math.isfinite(pred.dq_dalpha)

    def test_rejects_threshold_below_floor(self):
        with pytest.raises(DataError, match="threshold"):
            predict_quality(0.1, T_MIN / 2, 1.0)


class TestSampleLoss:
    @pytest.mark.parametrize(
        "q, q_hat, loss, grad",
        [(0.3, 0.3, 0.0, 0.0), (0.2, 0.5, 0.3, 1.0), (0.9, 0.5, 0.4, -1.0)],
    )
    def test_examples(self, q, q_hat, loss, grad):
        got_loss, got_grad = sample_loss(q, q_hat)
        assert got_loss == pytest.approx(loss, abs=1e-15)
        assert got_grad == grad


class TestGradWrtThresholdScale:
    def test_zero_error_gives_zero_gradients(self):
        _, dl_dt, dl_da = grad_wrt_threshold_scale(0.0, 0.5, 1.5, 0.7)
        assert dl_dt == 0.0 and dl_da == 0.0

    def test_exact_match_gives_zero_gradients(self):
        e, t, alpha = 0.1, 0.4, 1.3
        q = predict_quality(e, t, alpha).q_hat
        loss, dl_dt, dl_da = grad_wrt_threshold_scale(e, t, alpha, q)
        assert loss == 0.0 and dl_dt == 0.0 and dl_da == 0.0

    def test_matches_finite_differences(self, rng):
        h = 1e-7
        for _ in range(300):
            e = rng.uniform(0.01, 0.4)
            t = rng.uniform(0.05, 2.0)
            a = rng.uniform(-1.0, 1.0)  # log-scale parameter
            q_target = rng.uniform(0.0, 1.0)

            def loss(t_val, a_val):
                q_hat = predict_quality(e, t_val, math.exp(a_val)).q_hat
                return abs(q_target - q_hat)

            base_q = predict_quality(e, t, math.exp(a)).q_hat
            if abs(base_q - q_target) < 1e-4:
                continue  # too close to the L1 kink for finite differences
            _, dl_dt, dl_da = grad_wrt_threshold_scale(e, t, math.exp(a), q_target)
            fd_t = (loss(t + h, a) - loss(t - h, a)) / (2 * h)
            fd_a = (loss(t, a + h) - loss(t, a - h)) / (2 * h)
            assert dl_dt == pytest.approx(fd_t, rel=1e-6, abs=1e-10)
            assert dl_da == pytest.approx(fd_a, rel=1e-6, abs=1e-10)
