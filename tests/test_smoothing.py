import numpy as np
import pytest

from contextrnn import tape as tp
from contextrnn.data import DataError
from contextrnn.smoothing import (
    ESState,
    es_init,
    es_skip,
    es_step,
    future_factors,
)
from contextrnn.tape import Tensor, grad_check


class TestInit:
    def test_constant_series(self):
        state = es_init([5.0] * 8, period=4)
        assert state.level.item() == pytest.approx(5.0)
        for i in range(4):
            assert state.seasonal[i].item() == pytest.approx(1.0)

    def test_periodic_pattern(self):
        # [2c, c, 2c, c] with p=2: factors 4/3 and 2/3, mean exactly 1
        state = es_init([6.0, 3.0, 6.0, 3.0], period=2)
        assert state.level.item() == pytest.approx(4.5)
        assert state.seasonal[0].item() == pytest.approx(4.0 / 3.0)
        assert state.seasonal[1].item() == pytest.approx(2.0 / 3.0)

    def test_degenerate_period_one(self):
        state = es_init([7.0, 9.0], period=1)
        assert state.seasonal[0].item() == pytest.approx(1.0)

    def test_errors(self):
        with pytest.raises(DataError, match="initialize"):
            es_init([1.0, 2.0, 3.0], period=2)
        with pytest.raises(DataError, match="positive"):
            es_init([1.0, -2.0, 3.0, 4.0], period=2)


class TestStep:
    def test_alpha_to_one_limit(self):
        state = es_init([8.0] * 4, period=2, alpha_logit=0.0)
        _, level, _ = es_step(state, 3.0, delta_alpha=20.0)
        assert abs(level.item() - 3.0) <= 1e-6

    def test_alpha_to_zero_limit(self):
        state = es_init([8.0] * 4, period=2, alpha_logit=0.0)
        _, level, _ = es_step(state, 3.0, delta_alpha=-20.0)
        assert abs(level.item() - 8.0) <= 1e-6

    def test_hand_evaluated_update(self):
        # alpha = beta = 0.5, z = 10, l_prev = 8, s_t = 1
        state = ESState(Tensor(8.0), [Tensor(1.0), Tensor(1.0)], Tensor(0.0), Tensor(0.0), 2)
        new_state, level, s_new = es_step(state, 10.0)
        assert level.item() == pytest.approx(9.0)
        assert s_new.item() == pytest.approx(0.5 * (10.0 / 9.0) + 0.5, abs=1e-12)
        # ring consumed the head and appended the new factor
        assert new_state.seasonal[-1] is s_new

    def test_rejects_nonpositive(self):
        state = es_init([8.0] * 4, period=2)
        with pytest.raises(DataError):
            es_step(state, 0.0)

    def test_level_is_convex_combination(self):
        rng = np.random.default_rng(0)
        state = es_init(rng.uniform(1.0, 9.0, 8), period=4)
        for _ in range(50):
            z = float(rng.uniform(0.5, 12.0))
            da, db = rng.normal(scale=3.0, size=2)
            prev = state.level.item()
            state, level, _ = es_step(state, z, da, db)
            assert min(z, prev) - 1e-12 <= level.item() <= max(z, prev) + 1e-12

    def test_beta_to_zero_fixes_seasonal(self):
        state = es_init([4.0, 8.0, 4.0, 8.0], period=2, beta_logit=0.0)
        head = state.seasonal[0].item()
        _, _, s_new = es_step(state, 5.0, delta_beta=-20.0)
        assert abs(s_new.item() - head) <= 1e-6


class TestRing:
    def test_lookup_after_step(self):
        state = es_init([6.0, 3.0, 6.0, 3.0], period=2)
        first = state.seasonal[0].item()
        second = state.seasonal[1].item()
        state, _, s_new = es_step(state, 6.0)
        assert state.seasonal[0].item() == pytest.approx(second)
        assert state.seasonal[1].item() == pytest.approx(s_new.item())
        assert first != second

    def test_offset_bounds(self):
        # the ring covers exactly the phases 0 .. p-1
        state = es_init([5.0] * 4, period=2)
        assert len(state.seasonal) == 2
        with pytest.raises(DataError, match="ring holds"):
            ESState(state.level, state.seasonal + [Tensor(1.0)], state.alpha_logit, state.beta_logit, 2)

    def test_skip_rotates_without_update(self):
        state = es_init([6.0, 3.0, 6.0, 3.0], period=2)
        factors = [s.item() for s in state.seasonal]
        skipped = es_skip(state)
        assert skipped.level.item() == state.level.item()
        assert [s.item() for s in skipped.seasonal] == [factors[1], factors[0]]

    def test_future_factors_phase_repeat(self):
        state = es_init([6.0, 3.0, 6.0, 3.0], period=2)
        factors = future_factors(state, 5)
        assert [f.item() for f in factors[:2]] == [s.item() for s in state.seasonal]
        assert factors[2].item() == factors[0].item()
        assert factors[4].item() == factors[0].item()


class TestDifferentiability:
    def test_level_gradient_wrt_delta_alpha(self):
        def f(params):
            state = es_init([4.0, 8.0, 4.0, 8.0], period=2)
            da = params[0]
            state, level, _ = es_step(state, 5.0, delta_alpha=da)
            state, level, _ = es_step(state, 7.0, delta_alpha=da)
            return level

        assert grad_check(f, [np.asarray(0.3)], epsilon=1e-6) <= 1e-4

    def test_full_chain_gradients(self):
        values = [4.0, 8.0, 4.5, 7.5, 5.0, 7.0, 4.0, 8.0]

        def f(params):
            alpha_logit, beta_logit, deltas = params
            state = es_init(values[:4], period=2, alpha_logit=alpha_logit, beta_logit=beta_logit)
            out = None
            for i, z in enumerate(values[4:]):
                da = tp.slice_(deltas, i, i + 1)
                state, level, s_new = es_step(state, z, delta_alpha=da, delta_beta=da)
                out = tp.add(level, tp.mul(10.0, s_new))
            return tp.mean(out)

        params = [np.asarray(-0.5), np.asarray(0.5), np.array([0.2, -0.3, 0.4, 0.1])]
        assert grad_check(f, params, epsilon=1e-6) <= 1e-4
