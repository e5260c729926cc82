"""Property tests for the algebraic contracts that must hold on all inputs."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from contextrnn import tape as tp
from contextrnn.data import postprocess, preprocess_window
from contextrnn.model import pinball, total_loss
from contextrnn.smoothing import ESState, es_step
from contextrnn.tape import Tape, Tensor, backward

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
positive = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)
quantile = st.floats(min_value=0.01, max_value=0.99)


@given(finite, finite, quantile)
@example(0.0, 5e-324, 0.5)  # both sides' scaled gaps underflow
@example(5e-324, 0.0, 0.3)  # only the applicable q·(a - p) does
def test_pinball_nonnegative_and_zero_iff_equal(actual, predicted, q):
    loss = pinball(actual, predicted, q).item()
    assert loss >= 0.0
    if actual == predicted:
        assert loss == 0.0
    if loss == 0.0 and actual != predicted:
        # the one exception: a subnormal gap, scaled by the weight of its side, rounds to 0.0 in float64
        weight = q if actual > predicted else 1.0 - q
        assert weight * abs(actual - predicted) == 0.0


@given(st.lists(finite, min_size=1, max_size=8), quantile)
def test_pinball_scales_linearly(values, q):
    actual = np.asarray(values)
    predicted = actual + 1.0
    single = pinball(actual, predicted, q).values
    doubled = pinball(2.0 * actual, 2.0 * actual + 2.0, q).values
    np.testing.assert_allclose(doubled, 2.0 * single, rtol=1e-12)


@given(st.lists(finite, min_size=1, max_size=6))
def test_total_loss_zero_iff_all_match(values):
    actual = np.asarray(values)
    assert total_loss(actual, actual, actual, actual, gamma=0.4).item() == 0.0


@settings(max_examples=60)
@given(
    st.lists(positive, min_size=2, max_size=24),
    st.lists(st.floats(min_value=0.2, max_value=5.0), min_size=2, max_size=24),
)
def test_preprocess_postprocess_roundtrip(z_values, factors):
    n = min(len(z_values), len(factors))
    z = np.asarray(z_values[:n])
    s = np.asarray(factors[:n])
    z_bar = float(z.mean())
    x = preprocess_window(z, z_bar, s)
    np.testing.assert_allclose(postprocess(x, z_bar, s), z, rtol=1e-12)


@settings(max_examples=60)
@given(positive, positive, finite, finite)
def test_es_level_stays_between_observation_and_previous(z, level, d_alpha, d_beta):
    state = ESState(Tensor(level), [Tensor(1.0), Tensor(1.0)], Tensor(0.0), Tensor(0.0), 2)
    _, new_level, s_new = es_step(state, z, np.clip(d_alpha, -30, 30), np.clip(d_beta, -30, 30))
    lo, hi = min(z, level), max(z, level)
    assert lo - 1e-9 <= new_level.item() <= hi + 1e-9
    assert s_new.item() > 0.0


@settings(max_examples=40)
@given(st.lists(finite, min_size=2, max_size=10), st.lists(finite, min_size=2, max_size=10))
def test_gradients_accumulate_linearly(a_values, b_values):
    # d/dx of mean(x + x) is twice d/dx of mean(x): shared-input accumulation
    n = min(len(a_values), len(b_values))
    x0 = np.asarray(a_values[:n])
    tape = Tape()
    x = tape.leaf(x0)
    grads_double = backward(tp.mean(tp.add(x, x)))[x.node].copy()
    tape2 = Tape()
    y = tape2.leaf(x0)
    grads_single = backward(tp.mean(y))[y.node]
    np.testing.assert_allclose(grads_double, 2.0 * grads_single, atol=1e-15)
