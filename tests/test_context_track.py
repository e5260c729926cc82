import time

import numpy as np
import pytest

from contextrnn import tape as tp
from contextrnn.context_track import (
    assemble_context,
    context_conv_forward,
    fft_features,
    init_conv_arrays,
    modulate,
)
from contextrnn.tape import Tensor, grad_check


def direct_dft(x):
    """O(W^2) definition oracle."""
    W = len(x)
    out = np.zeros(W, dtype=complex)
    for k in range(W):
        for t in range(W):
            out[k] += x[t] * np.exp(-2j * np.pi * k * t / W)
    return out


class TestFFTFeatures:
    def test_constant_input_dc_only(self):
        W, c = 8, 3.0
        stack = fft_features(Tensor(np.full(W, c))).values
        re, im, mag, phase, raw = stack
        assert re[0] == pytest.approx(W * c)
        np.testing.assert_allclose(re[1:], 0.0, atol=1e-10)
        np.testing.assert_allclose(im, 0.0, atol=1e-10)
        assert mag[0] == pytest.approx(W * c)
        np.testing.assert_allclose(mag[1:], 0.0, atol=1e-10)
        assert phase[0] == pytest.approx(0.0)
        np.testing.assert_allclose(raw, c)

    def test_pure_cosine_concentrates_at_k(self):
        W, k = 16, 3
        x = np.cos(2.0 * np.pi * k * np.arange(W) / W)
        stack = fft_features(Tensor(x)).values
        mag = stack[2]
        oracle = np.abs(direct_dft(x))
        np.testing.assert_allclose(mag, oracle, atol=1e-9)
        assert mag[k] == pytest.approx(W / 2, abs=1e-9)
        assert mag[W - k] == pytest.approx(W / 2, abs=1e-9)
        others = np.delete(mag, [k, W - k])
        np.testing.assert_allclose(others, 0.0, atol=1e-9)

    def test_magnitude_consistency(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.normal(size=int(rng.integers(2, 40)))
            re, im, mag, _, _ = fft_features(Tensor(x)).values
            np.testing.assert_allclose(mag, np.hypot(re, im), atol=1e-12)

    def test_parseval_on_random_windows(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            W = int(rng.integers(2, 48))
            x = rng.normal(size=W)
            stack = fft_features(Tensor(x)).values
            power = float(np.sum(stack[2] ** 2))
            assert power == pytest.approx(W * float(np.sum(x**2)), rel=1e-8)

    def test_matches_numpy_fft(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=24)
        stack = fft_features(Tensor(x)).values
        spectrum = np.fft.fft(x)
        np.testing.assert_allclose(stack[0], spectrum.real, atol=1e-10)
        np.testing.assert_allclose(stack[1], spectrum.imag, atol=1e-10)
        # compare phase on the circle: +pi and -pi are the same angle
        np.testing.assert_allclose(np.cos(stack[3]), np.cos(np.angle(spectrum)), atol=1e-10)
        np.testing.assert_allclose(np.sin(stack[3]), np.sin(np.angle(spectrum)), atol=1e-10)


def conv_params_from(arrays):
    return {k: Tensor(v) for k, v in arrays.items()}


class TestContextConv:
    def test_zero_parameters_zero_output(self):
        W, u = 6, 2
        arrays = {k: np.zeros_like(v) for k, v in init_conv_arrays(np.random.default_rng(0), W, u).items()}
        stack = fft_features(Tensor(np.random.default_rng(1).normal(size=W)))
        r, da, db = context_conv_forward(stack, conv_params_from(arrays))
        np.testing.assert_array_equal(r.values, 0.0)
        assert da.values[0] == 0.0 and db.values[0] == 0.0

    def test_identity_configuration_hand_trace(self):
        # dw [0,1,0] + identity pointwise + no projection in block 1,
        # zero conv path + identity projection in block 2, mean-pool rows:
        # output = per-channel means of relu(stack)
        W, c = 4, 5
        u = 3
        arrays = {
            "dw1": np.tile([0.0, 1.0, 0.0], (5, 1)),
            "pw1": np.eye(5),
            "pw1_b": np.zeros((5, 1)),
            "proj1": np.zeros((5, 5)),
            "dw2": np.zeros((5, 3)),
            "pw2": np.zeros((5, 5)),
            "pw2_b": np.zeros((5, 1)),
            "proj2": np.eye(5),
            "red_w": np.zeros((u + 2, c * W)),
            "red_b": np.zeros(u + 2),
        }
        for row in range(u + 2):
            if row < 5:
                arrays["red_w"][row, row * W : (row + 1) * W] = 1.0 / W
        stack_values = np.arange(1.0, 21.0).reshape(5, 4)  # positive: relu is identity
        r, da, db = context_conv_forward(Tensor(stack_values), conv_params_from(arrays))
        expected = stack_values.mean(axis=1)
        np.testing.assert_allclose(r.values, expected[:u], atol=1e-12)
        assert da.values[0] == pytest.approx(expected[3])
        assert db.values[0] == pytest.approx(expected[4])

    def test_gradients_match_finite_differences(self):
        W, u = 5, 2
        rng = np.random.default_rng(3)
        arrays = init_conv_arrays(rng, W, u, channels=4)
        names = list(arrays)
        x = rng.normal(size=W)

        def f(params):
            conv = dict(zip(names, params))
            r, da, db = context_conv_forward(fft_features(Tensor(x)), conv)
            return tp.mean(tp.concat([r, da, db]))

        assert grad_check(f, [arrays[n] for n in names], epsilon=1e-5) <= 1e-4

    def test_bad_channel_count(self):
        arrays = init_conv_arrays(np.random.default_rng(0), 4, 2)
        with pytest.raises(ValueError, match="channel"):
            context_conv_forward(Tensor(np.zeros((3, 4))), conv_params_from(arrays))


class TestAssembleModulate:
    def test_single_series_identity(self):
        r = Tensor([1.0, 2.0])
        assert assemble_context([r]).values.tolist() == [1.0, 2.0]

    def test_concatenation_order(self):
        out = assemble_context([Tensor([1.0, 2.0]), Tensor([3.0, 4.0])])
        assert out.values.tolist() == [1.0, 2.0, 3.0, 4.0]
        swapped = assemble_context([Tensor([3.0, 4.0]), Tensor([1.0, 2.0])])
        assert swapped.values.tolist() != out.values.tolist()

    def test_modulate_with_ones_is_bitwise_identity(self):
        rng = np.random.default_rng(9)
        r = rng.normal(size=8)
        out = modulate(Tensor(r), Tensor(np.ones(8)))
        assert out.values.tobytes() == r.tobytes()

    def test_modulate_elementwise(self):
        out = modulate(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
        assert out.values.tolist() == [3.0, 8.0]

    def test_small_gains_attenuate(self):
        rng = np.random.default_rng(11)
        r = rng.normal(size=50) + 0.1
        g = rng.uniform(-0.99, 0.99, size=50)
        out = modulate(Tensor(r), Tensor(g)).values
        inside = np.abs(g) < 1.0
        assert np.all(np.abs(out[inside]) <= np.abs(r[inside]))
        np.testing.assert_allclose(out, r * g)  # direct multiplication oracle

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            modulate(Tensor([1.0, 2.0]), Tensor([1.0]))


class TestLinearCost:
    def test_forward_cost_linear_in_k(self):
        W, u = 16, 2
        rng = np.random.default_rng(0)
        arrays = init_conv_arrays(rng, W, u)
        params = conv_params_from(arrays)
        windows = [rng.normal(size=W) for _ in range(30)]

        def run(K, steps):
            start = time.perf_counter()
            for _ in range(steps):
                vectors = []
                for i in range(K):
                    r, _, _ = context_conv_forward(fft_features(Tensor(windows[i])), params)
                    vectors.append(r)
                assemble_context(vectors)
            return time.perf_counter() - start

        run(30, 50)  # warm-up
        steps = 1000
        t15 = run(15, steps)
        t30 = run(30, steps)
        assert t30 <= 2.5 * t15, f"K=30 took {t30:.2f}s vs K=15 {t15:.2f}s"
