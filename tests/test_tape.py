import math

import numpy as np
import pytest

from contextrnn import tape as tp
from contextrnn.tape import (
    Tape,
    Tensor,
    backward,
    grad_check,
)


def scalar_loss(t):
    return tp.mean(t) if t.values.ndim else t


class TestForwardValues:
    def test_sigmoid_symmetry_point(self):
        assert tp.sigmoid(Tensor(0.0)).item() == 0.5

    def test_sigmoid_closed_form(self):
        # 1 / (1 + e^{-ln 3}) = 3/4
        assert tp.sigmoid(Tensor(math.log(3.0))).item() == pytest.approx(0.75, abs=1e-15)

    def test_matmul_identity(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 3))
        out = tp.matmul(Tensor(np.eye(3)), Tensor(a))
        np.testing.assert_array_equal(out.values, a)

    def test_depthwise_conv_matches_direct_sum(self):
        # independent oracle: direct convolution sum per output position
        rng = np.random.default_rng(7)
        x = rng.normal(size=(3, 9))
        k = rng.normal(size=(3, 3))
        out = tp.conv1d_depthwise(Tensor(x), Tensor(k)).values
        expected = np.zeros_like(out)
        for c in range(3):
            for n in range(9):
                acc = 0.0
                for m in range(3):
                    idx = n - m + 1  # same padding centers kernel of width 3
                    if 0 <= idx < 9:
                        acc += k[c, m] * x[c, idx]
                expected[c, n] = acc
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_forward_determinism_bit_identical(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 4))
        k = rng.normal(size=(4, 3))

        def run():
            t = Tape()
            a = t.leaf(x)
            return tp.mean(tp.tanh(tp.conv1d_depthwise(a, Tensor(k)))).values.copy()

        np.testing.assert_array_equal(run(), run())


class TestBackward:
    def test_square_derivative(self):
        t = Tape()
        x = t.leaf(3.0)
        grads = backward(tp.mul(x, x))
        assert grads[x.node] == pytest.approx(6.0)

    def test_sigmoid_derivative_at_zero(self):
        t = Tape()
        x = t.leaf(0.0)
        grads = backward(tp.sigmoid(x))
        assert grads[x.node] == pytest.approx(0.25)

    def test_loss_gradient_is_one(self):
        t = Tape()
        x = t.leaf(np.array([1.0, 2.0]))
        loss = tp.mean(x)
        grads = backward(loss)
        assert grads[loss.node] == pytest.approx(1.0)

    def test_shared_subexpression_accumulates(self):
        # shared node: s = m + m with m = x*x, versus unrolled duplicates
        x0 = 1.7
        t = Tape()
        x = t.leaf(x0)
        m = tp.mul(x, x)
        shared = backward(tp.add(m, m))[x.node]

        t2 = Tape()
        x1, x2 = t2.leaf(x0), t2.leaf(x0)
        g2 = backward(tp.add(tp.mul(x1, x1), tp.mul(x2, x2)))
        unrolled = g2[x1.node] + g2[x2.node]
        assert shared == pytest.approx(unrolled)

    def test_backward_consumes_the_tape(self):
        t = Tape()
        x = t.leaf(np.array(3.0))
        loss = tp.mul(x, x)
        assert backward(loss)[x.node] == pytest.approx(6.0)
        assert all(node.pulls is None for node in t.nodes)  # captured arrays released
        with pytest.raises(ValueError, match="already"):
            backward(loss)

    def test_conv_kernel_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2, 8))
        k0 = rng.normal(size=(2, 3))

        def f(params):
            return tp.mean(tp.conv1d_depthwise(Tensor(x), params[0]))

        assert grad_check(f, [k0], epsilon=1e-5) <= 1e-4

    def test_errors(self):
        t = Tape()
        x = t.leaf(np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="scalar"):
            backward(tp.mul(x, x))
        with pytest.raises(ValueError, match="not recorded"):
            backward(Tensor(1.0))
        other = Tape()
        y = other.leaf(np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="different tapes"):
            tp.add(x, y)


class TestGradCheck:
    def test_linear_function_is_exact(self):
        w = np.array([0.3, -1.2, 2.0])
        x = np.array([1.0, 2.0, 3.0])

        def f(params):
            return tp.mean(tp.mul(params[0], Tensor(x)))

        assert grad_check(f, [w], epsilon=1e-4) <= 1e-10

    def test_constant_function_is_zero(self):
        def f(params):
            return tp.mean(Tensor(np.array([4.0])))

        assert grad_check(f, [np.array([1.0, 2.0])], epsilon=1e-4) == 0.0

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            grad_check(lambda p: tp.mean(p[0]), [np.ones(2)], epsilon=0.5)

    def test_nondeterminism_detected(self):
        state = {"n": 0}

        def f(params):
            state["n"] += 1
            return tp.mean(tp.mul(params[0], Tensor(float(state["n"]))))

        with pytest.raises(ValueError, match="deterministic"):
            grad_check(f, [np.ones(2)], epsilon=1e-4)


#: every exported primitive: the module's exports minus the engine itself
PRIMITIVE_NAMES = sorted(set(tp.__all__) - {"Tape", "Tensor", "DomainError", "backward", "grad_check"})


def _random_case(op, rng):
    """Build (function, params) exercising one primitive with random shapes."""
    size = int(rng.integers(2, 7))
    fn = getattr(tp, op)
    if op in ("add", "sub", "mul", "div", "hypot", "atan2"):
        # keep magnitudes in [0.5, 2] so atan2/hypot stay away from the origin and div from a pole
        a = rng.uniform(0.5, 2.0, size) * rng.choice([-1.0, 1.0], size)
        b = rng.uniform(0.5, 2.0, size) * rng.choice([-1.0, 1.0], size)
        return lambda p: tp.mean(tp.tanh(fn(p[0], p[1]))), [a, b]
    if op == "transpose":
        a = rng.normal(size=(size, size + 1))
        weights = rng.normal(size=(size + 1, size))
        return lambda p: tp.mean(tp.mul(tp.transpose(p[0]), Tensor(weights))), [a]
    if op == "gather":
        a = rng.normal(size=(size, 3))
        rows = rng.integers(0, size, size + 2)  # repeats accumulate
        weights = rng.normal(size=(size + 2, 3))
        return lambda p: tp.mean(tp.mul(tp.gather(p[0], rows), Tensor(weights))), [a]
    if op == "matmul":
        m, n, k = (int(rng.integers(1, 4)) for _ in range(3))
        a, b = rng.normal(size=(m, n)), rng.normal(size=(n, k))
        return lambda p: tp.mean(tp.matmul(p[0], p[1])), [a, b]
    if op == "concat":
        a, b = rng.normal(size=size), rng.normal(size=size + 1)
        return lambda p: tp.mean(tp.tanh(tp.concat([p[0], p[1]]))), [a, b]
    if op == "slice_":
        a = rng.normal(size=size + 3)
        lo = int(rng.integers(0, 2))
        return lambda p: tp.mean(tp.slice_(p[0], lo, lo + 2)), [a]
    if op == "reshape":
        a = rng.normal(size=6)
        weights = rng.normal(size=(2, 3))
        return lambda p: tp.mean(tp.mul(tp.reshape(p[0], (2, 3)), Tensor(weights))), [a]
    if op in ("sigmoid", "tanh", "exp", "mean"):
        a = rng.normal(size=size)
        return lambda p: tp.mean(fn(p[0])), [a]
    if op == "log":
        a = rng.uniform(0.5, 3.0, size)
        return lambda p: tp.mean(tp.log(p[0])), [a]
    if op == "relu":
        a = rng.uniform(0.2, 1.5, size) * rng.choice([-1.0, 1.0], size)
        return lambda p: tp.mean(tp.relu(p[0])), [a]
    if op == "clip":
        a = rng.uniform(0.1, 2.0, size) * rng.choice([-1.0, 1.0], size)
        a[np.abs(np.abs(a) - 0.75) < 0.05] = 0.5  # keep clear of the clamp kink
        return lambda p: tp.mean(tp.clip(p[0], -0.75, 0.75)), [a]
    if op == "conv1d_depthwise":
        c = int(rng.integers(1, 4))
        w = int(rng.integers(4, 9))
        kw = int(rng.integers(1, 4))
        x, k = rng.normal(size=(c, w)), rng.normal(size=(c, kw))
        return lambda p: tp.mean(tp.conv1d_depthwise(p[0], p[1])), [x, k]
    if op == "conv1d_pointwise":
        cin, cout, w = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(2, 6))
        k, x = rng.normal(size=(cout, cin)), rng.normal(size=(cin, w))
        return lambda p: tp.mean(tp.conv1d_pointwise(p[0], p[1])), [k, x]
    raise AssertionError(op)


def test_twenty_one_primitives_are_exported():
    assert len(PRIMITIVE_NAMES) == 21


@pytest.mark.parametrize("op", PRIMITIVE_NAMES)
def test_primitive_gradients_match_finite_differences(op):
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        fn, params = _random_case(op, rng)
        err = grad_check(fn, params, epsilon=1e-6)
        assert err <= 1e-4, f"{op} failed at seed {seed}: {err}"


class TestDispatchAndChecks:
    def test_log_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            tp.log(Tensor([1.0, 0.0]))
        with pytest.raises(tp.DomainError):
            tp.log(Tensor([-1.0]))

    def test_gather_and_transpose_values(self):
        x = np.arange(12.0).reshape(4, 3)
        np.testing.assert_array_equal(tp.gather(Tensor(x), [2, 0, 2]).values, x[[2, 0, 2]])
        np.testing.assert_array_equal(tp.transpose(Tensor(x)).values, x.T)
        np.testing.assert_array_equal(tp.div(Tensor(x), 2.0).values, x / 2.0)
        with pytest.raises(ValueError, match="2-D"):
            tp.transpose(Tensor(np.ones(3)))

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            tp.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_constants_do_not_record(self):
        out = tp.add(Tensor([1.0]), Tensor([2.0]))
        assert out.tape is None and out.node is None


@pytest.fixture
def emitted(monkeypatch):
    """Spy on ``tp._emit``: the ops it wraps, their results, and the ops whose pull-maker ran."""
    log = {"results": [], "made": []}
    real = tp._emit

    def spy(op, out_values, operands, make_pulls):
        def counted():
            log["made"].append(op)
            return make_pulls()

        result = real(op, out_values, operands, counted)
        log["results"].append((op, result))
        return result

    monkeypatch.setattr(tp, "_emit", spy)
    return log


@pytest.mark.parametrize("op", PRIMITIVE_NAMES)
def test_constant_operands_build_no_pulls(op, emitted):
    fn, params = _random_case(op, np.random.default_rng(5))
    out = fn([Tensor(p) for p in params])
    assert out.tape is None and out.node is None
    assert emitted["results"] and emitted["made"] == []
    assert all(r.tape is None and r.node is None for _, r in emitted["results"])


#: each binary primitive applied to two operands of compatible shapes
BINARY_CASES = {
    "add": ((3,), (3,)),
    "sub": ((3,), (3,)),
    "mul": ((3,), (3,)),
    "div": ((3,), (3,)),
    "hypot": ((3,), (3,)),
    "atan2": ((3,), (3,)),
    "matmul": ((2, 3), (3, 4)),
    "concat": ((3,), (2,)),
    "conv1d_depthwise": ((2, 5), (2, 3)),
    "conv1d_pointwise": ((3, 2), (2, 4)),
}


@pytest.mark.parametrize("tracked", [0, 1], ids=["first-tracked", "second-tracked"])
@pytest.mark.parametrize("op", sorted(BINARY_CASES))
def test_one_tracked_operand_records_one_pull(op, tracked, emitted):
    rng = np.random.default_rng(6)
    tape = Tape()
    operands = [Tensor(rng.uniform(0.5, 2.0, shape)) for shape in BINARY_CASES[op]]
    operands[tracked] = leaf = tape.leaf(operands[tracked].values)
    out = tp.concat(operands) if op == "concat" else getattr(tp, op)(*operands)
    assert out.tape is tape and out.node == len(tape.nodes) - 1 == 1
    assert [src for src, _ in tape.nodes[out.node].pulls] == [leaf.node]
    assert len(emitted["made"]) == 1
    grad = backward(tp.mean(out))[leaf.node]
    assert grad.shape == leaf.values.shape


def test_operand_on_a_tape_without_a_node_gets_no_pull():
    tape = Tape()
    out = tp.exp(Tensor([0.5, 1.0], tape))
    assert out.tape is tape and tape.nodes[out.node].pulls == []
