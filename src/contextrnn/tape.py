"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

The engine is deliberately small: it covers exactly the primitives the
forecasting architecture needs. Every tracked operation is recorded on an
explicit :class:`Tape`; gradients are obtained by walking the tape in
reverse. Tensors without a tape reference act as constants. A primitive
builds its pull closures only when it records a node, so forward-only code
(evaluation, prediction, finite-difference probes) pays no recording cost:
it computes values and wraps them, nothing more.

The tape is rebuilt for every training step (define-by-run); a tape and
its tensors belong to a single logical thread.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tape",
    "Tensor",
    "DomainError",
    "backward",
    "grad_check",
    "add",
    "sub",
    "mul",
    "div",
    "matmul",
    "transpose",
    "gather",
    "concat",
    "slice_",
    "sigmoid",
    "tanh",
    "exp",
    "log",
    "mean",
    "conv1d_depthwise",
    "conv1d_pointwise",
    "relu",
    "clip",
    "hypot",
    "atan2",
    "reshape",
]


class DomainError(ValueError):
    """A primitive was applied outside its domain (the log of a non-positive value)."""


class Node:
    """One recorded primitive: op name and the pulls to its tracked inputs.

    A node keeps no output values of its own: whatever its pulls need they
    capture, so an intermediate array nothing differentiates through is
    freed as soon as the forward pass drops it.
    """

    __slots__ = ("id", "op", "pulls")

    def __init__(self, id, op, pulls):
        self.id = id
        self.op = op
        # pulls: [(input node id, fn(grad_out) -> grad contribution)]
        self.pulls = pulls


class Tape:
    """Append-only record of primitives.

    Node ids are list indices, so they are topologically ordered by
    construction.
    """

    def __init__(self):
        self.nodes: list[Node] = []

    def leaf(self, values) -> "Tensor":
        """Register an independent variable and return its tracked tensor."""
        node = Node(len(self.nodes), "leaf", ())
        self.nodes.append(node)
        return Tensor(values, self, node.id)

    def _record(self, op, pulls):
        node = Node(len(self.nodes), op, pulls)
        self.nodes.append(node)
        return node.id


class Tensor:
    """Shape + row-major float64 values + optional tape node id."""

    __slots__ = ("values", "tape", "node")

    def __init__(self, values, tape: Tape | None = None, node: int | None = None):
        self.values = np.asarray(values, dtype=np.float64)
        self.tape = tape
        self.node = node

    def item(self) -> float:
        return float(self.values)

    def detach(self) -> "Tensor":
        """Constant copy of this tensor (drops tape tracking, keeps values)."""
        return Tensor(self.values)

    def __repr__(self):
        tracked = "" if self.node is None else f", node={self.node}"
        return f"Tensor(shape={self.values.shape}{tracked})"


def _tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _emit(op, out_values, operands, make_pulls):
    """Wrap a primitive's result, recording it only if an operand is tracked.

    ``make_pulls()`` returns one pull (``fn(grad_out) -> grad``) per operand,
    in order. With no tape among the operands the result is a constant and
    the maker is never called, so a forward-only sweep builds no closures.
    Otherwise the node keeps the pulls of the tracked operands only.
    """
    tape = None
    for t in operands:
        if t.tape is not None:
            if tape is None:
                tape = t.tape
            elif tape is not t.tape:
                raise ValueError("operands belong to different tapes")
    if tape is None:
        return Tensor(out_values)
    recorded = [(t.node, pull) for t, pull in zip(operands, make_pulls()) if t.node is not None]
    return Tensor(out_values, tape, tape._record(op, recorded))


def _unbroadcast(grad, shape):
    """Sum a gradient back down to ``shape`` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b) -> Tensor:
    a, b = _tensor(a), _tensor(b)
    return _emit("add", a.values + b.values, (a, b), lambda: (
        lambda g, s=a.values.shape: _unbroadcast(g, s),
        lambda g, s=b.values.shape: _unbroadcast(g, s),
    ))


def sub(a, b) -> Tensor:
    a, b = _tensor(a), _tensor(b)
    return _emit("sub", a.values - b.values, (a, b), lambda: (
        lambda g, s=a.values.shape: _unbroadcast(g, s),
        lambda g, s=b.values.shape: _unbroadcast(-g, s),
    ))


def mul(a, b) -> Tensor:
    a, b = _tensor(a), _tensor(b)
    av, bv = a.values, b.values
    # each pull holds only the other operand, so a constant factor keeps nothing else alive
    return _emit("mul_elementwise", av * bv, (a, b), lambda: (
        lambda g, s=av.shape: _unbroadcast(g * bv, s),
        lambda g, s=bv.shape: _unbroadcast(g * av, s),
    ))


def div(a, b) -> Tensor:
    a, b = _tensor(a), _tensor(b)
    av, bv = a.values, b.values
    out = av / bv
    return _emit("div", out, (a, b), lambda: (
        lambda g, s=av.shape: _unbroadcast(g / bv, s),
        lambda g, s=bv.shape: _unbroadcast(-g * out / bv, s),
    ))


# ---------------------------------------------------------------------------
# linear algebra and structure


def matmul(a, b) -> Tensor:
    """Matrix product for 2-D×2-D, 2-D×1-D and 1-D×2-D operands."""
    a, b = _tensor(a), _tensor(b)
    av, bv = a.values, b.values
    if av.ndim == 0 or bv.ndim == 0 or av.ndim > 2 or bv.ndim > 2:
        raise ValueError(f"matmul needs 1-D/2-D operands, got {av.shape} @ {bv.shape}")
    if av.shape[-1] != bv.shape[0]:
        raise ValueError(f"matmul shape mismatch: {av.shape} @ {bv.shape}")
    out = av @ bv

    def pull_a(g):
        if av.ndim == 2 and bv.ndim == 2:
            return g @ bv.T
        if av.ndim == 2 and bv.ndim == 1:
            return np.outer(g, bv)
        return bv @ g  # a is 1-D, b is 2-D

    def pull_b(g):
        if av.ndim == 2:
            return av.T @ g
        return np.outer(av, g)  # a is 1-D, b is 2-D

    return _emit("matmul", out, (a, b), lambda: (pull_a, pull_b))


def transpose(x) -> Tensor:
    """Matrix transpose of a 2-D tensor (a view of its values)."""
    x = _tensor(x)
    if x.values.ndim != 2:
        raise ValueError(f"transpose needs a 2-D operand, got {x.values.shape}")
    return _emit("transpose", x.values.T, (x,), lambda: (lambda g: g.T,))


def gather(x, rows) -> Tensor:
    """Rows ``x[rows]`` along the first axis; repeated rows add their gradients."""
    x = _tensor(x)
    rows = np.asarray(rows, dtype=np.intp)
    if rows.ndim != 1:
        raise ValueError("gather takes a 1-D array of row indices")
    out = x.values[rows]
    xshape = x.values.shape

    def pull(g):
        full = np.zeros(xshape)
        np.add.at(full, rows, g)
        return full

    return _emit("gather", out, (x,), lambda: (pull,))


def concat(tensors, axis=0) -> Tensor:
    ts = [_tensor(t) for t in tensors]
    if not ts:
        raise ValueError("concat of an empty sequence")
    out = np.concatenate([t.values for t in ts], axis=axis)

    def make_pulls():
        pulls = []
        offset = 0
        for t in ts:
            lo, hi = offset, offset + t.values.shape[axis]

            def pull(g, lo=lo, hi=hi):
                index = [slice(None)] * g.ndim
                index[axis] = slice(lo, hi)
                return g[tuple(index)]

            pulls.append(pull)
            offset = hi
        return pulls

    return _emit("concat", out, ts, make_pulls)


def slice_(x, start, stop, axis=0) -> Tensor:
    x = _tensor(x)
    if not (0 <= start <= stop <= x.values.shape[axis]):
        raise ValueError(f"slice [{start}:{stop}] out of range for {x.values.shape}")
    index = [slice(None)] * x.values.ndim
    index[axis] = slice(start, stop)
    index = tuple(index)
    out = x.values[index].copy()
    xshape = x.values.shape

    def pull(g):
        full = np.zeros(xshape)
        full[index] = g
        return full

    return _emit("slice", out, (x,), lambda: (pull,))


def reshape(x, shape) -> Tensor:
    x = _tensor(x)
    xshape = x.values.shape
    return _emit("reshape", x.values.reshape(shape), (x,), lambda: (lambda g: g.reshape(xshape),))


# ---------------------------------------------------------------------------
# nonlinearities


def sigmoid(x) -> Tensor:
    x = _tensor(x)
    v = x.values
    e = np.exp(-np.abs(v))  # 1/(1+e) where v >= 0, e/(1+e) below: no overflow either way
    out = np.where(v >= 0, 1.0, e)
    out /= 1.0 + e
    return _emit("sigmoid", out, (x,), lambda: (lambda g: g * out * (1.0 - out),))


def tanh(x) -> Tensor:
    x = _tensor(x)
    out = np.tanh(x.values)
    return _emit("tanh", out, (x,), lambda: (lambda g: g * (1.0 - out * out),))


def exp(x) -> Tensor:
    x = _tensor(x)
    out = np.exp(x.values)
    return _emit("exp", out, (x,), lambda: (lambda g: g * out,))


def log(x) -> Tensor:
    x = _tensor(x)
    xv = x.values
    if np.any(xv <= 0.0):
        raise DomainError("log requires strictly positive inputs")
    return _emit("log", np.log(xv), (x,), lambda: (lambda g: g / xv,))


def relu(x) -> Tensor:
    x = _tensor(x)
    xv = x.values

    def make_pulls():
        gate = xv > 0.0
        return (lambda g: g * gate,)

    return _emit("relu", np.maximum(xv, 0.0), (x,), make_pulls)


def clip(x, lo, hi) -> Tensor:
    """Hard clamp; gradient passes through wherever lo <= x <= hi."""
    x = _tensor(x)
    xv = x.values

    def make_pulls():
        gate = (xv >= lo) & (xv <= hi)
        return (lambda g: g * gate,)

    return _emit("clip", np.clip(xv, lo, hi), (x,), make_pulls)


def hypot(a, b) -> Tensor:
    """Elementwise sqrt(a² + b²); gradient defined as 0 at the origin."""
    a, b = _tensor(a), _tensor(b)
    av, bv = a.values, b.values
    out = np.hypot(av, bv)

    def make_pulls():
        safe = np.where(out == 0.0, 1.0, out)
        return (
            lambda g: _unbroadcast(g * av / safe, av.shape),
            lambda g: _unbroadcast(g * bv / safe, bv.shape),
        )

    return _emit("hypot", out, (a, b), make_pulls)


def atan2(y, x) -> Tensor:
    """Elementwise atan2; gradient zeroed where x² + y² < 1e-12 (noise bins)."""
    y, x = _tensor(y), _tensor(x)
    yv, xv = y.values, x.values

    def make_pulls():
        d = xv * xv + yv * yv
        inv = np.where(d < 1e-12, 0.0, 1.0 / np.where(d == 0.0, 1.0, d))
        return (
            lambda g: _unbroadcast(g * xv * inv, yv.shape),
            lambda g: _unbroadcast(-g * yv * inv, xv.shape),
        )

    return _emit("atan2", np.arctan2(yv, xv), (y, x), make_pulls)


# ---------------------------------------------------------------------------
# reductions


def mean(x) -> Tensor:
    x = _tensor(x)
    n = x.values.size
    xshape = x.values.shape
    return _emit("mean", np.asarray(x.values.mean()), (x,), lambda: (lambda g: np.full(xshape, float(g) / n),))


# ---------------------------------------------------------------------------
# 1-D convolutions (true convolution: kernel is flipped)


def conv1d_depthwise(x, kernels) -> Tensor:
    """Per-channel 1-D convolution of a (C, W) stack with (C, kw) kernels, zero-padded to length W."""
    x, kernels = _tensor(x), _tensor(kernels)
    xv, kv = x.values, kernels.values
    if xv.ndim != 2 or kv.ndim != 2 or xv.shape[0] != kv.shape[0]:
        raise ValueError(f"depthwise conv shape mismatch: signal {xv.shape}, kernels {kv.shape}")
    channels, width = xv.shape
    kw = kv.shape[1]
    full_len = width + kw - 1
    lo = (kw - 1) // 2
    hi = lo + width
    out = np.empty((channels, width))
    for c in range(channels):
        out[c] = np.convolve(xv[c], kv[c])[lo:hi]

    def pull_x(g):
        grad = np.empty_like(xv)
        for c in range(channels):
            gf = np.zeros(full_len)
            gf[lo:hi] = g[c]
            grad[c] = np.convolve(gf, kv[c][::-1])[kw - 1 : kw - 1 + width]
        return grad

    def pull_k(g):
        grad = np.empty_like(kv)
        for c in range(channels):
            gf = np.zeros(full_len)
            gf[lo:hi] = g[c]
            grad[c] = np.convolve(gf, xv[c][::-1])[width - 1 : width - 1 + kw]
        return grad

    return _emit("conv1d_depthwise", out, (x, kernels), lambda: (pull_x, pull_k))


def conv1d_pointwise(kernels, x) -> Tensor:
    """1×1 channel-mixing convolution: (C_out, C_in) kernels applied to (C_in, W)."""
    kernels, x = _tensor(kernels), _tensor(x)
    kv, xv = kernels.values, x.values
    if kv.ndim != 2 or xv.ndim != 2 or kv.shape[1] != xv.shape[0]:
        raise ValueError(f"pointwise conv shape mismatch: kernels {kv.shape}, signal {xv.shape}")
    return _emit("conv1d_pointwise", kv @ xv, (kernels, x), lambda: (lambda g: g @ xv.T, lambda g: kv.T @ g))


# ---------------------------------------------------------------------------
# backward, gradient checking


def backward(loss: Tensor) -> dict[int, np.ndarray]:
    """Propagate gradients of a scalar loss to every reachable tape node.

    Returns the gradients (node id -> array) of the loss, which is 1, and
    of every leaf it reaches; gradients of shared subexpressions
    accumulate. The pass consumes the tape: a node's pulls, and the arrays
    they hold, are released once run, and an interior node's gradient once
    passed on, so memory falls as the pass proceeds. A second pass over
    the same nodes is an error.
    """
    if loss.tape is None or loss.node is None:
        raise ValueError("loss is not recorded on a tape")
    if loss.values.size != 1:
        raise ValueError(f"loss must be scalar, got shape {loss.values.shape}")
    tape = loss.tape
    grads: dict[int, np.ndarray] = {loss.node: np.ones_like(loss.values)}
    for node in reversed(tape.nodes[: loss.node + 1]):
        pulls, node.pulls = node.pulls, None
        if pulls is None:
            raise ValueError("backward already ran over this tape")
        if not pulls:  # a leaf keeps its gradient
            continue
        g = grads.get(node.id) if node.id == loss.node else grads.pop(node.id, None)
        if g is None:
            continue
        for src, pull in pulls:
            contribution = pull(g)
            seen = grads.get(src)
            grads[src] = contribution if seen is None else seen + contribution
    return grads


def grad_check(function, params, epsilon=1e-6, max_coords_per_param=None, seed=0):
    """Max relative error between analytic and central-difference gradients.

    ``function`` maps a list of tensors to a scalar tensor and must be
    deterministic (checked by evaluating the base point twice).
    ``params`` is a list of arrays; when ``max_coords_per_param`` is set,
    only that many coordinates per parameter are probed (seeded choice),
    otherwise all coordinates are.
    """
    if not (0.0 < epsilon <= 1e-2):
        raise ValueError("epsilon must be in (0, 1e-2]")
    arrays = [
        np.array(p.values if isinstance(p, Tensor) else p, dtype=np.float64) for p in params
    ]

    def evaluate(values):
        out = function([Tensor(v) for v in values])
        return float(out.values)

    base = evaluate(arrays)
    if evaluate(arrays) != base:
        raise ValueError("function is not deterministic between evaluations")

    tape = Tape()
    leafs = [tape.leaf(a) for a in arrays]
    loss = function(leafs)
    # a loss that ignores every parameter never reaches the tape: gradient 0
    grads = backward(loss) if loss.node is not None else {}

    rng = np.random.default_rng(seed)
    worst = 0.0
    for i, arr in enumerate(arrays):
        analytic_full = grads.get(leafs[i].node)
        if analytic_full is None:
            analytic_full = np.zeros_like(arr)
        coords = np.arange(arr.size)
        if max_coords_per_param is not None and arr.size > max_coords_per_param:
            coords = rng.choice(arr.size, size=max_coords_per_param, replace=False)
        flat = arr.reshape(-1)
        for c in coords:
            keep = flat[c]
            flat[c] = keep + epsilon
            f_plus = evaluate(arrays)
            flat[c] = keep - epsilon
            f_minus = evaluate(arrays)
            flat[c] = keep
            numeric = (f_plus - f_minus) / (2.0 * epsilon)
            analytic = float(analytic_full.reshape(-1)[c])
            err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
            if err > worst:
                worst = err
    return worst
