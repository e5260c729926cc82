"""Tour of the tape-based autodiff engine.

The forecaster differentiates through every moving part: smoothing
recursions, DFT feature stacks, conv blocks and recurrent cells. This
script shows the raw machinery those modules are built on.
"""

import numpy as np

from contextrnn import tape as tp
from contextrnn.tape import Tape, Tensor, backward, grad_check

# --- forward math with constants: nothing is recorded -----------------------
x = Tensor([1.0, 2.0, 3.0])
y = tp.mul(x, x)
print("x * x          ->", y.values, "(constant, no tape)")

# --- the same math on a tape: every primitive becomes a node ----------------
tape = Tape()
w = tape.leaf(np.array([0.5, -1.0, 2.0]))
loss = tp.mean(tp.mul(w, w))
print("mean(w*w)      ->", float(loss.values))
print("tape holds     ->", len(tape.nodes), "nodes")

grads = backward(loss)
print("d/dw           ->", grads[w.node], "(= 2w/3)")

# gradients of shared subexpressions accumulate
tape = Tape()
a = tape.leaf(2.0)
square = tp.mul(a, a)
doubled = tp.add(square, square)
print("d(2a^2)/da     ->", float(backward(doubled)[a.node]), "(= 4a)")

# --- gradient checking: the analytic engine vs central differences ----------
rng = np.random.default_rng(0)
signal = rng.normal(size=(2, 16))


def conv_loss(params):
    smoothed = tp.conv1d_depthwise(Tensor(signal), params[0])
    return tp.mean(tp.tanh(smoothed))


err = grad_check(conv_loss, [rng.normal(size=(2, 3))], epsilon=1e-5)
print(f"conv kernel gradient vs finite differences: max rel err {err:.2e}")

# --- sigmoid/pinball building blocks used by the training loss --------------
print("sigmoid(0)     ->", tp.sigmoid(Tensor(0.0)).item())
print("exp(0)         ->", tp.exp(Tensor(0.0)).item())
