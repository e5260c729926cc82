"""Frequency-domain feature stacks and the context conv track.

Every context series window becomes a five-channel stack: DFT real and
imaginary parts, magnitude, phase, and the raw window. Two depthwise +
pointwise conv blocks with projected residuals reduce it to a small
context contribution plus smoothing corrections.
"""

import numpy as np

from contextrnn.context_track import (
    assemble_context,
    context_conv_forward,
    fft_features,
    init_conv_arrays,
    modulate,
)
from contextrnn.tape import Tensor

W = 16
t = np.arange(W)

# a pure cosine concentrates its magnitude at bins k and W-k
x = np.cos(2 * np.pi * 3 * t / W)
stack = fft_features(Tensor(x))
mag = stack.values[2]
print("channels:", stack.values.shape, "-> [Re, Im, |X|, phase, raw]")
print("magnitude peaks at bins:", np.flatnonzero(mag > 1.0).tolist(), "(expected [3, 13])")

# Parseval: spectral power equals W times signal power
print("sum |X|^2 =", round(float((mag**2).sum()), 3), " W*sum x^2 =", round(W * float((x**2).sum()), 3))

# the conv stack maps a stack to u context values + two smoothing corrections
rng = np.random.default_rng(0)
params = {k: Tensor(v) for k, v in init_conv_arrays(rng, W, u=2).items()}
r, d_alpha, d_beta = context_conv_forward(stack, params)
print("context r      ->", np.round(r.values, 4))
print("corrections    ->", round(d_alpha.values[0], 4), round(d_beta.values[0], 4))

# per-series gains modulate the shared context vector
shared = assemble_context([r, Tensor([0.5, -0.25])])
gains = Tensor([1.0, 1.0, 2.0, 0.0])
print("shared context ->", np.round(shared.values, 4))
print("modulated      ->", np.round(modulate(shared, gains).values, 4))
