"""Per-timestep context vector production.

Each context series' preprocessed window is expanded into a five-channel
stack (DFT real, imaginary, magnitude, phase, plus the raw window), pushed
through two depthwise/pointwise conv blocks with projected residuals, and
reduced to ``u`` context values plus smoothing corrections for that
series' own decomposition. The per-series vectors concatenate into the
shared context vector, which each target series modulates elementwise
with its learnable gain vector.

The DFT is expressed with cos/sin matrix products so gradients flow back
into the window (and from there into the smoothing parameters).
"""

from __future__ import annotations

import numpy as np

from . import tape as tp
from .tape import Tensor

__all__ = [
    "fft_features",
    "context_conv_forward",
    "assemble_context",
    "modulate",
    "init_conv_arrays",
]

STACK_CHANNELS = 5

_dft_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _dft_matrices(width: int):
    got = _dft_cache.get(width)
    if got is None:
        k = np.arange(width)
        angles = 2.0 * np.pi * np.outer(k, k) / width
        got = (np.cos(angles), -np.sin(angles))
        _dft_cache[width] = got
    return got


def fft_features(x_in: Tensor) -> Tensor:
    """Stack [Re, Im, |X|, phase, x] of the full-length DFT, shape (5, W).

    Phase is atan2(Im, Re) in (-pi, pi]. All channels have length W so the
    conv stack needs no per-channel bookkeeping.
    """
    x_in = x_in if isinstance(x_in, Tensor) else Tensor(x_in)
    width = x_in.values.shape[0]
    if width < 2:
        raise ValueError("DFT features need a window of at least 2 points")
    cos_m, sin_m = _dft_matrices(width)
    re = tp.matmul(Tensor(cos_m), x_in)
    im = tp.matmul(Tensor(sin_m), x_in)
    mag = tp.hypot(re, im)
    phase = tp.atan2(im, re)
    rows = [tp.reshape(ch, (1, width)) for ch in (re, im, mag, phase, x_in)]
    return tp.concat(rows, axis=0)


def init_conv_arrays(rng, window: int, u: int, channels: int = 8, kernel: int = 3) -> dict:
    """Fresh weights of the two conv blocks and the final linear reduction, by name.

    Weights are uniform ±1/sqrt(fan_in), biases zero. Shapes (c = ``channels``,
    k = ``kernel``, W = ``window``): dw1 (5, k), pw1 (c, 5), pw1_b (c, 1),
    proj1 (c, 5), dw2 (c, k), pw2 (c, c), pw2_b (c, 1), proj2 (c, c),
    red_w (u + 2, c·W), red_b (u + 2,).
    """
    def uniform(shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, shape)

    return {
        "dw1": uniform((STACK_CHANNELS, kernel), kernel),
        "pw1": uniform((channels, STACK_CHANNELS), STACK_CHANNELS),
        "pw1_b": np.zeros((channels, 1)),
        "proj1": uniform((channels, STACK_CHANNELS), STACK_CHANNELS),
        "dw2": uniform((channels, kernel), kernel),
        "pw2": uniform((channels, channels), channels),
        "pw2_b": np.zeros((channels, 1)),
        "proj2": uniform((channels, channels), channels),
        "red_w": uniform((u + 2, channels * window), channels * window),
        "red_b": np.zeros(u + 2),
    }


def _block(stack: Tensor, dw: Tensor, pw: Tensor, bias: Tensor, proj: Tensor) -> Tensor:
    conv = tp.conv1d_depthwise(stack, dw)
    mixed = tp.add(tp.conv1d_pointwise(pw, conv), bias)
    return tp.add(tp.relu(mixed), tp.conv1d_pointwise(proj, stack))


def context_conv_forward(stack: Tensor, params: dict):
    """(u context values, delta_alpha, delta_beta) for one context series.

    ``params`` holds tensors keyed and shaped as :func:`init_conv_arrays` returns them.
    """
    channels, width = stack.values.shape
    if channels != STACK_CHANNELS:
        raise ValueError(f"expected a {STACK_CHANNELS}-channel stack, got {channels}")
    block1 = _block(stack, params["dw1"], params["pw1"], params["pw1_b"], params["proj1"])
    block2 = _block(block1, params["dw2"], params["pw2"], params["pw2_b"], params["proj2"])
    flat = tp.reshape(block2, (block2.values.size,))
    out = tp.add(tp.matmul(params["red_w"], flat), params["red_b"])
    u = out.values.shape[0] - 2
    r = tp.slice_(out, 0, u)
    dalpha = tp.slice_(out, u, u + 1)
    dbeta = tp.slice_(out, u + 1, u + 2)
    return r, dalpha, dbeta


def assemble_context(per_series) -> Tensor:
    """Concatenate K per-series vectors in context-batch order (length u·K)."""
    if not per_series:
        raise ValueError("no context vectors to assemble")
    return tp.concat(list(per_series), axis=0)


def modulate(r: Tensor, g: Tensor) -> Tensor:
    """Elementwise product of the shared context with per-series gains (a vector, or one row per series)."""
    if r.values.shape[-1:] != g.values.shape[-1:]:
        raise ValueError(f"context/gain length mismatch: {r.values.shape} vs {g.values.shape}")
    return tp.mul(r, g)
