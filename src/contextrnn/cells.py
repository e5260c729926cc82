"""Weighted dilated RNN cells and the stacked recurrent backbone.

A dilated cell reads its controlling state at offsets 1 (recent) and d
(dilated) and mixes the two cell-state histories with a fusion gate. A
weighted cell couples two of them: the bottom cell's m-slots pass through
exp() to re-weight the input coordinates before the top cell sees them.
Layers above the first add an identity residual, so all layer outputs
share one width.

Inputs and states carry features on their last axis, so a ``(B, width)``
batch of series runs through the same ops as a single ``(width,)`` input
and records the same tape nodes. A cell stores its four gates per kind
as one ``(4·out, in)`` matrix, as ``torch.nn.LSTM`` does, so a step is
three matrix products.
"""

from __future__ import annotations

import numpy as np

from . import tape as tp
from .tape import Tensor

__all__ = [
    "DRNNCellParams",
    "CellState",
    "LayerState",
    "drnn_cell_forward",
    "wdrnn_cell_forward",
    "stack_step",
    "new_stack_states",
    "blend_rows",
    "embed_calendar",
    "init_cell_arrays",
    "CELL_FIELDS",
]

GATE_NAMES = ("f", "u", "o", "c")

CELL_FIELDS = ("W", "V", "U", "b")


class DRNNCellParams:
    """Gate weights of one dilated cell.

    ``W`` maps the input, ``V`` the recent controlling state and ``U`` the
    dilated controlling state; ``b`` is the bias. Each holds the four gates
    as row blocks in f, u, o, c order: ``W`` is ``(4·out, in)``, ``V`` and
    ``U`` are ``(4·out, h)`` and ``b`` is ``(4·out,)``. The matrices are
    kept as their transposes, one view each, so a step multiplies by them
    from the right. ``s_m`` > 0 marks a splitting (bottom) cell whose output
    divides into m (first s_m slots) and the controlling state h (next s_h
    slots); with ``s_m`` == 0 the full output serves as both y and h.
    """

    __slots__ = ("s_m", "s_h") + CELL_FIELDS

    def __init__(self, s_m: int, s_h: int, W: Tensor, V: Tensor, U: Tensor, b: Tensor):
        self.s_m = s_m
        self.s_h = s_h
        self.W, self.V, self.U = (tp.transpose(m) for m in (W, V, U))
        self.b = b
        out = self.out_width
        if s_m and out != s_m + s_h:
            raise ValueError(f"split cell output width {out} != s_m + s_h = {s_m + s_h}")

    @property
    def out_width(self) -> int:
        return self.b.values.shape[0] // len(GATE_NAMES)

    @property
    def in_width(self) -> int:
        return self.W.values.shape[0]


def init_cell_arrays(rng, in_width: int, out_width: int, h_width: int) -> dict:
    """Uniform ±1/sqrt(fan_in) weights per gate matrix, zero biases.

    Gates are drawn one after another, W, V and U of each, in the order the
    model file format fixes, and stacked into the fused arrays.
    """
    def uniform(rows, cols):
        bound = 1.0 / np.sqrt(cols)
        return rng.uniform(-bound, bound, (rows, cols))

    draws = [
        (uniform(out_width, in_width), uniform(out_width, h_width), uniform(out_width, h_width)) for _ in GATE_NAMES
    ]
    arrays = {kind: np.concatenate(blocks) for kind, blocks in zip(("W", "V", "U"), zip(*draws))}
    arrays["b"] = np.zeros(len(GATE_NAMES) * out_width)
    return arrays


def blend_rows(take, new: Tensor, old: Tensor) -> Tensor:
    """``new`` where ``take`` holds, else ``old``; ``take`` is a bool array broadcast against both.

    Written as take·new + (1 - take)·old, which is exact for finite values,
    so a held row keeps its bits.
    """
    weight = take.astype(np.float64)
    return tp.add(tp.mul(Tensor(weight), new), tp.mul(Tensor(1.0 - weight), old))


class CellState:
    """Ring buffers of the last d controlling states and cell states.

    The rings start as zero vectors, which broadcast against a batch; once
    pushed, an entry holds one row per series.
    """

    __slots__ = ("d", "h_history", "c_history")

    def __init__(self, d: int, h_width: int, c_width: int):
        if d < 1:
            raise ValueError("dilation must be at least 1")
        self.d = d
        self.h_history = [Tensor(np.zeros(h_width)) for _ in range(d)]
        self.c_history = [Tensor(np.zeros(c_width)) for _ in range(d)]

    def read(self, offset: int):
        """(h, c) as of ``offset`` steps ago; offset 1 = most recent."""
        if not (1 <= offset <= self.d):
            raise ValueError(f"offset {offset} outside history of depth {self.d}")
        return self.h_history[-offset], self.c_history[-offset]

    def push(self, h: Tensor, c: Tensor, advance=None):
        """Append (h, c) and drop the oldest entry.

        ``advance`` (bool per batch row, or None for all) marks the rows
        that take the push; every other row keeps its history exactly,
        each slot blended row by row between the shifted and the held ring.
        """
        if advance is None or advance.all():
            self.h_history = self.h_history[1:] + [h]
            self.c_history = self.c_history[1:] + [c]
            return
        rows = advance[:, None]
        self.h_history = [blend_rows(rows, s, r) for s, r in zip(self.h_history[1:] + [h], self.h_history)]
        self.c_history = [blend_rows(rows, s, r) for s, r in zip(self.c_history[1:] + [c], self.c_history)]

    def detach(self):
        self.h_history = [t.detach() for t in self.h_history]
        self.c_history = [t.detach() for t in self.c_history]


def drnn_cell_forward(x: Tensor, state: CellState, params: DRNNCellParams, advance=None):
    """One step of a dilated cell; returns ((m, h) or y, c).

    c_t = u*(f*c_{t-1} + (1-f)*c_{t-d}) + (1-u)*c~ and h' = o*c_t; the
    split depends on params.s_m. New h and c are pushed onto the state
    (for the rows in ``advance``, see :meth:`CellState.push`).
    """
    if x.values.shape[-1] != params.in_width:
        raise ValueError(f"cell expects input of width {params.in_width}, got {x.values.shape}")
    h_prev, c_prev = state.read(1)
    h_dil, c_dil = state.read(state.d)
    pre = tp.add(
        tp.add(tp.matmul(x, params.W), tp.matmul(h_prev, params.V)),
        tp.add(tp.matmul(h_dil, params.U), params.b),
    )
    out_w = params.out_width
    gates = tp.sigmoid(tp.slice_(pre, 0, 3 * out_w, axis=-1))
    f, u, o = (tp.slice_(gates, i * out_w, (i + 1) * out_w, axis=-1) for i in range(3))
    c_cand = tp.tanh(tp.slice_(pre, 3 * out_w, 4 * out_w, axis=-1))
    # f*c_prev + (1-f)*c_dil, written so that equal histories (d = 1) mix exactly
    mixed = tp.add(c_dil, tp.mul(f, tp.sub(c_prev, c_dil)))
    c = tp.add(tp.mul(u, mixed), tp.mul(tp.sub(1.0, u), c_cand))
    h_full = tp.mul(o, c)
    if params.s_m:
        m = tp.slice_(h_full, 0, params.s_m, axis=-1)
        h = tp.slice_(h_full, params.s_m, params.s_m + params.s_h, axis=-1)
        out = (m, h)
    else:
        h = h_full
        out = h_full
    state.push(h, c, advance)
    return out, c


def wdrnn_cell_forward(x, bottom_state, top_state, bottom_params, top_params, advance=None) -> Tensor:
    """Two coupled cells: exp(m) from the bottom cell re-weights the top input."""
    if bottom_params.s_m != x.values.shape[-1]:
        raise ValueError(
            f"bottom cell weights {bottom_params.s_m} slots but input has {x.values.shape[-1]}"
        )
    (m, _h), _c = drnn_cell_forward(x, bottom_state, bottom_params, advance)
    weights = tp.exp(m)
    weighted = tp.mul(weights, x)
    y, _c2 = drnn_cell_forward(weighted, top_state, top_params, advance)
    return y


class LayerState:
    """States of one weighted cell (bottom + top) at one dilation."""

    __slots__ = ("bottom", "top")

    def __init__(self, dilation: int, bottom_params: DRNNCellParams, top_params: DRNNCellParams):
        self.bottom = CellState(dilation, bottom_params.s_h, bottom_params.out_width)
        self.top = CellState(dilation, top_params.out_width, top_params.out_width)

    def detach(self):
        self.bottom.detach()
        self.top.detach()


def stack_step(x: Tensor, states, layer_params, advance=None) -> Tensor:
    """Advance every layer one step; identity residuals from layer 2 upward.

    ``advance`` marks the batch rows whose histories take this step; the
    other rows' outputs are computed but their states are held.
    """
    out = x
    for i, (bottom, top) in enumerate(layer_params):
        y = wdrnn_cell_forward(out, states[i].bottom, states[i].top, bottom, top, advance)
        out = y if i == 0 else tp.add(y, out)
    return out


def new_stack_states(layer_params, dilations):
    if len(layer_params) != len(dilations):
        raise ValueError("one dilation per layer required")
    return [LayerState(d, bottom, top) for d, (bottom, top) in zip(dilations, layer_params)]


def embed_calendar(onehot, embedding: Tensor) -> Tensor:
    """Project 74-dim calendar one-hot blocks (one, or one row each) through a 74×8 embedding."""
    onehot = onehot if isinstance(onehot, Tensor) else Tensor(onehot)
    if onehot.values.ndim > 2 or onehot.values.shape[-1] != embedding.values.shape[0]:
        raise ValueError("calendar block width does not match the embedding")
    marks = onehot.values.sum(axis=-1)
    if np.any(marks != 4.0) or not set(np.unique(onehot.values)) <= {0.0, 1.0}:
        raise ValueError("calendar block must be four concatenated one-hot groups")
    return tp.matmul(onehot, embedding)
