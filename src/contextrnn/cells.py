"""Weighted dilated RNN cells and the stacked recurrent backbone.

A dilated cell reads its controlling state at offsets 1 (recent) and d
(dilated) and mixes the two cell-state histories with a fusion gate. A
weighted cell couples two of them: the bottom cell's m-slots pass through
exp() to re-weight the input coordinates before the top cell sees them.
Layers above the first add an identity residual, so all layer outputs
share one width.
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
    "embed_calendar",
    "init_cell_arrays",
    "CELL_FIELDS",
]

GATE_NAMES = ("f", "u", "o", "c")

CELL_FIELDS = tuple(
    f"{kind}_{gate}" for kind in ("W", "V", "U") for gate in GATE_NAMES
) + tuple(f"b_{gate}" for gate in GATE_NAMES)


class DRNNCellParams:
    """Gate weights of one dilated cell.

    W_* map the input, V_* the recent controlling state, U_* the dilated
    controlling state; b_* are biases. ``s_m`` > 0 marks a splitting
    (bottom) cell whose output divides into m (first s_m slots) and the
    controlling state h (next s_h slots); with ``s_m`` == 0 the full
    output serves as both y and h.
    """

    __slots__ = CELL_FIELDS + ("s_m", "s_h")

    def __init__(self, s_m: int, s_h: int, **tensors):
        self.s_m = s_m
        self.s_h = s_h
        for name in CELL_FIELDS:
            setattr(self, name, tensors[name])
        out = self.W_f.values.shape[0]
        if s_m and out != s_m + s_h:
            raise ValueError(f"split cell output width {out} != s_m + s_h = {s_m + s_h}")

    @property
    def out_width(self) -> int:
        return self.W_f.values.shape[0]

    @property
    def in_width(self) -> int:
        return self.W_f.values.shape[1]


def init_cell_arrays(rng, in_width: int, out_width: int, h_width: int) -> dict:
    """Uniform ±1/sqrt(fan_in) weights per matrix, zero biases."""
    def uniform(rows, cols):
        bound = 1.0 / np.sqrt(cols)
        return rng.uniform(-bound, bound, (rows, cols))

    arrays = {}
    for gate in GATE_NAMES:
        arrays[f"W_{gate}"] = uniform(out_width, in_width)
        arrays[f"V_{gate}"] = uniform(out_width, h_width)
        arrays[f"U_{gate}"] = uniform(out_width, h_width)
        arrays[f"b_{gate}"] = np.zeros(out_width)
    return arrays


class CellState:
    """Ring buffers of the last d controlling states and cell states."""

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

    def push(self, h: Tensor, c: Tensor):
        self.h_history.append(h)
        self.c_history.append(c)
        del self.h_history[0]
        del self.c_history[0]

    def detach(self):
        self.h_history = [t.detach() for t in self.h_history]
        self.c_history = [t.detach() for t in self.c_history]


def _gate(params, gate, x, h_prev, h_dil):
    pre = tp.add(
        tp.add(tp.matmul(getattr(params, f"W_{gate}"), x), tp.matmul(getattr(params, f"V_{gate}"), h_prev)),
        tp.add(tp.matmul(getattr(params, f"U_{gate}"), h_dil), getattr(params, f"b_{gate}")),
    )
    return tp.tanh(pre) if gate == "c" else tp.sigmoid(pre)


def drnn_cell_forward(x: Tensor, state: CellState, params: DRNNCellParams):
    """One step of a dilated cell; returns ((m, h) or y, c).

    c_t = u*(f*c_{t-1} + (1-f)*c_{t-d}) + (1-u)*c~ and h' = o*c_t; the
    split depends on params.s_m. New h and c are pushed onto the state.
    """
    if x.values.shape != (params.in_width,):
        raise ValueError(f"cell expects input of width {params.in_width}, got {x.values.shape}")
    h_prev, c_prev = state.read(1)
    h_dil, c_dil = state.read(state.d)
    f = _gate(params, "f", x, h_prev, h_dil)
    u = _gate(params, "u", x, h_prev, h_dil)
    o = _gate(params, "o", x, h_prev, h_dil)
    c_cand = _gate(params, "c", x, h_prev, h_dil)
    mixed = tp.add(tp.mul(f, c_prev), tp.mul(tp.sub(1.0, f), c_dil))
    c = tp.add(tp.mul(u, mixed), tp.mul(tp.sub(1.0, u), c_cand))
    h_full = tp.mul(o, c)
    if params.s_m:
        m = tp.slice_(h_full, 0, params.s_m)
        h = tp.slice_(h_full, params.s_m, params.s_m + params.s_h)
        out = (m, h)
    else:
        h = h_full
        out = h_full
    state.push(h, c)
    return out, c


def wdrnn_cell_forward(x, bottom_state, top_state, bottom_params, top_params) -> Tensor:
    """Two coupled cells: exp(m) from the bottom cell re-weights the top input."""
    if bottom_params.s_m != x.values.shape[0]:
        raise ValueError(
            f"bottom cell weights {bottom_params.s_m} slots but input has {x.values.shape[0]}"
        )
    (m, _h), _c = drnn_cell_forward(x, bottom_state, bottom_params)
    weights = tp.exp(m)
    weighted = tp.mul(weights, x)
    y, _c2 = drnn_cell_forward(weighted, top_state, top_params)
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


def stack_step(x: Tensor, states, layer_params) -> Tensor:
    """Advance every layer one step; identity residuals from layer 2 upward."""
    out = x
    for i, (bottom, top) in enumerate(layer_params):
        y = wdrnn_cell_forward(out, states[i].bottom, states[i].top, bottom, top)
        out = y if i == 0 else tp.add(y, out)
    return out


def new_stack_states(layer_params, dilations):
    if len(layer_params) != len(dilations):
        raise ValueError("one dilation per layer required")
    return [LayerState(d, bottom, top) for d, (bottom, top) in zip(dilations, layer_params)]


def embed_calendar(onehot, embedding: Tensor) -> Tensor:
    """Project the 74-dim calendar one-hot block through a 74×8 embedding."""
    onehot = onehot if isinstance(onehot, Tensor) else Tensor(onehot)
    if onehot.values.shape != (embedding.values.shape[0],):
        raise ValueError("calendar block width does not match the embedding")
    marks = onehot.values.sum()
    if marks != 4.0 or not set(np.unique(onehot.values)) <= {0.0, 1.0}:
        raise ValueError("calendar block must be four concatenated one-hot groups")
    return tp.matmul(onehot, embedding)
