import datetime as dt
import math

import numpy as np
import pytest

from contextrnn import tape as tp
from contextrnn.cells import (
    CELL_FIELDS,
    CellState,
    DRNNCellParams,
    drnn_cell_forward,
    init_cell_arrays,
    new_stack_states,
    stack_step,
    wdrnn_cell_forward,
)
from contextrnn.data import calendar_features
from contextrnn.tape import Tape, Tensor, backward, grad_check


def cell_params(arrays, s_m, s_h):
    return DRNNCellParams(s_m, s_h, **{k: Tensor(v) for k, v in arrays.items()})


def zero_cell(in_width, out_width, s_m, s_h):
    rng = np.random.default_rng(0)
    arrays = {k: np.zeros_like(v) for k, v in init_cell_arrays(rng, in_width, out_width, s_h if s_m else out_width).items()}
    return cell_params(arrays, s_m, s_h)


class TestDRNNCell:
    def test_zero_params_half_gates(self):
        # f = u = o = 0.5 and c~ = 0, so c = 0.25 c_prev + 0.25 c_dil, h' = 0.5 c
        params = zero_cell(2, 3, s_m=0, s_h=3)
        state = CellState(d=2, h_width=3, c_width=3)
        c_dil = np.array([0.4, -0.8, 1.2])
        c_prev = np.array([1.0, 2.0, -3.0])
        state.push(Tensor(np.zeros(3)), Tensor(c_dil))
        state.push(Tensor(np.zeros(3)), Tensor(c_prev))
        y, c = drnn_cell_forward(Tensor(np.array([5.0, -7.0])), state, params)
        np.testing.assert_allclose(c.values, 0.25 * c_prev + 0.25 * c_dil)
        np.testing.assert_allclose(y.values, 0.5 * c.values)

    def test_zero_everything_fixed_point(self):
        rng = np.random.default_rng(1)
        arrays = init_cell_arrays(rng, 2, 3, 3)
        arrays["b"] = np.zeros(4 * 3)
        params = cell_params(arrays, s_m=0, s_h=3)
        state = CellState(d=2, h_width=3, c_width=3)
        y, c = drnn_cell_forward(Tensor(np.zeros(2)), state, params)
        np.testing.assert_allclose(c.values, 0.0, atol=1e-15)
        np.testing.assert_allclose(y.values, 0.0, atol=1e-15)

    def test_split_widths(self):
        params = zero_cell(2, 5, s_m=2, s_h=3)
        state = CellState(d=2, h_width=3, c_width=5)
        (m, h), c = drnn_cell_forward(Tensor(np.zeros(2)), state, params)
        assert m.values.shape == (2,) and h.values.shape == (3,) and c.values.shape == (5,)

    def test_gates_in_unit_interval(self):
        rng = np.random.default_rng(2)
        arrays = init_cell_arrays(rng, 3, 4, 4)
        params = cell_params(arrays, s_m=0, s_h=4)
        state = CellState(d=3, h_width=4, c_width=4)
        for _ in range(20):
            x = Tensor(rng.normal(scale=10.0, size=3))
            y, c = drnn_cell_forward(x, state, params)
            assert np.all(np.isfinite(y.values))
            # state bound: |c_t| <= max(|c_prev|, |c_dil|, 1)
            assert np.all(np.abs(c.values) <= 1.0 + 1e-12)

    def test_six_step_unroll_gradients(self):
        rng = np.random.default_rng(3)
        in_w, s_h = 2, 3
        bottom = init_cell_arrays(rng, in_w, in_w + s_h, s_h)
        names = list(bottom)
        xs = [rng.normal(size=in_w) for _ in range(6)]

        def f(params):
            cell = DRNNCellParams(in_w, s_h, **dict(zip(names, params)))
            state = CellState(d=2, h_width=s_h, c_width=in_w + s_h)
            total = None
            for x in xs:
                (m, h), _ = drnn_cell_forward(Tensor(x), state, cell)
                contrib = tp.mean(tp.concat([m, h]))
                total = contrib if total is None else tp.add(total, contrib)
            return total

        assert grad_check(f, [bottom[n] for n in names], epsilon=1e-5) <= 1e-4


class TestWeightedCell:
    def build(self, rng, in_w=3, s_h=2, top_w=4):
        bottom = cell_params(init_cell_arrays(rng, in_w, in_w + s_h, s_h), in_w, s_h)
        top = cell_params(init_cell_arrays(rng, in_w, top_w, top_w), 0, top_w)
        return bottom, top

    def test_zero_m_passes_raw_input(self):
        rng = np.random.default_rng(4)
        bottom, top = self.build(rng)
        bottom_zero = zero_cell(3, 5, s_m=3, s_h=2)
        x = Tensor(rng.normal(size=3))

        b_state = CellState(2, 2, 5)
        t_state = CellState(2, 4, 4)
        y = wdrnn_cell_forward(x, b_state, t_state, bottom_zero, top)

        # zero bottom params with zero histories: m = o*(c=0) = 0, a = exp(0) = 1
        t_state2 = CellState(2, 4, 4)
        y_direct, _ = drnn_cell_forward(x, t_state2, top)
        np.testing.assert_array_equal(y.values, y_direct.values)

    def test_ln2_slot_doubles_coordinate(self):
        rng = np.random.default_rng(5)
        in_w, s_h = 3, 2
        arrays = {k: np.zeros_like(v) for k, v in init_cell_arrays(rng, in_w, in_w + s_h, s_h).items()}
        # u -> 0 so c = c~; o -> 1; tanh(b_c[0]) = ln 2 in slot 0
        _b_f, b_u, b_o, b_c = np.split(arrays["b"], 4)  # the gates' row blocks, as views
        b_u[:] = -30.0
        b_o[:] = 30.0
        b_c[0] = math.atanh(math.log(2.0))
        bottom = cell_params(arrays, in_w, s_h)
        _, top = self.build(rng)

        x = rng.normal(size=3)
        y = wdrnn_cell_forward(Tensor(x), CellState(2, s_h, in_w + s_h), CellState(2, 4, 4), bottom, top)
        doubled = x.copy()
        doubled[0] *= 2.0
        y_direct, _ = drnn_cell_forward(Tensor(doubled), CellState(2, 4, 4), top)
        np.testing.assert_allclose(y.values, y_direct.values, atol=1e-9)

    def test_weights_always_positive(self):
        rng = np.random.default_rng(6)
        bottom, top = self.build(rng)
        b_state = CellState(2, 2, 5)
        for _ in range(10):
            x = Tensor(rng.normal(scale=5.0, size=3))
            (m, _), _ = drnn_cell_forward(x, b_state, bottom)
            assert np.all(np.exp(m.values) > 0.0)

    def test_input_width_mismatch(self):
        rng = np.random.default_rng(7)
        bottom, top = self.build(rng)
        with pytest.raises(ValueError, match="slots"):
            wdrnn_cell_forward(Tensor(np.zeros(4)), CellState(2, 2, 5), CellState(2, 4, 4), bottom, top)


def run_stack(xs, layers, dilations):
    """Fresh states, then one stack_step per input: the path the model's sweep runs."""
    states = new_stack_states(layers, dilations)
    return [stack_step(x, states, layers) for x in xs]


def layer_arrays(rng, in_width, hidden, s_h, dilations, zero_from=None):
    """(bottom, top) cell arrays of each layer of a stack."""
    layers = []
    for i, _d in enumerate(dilations):
        width = in_width if i == 0 else hidden
        bottom_arr = init_cell_arrays(rng, width, width + s_h, s_h)
        top_arr = init_cell_arrays(rng, width, hidden, hidden)
        if zero_from is not None and i >= zero_from:
            bottom_arr = {k: np.zeros_like(v) for k, v in bottom_arr.items()}
            top_arr = {k: np.zeros_like(v) for k, v in top_arr.items()}
        layers.append((bottom_arr, top_arr))
    return layers


def stack_cells(layers, s_h):
    """Cell parameters of (bottom, top) arrays per layer; a bottom cell weights its whole input."""
    return [
        (cell_params(bottom, bottom["W"].shape[1], s_h), cell_params(top, 0, top["V"].shape[1]))
        for bottom, top in layers
    ]


def build_layers(rng, in_width, hidden, s_h, dilations, zero_from=None):
    return stack_cells(layer_arrays(rng, in_width, hidden, s_h, dilations, zero_from), s_h)


class TestStack:
    def test_single_zero_layer_outputs_zero(self):
        rng = np.random.default_rng(8)
        layers = build_layers(rng, 3, 4, 2, [2], zero_from=0)
        xs = [Tensor(rng.normal(size=3)) for _ in range(5)]
        for y in run_stack(xs, layers, [2]):
            np.testing.assert_allclose(y.values, 0.0, atol=1e-15)

    def test_residual_passthrough(self):
        rng = np.random.default_rng(9)
        layers = build_layers(rng, 3, 4, 2, [2, 4], zero_from=1)
        xs = [Tensor(rng.normal(size=3)) for _ in range(6)]
        two = run_stack(xs, layers, [2, 4])
        one = run_stack(xs, layers[:1], [2])
        for a, b in zip(two, one):
            np.testing.assert_allclose(a.values, b.values, atol=1e-15)

    def test_receptive_field_spans_dilation_sum(self):
        # dilations [2,6,12,24]: gradient reaches an input 45 steps back
        rng = np.random.default_rng(10)
        dilations = [2, 6, 12, 24]
        layers = build_layers(rng, 3, 3, 2, dilations)
        T = 46
        tape = Tape()
        xs = [tape.leaf(rng.normal(size=3)) for _ in range(T)]
        states = new_stack_states(layers, dilations)
        out = None
        for x in xs:
            out = stack_step(x, states, layers)
        grads = backward(tp.mean(out))
        target = grads.get(xs[T - 1 - 45].node)
        assert target is not None and np.any(target != 0.0)

    def test_twenty_step_stack_gradients(self):
        rng = np.random.default_rng(14)
        dilations = [1, 2]
        layers = layer_arrays(rng, 3, 8, 8, dilations)
        cells = stack_cells(layers, 8)
        keys = [(i, part, field) for i in range(len(layers)) for part in (0, 1) for field in CELL_FIELDS]
        arrays = [layers[i][part][field] for i, part, field in keys]
        xs = [rng.normal(size=3) for _ in range(20)]

        def f(params):
            lookup = dict(zip(keys, params))
            rebuilt = []
            for i, (bottom, top) in enumerate(cells):
                b = DRNNCellParams(bottom.s_m, bottom.s_h, **{f: lookup[(i, 0, f)] for f in CELL_FIELDS})
                t = DRNNCellParams(0, top.s_h, **{f: lookup[(i, 1, f)] for f in CELL_FIELDS})
                rebuilt.append((b, t))
            out = run_stack([Tensor(x) for x in xs], rebuilt, dilations)
            total = None
            for y in out:
                m = tp.mean(y)
                total = m if total is None else tp.add(total, m)
            return total

        # 16 coordinates of each fused array, 64 per cell; a step of 1e-4 keeps the
        # central difference of the smallest probed gradients clear of the loss's rounding
        err = grad_check(f, arrays, epsilon=1e-4, max_coords_per_param=16, seed=3)
        assert err <= 1e-4, f"stack unroll gradient error {err:.2e}"

    def test_deterministic_forward(self):
        rng_values = np.random.default_rng(11).normal(size=(5, 3))

        def run():
            rng = np.random.default_rng(123)
            layers = build_layers(rng, 3, 4, 2, [1, 2])
            return [y.values.copy() for y in run_stack([Tensor(v) for v in rng_values], layers, [1, 2])]

        for a, b in zip(run(), run()):
            np.testing.assert_array_equal(a, b)


class TestCalendarEmbedding:
    """The sweep embeds a calendar block as ``tp.matmul(calendar_features(stamp), embedding)``."""

    def test_zero_matrix(self):
        onehot = calendar_features(dt.datetime(2015, 6, 1, 0, 0))
        out = tp.matmul(onehot, Tensor(np.zeros((74, 8))))
        np.testing.assert_array_equal(out.values, 0.0)

    def test_row_sum_indices(self):
        rng = np.random.default_rng(12)
        matrix = rng.normal(size=(74, 8))
        onehot = calendar_features(dt.datetime(2018, 1, 1, 0))  # a Monday: groups (0, 0, 0, 0)
        out = tp.matmul(onehot, Tensor(matrix))
        np.testing.assert_allclose(out.values, matrix[0] + matrix[24] + matrix[31] + matrix[62])

    def test_hour_difference_is_row_difference(self):
        rng = np.random.default_rng(13)
        matrix = rng.normal(size=(74, 8))
        a = tp.matmul(calendar_features(dt.datetime(2021, 3, 5, 7)), Tensor(matrix))
        b = tp.matmul(calendar_features(dt.datetime(2021, 3, 5, 9)), Tensor(matrix))
        np.testing.assert_allclose(a.values - b.values, matrix[7] - matrix[9], atol=1e-12)
