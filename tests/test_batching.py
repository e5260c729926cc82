"""The batched sweep gives every series what it would get alone, and its gradients on gaps are right.

A batch of one never blends: its only row is skipped or used as a whole.
So comparing a batch of all series with one sweep per series checks the
row blends (smoothing steps with some rows missing, cell histories held
for skipped windows, held smoothing corrections) against the plain rules.
A finite-difference check of the whole sweep on a gapped batch checks the
gradients that flow through those blends.
"""

import numpy as np
import pytest

from contextrnn import tape as tp
from contextrnn.config import TrainConfig
from contextrnn.data import SeriesPanel, SynthSpec, synth_generate
from contextrnn.metrics import forecast_matrices
from contextrnn.model import (
    _anchor_grid,
    _forecasts,
    _mean_loss,
    _Sweep,
    _Views,
    init_model,
    predict,
    rolling_forecast,
    validation_loss,
)
from contextrnn.selection import ContextMap
from contextrnn.tape import Tensor, grad_check

REL = 1e-10


def gapped_panel():
    base = synth_generate(
        SynthSpec(n=4, T=120, edges=((0, 1), (0, 2)), coupling=1.0, lag=1, noise_sigma=0.05, seasonal_period=8),
        seed=2,
    )
    mask = np.ones((base.n, base.T), dtype=bool)
    mask[2, 4:14] = False  # skipped windows at the first anchors, while the cell rings still hold their zeros
    mask[2, 58:70] = False  # and skipped again later, with the rings full
    mask[0, 33] = False  # a missing smoothing step in a context (and main) series
    mask[3, [41, 45]] = False  # missing smoothing steps in a main series
    mask[1, 101] = False  # a dropped target window (anchors 100 and 98 .. 101)
    mask[:, 90] = False  # a step every series misses
    values = base.values.copy()
    values[~mask] = 0.0
    return SeriesPanel(values, base.timestamps, mask, base.frequency)


def gapped_model():
    cfg = TrainConfig(
        epochs=1, batch_schedule={1: 4}, lr_schedule={1: 1e-3},
        window=16, horizon=4, period=8, dilations=(1, 2), context_size=2, context_batch=2,
        state_width=6, hidden_width=8, conv_channels=4, stride=2, steps_per_update=100, seed=3,
    )
    cm = ContextMap({0: (1, 2), 1: (0, 2), 2: (0, 1), 3: (0, 1)}, (0, 1), S=2, K=2)
    params = init_model(cfg, 4, cm)
    rng = np.random.default_rng(9)
    # per-series tables that differ by row, so a row picked out of order shows
    params.arrays["modulation"][...] = rng.uniform(0.5, 1.5, params.arrays["modulation"].shape)
    params.arrays["main_alpha_logit"][...] = rng.uniform(-3.0, 0.0, 4)
    params.arrays["main_beta_logit"][...] = rng.uniform(-3.0, 0.0, 4)
    return params


def assert_same_forecasts(got, want):
    assert sorted(got) == sorted(want)
    for t in want:
        assert sorted(got[t]) == sorted(want[t]), f"anchor {t}"
        for sid in want[t]:
            for a, b in zip(got[t][sid], want[t][sid]):
                np.testing.assert_allclose(a, b, rtol=REL, atol=0.0)


def test_panel_has_every_gap_kind():
    panel, params = gapped_panel(), gapped_model()
    sweep = _Sweep(panel, params, range(panel.n))
    sweep.set_views(_Views(params))
    skipped = []
    for t in _anchor_grid(panel, params.config):
        sweep.advance_to(t)
        result = sweep.step(t)
        skipped.append(result is not None and not result.usable.all())
    assert any(skipped) and sweep.skipped_windows > 0


def test_rolling_forecast_matches_one_series_at_a_time():
    panel, params = gapped_panel(), gapped_model()
    batched = rolling_forecast(params, panel, emit_from=0)
    alone = {}
    for sid in range(panel.n):
        for t, rows in rolling_forecast(params, panel, emit_from=0, series=[sid]).items():
            alone.setdefault(t, {}).update(rows)
    assert_same_forecasts(batched, alone)
    assert any(2 not in rows for rows in batched.values())  # series 2 skipped somewhere


def test_batch_order_does_not_matter():
    panel, params = gapped_panel(), gapped_model()
    assert_same_forecasts(rolling_forecast(params, panel, 0, series=[3, 1, 0, 2]), rolling_forecast(params, panel, 0))


def loss_and_terms(params, panel, series):
    sweep = _Sweep(panel, params, series)
    sweep.set_views(_Views(params))
    terms = []
    for t in _anchor_grid(panel, params.config):
        sweep.advance_to(t)
        got = sweep.loss_terms(t, sweep.step(t))
        if got is not None:
            terms.append(got)
    loss, count = _mean_loss(params.config, terms)
    return float(loss.values), count


def test_validation_loss_matches_one_series_at_a_time():
    panel, params = gapped_panel(), gapped_model()
    per_series = [loss_and_terms(params, panel, [sid]) for sid in range(panel.n)]
    total_terms = sum(count for _, count in per_series)
    grid = _anchor_grid(panel, params.config)
    assert total_terms < panel.n * len(grid)  # some terms dropped
    want = sum(loss * count for loss, count in per_series) / total_terms
    assert validation_loss(params, panel) == pytest.approx(want, rel=REL, abs=0.0)


def test_forecast_matrices_equal_a_sweep_to_the_panel_end():
    # the sweep is causal, so stopping at the last whole target window
    # changes no scored forecast: compare with a sweep over every anchor up
    # to T, scored by the protocol's rule
    panel, params = gapped_panel(), gapped_model()
    fh, emit_from = params.config.horizon, 40
    full = _forecasts(params, panel, range(panel.n), range(params.config.first_anchor, panel.T + 1, params.config.stride), emit_from)
    assert max(full) == panel.T > panel.T - fh
    predicted, actual = forecast_matrices(params, panel, emit_from)
    assert predicted.shape[0] == panel.n
    for sid in range(panel.n):
        scored = [t for t in sorted(full)
                  if t + fh <= panel.T and sid in full[t] and panel.mask[sid, t : t + fh].all()]
        want_pred = np.array([full[t][sid][0] for t in scored])
        want_act = np.array([panel.values[sid, t : t + fh] - panel.shift for t in scored])
        assert predicted[sid, : len(scored)].tobytes() == want_pred.tobytes()
        assert actual[sid, : len(scored)].tobytes() == want_act.tobytes()
        assert np.isnan(predicted[sid, len(scored) :]).all() and np.isnan(actual[sid, len(scored) :]).all()
    assert len({int(np.isnan(actual[sid, :, 0]).sum()) for sid in range(panel.n)}) > 1  # rows differ in length


def test_rolling_sweep_ends_at_the_last_whole_target_window(monkeypatch):
    panel, params = gapped_panel(), gapped_model()
    cfg = params.config
    visited = []
    step = _Sweep.step

    def counted(self, t):
        visited.append(t)
        return step(self, t)

    monkeypatch.setattr(_Sweep, "step", counted)
    rolling_forecast(params, panel, emit_from=0)
    assert visited == list(range(cfg.first_anchor, panel.T - cfg.horizon + 1, cfg.stride))
    assert visited[-1] == panel.T - cfg.horizon
    visited.clear()
    predict(params, panel, anchor=panel.T - 1, series=[0])  # past the grid: warms up over every stride below it
    assert visited == [*range(cfg.first_anchor, panel.T - 1, cfg.stride), panel.T - 1]


def test_forward_only_sweeps_record_nothing(monkeypatch):
    # no tape among the operands: no node is recorded and no pull closure is built
    panel, params = gapped_panel(), gapped_model()
    emits, made = [], []
    emit = tp._emit

    def spy(op, out_values, operands, make_pulls):
        emits.append(op)
        return emit(op, out_values, operands, lambda: made.append(op))

    def record(self, op, pulls):
        raise AssertionError(f"{op} recorded on a forward-only sweep")

    monkeypatch.setattr(tp, "_emit", spy)
    monkeypatch.setattr(tp.Tape, "_record", record)
    assert rolling_forecast(params, panel, emit_from=0)
    assert predict(params, panel, anchor=panel.T - 1)
    assert validation_loss(params, panel) is not None
    assert emits and made == []


#: coordinates the gapped gradient check probes, per leaf, and the share of the
#: leaf's largest analytic gradient that each must reach. Central differences
#: at epsilon 1e-4 on a loss near 0.1 carry rounding errors of about 1e-12 in
#: the derivative; some coordinates' gradients lie near 1e-11 (in
#: layer1.bottom.U), where that error alone exceeds the 1e-4 tolerance. A
#: coordinate within a tenth of its leaf's largest gradient is read clearly.
PROBES_PER_LEAF = 3
PROBE_SHARE = 0.1


def gapped_batch_loss():
    """(loss of a parameter list, the parameter arrays) of the whole sweep over a gapped batch.

    The acceptance suite's tiny model (W=8, fh=2, K=2) at batch 4, unrolled
    over 14 anchors of a 4-series panel: context series 1 misses one cell,
    main series 2 misses 6 cells in a row and so skips 5 windows, and series
    3 misses one cell of two anchors' target windows.
    """
    cfg = TrainConfig(
        epochs=1, batch_schedule={1: 4}, lr_schedule={1: 1e-3},
        window=8, horizon=2, period=4, dilations=(1, 2),
        context_size=2, context_batch=2, state_width=8, hidden_width=8,
        conv_channels=4, stride=1, steps_per_update=100, seed=0,
    )
    base = synth_generate(
        SynthSpec(n=4, T=30, edges=((0, 1), (0, 2)), coupling=1.0, lag=1, noise_sigma=0.3, seasonal_period=4), seed=5
    )
    mask = np.ones((base.n, base.T), dtype=bool)
    mask[1, 12] = False
    mask[2, 8:14] = False
    mask[3, 19] = False
    panel = SeriesPanel(np.where(mask, base.values, 0.0), base.timestamps, mask, base.frequency)
    template = init_model(cfg, 4, ContextMap({0: (1,), 1: (0,), 2: (0,), 3: (0,)}, (0, 1), S=1, K=2))
    names = sorted(template.arrays)
    anchors = _anchor_grid(panel, cfg)[:14]

    def loss(tensors):
        sweep = _Sweep(panel, template, range(4))
        sweep.set_views(_Views(template, leafs=dict(zip(names, tensors))))
        terms = []
        for t in anchors:
            sweep.advance_to(t)
            got = sweep.loss_terms(t, sweep.step(t))
            if got is not None:
                terms.append(got)
        assert sweep.skipped_windows == 5
        total, count = _mean_loss(cfg, terms)
        assert count == 4 * len(anchors) - 14  # 5 skipped windows and 9 incomplete target windows
        return total

    return loss, [template.arrays[name] for name in names]


def test_gradient_of_the_sweep_on_a_gapped_batch():
    loss, arrays = gapped_batch_loss()
    tape = tp.Tape()
    leafs = [tape.leaf(arr) for arr in arrays]
    grads = tp.backward(loss(leafs))
    rng = np.random.default_rng(7)
    probes = []
    for leaf in leafs:
        size = np.abs(grads[leaf.node]).ravel()
        assert size.max() > 0.0
        strong = np.flatnonzero(size >= PROBE_SHARE * size.max())
        probes.append(rng.choice(strong, size=min(PROBES_PER_LEAF, strong.size), replace=False))

    def probed_loss(vectors):
        # each leaf is its array with the probed coordinates taken from a
        # vector: zeros there plus a 0/1 selection of the vector, which
        # rebuilds the array exactly
        rebuilt = []
        for arr, coords, vector in zip(arrays, probes, vectors):
            rest = arr.ravel().copy()
            rest[coords] = 0.0
            select = np.zeros((arr.size, coords.size))
            select[coords, np.arange(coords.size)] = 1.0
            rebuilt.append(tp.reshape(tp.add(Tensor(rest), tp.matmul(Tensor(select), vector)), arr.shape))
        return loss(rebuilt)

    err = grad_check(probed_loss, [arr.ravel()[coords] for arr, coords in zip(arrays, probes)], epsilon=1e-4)
    assert err <= 1e-4, f"gapped batch: {err:.2e}"
