"""The batched sweep gives every series what it would get alone.

A batch of one never blends: its only row is skipped or used as a whole.
So comparing a batch of all series with one sweep per series checks the
row blends (smoothing steps with some rows missing, cell histories held
for skipped windows, held smoothing corrections) against the plain rules.
"""

import numpy as np
import pytest

from contextrnn.config import TrainConfig
from contextrnn.data import SeriesPanel, SynthSpec, synth_generate
from contextrnn.model import _anchor_grid, _mean_loss, _Sweep, _Views, init_model, rolling_forecast, validation_loss
from contextrnn.selection import ContextMap

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
    for t in _anchor_grid(panel, params.config, for_training=False):
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
    for t in _anchor_grid(panel, params.config, for_training=True):
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
    grid = _anchor_grid(panel, params.config, for_training=True)
    assert total_terms < panel.n * len(grid)  # some terms dropped
    want = sum(loss * count for loss, count in per_series) / total_terms
    assert validation_loss(params, panel) == pytest.approx(want, rel=REL, abs=0.0)
