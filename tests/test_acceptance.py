"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS line per
criterion; a pytest failure is the corresponding FAIL line.
"""

import gc
import math
import time

import numpy as np
import pytest

from contextrnn import tape as tp
from contextrnn.config import TrainConfig
from contextrnn.context_track import (
    ConvStackParams,
    context_conv_forward,
    fft_features,
    init_conv_arrays,
    modulate,
)
from contextrnn.cells import CellState, DRNNCellParams, drnn_cell_forward, init_cell_arrays
from contextrnn.cli import run_cli
from contextrnn.data import SynthSpec, postprocess, preprocess_window, split, synth_generate
from contextrnn.metrics import corr_with_skips, evaluate, rse
from contextrnn.model import (
    _Sweep,
    _Views,
    _anchor_grid,
    _mean_loss,
    init_model,
    pinball,
    total_loss,
    train,
)
from contextrnn.selection import (
    AdjacencyMatrix,
    aggregate,
    cst_matrix,
    granger_rank,
    mi_matrix,
    pearson_matrix,
    shortlist,
)
from contextrnn.smoothing import es_init, es_step
from contextrnn.tape import Tensor, grad_check


def announce(name):
    print(f"\nACCEPTANCE {name}: PASS")


# ---------------------------------------------------------------------------
# 1. gradient suite


def _primitive_cases(rng):
    """One representative differentiable composition per tensor primitive."""
    v = rng.uniform(0.5, 2.0, 5) * rng.choice([-1.0, 1.0], 5)
    w = rng.uniform(0.5, 2.0, 5) * rng.choice([-1.0, 1.0], 5)
    pos = rng.uniform(0.5, 3.0, 5)
    mat_a, mat_b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
    sig, ker = rng.normal(size=(2, 7)), rng.normal(size=(2, 3))
    pw = rng.normal(size=(3, 2))
    return {
        "add": (lambda p: tp.mean(tp.tanh(tp.add(p[0], p[1]))), [v, w]),
        "sub": (lambda p: tp.mean(tp.tanh(tp.sub(p[0], p[1]))), [v, w]),
        "mul_elementwise": (lambda p: tp.mean(tp.mul(p[0], p[1])), [v, w]),
        "matmul": (lambda p: tp.mean(tp.matmul(p[0], p[1])), [mat_a, mat_b]),
        "concat": (lambda p: tp.mean(tp.tanh(tp.concat([p[0], p[1]]))), [v, w]),
        "slice": (lambda p: tp.mean(tp.slice_(p[0], 1, 4)), [v]),
        "sigmoid": (lambda p: tp.mean(tp.sigmoid(p[0])), [v]),
        "tanh": (lambda p: tp.mean(tp.tanh(p[0])), [v]),
        "exp": (lambda p: tp.mean(tp.exp(p[0])), [v]),
        "log": (lambda p: tp.mean(tp.log(p[0])), [pos]),
        "mean": (lambda p: tp.mean(p[0]), [v]),
        "conv1d_depthwise": (lambda p: tp.mean(tp.conv1d_depthwise(p[0], p[1])), [sig, ker]),
        "conv1d_pointwise": (lambda p: tp.mean(tp.conv1d_pointwise(p[0], p[1])), [pw, sig]),
        "relu": (lambda p: tp.mean(tp.relu(p[0])), [v]),
        "clip": (lambda p: tp.mean(tp.clip(p[0], -1.2, 1.2)), [v]),
        "hypot": (lambda p: tp.mean(tp.hypot(p[0], p[1])), [v, w]),
        "atan2": (lambda p: tp.mean(tp.atan2(p[0], p[1])), [v, w]),
        "reshape": (lambda p: tp.mean(tp.mul(tp.reshape(p[0], (5, 1)), Tensor(np.ones((5, 1))))), [v]),
    }


def _tiny_model_loss_fn():
    """Closure over a W=8, fh=2, K=2 model unrolled for 10 anchors."""
    from contextrnn.selection import ContextMap

    cfg = TrainConfig(
        epochs=1, batch_schedule={1: 2}, lr_schedule={1: 1e-3},
        window=8, horizon=2, period=4, dilations=(1, 2),
        context_size=2, context_batch=2, state_width=8, hidden_width=8,
        conv_channels=4, stride=1, steps_per_update=100, seed=0,
    )
    panel = synth_generate(
        SynthSpec(n=2, T=24, edges=((0, 1),), coupling=1.0, lag=1, noise_sigma=0.3, seasonal_period=4),
        seed=5,
    )
    cm = ContextMap({0: (1,), 1: (0,)}, (0, 1), S=1, K=2)
    template = init_model(cfg, 2, cm)
    names = sorted(template.arrays)
    anchors = _anchor_grid(panel, cfg)[:10]

    def f(tensors):
        views = _Views(template, leafs=dict(zip(names, tensors)))
        sweep = _Sweep(panel, template, [0, 1])
        sweep.set_views(views)
        terms = []
        for t in anchors:
            sweep.advance_to(t)
            got = sweep.loss_terms(t, sweep.step(t))
            if got is not None:
                terms.append(got)
        return _mean_loss(cfg, terms)[0]

    return f, [template.arrays[n] for n in names]


def test_criterion_gradient_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(0)

    # (a) every tensor primitive
    for name, (fn, params) in _primitive_cases(rng).items():
        err = grad_check(fn, params, epsilon=1e-6)
        assert err <= 1e-4, f"primitive {name}: {err:.2e}"

    # (b) smoothing step through a short chain
    def es_fn(params):
        state = es_init([4.0, 8.0, 4.5, 7.5], period=2, alpha_logit=params[0], beta_logit=params[1])
        out = None
        for i, z in enumerate([5.0, 7.0, 4.2, 7.7]):
            delta = tp.slice_(params[2], i, i + 1)
            state, level, s_new = es_step(state, z, delta_alpha=delta, delta_beta=delta)
            out = tp.add(level, tp.mul(5.0, s_new))
        return tp.mean(out)

    err = grad_check(es_fn, [np.asarray(-0.4), np.asarray(0.2), rng.normal(size=4) * 0.3], epsilon=1e-6)
    assert err <= 1e-4, f"es_step: {err:.2e}"

    # (c) dilated cell over a 6-step unroll (d=2)
    in_w, s_h = 2, 3
    cell_arrays = init_cell_arrays(rng, in_w, in_w + s_h, s_h)
    cell_names = list(cell_arrays)
    xs = [rng.normal(size=in_w) for _ in range(6)]

    def cell_fn(params):
        cell = DRNNCellParams(in_w, s_h, **dict(zip(cell_names, params)))
        state = CellState(d=2, h_width=s_h, c_width=in_w + s_h)
        total = None
        for x in xs:
            (m, h), _ = drnn_cell_forward(Tensor(x), state, cell)
            contrib = tp.mean(tp.concat([m, h]))
            total = contrib if total is None else tp.add(total, contrib)
        return total

    err = grad_check(cell_fn, [cell_arrays[n] for n in cell_names], epsilon=1e-5)
    assert err <= 1e-4, f"dRNN cell: {err:.2e}"

    # (d) context conv stack
    conv_arrays = init_conv_arrays(rng, 6, 2, channels=4)
    conv_names = list(conv_arrays)
    window = rng.normal(size=6)

    def conv_fn(params):
        conv = ConvStackParams(**dict(zip(conv_names, params)))
        r, da, db = context_conv_forward(fft_features(Tensor(window)), conv)
        return tp.mean(tp.concat([r, da, db]))

    err = grad_check(conv_fn, [conv_arrays[n] for n in conv_names], epsilon=1e-5)
    assert err <= 1e-4, f"context conv: {err:.2e}"

    # (e) the full tiny model over a 10-anchor unroll
    f, arrays = _tiny_model_loss_fn()
    err = grad_check(f, arrays, epsilon=1e-4, max_coords_per_param=3, seed=7)
    assert err <= 1e-4, f"full model: {err:.2e}"

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
    announce(f"gradient suite (max errors <= 1e-4, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 2. analytic identities


def test_criterion_analytic_identities():
    assert tp.sigmoid(Tensor(0.0)).item() == 0.5

    rng = np.random.default_rng(1)
    a, p = rng.normal(size=20), rng.normal(size=20)
    np.testing.assert_allclose(
        pinball(a, p, 0.5).values, 0.5 * np.abs(a - p), atol=1e-15
    )

    med = rng.normal(size=6)
    actual = rng.normal(size=6)
    gamma_zero = total_loss(actual, med, med + 1, med - 1, gamma=0.0, q_star=0.5).item()
    assert gamma_zero == pytest.approx(float(np.mean(0.5 * np.abs(actual - med))), abs=1e-15)

    z = rng.uniform(1.0, 40.0, 24)
    seasonal = rng.uniform(0.6, 1.4, 24)
    z_bar = float(z.mean())
    round_trip = postprocess(preprocess_window(z, z_bar, seasonal), z_bar, seasonal)
    np.testing.assert_allclose(round_trip, z, rtol=1e-12)

    state = es_init([8.0] * 4, period=2, alpha_logit=0.0)
    _, level_hi, _ = es_step(state, 3.0, delta_alpha=20.0)
    _, level_lo, _ = es_step(state, 3.0, delta_alpha=-20.0)
    assert abs(level_hi.item() - 3.0) <= 1e-6
    assert abs(level_lo.item() - 8.0) <= 1e-6

    r = rng.normal(size=12)
    assert modulate(Tensor(r), Tensor(np.ones(12))).values.tobytes() == r.tobytes()

    assert tp.exp(Tensor(np.zeros(3))).values.tolist() == [1.0, 1.0, 1.0]
    announce("analytic identities")


# ---------------------------------------------------------------------------
# 3. FFT properties


def test_criterion_fft_properties():
    rng = np.random.default_rng(42)
    for _ in range(100):
        W = int(rng.integers(2, 48))
        x = rng.normal(size=W)
        stack = fft_features(Tensor(x)).values
        power = float(np.sum(stack[2] ** 2))
        assert power == pytest.approx(W * float(np.sum(x**2)), rel=1e-8)
        np.testing.assert_allclose(stack[2], np.hypot(stack[0], stack[1]), atol=1e-12)

    W, c = 16, 2.5
    stack = fft_features(Tensor(np.full(W, c))).values
    assert stack[0][0] == pytest.approx(W * c)
    np.testing.assert_allclose(stack[0][1:], 0.0, atol=1e-9)
    np.testing.assert_allclose(stack[1], 0.0, atol=1e-9)
    announce("FFT properties (Parseval <= 1e-8 on 100 windows)")


# ---------------------------------------------------------------------------
# 4. context-selection oracle


def test_criterion_context_selection_oracle():
    n, S = 10, 3
    budget = n * math.ceil(1.5 * S)
    hits = 0
    for seed in range(10):
        panel = synth_generate(
            SynthSpec(n=n, T=2000, edges=((0, 3),), coupling=2.0, lag=1,
                      noise_sigma=0.5, seasonal_period=24),
            seed=seed,
        )
        corr_m = pearson_matrix(panel)
        agg = aggregate(
            [AdjacencyMatrix(n, np.abs(corr_m.weights), "CM"), cst_matrix(corr_m), mi_matrix(panel)]
        )
        candidates = shortlist(agg, S)
        result = granger_rank(panel, candidates, maxlag=4, S=S, aggregated=agg)
        assert result.tests_performed <= budget, "Granger test budget exceeded"
        if 0 in result.per_target[3]:
            hits += 1
    assert hits >= 9, f"driver found in only {hits}/10 seeds"
    announce(f"context-selection oracle ({hits}/10 seeds, <= {budget} Granger tests)")


# ---------------------------------------------------------------------------
# 5. overfit check


def test_criterion_overfit():
    cfg = TrainConfig(  # full 11-epoch paper schedules; batch capped at n=4
        window=16, horizon=4, period=8, dilations=(1, 2),
        context_size=2, context_batch=2, state_width=6, hidden_width=8,
        conv_channels=4, stride=4, steps_per_update=8, seed=3,
    )
    panel = synth_generate(
        SynthSpec(n=4, T=2000, edges=((0, 1), (0, 2)), coupling=1.0, lag=1,
                  noise_sigma=0.02, seasonal_period=8),
        seed=3,
    )
    from contextrnn.selection import ContextMap

    cm = ContextMap({i: tuple(j for j in range(4) if j != i)[:2] for i in range(4)}, (0, 1), S=2, K=2)
    start = time.perf_counter()
    params, log = train(panel, cm, cfg)
    elapsed = time.perf_counter() - start

    assert len(log) == 11
    assert [e.batch_size for e in log] == [2, 2, 2, 5, 12, 25, 50, 100, 100, 100, 100]
    assert log[8].lr == pytest.approx(1e-3)  # epoch 9
    ratio = log[-1].train_loss / log[0].train_loss
    assert ratio <= 0.2, f"final/first loss ratio {ratio:.3f}"
    assert elapsed < 300.0, f"training took {elapsed:.0f}s"
    announce(f"overfit (loss ratio {ratio:.3f} <= 0.2 in {elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# 6. ablation direction


def _ablation_config(seed, mode):
    return TrainConfig(
        epochs=4, batch_schedule={1: 6}, lr_schedule={1: 3e-3, 4: 1e-3},
        window=12, horizon=1, period=6, dilations=(1, 2),
        context_size=2, context_batch=1, state_width=6, hidden_width=8,
        conv_channels=4, stride=2, steps_per_update=8, seed=seed,
        context_mode=mode,
    )


def test_criterion_ablation_direction():
    from contextrnn.selection import ContextMap

    results = []
    for seed in range(5):
        panel = synth_generate(
            SynthSpec(
                n=6, T=700,
                edges=((0, 1, 3.0), (0, 2, 3.0), (0, 3, 3.0), (0, 4, 3.0), (0, 5, -3.0)),
                lag=1, noise_sigma=0.6, seasonal_period=6,
            ),
            seed=seed,
        )
        tr, va, _ = split(panel)
        cm = ContextMap({j: (0,) for j in range(1, 6)} | {0: (1,)}, (0,), S=1, K=1)
        scores = {}
        for mode in ("full", "global", "none"):
            params, _ = train(tr, cm if mode != "none" else None, _ablation_config(seed, mode), va)
            scores[mode] = evaluate(params, panel, int(0.8 * panel.T)).rse
        results.append(scores)

    median_full = float(np.median([r["full"] for r in results]))
    median_none = float(np.median([r["none"] for r in results]))
    assert median_full <= 0.95 * median_none, f"median RSE {median_full:.4f} vs {median_none:.4f}"
    ordered = sum(r["full"] <= r["global"] <= r["none"] for r in results)
    assert ordered >= 3, f"full <= global <= none in only {ordered}/5 seeds"

    # ablation wiring: parameter sets shrink exactly as the modes dictate
    full_p = init_model(_ablation_config(0, "full"), 6, ContextMap({1: (0,)}, (0,), S=1, K=1))
    globl_p = init_model(_ablation_config(0, "global"), 6, ContextMap({1: (0,)}, (0,), S=1, K=1))
    none_p = init_model(_ablation_config(0, "none"), 6, None)
    assert set(full_p.trainable) - set(globl_p.trainable) == {"modulation"}
    assert "modulation" in globl_p.arrays
    assert not any(k.startswith("conv.") or k.startswith("ctx_") or k == "modulation" for k in none_p.arrays)
    from contextrnn.model import input_width

    assert input_width(none_p.config) == input_width(full_p.config) - 2
    announce(
        f"ablation direction (median full {median_full:.4f} <= 0.95 x {median_none:.4f}, ordered {ordered}/5)"
    )


# ---------------------------------------------------------------------------
# 7. linear scaling


def _scaling_epoch_time(n_series, seed):
    from contextrnn.selection import ContextMap

    panel = synth_generate(
        SynthSpec(n=n_series, T=80, edges=(), noise_sigma=0.2, seasonal_period=4), seed=seed
    )
    cm = ContextMap({i: ((i + 1) % n_series,) for i in range(n_series)}, (0, 1, 2), S=1, K=3)
    cfg = TrainConfig(
        epochs=1, batch_schedule={1: 10}, lr_schedule={1: 1e-3},
        window=8, horizon=2, period=4, dilations=(1, 2),
        context_size=2, context_batch=3, state_width=4, hidden_width=6,
        conv_channels=4, stride=4, steps_per_update=50, seed=seed,
    )
    gc.collect()
    start = time.perf_counter()
    train(panel, cm, cfg)
    return time.perf_counter() - start


def test_criterion_linear_scaling():
    _scaling_epoch_time(20, 0)  # warm-up
    t50 = sorted(_scaling_epoch_time(50, seed) for seed in range(3))[1]
    t100 = sorted(_scaling_epoch_time(100, seed) for seed in range(3))[1]
    assert t100 <= 2.5 * t50, f"N=100 epoch {t100:.2f}s vs N=50 {t50:.2f}s"
    announce(f"linear scaling (t100/t50 = {t100 / t50:.2f} <= 2.5)")


# ---------------------------------------------------------------------------
# 8. metric fixtures


def test_criterion_metric_fixtures():
    rng = np.random.default_rng(9)
    actual = rng.normal(size=(5, 20))
    assert rse(actual.copy(), actual) == 0.0
    assert corr_with_skips(actual.copy(), actual)[0] == pytest.approx(1.0)
    assert rse(np.full_like(actual, actual.mean()), actual) == pytest.approx(1.0)

    for _ in range(5):
        actual = rng.normal(size=(5, 20))
        predicted = actual + rng.normal(scale=0.4, size=(5, 20))
        # brute-force reimplementation of both formulas
        center = actual.sum() / actual.size
        expected_rse = math.sqrt(((actual - predicted) ** 2).sum()) / math.sqrt(
            ((actual - center) ** 2).sum()
        )
        per_series = []
        for i in range(5):
            am, pm = actual[i].mean(), predicted[i].mean()
            num = float(((actual[i] - am) * (predicted[i] - pm)).sum())
            den = math.sqrt(float(((actual[i] - am) ** 2).sum()) * float(((predicted[i] - pm) ** 2).sum()))
            per_series.append(num / den)
        assert rse(predicted, actual) == pytest.approx(expected_rse, abs=1e-12)
        assert corr_with_skips(predicted, actual)[0] == pytest.approx(float(np.mean(per_series)), abs=1e-12)
    announce("metric fixtures (match brute force to 1e-12)")


# ---------------------------------------------------------------------------
# 9. determinism


TINY_CONFIG = """
epochs = 2
batch_schedule = 1:2
lr_schedule = 1:0.003
window = 16
horizon = 4
period = 8
dilations = 1,2
context_size = 2
context_batch = 2
contexts_per_target = 2
state_width = 6
hidden_width = 8
conv_channels = 4
stride = 4
steps_per_update = 10
maxlag = 2
seed = 11
"""


def test_criterion_determinism(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(TINY_CONFIG)
    data = tmp_path / "panel.csv"
    assert run_cli(
        ["synth", "--n", "4", "--t", "200", "--edges", "0-1,0-2", "--noise", "0.2",
         "--period", "8", "--seed", "11", "--out", str(data)]
    ) == 0
    cmap = tmp_path / "ctx.map"
    cmap.write_text("0: 1,2\n1: 0,2\n2: 0,1\n3: 0,1\nGLOBAL: 0,1\n")

    model_files, forecast_files = [], []
    for run in range(2):
        model = tmp_path / f"model_{run}.bin"
        forecast = tmp_path / f"forecast_{run}.csv"
        assert run_cli(
            ["train", "--data", str(data), "--map", str(cmap), "--config", str(config), "--out", str(model)]
        ) == 0
        assert run_cli(
            ["predict", "--model", str(model), "--data", str(data), "--out", str(forecast)]
        ) == 0
        model_files.append(model.read_bytes())
        forecast_files.append(forecast.read_bytes())
    assert model_files[0] == model_files[1], "model files differ between identical runs"
    assert forecast_files[0] == forecast_files[1], "forecast CSVs differ between identical runs"
    announce("determinism (byte-identical model file and forecast CSV)")
