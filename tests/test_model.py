import hashlib
import io
import math
import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contextrnn import model
from contextrnn import tape as tp
from contextrnn.cells import CELL_FIELDS
from contextrnn.cli import run_cli
from contextrnn.config import CONTEXT_MODES, TrainConfig, load_config, parse_overrides
from contextrnn.data import DataError, SynthSpec, split, synth_generate, write_panel_csv
from contextrnn.model import (
    MAX_STORED_INT,
    Adam,
    DivergenceError,
    assemble_input,
    ensemble_predict,
    init_model,
    input_width,
    load_model,
    pinball,
    predict,
    rolling_forecast,
    save_model,
    total_loss,
    train,
)
from contextrnn.selection import ContextMap, write_context_map
from contextrnn.tape import Tensor


def tiny_config(**overrides):
    base = dict(
        epochs=2,
        batch_schedule={1: 2},
        lr_schedule={1: 3e-3},
        window=16,
        horizon=4,
        period=8,
        dilations=(1, 2),
        context_size=2,
        context_batch=2,
        state_width=6,
        hidden_width=8,
        conv_channels=4,
        stride=4,
        steps_per_update=8,
        seed=0,
    )
    base.update(overrides)
    return TrainConfig(**base)


#: tiny_config(epochs=1) as a config file
TINY_CONFIG_TEXT = """\
epochs = 1
batch_schedule = 1:2
lr_schedule = 1:0.003
window = 16
horizon = 4
period = 8
dilations = 1,2
context_size = 2
context_batch = 2
state_width = 6
hidden_width = 8
conv_channels = 4
stride = 4
steps_per_update = 8
seed = 0
"""


def tiny_panel(seed=0, n=4, T=120, noise=0.05):
    return synth_generate(
        SynthSpec(n=n, T=T, edges=((0, 1), (0, 2)), coupling=1.0, lag=1, noise_sigma=noise, seasonal_period=8),
        seed=seed,
    )


def tiny_map(n=4, K=2):
    per_target = {i: tuple(j for j in range(n) if j != i)[:2] for i in range(n)}
    return ContextMap(per_target, tuple(range(K)), S=2, K=K)


def underflowing_panel():
    from contextrnn.data import SeriesPanel

    base = tiny_panel()
    values = base.values.copy()
    values[3, 0] = 1e300
    values[3, 1:] = 1e-300
    return SeriesPanel(values, base.timestamps, base.mask, base.frequency)


class TestPinball:
    def test_perfect_forecast(self):
        assert pinball(2.0, 2.0, 0.5).item() == 0.0

    def test_half_absolute_error(self):
        assert pinball(2.0, 1.0, 0.5).item() == pytest.approx(0.5)

    def test_asymmetric_closed_form(self):
        assert pinball(0.0, 1.0, 0.9).item() == pytest.approx(0.1)

    def test_quantile_validation(self):
        with pytest.raises(ValueError):
            pinball(1.0, 1.0, 1.0)


class TestTotalLoss:
    def test_gamma_zero_reduces_to_median_pinball(self):
        rng = np.random.default_rng(0)
        actual, med = rng.normal(size=4), rng.normal(size=4)
        got = total_loss(actual, med, med * 0, med * 0 + 9, gamma=0.0, q_star=0.5).item()
        expected = np.mean([pinball(a, p, 0.5).item() for a, p in zip(actual, med)])
        assert got == pytest.approx(expected)

    def test_all_perfect_is_zero(self):
        actual = np.array([1.0, 2.0])
        assert total_loss(actual, actual, actual, actual, gamma=0.4).item() == 0.0

    def test_hand_evaluated_example(self):
        got = total_loss(
            np.array([1.0]), np.array([1.0]), np.array([0.5]), np.array([2.0]),
            gamma=0.4, q_star=0.48, q_low=0.025, q_high=0.975,
        ).item()
        assert got == pytest.approx(0.4 * (0.025 * 0.5 + 0.025 * 1.0), abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            total_loss(np.ones(3), np.ones(2), np.ones(3), np.ones(3), gamma=0.4)


class TestAssembleInput:
    def test_total_width(self):
        cfg = tiny_config()
        x = Tensor(np.zeros(cfg.window))
        s = Tensor(np.ones(cfg.period))
        cal = Tensor(np.zeros(8))
        ctx = Tensor(np.zeros(cfg.context_size * cfg.context_batch))
        out = assemble_input(x, s, 100.0, cal, ctx)
        assert out.values.shape == (cfg.window + cfg.period + 1 + 8 + 4,)
        assert out.values.shape == (input_width(cfg),)

    def test_log10_slot(self):
        cfg = tiny_config()
        out = assemble_input(Tensor(np.zeros(cfg.window)), Tensor(np.ones(cfg.period)), 100.0, Tensor(np.zeros(8)))
        assert out.values[cfg.window + cfg.period] == pytest.approx(2.0)

    def test_order_sensitivity(self):
        rng = np.random.default_rng(1)
        x, s = rng.normal(size=6), rng.uniform(0.5, 1.5, 3)
        a = tp.concat([Tensor(x), Tensor(s)]).values
        b = tp.concat([Tensor(s), Tensor(x)]).values
        assert a.shape != b.shape or not np.allclose(a, b)


class TestAdam:
    def test_zero_gradient_no_change(self):
        p = np.array([1.0, -2.0])
        Adam({"p": p}).step({"p": np.zeros(2)}, lr=0.1)
        np.testing.assert_array_equal(p, [1.0, -2.0])
        Adam({"p": p}).step({}, lr=0.1)  # an absent gradient counts as zero
        np.testing.assert_array_equal(p, [1.0, -2.0])

    def test_lr_zero_identity(self):
        p = np.array([1.0, -2.0])
        Adam({"p": p}).step({"p": np.ones(2)}, lr=0.0)
        np.testing.assert_array_equal(p, [1.0, -2.0])

    def test_constant_gradient_step_approaches_lr_sign(self):
        # fixed-point algebra: with g constant, the bias-corrected update
        # tends to lr * sign(g)
        p = np.array([0.0])
        g = np.array([3.7])
        opt = Adam({"p": p})
        lr = 0.01
        prev = p.copy()
        step_size = None
        for _ in range(1, 200):
            prev = p.copy()
            opt.step({"p": g}, lr=lr)
            step_size = prev[0] - p[0]
        assert step_size == pytest.approx(lr, rel=1e-3)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            Adam({"p": np.ones(2)}).step({"p": np.ones(3)}, lr=0.1)

    def test_named_wrapper_registers_each_param_once(self):
        cfg = tiny_config()
        params = init_model(cfg, 4, tiny_map())
        assert len(set(params.trainable)) == len(params.trainable)
        opt = Adam({k: params.arrays[k] for k in params.trainable})
        assert list(opt.m) == list(opt.v) == list(params.trainable)


class TestConfig:
    def test_paper_schedules(self):
        cfg = TrainConfig()
        assert [cfg.batch_size_at(e) for e in range(1, 12)] == [2, 2, 2, 5, 12, 25, 50, 100, 100, 100, 100]
        assert cfg.lr_at(8) == pytest.approx(3e-3)
        assert cfg.lr_at(9) == pytest.approx(1e-3)
        assert cfg.lr_at(11) == pytest.approx(1e-4)
        assert cfg.epochs == 11 and cfg.q_star == 0.48 and cfg.gamma == 0.4
        assert cfg.window == 168 and cfg.dilations == (2, 6, 12, 24)

    def test_quantile_ordering_enforced(self):
        with pytest.raises(DataError):
            TrainConfig(q_low=0.6, q_star=0.5)

    @pytest.mark.parametrize("name", ["context_size", "context_batch", "contexts_per_target", "state_width",
                                      "hidden_width", "conv_channels", "conv_kernel"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_width_below_one(self, name, value):
        with pytest.raises(DataError, match=f"{name} must be positive"):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("field, value, match", [
        ("gamma", math.nan, "gamma"),
        ("gamma", math.inf, "gamma"),
        ("batch_schedule", {1: 0}, "batch sizes"),
        ("batch_schedule", {1: 2, 3: -3}, "batch sizes"),
        ("lr_schedule", {1: -1e-3}, "learning rates"),
        ("lr_schedule", {1: 1e-3, 2: math.nan}, "learning rates"),
    ])
    def test_value_out_of_range(self, field, value, match):
        with pytest.raises(DataError, match=match):
            TrainConfig(**{field: value})

    def test_file_values(self):
        text = TINY_CONFIG_TEXT + "# a comment\ngamma = 0.7  # trailing comment\ncontext_mode = global\n"
        assert load_config(io.StringIO(text)) == tiny_config(epochs=1, gamma=0.7, context_mode="global")

    def test_overrides(self):
        got = parse_overrides(["window=24", "lr_schedule=1:0.01,5:0.001", "dilations=1,3"])
        assert got == {"window": 24, "lr_schedule": {1: 0.01, 5: 0.001}, "dilations": (1, 3)}


class TestModelStructure:
    @pytest.mark.parametrize("field, value", [
        ("seed", 2**53 + 1),  # a model file would store 2**53
        ("maxlag", -(2**60)),
        ("batch_schedule", {1: 2, 2**53 + 2: 4}),
        ("epochs", 10**400),  # beyond any float64
    ])
    def test_integer_a_model_file_cannot_store(self, field, value):
        with pytest.raises(DataError, match=f"{field} holds an integer beyond"):
            init_model(tiny_config(**{field: value}), 4, tiny_map())

    def test_context_mode_parameter_sets(self):
        full = init_model(tiny_config(), 4, tiny_map())
        globl = init_model(tiny_config(context_mode="global"), 4, tiny_map())
        none = init_model(tiny_config(context_mode="none"), 4, None)

        assert "modulation" in full.arrays and "modulation" in full.trainable
        assert "modulation" in globl.arrays and "modulation" not in globl.trainable
        assert not any(k.startswith("conv.") or k == "modulation" for k in none.arrays)
        assert input_width(none.config) == input_width(full.config) - 4

    def test_modulation_initialized_to_ones(self):
        params = init_model(tiny_config(), 4, tiny_map())
        np.testing.assert_array_equal(params.arrays["modulation"], 1.0)

    def test_seeded_init_is_deterministic(self):
        a = init_model(tiny_config(), 4, tiny_map())
        b = init_model(tiny_config(), 4, tiny_map())
        for k in a.arrays:
            np.testing.assert_array_equal(a.arrays[k], b.arrays[k])


class TestTraining:
    def test_log_schedule_and_loss_decrease(self):
        cfg = tiny_config(epochs=3, batch_schedule={1: 2, 3: 4}, lr_schedule={1: 3e-3, 3: 1e-3})
        panel = tiny_panel()
        params, log = train(panel, tiny_map(), cfg)
        assert [e.epoch for e in log] == [1, 2, 3]
        assert [e.batch_size for e in log] == [2, 2, 4]
        assert [e.lr for e in log] == [3e-3, 3e-3, 1e-3]
        assert all(e.updates > 0 for e in log)
        assert log[-1].train_loss < log[0].train_loss

    def test_deterministic_training(self):
        cfg = tiny_config(epochs=1)
        panel = tiny_panel()
        a, _ = train(panel, tiny_map(), cfg)
        b, _ = train(panel, tiny_map(), cfg)
        for k in a.arrays:
            np.testing.assert_array_equal(a.arrays[k], b.arrays[k])

    def test_validation_retains_best(self):
        cfg = tiny_config(epochs=2)
        panel = tiny_panel(T=200)
        tr, va, _ = split(panel)
        params, log = train(tr, tiny_map(), cfg, val_panel=va)
        assert all(e.val_loss is not None for e in log)

    def test_single_step_decreases_frozen_batch_loss(self):
        # line-search probe: at least one lr in {1e-2, 1e-3, 1e-4} improves
        panel = tiny_panel()
        base_cfg = tiny_config(epochs=1, batch_schedule={1: 4}, steps_per_update=1000)
        improved = False
        for lr in (1e-2, 1e-3, 1e-4):
            cfg = base_cfg.with_overrides(lr_schedule={1: lr})
            _, log1 = train(panel, tiny_map(), cfg)
            cfg2 = cfg.with_overrides(epochs=2)
            _, log2 = train(panel, tiny_map(), cfg2)
            if log2[1].train_loss < log2[0].train_loss:
                improved = True
                break
        assert improved

    def test_too_short_panel(self):
        with pytest.raises(DataError, match="short"):
            train(tiny_panel(T=18), tiny_map(), tiny_config())

    def test_trains_through_missing_observations(self):
        from contextrnn.data import SeriesPanel

        base = tiny_panel(T=140)
        mask = np.ones((base.n, base.T), dtype=bool)
        mask[1, 40:47] = False  # a gap mid-stream
        mask[2, 60] = False  # an isolated hole
        mask[3, 90:130:2] = False  # a stretch with half the points missing
        values = base.values.copy()
        values[~mask] = 0.0
        panel = SeriesPanel(values, base.timestamps, mask, base.frequency)

        params, log = train(panel, tiny_map(), tiny_config(epochs=1))
        assert np.isfinite(log[0].train_loss)
        out = predict(params, panel, anchor=80)
        assert all(np.all(np.isfinite(v[0])) for v in out.values())

    def test_training_windows_never_reach_validation(self):
        from contextrnn.model import _anchor_grid

        cfg = tiny_config()
        panel = tiny_panel(T=200)
        tr, va, te = split(panel)
        anchors = _anchor_grid(tr, cfg)
        assert max(anchors) + cfg.horizon <= tr.T  # = validation start index

    def test_divergence_raises(self):
        cfg = tiny_config(epochs=3, lr_schedule={1: 1e6})
        with pytest.raises(DivergenceError), np.errstate(over="ignore", invalid="ignore"):
            train(tiny_panel(), tiny_map(), cfg)

    def test_non_finite_gradient_raises(self, monkeypatch):
        # a finite loss whose gradient is not finite must stop training before Adam moves anything
        real_backward = model.backward
        steps = []
        monkeypatch.setattr(model, "backward", lambda loss: {k: g * np.inf for k, g in real_backward(loss).items()})
        monkeypatch.setattr(model.Adam, "step", lambda self, grads, lr: steps.append(lr))
        with pytest.raises(DivergenceError, match="gradient"), np.errstate(invalid="ignore"):
            train(tiny_panel(), tiny_map(), tiny_config(epochs=1))
        assert steps == []

    def test_log_of_non_positive_value_raises(self):
        # a warm-up level 1e600 times the series' other values makes seasonal factors underflow to 0
        with np.errstate(divide="ignore"):
            with pytest.raises(DivergenceError, match="positive"):
                train(underflowing_panel(), tiny_map(), tiny_config(epochs=1))

    def test_ensemble_train_members_are_independent_seeds(self, tmp_path):
        # `contextrnn train` with ensemble = 2 writes members seeded seed + 0 and seed + 1
        data, cmap, config = tmp_path / "panel.csv", tmp_path / "ctx.map", tmp_path / "run.cfg"
        write_panel_csv(tiny_panel(), str(data))
        write_context_map(tiny_map(), str(cmap))
        config.write_text(TINY_CONFIG_TEXT)
        base = ["train", "--data", str(data), "--map", str(cmap), "--config", str(config)]
        out = tmp_path / "m.bin"
        assert run_cli(base + ["--set", "ensemble=2", "--out", str(out)]) == 0
        members = [load_model(f"{out}.{i}") for i in range(2)]
        assert [m.config.seed for m in members] == [0, 1]
        solo = tmp_path / "solo.bin"
        assert run_cli(base + ["--out", str(solo)]) == 0
        solo_params = load_model(str(solo))
        for k in solo_params.arrays:
            np.testing.assert_array_equal(members[0].arrays[k], solo_params.arrays[k])


class TestTapeNodePins:
    """Tape nodes by op of one training update: the linear-cost claim as counts that cannot flake.

    The model is the acceptance suite's tiny one (W=8, fh=2, p=4, dilations
    1 and 2, stride 1), trained for one epoch on a panel holding exactly A
    anchors, so each batch is one update of A anchors. For every op,

        nodes(op) = BASE[op] + A * (PER_ANCHOR[op] + K * PER_ANCHOR_AND_SERIES[op])

    linear in the anchors and in the K context series, and independent of the
    series count n and of the batch size: a batch runs as one set of ops,
    whatever its rows. BASE holds the leaves and what an update records once:
    the weight transposes, the per-series gathers, the smoothing warm-up up
    to the first anchor, and the loss over every anchor's terms.
    """

    BASE = {"add": 61, "concat": 3, "div": 14, "gather": 3, "leaf": 34, "mean": 1, "mul_elementwise": 63,
            "relu": 6, "reshape": 6, "sigmoid": 28, "sub": 30, "transpose": 13}
    PER_ANCHOR = {"add": 30, "clip": 3, "concat": 8, "div": 2, "exp": 5, "log": 2, "matmul": 14,
                  "mul_elementwise": 30, "reshape": 10, "sigmoid": 8, "slice": 30, "sub": 14, "tanh": 4}
    PER_ANCHOR_AND_SERIES = {"add": 5, "atan2": 1, "concat": 1, "conv1d_depthwise": 2, "conv1d_pointwise": 4,
                             "hypot": 1, "matmul": 3, "relu": 2, "reshape": 7, "slice": 4}

    @staticmethod
    def updates(monkeypatch, n, K, batch, anchors):
        """The tape's nodes by op, once per update of a one-epoch run."""
        cfg = TrainConfig(
            epochs=1, batch_schedule={1: batch}, lr_schedule={1: 1e-3},
            window=8, horizon=2, period=4, dilations=(1, 2),
            context_size=2, context_batch=K, state_width=8, hidden_width=8,
            conv_channels=4, stride=1, steps_per_update=anchors, seed=0,
        )
        T = cfg.first_anchor + cfg.horizon - 1 + anchors
        panel = synth_generate(
            SynthSpec(n=n, T=T, edges=((0, 1),), coupling=1.0, lag=1, noise_sigma=0.3, seasonal_period=4), seed=5
        )
        cmap = ContextMap({i: ((i + 1) % n,) for i in range(n)}, tuple(range(K)), S=1, K=K)
        counts = []
        real_backward = model.backward

        def counting(loss):
            counts.append(Counter(node.op for node in loss.tape.nodes))
            return real_backward(loss)

        monkeypatch.setattr(model, "backward", counting)
        train(panel, cmap, cfg)
        return counts

    @pytest.mark.parametrize("n, K, batch, anchors", [
        (2, 2, 2, 5),
        (4, 2, 2, 5),  # n
        (2, 1, 2, 5),  # K
        (2, 2, 1, 5),  # batch
        (2, 2, 2, 10),  # anchors
        (4, 1, 2, 10),
        (2, 1, 1, 10),
    ])
    def test_nodes_per_update(self, monkeypatch, n, K, batch, anchors):
        expected = Counter(self.BASE)
        for op, count in self.PER_ANCHOR.items():
            expected[op] += anchors * count
        for op, count in self.PER_ANCHOR_AND_SERIES.items():
            expected[op] += anchors * K * count
        counts = self.updates(monkeypatch, n, K, batch, anchors)
        assert len(counts) == -(-n // batch)
        for got in counts:
            assert dict(got) == dict(expected)


class TestPrediction:
    def setup_method(self):
        self.cfg = tiny_config(epochs=1)
        self.panel = tiny_panel()
        self.params, _ = train(self.panel, tiny_map(), self.cfg)

    def test_positive_outputs(self):
        out = predict(self.params, self.panel, anchor=60)
        for sid, (med, lo, hi) in out.items():
            assert med.shape == (4,)
            assert np.all(med > 0.0)

    def test_deterministic(self):
        a = predict(self.params, self.panel, anchor=60)
        b = predict(self.params, self.panel, anchor=60)
        for sid in a:
            np.testing.assert_array_equal(a[sid][0], b[sid][0])

    def test_insufficient_history(self):
        with pytest.raises(DataError, match="anchor"):
            predict(self.params, self.panel, anchor=4)

    def test_rolling_covers_grid(self):
        out = rolling_forecast(self.params, self.panel, emit_from=60)
        assert all(t >= 60 for t in out)
        assert len(out) > 3

    def test_ensemble_single_seed_matches_predict(self):
        got = ensemble_predict([self.params], self.panel, anchor=60)
        solo = predict(self.params, self.panel, anchor=60)
        for sid in solo:
            np.testing.assert_array_equal(got[sid][0], solo[sid][0])

    def test_ensemble_two_identical_members(self):
        got = ensemble_predict([self.params, self.params], self.panel, anchor=60)
        solo = predict(self.params, self.panel, anchor=60)
        for sid in solo:
            np.testing.assert_allclose(got[sid][0], solo[sid][0])
            np.testing.assert_array_equal(got[sid][1], solo[sid][1])

    def test_ensemble_interval_envelope(self):
        cfg2 = self.cfg.with_overrides(seed=1)
        other, _ = train(self.panel, tiny_map(), cfg2)
        both = ensemble_predict([self.params, other], self.panel, anchor=60)
        mine = predict(self.params, self.panel, anchor=60)
        theirs = predict(other, self.panel, anchor=60)
        for sid in both:
            width = both[sid][2] - both[sid][1]
            w1 = mine[sid][2] - mine[sid][1]
            w2 = theirs[sid][2] - theirs[sid][1]
            assert np.all(width >= np.maximum(w1, w2) - 1e-12)


class TestSerialization:
    def test_roundtrip_bitwise(self):
        params, _ = train(tiny_panel(), tiny_map(), tiny_config(epochs=1))
        buf = io.BytesIO()
        save_model(params, buf)
        again = load_model(io.BytesIO(buf.getvalue()))
        assert again.config == params.config
        assert again.global_batch == params.global_batch
        assert set(again.arrays) == set(params.arrays)
        for k in params.arrays:
            np.testing.assert_array_equal(again.arrays[k], params.arrays[k])

    def test_save_is_deterministic(self):
        params, _ = train(tiny_panel(), tiny_map(), tiny_config(epochs=1))
        a, b = io.BytesIO(), io.BytesIO()
        save_model(params, a)
        save_model(params, b)
        assert a.getvalue() == b.getvalue()

    def test_bad_magic(self):
        with pytest.raises(DataError, match="magic"):
            load_model(io.BytesIO(b"NOPE" + b"\x00" * 16))

    def test_loaded_model_predicts_identically(self):
        params, _ = train(tiny_panel(), tiny_map(), tiny_config(epochs=1))
        buf = io.BytesIO()
        save_model(params, buf)
        again = load_model(io.BytesIO(buf.getvalue()))
        panel = tiny_panel()
        a = predict(params, panel, anchor=60)
        b = predict(again, panel, anchor=60)
        for sid in a:
            np.testing.assert_array_equal(a[sid][0], b[sid][0])

    def test_gates_are_packed_and_fused_without_copies(self):
        # a forward-only sweep holds each cell's weights once: its gate matrices view the model's arrays
        buf = io.BytesIO()
        save_model(init_model(tiny_config(), 4, tiny_map()), buf)
        for params in (init_model(tiny_config(), 4, tiny_map()), load_model(io.BytesIO(buf.getvalue()))):
            for i, layer in enumerate(model._Views(params).layers):
                for part, cell in zip(("bottom", "top"), layer):
                    for field in CELL_FIELDS:
                        assert np.shares_memory(getattr(cell, field).values, params.arrays[f"layer{i}.{part}.{field}"])

    def test_file_blocks_tile_each_fused_array(self):
        # the file holds one block per gate: row views of the fused array, in f, u, o, c order
        params = init_model(tiny_config(), 4, tiny_map())
        cells = [name for name in params.arrays if name.startswith("layer")]
        assert len(cells) == len(CELL_FIELDS) * 2 * len(tiny_config().dilations)
        for name in cells:
            params.arrays[name][...] = np.arange(params.arrays[name].size).reshape(params.arrays[name].shape)
        blocks = model._file_blocks(params.arrays)
        for name in cells:
            fused = params.arrays[name]
            rows = len(fused) // 4
            for k, gate in enumerate("fuoc"):
                block = blocks.pop(f"{name}_{gate}")
                assert np.shares_memory(block, fused)
                np.testing.assert_array_equal(block, fused[k * rows : (k + 1) * rows])
        assert blocks.keys() == params.arrays.keys() - set(cells)
        assert all(blocks[name] is params.arrays[name] for name in blocks)

    def test_golden_file(self):
        # pins the block layout, the meta.scalars order and the init draw order
        buf = io.BytesIO()
        save_model(init_model(tiny_config(), 4, tiny_map()), buf)
        assert len(buf.getvalue()) == 109951
        assert hashlib.sha256(buf.getvalue()).hexdigest() == (
            "cd6c8f729e58366c3fd4aee280597421198fa96e21051017f407bec99e38897c"
        )


@st.composite
def small_configs(draw):
    """A valid TrainConfig whose every field is drawn, with arrays small enough to build a model of."""
    small, stored = st.integers(1, 4), st.integers(-MAX_STORED_INT, MAX_STORED_INT)
    epochs = st.integers(1, MAX_STORED_INT)
    positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    quantiles = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
    q_low, q_star, q_high = sorted(draw(st.lists(quantiles, min_size=3, max_size=3, unique=True)))
    return TrainConfig(
        epochs=draw(epochs),
        batch_schedule=draw(st.dictionaries(epochs, epochs, min_size=1, max_size=3)),
        lr_schedule=draw(st.dictionaries(epochs, positive, min_size=1, max_size=3)),
        q_star=q_star, q_low=q_low, q_high=q_high,
        gamma=draw(st.floats(min_value=0.0, allow_infinity=False)),
        window=draw(st.integers(2, 12)), horizon=draw(small), period=draw(st.integers(1, 6)),
        dilations=tuple(draw(st.lists(st.integers(1, 8), min_size=1, max_size=3))),
        context_size=draw(small), context_batch=draw(st.integers(1, 3)), contexts_per_target=draw(epochs),
        state_width=draw(small), hidden_width=draw(small), conv_channels=draw(small), conv_kernel=draw(small),
        stride=draw(epochs), steps_per_update=draw(epochs), maxlag=draw(stored),
        seed=draw(st.integers(0, MAX_STORED_INT)), ensemble=draw(stored), context_mode=draw(st.sampled_from(CONTEXT_MODES)),
    )


def written(value) -> str:
    """A field value as config text writes it."""
    if isinstance(value, dict):
        return ",".join(f"{k}:{v!r}" for k, v in value.items())
    if isinstance(value, tuple):
        return ",".join(map(repr, value))
    return value if isinstance(value, str) else repr(value)


def exactly(cfg) -> str:
    """Every field's value with its type, schedules in epoch order: equal only for configs that match bit for bit."""
    return repr({name: sorted(v.items()) if isinstance(v, dict) else v for name, v in vars(cfg).items()})


@settings(max_examples=60, deadline=None)
@given(small_configs())
def test_config_round_trips_through_every_form(cfg):
    text = "".join(f"{name} = {written(value)}\n" for name, value in vars(cfg).items())
    from_text = load_config(io.StringIO(text))
    assert from_text == cfg and exactly(from_text) == exactly(cfg)

    for name, value in vars(cfg).items():
        (got,) = parse_overrides([f"{name}={written(value)}"]).values()
        assert got == value and exactly(cfg.with_overrides(**{name: got})) == exactly(cfg), name

    K = cfg.context_batch
    cmap = ContextMap({i: ((i + 1) % (K + 1),) for i in range(K + 1)}, tuple(range(K)), S=1, K=K)
    buf = io.BytesIO()
    save_model(init_model(cfg, K + 1, cmap), buf)
    loaded = load_model(io.BytesIO(buf.getvalue()))
    assert loaded.config == cfg and exactly(loaded.config) == exactly(cfg)
    assert loaded.n_series == K + 1 and loaded.global_batch == (() if cfg.context_mode == "none" else tuple(range(K)))


def field_ends(data):
    """Offsets where the file header and each block's name length, name, rank, shape and values end."""
    (count,) = struct.unpack_from("<I", data, 8)
    ends, pos = [4, 8, 12], 12
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", data, pos)
        (ndim,) = struct.unpack_from("<I", data, pos + 2 + name_len)
        shape = struct.unpack_from(f"<{ndim}I", data, pos + 6 + name_len)
        for size in (2, name_len, 4, 4 * ndim, 8 * int(np.prod(shape))):
            pos += size
            ends.append(pos)
    assert pos == len(data)
    return ends


class TestLengthCheckedReader:
    def setup_method(self):
        buf = io.BytesIO()
        self.params = init_model(tiny_config(), 4, tiny_map())
        save_model(self.params, buf)
        self.data = buf.getvalue()

    def test_prefix_cut_at_every_field_boundary(self):
        cuts = sorted({c + d for c in field_ends(self.data) for d in (-1, 0, 1) if c + d < len(self.data)})
        assert len(cuts) > 400
        for cut in cuts:
            with pytest.raises(DataError, match="truncated"):
                load_model(io.BytesIO(self.data[:cut]))

    def test_prefix_cut_at_random_points(self):
        rng = np.random.default_rng(0)
        for cut in rng.integers(0, len(self.data), 50):
            with pytest.raises(DataError, match="truncated"):
                load_model(io.BytesIO(self.data[:cut]))

    def test_bytes_after_last_block(self):
        with pytest.raises(DataError, match="after its last block"):
            load_model(io.BytesIO(self.data + b"\x00"))

    def test_missing_meta_block(self, monkeypatch):
        write_meta = model._meta_blocks
        for name in write_meta(self.params):
            monkeypatch.setattr(model, "_meta_blocks", lambda p: {k: v for k, v in write_meta(p).items() if k != name})
            buf = io.BytesIO()
            save_model(self.params, buf)
            with pytest.raises(DataError, match=f"lacks its {name} block"):
                load_model(io.BytesIO(buf.getvalue()))

    def test_scalar_block_of_another_length(self, monkeypatch):
        write_meta = model._meta_blocks

        def short_scalars(params):
            blocks = write_meta(params)
            blocks["meta.scalars"] = blocks["meta.scalars"][1:]
            return blocks

        monkeypatch.setattr(model, "_meta_blocks", short_scalars)
        buf = io.BytesIO()
        save_model(self.params, buf)
        with pytest.raises(DataError, match="meta.scalars holds"):
            load_model(io.BytesIO(buf.getvalue()))
