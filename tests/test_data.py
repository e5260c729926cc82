import datetime as dt
import io
import math

import numpy as np
import pytest

from contextrnn.config import TrainConfig
from contextrnn.data import (
    DataError,
    SynthSpec,
    calendar_features,
    load_panel,
    postprocess,
    preprocess_window,
    split,
    synth_generate,
    write_panel_csv,
)
from contextrnn.model import _Sweep, _Views, init_model


def panel_from_text(text):
    return load_panel(io.StringIO(text))


class TestLoadPanel:
    def test_shape_contract(self):
        p = panel_from_text("0,1,2\n1,3,4\n2,5,6\n3,7,8\n4,9,10\n")
        assert p.n == 2 and p.T == 5

    def test_missing_cell_masks(self):
        p = panel_from_text("0,1,2\n1,,4\n2,5,6\n")
        assert not p.mask[0, 1]
        assert p.mask.sum() == 5

    def test_zero_value_triggers_shift(self):
        p = panel_from_text("0,0,2\n1,3,4\n")
        assert p.shift == pytest.approx(1.0 + 1e-6)
        assert np.all(p.values[p.mask] >= 1e-6)
        # raw values recoverable
        assert p.values[0, 0] - p.shift == pytest.approx(0.0)

    def test_iso_timestamps(self):
        p = panel_from_text("2015-06-01T00:00,1\n2015-06-01T01:00,2\n")
        assert p.frequency == dt.timedelta(hours=1)
        assert p.timestamps[0] == dt.datetime(2015, 6, 1)

    def test_errors(self):
        with pytest.raises(DataError, match="ragged"):
            panel_from_text("0,1,2\n1,3\n")
        with pytest.raises(DataError, match="increasing|spaced"):
            panel_from_text("2015-06-01T02:00,1\n2015-06-01T01:00,2\n")
        with pytest.raises(DataError, match="at least one series"):
            panel_from_text("0\n1\n")

    def test_roundtrip_through_csv(self):
        p = synth_generate(SynthSpec(n=3, T=40, seasonal_period=8), seed=5)
        buf = io.StringIO()
        write_panel_csv(p, buf)
        again = load_panel(io.StringIO(buf.getvalue()))
        np.testing.assert_allclose(again.values, p.values, rtol=0, atol=1e-12)


class TestSplit:
    def test_sixty_twenty_twenty(self):
        p = synth_generate(SynthSpec(n=2, T=100, seasonal_period=8), seed=0)
        tr, va, te = split(p)
        assert (tr.T, va.T, te.T) == (60, 20, 20)

    def test_floor_arithmetic(self):
        p = synth_generate(SynthSpec(n=2, T=10, seasonal_period=4), seed=0)
        tr, va, te = split(p)
        assert (tr.T, va.T, te.T) == (6, 2, 2)

    def test_concatenation_reproduces_panel(self):
        p = synth_generate(SynthSpec(n=2, T=53, seasonal_period=8), seed=1)
        tr, va, te = split(p)
        glued = np.concatenate([tr.values, va.values, te.values], axis=1)
        np.testing.assert_array_equal(glued, p.values)
        assert tr.timestamps + va.timestamps + te.timestamps == p.timestamps

    def test_too_short(self):
        p = synth_generate(SynthSpec(n=1, T=9, seasonal_period=4), seed=0)
        with pytest.raises(DataError, match="too short"):
            split(p)


class TestWindows:
    def test_flat_window_maps_to_zero(self):
        z = np.full(6, 3.0)
        out = preprocess_window(z, 3.0, np.ones(6))
        np.testing.assert_allclose(out, 0.0, atol=1e-15)

    def test_doubling_gives_ln2(self):
        out = preprocess_window(np.array([4.0]), 2.0, np.array([1.0]))
        assert out[0] == pytest.approx(math.log(2.0), abs=1e-15)

    def test_postprocess_values(self):
        assert postprocess(np.array([0.0]), 5.0, np.array([1.0]))[0] == pytest.approx(5.0)
        out = postprocess(np.array([math.log(2.0)]), 5.0, np.array([1.1]))
        assert out[0] == pytest.approx(11.0, abs=1e-12)

    def test_roundtrip_is_identity(self):
        rng = np.random.default_rng(2)
        z = rng.uniform(1.0, 50.0, 24)
        s = rng.uniform(0.5, 1.5, 24)
        z_bar = float(z.mean())
        x = preprocess_window(z, z_bar, s)
        back = postprocess(x, z_bar, s)
        np.testing.assert_allclose(back, z, rtol=1e-12)
        # and the other composition order
        x2 = preprocess_window(postprocess(x, z_bar, s), z_bar, s)
        np.testing.assert_allclose(x2, x, atol=1e-12)

    def test_postprocess_overflow(self):
        with pytest.raises(DataError, match="overflow"):
            postprocess(np.array([701.0]), 1.0, np.array([1.0]))

    def test_shift_inverted(self):
        out = postprocess(np.array([0.0]), 4.0, np.array([1.0]), shift=1.5)
        assert out[0] == pytest.approx(2.5)

    def test_window_pair_extraction(self):
        # the model's sweep normalizes an input window on the tape as preprocess_window does
        panel = synth_generate(SynthSpec(n=2, T=40, seasonal_period=4), seed=8)
        cfg = TrainConfig(window=8, horizon=2, period=4, dilations=(1,), context_mode="none")
        params = init_model(cfg, panel.n, None)
        sweep = _Sweep(panel, params, [1, 0])
        sweep.set_views(_Views(params))
        sweep.advance_to(20)
        x_in, z_bar, usable = sweep._window(sweep.main, 20)
        factors = np.concatenate([f.values for f in sweep.main.factors[-8:]], axis=1)
        assert x_in.values.shape == factors.shape == (2, 8)
        for row, sid in enumerate([1, 0]):
            assert usable[row] and z_bar[row] == pytest.approx(panel.values[sid, 12:20].mean())
            expected = preprocess_window(panel.values[sid, 12:20], z_bar[row], factors[row])
            np.testing.assert_allclose(x_in.values[row], expected, rtol=1e-12, atol=1e-12)


class TestCalendar:
    def test_four_ones(self):
        v = calendar_features(dt.datetime(2021, 11, 30, 17, 45))
        assert v.sum() == 4.0
        assert set(np.unique(v)) == {0.0, 1.0}

    def test_known_monday(self):
        v = calendar_features(dt.datetime(2015, 6, 1, 0, 0))
        assert list(np.flatnonzero(v)) == [0, 24, 31, 62 + 5]

    def test_day_apart_dom_differs_by_one(self):
        a = calendar_features(dt.datetime(2015, 6, 1, 5))
        b = calendar_features(dt.datetime(2015, 6, 2, 5))
        dom_a = int(np.flatnonzero(a[31:62])[0])
        dom_b = int(np.flatnonzero(b[31:62])[0])
        assert dom_b - dom_a == 1

    def test_injective_over_a_month_of_hours(self):
        seen = set()
        stamp = dt.datetime(2015, 6, 1)
        for _ in range(30 * 24):
            seen.add(calendar_features(stamp).tobytes())
            stamp += dt.timedelta(hours=1)
        assert len(seen) == 30 * 24


class TestSynth:
    def test_zero_noise_exact_coupling(self):
        spec = SynthSpec(n=3, T=60, edges=((0, 1), (0, 2)), coupling=1.0, lag=1, noise_sigma=0.0, seasonal_period=8)
        coupled = synth_generate(spec, seed=9)
        solo = synth_generate(
            SynthSpec(n=3, T=60, edges=spec.edges, coupling=0.0, lag=1, noise_sigma=0.0, seasonal_period=8),
            seed=9,
        )
        for driven in (1, 2):
            got = coupled.values[driven, 1:]
            expected = solo.values[0, :-1] + solo.values[driven, 1:]
            np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_same_seed_identical(self):
        spec = SynthSpec(n=4, T=50, edges=((0, 3),), seasonal_period=6)
        a = synth_generate(spec, seed=13)
        b = synth_generate(spec, seed=13)
        np.testing.assert_array_equal(a.values, b.values)

    def test_positive(self):
        p = synth_generate(SynthSpec(n=5, T=200, edges=((0, 1),), noise_sigma=0.5, seasonal_period=12), seed=3)
        assert p.values.min() > 0

    def test_bad_edge_rejected(self):
        with pytest.raises(DataError):
            SynthSpec(n=2, T=10, edges=((0, 0),))
