import datetime as dt
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from contextrnn.config import TrainConfig, load_config
from contextrnn.data import (
    DataError,
    SeriesPanel,
    SynthSpec,
    calendar_features,
    load_panel,
    postprocess,
    preprocess_window,
    split,
    synth_generate,
    write_forecast_csv,
    write_panel_csv,
)
from contextrnn.model import _Sweep, _Views, init_model, load_model, save_model
from contextrnn.selection import ContextMap, read_context_map, write_context_map

SRC = Path(__file__).resolve().parents[1] / "src"


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
        # the panel keeps the values as read; the shift makes them positive for the model
        np.testing.assert_array_equal(p.values, [[0.0, 3.0], [2.0, 4.0]])
        assert np.all(p.values[p.mask] + p.shift >= 1e-6)

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
        again = round_trip(p)
        np.testing.assert_array_equal(again.values, p.values)

    def test_blank_whitespace_and_nan_cells_are_missing(self):
        p = panel_from_text("0,1,2\n1,  ,nan\n2,NaN,\t\n3, 4 ,-nan\n")
        np.testing.assert_array_equal(p.mask, [[True, False, False, True], [True, False, False, False]])
        np.testing.assert_array_equal(p.values, [[1.0, 0.0, 0.0, 4.0], [2.0, 0.0, 0.0, 0.0]])

    def test_cells_parse_by_python_float_rules(self):
        p = panel_from_text("0, 1.5 ,1_000,+1,.5,\u0661\u0662\n")
        np.testing.assert_array_equal(p.values[:, 0], [1.5, 1000.0, 1.0, 0.5, 12.0])
        assert p.shift == 0.0
        assert panel_from_text("0,1e-400\n").shift == 1.0 + 1e-6  # underflows to 0.0, a non-positive value

    @pytest.mark.parametrize("cell", ["inf", "-inf", " Infinity", "1e999", "-1e400"])
    def test_infinite_cell(self, cell):
        with pytest.raises(DataError, match=f"infinite cell at row 1, series 1: {cell.strip()!r}"):
            panel_from_text(f"0,1,2\n1,3,{cell}\n2,5,6\n")

    def test_bad_cell_named(self):
        with pytest.raises(DataError, match="bad numeric cell at row 2, series 0: 'x'"):
            panel_from_text("0,1,2\n1,3,4\n2, x ,1e999\n")

    def test_timestamp_errors_come_before_cell_errors(self):
        with pytest.raises(DataError, match="increase by 1"):
            panel_from_text("0,x\n2,1\n")

    def test_malformed_csv(self):
        with pytest.raises(DataError, match="malformed CSV at line 1"):
            panel_from_text("0,1\r2\n")

    def test_file_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"0,1\n1,\xff\n")
        with pytest.raises(DataError, match="does not decode"):
            load_panel(str(path))

    def test_mixed_time_zones(self):
        with pytest.raises(DataError, match="time-zone"):
            panel_from_text("2015-06-01T00:00,1\n2015-06-01T01:00+00:00,2\n")

    def test_peak_memory_of_a_large_load(self, tmp_path):
        # a fresh process, so the high-water mark belongs to this load alone
        rng = np.random.default_rng(0)
        values = rng.uniform(1.0, 30.0, (200, 2000))
        mask = rng.random(values.shape) > 0.01
        path = tmp_path / "panel.csv"
        stamps = tuple(dt.datetime(2000, 1, 1) + dt.timedelta(hours=t) for t in range(2000))
        write_panel_csv(SeriesPanel(np.where(mask, values, 0.0), stamps, mask, dt.timedelta(hours=1)), path)
        script = (
            "import resource, sys\n"
            "from contextrnn.data import load_panel\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "panel = load_panel(sys.argv[1])\n"
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "print((after - before) * 1024 - panel.values.nbytes - panel.mask.nbytes)\n"
        )
        out = subprocess.run([sys.executable, "-c", script, str(path)], capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": str(SRC)})
        assert int(out.stdout) <= 12 * 2**20  # a whole-file read held about 40 MiB of strings here


def round_trip(panel):
    buf = io.StringIO()
    write_panel_csv(panel, buf)
    return load_panel(io.StringIO(buf.getvalue()))


@st.composite
def panel_texts(draw, values):
    """CSV text of a gapped panel, with integer or ISO timestamps and about a quarter of its cells blank."""
    n, T = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    if draw(st.booleans()):
        first = draw(st.integers(-10**6, 10**6))
        stamps = [str(first + t) for t in range(T)]
    else:
        start = draw(st.datetimes(min_value=dt.datetime(1900, 1, 1), max_value=dt.datetime(2100, 1, 1)))
        step = dt.timedelta(seconds=draw(st.integers(1, 7 * 86400)))
        stamps = [(start + t * step).isoformat() for t in range(T)]
    cell = st.one_of(st.just(""), values.map(repr), values.map(repr), values.map(repr))
    return "".join(",".join([stamp] + [draw(cell) for _ in range(n)]) + "\n" for stamp in stamps)


def assert_same_panel(again, panel):
    assert again.timestamps == panel.timestamps and again.frequency == panel.frequency
    np.testing.assert_array_equal(again.mask, panel.mask)
    assert again.values.tobytes() == panel.values.tobytes() and again.shift == panel.shift


@settings(max_examples=200, deadline=None)
@given(panel_texts(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)))
def test_round_trip_of_a_gapped_panel_is_bit_exact(text):
    panel = load_panel(io.StringIO(text))
    assert panel.shift == 0.0
    assert_same_panel(round_trip(panel), panel)


@settings(max_examples=200, deadline=None)
@given(panel_texts(st.floats(min_value=-1e6, max_value=1e6)))
@example("0,0.008972988942744878\n1,-0.003763370959790291\n")  # came back an ulp off while files held values - shift
def test_round_trip_of_a_shifted_panel_is_bit_exact(text):
    # the panel and its file hold the same values, so the reload derives the same shift
    panel = load_panel(io.StringIO(text))
    assert_same_panel(round_trip(panel), panel)


def assert_equal(a, b):
    assert a == b


class TestPathOrStream:
    """Every reader and writer takes a path or an open stream, through ``data.opened``."""

    PANEL = "2020-01-01T00:00:00,1.5,\n2020-01-01T01:00:00,-2.0,3.25\n2020-01-01T02:00:00,4.0,5.0\n"
    CONFIG = "window = 16\nperiod = 8\ndilations = 1,2\nlr_schedule = 1:0.003,3:0.001\ncontext_mode = global\n"
    MAP = "0: 1\n1: 2\n2: 0\nGLOBAL: 0,1\n"
    #: each text format: a file's text, its reader, and how two reads are compared
    TEXTS = {
        "panel": (PANEL, load_panel, assert_same_panel),
        "config": (CONFIG, load_config, assert_equal),
        "map": (MAP, read_context_map, assert_equal),
    }

    @staticmethod
    def model():
        cmap = ContextMap({0: (1,), 1: (2,), 2: (0,)}, (0, 1), 1, 2)
        config = TrainConfig(window=16, period=8, dilations=(1, 2), context_batch=2, hidden_width=8, state_width=6)
        return init_model(config, 3, cmap)

    @pytest.mark.parametrize("writer", ["model", "map", "panel", "forecast"])
    def test_writers_write_the_same_bytes(self, tmp_path, writer):
        write = {
            "model": lambda out: save_model(self.model(), out),
            "map": lambda out: write_context_map(read_context_map(io.StringIO(self.MAP)), out),
            "panel": lambda out: write_panel_csv(panel_from_text(self.PANEL), out),
            "forecast": lambda out: write_forecast_csv([(dt.datetime(2020, 1, 1), 2, 1.5, 1.0, 2.5)], out),
        }[writer]
        path = tmp_path / "out"
        write(str(path))
        stream = io.BytesIO() if writer == "model" else io.StringIO()
        write(stream)
        got = stream.getvalue()
        assert path.read_bytes() == (got if writer == "model" else got.encode())

    def test_model_reads_the_same_from_both(self, tmp_path):
        path = tmp_path / "m.bin"
        save_model(self.model(), str(path))
        a, b = load_model(str(path)), load_model(io.BytesIO(path.read_bytes()))
        assert (a.config, a.n_series, a.global_batch) == (b.config, b.n_series, b.global_batch)
        assert {k: v.tobytes() for k, v in a.arrays.items()} == {k: v.tobytes() for k, v in b.arrays.items()}

    @pytest.mark.parametrize("kind", sorted(TEXTS))
    def test_text_reads_the_same_from_both(self, tmp_path, kind):
        text, read, same = self.TEXTS[kind]
        path = tmp_path / "file.txt"
        path.write_bytes(text.encode())
        same(read(str(path)), read(io.StringIO(text)))

    @pytest.mark.parametrize("kind", sorted(TEXTS))
    def test_crlf_lines_read_as_lf_lines(self, tmp_path, kind):
        text, read, same = self.TEXTS[kind]
        crlf = text.replace("\n", "\r\n")
        path = tmp_path / "crlf.txt"
        path.write_bytes(crlf.encode())
        same(read(str(path)), read(io.StringIO(text)))
        same(read(io.StringIO(crlf, newline="")), read(io.StringIO(text)))


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
        solo = synth_generate(
            SynthSpec(n=3, T=60, edges=((0, 1), (0, 2)), coupling=0.0, lag=1, noise_sigma=0.0, seasonal_period=8),
            seed=9,
        )
        # -1.0 takes the driven series below zero: the panel keeps the generator's values and records a shift
        for coupling in (1.0, -1.0):
            coupled = synth_generate(
                SynthSpec(n=3, T=60, edges=((0, 1), (0, 2)), coupling=coupling, lag=1, noise_sigma=0.0, seasonal_period=8),
                seed=9,
            )
            for driven in (1, 2):
                got = coupled.values[driven, 1:]
                expected = coupling * solo.values[0, :-1] + solo.values[driven, 1:]
                np.testing.assert_allclose(got, expected, atol=1e-12)
            least = coupled.values.min()
            assert (least <= 0.0) == (coupling < 0.0)
            assert coupled.shift == (1.0 - least + 1e-6 if least <= 0.0 else 0.0)

    def test_negative_coupling_round_trips_through_a_file(self, tmp_path):
        spec = SynthSpec(n=3, T=60, edges=((0, 1), (0, 2)), coupling=-1.5, lag=1, noise_sigma=0.4, seasonal_period=8)
        panel = synth_generate(spec, seed=2)
        assert panel.values.min() < 0.0 < panel.shift
        path = tmp_path / "panel.csv"
        write_panel_csv(panel, str(path))
        assert_same_panel(load_panel(str(path)), panel)

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
