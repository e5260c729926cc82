import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from contextrnn import model as model_module
from contextrnn.cli import run_cli
from contextrnn.data import SeriesPanel, load_panel, write_panel_csv
from contextrnn.metrics import forecast_matrices
from contextrnn.model import load_model, save_model
from contextrnn.selection import read_context_map

SRC = Path(__file__).resolve().parents[1] / "src"

TINY_CONFIG = """
# desk-scale run
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
seed = 0
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config = root / "run.cfg"
    config.write_text(TINY_CONFIG)
    data = root / "panel.csv"
    code = run_cli(
        ["synth", "--n", "4", "--t", "200", "--edges", "0-1,0-2", "--noise", "0.2",
         "--period", "8", "--seed", "3", "--out", str(data)]
    )
    assert code == 0
    return root, config, data


class TestSynth:
    def test_python_m_contextrnn(self, tmp_path):
        # the package's __main__ in a fresh interpreter, as a user runs it without the console script
        out = tmp_path / "p.csv"
        args = ["synth", "--n", "3", "--t", "40", "--seed", "1", "--out"]
        done = subprocess.run([sys.executable, "-m", "contextrnn", *args, str(out)], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
        assert done.returncode == 0, done.stderr
        assert run_cli([*args, str(tmp_path / "in_process.csv")]) == 0
        assert out.read_bytes() == (tmp_path / "in_process.csv").read_bytes()
        panel = load_panel(str(out))
        assert (panel.n, panel.T) == (3, 40)

    def test_byte_identical_runs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["synth", "--n", "3", "--t", "60", "--seed", "3", "--period", "6"]
        assert run_cli(args + ["--out", str(a)]) == 0
        assert run_cli(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_loadable(self, tmp_path):
        out = tmp_path / "p.csv"
        run_cli(["synth", "--n", "2", "--t", "40", "--out", str(out)])
        panel = load_panel(str(out))
        assert panel.n == 2 and panel.T == 40

    def test_spec_file_with_flag_override(self, tmp_path):
        spec = tmp_path / "panel.spec"
        spec.write_text("n = 3\nt = 50\nedges = 0-1:2.0\nnoise = 0.05\nperiod = 6\nseed = 9\n")
        from_file = tmp_path / "a.csv"
        overridden = tmp_path / "b.csv"
        assert run_cli(["synth", "--spec", str(spec), "--out", str(from_file)]) == 0
        assert run_cli(["synth", "--spec", str(spec), "--t", "30", "--out", str(overridden)]) == 0
        assert load_panel(str(from_file)).T == 50
        assert load_panel(str(overridden)).T == 30

    def test_negative_value_in_exponent_form(self, tmp_path):
        # argparse took "-2e0" for a flag and exited 1 with "expected one argument"
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["synth", "--n", "3", "--t", "40", "--edges", "0-1"]
        assert run_cli(args + ["--coupling", "-2e0", "--out", str(a)]) == 0
        assert run_cli(args + ["--coupling=-2.0", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestPipeline:
    def test_select_train_predict_evaluate(self, workspace, capsys, tmp_path):
        root, config, data = workspace
        cmap = root / "ctx.map"
        assert run_cli(["select-context", "--data", str(data), "--out", str(cmap), "--config", str(config)]) == 0
        text = cmap.read_text()
        assert "GLOBAL:" in text

        model = root / "model.bin"
        assert run_cli(["train", "--data", str(data), "--map", str(cmap), "--config", str(config), "--out", str(model)]) == 0
        out = capsys.readouterr().out
        assert "epoch  1" in out and "epoch  2" in out

        params = load_model(str(model))
        assert params.config.window == 16

        forecast = root / "forecast.csv"
        assert run_cli(["predict", "--model", str(model), "--data", str(data), "--out", str(forecast)]) == 0
        lines = forecast.read_text().splitlines()
        assert lines[0] == "timestamp,series,median,lower,upper"
        assert len(lines) == 1 + 4 * 4  # four series, horizon four
        capsys.readouterr()

        assert run_cli(["evaluate", "--model", str(model), "--data", str(data)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rse"] >= 0.0

    def test_deterministic_model_files(self, workspace, tmp_path):
        root, config, data = workspace
        cmap = root / "ctx.map"
        m1, m2 = tmp_path / "m1.bin", tmp_path / "m2.bin"
        base = ["train", "--data", str(data), "--map", str(cmap), "--config", str(config)]
        assert run_cli(base + ["--out", str(m1)]) == 0
        assert run_cli(base + ["--out", str(m2)]) == 0
        assert m1.read_bytes() == m2.read_bytes()

    def test_ensemble_predict_from_multiple_models(self, workspace, tmp_path):
        root, config, data = workspace
        cmap = root / "ctx.map"
        m1, m2 = tmp_path / "s0.bin", tmp_path / "s1.bin"
        base = ["train", "--data", str(data), "--map", str(cmap), "--config", str(config)]
        assert run_cli(base + ["--seed", "0", "--out", str(m1)]) == 0
        assert run_cli(base + ["--seed", "1", "--out", str(m2)]) == 0
        out = tmp_path / "ens.csv"
        assert run_cli(["predict", "--model", str(m1), str(m2), "--data", str(data), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 4 * 4

    def test_predefined_map_passthrough(self, workspace, tmp_path):
        root, config, data = workspace
        given = tmp_path / "given.map"
        given.write_text("0: 1,2\n1: 0,2\n2: 0,1\n3: 0,1\nGLOBAL: 0,1\n")
        out = tmp_path / "echo.map"
        assert run_cli(
            ["select-context", "--data", str(data), "--mode", "predefined",
             "--predefined", str(given), "--out", str(out), "--config", str(config)]
        ) == 0
        assert "GLOBAL: 0,1" in out.read_text()


class TestUnevenlyObservedEvaluation:
    def test_one_missing_test_cell_scores(self, workspace, capsys, tmp_path):
        # series 1 misses one cell of the test region, so it has fewer
        # fully observed forecast windows there than the other series
        root, config, data = workspace
        lines = data.read_text().splitlines()
        cells = lines[190].split(",")
        cells[2] = ""
        lines[190] = ",".join(cells)
        gapped = tmp_path / "gapped.csv"
        gapped.write_text("\n".join(lines) + "\n")
        cmap = tmp_path / "ctx.map"
        cmap.write_text("0: 1,2\n1: 0,2\n2: 0,1\n3: 0,1\nGLOBAL: 0,1\n")
        model = tmp_path / "model.bin"
        assert run_cli(["train", "--data", str(gapped), "--map", str(cmap), "--config", str(config),
                        "--set", "epochs=1", "--out", str(model)]) == 0
        capsys.readouterr()

        assert run_cli(["evaluate", "--model", str(model), "--data", str(gapped)]) == 0
        report = json.loads(capsys.readouterr().out)

        params, panel = load_model(str(model)), load_panel(str(gapped))
        start = max(report["config"]["test_start"], params.config.first_anchor)
        predicted, actual = forecast_matrices(params, panel, start)
        scored = ~np.isnan(actual)
        assert not scored.all() and scored[1].sum() < scored[0].sum()

        def brute_rse(p, a):
            return math.sqrt(np.sum((a - p) ** 2)) / math.sqrt(np.sum((a - a.mean()) ** 2))

        def brute_corr(p_rows, a_rows):
            return np.mean([np.corrcoef(p, a)[0, 1] for p, a in zip(p_rows, a_rows)])

        assert report["rse"] == pytest.approx(brute_rse(predicted[scored], actual[scored]), abs=1e-12)
        own = [scored[i].reshape(-1) for i in range(panel.n)]
        assert report["corr"] == pytest.approx(
            brute_corr([predicted[i].reshape(-1)[own[i]] for i in range(panel.n)],
                       [actual[i].reshape(-1)[own[i]] for i in range(panel.n)]), abs=1e-12)
        for h in range(params.config.horizon):
            keep = scored[:, :, h]
            got_rse, got_corr = report["per_horizon"][str(h + 1)]
            assert got_rse == pytest.approx(brute_rse(predicted[:, :, h][keep], actual[:, :, h][keep]), abs=1e-12)
            assert got_corr == pytest.approx(
                brute_corr([predicted[i, keep[i], h] for i in range(panel.n)],
                           [actual[i, keep[i], h] for i in range(panel.n)]), abs=1e-12)


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert run_cli(["train"]) == 1  # missing required arguments
        assert run_cli(["no-such-command"]) == 1

    def test_data_error(self, workspace, tmp_path):
        root, config, data = workspace
        assert run_cli(["evaluate", "--model", str(tmp_path / "missing.bin"), "--data", str(data)]) == 2

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_divergence_error(self, workspace, tmp_path):
        # an absurd learning rate blows the parameters up; the resulting
        # inf/nan loss must surface as exit code 3, not a crash
        root, config, data = workspace
        cmap = root / "ctx.map"
        code = run_cli(
            ["train", "--data", str(data), "--map", str(cmap), "--config", str(config),
             "--set", "lr_schedule=1:1e6", "--set", "epochs=3", "--out", str(tmp_path / "junk.bin")]
        )
        assert code == 3


@pytest.fixture(scope="module")
def four_series_model(workspace):
    root, config, data = workspace
    cmap = root / "four.map"
    cmap.write_text("0: 1,2\n1: 0,2\n2: 0,1\n3: 0,1\nGLOBAL: 0,1\n")
    model = root / "four.bin"
    assert run_cli(["train", "--data", str(data), "--map", str(cmap), "--config", str(config),
                    "--set", "epochs=1", "--out", str(model)]) == 0
    return model


def underflowing_panel(data, tmp_path):
    """The panel at ``data`` with series 3 at 1e300 and then 1e-300: its seasonal factors underflow to 0."""
    panel = load_panel(str(data))
    values = panel.values.copy()
    values[3, 0] = 1e300
    values[3, 1:] = 1e-300
    path = tmp_path / "extreme.csv"
    write_panel_csv(SeriesPanel(values, panel.timestamps, panel.mask, panel.frequency), str(path))
    return path


def panel_with_cells(data, tmp_path, cells):
    """The panel at ``data`` with the given {(series, step): value} cells."""
    panel = load_panel(str(data))
    values = panel.values.copy()
    for at, value in cells.items():
        values[at] = value
    path = tmp_path / "edited.csv"
    write_panel_csv(SeriesPanel(values, panel.timestamps, panel.mask, panel.frequency), str(path))
    return path


#: panels the positivity shift cannot make positive and finite: a least value of -1e16, whose shift
#: rounds to 1e16 and leaves that cell at 0; and ±1.5e308, whose shift takes 1.5e308 to inf
UNSHIFTABLE = {"least -1e16": {(2, 5): -1e16}, "-1.5e308 and 1.5e308": {(1, 5): -1.5e308, (2, 7): 1.5e308}}


class TestModelMeetsItsPanel:
    """A model file or map that does not fit the panel is a data error, reported in one line."""

    def assert_data_error(self, argv, capsys):
        capsys.readouterr()
        assert run_cli(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("data error:"), err
        return err[0]

    def three_series_panel(self, tmp_path):
        path = tmp_path / "three.csv"
        assert run_cli(["synth", "--n", "3", "--t", "200", "--period", "8", "--seed", "3", "--out", str(path)]) == 0
        return path

    def test_predict_on_a_panel_with_another_series_count(self, four_series_model, tmp_path, capsys):
        three = self.three_series_panel(tmp_path)
        self.assert_data_error(["predict", "--model", str(four_series_model), "--data", str(three),
                                "--out", str(tmp_path / "f.csv")], capsys)

    def test_predict_with_ensemble_members_of_different_horizons(self, workspace, four_series_model, tmp_path, capsys):
        root, config, data = workspace
        short = tmp_path / "short.bin"
        assert run_cli(["train", "--data", str(data), "--map", str(root / "four.map"), "--config", str(config),
                        "--set", "epochs=1", "--set", "horizon=2", "--out", str(short)]) == 0
        err = self.assert_data_error(["predict", "--model", str(four_series_model), str(short), "--data", str(data),
                                      "--out", str(tmp_path / "f.csv")], capsys)
        assert "horizons: 4 and 2" in err

    def test_evaluate_on_a_panel_with_another_series_count(self, four_series_model, tmp_path, capsys):
        three = self.three_series_panel(tmp_path)
        self.assert_data_error(["evaluate", "--model", str(four_series_model), "--data", str(three)], capsys)

    def test_predict_series_outside_the_panel(self, workspace, four_series_model, tmp_path, capsys):
        _root, _config, data = workspace
        self.assert_data_error(["predict", "--model", str(four_series_model), "--data", str(data),
                                "--series", "9", "--out", str(tmp_path / "f.csv")], capsys)

    def test_train_with_a_global_batch_outside_the_panel(self, workspace, tmp_path, capsys):
        _root, config, data = workspace
        cmap = tmp_path / "far.map"
        cmap.write_text("0: 1,2\n1: 0,2\n2: 0,1\n3: 0,1\nGLOBAL: 0,9\n")
        self.assert_data_error(["train", "--data", str(data), "--map", str(cmap), "--config", str(config),
                                "--out", str(tmp_path / "m.bin")], capsys)

    def test_evaluate_a_truncated_model_file(self, workspace, four_series_model, tmp_path, capsys):
        _root, _config, data = workspace
        half = tmp_path / "half.bin"
        whole = four_series_model.read_bytes()
        half.write_bytes(whole[: len(whole) // 2])
        self.assert_data_error(["evaluate", "--model", str(half), "--data", str(data)], capsys)

    def test_evaluate_on_a_panel_whose_seasonal_factors_underflow(self, workspace, four_series_model, tmp_path, capsys):
        extreme = underflowing_panel(workspace[2], tmp_path)
        with np.errstate(divide="ignore"):
            self.assert_data_error(["evaluate", "--model", str(four_series_model), "--data", str(extreme)], capsys)

    def test_predict_on_a_panel_whose_seasonal_factors_underflow(self, workspace, four_series_model, tmp_path, capsys):
        extreme = underflowing_panel(workspace[2], tmp_path)
        with np.errstate(divide="ignore"):
            self.assert_data_error(["predict", "--model", str(four_series_model), "--data", str(extreme),
                                    "--out", str(tmp_path / "f.csv")], capsys)

    # train is left out on ±1.5e308: it takes two series at a time, and a batch holding neither edited
    # series passes the check with values near 1.5e308, on which smoothing overflows
    @pytest.mark.parametrize("command, panel", [("train", "least -1e16"), ("evaluate", "least -1e16"),
                                                ("predict", "least -1e16"), ("evaluate", "-1.5e308 and 1.5e308"),
                                                ("predict", "-1.5e308 and 1.5e308")])
    def test_a_panel_the_shift_cannot_make_positive(self, workspace, four_series_model, tmp_path, capsys, command,
                                                    panel):
        root, config, data = workspace
        edited = str(panel_with_cells(data, tmp_path, UNSHIFTABLE[panel]))
        argv = {
            "train": ["train", "--data", edited, "--map", str(root / "four.map"), "--config", str(config),
                      "--out", str(tmp_path / "m.bin")],
            "evaluate": ["evaluate", "--model", str(four_series_model), "--data", edited],
            "predict": ["predict", "--model", str(four_series_model), "--data", edited,
                        "--out", str(tmp_path / "f.csv")],
        }[command]
        assert "is not positive and finite" in self.assert_data_error(argv, capsys)

    def test_selection_on_a_panel_spanning_the_float_range(self, workspace, tmp_path, capsys):
        # the load-time shift took 1.5e308 to inf, and selection raised IndexError
        root, config, data = workspace
        edited = panel_with_cells(data, tmp_path, UNSHIFTABLE["-1.5e308 and 1.5e308"])
        assert run_cli(["select-context", "--data", str(edited), "--config", str(config),
                        "--out", str(tmp_path / "ctx.map")]) == 0
        assert read_context_map(str(tmp_path / "ctx.map")).global_batch


class TestMalformedValues:
    """A value that does not parse as its type ends in its exit code with one line naming it."""

    def assert_exit(self, argv, capsys, code, match):
        capsys.readouterr()
        assert run_cli(argv) == code
        err = capsys.readouterr().err.strip().splitlines()
        kind = "usage error:" if code == 1 else "data error:"
        assert len(err) == 1 and err[0].startswith(kind) and match in err[0], err

    def test_config_override(self, workspace, tmp_path, capsys):
        root, config, data = workspace
        self.assert_exit(["train", "--data", str(data), "--map", str(root / "ctx.map"), "--config", str(config),
                          "--set", "window=abc", "--out", str(tmp_path / "m.bin")], capsys, 2, "'window'")

    def test_config_file_value(self, workspace, tmp_path, capsys):
        root, config, data = workspace
        bad = tmp_path / "bad.cfg"
        bad.write_text(config.read_text() + "window = abc\n")
        self.assert_exit(["train", "--data", str(data), "--map", str(root / "ctx.map"), "--config", str(bad),
                          "--out", str(tmp_path / "m.bin")], capsys, 2, "'window'")

    def test_synth_edge(self, tmp_path, capsys):
        self.assert_exit(["synth", "--edges", "0-a", "--out", str(tmp_path / "p.csv")], capsys, 1, "'0-a'")

    def test_negative_seed(self, workspace, tmp_path, capsys):
        root, config, data = workspace
        self.assert_exit(["train", "--data", str(data), "--map", str(root / "ctx.map"), "--config", str(config),
                          "--seed", "-1", "--out", str(tmp_path / "m.bin")], capsys, 2, "seed")
        self.assert_exit(["synth", "--seed", "-1", "--out", str(tmp_path / "p.csv")], capsys, 2, "seed")

    def test_negative_exponent_form_reaches_the_flag_type(self, workspace, tmp_path, capsys):
        # read as the flag's value, so the int type names it, on every command
        _root, config, data = workspace
        self.assert_exit(["select-context", "--data", str(data), "--out", str(tmp_path / "ctx.map"),
                          "--seed", "-1e0"], capsys, 1, "invalid int value: '-1e0'")
        self.assert_exit(["evaluate", "--model", "m.bin", "--data", str(data), "--test-start", "-2E3"],
                         capsys, 1, "invalid int value: '-2E3'")

    def test_synth_period_below_one(self, tmp_path, capsys):
        # a period of 0 used to write a panel of nan cells, and exit 0
        self.assert_exit(["synth", "--period", "0", "--out", str(tmp_path / "p.csv")], capsys, 2, "period")

    @pytest.mark.parametrize("flags, match", [
        (["--noise", "inf"], "finite"),
        (["--edges", "0-1:inf"], "finite"),
        (["--coupling", "1e308", "--edges", "0-1"], "overflows"),
        (["--coupling", "-1e308", "--edges", "0-1"], "overflows"),
        (["--noise", "-inf"], "finite"),
    ])
    def test_synth_refuses_what_its_reader_refuses(self, tmp_path, capsys, flags, match):
        # these used to exit 0 after writing inf and nan cells, on which load_panel exits 2
        out = tmp_path / "p.csv"
        self.assert_exit(["synth", *flags, "--out", str(out)], capsys, 2, match)
        assert not out.exists()

    @pytest.mark.parametrize("setting, match", [
        ("dilations=1,1099511627776", "dilation 1099511627776"),
        ("hidden_width=1000000000000", "parameters"),
        ("hidden_width=10000000000000000000", "parameters"),
        ("context_size=1000000000000", "parameters"),
    ])
    def test_config_size_beyond_memory(self, workspace, tmp_path, capsys, setting, match):
        # these used to build ring entries until memory ran out, or to end in
        # MemoryError or numpy's size errors: a traceback and exit 1
        _root, config, data = workspace
        cmap = tmp_path / "ctx.map"
        cmap.write_text("0: 1,2\n1: 0,2\n2: 0,1\n3: 0,1\nGLOBAL: 0,1\n")
        self.assert_exit(["train", "--data", str(data), "--map", str(cmap), "--config", str(config),
                          "--set", setting, "--out", str(tmp_path / "m.bin")], capsys, 2, match)

    def test_synth_spec_value(self, tmp_path, capsys):
        spec = tmp_path / "panel.spec"
        spec.write_text("t = 50\nn = x\n")
        self.assert_exit(["synth", "--spec", str(spec), "--out", str(tmp_path / "p.csv")], capsys, 2, "line 2")

    def test_synth_spec_edges(self, tmp_path, capsys):
        spec = tmp_path / "panel.spec"
        spec.write_text("edges = 0-a\n")
        self.assert_exit(["synth", "--spec", str(spec), "--out", str(tmp_path / "p.csv")], capsys, 2, "line 1")

    @pytest.mark.parametrize("line", ["0: 1,x", "a: 1,2", "0: 1,2.5"])
    def test_context_map_id(self, workspace, tmp_path, capsys, line):
        _root, config, data = workspace
        cmap = tmp_path / "bad.map"
        cmap.write_text(f"{line}\n1: 0,2\n2: 0,1\n3: 0,1\nGLOBAL: 0,1\n")
        self.assert_exit(["train", "--data", str(data), "--map", str(cmap), "--config", str(config),
                          "--out", str(tmp_path / "m.bin")], capsys, 2, "context map line 1")

    @pytest.mark.parametrize("kind", ["map", "config", "spec"])
    def test_text_file_that_does_not_decode(self, workspace, tmp_path, capsys, kind):
        _root, config, data = workspace
        cmap = tmp_path / "ctx.map"
        cmap.write_text("0: 1,2\n1: 0,2\n2: 0,1\n3: 0,1\nGLOBAL: 0,1\n")
        bad = tmp_path / f"bad.{kind}"
        if kind == "spec":
            bad.write_bytes(b"t = 50\n# \xff\n")
            argv = ["synth", "--spec", str(bad), "--out", str(tmp_path / "p.csv")]
        else:
            if kind == "map":
                bad.write_bytes(b"0: 1,\xff2\n1: 0,2\n2: 0,1\n3: 0,1\nGLOBAL: 0,1\n")
            else:
                bad.write_bytes(config.read_bytes() + b"# caf\xe9\n")
            argv = ["train", "--data", str(data), "--map", str(bad if kind == "map" else cmap),
                    "--config", str(bad if kind == "config" else config), "--out", str(tmp_path / "m.bin")]
        self.assert_exit(argv, capsys, 2, "does not decode")

    def test_predict_series(self, workspace, four_series_model, tmp_path, capsys):
        self.assert_exit(["predict", "--model", str(four_series_model), "--data", str(workspace[2]),
                          "--series", "a,b", "--out", str(tmp_path / "f.csv")], capsys, 1, "'a,b'")


class TestAblate:
    def test_prints_three_rses(self, workspace, capsys):
        root, config, data = workspace
        cmap = root / "ctx.map"
        assert run_cli(
            ["ablate", "--data", str(data), "--map", str(cmap), "--config", str(config),
             "--set", "epochs=1"]
        ) == 0
        out = capsys.readouterr().out.strip().splitlines()
        modes = [line.split()[0] for line in out]
        assert modes == ["full", "global", "none"]
        for line in out:
            float(line.split()[1])


class TestMalformedModelFile:
    """A model file whose blocks do not fit its own config is a data error, reported in one line."""

    @pytest.fixture()
    def trained(self, four_series_model):
        return load_model(four_series_model)

    def assert_data_error(self, path, data, capsys, match):
        capsys.readouterr()
        assert run_cli(["evaluate", "--model", str(path), "--data", str(data)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("data error:") and match in err[0], err

    def saved(self, params, tmp_path):
        path = tmp_path / "edited.bin"
        save_model(params, str(path))
        return path

    def test_block_name_not_utf8(self, workspace, four_series_model, tmp_path, capsys):
        raw = bytearray(four_series_model.read_bytes())
        raw[14] = 0xFF  # the first byte of the first block name
        path = tmp_path / "name.bin"
        path.write_bytes(bytes(raw))
        self.assert_data_error(path, workspace[2], capsys, "UTF-8")

    def test_unknown_context_mode_code(self, workspace, trained, tmp_path, capsys, monkeypatch):
        write_meta = model_module._meta_blocks

        def mode_seven(params):
            blocks = write_meta(params)
            blocks["meta.scalars"][-2] = 7.0
            return blocks

        monkeypatch.setattr(model_module, "_meta_blocks", mode_seven)
        self.assert_data_error(self.saved(trained, tmp_path), workspace[2], capsys, "context-mode code 7.0")

    @pytest.mark.parametrize("slot, value", [("hidden_width", 1e11), ("n_series", 1e12), ("window", 1e300),
                                             ("period", 1e300), ("context_size", 1e19)])
    def test_config_larger_than_the_file(self, workspace, trained, tmp_path, capsys, monkeypatch, slot, value):
        # refused before any array of the claimed size is built
        write_meta = model_module._meta_blocks
        index = model_module._SCALAR_SLOTS.index(slot) if slot in model_module._SCALAR_SLOTS else -1

        def huge(params):
            blocks = write_meta(params)
            blocks["meta.scalars"][index] = value
            return blocks

        monkeypatch.setattr(model_module, "_meta_blocks", huge)
        self.assert_data_error(self.saved(trained, tmp_path), workspace[2], capsys, "holds")

    @pytest.mark.parametrize("block, index, value", [
        ("meta.scalars", model_module._SCALAR_SLOTS.index("window"), math.nan),
        ("meta.scalars", model_module._SCALAR_SLOTS.index("window"), math.inf),
        ("meta.scalars", model_module._SCALAR_SLOTS.index("window"), 16.5),
        ("meta.scalars", -1, math.nan),  # the series count
        ("meta.dilations", 0, math.nan),
        ("meta.global_batch", 0, math.nan),
    ])
    def test_integer_meta_value_not_an_integer(self, workspace, trained, tmp_path, capsys, monkeypatch,
                                               block, index, value):
        write_meta = model_module._meta_blocks

        def edited(params):
            blocks = write_meta(params)
            blocks[block][index] = value
            return blocks

        monkeypatch.setattr(model_module, "_meta_blocks", edited)
        self.assert_data_error(self.saved(trained, tmp_path), workspace[2], capsys, f"{block} holds {value!r}")

    def test_schedule_of_odd_length(self, workspace, trained, tmp_path, capsys, monkeypatch):
        write_meta = model_module._meta_blocks

        def odd(params):
            blocks = write_meta(params)
            blocks["meta.batch_schedule"] = np.append(blocks["meta.batch_schedule"], 4.0)
            return blocks

        monkeypatch.setattr(model_module, "_meta_blocks", odd)
        self.assert_data_error(self.saved(trained, tmp_path), workspace[2], capsys, "meta.batch_schedule holds 3 values")

    def test_missing_parameter_block(self, workspace, trained, tmp_path, capsys):
        del trained.arrays["head_w"]
        self.assert_data_error(self.saved(trained, tmp_path), workspace[2], capsys, "lacks its head_w block")

    def test_extra_parameter_block(self, workspace, trained, tmp_path, capsys):
        trained.arrays["layer9.top.W_f"] = np.zeros((2, 2))
        self.assert_data_error(self.saved(trained, tmp_path), workspace[2], capsys, "layer9.top.W_f")

    def test_parameter_block_of_wrong_shape(self, workspace, trained, tmp_path, capsys):
        trained.arrays["layer0.bottom.W"] = trained.arrays["layer0.bottom.W"][:, 1:]  # every gate block loses a column
        self.assert_data_error(self.saved(trained, tmp_path), workspace[2], capsys, "layer0.bottom.W_c has shape")


class TestDivergenceExitCode:
    """Training that leaves finite arithmetic ends in exit code 3 with one line, not a traceback."""

    @pytest.fixture()
    def cmap(self, tmp_path):
        path = tmp_path / "ctx.map"
        path.write_text("0: 1,2\n1: 0,2\n2: 0,1\n3: 0,1\nGLOBAL: 0,1\n")
        return path

    def assert_diverged(self, argv, capsys, match):
        capsys.readouterr()
        assert run_cli(argv) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("training diverged:") and match in err[0], err

    def test_non_finite_gradient(self, workspace, cmap, tmp_path, capsys, monkeypatch):
        _root, config, data = workspace
        real_backward = model_module.backward
        monkeypatch.setattr(model_module, "backward", lambda loss: {k: g * np.nan for k, g in real_backward(loss).items()})
        self.assert_diverged(["train", "--data", str(data), "--map", str(cmap), "--config", str(config),
                              "--out", str(tmp_path / "m.bin")], capsys, "non-finite gradient")

    def test_log_of_non_positive_value(self, workspace, cmap, tmp_path, capsys):
        _root, config, data = workspace
        extreme = underflowing_panel(data, tmp_path)
        with np.errstate(divide="ignore"):
            self.assert_diverged(["train", "--data", str(extreme), "--map", str(cmap), "--config",
                                  str(config), "--out", str(tmp_path / "m.bin")], capsys, "strictly positive")
