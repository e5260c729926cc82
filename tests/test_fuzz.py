"""Fuzzed inputs: a malformed file ends in a DataError, never in another exception.

The model-file cases edit one meta value of a small saved model, so every
other byte of the file stays valid and the edited value is what the reader
meets. The panel, context-map and config cases feed the readers text drawn
from the characters their formats use. The CLI cases run every command on
edited copies of valid files and on drawn flag values, and hold it to its
exit-code contract.
"""

import contextlib
import io
import math
import struct
import tempfile
from dataclasses import fields
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from contextrnn import model
from contextrnn.cli import run_cli
from contextrnn.config import FIELD_TYPES, TrainConfig, load_config
from contextrnn.data import DataError, SynthSpec, load_panel, synth_generate, write_panel_csv
from contextrnn.model import init_model, load_model, save_model
from contextrnn.selection import ContextMap, read_context_map, write_context_map

CONFIG = TrainConfig(
    epochs=1, batch_schedule={1: 2, 3: 4}, lr_schedule={1: 1e-3, 2: 1e-4}, window=8, horizon=2, period=4,
    dilations=(1, 2), context_size=1, context_batch=2, state_width=3, hidden_width=4, conv_channels=2,
)
PARAMS = init_model(CONFIG, 3, ContextMap({0: (1,), 1: (0,), 2: (0,)}, (0, 1), S=1, K=2))
META = model._meta_blocks(PARAMS)

#: (block, index) of every meta value that must be an integer
INT_SLOTS = (
    [("meta.scalars", i) for i, name in enumerate(model._SCALAR_SLOTS) if FIELD_TYPES[name] is not float]  # ints, mode
    + [("meta.scalars", len(model._SCALAR_SLOTS))]  # the series count
    + [("meta.dilations", i) for i in range(META["meta.dilations"].size)]
    + [("meta.batch_schedule", i) for i in range(META["meta.batch_schedule"].size)]
    + [("meta.lr_schedule", i) for i in range(0, META["meta.lr_schedule"].size, 2)]  # the epochs
    + [("meta.global_batch", i) for i in range(META["meta.global_batch"].size)]
)
SCHEDULES = ["meta.batch_schedule", "meta.lr_schedule"]

#: the meta.scalars slots that size parameter arrays, and one that only must be positive
SIZING = [("meta.scalars", model._SCALAR_SLOTS.index(name)) for name in (
    "window", "period", "context_size", "context_batch", "state_width", "hidden_width", "conv_channels", "conv_kernel",
)]
POSITIVE = SIZING + [("meta.scalars", model._SCALAR_SLOTS.index("contexts_per_target"))]
OUT_OF_RANGE = [-1.0, 0.0, 1e19, -1e19, 1e300]

not_integral = st.sampled_from([math.nan, math.inf, -math.inf]) | st.floats(
    allow_nan=False, allow_infinity=False
).filter(lambda x: not x.is_integer())


def load_with_meta(meta):
    """Save PARAMS with ``meta`` as its meta blocks and load the file back."""
    buf = io.BytesIO()
    with mock.patch.object(model, "_meta_blocks", lambda params: meta):
        save_model(PARAMS, buf)
    buf.seek(0)
    return load_model(buf)


def copied_meta():
    return {name: arr.copy() for name, arr in META.items()}


def test_unedited_meta_loads():
    loaded = load_with_meta(META)
    assert loaded.config == CONFIG and loaded.n_series == 3 and loaded.global_batch == (0, 1)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(INT_SLOTS), not_integral)
def test_integer_slot_holding_a_non_integer(slot, value):
    block, index = slot
    meta = copied_meta()
    meta[block][index] = value
    with pytest.raises(DataError, match=f"{block} holds"):
        load_with_meta(meta)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(SCHEDULES), st.floats())
def test_schedule_of_odd_length(block, extra):
    meta = copied_meta()
    meta[block] = list(meta[block]) + [extra]
    with pytest.raises(DataError, match=f"{block} holds 5 values"):
        load_with_meta(meta)


def test_dilation_beyond_the_file_is_refused():
    # a cell keeps one ring entry per step of its dilation, so the file's size bounds it as it bounds widths
    meta = copied_meta()
    meta["meta.dilations"][1] = 2.0**40
    with pytest.raises(DataError, match="more parameters than the file holds"):
        load_with_meta(meta)


@pytest.mark.parametrize("slot", INT_SLOTS, ids=[f"{block}[{index}]" for block, index in INT_SLOTS])
@pytest.mark.parametrize("value", OUT_OF_RANGE)
def test_integer_slot_out_of_range(slot, value):
    # the file loads or is refused as data; a width below 1, or one beyond the file, is refused
    block, index = slot
    meta = copied_meta()
    meta[block][index] = value
    if (slot in POSITIVE and value < 1) or (slot in SIZING and value > 1e18):
        with pytest.raises(DataError):
            load_with_meta(meta)
    else:
        try:
            load_with_meta(meta)
        except DataError:
            pass


PANEL_CHARS = "0123456789,,,\n\n\n.-+:eTnaif _\"\r\x00"


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=PANEL_CHARS, max_size=80) | st.text(max_size=40))
def test_panel_text_raises_only_data_errors(text):
    try:
        load_panel(io.StringIO(text))
    except DataError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789GLOBAL:,#-+ x\n\n", max_size=60) | st.text(max_size=40))
def test_context_map_text_raises_only_data_errors(text):
    try:
        read_context_map(io.StringIO(text))
    except DataError:
        pass


config_lines = st.lists(
    st.tuples(st.sampled_from([f.name for f in fields(TrainConfig)]),
              st.text(alphabet="0123456789:,.-+e naif", max_size=12)),
    max_size=6,
).map(lambda pairs: "".join(f"{key} = {value}\n" for key, value in pairs))


@settings(max_examples=300, deadline=None)
@given(config_lines | st.text(max_size=40))
def test_config_text_raises_only_data_errors(text):
    try:
        load_config(io.StringIO(text))
    except DataError:
        pass


# ---------------------------------------------------------------------------
# the whole CLI: every command, edited input files, drawn flag values


def _text_of(write, obj) -> bytes:
    buf = io.StringIO()
    write(obj, buf)
    return buf.getvalue().encode()


def _model_bytes() -> bytes:
    buf = io.BytesIO()
    save_model(PARAMS, buf)
    return buf.getvalue()


#: one valid file of each kind the CLI reads; the model is PARAMS (3 series, W=8, fh=2)
VALID_FILES = {
    "panel": _text_of(write_panel_csv, synth_generate(
        SynthSpec(n=3, T=48, edges=((0, 1),), noise_sigma=0.1, seasonal_period=4), seed=1)),
    "map": _text_of(write_context_map, ContextMap({0: (1,), 1: (0,), 2: (0,)}, (0, 1), S=1, K=2)),
    "config": b"epochs = 1\nbatch_schedule = 1:3\nlr_schedule = 1:0.001\nwindow = 8\nhorizon = 2\nperiod = 4\n"
              b"dilations = 1,2\ncontext_size = 1\ncontext_batch = 2\ncontexts_per_target = 1\nstate_width = 3\n"
              b"hidden_width = 4\nconv_channels = 2\nstride = 2\nmaxlag = 2\n",
    "spec": b"n = 3\nt = 40\nedges = 0-1:2.0\nnoise = 0.05\nperiod = 6\nseed = 9\n",
    "model": _model_bytes(),
}


@st.composite
def file_bytes(draw, kind):
    """A valid file of ``kind``: as is (half the draws), with one to three bytes replaced or deleted, or truncated."""
    data = bytearray(VALID_FILES[kind])
    how = draw(st.sampled_from(["valid", "valid", "edited", "truncated"]))
    if how == "edited":
        for _ in range(draw(st.integers(1, 3))):
            pos = draw(st.integers(0, len(data) - 1))
            byte = draw(st.integers(-1, 255))  # -1 deletes the byte
            if byte < 0:
                del data[pos]
            else:
                data[pos] = byte
    elif how == "truncated":
        data = data[: draw(st.integers(0, len(data) - 1))]
    return bytes(data)


int_text = st.integers(-3, 60).map(str) | st.sampled_from(["", "x", "1e3", "2.5", "-0", "99999999999999999999"])
float_text = st.floats().map(repr) | st.sampled_from(["", "x", "1e400", "-0.0"])
set_values = st.sampled_from(
    ["0", "-1", "1", "2", "3", "0.5", "1e3", "nan", "inf", "", "x", "1:2", "1:0.5,2:1e-4", "2:2", "full", "global", "none"]
)
set_flags = st.lists(
    st.tuples(st.sampled_from([f.name for f in fields(TrainConfig)] + ["bogus"]), set_values).map(
        lambda pair: ["--set", f"{pair[0]}={pair[1]}"]
    ),
    max_size=2,
)
#: synth sizes stay small: a drawn panel is written out whole, so its size bounds the run's memory and time
SYNTH_FLAGS = {
    "n": st.integers(-2, 6).map(str),
    "t": st.integers(-2, 120).map(str),
    "edges": st.text(alphabet="0123-:,.x", max_size=8),
    "coupling": float_text,
    "lag": st.integers(-2, 30).map(str),
    "noise": float_text,
    "period": st.integers(-2, 30).map(str),
    "seed": int_text,
}


@st.composite
def cli_runs(draw):
    """(command line with ``{kind}`` placeholders, {kind: file bytes}) for one drawn command."""
    command = draw(st.sampled_from(["select-context", "train", "predict", "evaluate", "synth", "ablate"]))
    files = {}

    def given_file(kind, flag, optional=False):
        if optional and not draw(st.booleans()):
            return []
        files[kind] = draw(file_bytes(kind))
        return [flag, "{%s}" % kind]

    def optional(flag, values):
        return draw(st.none() | values.map(lambda v: [flag, v])) or []

    argv = [command]
    if command == "synth":
        argv += given_file("spec", "--spec", optional=True)
        for key, values in SYNTH_FLAGS.items():
            argv += optional(f"--{key}", values)
        argv += ["--out", "{out}"]
    elif command in ("predict", "evaluate"):
        argv += given_file("model", "--model") + given_file("panel", "--data")
        if command == "predict":
            argv += optional("--anchor", int_text) + optional("--series", st.text(alphabet="0123,- x", max_size=6))
            argv += ["--out", "{out}"]
        else:
            argv += optional("--test-start", int_text)
    else:
        argv += given_file("panel", "--data")
        if command == "select-context":
            argv += ["--out", "{out}"] + optional("--mode", st.sampled_from(["data_driven", "predefined", "other"]))
            argv += given_file("map", "--predefined", optional=True)
        else:
            argv += given_file("map", "--map")
            argv += ["--out", "{out}"] if command == "train" else []
        argv += given_file("config", "--config", optional=command == "select-context")
        argv += [token for flag in draw(set_flags) for token in flag]
    argv += optional("--seed", int_text)
    return argv, files


def _with_first_rank(data: bytes, rank: int) -> bytes:
    """A model file whose first block claims ``rank`` axes (the header is 12 bytes, then the name)."""
    (name_len,) = struct.unpack_from("<H", data, 12)
    at = 12 + 2 + name_len
    return data[:at] + struct.pack("<I", rank) + data[at + 4 :]


TRAIN_ARGV = ["train", "--data", "{panel}", "--map", "{map}", "--out", "{out}", "--config", "{config}"]
TRAIN_FILES = {kind: VALID_FILES[kind] for kind in ("panel", "map", "config")}


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cli_runs())
# each of these ended in a traceback: a negative seed reached numpy's generator, and a
# block of 768 axes reached numpy's reshape
@example((TRAIN_ARGV + ["--seed", "-1"], TRAIN_FILES))
@example((TRAIN_ARGV + ["--set", "seed=-1"], TRAIN_FILES))
@example((["synth", "--seed", "-1", "--out", "{out}"], {}))
@example((["evaluate", "--model", "{model}", "--data", "{panel}"],
          {"model": _with_first_rank(VALID_FILES["model"], 768), "panel": VALID_FILES["panel"]}))
def test_cli_keeps_its_exit_codes(tmp_path, run):
    argv, files = run
    root = Path(tempfile.mkdtemp(dir=tmp_path))  # one directory per example
    paths = {"out": str(root / "out")}
    for kind, data in files.items():
        (root / kind).write_bytes(data)
        paths[kind] = str(root / kind)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run_cli([token.format(**paths) for token in argv])
    assert code in (0, 1, 2, 3), (code, argv)
    assert "Traceback" not in err.getvalue()
