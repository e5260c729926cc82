"""Fuzzed inputs: a malformed file ends in a DataError, never in another exception.

The model-file cases edit one meta value of a small saved model, so every
other byte of the file stays valid and the edited value is what the reader
meets. The panel, context-map and config cases feed the readers text drawn
from the characters their formats use.
"""

import io
import math
from dataclasses import fields
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from contextrnn import model
from contextrnn.config import SCALAR_FIELDS, TrainConfig, load_config
from contextrnn.data import DataError, load_panel
from contextrnn.model import init_model, load_model, save_model
from contextrnn.selection import ContextMap, read_context_map

CONFIG = TrainConfig(
    epochs=1, batch_schedule={1: 2, 3: 4}, lr_schedule={1: 1e-3, 2: 1e-4}, window=8, horizon=2, period=4,
    dilations=(1, 2), context_size=1, context_batch=2, state_width=3, hidden_width=4, conv_channels=2,
)
PARAMS = init_model(CONFIG, 3, ContextMap({0: (1,), 1: (0,), 2: (0,)}, (0, 1), S=1, K=2))
META = model._meta_blocks(PARAMS)

#: (block, index) of every meta value that must be an integer
INT_SLOTS = (
    [("meta.scalars", i) for i, kind in enumerate(SCALAR_FIELDS.values()) if kind is int]
    + [("meta.scalars", len(SCALAR_FIELDS)), ("meta.scalars", len(SCALAR_FIELDS) + 1)]  # context mode, series count
    + [("meta.dilations", i) for i in range(META["meta.dilations"].size)]
    + [("meta.batch_schedule", i) for i in range(META["meta.batch_schedule"].size)]
    + [("meta.lr_schedule", i) for i in range(0, META["meta.lr_schedule"].size, 2)]  # the epochs
    + [("meta.global_batch", i) for i in range(META["meta.global_batch"].size)]
)
SCHEDULES = ["meta.batch_schedule", "meta.lr_schedule"]

#: the meta.scalars slots that size parameter arrays, and one that only must be positive
SIZING = [("meta.scalars", list(SCALAR_FIELDS).index(name)) for name in (
    "window", "period", "context_size", "context_batch", "state_width", "hidden_width", "conv_channels", "conv_kernel",
)]
POSITIVE = SIZING + [("meta.scalars", list(SCALAR_FIELDS).index("contexts_per_target"))]
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
