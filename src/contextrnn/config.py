"""Run configuration and the flat ``key = value`` text format.

The field types of :class:`TrainConfig` are the one schema that config
files, CLI ``--set`` values and model-file meta blocks are read and
written by. CLI flags override file values. Tuples are comma-separated;
schedules are ``epoch:value`` pairs separated by commas and apply
step-wise (the entry with the largest epoch not exceeding the current one
wins).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from typing import Literal, get_args, get_origin, get_type_hints

from .data import DataError, read_lines

__all__ = ["CONTEXT_MODES", "FIELD_TYPES", "TrainConfig", "load_config", "parse_overrides", "read_key_values"]

#: what the context track feeds the main track; a model file stores a mode as its index here
CONTEXT_MODES = ("full", "global", "none")


def _default_batch_schedule():
    return {1: 2, 4: 5, 5: 12, 6: 25, 7: 50, 8: 100}


def _default_lr_schedule():
    return {1: 3e-3, 9: 1e-3, 10: 1e-4}


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 11
    batch_schedule: dict[int, int] = field(default_factory=_default_batch_schedule)
    lr_schedule: dict[int, float] = field(default_factory=_default_lr_schedule)
    q_star: float = 0.48
    q_low: float = 0.025
    q_high: float = 0.975
    gamma: float = 0.4
    window: int = 168  # input window W
    horizon: int = 24  # forecast length fh
    period: int = 24  # seasonal period p
    dilations: tuple[int, ...] = (2, 6, 12, 24)
    context_size: int = 2  # u, per-series context slots
    context_batch: int = 15  # K, series in the context track
    contexts_per_target: int = 5  # S, ranked contexts per target
    state_width: int = 40  # controlling-state slots of each bottom cell
    hidden_width: int = 40  # top-cell (layer) output width
    conv_channels: int = 8
    conv_kernel: int = 3
    stride: int = 1  # timesteps between consecutive anchors
    steps_per_update: int = 50  # anchors per optimizer update (tape segment)
    maxlag: int = 4  # Granger lag order
    seed: int = 0
    ensemble: int = 1
    context_mode: Literal[CONTEXT_MODES] = "full"

    def __post_init__(self):
        if not (0.0 < self.q_low < self.q_star < self.q_high < 1.0):
            raise DataError("quantiles must satisfy 0 < q_low < q_star < q_high < 1")
        if not 0.0 <= self.gamma < math.inf:
            raise DataError("gamma must be non-negative and finite")
        if self.epochs < 1 or self.window < 2 or self.horizon < 1 or self.period < 1:
            raise DataError("epochs, window, horizon and period must be positive")
        if self.stride < 1 or self.steps_per_update < 1:
            raise DataError("stride and steps_per_update must be positive")
        if self.seed < 0:
            raise DataError(f"seed must be non-negative, got {self.seed}")
        widths = ("context_size", "context_batch", "contexts_per_target", "state_width", "hidden_width",
                  "conv_channels", "conv_kernel")
        small = [name for name in widths if getattr(self, name) < 1]
        if small:
            raise DataError(f"{small[0]} must be positive, got {getattr(self, small[0])}")
        if any(d < 1 for d in self.dilations) or not self.dilations:
            raise DataError("dilations must be positive")
        if self.context_mode not in CONTEXT_MODES:
            raise DataError(f"unknown context mode {self.context_mode!r}")
        for name in ("batch_schedule", "lr_schedule"):
            sched = getattr(self, name)
            if not sched or any(int(k) < 1 for k in sched):
                raise DataError(f"{name} needs at least one entry with epoch >= 1")
        if any(size < 1 for size in self.batch_schedule.values()):
            raise DataError("batch sizes must be positive")
        if not all(0.0 < lr < math.inf for lr in self.lr_schedule.values()):
            raise DataError("learning rates must be positive and finite")

    def _lookup(self, schedule, epoch):
        keys = [k for k in schedule if k <= epoch]
        if not keys:
            raise DataError(f"no schedule entry at or before epoch {epoch}")
        return schedule[max(keys)]

    def batch_size_at(self, epoch: int) -> int:
        return int(self._lookup(self.batch_schedule, epoch))

    def lr_at(self, epoch: int) -> float:
        return float(self._lookup(self.lr_schedule, epoch))

    @property
    def first_anchor(self) -> int:
        # needs W history for the window and 2p values for the warm start
        return max(self.window, 2 * self.period)

    def with_overrides(self, **kwargs) -> "TrainConfig":
        return replace(self, **kwargs)


#: each field's type, in declaration order
FIELD_TYPES = get_type_hints(TrainConfig)


def _parse_value(name: str, text: str):
    """The value of field ``name`` written as ``text``, read by the field's type."""
    if name not in FIELD_TYPES:
        raise DataError(f"unknown config key {name!r}")
    kind = FIELD_TYPES[name]
    origin, args = get_origin(kind), get_args(kind)
    text = text.strip()
    try:
        if origin is tuple:
            return tuple(args[0](tok) for tok in text.split(",") if tok.strip())
        if origin is dict:
            pairs = (pair.partition(":") for pair in text.split(",") if pair.strip())
            return {args[0](key): args[1](value) for key, _, value in pairs}
        if origin is Literal:
            return text  # TrainConfig checks it against the literals
        return kind(text)
    except ValueError:
        raise DataError(f"config key {name!r} has a malformed value {text!r}") from None


def read_key_values(path, what: str) -> Iterator[tuple[int, str, str, str]]:
    """(line number, line, key, value) of each ``key = value`` line, ``#`` comments cut; a line without ``=`` is a DataError."""
    for lineno, line in enumerate(read_lines(path, what), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        key, sep, value = body.partition("=")
        if not sep:
            raise DataError(f"{what} line {lineno} is not key = value: {line!r}")
        yield lineno, line, key.strip(), value.strip()


def parse_overrides(pairs) -> dict:
    """Parse ``key=value`` strings (e.g. from CLI ``--set``) into field values."""
    out = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep:
            raise DataError(f"override {pair!r} is not key=value")
        out[key.strip()] = _parse_value(key.strip(), value)
    return out


def load_config(path, **overrides) -> TrainConfig:
    """Read a flat key = value file ('#' comments allowed) and apply overrides."""
    values = {key: _parse_value(key, value) for _lineno, _line, key, value in read_key_values(path, "config")}
    values.update(overrides)
    return TrainConfig(**values)
