"""Model assembly: loss, optimizer, training and prediction loops, model files of every array and config field.

The main track preprocesses each target window against its own smoothing
state, concatenates seasonal factors, the log window level, an embedded
calendar block and the (modulated) context vector, and runs the stacked
weighted dilated cells; the output head emits median/lower/upper forecasts
in log space plus smoothing corrections for the next steps. The context
track runs once per anchor over the K context series and is shared by the
whole batch, which keeps the per-step cost linear in the series count.

Training iterates anchors sequentially (the smoothing recursion demands
it) with a fresh tape per optimizer update; states cross tape boundaries
as constants.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Literal, get_args, get_origin

import numpy as np

from . import tape as tp
from .cells import (
    CELL_FIELDS,
    GATE_NAMES,
    DRNNCellParams,
    blend_rows,
    embed_calendar,
    init_cell_arrays,
    new_stack_states,
    stack_step,
)
from .config import FIELD_TYPES, TrainConfig
from .context_track import (
    CONV_FIELDS,
    ConvStackParams,
    assemble_context,
    context_conv_forward,
    fft_features,
    init_conv_arrays,
    modulate,
)
from .data import CALENDAR_SIZE, DataError, SeriesPanel, calendar_features, opened, postprocess
from .selection import ContextMap
from .smoothing import DEFAULT_LOGIT, ESState, es_init, es_skip, es_step, future_factors
from .tape import DomainError, Tape, Tensor, backward

__all__ = [
    "DivergenceError",
    "ModelParams",
    "EpochStats",
    "pinball",
    "total_loss",
    "assemble_input",
    "Adam",
    "init_model",
    "train",
    "predict",
    "rolling_forecast",
    "ensemble_predict",
    "save_model",
    "load_model",
    "input_width",
]

CALENDAR_EMBED = 8
DELTA_CLAMP = 10.0

MAGIC = b"CTXR"
FORMAT_VERSION = 1

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

#: the most parameter values a model may hold: 2**31 float64 values are
#: 16 GiB, and training keeps four more arrays of that size (the Adam
#: moments, the gradients and the best epoch's copy)
MAX_PARAMETERS = 2**31

#: the largest integer magnitude a model file stores exactly: it holds every value as a float64
MAX_STORED_INT = 2**53


class DivergenceError(Exception):
    """Training produced a non-finite loss or gradient, or left a function's domain."""


# ---------------------------------------------------------------------------
# loss


def pinball(actual, predicted, q: float) -> Tensor:
    """q·(a-p) when a >= p else (1-q)·(p-a); elementwise, tape-aware."""
    if not (0.0 < q < 1.0):
        raise ValueError(f"quantile must lie in (0, 1), got {q}")
    actual = actual if isinstance(actual, Tensor) else Tensor(actual)
    predicted = predicted if isinstance(predicted, Tensor) else Tensor(predicted)
    diff = tp.sub(actual, predicted)
    return tp.add(tp.mul(q, tp.relu(diff)), tp.mul(1.0 - q, tp.relu(tp.sub(predicted, actual))))


def total_loss(actual, median, lower, upper, gamma, q_star=0.48, q_low=0.025, q_high=0.975) -> Tensor:
    """Mean over the horizon of the median pinball plus gamma-weighted bound pinballs."""
    shapes = {np.shape(getattr(v, "values", v)) for v in (actual, median, lower, upper)}
    if len(shapes) != 1:
        raise ValueError(f"loss inputs differ in length: {shapes}")
    per_step = tp.add(
        pinball(actual, median, q_star),
        tp.mul(gamma, tp.add(pinball(actual, lower, q_low), pinball(actual, upper, q_high))),
    )
    return tp.mean(per_step)


# ---------------------------------------------------------------------------
# input assembly


def input_width(config: TrainConfig) -> int:
    base = config.window + config.period + 1 + CALENDAR_EMBED
    if config.context_mode == "none":
        return base
    return base + config.context_size * config.context_batch


def assemble_input(x_in: Tensor, seasonal: Tensor, z_bar, calendar: Tensor, context=None) -> Tensor:
    """Fixed-order concatenation [x_in, seasonal factors, log10(z_bar), calendar, context].

    One input is a vector; a batch is one row per series, with ``z_bar``
    holding one level per row.
    """
    z_bar = np.asarray(z_bar, dtype=np.float64)
    if np.any(z_bar <= 0.0):
        raise DataError("window level must be positive")
    level = Tensor(np.log10(z_bar).reshape(x_in.values.shape[:-1] + (1,)))
    parts = [x_in, seasonal, level, calendar]
    if context is not None:
        parts.append(context)
    return tp.concat(parts, axis=-1)


# ---------------------------------------------------------------------------
# optimizer


class Adam:
    """Bias-corrected Adam moments for a named parameter dict, updated in place."""

    def __init__(self, arrays: dict):
        self.arrays = arrays
        self.m = {k: np.zeros_like(a) for k, a in arrays.items()}
        self.v = {k: np.zeros_like(a) for k, a in arrays.items()}
        self.t = 0

    def step(self, grads: dict, lr: float):
        """One update; a parameter absent from ``grads`` takes a zero gradient."""
        self.t += 1
        for name, p in self.arrays.items():
            g = grads[name] if name in grads else np.zeros_like(p)
            if p.shape != np.shape(g):
                raise ValueError(f"parameter/gradient shape mismatch: {p.shape} vs {np.shape(g)}")
            m, v = self.m[name], self.v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * np.square(g)
            m_hat = m / (1.0 - ADAM_BETA1**self.t)
            v_hat = v / (1.0 - ADAM_BETA2**self.t)
            p -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


# ---------------------------------------------------------------------------
# parameters


@dataclass
class ModelParams:
    """All learnable arrays plus the structure needed to rebuild the graph."""

    config: TrainConfig
    n_series: int
    global_batch: tuple
    arrays: dict

    @property
    def trainable(self) -> tuple:
        if self.config.context_mode == "global":
            return tuple(k for k in self.arrays if k != "modulation")
        return tuple(self.arrays)

    def copy(self) -> "ModelParams":
        return ModelParams(self.config, self.n_series, self.global_batch, {k: a.copy() for k, a in self.arrays.items()})


def _layer_widths(config: TrainConfig):
    """(input width, controlling width) per layer; layer 0 reads the assembled input."""
    widths = []
    for i, _ in enumerate(config.dilations):
        in_w = input_width(config) if i == 0 else config.hidden_width
        widths.append(in_w)
    return widths


def init_model(config: TrainConfig, n_series: int, context_map: ContextMap | None) -> ModelParams:
    """Seeded parameter initialization; the draw order is part of the format."""
    if config.context_mode != "none":
        if context_map is None:
            raise DataError("context modes need a context map")
        if context_map.K != config.context_batch:
            raise DataError(
                f"config K={config.context_batch} but context map holds {context_map.K} series"
            )
        global_batch = context_map.global_batch
    else:
        global_batch = ()

    overdrawn = f"config asks for more than {MAX_PARAMETERS} parameters"
    _parameter_arrays(config, n_series, _Shapes(MAX_PARAMETERS, config, overdrawn))  # sizes checked, nothing drawn
    for name in FIELD_TYPES:
        value = getattr(config, name)
        flat = [*value, *value.values()] if isinstance(value, dict) else value if isinstance(value, tuple) else [value]
        if any(isinstance(x, int) and abs(x) > MAX_STORED_INT for x in flat):
            raise DataError(f"{name} holds an integer beyond ±2**53, which a model file cannot store exactly")
    arrays = _parameter_arrays(config, n_series, np.random.default_rng(config.seed))
    return ModelParams(config, n_series, tuple(global_batch), arrays)


class _Shapes:
    """Stands in for the generator where zeroed arrays of the parameter shapes are wanted.

    A config that asks for more drawn values than ``budget`` fails with
    ``overdrawn`` before they are allocated, so a model file cannot make its
    reader build arrays larger than the file, nor a config its trainer
    arrays larger than memory. Each width of ``config`` that sizes an array
    is one of that array's dimensions, so it is held to the budget first,
    before any arithmetic on it (``np.sqrt`` fails on an int beyond uint64).
    A dilation sizes the rings of its cells' states, so it is held there too.
    """

    def __init__(self, budget: int, config: TrainConfig, overdrawn: str):
        self.left = budget
        self.overdrawn = overdrawn
        widths = [input_width(config), config.horizon, config.state_width, config.hidden_width, *config.dilations]
        if config.context_mode != "none":
            widths += [config.context_size, config.context_batch, config.conv_channels, config.conv_kernel]
        if max(widths) > budget:
            raise DataError(overdrawn)

    def uniform(self, low, high, size):
        self.left -= math.prod(size)
        if self.left < 0:
            raise DataError(self.overdrawn)
        return np.zeros(size)


def _parameter_arrays(config: TrainConfig, n_series: int, rng) -> dict:
    """Every parameter array, drawn from ``rng`` in the order the model file format fixes."""
    arrays: dict[str, np.ndarray] = {}
    arrays["embedding"] = rng.uniform(-1, 1, (CALENDAR_SIZE, CALENDAR_EMBED)) / np.sqrt(CALENDAR_SIZE)
    head_rows = 3 * config.horizon + 2
    arrays["head_w"] = rng.uniform(-1, 1, (head_rows, config.hidden_width)) / np.sqrt(config.hidden_width)
    arrays["head_b"] = np.zeros(head_rows)
    for i, in_w in enumerate(_layer_widths(config)):
        bottom = init_cell_arrays(rng, in_w, in_w + config.state_width, config.state_width)
        top = init_cell_arrays(rng, in_w, config.hidden_width, config.hidden_width)
        for name, arr in bottom.items():
            arrays[f"layer{i}.bottom.{name}"] = arr
        for name, arr in top.items():
            arrays[f"layer{i}.top.{name}"] = arr
    if config.context_mode != "none":
        conv = init_conv_arrays(rng, config.window, config.context_size, config.conv_channels, config.conv_kernel)
        for name, arr in conv.items():
            arrays[f"conv.{name}"] = arr
        arrays["modulation"] = np.ones((n_series, config.context_size * config.context_batch))
        arrays["ctx_alpha_logit"] = np.full(config.context_batch, DEFAULT_LOGIT)
        arrays["ctx_beta_logit"] = np.full(config.context_batch, DEFAULT_LOGIT)
    arrays["main_alpha_logit"] = np.full(n_series, DEFAULT_LOGIT)
    arrays["main_beta_logit"] = np.full(n_series, DEFAULT_LOGIT)
    return arrays


class _Views:
    """Typed handles into (possibly leafed) parameter tensors for one tape segment.

    ``leafs`` may be supplied directly (tensors keyed like the arrays), which
    lets external gradient checks feed their own tracked parameters through
    the full forward pass.
    """

    __slots__ = ("leafs", "layers", "embedding", "head_wt", "head_b", "conv")

    def __init__(self, params: ModelParams, tape: Tape | None = None, leafs: dict | None = None):
        cfg = params.config
        trainable = set(params.trainable)
        if leafs is not None:
            if set(leafs) != set(params.arrays):
                raise ValueError("supplied tensors do not cover the parameter set")
            self.leafs = dict(leafs)
        else:
            self.leafs = {}
            for name, arr in params.arrays.items():
                if tape is not None and name in trainable:
                    self.leafs[name] = tape.leaf(arr)
                else:
                    self.leafs[name] = Tensor(arr)
        self.layers = []
        for i, in_w in enumerate(_layer_widths(cfg)):
            bottom = DRNNCellParams(
                in_w, cfg.state_width, **{f: self.leafs[f"layer{i}.bottom.{f}"] for f in CELL_FIELDS}
            )
            top = DRNNCellParams(0, cfg.hidden_width, **{f: self.leafs[f"layer{i}.top.{f}"] for f in CELL_FIELDS})
            self.layers.append((bottom, top))
        self.embedding = self.leafs["embedding"]
        self.head_wt = tp.transpose(self.leafs["head_w"])
        self.head_b = self.leafs["head_b"]
        self.conv = None
        if cfg.context_mode != "none":
            self.conv = ConvStackParams(**{f: self.leafs[f"conv.{f}"] for f in CONV_FIELDS})

    def rows(self, table: str, ids) -> Tensor:
        """The rows of a per-series table that belong to the series ``ids``, in order."""
        return tp.gather(self.leafs[table], ids)


# ---------------------------------------------------------------------------
# the sweep: shared forward machinery for training, validation and prediction
#
# A sweep carries one batch of target series (the main track) and the K
# context series (the context track) as arrays with the series on the first
# axis, so each op is recorded once per batch. A row whose input window is
# more than half missing, or whose window level is not positive, is skipped
# at that anchor: it gets an all-zero input, emits nothing, adds no loss
# term, and keeps its cell histories and pending smoothing corrections.


class _Track:
    """Smoothing state, factor history and pending corrections of a batch of series."""

    __slots__ = ("values", "mask", "es", "factors", "pending", "pos")

    def __init__(self, panel: SeriesPanel, ids, period: int, alpha_logit: Tensor, beta_logit: Tensor):
        with np.errstate(over="ignore"):  # the multiplicative decomposition needs positive, finite values
            self.values = panel.values[ids] + panel.shift
        self.mask = panel.mask[ids]
        bad = np.argwhere(self.mask & ~((self.values > 0.0) & np.isfinite(self.values)))
        if bad.size:
            sid, t = ids[bad[0, 0]], bad[0, 1]
            raise DataError(f"series {sid} at step {t}: {float(panel.values[sid, t])!r} plus the positivity shift "
                            f"{panel.shift!r} is not positive and finite")
        prefix = self.values[:, : 2 * period].copy()
        observed = self.mask[:, : 2 * period]
        empty = [int(ids[i]) for i in np.flatnonzero(~observed.any(axis=1))]
        if empty:
            raise DataError(f"series {empty} have no observations in their warm-up prefix")
        for i in np.flatnonzero(~observed.all(axis=1)):
            prefix[i, ~observed[i]] = prefix[i, observed[i]].mean()
        self.es = es_init(prefix, period, alpha_logit, beta_logit)
        self.factors = []  # (B, 1) factor column per consumed position, trimmed to max(W, p)
        self.pending = None  # (delta_alpha, delta_beta) rows from the last head output
        self.pos = 0

    def relink(self, alpha_logit: Tensor, beta_logit: Tensor):
        """Carry the state into a new tape segment as constants."""
        es = self.es
        self.es = ESState(es.level.detach(), [s.detach() for s in es.seasonal], alpha_logit, beta_logit, es.period)
        self.factors = [f.detach() for f in self.factors]
        if self.pending is not None:
            self.pending = tuple(d.detach() for d in self.pending)


@dataclass(frozen=True)
class _Anchor:
    """One anchor's head outputs for every batch row (log space), and which rows count."""

    median: Tensor  # (B, fh)
    lower: Tensor
    upper: Tensor
    z_bar: np.ndarray  # (B,) window levels, 1.0 on skipped rows
    s_future: Tensor  # (B, fh) seasonal factors of the forecast steps
    usable: np.ndarray  # (B,) bool: False on skipped rows


class _Sweep:
    """Advances smoothing states and runs both tracks over an anchor grid."""

    def __init__(self, panel: SeriesPanel, params: ModelParams, main_series):
        self.panel = panel
        self.params = params
        self.cfg = params.config
        self.main_ids = np.array(list(main_series), dtype=np.intp)
        if panel.n != params.n_series:
            raise DataError(f"model was made for {params.n_series} series, panel has {panel.n}")
        outside = sorted({int(i) for i in (*self.main_ids, *params.global_batch) if not 0 <= i < panel.n})
        if outside:
            raise DataError(f"series ids {outside} lie outside the panel's {panel.n} series")
        self.ctx_ids = np.array(params.global_batch if self.cfg.context_mode != "none" else (), dtype=np.intp)
        self.views: _Views | None = None
        self.main: _Track | None = None
        self.ctx: _Track | None = None
        self.gains: Tensor | None = None  # modulation rows of the batch
        self.stack_states = None
        self.skipped_windows = 0

    # -- state management -------------------------------------------------

    def set_views(self, views: _Views):
        """Enter a new tape segment; carried state becomes constant."""
        first = self.views is None
        self.views = views
        main_logits = (views.rows("main_alpha_logit", self.main_ids), views.rows("main_beta_logit", self.main_ids))
        ctx_logits = ()
        if self.ctx_ids.size:
            ctx_logits = (views.leafs["ctx_alpha_logit"], views.leafs["ctx_beta_logit"])
            self.gains = views.rows("modulation", self.main_ids)
        if first:
            self.main = _Track(self.panel, self.main_ids, self.cfg.period, *main_logits)
            if self.ctx_ids.size:
                self.ctx = _Track(self.panel, self.ctx_ids, self.cfg.period, *ctx_logits)
            self.stack_states = new_stack_states(views.layers, self.cfg.dilations)
            return
        self.main.relink(*main_logits)
        if self.ctx is not None:
            self.ctx.relink(*ctx_logits)
        for layer in self.stack_states:
            layer.detach()

    def _advance(self, track: _Track, upto: int):
        da, db = track.pending if track.pending is not None else (0.0, 0.0)
        keep = max(self.cfg.window, self.cfg.period)
        column = (len(track.values), 1)
        for t in range(track.pos, upto):
            track.factors.append(tp.reshape(track.es.seasonal[0], column))
            observed = track.mask[:, t]
            if observed.all():
                track.es, _, _ = es_step(track.es, track.values[:, t], da, db)
            elif not observed.any():
                track.es = es_skip(track.es)
            else:
                # step every row (a missing one on a stand-in 1.0), then keep
                # the rotated ring's level and new entry on the missing rows
                stepped, _, _ = es_step(track.es, np.where(observed, track.values[:, t], 1.0), da, db)
                held = es_skip(track.es)
                track.es = ESState(
                    blend_rows(observed, stepped.level, held.level),
                    stepped.seasonal[:-1] + [blend_rows(observed, stepped.seasonal[-1], held.seasonal[-1])],
                    stepped.alpha_logit,
                    stepped.beta_logit,
                    stepped.period,
                )
        if len(track.factors) > keep:
            del track.factors[: len(track.factors) - keep]
        track.pos = upto

    def advance_to(self, t: int):
        self._advance(self.main, t)
        if self.ctx is not None:
            self._advance(self.ctx, t)

    # -- per-anchor forward -------------------------------------------------

    def _window(self, track: _Track, t: int):
        """(x_in (B, W), z_bar (B,), usable (B,)) for the W points before t; skipped rows are zero."""
        W = self.cfg.window
        z = track.values[:, t - W : t]
        mask = track.mask[:, t - W : t]
        count = mask.sum(axis=1)
        z_bar = np.where(mask, z, 0.0).sum(axis=1) / np.maximum(count, 1)
        usable = (count >= W - W // 2) & (z_bar > 0.0)  # at most half missing
        mask = mask & usable[:, None]
        z_bar = np.where(usable, z_bar, 1.0)
        safe = np.where(mask, z, z_bar[:, None])
        factors = tp.concat(track.factors[-W:], axis=1)
        x_in = tp.sub(Tensor(np.log(safe / z_bar[:, None])), tp.log(factors))
        if not mask.all():
            x_in = tp.mul(x_in, Tensor(mask.astype(np.float64)))  # neutral fill: x_in = 0
        return x_in, z_bar, usable

    def _context_vector(self, t: int):
        if self.ctx is None:
            return None
        x_ctx, _, _ = self._window(self.ctx, t)
        width = self.cfg.window
        vectors, das, dbs = [], [], []
        for k in range(len(self.ctx_ids)):
            row = tp.reshape(tp.slice_(x_ctx, k, k + 1), (width,))
            r, da, db = context_conv_forward(fft_features(row), self.views.conv)
            vectors.append(r)
            das.append(da)
            dbs.append(db)
        self.ctx.pending = tuple(tp.clip(tp.concat(d), -DELTA_CLAMP, DELTA_CLAMP) for d in (das, dbs))
        return assemble_context(vectors)

    def step(self, t: int) -> _Anchor | None:
        """Run one anchor; None when every row of the batch is skipped."""
        if t != self.main.pos:
            raise DataError("anchors must be visited in order after advance_to")
        fh = self.cfg.horizon
        views = self.views
        main = self.main
        batch = len(self.main_ids)
        shared_context = self._context_vector(t)
        x_in, z_bar, usable = self._window(main, t)
        skipped = batch - int(usable.sum())
        self.skipped_windows += skipped
        if skipped == batch:
            return None
        onehot = np.tile(calendar_features(self.panel.timestamps[t - 1]), (batch, 1))
        calendar = embed_calendar(onehot, views.embedding)
        seasonal = tp.concat([tp.reshape(f, (batch, 1)) for f in main.es.seasonal], axis=1)
        context = None if shared_context is None else modulate(shared_context, self.gains)
        x_full = assemble_input(x_in, seasonal, z_bar, calendar, context)
        advance = None
        if skipped:
            x_full = tp.mul(x_full, Tensor(usable[:, None].astype(np.float64)))
            advance = usable
        y = stack_step(x_full, self.stack_states, views.layers, advance)
        head = tp.add(tp.matmul(y, views.head_wt), views.head_b)
        median, lower, upper = (tp.slice_(head, i * fh, (i + 1) * fh, axis=1) for i in range(3))
        deltas = tp.clip(tp.slice_(head, 3 * fh, 3 * fh + 2, axis=1), -DELTA_CLAMP, DELTA_CLAMP)
        pending = tuple(tp.reshape(tp.slice_(deltas, i, i + 1, axis=1), (batch,)) for i in range(2))
        if skipped:
            held = main.pending or (Tensor(np.zeros(batch)),) * 2
            pending = tuple(blend_rows(usable, new, old) for new, old in zip(pending, held))
        main.pending = pending
        s_future = tp.concat([tp.reshape(f, (batch, 1)) for f in future_factors(main.es, fh)], axis=1)
        return _Anchor(median, lower, upper, z_bar, s_future, usable)

    def loss_terms(self, t: int, result: _Anchor | None):
        """(actuals, [median, lower, upper] predictions) of the rows with a whole target window.

        Both in normalized space, one row per loss term in batch order; None
        when no row has one.
        """
        fh = self.cfg.horizon
        if result is None or t + fh > self.panel.T:
            return None
        complete = result.usable & self.main.mask[:, t : t + fh].all(axis=1)
        if not complete.any():
            return None
        rows = np.flatnonzero(complete)
        actual = self.main.values[rows, t : t + fh] / result.z_bar[rows, None]
        quantities = (result.median, result.lower, result.upper, result.s_future)
        if not complete.all():
            quantities = tuple(tp.gather(q, rows) for q in quantities)
        *logs, s_future = quantities
        return actual, [tp.mul(tp.exp(q), s_future) for q in logs]

    def emit(self, result: _Anchor | None) -> dict:
        """{sid: (median, lower, upper)} in series units, positivity shift undone."""
        if result is None:
            return {}
        rows = np.flatnonzero(result.usable)
        z_bar = result.z_bar[rows, None]
        s_vals = result.s_future.values[rows]
        outs = [
            postprocess(q.values[rows], z_bar, s_vals, self.panel.shift)
            for q in (result.median, result.lower, result.upper)
        ]
        return {int(self.main_ids[r]): tuple(out[i] for out in outs) for i, r in enumerate(rows)}


def _mean_loss(cfg: TrainConfig, terms) -> tuple[Tensor, int]:
    """The loss averaged over every term of ``terms`` (a list of ``loss_terms`` results), and their count."""
    actual = np.concatenate([a for a, _ in terms])
    preds = [tp.concat([p[i] for _, p in terms]) for i in range(3)]
    loss = total_loss(actual, *preds, cfg.gamma, cfg.q_star, cfg.q_low, cfg.q_high)
    return loss, len(actual)


# ---------------------------------------------------------------------------
# training


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    batch_size: int  # scheduled value
    effective_batch: int  # after capping at the series count
    lr: float
    train_loss: float
    val_loss: float | None
    updates: int


def _anchor_grid(panel: SeriesPanel, cfg: TrainConfig):
    """Every ``stride``-th anchor from ``first_anchor`` whose whole target window lies inside the panel."""
    return list(range(cfg.first_anchor, panel.T - cfg.horizon + 1, cfg.stride))


def train(
    train_panel: SeriesPanel,
    context_map: ContextMap | None,
    config: TrainConfig,
    val_panel: SeriesPanel | None = None,
):
    """Full schedule-driven training; returns (ModelParams, [EpochStats]).

    Series are shuffled into batches once per epoch (seeded); each batch
    sweeps the anchors in chronological order and takes one optimizer step
    per ``steps_per_update`` anchors. When a validation panel is given the
    best-epoch parameters are retained.
    """
    cfg = config
    anchors = _anchor_grid(train_panel, cfg)
    if not anchors:
        raise DataError(
            f"panel too short: need T >= {cfg.first_anchor + cfg.horizon}, got {train_panel.T}"
        )
    if max(cfg.dilations) > train_panel.T:
        # a ring longer than the panel is read only at its zero start, and would be built entry by entry
        raise DataError(f"dilation {max(cfg.dilations)} exceeds the training panel's {train_panel.T} steps")
    params = init_model(cfg, train_panel.n, context_map)
    adam = Adam({name: params.arrays[name] for name in params.trainable})
    order_rng = np.random.default_rng([cfg.seed, 0xBA7C])
    log: list[EpochStats] = []
    best_val = math.inf
    best = None

    for epoch in range(1, cfg.epochs + 1):
        scheduled = cfg.batch_size_at(epoch)
        batch_size = min(scheduled, train_panel.n)
        lr = cfg.lr_at(epoch)
        order = [int(i) for i in order_rng.permutation(train_panel.n)]
        batches = [order[i : i + batch_size] for i in range(0, len(order), batch_size)]
        loss_sum, loss_terms, updates = 0.0, 0, 0
        try:
            for batch in batches:
                sweep = _Sweep(train_panel, params, batch)
                for lo in range(0, len(anchors), cfg.steps_per_update):
                    tape = Tape()
                    views = _Views(params, tape)
                    sweep.set_views(views)
                    terms = []
                    for t in anchors[lo : lo + cfg.steps_per_update]:
                        sweep.advance_to(t)
                        got = sweep.loss_terms(t, sweep.step(t))
                        if got is not None:
                            terms.append(got)
                    if not terms:
                        continue
                    segment_loss, count = _mean_loss(cfg, terms)
                    value = float(segment_loss.values)
                    if not math.isfinite(value):
                        raise DivergenceError(f"non-finite loss at epoch {epoch}")
                    grads = backward(segment_loss)
                    grad_map = {}
                    for name in params.trainable:
                        g = grads.get(views.leafs[name].node)
                        if g is not None:
                            if not np.all(np.isfinite(g)):
                                raise DivergenceError(f"non-finite gradient of {name} at epoch {epoch}")
                            grad_map[name] = g
                    adam.step(grad_map, lr)
                    updates += 1
                    loss_sum += value * count
                    loss_terms += count
            val_loss = validation_loss(params, val_panel) if val_panel is not None else None
        except DomainError as exc:
            raise DivergenceError(f"{exc} at epoch {epoch}") from exc
        train_loss = loss_sum / loss_terms if loss_terms else math.nan
        log.append(EpochStats(epoch, scheduled, batch_size, lr, train_loss, val_loss, updates))
        if val_loss is not None and val_loss < best_val:
            best_val = val_loss
            best = params.copy()
    return (params if best is None else best), log


def validation_loss(params: ModelParams, panel: SeriesPanel) -> float | None:
    """Mean forward-only loss over the panel's anchor grid (None if too short)."""
    cfg = params.config
    anchors = _anchor_grid(panel, cfg)
    if not anchors:
        return None
    sweep = _Sweep(panel, params, range(panel.n))
    sweep.set_views(_Views(params, tape=None))
    terms = []
    for t in anchors:
        sweep.advance_to(t)
        got = sweep.loss_terms(t, sweep.step(t))
        if got is not None:
            terms.append(got)
    return float(_mean_loss(cfg, terms)[0].values) if terms else None


# ---------------------------------------------------------------------------
# prediction


def _forecasts(params: ModelParams, panel: SeriesPanel, series, anchors, emit_from: int) -> dict:
    """{anchor: {sid: (median, lower, upper)}} of a forward-only sweep, at the anchors >= emit_from.

    The model is fixed here, so a logarithm of a non-positive seasonal
    factor comes from the panel's values: a DataError.
    """
    sweep = _Sweep(panel, params, series)
    sweep.set_views(_Views(params, tape=None))
    out = {}
    try:
        for t in anchors:
            sweep.advance_to(t)
            result = sweep.step(t)
            if t >= emit_from:
                out[t] = sweep.emit(result)
    except DomainError as exc:
        raise DataError(f"the panel's seasonal factors leave the positive range ({exc})") from exc
    return out


def rolling_forecast(params: ModelParams, panel: SeriesPanel, emit_from: int, series=None):
    """Forward sweep emitting (median, lower, upper) at every grid anchor >= emit_from.

    The sweep stops at the last anchor whose horizon fits the panel
    (``T - horizon``), the grid training and validation use; a later
    anchor would have no whole target window to score. Returns
    {anchor: {sid: (median, lower, upper)}} in series units.
    """
    cfg = params.config
    series = list(range(panel.n)) if series is None else list(series)
    anchors = _anchor_grid(panel, cfg)
    if not anchors:
        raise DataError(
            f"no whole target window fits the panel: need T >= {cfg.first_anchor + cfg.horizon}, got {panel.T}"
        )
    return _forecasts(params, panel, series, anchors, emit_from)


def predict(params: ModelParams, panel: SeriesPanel, anchor: int, series=None):
    """One forecast per requested series at a single anchor.

    The sweep warms up deterministically over the anchors ``first_anchor``,
    ``first_anchor + stride``, ... below ``anchor``; no data at or beyond
    the anchor is read.
    """
    cfg = params.config
    if anchor < cfg.first_anchor or anchor > panel.T:
        raise DataError(
            f"anchor must lie in [{cfg.first_anchor}, {panel.T}] (needs {cfg.window} history points)"
        )
    series = list(range(panel.n)) if series is None else list(series)
    warm_up = range(cfg.first_anchor, anchor, cfg.stride)
    results = _forecasts(params, panel, series, [*warm_up, anchor], anchor)[anchor]
    missing = [sid for sid in series if sid not in results]
    if missing:
        raise DataError(f"series {missing} lack usable input windows at anchor {anchor}")
    return results


def ensemble_predict(members, panel: SeriesPanel, anchor: int, series=None):
    """Mean of member medians; envelope (min lower, max upper) for the bounds."""
    if not members:
        raise ValueError("ensemble needs at least one member")
    horizon = members[0].config.horizon
    for m in members[1:]:
        if m.config.horizon != horizon:
            raise DataError(f"ensemble members forecast different horizons: {horizon} and {m.config.horizon}")
    per_member = [predict(m, panel, anchor, series) for m in members]
    out = {}
    for sid in per_member[0]:
        medians = np.stack([pm[sid][0] for pm in per_member])
        lowers = np.stack([pm[sid][1] for pm in per_member])
        uppers = np.stack([pm[sid][2] for pm in per_member])
        out[sid] = (medians.mean(axis=0), lowers.min(axis=0), uppers.max(axis=0))
    return out


# ---------------------------------------------------------------------------
# serialization: magic 'CTXR', u32 version, named little-endian f64 blocks


#: the config fields of the ``meta.scalars`` slots, in declaration order; the series count follows them
_SCALAR_SLOTS = tuple(name for name, kind in FIELD_TYPES.items() if get_origin(kind) not in (tuple, dict))


def _meta_blocks(params: ModelParams) -> dict:
    """The meta blocks, derived from the config's field types.

    ``meta.scalars`` holds each number, and each mode as its index among its
    literals, in declaration order, then the series count; each tuple or
    schedule field is a block ``meta.<field>``, a schedule as epoch/value
    pairs in epoch order.
    """
    blocks, scalars = {}, []
    for name, kind in FIELD_TYPES.items():
        value = getattr(params.config, name)
        if get_origin(kind) is dict:
            value = [x for k in sorted(value) for x in (k, value[k])]
        elif get_origin(kind) is Literal:
            value = get_args(kind).index(value)
        if name in _SCALAR_SLOTS:
            scalars.append(value)
        else:
            blocks[f"meta.{name}"] = np.array(value, dtype=np.float64)
    blocks["meta.scalars"] = np.array(scalars + [params.n_series], dtype=np.float64)
    blocks["meta.global_batch"] = np.array(params.global_batch, dtype=np.float64)
    return blocks


def _meta_values(block: str, values, kind) -> list:
    """``values`` of the meta block ``block`` as ``kind``; a non-integral int is a DataError, not truncated."""
    out = np.asarray(values, dtype=np.float64).ravel().tolist()
    bad = [x for x in out if kind is int and not x.is_integer()]
    if bad:
        raise DataError(f"{block} holds {bad[0]!r} where an integer belongs")
    return [kind(x) for x in out]


def _config_from_meta(blocks: dict) -> tuple[TrainConfig, int, tuple]:
    def meta(name):
        if name not in blocks:
            raise DataError(f"model file lacks its {name} block")
        return blocks[name]

    scalars = meta("meta.scalars")
    if scalars.shape != (len(_SCALAR_SLOTS) + 1,):
        raise DataError(f"meta.scalars holds shape {scalars.shape}, expected ({len(_SCALAR_SLOTS) + 1},)")
    values = dict(zip(_SCALAR_SLOTS, scalars.tolist()))
    for name, kind in FIELD_TYPES.items():
        origin, args, block = get_origin(kind), get_args(kind), f"meta.{name}"
        if origin is dict:
            flat = meta(block).ravel()
            if flat.size % 2:
                raise DataError(f"{block} holds {flat.size} values, not epoch/value pairs")
            values[name] = dict(zip(_meta_values(block, flat[0::2], args[0]), _meta_values(block, flat[1::2], args[1])))
        elif origin is tuple:
            values[name] = tuple(_meta_values(block, meta(block), args[0]))
        elif origin is Literal:
            if values[name] not in range(len(args)):
                raise DataError(f"meta.scalars holds the unknown {name.replace('_', '-')} code {values[name]!r}")
            values[name] = args[int(values[name])]
        else:
            (values[name],) = _meta_values("meta.scalars", [values[name]], kind)
    (n_series,) = _meta_values("meta.scalars", scalars[-1:], int)
    global_batch = tuple(_meta_values("meta.global_batch", meta("meta.global_batch"), int))
    return TrainConfig(**values), n_series, global_batch


def _file_blocks(arrays: dict) -> dict:
    """The model file's blocks of ``arrays``, as views of them.

    A cell's fused ``W``, ``V``, ``U`` and ``b`` each give four row blocks,
    one per gate, named ``….W_f`` to ``….b_c``; every other array is one
    block under its own name.
    """
    blocks = {}
    for name, arr in arrays.items():
        cell, _, field = name.rpartition(".")
        if cell.startswith("layer") and field in CELL_FIELDS:
            rows = np.split(arr, len(GATE_NAMES))
            blocks.update((f"{name}_{gate}", block) for gate, block in zip(GATE_NAMES, rows))
        else:
            blocks[name] = arr
    return blocks


def save_model(params: ModelParams, path):
    """Versioned binary dump; block order is sorted by name for determinism."""
    blocks = _file_blocks(params.arrays)
    blocks.update(_meta_blocks(params))
    with opened(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<I", len(blocks)))
        for name in sorted(blocks):
            arr = np.ascontiguousarray(blocks[name], dtype="<f8")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def load_model(path) -> ModelParams:
    """Read a model file; a truncated, padded or malformed file is a DataError.

    The parameter blocks must be exactly those ``init_model`` makes for the
    stored config and series count, each of the shape it makes.
    """
    with opened(path, "rb") as fh:
        data = memoryview(fh.read())  # blocks are read in place and copied once, into the parameter arrays
    pos = 0

    def take(size: int, what: str) -> memoryview:
        nonlocal pos
        if size > len(data) - pos:
            raise DataError(f"model file truncated: {what} needs {size} bytes, {len(data) - pos} remain")
        pos += size
        return data[pos - size : pos]

    if take(4, "the magic") != MAGIC:
        raise DataError("not a model file (bad magic)")
    (version,) = struct.unpack("<I", take(4, "the version"))
    if version != FORMAT_VERSION:
        raise DataError(f"unsupported model format version {version}")
    (count,) = struct.unpack("<I", take(4, "the block count"))
    blocks = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2, "a block name's length"))
        try:
            name = bytes(take(name_len, "a block name")).decode("utf-8")
        except UnicodeDecodeError:
            raise DataError(f"model file has a block name that is not UTF-8 after {len(blocks)} blocks") from None
        if name in blocks:
            raise DataError(f"model file holds block {name} twice")
        (ndim,) = struct.unpack("<I", take(4, f"the rank of {name}"))
        if ndim > 2:  # every block is a vector or a matrix
            raise DataError(f"model file block {name} has {ndim} axes")
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim, f"the shape of {name}"))
        payload = take(8 * math.prod(shape), f"the values of {name}")
        blocks[name] = np.frombuffer(payload, dtype="<f8").reshape(shape)
    if pos != len(data):
        raise DataError(f"model file has {len(data) - pos} bytes after its last block")
    config, n_series, global_batch = _config_from_meta(blocks)
    stored = {k: v for k, v in blocks.items() if not k.startswith("meta.")}
    size = sum(arr.size for arr in stored.values())
    if not 0 < n_series <= size:
        raise DataError(f"model file is for {n_series} series but holds {size} parameter values")
    arrays = _parameter_arrays(
        config, n_series, _Shapes(size, config, "model file's config asks for more parameters than the file holds")
    )
    expected = _file_blocks(arrays)
    missing, extra = sorted(expected.keys() - stored.keys()), sorted(stored.keys() - expected.keys())
    if missing:
        raise DataError(f"model file lacks its {missing[0]} block")
    if extra:
        raise DataError(f"model file holds a block {extra[0]} that its config does not use")
    for name, block in sorted(stored.items()):
        if block.shape != expected[name].shape:
            raise DataError(f"block {name} has shape {block.shape}, its config needs {expected[name].shape}")
        expected[name][...] = block
    if len(global_batch) != (0 if config.context_mode == "none" else config.context_batch):
        raise DataError(f"model file lists {len(global_batch)} context series for K={config.context_batch}")
    return ModelParams(config, n_series, global_batch, arrays)
