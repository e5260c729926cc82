"""Model assembly: loss, optimizer, training and prediction loops, serialization.

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

import numpy as np

from . import tape as tp
from .cells import (
    CELL_FIELDS,
    DRNNCellParams,
    embed_calendar,
    init_cell_arrays,
    new_stack_states,
    stack_step,
)
from .config import SCALAR_FIELDS, TrainConfig
from .context_track import (
    CONV_FIELDS,
    ConvStackParams,
    assemble_context,
    context_conv_forward,
    fft_features,
    init_conv_arrays,
    modulate,
)
from .data import DataError, SeriesPanel, calendar_features, postprocess
from .selection import ContextMap
from .smoothing import DEFAULT_LOGIT, ESState, es_init, es_skip, es_step, future_factors
from .tape import Tape, Tensor, backward

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


class DivergenceError(Exception):
    """Training produced a non-finite loss."""


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


def assemble_input(x_in: Tensor, seasonal: Tensor, z_bar: float, calendar: Tensor, context=None) -> Tensor:
    """Fixed-order concatenation [x_in, seasonal factors, log10(z_bar), calendar, context]."""
    if z_bar <= 0.0:
        raise DataError("window level must be positive")
    parts = [x_in, seasonal, Tensor([math.log10(z_bar)]), calendar]
    if context is not None:
        parts.append(context)
    return tp.concat(parts)


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
        return ModelParams(
            self.config, self.n_series, self.global_batch, {k: v.copy() for k, v in self.arrays.items()}
        )


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

    rng = np.random.default_rng(config.seed)
    arrays: dict[str, np.ndarray] = {}
    arrays["embedding"] = rng.uniform(-1, 1, (74, CALENDAR_EMBED)) / np.sqrt(74)
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
    return ModelParams(config, n_series, tuple(global_batch), arrays)


class _Views:
    """Typed handles into (possibly leafed) parameter tensors for one tape segment.

    ``leafs`` may be supplied directly (tensors keyed like the arrays), which
    lets external gradient checks feed their own tracked parameters through
    the full forward pass.
    """

    __slots__ = ("leafs", "layers", "embedding", "head_w", "head_b", "conv")

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
        self.head_w = self.leafs["head_w"]
        self.head_b = self.leafs["head_b"]
        self.conv = None
        if cfg.context_mode != "none":
            self.conv = ConvStackParams(**{f: self.leafs[f"conv.{f}"] for f in CONV_FIELDS})

    def logit(self, table: str, index: int) -> Tensor:
        return tp.slice_(self.leafs[table], index, index + 1)

    def modulation_row(self, sid: int) -> Tensor:
        row = tp.slice_(self.leafs["modulation"], sid, sid + 1, axis=0)
        return tp.reshape(row, (row.values.shape[1],))


def _row(t: Tensor) -> Tensor:
    return t if t.values.ndim == 1 else tp.reshape(t, (1,))


# ---------------------------------------------------------------------------
# the sweep: shared forward machinery for training, validation and prediction


class _TrackState:
    __slots__ = ("es", "factors", "pending", "pos")

    def __init__(self, es: ESState):
        self.es = es
        self.factors = []  # factor tensor per consumed position, trimmed to W
        self.pending = None  # (delta_alpha, delta_beta) tensors from the last head output
        self.pos = 0


class _Sweep:
    """Advances smoothing states and runs both tracks over an anchor grid."""

    def __init__(self, panel: SeriesPanel, params: ModelParams, main_series):
        self.panel = panel
        self.params = params
        self.cfg = params.config
        self.main = list(main_series)
        if panel.n != params.n_series:
            raise DataError(f"model was made for {params.n_series} series, panel has {panel.n}")
        outside = sorted({i for i in self.main + list(params.global_batch) if not 0 <= i < panel.n})
        if outside:
            raise DataError(f"series ids {outside} lie outside the panel's {panel.n} series")
        self.ctx_ids = list(params.global_batch) if self.cfg.context_mode != "none" else []
        self.views: _Views | None = None
        self.main_states: dict[int, _TrackState] = {}
        self.ctx_states: list[_TrackState] = []
        self.stack_states: dict[int, list] = {}
        self.skipped_windows = 0

    # -- state management -------------------------------------------------

    def _prefix(self, sid: int) -> np.ndarray:
        need = 2 * self.cfg.period
        values = self.panel.values[sid, :need].copy()
        mask = self.panel.mask[sid, :need]
        if not mask.any():
            raise DataError(f"series {sid} has no observations in its warm-up prefix")
        values[~mask] = values[mask].mean()
        return values

    def set_views(self, views: _Views):
        """Enter a new tape segment; carried state becomes constant."""
        first = self.views is None
        self.views = views
        if first:
            for sid in self.main:
                es = es_init(
                    self._prefix(sid),
                    self.cfg.period,
                    views.logit("main_alpha_logit", sid),
                    views.logit("main_beta_logit", sid),
                )
                self.main_states[sid] = _TrackState(es)
                self.stack_states[sid] = new_stack_states(views.layers, self.cfg.dilations)
            for k, cid in enumerate(self.ctx_ids):
                es = es_init(
                    self._prefix(cid),
                    self.cfg.period,
                    views.logit("ctx_alpha_logit", k),
                    views.logit("ctx_beta_logit", k),
                )
                self.ctx_states.append(_TrackState(es))
            return
        for sid in self.main:
            self._relink(self.main_states[sid], views.logit("main_alpha_logit", sid), views.logit("main_beta_logit", sid))
            for layer in self.stack_states[sid]:
                layer.detach()
        for k, state in enumerate(self.ctx_states):
            self._relink(state, views.logit("ctx_alpha_logit", k), views.logit("ctx_beta_logit", k))

    @staticmethod
    def _relink(state: _TrackState, alpha_logit: Tensor, beta_logit: Tensor):
        es = state.es
        state.es = ESState(
            es.level.detach(), [s.detach() for s in es.seasonal], alpha_logit, beta_logit, es.period
        )
        state.factors = [f.detach() for f in state.factors]
        if state.pending is not None:
            state.pending = tuple(d.detach() for d in state.pending)

    def _advance(self, state: _TrackState, sid: int, upto: int):
        values = self.panel.values[sid]
        mask = self.panel.mask[sid]
        da, db = state.pending if state.pending is not None else (0.0, 0.0)
        keep = max(self.cfg.window, self.cfg.period)
        for t in range(state.pos, upto):
            state.factors.append(state.es.seasonal[0])
            if mask[t]:
                state.es, _, _ = es_step(state.es, values[t], da, db)
            else:
                state.es = es_skip(state.es)
        if len(state.factors) > keep:
            del state.factors[: len(state.factors) - keep]
        state.pos = upto

    def advance_to(self, t: int):
        for sid in self.main:
            self._advance(self.main_states[sid], sid, t)
        for k, cid in enumerate(self.ctx_ids):
            self._advance(self.ctx_states[k], cid, t)

    # -- per-anchor forward -------------------------------------------------

    def _window(self, state: _TrackState, sid: int, t: int):
        """(x_in tensor, z_bar, usable) for the W points before t."""
        W = self.cfg.window
        z = self.panel.values[sid, t - W : t]
        mask = self.panel.mask[sid, t - W : t]
        observed = z[mask]
        if observed.size < W - W // 2:  # more than half missing
            return None, 0.0, False
        z_bar = float(observed.mean())
        if z_bar <= 0.0:
            return None, 0.0, False
        safe = np.where(mask, z, z_bar)
        factors = tp.concat([_row(f) for f in state.factors[-W:]])
        x_in = tp.sub(Tensor(np.log(safe / z_bar)), tp.log(factors))
        if not mask.all():
            x_in = tp.mul(x_in, Tensor(mask.astype(np.float64)))  # neutral fill: x_in = 0
        return x_in, z_bar, True

    def _context_vector(self, t: int):
        if not self.ctx_ids:
            return None
        vectors = []
        for k, cid in enumerate(self.ctx_ids):
            state = self.ctx_states[k]
            x_in, _, usable = self._window(state, cid, t)
            if not usable:
                x_in = Tensor(np.zeros(self.cfg.window))
            r, da, db = context_conv_forward(fft_features(x_in), self.views.conv)
            state.pending = (tp.clip(da, -DELTA_CLAMP, DELTA_CLAMP), tp.clip(db, -DELTA_CLAMP, DELTA_CLAMP))
            vectors.append(r)
        return assemble_context(vectors)

    def step(self, t: int):
        """Run one anchor; returns {sid: (median, lower, upper, z_bar, s_future)} in log space."""
        if t != max(s.pos for s in self.main_states.values()):
            raise DataError("anchors must be visited in order after advance_to")
        fh = self.cfg.horizon
        shared_context = self._context_vector(t)
        calendar = embed_calendar(calendar_features(self.panel.timestamps[t - 1]), self.views.embedding)
        out: dict[int, tuple] = {}
        for sid in self.main:
            state = self.main_states[sid]
            x_in, z_bar, usable = self._window(state, sid, t)
            if not usable:
                self.skipped_windows += 1
                continue
            seasonal = tp.concat([_row(f) for f in state.es.seasonal])
            context = None
            if shared_context is not None:
                context = modulate(shared_context, self.views.modulation_row(sid))
            x_full = assemble_input(x_in, seasonal, z_bar, calendar, context)
            y = stack_step(x_full, self.stack_states[sid], self.views.layers)
            head = tp.add(tp.matmul(self.views.head_w, y), self.views.head_b)
            median = tp.slice_(head, 0, fh)
            lower = tp.slice_(head, fh, 2 * fh)
            upper = tp.slice_(head, 2 * fh, 3 * fh)
            da = tp.clip(tp.slice_(head, 3 * fh, 3 * fh + 1), -DELTA_CLAMP, DELTA_CLAMP)
            db = tp.clip(tp.slice_(head, 3 * fh + 1, 3 * fh + 2), -DELTA_CLAMP, DELTA_CLAMP)
            state.pending = (da, db)
            s_future = tp.concat([_row(f) for f in future_factors(state.es, fh)])
            out[sid] = (median, lower, upper, z_bar, s_future)
        return out

    def loss_for(self, sid: int, t: int, result) -> Tensor | None:
        """Pinball loss in normalized space, or None when targets are missing."""
        fh = self.cfg.horizon
        median, lower, upper, z_bar, s_future = result
        target_mask = self.panel.mask[sid, t : t + fh]
        if target_mask.size < fh or not target_mask.all():
            return None
        actual = self.panel.values[sid, t : t + fh] / z_bar
        preds = [tp.mul(tp.exp(q), s_future) for q in (median, lower, upper)]
        return total_loss(
            actual, *preds, self.cfg.gamma, self.cfg.q_star, self.cfg.q_low, self.cfg.q_high
        )

    def emit(self, result) -> tuple:
        """(median, lower, upper) in series units, positivity shift undone."""
        median, lower, upper, z_bar, s_future = result
        s_vals = s_future.values
        return tuple(
            postprocess(q.values, z_bar, s_vals, self.panel.shift) for q in (median, lower, upper)
        )


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


def _anchor_grid(panel: SeriesPanel, cfg: TrainConfig, for_training: bool):
    last = panel.T - cfg.horizon if for_training else panel.T
    return list(range(cfg.first_anchor, last + 1, cfg.stride))


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
    anchors = _anchor_grid(train_panel, cfg, for_training=True)
    if not anchors:
        raise DataError(
            f"panel too short: need T >= {cfg.first_anchor + cfg.horizon}, got {train_panel.T}"
        )
    params = init_model(cfg, train_panel.n, context_map)
    adam = Adam({name: params.arrays[name] for name in params.trainable})
    order_rng = np.random.default_rng([cfg.seed, 0xBA7C])
    log: list[EpochStats] = []
    best_val = math.inf
    best_arrays = None

    for epoch in range(1, cfg.epochs + 1):
        scheduled = cfg.batch_size_at(epoch)
        batch_size = min(scheduled, train_panel.n)
        lr = cfg.lr_at(epoch)
        order = [int(i) for i in order_rng.permutation(train_panel.n)]
        batches = [order[i : i + batch_size] for i in range(0, len(order), batch_size)]
        epoch_losses: list[float] = []
        updates = 0
        for batch in batches:
            sweep = _Sweep(train_panel, params, batch)
            for lo in range(0, len(anchors), cfg.steps_per_update):
                segment = anchors[lo : lo + cfg.steps_per_update]
                tape = Tape()
                views = _Views(params, tape)
                sweep.set_views(views)
                losses = []
                for t in segment:
                    sweep.advance_to(t)
                    results = sweep.step(t)
                    for sid, result in results.items():
                        loss = sweep.loss_for(sid, t, result)
                        if loss is not None:
                            losses.append(tp.reshape(loss, (1,)))
                if not losses:
                    continue
                segment_loss = tp.mean(tp.concat(losses))
                value = float(segment_loss.values)
                if not math.isfinite(value):
                    raise DivergenceError(f"non-finite loss at epoch {epoch}")
                grads = backward(segment_loss)
                grad_map = {}
                for name in params.trainable:
                    g = grads.get(views.leafs[name].node)
                    if g is not None:
                        grad_map[name] = g
                adam.step(grad_map, lr)
                updates += 1
                epoch_losses.extend(float(l.values[0]) for l in losses)
        train_loss = float(np.mean(epoch_losses)) if epoch_losses else math.nan
        val_loss = validation_loss(params, val_panel) if val_panel is not None else None
        log.append(EpochStats(epoch, scheduled, batch_size, lr, train_loss, val_loss, updates))
        if val_loss is not None and val_loss < best_val:
            best_val = val_loss
            best_arrays = {k: v.copy() for k, v in params.arrays.items()}
    if best_arrays is not None:
        params = ModelParams(cfg, params.n_series, params.global_batch, best_arrays)
    return params, log


def validation_loss(params: ModelParams, panel: SeriesPanel) -> float | None:
    """Mean forward-only loss over the panel's anchor grid (None if too short)."""
    cfg = params.config
    anchors = _anchor_grid(panel, cfg, for_training=True)
    if not anchors:
        return None
    sweep = _Sweep(panel, params, range(panel.n))
    sweep.set_views(_Views(params, tape=None))
    losses = []
    for t in anchors:
        sweep.advance_to(t)
        for sid, result in sweep.step(t).items():
            loss = sweep.loss_for(sid, t, result)
            if loss is not None:
                losses.append(float(loss.values))
    return float(np.mean(losses)) if losses else None


# ---------------------------------------------------------------------------
# prediction


def rolling_forecast(params: ModelParams, panel: SeriesPanel, emit_from: int, series=None):
    """Forward sweep emitting (median, lower, upper) at every grid anchor >= emit_from.

    Returns {anchor: {sid: (median, lower, upper)}} in series units.
    """
    cfg = params.config
    series = list(range(panel.n)) if series is None else list(series)
    anchors = _anchor_grid(panel, cfg, for_training=False)
    if not anchors:
        raise DataError("panel leaves no room for the input window")
    sweep = _Sweep(panel, params, series)
    sweep.set_views(_Views(params, tape=None))
    out = {}
    for t in anchors:
        sweep.advance_to(t)
        results = sweep.step(t)
        if t >= emit_from:
            out[t] = {sid: sweep.emit(result) for sid, result in results.items()}
    return out


def predict(params: ModelParams, panel: SeriesPanel, anchor: int, series=None):
    """One forecast per requested series at a single anchor.

    The sweep warms up deterministically over the anchor grid below
    ``anchor``; no data at or beyond the anchor is read.
    """
    cfg = params.config
    if anchor < cfg.first_anchor or anchor > panel.T:
        raise DataError(
            f"anchor must lie in [{cfg.first_anchor}, {panel.T}] (needs {cfg.window} history points)"
        )
    series = list(range(panel.n)) if series is None else list(series)
    grid = [t for t in _anchor_grid(panel, cfg, for_training=False) if t < anchor]
    sweep = _Sweep(panel, params, series)
    sweep.set_views(_Views(params, tape=None))
    for t in grid:
        sweep.advance_to(t)
        sweep.step(t)
    sweep.advance_to(anchor)
    results = sweep.step(anchor)
    missing = [sid for sid in series if sid not in results]
    if missing:
        raise DataError(f"series {missing} lack usable input windows at anchor {anchor}")
    return {sid: sweep.emit(result) for sid, result in results.items()}


def ensemble_predict(members, panel: SeriesPanel, anchor: int, series=None):
    """Mean of member medians; envelope (min lower, max upper) for the bounds."""
    if not members:
        raise ValueError("ensemble needs at least one member")
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


_MODE_CODES = {"full": 0, "global": 1, "none": 2}
_MODE_NAMES = {v: k for k, v in _MODE_CODES.items()}


def _meta_blocks(params: ModelParams) -> dict:
    cfg = params.config
    scalars = [float(getattr(cfg, name)) for name in SCALAR_FIELDS]
    scalars.append(float(_MODE_CODES[cfg.context_mode]))
    scalars.append(float(params.n_series))
    return {
        "meta.scalars": np.array(scalars),
        "meta.dilations": np.array(cfg.dilations, dtype=np.float64),
        "meta.batch_schedule": np.array(
            [x for k in sorted(cfg.batch_schedule) for x in (k, cfg.batch_schedule[k])], dtype=np.float64
        ),
        "meta.lr_schedule": np.array(
            [x for k in sorted(cfg.lr_schedule) for x in (k, cfg.lr_schedule[k])], dtype=np.float64
        ),
        "meta.global_batch": np.array(params.global_batch, dtype=np.float64),
    }


def _config_from_meta(blocks: dict) -> tuple[TrainConfig, int, tuple]:
    def meta(name):
        if name not in blocks:
            raise DataError(f"model file lacks its {name} block")
        return blocks[name]

    scalars = meta("meta.scalars")
    if scalars.shape != (len(SCALAR_FIELDS) + 2,):
        raise DataError(f"meta.scalars holds shape {scalars.shape}, expected ({len(SCALAR_FIELDS) + 2},)")
    values = {name: kind(x) for (name, kind), x in zip(SCALAR_FIELDS.items(), scalars)}
    values["context_mode"] = _MODE_NAMES[int(scalars[-2])]
    n_series = int(scalars[-1])
    values["dilations"] = tuple(int(d) for d in meta("meta.dilations"))
    pairs = meta("meta.batch_schedule")
    values["batch_schedule"] = {int(pairs[i]): int(pairs[i + 1]) for i in range(0, len(pairs), 2)}
    pairs = meta("meta.lr_schedule")
    values["lr_schedule"] = {int(pairs[i]): float(pairs[i + 1]) for i in range(0, len(pairs), 2)}
    global_batch = tuple(int(i) for i in meta("meta.global_batch"))
    return TrainConfig(**values), n_series, global_batch


def save_model(params: ModelParams, path):
    """Versioned binary dump; block order is sorted by name for determinism."""
    blocks = dict(params.arrays)
    blocks.update(_meta_blocks(params))

    def dump(fh):
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

    if hasattr(path, "write"):
        dump(path)
    else:
        with open(path, "wb") as fh:
            dump(fh)


def load_model(path) -> ModelParams:
    """Read a model file; a truncated or padded file is a DataError."""
    if hasattr(path, "read"):
        data = path.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    pos = 0

    def take(size: int, what: str) -> bytes:
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
        name = take(name_len, "a block name").decode("utf-8")
        (ndim,) = struct.unpack("<I", take(4, f"the rank of {name}"))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim, f"the shape of {name}"))
        payload = take(8 * math.prod(shape), f"the values of {name}")
        blocks[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).astype(np.float64)
    if pos != len(data):
        raise DataError(f"model file has {len(data) - pos} bytes after its last block")
    config, n_series, global_batch = _config_from_meta(blocks)
    arrays = {k: v for k, v in blocks.items() if not k.startswith("meta.")}
    return ModelParams(config, n_series, global_batch, arrays)
