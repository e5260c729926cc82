"""Dynamic multiplicative Holt-Winters decomposition, batched over series.

A state keeps a level and a ring buffer of ``p`` seasonal factors for a
batch of series: each is a tensor with one entry per series, shape
``(B,)``, or 0-d for a single series. The effective smoothing coefficients
are sigmoids of per-series logits plus per-step corrections supplied by
the network, so every update stays a convex combination and the
decomposition remains differentiable end to end. Every operation acts
elementwise, so one step records the same tape nodes for any batch size;
constants and tape-tracked tensors mix freely.
"""

from __future__ import annotations

import numpy as np

from . import tape as tp
from .data import DataError
from .tape import Tensor

__all__ = [
    "ESState",
    "es_init",
    "es_step",
    "es_skip",
    "future_factors",
    "DEFAULT_LOGIT",
]

#: slow-adapting prior: sigmoid(-2) ~ 0.119
DEFAULT_LOGIT = -2.0


class ESState:
    """Level + seasonal ring + smoothing logits for a batch of series.

    ``seasonal[0]`` holds the factors for the current step t; the ring
    always holds exactly ``period`` entries covering steps t .. t+p-1.
    """

    __slots__ = ("level", "seasonal", "alpha_logit", "beta_logit", "period")

    def __init__(self, level, seasonal, alpha_logit, beta_logit, period):
        if len(seasonal) != period:
            raise DataError(f"ring holds {len(seasonal)} factors, period is {period}")
        self.level = level
        self.seasonal = list(seasonal)
        self.alpha_logit = alpha_logit
        self.beta_logit = beta_logit
        self.period = period


def _tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def es_init(series_prefix, period: int, alpha_logit=DEFAULT_LOGIT, beta_logit=DEFAULT_LOGIT) -> ESState:
    """Warm-start a state from the first 2p values of each series.

    ``series_prefix`` is one series' values or a (B, 2p) matrix, one row
    per series. Level is the mean of the first p values; factor i is
    mean(z_i, z_{i+p}) / level, renormalized to average 1.
    """
    values = np.asarray(series_prefix, dtype=np.float64)
    if values.shape[-1] < 2 * period:
        raise DataError(f"need {2 * period} values to initialize, got {values.shape[-1]}")
    if np.any(values <= 0.0):
        raise DataError("initialization values must be positive")
    level = values[..., :period].sum(axis=-1) / period
    raw = (values[..., :period] + values[..., period : 2 * period]) / 2.0 / level[..., None]
    norm = raw.sum(axis=-1) / period
    seasonal = [Tensor(raw[..., i] / norm) for i in range(period)]
    return ESState(Tensor(level), seasonal, _tensor(alpha_logit), _tensor(beta_logit), period)


def es_step(state: ESState, z_t, delta_alpha=0.0, delta_beta=0.0):
    """Advance one observation per series; returns (new state, l_t, s_{t+p}).

    alpha = sigmoid(alpha_logit + delta_alpha) and likewise beta, so both
    stay in (0, 1). The oldest ring entry is consumed, the new one
    appended. A non-positive observation rejects the step and leaves the
    state unchanged.
    """
    z = np.asarray(z_t, dtype=np.float64)
    if np.any(z <= 0.0):
        raise DataError(f"observations must be positive, got {z}")
    alpha = tp.sigmoid(tp.add(state.alpha_logit, delta_alpha))
    beta = tp.sigmoid(tp.add(state.beta_logit, delta_beta))
    one_minus_alpha = tp.sub(1.0, alpha)
    level = tp.add(tp.mul(alpha, z), tp.mul(one_minus_alpha, state.level))
    ratio = tp.div(z, level)
    s_head = state.seasonal[0]
    s_new = tp.add(tp.mul(beta, ratio), tp.mul(tp.sub(1.0, beta), s_head))
    new_state = ESState(
        level,
        state.seasonal[1:] + [s_new],
        state.alpha_logit,
        state.beta_logit,
        state.period,
    )
    return new_state, level, s_new


def es_skip(state: ESState) -> ESState:
    """Advance past a missing observation: rotate the ring, keep the level.

    A pure rotation keeps the seasonal phase aligned with wall clock
    without inventing data.
    """
    return ESState(
        state.level,
        state.seasonal[1:] + [state.seasonal[0]],
        state.alpha_logit,
        state.beta_logit,
        state.period,
    )


def future_factors(state: ESState, horizon: int) -> list[Tensor]:
    """Factors for the next ``horizon`` steps; repeats the ring phase beyond p."""
    return [state.seasonal[i % state.period] for i in range(horizon)]
