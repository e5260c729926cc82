"""Dynamic multiplicative decomposition of a seasonal series.

Each series carries a level and a ring of seasonal factors. The smoothing
coefficients are sigmoids of learnable logits plus per-step corrections,
so a network can speed smoothing up or slow it down while everything
stays differentiable.
"""

import numpy as np

from contextrnn.smoothing import es_init, es_step, future_factors

rng = np.random.default_rng(7)
period = 8
T = 64
t = np.arange(T)
series = 10.0 + 3.0 * np.sin(2 * np.pi * t / period) + rng.normal(0, 0.2, T)

state = es_init(series[: 2 * period], period)
print("initial level     ", round(state.level.item(), 3))
print("initial factors   ", np.round([s.item() for s in state.seasonal], 3))

# advance through the series with neutral corrections
for z in series[: T // 2]:
    state, level, s_new = es_step(state, z)
print("level after sweep ", round(state.level.item(), 3))

# corrections shift the effective alpha/beta through a sigmoid
fast, _, _ = es_step(state, 20.0, delta_alpha=+6.0)   # alpha -> ~1: level jumps
slow, _, _ = es_step(state, 20.0, delta_alpha=-6.0)   # alpha -> ~0: level frozen
print("level, alpha  up  ", round(fast.level.item(), 3))
print("level, alpha down ", round(slow.level.item(), 3))

# the ring looks ahead one full period; longer horizons repeat the phase
print("phase 0 factor    ", round(state.seasonal[0].item(), 3))
horizon = [round(f.item(), 3) for f in future_factors(state, period + 2)]
print("next factors      ", horizon, "(last two repeat the ring)")
