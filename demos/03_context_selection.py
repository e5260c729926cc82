"""Data-driven context selection on a panel with a known driver.

Series 0 drives series 3 at lag 1. Correlation, spanning-tree and
mutual-information scores are aggregated to shortlist candidates, then
Granger F-tests pick the final contexts - using N*ceil(1.5*S) tests
instead of N^2.
"""

import io
import math

import numpy as np

from contextrnn.data import SynthSpec, synth_generate
from contextrnn.selection import (
    AdjacencyMatrix,
    aggregate,
    build_context_map,
    cst_matrix,
    granger_rank,
    mi_matrix,
    pearson_matrix,
    shortlist,
    write_context_map,
)

n, S = 8, 3
panel = synth_generate(
    SynthSpec(n=n, T=1500, edges=((0, 3),), coupling=2.0, lag=1, noise_sigma=0.5, seasonal_period=24),
    seed=1,
)

corr = pearson_matrix(panel)
print("corr(0, 3) =", round(corr.weights[0, 3], 3), " (driver vs driven)")

tree = cst_matrix(corr)
edges = [(i, j) for i in range(n) for j in range(i + 1, n) if tree.weights[i, j] > 0]
print("spanning tree edges:", edges)

mi = mi_matrix(panel)
print("MI(0, 3) =", round(mi.weights[0, 3], 3), "nats")

agg = aggregate([AdjacencyMatrix(n, np.abs(corr.weights), "CM"), tree, mi])
candidates = shortlist(agg, S)
print(f"target 3 shortlist (top {math.ceil(1.5 * S)}):", candidates[3])

ranked = granger_rank(panel, candidates, maxlag=4, S=S, aggregated=agg)
print("Granger tests performed:", ranked.tests_performed, f"(budget {n * math.ceil(1.5 * S)})")
print("target 3 contexts:", ranked.per_target[3],
      " p(driver) = %.2e" % ranked.p_values[3, 0])

# the one-call pipeline, and its text serialization
cm = build_context_map(panel, S=S, K=4)
print("global context batch:", cm.global_batch)
buf = io.StringIO()
write_context_map(cm, buf)
print("--- map file ---")
print(buf.getvalue())
