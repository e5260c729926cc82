"""Independent numpy/scipy computations the checks compare the program against.

None of these calls the program: each follows the documented definition
(pairwise-complete Pearson, equal-width histogram mutual information,
Granger F-test on the longest jointly observed run, RSE and CORR of the
LSTNet protocol).
"""

from __future__ import annotations

import math

import numpy as np


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        return 0.0
    return float(np.corrcoef(x, y)[0, 1])


def _bin_codes(v: np.ndarray, bins: int) -> np.ndarray:
    edges = np.linspace(v.min(), v.max(), bins + 1)
    codes = np.searchsorted(edges, v, side="right") - 1
    codes[v == edges[-1]] = bins - 1  # the last bin is closed on the right
    return codes


def mutual_information(x: np.ndarray, y: np.ndarray) -> float:
    """MI in nats over max(8, floor(sqrt(n))) (at most 64) equal-width bins per marginal."""
    if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        return 0.0
    bins = min(64, max(8, math.isqrt(x.size)))
    joint = np.bincount(_bin_codes(x, bins) * bins + _bin_codes(y, bins), minlength=bins * bins)
    joint = joint.reshape(bins, bins) / x.size
    px, py = joint.sum(axis=1), joint.sum(axis=0)
    rows, cols = np.nonzero(joint)
    p = joint[rows, cols]
    return max(0.0, float(np.sum(p * (np.log(p) - np.log(px[rows]) - np.log(py[cols])))))


def longest_run(observed: np.ndarray) -> tuple[int, int]:
    """[lo, hi) of the first longest run of True."""
    edges = np.diff(np.concatenate(([0], observed.astype(np.int8), [0])))
    starts, ends = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)
    k = int(np.argmax(ends - starts))
    return int(starts[k]), int(ends[k])


def _lags(series: np.ndarray, maxlag: int) -> np.ndarray:
    return np.column_stack([series[maxlag - lag : series.size - lag] for lag in range(1, maxlag + 1)])


def granger_p(y: np.ndarray, x: np.ndarray, maxlag: int) -> float:
    """p-value of the F-test that x's lags add to y's own autoregression."""
    from scipy import stats  # imported here, so it stays out of the timed process's peak memory

    target = y[maxlag:]
    restricted = np.column_stack([np.ones(target.size), _lags(y, maxlag)])
    augmented = np.column_stack([restricted, _lags(x, maxlag)])
    rss = []
    for design in (restricted, augmented):
        coef = np.linalg.lstsq(design, target, rcond=None)[0]
        resid = target - design @ coef
        rss.append(float(resid @ resid))
    dof = target.size - 2 * maxlag - 1
    f_stat = ((rss[0] - rss[1]) / maxlag) / (rss[1] / dof)
    return 1.0 if f_stat <= 0.0 else float(stats.f.sf(f_stat, maxlag, dof))


def rse(predicted: np.ndarray, actual: np.ndarray) -> float:
    return math.sqrt(float(((actual - predicted) ** 2).sum())) / math.sqrt(
        float(((actual - actual.sum() / actual.size) ** 2).sum())
    )


def mean_corr(predicted: np.ndarray, actual: np.ndarray) -> float:
    """Mean Pearson correlation over rows; constant rows are skipped."""
    values = []
    for p, a in zip(predicted, actual):
        if np.ptp(p) > 0.0 and np.ptp(a) > 0.0:
            values.append(float(np.corrcoef(p, a)[0, 1]))
    return float(np.mean(values)) if values else math.nan
