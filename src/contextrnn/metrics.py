"""Root relative squared error, mean per-series correlation, and evaluation reports.

RSE normalizes the forecast RMSE by the deviation of the actuals from the
global test-set mean; CORR averages per-series Pearson correlations
(series that are constant over the evaluated cells are skipped and
counted). Both follow the conventions of the LSTNet evaluation protocol.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .data import DataError, SeriesPanel
from .model import ModelParams, rolling_forecast

__all__ = ["EvalReport", "rse", "corr_with_skips", "evaluate"]


def rse(predicted, actual) -> float:
    """sqrt(sum (y - yhat)^2) / sqrt(sum (y - mean(Y))^2) over all cells."""
    predicted = np.asarray(predicted, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if predicted.shape != actual.shape:
        raise DataError(f"shape mismatch: {predicted.shape} vs {actual.shape}")
    center = actual.mean()
    denom = math.sqrt(float(np.sum((actual - center) ** 2)))
    if denom == 0.0:
        raise DataError("actuals are constant; RSE undefined")
    return math.sqrt(float(np.sum((actual - predicted) ** 2))) / denom


def corr_with_skips(predicted, actual) -> tuple[float, int]:
    """Mean per-series Pearson correlation and the count of skipped series.

    Both inputs hold one row of cells per series: equally shaped (series,
    cells) matrices, or sequences of 1-D rows whose lengths may differ from
    series to series.
    """
    try:
        rows = list(zip(predicted, actual, strict=True))
    except (TypeError, ValueError):
        raise DataError("need one row of cells per series in both inputs") from None
    values = []
    skipped = 0
    for p, a in rows:
        p = np.asarray(p, dtype=np.float64)
        a = np.asarray(a, dtype=np.float64)
        if p.shape != a.shape or p.ndim != 1:
            raise DataError("need equally shaped (series, cells) rows")
        a = a - a.mean()
        p = p - p.mean()
        denom = math.sqrt(float(a @ a) * float(p @ p))
        if denom == 0.0:
            skipped += 1
            continue
        values.append(float(a @ p) / denom)
    if not values:
        raise DataError("every series is constant; CORR undefined")
    return float(np.mean(values)), skipped


@dataclass(frozen=True)
class EvalReport:
    rse: float
    corr: float
    per_horizon: dict  # horizon (1-based) -> (rse, corr)
    runtime_seconds: float
    config: dict = field(default_factory=dict)
    corr_skipped: int = 0

    def __post_init__(self):
        if self.rse < 0.0 or not (-1.0 - 1e-12 <= self.corr <= 1.0 + 1e-12):
            raise DataError("report violates rse >= 0 or corr in [-1, 1]")

    def to_json(self) -> str:
        payload = {
            "rse": self.rse,
            "corr": self.corr,
            "per_horizon": {str(h): list(v) for h, v in self.per_horizon.items()},
            "runtime_seconds": self.runtime_seconds,
            "config": self.config,
            "corr_skipped": self.corr_skipped,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def forecast_matrices(params: ModelParams, panel: SeriesPanel, emit_from: int):
    """Rolling medians vs actuals: (predicted, actual) of shape (series, anchors, fh).

    The rolling sweep stops at the last anchor whose horizon fits the
    panel, so every anchor it emits has a whole target window. Only
    anchors whose window is observed for a series contribute to that
    series' row, so rows can differ in length; a row shorter than the
    longest is padded at its end with NaN windows. Evaluation runs in
    the panel's own units, on the values its file holds.
    """
    cfg = params.config
    forecasts = rolling_forecast(params, panel, emit_from)
    anchors = sorted(forecasts)
    if not anchors:
        raise DataError("no complete forecast windows inside the evaluation region")
    pred_rows, act_rows = [], []
    for sid in range(panel.n):
        pred, act = [], []
        for t in anchors:
            got = forecasts[t].get(sid)
            if got is None or not panel.mask[sid, t : t + cfg.horizon].all():
                continue
            pred.append(got[0])
            act.append(panel.values[sid, t : t + cfg.horizon])
        if pred:
            pred_rows.append(pred)
            act_rows.append(act)
    if not pred_rows:
        raise DataError("no evaluable series")
    return _padded(pred_rows, cfg.horizon), _padded(act_rows, cfg.horizon)


def _padded(rows, horizon: int) -> np.ndarray:
    """Per-series lists of forecast windows as one (series, anchors, fh) array, NaN past a row's end."""
    out = np.full((len(rows), max(len(row) for row in rows), horizon), np.nan)
    for k, row in enumerate(rows):
        out[k, : len(row)] = row
    return out


def _scored(matrix: np.ndarray, scored: np.ndarray) -> np.ndarray:
    """The scored cells of a padded forecast matrix.

    Without padding that is the matrix itself, so a fully observed panel
    keeps the summation order, and the report bytes, of an unpadded one.
    """
    return matrix if scored.all() else matrix[scored]


def evaluate(params: ModelParams, panel: SeriesPanel, test_start: int, config_echo=None) -> EvalReport:
    """Rolling evaluation over every grid anchor at or past ``test_start``.

    RSE is taken over all scored cells; CORR, overall and per horizon, over
    each series' own scored cells.
    """
    start = time.perf_counter()
    predicted, actual = forecast_matrices(params, panel, max(test_start, params.config.first_anchor))
    n_series, n_anchors, fh = predicted.shape
    scored = ~np.isnan(actual)

    def rows(matrix, keep):
        return [_scored(row, k) for row, k in zip(matrix, keep)]

    overall_rse = rse(_scored(predicted, scored), _scored(actual, scored))
    flat = scored.reshape(n_series, -1)
    overall_corr, skipped = corr_with_skips(
        rows(predicted.reshape(n_series, -1), flat), rows(actual.reshape(n_series, -1), flat)
    )
    per_horizon = {}
    for h in range(fh):
        keep = scored[:, :, h]
        try:
            h_corr, _ = corr_with_skips(rows(predicted[:, :, h], keep), rows(actual[:, :, h], keep))
        except DataError:
            h_corr = math.nan
        per_horizon[h + 1] = (rse(_scored(predicted[:, :, h], keep), _scored(actual[:, :, h], keep)), h_corr)
    return EvalReport(
        rse=overall_rse,
        corr=overall_corr,
        per_horizon=per_horizon,
        runtime_seconds=time.perf_counter() - start,
        config=config_echo or {},
        corr_skipped=skipped,
    )
