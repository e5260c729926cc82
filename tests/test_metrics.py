import json
import math

import numpy as np
import pytest

from contextrnn.data import DataError
from contextrnn.metrics import EvalReport, corr_with_skips, rse


def brute_force_rse(predicted, actual):
    center = sum(actual.flatten()) / actual.size
    num = sum((a - p) ** 2 for a, p in zip(actual.flatten(), predicted.flatten()))
    den = sum((a - center) ** 2 for a in actual.flatten())
    return math.sqrt(num) / math.sqrt(den)


def brute_force_corr(predicted, actual):
    values = []
    for i in range(actual.shape[0]):
        a, p = actual[i], predicted[i]
        am, pm = a.mean(), p.mean()
        num = sum((x - am) * (y - pm) for x, y in zip(a, p))
        den = math.sqrt(sum((x - am) ** 2 for x in a) * sum((y - pm) ** 2 for y in p))
        if den == 0:
            continue
        values.append(num / den)
    return sum(values) / len(values)


class TestRSE:
    def test_perfect_forecast(self):
        actual = np.random.default_rng(0).normal(size=(3, 8))
        assert rse(actual.copy(), actual) == 0.0

    def test_mean_predictor_scores_one(self):
        actual = np.random.default_rng(1).normal(size=(3, 8))
        predicted = np.full_like(actual, actual.mean())
        assert rse(predicted, actual) == pytest.approx(1.0)

    def test_mirror_predictor_scores_one(self):
        # yhat = 2y - mean: numerator equals denominator algebraically
        actual = np.random.default_rng(2).normal(size=(4, 6))
        predicted = 2.0 * actual - actual.mean()
        assert rse(predicted, actual) == pytest.approx(1.0)

    def test_constant_actuals_rejected(self):
        with pytest.raises(DataError, match="constant"):
            rse(np.ones((2, 3)), np.ones((2, 3)))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            actual = rng.normal(size=(5, 20))
            predicted = actual + rng.normal(scale=0.3, size=(5, 20))
            assert rse(predicted, actual) == pytest.approx(brute_force_rse(predicted, actual), abs=1e-12)


class TestCorr:
    def test_perfect_forecast(self):
        actual = np.random.default_rng(4).normal(size=(3, 9))
        assert corr_with_skips(actual.copy(), actual)[0] == pytest.approx(1.0)

    def test_negated_forecast(self):
        actual = np.random.default_rng(5).normal(size=(3, 9))
        assert corr_with_skips(-actual + 2.0, actual)[0] == pytest.approx(-1.0)

    def test_affine_invariance(self):
        actual = np.random.default_rng(6).normal(size=(3, 9))
        assert corr_with_skips(3.5 * actual + 1.0, actual)[0] == pytest.approx(1.0)

    def test_constant_series_skipped_and_counted(self):
        actual = np.vstack([np.ones(6), np.arange(6.0)])
        predicted = np.vstack([np.arange(6.0), np.arange(6.0)])
        value, skipped = corr_with_skips(predicted, actual)
        assert skipped == 1 and value == pytest.approx(1.0)

    def test_all_constant_rejected(self):
        with pytest.raises(DataError, match="constant"):
            corr_with_skips(np.ones((2, 4)), np.ones((2, 4)))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            actual = rng.normal(size=(5, 20))
            predicted = actual * rng.uniform(0.5, 2.0) + rng.normal(scale=0.5, size=(5, 20))
            assert corr_with_skips(predicted, actual)[0] == pytest.approx(brute_force_corr(predicted, actual), abs=1e-12)


    def test_rows_of_different_lengths(self):
        rng = np.random.default_rng(8)
        actual = [rng.normal(size=5), rng.normal(size=9)]
        predicted = [a + rng.normal(scale=0.5, size=a.size) for a in actual]
        want = np.mean([brute_force_corr(p[None], a[None]) for p, a in zip(predicted, actual)])
        assert corr_with_skips(predicted, actual)[0] == pytest.approx(want, abs=1e-12)

    def test_rows_must_pair_up(self):
        with pytest.raises(DataError):
            corr_with_skips([np.arange(4.0)], [np.arange(4.0), np.arange(4.0)])
        with pytest.raises(DataError):
            corr_with_skips([np.arange(4.0)], [np.arange(5.0)])
        with pytest.raises(DataError):
            corr_with_skips(np.arange(4.0), np.arange(4.0))


class TestEvalReport:
    def test_json_roundtrip(self):
        report = EvalReport(
            rse=0.42,
            corr=0.87,
            per_horizon={1: (0.4, 0.9), 2: (0.44, 0.85)},
            runtime_seconds=1.25,
            config={"test_start": 80},
            corr_skipped=1,
        )
        assert json.loads(report.to_json()) == {
            "rse": 0.42,
            "corr": 0.87,
            "per_horizon": {"1": [0.4, 0.9], "2": [0.44, 0.85]},
            "runtime_seconds": 1.25,
            "config": {"test_start": 80},
            "corr_skipped": 1,
        }

    def test_invariants_enforced(self):
        with pytest.raises(DataError):
            EvalReport(rse=-0.1, corr=0.0, per_horizon={}, runtime_seconds=0.0)
        with pytest.raises(DataError):
            EvalReport(rse=0.1, corr=1.5, per_horizon={}, runtime_seconds=0.0)
