import datetime as dt
import io
import itertools
import logging
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contextrnn import selection
from contextrnn.data import DataError, SeriesPanel, SynthSpec, synth_generate
from contextrnn.selection import (
    MIN_PAIR_OBS_CORR,
    MIN_PAIR_OBS_MI,
    AdjacencyMatrix,
    ContextMap,
    aggregate,
    build_context_map,
    cst_matrix,
    granger_rank,
    mi_matrix,
    pearson_matrix,
    shortlist,
    write_context_map,
)
from contextrnn.selection import (
    _bin_codes,
    _bin_count,
    _f_survival,
    _joint_counts,
    _joint_extremes,
    _longest_joint_runs,
)


def make_panel(values, mask=None):
    values = np.asarray(values, dtype=np.float64)
    n, T = values.shape
    stamps = tuple(dt.datetime(2020, 1, 1) + dt.timedelta(hours=t) for t in range(T))
    if mask is None:
        mask = np.ones((n, T), dtype=bool)
    return SeriesPanel(values, stamps, mask, dt.timedelta(hours=1))


def correlated_panel(R, T=16, seed=0):
    """Panel whose sample correlation matrix equals R exactly."""
    n = R.shape[0]
    rng = np.random.default_rng(seed)
    basis = rng.normal(size=(T, n))
    basis -= basis.mean(axis=0)
    q, _ = np.linalg.qr(basis)
    L = np.linalg.cholesky(R)
    series = (q @ L.T).T
    return make_panel(series + 10.0)


class TestPearson:
    def test_self_correlation(self):
        p = make_panel([[1.0, 2.0, 4.0, 3.0]])
        assert pearson_matrix(p).weights[0, 0] == pytest.approx(1.0)

    def test_perfect_anticorrelation(self):
        x = np.array([1.0, 2.0, 4.0, 3.0])
        p = make_panel([x, -x])
        assert pearson_matrix(p).weights[0, 1] == pytest.approx(-1.0)

    def test_direct_formula_oracle(self):
        p = make_panel([[1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 5.0]])
        got = pearson_matrix(p).weights[0, 1]
        # direct Pearson formula
        x = np.array([1.0, 2.0, 3.0, 4.0])
        y = np.array([1.0, 2.0, 3.0, 5.0])
        expected = ((x - x.mean()) @ (y - y.mean())) / math.sqrt(
            ((x - x.mean()) ** 2).sum() * ((y - y.mean()) ** 2).sum()
        )
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.9827, abs=5e-5)

    def test_zero_variance_scores_zero(self):
        p = make_panel([[2.0, 2.0, 2.0, 2.0], [1.0, 2.0, 3.0, 4.0]])
        w = pearson_matrix(p).weights
        assert w[0, 1] == 0.0 and w[0, 0] == 0.0

    def test_pairwise_complete(self):
        mask = np.array([[True, True, True, True, False], [True, True, True, True, True]])
        p = make_panel([[1, 2, 3, 4, 99], [2, 4, 6, 8, 10]], mask)
        assert pearson_matrix(p).weights[0, 1] == pytest.approx(1.0)

    def test_too_few_points(self):
        mask = np.array([[True, True, False], [True, True, True]])
        p = make_panel([[1, 2, 0], [2, 4, 6]], mask)
        with pytest.raises(DataError, match="joint points"):
            pearson_matrix(p)

    def test_symmetry_and_range(self):
        panel = synth_generate(SynthSpec(n=6, T=300, edges=((0, 1), (2, 3)), seasonal_period=12), seed=4)
        w = pearson_matrix(panel).weights
        np.testing.assert_allclose(w, w.T, atol=0)
        assert np.all(w <= 1.0 + 1e-12) and np.all(w >= -1.0 - 1e-12)


def reference_pearson(panel):
    """Pairwise loop: Pearson on each pair's joint cells, 0 where either series is constant there."""
    n = panel.n
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            keep = panel.mask[i] & panel.mask[j]
            x, y = panel.values[i, keep], panel.values[j, keep]
            if x.size < MIN_PAIR_OBS_CORR:
                raise DataError(f"series pair ({i}, {j}) has {x.size} joint points, need >= {MIN_PAIR_OBS_CORR}")
            r = 0.0
            if np.ptp(x) > 0.0 and np.ptp(y) > 0.0:
                xc, yc = x - x.mean(), y - y.mean()
                r = float(xc @ yc) / math.sqrt(float(xc @ xc) * float(yc @ yc))
            out[i, j] = out[j, i] = r
    return out


def reference_mi(panel):
    """Pairwise loop: np.histogram2d mutual information on each pair's joint cells."""
    n = panel.n
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            keep = panel.mask[i] & panel.mask[j]
            x, y = panel.values[i, keep], panel.values[j, keep]
            if x.size < MIN_PAIR_OBS_MI:
                raise DataError(f"series pair ({i}, {j}) has {x.size} joint points, need >= {MIN_PAIR_OBS_MI}")
            mi = 0.0
            if np.ptp(x) > 0.0 and np.ptp(y) > 0.0:
                joint, _, _ = np.histogram2d(x, y, bins=min(64, max(8, math.isqrt(x.size))))
                joint /= joint.sum()
                outer = np.outer(joint.sum(axis=1), joint.sum(axis=0))
                nonzero = joint > 0
                mi = max(0.0, float(np.sum(joint[nonzero] * np.log(joint[nonzero] / outer[nonzero]))))
            out[i, j] = out[j, i] = mi
    return out


def outcome(estimator, panel):
    """The estimator's weights, or the message of the DataError it raised."""
    try:
        result = estimator(panel)
    except DataError as exc:
        return str(exc)
    return result.weights if isinstance(result, AdjacencyMatrix) else result


def assert_matches_reference(panel):
    for estimator, reference in ((pearson_matrix, reference_pearson), (mi_matrix, reference_mi)):
        got, want = outcome(estimator, panel), outcome(reference, panel)
        if isinstance(want, str) or isinstance(got, str):
            assert got == want
        else:
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


@st.composite
def gapped_panels(draw):
    """Random walks plus noise, optionally rounded (repeated extremes), with random gaps."""
    n = draw(st.integers(2, 5))
    T = draw(st.integers(20, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(size=(n, T)).cumsum(axis=1) + rng.normal(size=(n, T))
    if draw(st.booleans()):
        values = np.round(values)
    if draw(st.booleans()):
        values[draw(st.integers(0, n - 1))] = 4.25
    mask = rng.uniform(size=(n, T)) >= draw(st.sampled_from([0.0, 0.02, 0.1, 0.4]))
    return make_panel(values, mask)


class TestEstimatorsMatchPairwiseReference:
    @settings(max_examples=60, deadline=None)
    @given(gapped_panels())
    def test_random_gaps(self, panel):
        assert_matches_reference(panel)

    def test_constant_series(self):
        rng = np.random.default_rng(31)
        values = rng.normal(size=(3, 80))
        values[1] = 3.0
        panel = make_panel(values)
        assert_matches_reference(panel)
        for estimator in (pearson_matrix, mi_matrix):
            w = estimator(panel).weights
            assert np.all(w[1] == 0.0) and np.all(w[:, 1] == 0.0)

    def test_constant_on_partner_cells_scores_exactly_zero(self):
        # the one-pass variance of series 0 on those cells rounds to 2e-16, not 0
        rng = np.random.default_rng(0)
        values = rng.normal(size=(3, 80))
        values[0, ::2] = rng.uniform(-3, 3)  # series 0 varies, but not on the cells series 1 observes
        mask = np.ones((3, 80), dtype=bool)
        mask[1, 1::2] = False
        panel = make_panel(values, mask)
        assert_matches_reference(panel)
        for estimator in (pearson_matrix, mi_matrix):
            w = estimator(panel).weights
            assert w[0, 1] == 0.0 and w[1, 0] == 0.0
            assert w[0, 2] != 0.0

    def test_partner_drops_minimum_or_maximum(self):
        rng = np.random.default_rng(33)
        values = rng.normal(size=(3, 90))
        mask = np.ones((3, 90), dtype=bool)
        mask[1, np.argmin(values[0])] = False
        mask[2, np.argmax(values[0])] = False
        assert_matches_reference(make_panel(values, mask))

    def test_joint_count_changes_bin_count(self):
        # 100 cells give 10 bins per marginal, the 99 joint cells 9
        rng = np.random.default_rng(34)
        values = rng.normal(size=(2, 100))
        mask = np.ones((2, 100), dtype=bool)
        mask[1, 50] = False
        panel = make_panel(values, mask)
        assert math.isqrt(100) != math.isqrt(99)
        assert_matches_reference(panel)

    @pytest.mark.parametrize("estimator", [pearson_matrix, mi_matrix])
    def test_too_few_joint_points_message(self, estimator):
        rng = np.random.default_rng(35)
        values = rng.normal(size=(3, 60))
        mask = np.ones((3, 60), dtype=bool)
        mask[1, :] = False
        mask[1, :40] = True
        mask[2, 20:] = False  # pair (1, 2) shares 20 cells, (2, 2) 20, (0, 2) 20
        mask[2, :18] = False  # ... now 2 each: below both minimums
        reference = reference_pearson if estimator is pearson_matrix else reference_mi
        with pytest.raises(DataError) as want:
            reference(make_panel(values, mask))
        with pytest.raises(DataError) as got:
            estimator(make_panel(values, mask))
        assert str(got.value) == str(want.value)
        assert "series pair (0, 2) has 2 joint points" in str(got.value)


def spanning_trees(n):
    """All spanning trees of K_n (fine for n=3)."""
    all_edges = list(itertools.combinations(range(n), 2))
    for combo in itertools.combinations(all_edges, n - 1):
        parent = list(range(n))

        def find(a):
            while parent[a] != a:
                a = parent[a]
            return a

        ok = True
        for i, j in combo:
            ri, rj = find(i), find(j)
            if ri == rj:
                ok = False
                break
            parent[ri] = rj
        if ok:
            yield combo


class TestSpanningTree:
    def test_two_series_single_edge(self):
        p = make_panel([[1.0, 2.0, 4.0, 3.0], [2.0, 3.0, 8.0, 7.0]])
        w = cst_matrix(pearson_matrix(p)).weights
        corr = pearson_matrix(p).weights[0, 1]
        assert w[0, 1] == pytest.approx(abs(corr))
        assert np.count_nonzero(w) == 2  # one undirected edge

    def test_three_series_brute_force(self):
        # distances D12=0.1, D13=0.5, D23=0.2 -> tree {1-2, 2-3}
        R = np.array([[1.0, 0.9, 0.5], [0.9, 1.0, 0.8], [0.5, 0.8, 1.0]])
        p = correlated_panel(R, T=24, seed=1)
        w = cst_matrix(pearson_matrix(p)).weights
        got = {(i, j) for i in range(3) for j in range(i + 1, 3) if w[i, j] != 0.0}

        corr = np.abs(pearson_matrix(p).weights)
        best = min(
            spanning_trees(3),
            key=lambda tree: sum(1.0 - corr[i, j] for i, j in tree),
        )
        assert got == set(best) == {(0, 1), (1, 2)}

    def test_identical_series_tie_rule(self):
        x = np.array([1.0, 3.0, 2.0, 5.0])
        p = make_panel([x, x.copy(), x.copy()])
        w = cst_matrix(pearson_matrix(p)).weights
        got = {(i, j) for i in range(3) for j in range(i + 1, 3) if w[i, j] != 0.0}
        assert got == {(0, 1), (0, 2)}  # lowest index pairs first

    def test_edge_count(self):
        panel = synth_generate(SynthSpec(n=7, T=200, seasonal_period=8), seed=2)
        w = cst_matrix(pearson_matrix(panel)).weights
        assert np.count_nonzero(np.triu(w)) == 6
        np.testing.assert_allclose(w, w.T)

    def test_single_series_rejected(self):
        with pytest.raises(DataError):
            cst_matrix(pearson_matrix(make_panel([[1.0, 2.0, 3.0]])))


class TestMutualInformation:
    def test_independent_noise_below_permutation_null(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(size=5000)
        y = rng.uniform(size=5000)
        mi = mi_matrix(make_panel([x * 3 + 1, y * 3 + 1])).weights[0, 1]

        null = []
        shuffler = np.random.default_rng(123)
        for _ in range(200):
            y_perm = shuffler.permutation(y)
            null.append(mi_matrix(make_panel([x * 3 + 1, y_perm * 3 + 1])).weights[0, 1])
        assert mi < np.quantile(null, 0.95)

    def test_identity_equals_histogram_entropy(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=400) + 10
        mi = mi_matrix(make_panel([x, x.copy()])).weights[0, 1]
        bins = min(64, max(8, math.isqrt(400)))
        counts, _ = np.histogram(x, bins=bins)
        probs = counts[counts > 0] / counts.sum()
        entropy = -float(np.sum(probs * np.log(probs)))
        assert mi == pytest.approx(entropy, rel=1e-12)

    def test_constant_series_zero(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=64) + 5
        w = mi_matrix(make_panel([x, np.full(64, 3.0)])).weights
        assert w[0, 1] == 0.0

    def test_symmetric_nonnegative(self):
        panel = synth_generate(SynthSpec(n=4, T=256, edges=((0, 2),), seasonal_period=8), seed=9)
        w = mi_matrix(panel).weights
        np.testing.assert_allclose(w, w.T, atol=1e-12)
        assert np.all(w >= 0)

    def test_too_few_observations(self):
        with pytest.raises(DataError, match="joint points"):
            mi_matrix(make_panel(np.random.default_rng(0).uniform(1, 2, (2, 20))))


def wide_mi_panel(seed=0, n=44, T=400):
    """Gapped random walks in which partners miss each other's extremes, plus a constant series.

    Series 0 and n-1 bracket the redo paths: every gapped series misses the
    cells holding the minimum or maximum of some other series, so pairs
    bin those series anew, and the last series is a partner of every row.
    """
    rng = np.random.default_rng(seed)
    values = np.round(rng.normal(size=(n, T)).cumsum(axis=1) + rng.normal(size=(n, T)), 1)
    values[n // 2] = 4.25  # constant
    mask = np.ones((n, T), dtype=bool)
    gapped = rng.choice(n, n // 3, replace=False)
    for i in gapped:
        mask[i, rng.choice(T, int(rng.integers(1, 40)), replace=False)] = False
        for j in rng.choice(n, 3, replace=False):
            mask[i, np.argmin(values[j]) if rng.uniform() < 0.5 else np.argmax(values[j])] = False
    mask[:, 7] = True  # every pair keeps some joint cells at the front
    mask[n - 1, rng.choice(T, 25, replace=False)] = False
    return make_panel(values, mask)


def tile_counts(panel, tile):
    """The ``TILE_COUNTS`` under which ``mi_matrix`` counts ``tile`` partners per tile of ``panel``."""
    observed = panel.mask.astype(np.float64)
    width = int(_bin_count(observed @ observed.T).max())
    return tile * width * width


def missing_everywhere_panel(seed=0, n=30, T=400):
    """Random walks in which every series misses 10% of its cells, so nearly every pair bins anew."""
    rng = np.random.default_rng(seed)
    values = np.round(rng.normal(size=(n, T)).cumsum(axis=1), 1)
    mask = np.ones((n, T), dtype=bool)
    for i in range(n):
        mask[i, rng.choice(T, T // 10, replace=False)] = False
    return make_panel(values, mask)


class TestMutualInformationCounts:
    """Tiles of partners count every pair, one ``bincount`` a tile; a missed cell lands past the tile's pairs."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_pair_matches_histogram_oracle(self, seed):
        panel = wide_mi_panel(seed)
        lo, hi = _joint_extremes(panel)
        own_lo, own_hi = lo.diagonal()[:, None], hi.diagonal()[:, None]
        rebinned = (lo != own_lo) | (hi != own_hi)
        assert panel.n >= 40 and (~panel.mask).any(axis=1).sum() >= 10
        assert rebinned[~panel.mask.all(axis=1)].any()  # gapped rows rebin partners that lost an extreme
        np.testing.assert_allclose(mi_matrix(panel).weights, reference_mi(panel), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize(
        "panel",
        [wide_mi_panel(0), wide_mi_panel(1), wide_mi_panel(2), missing_everywhere_panel()],
        ids=["wide0", "wide1", "wide2", "ten_percent_missing"],
    )
    def test_tile_width_changes_no_bit(self, panel, monkeypatch):
        # 1 and 3 partners split every row, 16 is the size on the benchmark's panel, n and more hold a row in one tile
        weights = []
        for tile in (1, 3, 16, panel.n, 2 * panel.n):
            monkeypatch.setattr(selection, "TILE_COUNTS", tile_counts(panel, tile))
            weights.append(mi_matrix(panel).weights)
        for other in weights[1:]:
            assert other.tobytes() == weights[0].tobytes()
        np.testing.assert_allclose(weights[0], reference_mi(panel), rtol=0.0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(gapped_panels())
    def test_random_gaps_in_tiles_of_two(self, panel):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(selection, "TILE_COUNTS", tile_counts(panel, 2))
            assert_matches_reference(panel)

    def test_missed_cell_of_a_row_binned_anew_lower(self):
        # series 0 takes three adjacent doubles: binned alone (64 bins) its least value lands in bin 16, binned
        # with series 1 (8 bins, its greatest value missed) in bin 4, so re-binning moves a cell down 12 bins.
        # The cells series 0 misses, which series 1 observes, must still fall outside every pair's table.
        a, ulp, T = 1e20, np.spacing(1e20), 4200
        rng = np.random.default_rng(42)
        x = a + ulp * rng.integers(0, 3, T)
        mask = np.ones((2, T), dtype=bool)
        mask[0, :100] = False
        mask[1] = False
        mask[1, :100] = True
        mask[1, np.flatnonzero(x < a + 2 * ulp)[200:264]] = True
        panel = make_panel([x, rng.normal(size=T)], mask)
        weights = mi_matrix(panel).weights
        assert weights[0, 1] > 0.01
        np.testing.assert_allclose(weights, reference_mi(panel), rtol=0.0, atol=1e-12)


def brute_force_extremes(panel):
    """lo, hi as the least and greatest of each pair's joint values."""
    n = panel.n
    lo, hi = np.full((n, n), np.nan), np.full((n, n), np.nan)
    for i in range(n):
        for j in range(n):
            joint = panel.values[i, panel.mask[i] & panel.mask[j]]
            if joint.size:
                lo[i, j], hi[i, j] = joint.min(), joint.max()
    return lo, hi


def assert_extremes_match_brute_force(panel):
    """On every pair with a joint cell, lo and hi equal the brute force's values (-0.0 equal to 0.0)."""
    lo, hi = _joint_extremes(panel)
    want_lo, want_hi = brute_force_extremes(panel)
    joint = _joint_counts(panel, 0) > 0
    np.testing.assert_array_equal(lo[joint], want_lo[joint])
    np.testing.assert_array_equal(hi[joint], want_hi[joint])
    return joint


@st.composite
def extreme_panels(draw):
    """Few distinct values (signed zeros among them) and gaps up to a series that misses all but one cell."""
    n = draw(st.integers(2, 9))
    T = draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        values = rng.choice([-1.5, -0.0, 0.0, 2.0, 3.25], size=(n, T))
    else:
        values = rng.normal(size=(n, T))
    mask = rng.uniform(size=(n, T)) >= draw(st.sampled_from([0.0, 0.05, 0.3, 0.7]))
    if draw(st.booleans()):
        sparse = draw(st.integers(0, n - 1))
        mask[sparse] = False
        mask[sparse, draw(st.integers(0, T - 1))] = True
    return make_panel(values, mask)


def zero_extremes_panel():
    """Series whose least or greatest values are signed zeros, long enough for MI's 32 joint cells."""
    rng = np.random.default_rng(40)
    values = np.stack([rng.choice(choices, 48) for choices in ([-0.0, 0.0, 1.0, 2.0], [-2.0, -1.0, -0.0, 0.0],
                                                               [-0.0, 0.0], [-1.0, -0.0, 0.0, 1.0])])
    mask = rng.uniform(size=values.shape) >= 0.05
    return make_panel(values, mask)


class TestJointExtremes:
    """Each series' 8 least keys are searched at once; a partner missing them takes the least on its own cells."""

    @settings(max_examples=150, deadline=None)
    @given(extreme_panels())
    def test_equals_stable_sort_of_joint_cells(self, panel):
        assert_extremes_match_brute_force(panel)

    def test_ties_at_the_prefix_boundary(self):
        # x's eight least values, the ranked prefix, are its five negative values and the zeros
        # of cells 0-2, tied with nine more zeros. A partner missing the negative values and
        # cells 0-1 observes the prefix's last cell first; one missing cells 2-3 too observes
        # none of the prefix and takes a zero from the rest. -x[::-1] mirrors both for hi.
        x = np.concatenate(([-0.0, 0.0, -0.0, 0.0, -0.0], [0.0] * 7, np.arange(-5.0, 0.0), np.arange(1.0, 14.0)))
        near, far, full = np.ones(30, dtype=bool), np.ones(30, dtype=bool), np.ones(30, dtype=bool)
        near[[0, 1, 12, 13, 14, 15, 16]] = False
        far[[0, 1, 2, 3, 12, 13, 14, 15, 16]] = False
        panel = make_panel([x, x, x, -x[::-1], x, x], [full, near, far, full, near[::-1], far[::-1]])
        assert assert_extremes_match_brute_force(panel).all()
        lo, hi = _joint_extremes(panel)
        assert lo[0, 1] == lo[0, 2] == hi[3, 4] == hi[3, 5] == 0.0

    def test_partners_missing_the_prefix_take_the_least_on_their_cells(self):
        # two series observe one cell each, so as partners they miss every ranked cell of
        # most series, and as series their prefix holds cells they miss
        rng = np.random.default_rng(36)
        values = np.round(rng.normal(size=(12, 40)), 1)
        mask = rng.uniform(size=(12, 40)) > 0.2
        for sparse, cell in ((4, 39), (7, 0)):
            mask[sparse] = False
            mask[sparse, cell] = True
        assert not assert_extremes_match_brute_force(make_panel(values, mask)).all()

    def test_late_starts_on_a_trend(self):
        # rising series hold their least values first, so a partner that starts late misses
        # every one of a series' 8 least cells: most pairs with a gapped partner take the fallback
        rng = np.random.default_rng(41)
        n, T = 12, 200
        values = np.arange(T) * 0.5 + rng.normal(size=(n, T))
        mask = np.ones((n, T), dtype=bool)
        for i in range(0, n, 2):
            mask[i, : 10 + 15 * i] = False
        panel = make_panel(values, mask)
        least = np.argsort(np.where(mask, values, np.inf), axis=1)[:, :8]
        past = ~mask[~mask.all(axis=1)][:, least].any(axis=2)  # past[j, i]: gapped partner j misses i's 8 least
        assert past.mean() > 0.5
        assert assert_extremes_match_brute_force(panel).all()

    @settings(max_examples=150, deadline=None)
    @given(extreme_panels())
    @example(zero_extremes_panel())
    def test_sign_of_a_zero_extreme_reaches_no_output(self, panel):
        # of equal joint extremes, which is taken, -0.0 or 0.0, changes no bit of Pearson or MI
        lo, hi = _joint_extremes(panel)
        flipped = tuple(np.where(e == 0.0, -e, e) for e in (lo, hi))
        for estimator in (pearson_matrix, mi_matrix):
            want = outcome(lambda p: estimator(p, (lo, hi)), panel)
            got = outcome(lambda p: estimator(p, flipped), panel)
            assert type(got) is type(want)
            assert got == want if isinstance(want, str) else got.tobytes() == want.tobytes()


class TestMutualInformationMarginals:
    """Each path to a pair's marginal term matches the histogram oracle."""

    def panel(self, missed):
        """Series 0 fully observed, series 1 missing ``missed`` cells; 110 cells keep 10 bins at 105."""
        rng = np.random.default_rng(37)
        values = rng.normal(size=(2, 110))
        mask = np.ones((2, 110), dtype=bool)
        mask[1, missed(values)] = False
        return make_panel(values, mask)

    def paths(self, panel):
        lo, hi = _joint_extremes(panel)
        counts = _joint_counts(panel, 0)
        covered = counts == counts.diagonal()[:, None]
        bins = np.clip(np.sqrt(counts).astype(int), 8, 64)  # max(8, floor(sqrt(N))), capped at 64
        own = (lo == lo.diagonal()[:, None]) & (hi == hi.diagonal()[:, None]) & (bins == bins.diagonal()[:, None])
        return covered, own

    def test_covered(self):
        # series 0 observes every cell of series 1: its marginal is series 1's own histogram
        panel = self.panel(lambda v: [20, 40, 60])
        covered, _ = self.paths(panel)
        assert covered[1, 0]
        assert_matches_reference(panel)

    def test_uncovered_but_own_binned(self):
        # series 1 misses middle cells of series 0: own histogram less the missed cells' codes
        panel = self.panel(lambda v: np.argsort(v[0])[50:55])
        covered, own = self.paths(panel)
        assert not covered[0, 1] and own[0, 1]
        assert_matches_reference(panel)

    def test_uncovered_and_rebinned_in_the_row(self):
        # series 1 misses the minimum of series 0, the row series: x is binned anew
        panel = self.panel(lambda v: [np.argmin(v[0])])
        covered, own = self.paths(panel)
        assert not covered[0, 1] and not own[0, 1]
        assert_matches_reference(panel)

    def test_uncovered_and_rebinned_in_the_partner(self):
        # series 0 misses the minimum of series 1, the partner: y is binned anew
        rng = np.random.default_rng(38)
        values = rng.normal(size=(2, 110))
        mask = np.ones((2, 110), dtype=bool)
        mask[0, np.argmin(values[1])] = False
        mask[0, np.argsort(values[1])[40:44]] = False
        panel = make_panel(values, mask)
        covered, own = self.paths(panel)
        assert not covered[1, 0] and not own[1, 0]
        assert_matches_reference(panel)


class TestBinCodes:
    @settings(max_examples=200, deadline=None)
    @given(st.floats(-1e3, 1e3), st.floats(1e-6, 1e3), st.integers(8, 64))
    def test_histogram_rule_on_and_beside_every_edge(self, lo, width, bins):
        hi = lo + width
        edges = np.linspace(lo, hi, bins + 1)
        values = np.clip(np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)]), lo, hi)
        want = np.searchsorted(edges, values, side="right") - 1
        want[values == hi] = bins - 1  # np.histogram2d closes the top bin
        got = _bin_codes(values[None], np.array([lo]), np.array([hi]), np.array([bins]))[0]
        np.testing.assert_array_equal(got, want)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(0.0, 1e3), st.integers(8, 64)), min_size=2, max_size=6))
    @example([(1000.0, 5e-13, 64), (-3.0, 7.0, 9)])  # steps far below an ulp of lo: guesses many bins off
    @example([(0.0, 0.0, 8), (0.0, 5e-324, 8)])  # a step that underflows to 0: linspace repeats edges
    def test_rows_binned_their_own_way(self, rows):
        # each row has its own edges, bin count and stride into the edge table; values lie on,
        # beside and beyond the edges, and a row with lo == hi puts everything in bin 0
        lo, width, bins = (np.array(column) for column in zip(*rows))
        hi = lo + width
        edges = [np.linspace(a, b, k + 1) for a, b, k in zip(lo, hi, bins)]
        values = []
        for e in edges:
            row = np.concatenate([e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf), [e[0] - 1.0, e[-1] + 1.0]])
            values.append(np.resize(row, 3 * 65 + 2))  # repeated to a common length
        values = np.stack(values)
        want = [np.clip(np.searchsorted(e, v, side="right") - 1, 0, k - 1) if b > a else np.zeros(v.size, dtype=int)
                for e, v, a, b, k in zip(edges, values, lo, hi, bins)]
        np.testing.assert_array_equal(_bin_codes(values, lo, hi, bins), np.stack(want))


class TestAggregate:
    def adj(self, weights, kind="CM"):
        w = np.asarray(weights, dtype=np.float64)
        return AdjacencyMatrix(w.shape[0], w, kind)

    def test_mean_of_identical_inputs(self):
        rng = np.random.default_rng(3)
        w = np.abs(rng.normal(size=(4, 4)))
        np.fill_diagonal(w, 0.0)
        w = (w + w.T) / 2
        one = aggregate([self.adj(w)]).weights
        three = aggregate([self.adj(w), self.adj(w, "CST"), self.adj(w, "MI")]).weights
        np.testing.assert_allclose(three, one, atol=1e-15)

    def test_already_normalized_fixed_point(self):
        w = np.array([[0.0, 0.0, 0.5], [0.0, 0.0, 1.0], [0.5, 1.0, 0.0]])
        out = aggregate([self.adj(w)]).weights
        np.testing.assert_allclose(out, w)

    def test_hand_computed_cell(self):
        a = np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        b = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [3.0, 2.0, 0.0]])
        out = aggregate([self.adj(a), self.adj(b, "MI")]).weights
        # cell (0, 2): a scales to (2-0)/(2-0)=1, b scales to (3-1)/(3-1)=1 -> mean 1
        assert out[0, 2] == pytest.approx(1.0)
        # cell (0, 1): a -> 0, b -> (1-1)/2 = 0 -> mean 0
        assert out[0, 1] == pytest.approx(0.0)

    def test_constant_matrix_contributes_zero(self):
        const = np.full((3, 3), 0.7)
        varied = np.array([[0.0, 0.2, 0.8], [0.2, 0.0, 0.4], [0.8, 0.4, 0.0]])
        out = aggregate([self.adj(const), self.adj(varied, "MI")]).weights
        expected = aggregate([self.adj(varied, "MI")]).weights / 2.0
        np.testing.assert_allclose(out, expected)


class TestShortlist:
    def adj(self, weights):
        w = np.asarray(weights, dtype=np.float64)
        return AdjacencyMatrix(w.shape[0], w, "aggregated")

    def test_ceiling_saturates(self):
        rng = np.random.default_rng(1)
        w = np.abs(rng.normal(size=(4, 4)))
        lists = shortlist(self.adj(w), S=2)
        for target, ids in lists.items():
            assert len(ids) == 3 and target not in ids

    def test_descending_order(self):
        w = np.array(
            [
                [0.0, 0.3, 0.9, 0.5],
                [0.3, 0.0, 0.1, 0.2],
                [0.9, 0.1, 0.0, 0.4],
                [0.5, 0.2, 0.4, 0.0],
            ]
        )
        lists = shortlist(self.adj(w), S=2)
        assert lists[0] == (2, 3, 1)

    def test_tie_rule_lowest_ids(self):
        w = np.ones((5, 5))
        lists = shortlist(self.adj(w), S=2)
        assert lists[0] == (1, 2, 3)
        assert lists[4] == (0, 1, 2)

    def test_s_too_large(self):
        with pytest.raises(DataError):
            shortlist(self.adj(np.ones((4, 4))), S=3)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(3, 9).flatmap(lambda n: st.tuples(
        st.lists(st.integers(0, 3), min_size=n * n, max_size=n * n).map(lambda w: np.reshape(w, (n, n))),
        st.integers(1, 2 * (n - 1) // 3),  # ceil(1.5·S) <= n - 1
    )))
    def test_equals_sort_key_definition(self, case):
        weights, S = case
        n = weights.shape[0]
        want = {
            target: tuple(sorted((j for j in range(n) if j != target), key=lambda j: (-weights[target, j], j))[
                : math.ceil(1.5 * S)
            ])
            for target in range(n)
        }
        assert shortlist(self.adj(weights), S) == want


def oracle_granger_p(y, x, maxlag):
    """Independent two-lstsq-fit F-test oracle."""
    from scipy import stats

    T = y.size
    rows = T - maxlag
    restricted = np.column_stack(
        [np.ones(rows)] + [y[maxlag - l : T - l] for l in range(1, maxlag + 1)]
    )
    augmented = np.column_stack(
        [restricted] + [x[maxlag - l : T - l] for l in range(1, maxlag + 1)]
    )
    target = y[maxlag:]
    rss_r = float(np.sum((target - restricted @ np.linalg.lstsq(restricted, target, rcond=None)[0]) ** 2))
    rss_a = float(np.sum((target - augmented @ np.linalg.lstsq(augmented, target, rcond=None)[0]) ** 2))
    dof = rows - 2 * maxlag - 1
    f_stat = ((rss_r - rss_a) / maxlag) / (rss_a / dof)
    return float(stats.f.sf(f_stat, maxlag, dof))


def pair_pvalue(y, x, maxlag):
    """p-value of x for y from granger_rank on the two-series panel [y, x]."""
    return granger_rank(make_panel([y, x]), {0: (1,)}, maxlag, S=1).p_values[0, 1]


class TestGranger:
    def lagged_pair(self, seed, T=2000, noise=0.01):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=T + 1)
        y = x[:-1] + noise * rng.normal(size=T)
        return y + 10.0, x[1:] + 10.0

    def test_lagged_driver_detected(self):
        y, x = self.lagged_pair(seed=13)
        p = pair_pvalue(y, x, maxlag=4)
        assert p < 1e-6
        assert p == pytest.approx(oracle_granger_p(y, x, 4), rel=1e-8, abs=1e-300)

    def test_matches_oracle_on_weak_coupling(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=500)
        y = 0.05 * np.roll(x, 1) + rng.normal(size=500)
        y[0] = 0.0
        p_mine = pair_pvalue(y + 5, x + 5, maxlag=3)
        p_oracle = oracle_granger_p(y + 5, x + 5, 3)
        assert p_mine == pytest.approx(p_oracle, rel=1e-9)

    def test_independent_candidate_null_behavior(self):
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(3000 + seed)
            y = rng.normal(size=300) + 10
            x = rng.normal(size=300) + 10
            if pair_pvalue(y, x, maxlag=4) > 0.001:
                hits += 1
        assert hits >= 90

    def test_self_lagged_candidate_near_zero_p(self):
        # AR process at lag 5: the candidate (target shifted by one) supplies
        # the missing fifth lag, so its contribution is decisive even though
        # three of its lag rows duplicate the restricted design's (a Gram
        # singular up to rounding).
        rng = np.random.default_rng(17)
        y = np.zeros(1200)
        noise = rng.normal(size=1200)
        for t in range(5, 1200):
            y[t] = 0.9 * y[t - 5] + noise[t]
        y = y[200:] + 50.0
        x = np.roll(y, 1)
        p = pair_pvalue(y[1:], x[1:], maxlag=4)
        assert p < 1e-10

    def test_rank_selects_driver_first(self):
        y, x = self.lagged_pair(seed=13)
        rng = np.random.default_rng(99)
        noise1 = rng.normal(size=y.size) + 10
        noise2 = rng.normal(size=y.size) + 10
        panel = make_panel([y, x, noise1, noise2])
        result = granger_rank(panel, {0: (1, 2, 3)}, maxlag=4, S=2)
        assert result.per_target[0][0] == 1
        assert result.tests_performed == 3

    def test_run_too_short(self):
        panel = make_panel(np.random.default_rng(0).uniform(1, 2, (2, 30)))
        with pytest.raises(DataError, match="too short"):
            granger_rank(panel, {0: (1,)}, maxlag=4, S=1)


class TestFSurvival:
    # the F-test p-value without scipy: scipy.special.betainc is the reference
    MAXLAGS = range(1, 9)
    DOFS = (11, 12, 13, 20, 31, 64, 99, 128, 129, 500, 1001, 1987, 2000, 5003, 9999, 10000, 19999, 20000)
    F = np.logspace(-9, 3, 241)

    def test_matches_scipy_betainc_on_a_grid(self):
        special = pytest.importorskip("scipy.special")
        for maxlag, dof in itertools.product(self.MAXLAGS, self.DOFS):
            d = np.full(self.F.size, float(dof))
            got = _f_survival(self.F, d, maxlag)
            want = special.betainc(d / 2.0, maxlag / 2.0, d / (d + maxlag * self.F))
            where = f"maxlag={maxlag}, dof={dof}"
            normal = want >= 1e-290
            np.testing.assert_allclose(got[normal], want[normal], rtol=1e-10, atol=0.0, err_msg=where)
            np.testing.assert_array_equal(got == 1.0, want == 1.0, err_msg=where)
            # both are 0 where scipy is, except where scipy underflows early: it gives 0 from about
            # 1e-311 down on some grid lines, while this keeps every subnormal p-value
            assert np.all(want[got == 0.0] == 0.0), where
            assert np.all(got[want == 0.0] < np.finfo(np.float64).tiny), where

    def test_mixed_dofs_in_one_call(self):
        # each entry takes its own log-beta and side of the mean, and converges on its own
        special = pytest.importorskip("scipy.special")
        rng = np.random.default_rng(4)
        dof = rng.choice(self.DOFS, 500).astype(np.float64)
        f = np.exp(rng.uniform(-5, 5, 500))
        want = special.betainc(dof / 2.0, 1.5, dof / (dof + 3 * f))
        np.testing.assert_allclose(_f_survival(f, dof, 3), want, rtol=1e-10, atol=0.0)

    def test_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(selection, "FRACTION_STEPS", 2)
        with pytest.raises(DataError, match="did not converge in 2 steps"):
            _f_survival(np.array([1.0]), np.array([2000.0]), 1)


def brute_force_run(both):
    """The first longest stretch of True cells, by a plain scan."""
    best_lo = best_hi = 0
    t = 0
    while t < both.size:
        if both[t]:
            lo = t
            while t < both.size and both[t]:
                t += 1
            if t - lo > best_hi - best_lo:
                best_lo, best_hi = lo, t
        else:
            t += 1
    return best_lo, best_hi


class TestGrangerOnJointRuns:
    def gapped_panel(self):
        """Target 0's candidates share its longest joint run only in part; candidate 5 is constant."""
        rng = np.random.default_rng(44)
        T = 360
        values = rng.normal(size=(6, T)).cumsum(axis=1) + 40.0
        values[0, 1:] += 0.6 * values[1, :-1]
        values[5] = 7.5
        mask = np.ones((6, T), dtype=bool)
        mask[0, 300] = False  # the target's own gap
        mask[2, 120] = False  # a run that ends earlier
        mask[3, 200:203] = False  # a run in the middle
        mask[4, 40] = False
        return make_panel(values, mask), mask, values

    def test_p_values_match_oracle_on_each_run(self, caplog):
        panel, mask, values = self.gapped_panel()
        with caplog.at_level(logging.WARNING, logger="contextrnn.selection"):
            result = granger_rank(panel, {0: (1, 2, 3, 4, 5), 3: (0, 5)}, maxlag=3, S=2)
        runs = {cand: brute_force_run(mask[0] & mask[cand]) for cand in range(1, 6)}
        assert len(set(runs.values())) >= 3
        for target, cands in ((0, (1, 2, 3, 4, 5)), (3, (0, 5))):
            for cand in cands:
                lo, hi = brute_force_run(mask[target] & mask[cand])
                want = oracle_granger_p(values[target, lo:hi], values[cand, lo:hi], 3)
                assert result.p_values[target, cand] == pytest.approx(want, rel=1e-9)
        assert result.tests_performed == 7
        assert "singular Granger regression" in caplog.text  # the constant candidate's lags are collinear

    def test_maxlag_below_one(self):
        panel = make_panel(np.random.default_rng(0).uniform(1, 2, (2, 60)))
        with pytest.raises(DataError, match="maxlag"):
            granger_rank(panel, {0: (1,)}, maxlag=0, S=1)


def joint_run(panel):
    (run,) = _longest_joint_runs(panel.mask, [(0, 1)])
    return run


class TestLongestJointRun:
    @pytest.mark.parametrize(
        "mask",
        [
            np.ones(12, dtype=bool),
            np.zeros(12, dtype=bool),
            np.array([1, 1, 0, 1, 1, 0, 1, 1], dtype=bool),  # three tied runs: the first wins
            np.array([0, 1, 1, 1, 0, 0, 1, 1, 1], dtype=bool),
            np.array([1], dtype=bool),
            np.array([0, 0, 1], dtype=bool),
        ],
    )
    def test_edge_cases(self, mask):
        panel = make_panel(np.ones((2, mask.size)), np.stack([mask, np.ones_like(mask)]))
        assert joint_run(panel) == brute_force_run(mask)

    def test_random_masks_match_scan(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            T = int(rng.integers(1, 60))
            masks = rng.uniform(size=(2, T)) < rng.uniform(0.2, 0.95)
            panel = make_panel(np.ones((2, T)), masks)
            assert joint_run(panel) == brute_force_run(masks[0] & masks[1])

    def test_many_pairs_in_blocks(self):
        # 30 pairs go n = 6 at a time, in order of the cells either series misses, and one
        # series missing most cells makes the batches' widths differ
        rng = np.random.default_rng(43)
        masks = rng.uniform(size=(6, 50)) < rng.uniform(0.3, 0.98, size=(6, 1))
        masks[5, 3:] = False
        pairs = list(itertools.permutations(range(6), 2))
        for (i, j), run in zip(pairs, _longest_joint_runs(masks, pairs), strict=True):
            assert run == brute_force_run(masks[i] & masks[j])


class TestGrangerRankReusesRestrictedFit:
    def test_p_values_equal_single_pair_tests(self):
        # candidates share the target's longest run in pairs, so the
        # restricted fit is reused for some and solved anew for others
        rng = np.random.default_rng(42)
        values = rng.normal(size=(5, 400)).cumsum(axis=1) + 50.0
        values[1, 1:] += 0.8 * values[0, :-1]
        mask = np.ones((5, 400), dtype=bool)
        mask[2, 150] = False
        mask[3, 150] = False
        mask[4, 300] = False
        panel = make_panel(values, mask)
        result = granger_rank(panel, {0: (1, 2, 3, 4), 1: (0, 2, 3, 4)}, maxlag=3, S=2)
        for target in (0, 1):
            for cand in range(5):
                if cand == target:
                    continue
                keep = mask[target] & mask[cand]
                lo, hi = brute_force_run(keep)
                want = pair_pvalue(values[target, lo:hi], values[cand, lo:hi], maxlag=3)
                assert result.p_values[target, cand] == want

    def test_a_candidate_on_two_runs(self):
        # candidate 4 is shortlisted by targets 0 and 2, on runs [0, 300) and [0, 150):
        # its lag Gram is one per run; candidates 3 and 1 test on [0, 400) and [151, 400)
        rng = np.random.default_rng(45)
        values = rng.normal(size=(5, 400)).cumsum(axis=1) + 50.0
        values[0, 1:] += 0.8 * values[4, :-1]
        mask = np.ones((5, 400), dtype=bool)
        mask[2, 150] = False
        mask[4, 300] = False
        panel = make_panel(values, mask)
        candidates = {0: (4, 3, 1), 2: (4, 3, 1)}
        result = granger_rank(panel, candidates, maxlag=3, S=2)
        runs = {target: brute_force_run(mask[target] & mask[4]) for target in candidates}
        assert runs == {0: (0, 300), 2: (0, 150)}
        for target, cands in candidates.items():
            for cand in cands:
                lo, hi = brute_force_run(mask[target] & mask[cand])
                want = pair_pvalue(values[target, lo:hi], values[cand, lo:hi], maxlag=3)
                assert result.p_values[target, cand] == want
        assert result.per_target[0][0] == 4


class TestGrangerStackedSolve:
    def test_singular_fit_falls_back_alone(self, caplog):
        # the constant candidate 3 makes one Gram in each target's stack singular; the
        # stack is then solved fit by fit, and only that fit takes the ridge
        rng = np.random.default_rng(46)
        values = rng.normal(size=(5, 300)).cumsum(axis=1) + 30.0
        values[0, 1:] += 0.7 * values[1, :-1]
        values[3] = 2.5
        panel = make_panel(values)
        candidates = {0: (1, 2, 3, 4), 1: (0, 3, 2, 4)}
        with caplog.at_level(logging.WARNING, logger="contextrnn.selection"):
            result = granger_rank(panel, candidates, maxlag=3, S=2)
        singular = [r for r in caplog.records if "singular Granger regression" in r.getMessage()]
        assert len(singular) == 2  # one per singular fit
        for target, cands in candidates.items():
            for cand in cands:
                assert result.p_values[target, cand] == pair_pvalue(values[target], values[cand], maxlag=3)
        assert result.per_target[0][0] == 1


class TestGrangerNearOverflow:
    """Lag Grams of a series near 1e307 overflow unless the series is scaled first."""

    def panel(self):
        spec = SynthSpec(n=6, T=200, edges=((0, 1),), coupling=1e306, lag=1, noise_sigma=0.1, seasonal_period=24)
        return synth_generate(spec, seed=0)

    def test_true_driver_ranks_first(self, caplog):
        panel = self.panel()
        assert np.abs(panel.values[1]).max() > 1e306
        with warnings.catch_warnings(), caplog.at_level(logging.WARNING, logger="contextrnn.selection"):
            warnings.simplefilter("error")
            result = granger_rank(panel, {1: (0, 2, 3)}, 4, 2)
        assert result.per_target[1][0] == 0 and result.p_values[1, 0] < 1e-3
        assert "singular" not in caplog.text

    def test_equals_the_panel_scaled_by_a_power_of_two(self):
        panel = self.panel()
        scaled = make_panel(panel.values * 2.0**-1000)
        p = granger_rank(panel, {1: (0, 2, 3), 2: (0, 1, 3)}, 4, 2).p_values
        p_scaled = granger_rank(scaled, {1: (0, 2, 3), 2: (0, 1, 3)}, 4, 2).p_values
        tested = ~np.isnan(p)
        assert tested.sum() == 6
        np.testing.assert_allclose(p[tested], p_scaled[tested], rtol=1e-12, atol=0.0)


class TestScaledSeries:
    """Pearson and MI scale a series beyond 2**±SCALE_EXPONENT by a power of two, as Granger does."""

    def pair_panel(self, scale=1.0):
        rng = np.random.default_rng(0)
        x = rng.normal(0.0, 30.0, 500)
        values = np.stack([x, 2.0 * x + rng.normal(0.0, 0.5, 500), rng.normal(0.0, 30.0, 500)])
        values[1] *= scale
        return make_panel(values)

    def test_pearson_of_a_series_scaled_by_1e150(self):
        # the centred squares of the scaled series overflowed, and the pair scored 0
        want = pearson_matrix(self.pair_panel()).weights
        assert want[0, 1] > 0.9999
        np.testing.assert_allclose(pearson_matrix(self.pair_panel(1e150)).weights, want, rtol=1e-12, atol=0.0)

    def test_mi_of_a_series_spanning_the_float_range(self):
        # the range of series 2 overflowed to inf, and binning raised IndexError
        values = self.pair_panel().values.copy()
        values[2, 5], values[2, 9] = -1.5e308, 1.5e308
        scaled = np.ldexp(values, np.array([[0], [0], [-1024]]))
        assert mi_matrix(make_panel(values)).weights.tobytes() == mi_matrix(make_panel(scaled)).weights.tobytes()


class TestBuildContextMap:
    def star_panel(self, seed=0, n=6, T=600):
        edges = tuple((0, j) for j in range(1, n))
        return synth_generate(
            SynthSpec(n=n, T=T, edges=edges, coupling=1.5, lag=1, noise_sigma=0.4, seasonal_period=12),
            seed=seed,
        )

    def test_star_driver_in_global_batch(self):
        panel = self.star_panel(seed=11)
        cm = build_context_map(panel, S=2, K=3)
        assert 0 in cm.global_batch
        # frequency-count oracle: global batch = most frequently selected ids
        counts = {}
        for ids in cm.per_target.values():
            for i in ids:
                counts[i] = counts.get(i, 0) + 1
        if counts:
            top = max(counts.values())
            busiest = {i for i, c in counts.items() if c == top}
            assert busiest & set(cm.global_batch)

    def test_k_equals_n_saturates(self):
        panel = self.star_panel(seed=5, n=4, T=400)
        cm = build_context_map(panel, S=2, K=4)
        assert sorted(cm.global_batch) == [0, 1, 2, 3]

    def test_predefined_roundtrip(self):
        cm = ContextMap({0: (1, 2), 1: (0, 2), 2: (0, 1)}, (0, 2), S=2, K=2)
        buf = io.StringIO()
        write_context_map(cm, buf)
        panel = self.star_panel(seed=5, n=4, T=400)
        echoed = build_context_map(panel, S=2, K=2, mode="predefined", predefined_path=io.StringIO(buf.getvalue()))
        assert echoed.per_target == cm.per_target
        assert echoed.global_batch == cm.global_batch

    def test_predefined_unknown_ids(self):
        cm = ContextMap({0: (1, 9)}, (0,), S=2, K=1)
        buf = io.StringIO()
        write_context_map(cm, buf)
        panel = self.star_panel(seed=5, n=4, T=400)
        with pytest.raises(DataError, match="unknown series"):
            build_context_map(panel, S=2, K=1, mode="predefined", predefined_path=io.StringIO(buf.getvalue()))

    def test_deterministic(self):
        panel = self.star_panel(seed=8)
        a = build_context_map(panel, S=2, K=3)
        b = build_context_map(panel, S=2, K=3)
        assert a == b


class TestSelectionMemory:
    def test_peak_of_one_selection(self):
        # the 200 × 2000 shape of the benchmark's select panel, 40 series each missing 20 cells
        rng = np.random.default_rng(0)
        n, T = 200, 2000
        values = rng.normal(size=(n, T)).cumsum(axis=1) + rng.normal(size=(n, T))
        mask = np.ones((n, T), dtype=bool)
        for i in rng.choice(n, 40, replace=False):
            mask[i, rng.choice(T, 20, replace=False)] = False
        panel = make_panel(values, mask)
        tracemalloc.start()
        try:
            build_context_map(panel, S=5, K=15)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # MI counting each row in one n-wide buffer peaked at 21.2 MiB here, and at 18.3 MiB in
        # cache-sized tiles of partners with n×T intp codes and cells. With uint8 codes, blocks of
        # rows and Pearson squaring in place, the peak is 8.66 MiB; the bound adds about 10%.
        assert peak < 9.5 * 2**20


class TestScaleInvariance:
    def test_positive_scaling_changes_nothing(self):
        panel = synth_generate(
            SynthSpec(n=5, T=400, edges=((0, 1), (0, 2)), noise_sigma=0.3, seasonal_period=8), seed=14
        )
        scaled_values = panel.values.copy()
        scaled_values[1] *= 37.5
        scaled = make_panel(scaled_values)

        np.testing.assert_allclose(
            pearson_matrix(panel).weights, pearson_matrix(scaled).weights, atol=1e-12
        )
        np.testing.assert_allclose(mi_matrix(panel).weights, mi_matrix(scaled).weights, atol=1e-9)

        agg = aggregate(
            [
                AdjacencyMatrix(5, np.abs(pearson_matrix(panel).weights), "CM"),
                cst_matrix(pearson_matrix(panel)),
                mi_matrix(panel),
            ]
        )
        lists = shortlist(agg, S=2)
        agg_s = aggregate(
            [
                AdjacencyMatrix(5, np.abs(pearson_matrix(scaled).weights), "CM"),
                cst_matrix(pearson_matrix(scaled)),
                mi_matrix(scaled),
            ]
        )
        assert shortlist(agg_s, S=2) == lists

        r = granger_rank(panel, lists, maxlag=3, S=2, aggregated=agg)
        r_s = granger_rank(scaled, lists, maxlag=3, S=2, aggregated=agg_s)
        mask = ~np.isnan(r.p_values)
        np.testing.assert_allclose(r.p_values[mask], r_s.p_values[mask], rtol=1e-6)
