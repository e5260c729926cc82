"""Data-driven context-series selection, on numpy alone.

Three relevance matrices (Pearson correlation, correlation spanning tree,
histogram mutual information) are min-max normalized and averaged; the top
ceil(1.5·S) candidates per target then go through pairwise Granger F-tests,
and the S lowest p-values win: N·ceil(1.5·S) Granger tests instead of N².

All estimators use pairwise-complete observations and fixed tie rules, so
the whole pipeline is deterministic given the panel. Pearson and MI score
every pair with array arithmetic, at O(n²·T) cost in BLAS products and
``bincount`` rather than one Python call per pair: Pearson as masked
matrix products, MI by counting ``uint8`` equal-width bin codes, one
``bincount`` per tile of partners, a tile small enough that its cells and
counts stay in cache. Joint-cell counts, joint extremes and the Pearson
matrix (which the spanning tree is built from) are each computed once.
Beside the panel and n×n matrices, no step holds more than two n×T arrays
of 8-byte numbers.

What does not depend on the partner is computed once, and a per-pair
correction costs the cells the partner misses, not the cells the pair
holds. Only a pair whose partner misses cells searches for its extremes,
among the series' 8 least and 8 greatest values; the MI marginal
histograms and Granger's joint runs start from missed cells; and a
candidate's lag Gram is built once per joint run, whichever targets
test it. A target's Granger fits are solved as one stack, and a continued
fraction turns F statistics into p-values; the shortlist is one ``argsort``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .data import DataError, SeriesPanel, opened, read_lines

logger = logging.getLogger(__name__)

__all__ = [
    "SELECTION_MODES",
    "AdjacencyMatrix",
    "ContextMap",
    "GrangerResult",
    "pearson_matrix",
    "cst_matrix",
    "mi_matrix",
    "aggregate",
    "shortlist",
    "granger_rank",
    "build_context_map",
    "write_context_map",
    "read_context_map",
]

#: how ``build_context_map`` picks contexts: from the data, or as a given map file says
SELECTION_MODES = ("data_driven", "predefined")

#: ridge jitter added to normal equations when a Granger regression is singular
RIDGE = 1e-8

#: a series whose largest magnitude lies beyond 2**±SCALE_EXPONENT is scaled to about 1 for every estimator
SCALE_EXPONENT = 100

MIN_PAIR_OBS_CORR = 3
MIN_PAIR_OBS_MI = 32
#: a Granger test needs a joint run longer than RUN_CELLS_PER_LAG·maxlag cells
RUN_CELLS_PER_LAG = 10

#: continued-fraction steps after which an F-test p-value that has not converged raises
FRACTION_STEPS = 1000

#: joint-histogram counts per MI tile: 2**15 int64 counts are 256 KiB, so a tile's cells and counts stay in cache
TILE_COUNTS = 1 << 15


@dataclass(frozen=True)
class AdjacencyMatrix:
    """n×n relevance weights; ``kind`` records which estimator produced them."""

    n: int
    weights: np.ndarray
    kind: str

    def __post_init__(self):
        if self.weights.shape != (self.n, self.n):
            raise DataError("adjacency matrix shape mismatch")


@dataclass(frozen=True)
class ContextMap:
    """Ranked context ids per target plus the global K-series context batch."""

    per_target: dict[int, tuple[int, ...]]
    global_batch: tuple[int, ...]
    S: int
    K: int

    def __post_init__(self):
        for target, ids in self.per_target.items():
            if len(ids) != self.S or len(set(ids)) != self.S or target in ids:
                raise DataError(f"bad context list for target {target}")
        if len(self.global_batch) != self.K or len(set(self.global_batch)) != self.K:
            raise DataError("global batch must hold K distinct ids")


@dataclass(frozen=True)
class GrangerResult:
    p_values: np.ndarray  # n×n, NaN where untested
    per_target: dict[int, tuple[int, ...]]
    tests_performed: int


def _joint_counts(panel: SeriesPanel, least: int, counts=None) -> np.ndarray:
    """Cells observed by both series, per pair, as an n×n float matrix, computed if ``counts`` is not given.

    Raises DataError naming the first pair (i, j >= i), in row order, that
    shares fewer than ``least`` cells.
    """
    if counts is None:
        observed = panel.mask.astype(np.float64)
        counts = observed @ observed.T
    short = np.argwhere(np.triu(counts < least))
    if short.size:
        i, j = short[0]
        raise DataError(f"series pair ({i}, {j}) has {int(counts[i, j])} joint points, need >= {least}")
    return counts


def _joint_extremes(panel: SeriesPanel):
    """lo[i, j] and hi[i, j]: the least and greatest value of series i on the cells j observes too.

    A pair's extreme is a value, so it is the least key of series i (its
    values, or their negatives for hi, with +inf in missed cells) on the
    cells j observes. Each series sorts its 8 least keys; a partner that
    misses no cell takes the first, one that misses cells the first it
    observes, and one that observes none of the 8 takes the least key on
    its own cells. The entries of a pair without a joint cell mean nothing,
    so read them only after ``_joint_counts`` has passed.
    """
    n, depth = panel.n, min(8, panel.T)
    gapped = np.flatnonzero(~panel.mask.all(axis=1))
    rows, partners = np.repeat(np.arange(n), gapped.size), np.tile(gapped, n)  # the pairs whose partner misses cells
    keys = np.where(panel.mask, panel.values, np.inf)
    extremes = []
    for sign in (1, -1):
        if sign < 0:
            np.negative(keys, out=keys, where=panel.mask)
        cells = np.argpartition(keys, depth - 1, axis=1)[:, :depth]
        cells = np.take_along_axis(cells, np.take_along_axis(keys, cells, axis=1).argsort(axis=1), axis=1)
        least = np.take_along_axis(keys, cells, axis=1)  # each series' depth least keys, ascending
        joint = np.repeat(least[:, :1], n, axis=1)  # joint[i, j]: the least key of series i on the cells j observes
        seen = panel.mask[partners[:, None], cells[rows]]
        joint[rows, partners] = least[rows, seen.argmax(axis=1)]
        missed = ~seen.any(axis=1)
        i_missed, j_missed = rows[missed], partners[missed]
        for i in np.unique(i_missed):
            todo = j_missed[i_missed == i]
            joint[i, todo] = np.where(panel.mask[todo], keys[i], np.inf).min(axis=1)
        extremes.append(sign * joint)
    return tuple(extremes)


def _varies(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Pairs on whose joint cells neither series is constant."""
    varies = lo < hi
    return varies & varies.T


def _rescaled(least: np.ndarray, greatest: np.ndarray, *arrays: np.ndarray) -> tuple:
    """``arrays``, one row per series, each series whose magnitude passes 2**±SCALE_EXPONENT scaled to about 1.

    ``least`` and ``greatest`` are each series' extreme observed values. The
    scale is a power of two: it keeps squares, ranges and Grams finite and
    changes no statistic. With no series to scale, ``arrays`` come back as
    they are.
    """
    exponent = np.frexp(np.maximum(greatest, -least))[1]
    exponent = np.where(np.abs(exponent) > SCALE_EXPONENT, -exponent, 0)[:, None]
    return tuple(np.ldexp(a, exponent) for a in arrays) if exponent.any() else arrays


def pearson_matrix(panel: SeriesPanel, extremes=None, counts=None) -> AdjacencyMatrix:
    """Pairwise-complete Pearson coefficients; a series constant on a pair's joint cells scores 0.

    Every pair at once, as masked matrix products: each series is centred
    on its own observed mean and zeroed where missing, which keeps the
    one-pass sums within rounding of centring on each pair's joint mean.
    ``extremes`` and ``counts`` are the panel's ``_joint_extremes`` and ``_joint_counts``, computed if not given.
    """
    counts = _joint_counts(panel, MIN_PAIR_OBS_CORR, counts)
    lo, hi = extremes or _joint_extremes(panel)
    values, = _rescaled(lo.diagonal(), hi.diagonal(), panel.values)
    observed = panel.mask.astype(np.float64)
    centred = np.where(panel.mask, values, 0.0)
    np.subtract(centred, (centred.sum(axis=1) / observed.sum(axis=1))[:, None], out=centred, where=panel.mask)
    sums = centred @ observed.T  # sums[i, j]: series i summed over the cells j observes too
    cov = centred @ centred.T - sums * sums.T / counts
    var = np.maximum(np.square(centred, out=centred) @ observed.T - sums * sums / counts, 0.0)
    denom = np.sqrt(var * var.T)
    weights = np.zeros((panel.n, panel.n))
    varies = _varies(lo, hi)
    np.divide(cov, denom, out=weights, where=varies & (denom > 0.0))
    return AdjacencyMatrix(panel.n, weights, "CM")


def cst_matrix(corr: AdjacencyMatrix) -> AdjacencyMatrix:
    """Minimum spanning tree over distances 1 - |corr| of a Pearson matrix.

    Kruskal with the index tie-break: equal distances are taken in (i, j)
    order. Edge (i, j) of the tree carries weight |corr_ij|; all other
    entries 0.
    """
    n = corr.n
    if n < 2:
        raise DataError("spanning tree needs at least two series")
    strength = np.abs(corr.weights)
    rows, cols = np.triu_indices(n, 1)
    order = np.argsort(1.0 - strength[rows, cols], kind="stable")
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    weights = np.zeros((n, n))
    added = 0
    for i, j in zip(rows[order].tolist(), cols[order].tolist()):
        ri, rj = find(i), find(j)
        if ri == rj:
            continue
        parent[ri] = rj
        weights[i, j] = weights[j, i] = strength[i, j]
        added += 1
        if added == n - 1:
            break
    return AdjacencyMatrix(n, weights, "CST")


def _bin_count(n_obs: np.ndarray) -> np.ndarray:
    """Bins per marginal for pairs of ``n_obs`` joint cells: max(8, floor(sqrt(N))), capped at 64."""
    return np.clip(np.sqrt(n_obs).astype(np.intp), 8, 64)


def _bin_codes(values: np.ndarray, lo: np.ndarray, hi: np.ndarray, bins: np.ndarray) -> np.ndarray:
    """Equal-width bin of each value, under one (lo, hi, bins) binning per row.

    The edges are those of ``np.linspace(lo, hi, bins + 1)`` and a value
    falls in the bin of the last edge at or below it, the top bin closed on
    the right: the rule of ``np.histogram2d``. Values outside [lo, hi] land
    in the end bins; a row with lo == hi puts every value in bin 0.
    """
    step, spread = (hi - lo) / bins, hi > lo
    stride = int(bins.max()) + 1
    k = np.arange(stride)  # linspace's arithmetic, row by row: k·step, or (k / bins)·(hi - lo) if the step underflows to 0
    edges = (np.where(step[:, None] > 0.0, k * step[:, None], k / bins[:, None] * (hi - lo)[:, None]) + lo[:, None]).ravel()
    top = np.where(spread, bins - 1, 0)
    guess = values - lo[:, None]
    guess /= np.where(step > 0.0, step, 1.0)[:, None]
    codes = np.clip(np.floor(guess, out=guess), 0, top[:, None], out=guess).astype(np.intp)

    def moves(code, row, value):
        """+1 for a code below its value's bin, -1 for one above it, else 0."""
        at = row * stride + code  # the code's lower edge
        down = value < edges[at]
        down &= code > 0
        at += 1
        up = value >= edges[at]
        up &= code < top[row]
        return up.view(np.int8) - down.view(np.int8)

    # rounding can leave a guess a bin off: step it onto the edges themselves, checking
    # every code once and then only those that moved
    move = moves(codes, np.arange(codes.shape[0])[:, None], values)
    if not move.any():
        return codes
    rows, cells = np.nonzero(move)
    move = move[rows, cells]
    while rows.size:
        codes[rows, cells] += move
        move = moves(codes[rows, cells], rows, values[rows, cells])
        rows, cells, move = rows[move != 0], cells[move != 0], move[move != 0]
    return codes


def mi_matrix(panel: SeriesPanel, extremes=None, counts=None) -> AdjacencyMatrix:
    """Equal-width-histogram mutual information in nats, pairwise complete.

    A pair of N joint cells is binned as ``np.histogram2d`` bins it: on
    each series' joint range, with max(8, floor(sqrt(N))) bins capped at
    64 per marginal. A series constant on the joint cells has zero entropy
    and scores 0.

    Each series is binned once on its own range, into ``uint8`` codes; a
    pair whose joint cells lose that series' minimum or maximum, or change
    the bin count, bins it anew. Row i counts its pairs (i, j >= i) in
    tiles of partners, one offset ``bincount`` per tile, a tile holding
    ``TILE_COUNTS`` counts at most so that its cells and counts stay in
    cache. A tile adds the row's codes to its partners', counts them (a
    cell either series misses lands past the tile's last pair, cut off)
    and sums Σ c log c over each joint table; re-binning and missed cells
    touch only the tiles where they occur. The entropy form
    MI = (Σ c_xy log c_xy - Σ c_x log c_x - Σ c_y log c_y) / N + log N
    then runs once over the n×n sums.
    A marginal term Σ c log c of a pair that bins a series as it is binned
    alone comes from the series' own histogram, less the histogram of its
    codes on the cells the partner misses: one offset ``bincount`` per
    partner that misses cells of such a series. Only a pair that bins a
    series anew sums its joint table for that marginal. ``extremes`` and
    ``counts`` are the panel's ``_joint_extremes`` and ``_joint_counts``, computed if not given.
    """
    n, T = panel.n, panel.T
    counts = _joint_counts(panel, MIN_PAIR_OBS_MI, counts).astype(np.intp)
    lo, hi = extremes or _joint_extremes(panel)
    varies = _varies(lo, hi)
    values, lo, hi = _rescaled(lo.diagonal(), hi.diagonal(), panel.values, lo, hi)
    bins = _bin_count(counts)
    own_lo, own_hi, own_bins = lo.diagonal(), hi.diagonal(), bins.diagonal()
    step = max(1, TILE_COUNTS // T)  # rows per block of binning or histograms, so a block's temporaries stay small

    def binned(rows, lo, hi, bins):
        """``_bin_codes`` of series ``rows`` as uint8, one binning per row, a missed cell in bin 0."""
        blocks = [slice(s, s + step) for s in range(0, len(rows), step)]
        return np.concatenate([_bin_codes(np.where(panel.mask[rows[at]], values[rows[at]], lo[at, None]),
                                          lo[at], hi[at], bins[at]).astype(np.uint8) for at in blocks])

    codes = binned(np.arange(n), own_lo, own_hi, own_bins)
    # own[i, j]: pair (i, j) bins series i as series i alone is binned
    own = (lo == own_lo[:, None]) & (hi == own_hi[:, None]) & (bins == own_bins[:, None])
    width = int(bins.max())
    tally = np.arange(T + 1)
    clogc = tally * np.log(np.maximum(tally, 1))  # c·log c, 0 at c = 0

    def histograms(rows, cells):
        """(rows, width) counts of the codes of series ``rows`` on ``cells``, leaving out the cells each misses."""
        k = len(rows)
        at = np.where(panel.mask[:, cells][rows], codes[:, cells][rows] + (np.arange(k) * width)[:, None], k * width)
        return np.bincount(at.ravel(), minlength=(k + 1) * width)[: k * width].reshape(k, width)

    own_hist = np.concatenate([histograms(np.arange(s, min(s + step, n)), slice(None)) for s in range(0, n, step)])
    # terms[i, j]: Σ c log c of series i's marginal in pair (i, j): of its own codes on the cells series j
    # observes too where own[i, j], else summed from the pair's joint table in the tiles below;
    # trim[i, j]: j misses some of series i's cells, whose codes come off i's own histogram
    terms = np.repeat(clogc[own_hist].sum(axis=1)[:, None], n, axis=1)
    trim = own & (counts < counts.diagonal()[:, None])
    for j in np.flatnonzero(trim.any(axis=0)):
        rows = np.flatnonzero(trim[:, j])
        terms[rows, j] = clogc[own_hist[rows] - histograms(rows, ~panel.mask[j])].sum(axis=1)
    # tiles of partners end at n, n - tile, ...; partner j takes slot (j - n) % tile of its tile, where joint
    # cell (x, y) of pair (i, j) is counted at (slot·width + x)·width + y, and a cell either series misses at
    # tile·width², past the last slot
    block = width * width
    tile = max(1, min(n, TILE_COUNTS // block))  # partners per tile
    slot = (np.arange(n) - n) % tile
    # missed_at[missed_from[j] : missed_from[j + 1]]: the flat positions, in a tile, of the cells series j misses
    missed_rows, missed_cells = np.nonzero(~panel.mask)
    missed_at = slot[missed_rows] * T + missed_cells
    missed_from = np.searchsorted(missed_rows, np.arange(n + 1)).tolist()
    joint_terms = np.zeros((n, n))  # Σ c log c over the joint table of pair (i, j >= i)
    buffer = np.empty((tile, T), dtype=np.intp)
    for i in range(n):
        # x_redo: the partners whose pair bins series i anew; y_redo: the partners the pair bins anew
        x_redo, y_redo = np.flatnonzero(~own[i, i:]) + i, np.flatnonzero(~own[i:, i]) + i
        x = binned(np.full(x_redo.size, i), lo[i, x_redo], hi[i, x_redo], bins[i, x_redo]) if x_redo.size else None
        y = binned(y_redo, lo[y_redo, i], hi[y_redo, i], bins[i, y_redo]) if y_redo.size else None
        x_cells = codes[i] * np.intp(width) + (np.arange(tile) * block)[:, None]  # row i's part of each slot's cells
        # a cell row i misses goes a slot past the last, beyond the adjustments below, which move less than a slot
        x_cells[:, ~panel.mask[i]] = (tile + 1) * block
        for j1 in range(n, i, -tile):
            j0 = max(i, j1 - tile)
            first = j0 - (j1 - tile)  # the slot of partner j0
            cells = buffer[first:]
            np.copyto(cells, codes[j0:j1])  # widened in place: an add of mixed types would cast in slower chunks
            cells += x_cells[first:]
            if x_redo.size:
                x_at = slice(*np.searchsorted(x_redo, (j0, j1)))
                cells[x_redo[x_at] - j0] += np.subtract(x[x_at], codes[i], dtype=np.intp) * width
            if y_redo.size:
                y_at = slice(*np.searchsorted(y_redo, (j0, j1)))
                cells[y_redo[y_at] - j0] += np.subtract(y[y_at], codes[y_redo[y_at]], dtype=np.intp)
            # cells the partner misses, written after the adjustments above, which could move them into a slot
            if missed_from[j0] < missed_from[j1]:
                np.put(buffer, missed_at[missed_from[j0] : missed_from[j1]], tile * block)
            joint = np.bincount(cells.ravel(), minlength=(tile + 1) * block)[first * block : tile * block]
            joint = joint.reshape(j1 - j0, width, width)
            joint_terms[i, j0:j1] = np.take(clogc, joint).sum(axis=(1, 2))
            if x_redo.size:
                terms[i, x_redo[x_at]] = clogc[joint[x_redo[x_at] - j0].sum(axis=2)].sum(axis=1)
            if y_redo.size:
                terms[y_redo[y_at], i] = clogc[joint[y_redo[y_at] - j0].sum(axis=1)].sum(axis=1)
    mi = np.where(varies, np.maximum((joint_terms - terms - terms.T) / counts + np.log(counts), 0.0), 0.0)
    return AdjacencyMatrix(n, np.where(np.triu(np.ones((n, n), dtype=bool)), mi, mi.T), "MI")


def _minmax_offdiag(weights: np.ndarray) -> np.ndarray:
    n = weights.shape[0]
    off = ~np.eye(n, dtype=bool)
    lo, hi = weights[off].min(), weights[off].max()
    out = np.zeros_like(weights)
    if hi > lo:
        out[off] = (weights[off] - lo) / (hi - lo)
    # constant matrix contributes 0 uniformly
    return out


def aggregate(matrices) -> AdjacencyMatrix:
    """Min-max scale each matrix over off-diagonal entries, then average.

    Correlation must be passed as |CM| so every input is a non-negative
    relevance score.
    """
    if not matrices:
        raise DataError("nothing to aggregate")
    n = matrices[0].n
    for m in matrices:
        if m.n != n:
            raise DataError("aggregation inputs differ in size")
        if np.any(m.weights < 0.0):
            raise DataError(f"{m.kind} has negative entries; pass absolute relevance scores")
    stacked = np.stack([_minmax_offdiag(m.weights) for m in matrices])
    return AdjacencyMatrix(n, stacked.mean(axis=0), "aggregated")


def shortlist(aggregated: AdjacencyMatrix, S: int) -> dict[int, tuple[int, ...]]:
    """Top ceil(1.5·S) candidate ids per target, by weight then ascending id."""
    n = aggregated.n
    want = math.ceil(1.5 * S)
    if want > n - 1:
        raise DataError(f"need {want} candidates per target but only {n - 1} other series exist")
    keys = -aggregated.weights
    np.fill_diagonal(keys, np.inf)  # a target never lists itself
    order = np.argsort(keys, axis=1, kind="stable")[:, :want]  # stable: equal weights by ascending id
    return {target: tuple(ids) for target, ids in enumerate(order.tolist())}


def _lag_rows(series: np.ndarray, maxlag: int) -> np.ndarray:
    """(maxlag, T - maxlag) array whose row l-1 is ``series`` lagged by l, aligned with ``series[maxlag:]``."""
    T = series.size
    rows = np.empty((maxlag, T - maxlag))
    for lag in range(1, maxlag + 1):
        rows[lag - 1] = series[maxlag - lag : T - lag]
    return rows


def _least_squares(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Coefficients solving the normal equations ``gram @ c = rhs``."""
    try:
        return np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        # collinear lags: jitter scaled to the gram's magnitude keeps it solvable
        jitter = RIDGE * max(1.0, float(np.trace(gram)) / gram.shape[0])
        logger.warning("singular Granger regression; applying ridge jitter %.3g", jitter)
        return np.linalg.solve(gram + jitter * np.eye(gram.shape[0]), rhs)


def _longest_joint_runs(mask: np.ndarray, pairs: list) -> list:
    """Per pair (i, j), the first longest stretch (lo, hi) of cells both series observe; (0, 0) if none.

    A pair's runs lie between the sorted cells either series misses. Pairs
    go n at a time, in order of the most cells either series misses, and
    each batch sorts only as many cells per series as its pairs miss, so a
    pair costs about what its two series miss, not T.
    """
    n, T = mask.shape
    targets, cands = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    rows, cols = np.nonzero(~mask)
    count = np.bincount(rows, minlength=n)
    # misses[i]: the cells series i misses, ascending, then T until the row is full
    misses = np.full((n, count.max() + 1), T)
    misses[rows, np.arange(rows.size) - np.searchsorted(rows, rows)] = cols
    lo, hi = np.zeros(targets.size, dtype=np.intp), np.zeros(targets.size, dtype=np.intp)
    order = np.argsort(np.maximum(count[targets], count[cands]), kind="stable")
    for s in range(0, targets.size, n):
        k = order[s : s + n]
        width = max(count[targets[k]].max(), count[cands[k]].max()) + 1
        ends = np.sort(np.concatenate((misses[targets[k], :width], misses[cands[k], :width]), axis=1), axis=1)
        starts = np.concatenate((np.zeros((k.size, 1), dtype=ends.dtype), ends[:, :-1] + 1), axis=1)
        pick = np.arange(k.size), (ends - starts).argmax(axis=1)  # argmax keeps the first of equal runs
        lo[k], hi[k] = starts[pick], ends[pick]
    return list(zip(lo.tolist(), hi.tolist()))


def _own_lags(y: np.ndarray, maxlag: int):
    """The target's own-lags regression over one joint run, as (rows, cross, rss).

    ``rows`` stacks the regressors (intercept, then lags 1..maxlag) over the
    regressand ``y[maxlag:]``; ``cross = rows @ rows.T`` holds the
    regressors' Gram and their products with the regressand.
    """
    k = maxlag + 1
    rows = np.empty((k + 1, y.size - maxlag))
    rows[0] = 1.0
    rows[1:k] = _lag_rows(y, maxlag)
    rows[k] = y[maxlag:]
    cross = rows @ rows.T
    resid = rows[k] - _least_squares(cross[:k, :k], cross[:k, k]) @ rows[:k]
    return rows, cross, float(resid @ resid)


def _augmented_normal(rows: np.ndarray, cross: np.ndarray, lags: np.ndarray, lag_gram: np.ndarray, out: np.ndarray):
    """Write into ``out`` the normal equations [Gram | right-hand side] of an augmented fit.

    The fit adds a candidate's ``lags`` rows, of Gram ``lag_gram``, to the
    own-lag regressors of ``_own_lags``, given as their ``rows`` and ``cross``.

    Partitioned normal equations: of the augmented Gram only the
    candidate's blocks are new, its products with the regressors, with
    itself and with the regressand.
    """
    k = rows.shape[0] - 1
    with_lags = rows @ lags.T
    out[:k, :k] = cross[:k, :k]
    out[:k, k:-1] = with_lags[:k]
    out[k:, :k] = with_lags[:k].T
    out[k:, k:-1] = lag_gram
    out[:k, -1] = cross[:k, k]
    out[k:, -1] = with_lags[k]


def _log_beta(a: float, b: float) -> float:
    """log B(a, b), a >= b; past a = 64, lgamma(a) - lgamma(a + b) comes from Stirling's series, keeping its digits."""
    if a < 64:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    tail = [(1 / 12 - (1 / 360 - 1 / (1260 * z * z)) / (z * z)) / z for z in (a, a + b)]  # Stirling's 1/z terms
    return math.lgamma(b) - (a - 0.5) * math.log1p(b / a) - b * math.log(a + b) + b + tail[0] - tail[1]


def _f_survival(f_stat: np.ndarray, dof: np.ndarray, maxlag: int) -> np.ndarray:
    """P(F > f) under F(maxlag, dof): the regularized incomplete beta I_x(dof/2, maxlag/2), x = dof/(dof + maxlag·f).

    An entry whose x lies above the beta mean takes 1 - I_(1-x)(b, a), so that the continued fraction BFRAC
    of DiDonato & Morris's Algorithm 708 (ACM TOMS, 1992) converges in few steps, fewest near F = 1. Entries
    not yet converged step together, at most ``FRACTION_STEPS`` times.
    """
    x0 = dof / (dof + maxlag * f_stat)
    a0, b0, y0 = dof / 2.0, maxlag / 2.0, 1.0 - x0
    distinct, inverse = np.unique(dof, return_inverse=True)
    log_beta = np.array([_log_beta(d / 2.0, b0) for d in distinct.tolist()])[inverse]
    with np.errstate(divide="ignore"):
        front = a0 * np.log(x0) + b0 * np.log(y0) - log_beta  # log of x^a y^b / B(a, b)
    flip = (a0 + b0) * y0 < b0
    a, b, x, y = np.where(flip, b0, a0), np.where(flip, a0, b0), np.where(flip, y0, x0), np.where(flip, x0, y0)
    lam, frac, at = (a + b) * y - b, np.empty_like(x), np.arange(x.size)
    an, bn = np.zeros_like(x), (1.0 + 1.0 / a) / (1.0 + lam)
    r = bn
    for step in range(1, FRACTION_STEPS + 1):  # BFRAC's recurrence, rescaled each step so that the last denominator is 1
        t, s, w = step / a, a + (2 * step - 1), step * (b - step) * x
        alpha = (1.0 + t - 1.0 / a) * (1.0 + t + (b - 1.0) / a) * (a / s) ** 2 * (w * x)
        beta = step + w / s + (1.0 + t) / (1.0 + 1.0 / a + 2.0 * t) * (1.0 + lam + step * (y + 1.0))
        den = alpha * bn + beta
        last, r = r, (alpha * an + beta * r) / den
        an, bn = last / den, 1.0 / den
        done = np.abs(r - last) <= 1e-15 * r
        frac[at[done]] = r[done]
        if done.all():
            break
        at, a, b, x, y, lam, an, bn, r = (v[~done] for v in (at, a, b, x, y, lam, an, bn, r))
    else:
        raise DataError(f"F-test p-value did not converge in {FRACTION_STEPS} steps (maxlag={maxlag})")
    p = np.exp(front + np.log(frac))
    return np.where(flip, 1.0 - p, p)


def granger_rank(
    panel: SeriesPanel,
    candidates: dict[int, tuple[int, ...]],
    maxlag: int,
    S: int,
    aggregated: AdjacencyMatrix | None = None,
) -> GrangerResult:
    """Per target, F-test each shortlisted candidate and keep the S best.

    Ranking is by ascending p-value, ties broken by descending aggregated
    weight then ascending id. Only shortlisted pairs are tested, each on
    the pair's longest joint run (the whole panel for two fully observed
    series); the runs of the pairs that miss a cell are found together.
    The target's own-lag regressors, their Gram and the restricted fit are
    computed once per joint run, and a candidate's lag Gram once per
    candidate and run, so each test adds only the candidate's products
    with the target's rows. A target's augmented normal equations are
    solved as one stack; if one of them is singular, they are solved one
    by one, and the singular ones with a ridge jitter (``_least_squares``).
    Each series is first scaled as ``_rescaled`` scales it, which keeps the
    Grams finite and changes no F statistic. One ``_f_survival`` call turns
    every F statistic into its p-value. A pair whose longest joint run holds
    at most ``RUN_CELLS_PER_LAG * maxlag`` cells is a DataError.
    """
    if maxlag < 1:
        raise DataError(f"Granger tests need maxlag >= 1, got {maxlag}")
    n, T = panel.n, panel.T
    values, = _rescaled(panel.values.min(axis=1, where=panel.mask, initial=0.0),
                        panel.values.max(axis=1, where=panel.mask, initial=0.0), panel.values)
    full = panel.mask.all(axis=1)
    gapped = [(target, cand) for target, ids in candidates.items() for cand in ids if not (full[target] and full[cand])]
    runs = dict(zip(gapped, _longest_joint_runs(panel.mask, gapped)))  # the other pairs share all T cells
    lag_grams = {}  # (candidate, lo, hi): the candidate's lag Gram on that run
    tested, rss = [], []  # (target, candidate, residual degrees of freedom), (restricted, augmented) RSS
    k = maxlag + 1  # own-lag regressors, the intercept included
    for target, cand_ids in candidates.items():
        fits, regressors = {}, []
        normal = np.empty((len(cand_ids), k + maxlag, k + maxlag + 1))  # one [Gram | rhs] per candidate
        for cand, system in zip(cand_ids, normal):
            lo, hi = runs.get((target, cand), (0, T))
            if hi - lo <= RUN_CELLS_PER_LAG * maxlag:
                raise DataError(f"pair ({target}, {cand}): joint run {hi - lo} too short for maxlag={maxlag}")
            if (lo, hi) not in fits:
                fits[lo, hi] = _own_lags(values[target, lo:hi], maxlag)
            lags = _lag_rows(values[cand, lo:hi], maxlag)
            if (cand, lo, hi) not in lag_grams:
                lag_grams[cand, lo, hi] = lags @ lags.T
            rows, cross, rss_r = fits[lo, hi]
            _augmented_normal(rows, cross, lags, lag_grams[cand, lo, hi], system)
            tested.append((target, cand, hi - lo - 3 * maxlag - 1))
            regressors.append((rows, lags, rss_r))
        # the target's augmented fits in one stacked solve; a singular Gram sends them through the ridge one by one
        try:
            coefs = np.linalg.solve(normal[:, :, :-1], normal[:, :, -1:])[:, :, 0]
        except np.linalg.LinAlgError:
            coefs = [_least_squares(system[:, :-1], system[:, -1]) for system in normal]
        for (rows, lags, rss_r), coef in zip(regressors, coefs):
            resid = rows[k] - coef[:k] @ rows[:k] - coef[k:] @ lags
            rss.append((rss_r, float(resid @ resid)))
    p_values = np.full((n, n), np.nan)
    if tested:
        targets, cands, dof = np.array(tested).T
        rss_r, rss_a = np.array(rss).T
        # a perfect augmented fit scores 0 if it improves on the own lags
        p = np.where((rss_a <= 0.0) & (rss_r > rss_a), 0.0, 1.0)
        f_stat = np.divide((rss_r - rss_a) / maxlag, rss_a / dof, out=np.zeros_like(p), where=rss_a > 0.0)
        live = f_stat > 0.0
        p[live] = _f_survival(f_stat[live], dof[live], maxlag)
        p_values[targets, cands] = p
    weights = aggregated.weights if aggregated is not None else np.zeros((n, n))
    per_target = {
        target: tuple(sorted(cand_ids, key=lambda c: (p_values[target, c], -weights[target, c], c))[:S])
        for target, cand_ids in candidates.items()
    }
    return GrangerResult(p_values, per_target, len(tested))


def build_context_map(
    panel: SeriesPanel,
    S: int,
    K: int,
    mode: str = "data_driven",
    predefined_path=None,
    maxlag: int = 4,
) -> ContextMap:
    """Full selection pipeline, or a verbatim predefined map.

    Data-driven: |CM|, CST and MI are aggregated, shortlisted to
    ceil(1.5·S) per target, Granger-ranked down to S. The global batch is
    the K series picked most often across targets (ties by total
    aggregated weight, then id).
    """
    if mode not in SELECTION_MODES:
        raise DataError(f"unknown context selection mode {mode!r}")
    if mode == "predefined":
        if predefined_path is None:
            raise DataError("predefined mode needs a map file")
        cm = read_context_map(predefined_path)
        bad = [i for ids in cm.per_target.values() for i in ids if not 0 <= i < panel.n]
        bad += [i for i in cm.global_batch if not 0 <= i < panel.n]
        if bad:
            raise DataError(f"predefined map references unknown series ids {sorted(set(bad))}")
        return cm
    if K > panel.n:
        raise DataError("context batch cannot exceed the series count")

    extremes, counts = _joint_extremes(panel), _joint_counts(panel, MIN_PAIR_OBS_CORR)  # for Pearson and MI both
    corr = pearson_matrix(panel, extremes, counts)
    abs_corr = AdjacencyMatrix(corr.n, np.abs(corr.weights), "CM")
    agg = aggregate([abs_corr, cst_matrix(corr), mi_matrix(panel, extremes, counts)])
    candidates = shortlist(agg, S)
    granger = granger_rank(panel, candidates, maxlag, S, agg)

    picks = np.bincount([i for ids in granger.per_target.values() for i in ids], minlength=panel.n)
    totals = agg.weights.sum(axis=0)
    order = sorted(range(panel.n), key=lambda i: (-picks[i], -totals[i], i))
    return ContextMap(granger.per_target, tuple(order[:K]), S, K)


def write_context_map(cm: ContextMap, path):
    """Text format: one `target: ctx,...` line per target, then a GLOBAL line."""
    with opened(path, "w") as fh:
        for target in sorted(cm.per_target):
            fh.write(f"{target}: {','.join(str(i) for i in cm.per_target[target])}\n")
        fh.write(f"GLOBAL: {','.join(str(i) for i in cm.global_batch)}\n")


def read_context_map(path) -> ContextMap:
    per_target = {}
    global_batch = None
    for lineno, line in enumerate(read_lines(path, "context map"), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        head, _, tail = line.partition(":")
        try:
            ids = tuple(int(tok) for tok in tail.split(",") if tok.strip())
            if head.strip() == "GLOBAL":
                global_batch = ids
            else:
                per_target[int(head)] = ids
        except ValueError:
            raise DataError(f"context map line {lineno} holds an id that is not an integer: {line!r}") from None
    if global_batch is None:
        raise DataError("context map file is missing the GLOBAL line")
    if not per_target:
        raise DataError("context map file has no per-target lines")
    sizes = {len(ids) for ids in per_target.values()}
    if len(sizes) != 1:
        raise DataError("per-target context lists differ in length")
    return ContextMap(per_target, global_batch, sizes.pop(), len(global_batch))
