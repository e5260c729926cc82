"""Panels, chronological splits, window normalization, calendar features,
and synthetic coupled-series generation.

All series data flows through :class:`SeriesPanel`, an immutable N×T value
matrix with equally spaced timestamps and an observed-value mask. A panel
keeps its file's values; if any is non-positive, loading records the
positivity shift the model adds for its multiplicative decomposition.

Every reader and writer of the package takes a path or an open stream,
through :func:`opened`.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DataError",
    "opened",
    "SeriesPanel",
    "SynthSpec",
    "load_panel",
    "split",
    "preprocess_window",
    "postprocess",
    "calendar_features",
    "synth_generate",
    "write_panel_csv",
    "write_forecast_csv",
]

#: positivity shift is offset = 1 - min + SHIFT_EPS when any value <= 0
SHIFT_EPS = 1e-6

#: integer-indexed files get hourly timestamps from this origin
INDEX_EPOCH = dt.datetime(2000, 1, 1)

CALENDAR_SIZE = 74  # hour(24) + day-of-week(7) + day-of-month(31) + month(12)


class DataError(Exception):
    """Malformed or insufficient input data."""


@dataclass(frozen=True)
class SeriesPanel:
    """Immutable N×T value matrix with timestamps and observation mask."""

    values: np.ndarray  # (n, T) float64, as read; 0.0 where missing
    timestamps: tuple  # T datetimes, strictly increasing, equally spaced
    mask: np.ndarray  # (n, T) bool, True = observed
    frequency: dt.timedelta
    shift: float = 0.0  # positivity shift: the model adds it to the values, and takes it off its forecasts

    def __post_init__(self):
        object.__setattr__(self, "values", np.ascontiguousarray(self.values, dtype=np.float64))
        object.__setattr__(self, "mask", np.ascontiguousarray(self.mask, dtype=bool))
        self.values.setflags(write=False)
        self.mask.setflags(write=False)
        if self.values.shape != self.mask.shape:
            raise DataError("values and mask shapes differ")
        if len(self.timestamps) != self.values.shape[1]:
            raise DataError("timestamp count does not match T")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def T(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a coupled synthetic panel.

    ``edges`` lists (driver, driven) or (driver, driven, weight) entries;
    a driven series receives ``weight * driver[t - lag]`` (defaulting to
    ``coupling``) plus its own sinusoid mixture and noise. Series that
    drive others (or are uncoupled) are sinusoid mixtures alone.
    """

    n: int
    T: int
    edges: tuple = ()
    coupling: float = 1.0
    lag: int = 1
    noise_sigma: float = 0.1
    seasonal_period: int = 24

    def __post_init__(self):
        if self.n < 1 or self.T < 2:
            raise DataError("synthetic spec needs n >= 1 and T >= 2")
        if self.lag < 0 or self.seasonal_period < 1:
            raise DataError("lag must be non-negative and the seasonal period positive")
        if not (math.isfinite(self.noise_sigma) and math.isfinite(self.coupling)):
            raise DataError("noise and coupling must be finite")
        for edge in self.edges:
            if len(edge) not in (2, 3):
                raise DataError(f"edge {edge} must be (driver, driven[, weight])")
            driver, driven = edge[0], edge[1]
            if not (0 <= driver < self.n and 0 <= driven < self.n) or driver == driven:
                raise DataError(f"bad coupling edge ({driver}, {driven})")
            if len(edge) == 3 and not math.isfinite(edge[2]):
                raise DataError(f"edge ({driver}, {driven}) has a weight that is not finite")

    def weighted_edges(self):
        return [
            (edge[0], edge[1], float(edge[2]) if len(edge) == 3 else self.coupling)
            for edge in self.edges
        ]


def _parse_stamp(cell: str):
    cell = cell.strip()
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return dt.datetime.fromisoformat(cell)
    except ValueError:
        raise DataError(f"first column must be ISO-8601 or integer index, got {cell!r}") from None


@contextmanager
def opened(path, mode: str = "r"):
    """An open stream as given, or the file at ``path`` opened in ``mode``.

    Text files are opened with ``newline=""``: readers split CRLF and LF
    lines alike, and writers write their own line ends.
    """
    if hasattr(path, "write" if "w" in mode else "read"):
        yield path
        return
    with open(path, mode, newline=None if "b" in mode else "") as fh:
        yield fh


def read_lines(path, what: str) -> list[str]:
    """The lines of a text file or stream; text that does not decode is a DataError."""
    try:
        with opened(path) as fh:
            return fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"{what} file does not decode as text: {exc}") from None


def load_panel(path) -> SeriesPanel:
    """Read a CSV panel: first column timestamp/index, one series per column.

    A blank, whitespace-only or ``nan`` cell marks a missing observation; a
    cell that is not a number, or parses to ±inf, is a DataError naming its
    row and series. If any value is non-positive the panel records a
    global shift of ``1 - min + eps``, and keeps its values as read.
    """
    with opened(path) as fh:
        return _read_panel(csv.reader(fh))


def _row_values(cells, t: int) -> np.ndarray:
    """One row's cells as floats, NaN where a cell is blank; Python's ``float`` rules in one numpy call.

    Only a row holding an empty cell is copied to spell it "nan"; a cell of
    blanks, or one that is not a number, leaves it to the loop below.
    """
    try:
        values = np.array([cell or "nan" for cell in cells] if "" in cells else cells, dtype=np.float64)
    except ValueError:
        pass  # the loop below names the cell
    else:
        if not np.isinf(values).any():
            return values
    values = np.empty(len(cells))
    for j, cell in enumerate(cells):
        cell = cell.strip()
        try:
            values[j] = float(cell) if cell else math.nan
        except ValueError:
            raise DataError(f"bad numeric cell at row {t}, series {j}: {cell!r}") from None
        if math.isinf(values[j]):
            raise DataError(f"infinite cell at row {t}, series {j}: {cell!r}")
    return values


def _read_panel(reader) -> SeriesPanel:
    # rows are converted as they are read, so the file's text is never held
    # whole; a bad cell is reported only once the timestamps have passed
    width, stamps, rows, bad_cell = 0, [], [], None
    try:
        for row in reader:
            if not row:
                continue
            t = len(stamps)
            if not width:
                width = len(row)
                if width < 2:
                    raise DataError("need a timestamp column plus at least one series")
            if len(row) != width:
                raise DataError(f"ragged row {t}: {len(row)} columns, expected {width}")
            stamps.append(_parse_stamp(row[0]))
            if bad_cell is None:
                try:
                    rows.append(_row_values(row[1:], t))
                except DataError as exc:
                    bad_cell = exc
    except csv.Error as exc:
        raise DataError(f"malformed CSV at line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"panel file does not decode as text: {exc}") from None
    if not stamps:
        raise DataError("empty file")

    if all(isinstance(s, int) for s in stamps):
        deltas = {b - a for a, b in zip(stamps, stamps[1:])}
        if len(stamps) > 1 and deltas != {1}:
            raise DataError("integer index must increase by 1")
        freq = dt.timedelta(hours=1)
        timestamps = tuple(INDEX_EPOCH + dt.timedelta(hours=s - stamps[0]) for s in stamps)
    elif all(isinstance(s, dt.datetime) for s in stamps):
        if len({s.tzinfo is None for s in stamps}) > 1:
            raise DataError("timestamps mix time-zone-aware and naive values")
        timestamps = tuple(stamps)
        if len(stamps) > 1:
            freq = stamps[1] - stamps[0]
            if freq <= dt.timedelta(0):
                raise DataError("timestamps must be strictly increasing")
            for a, b in zip(stamps, stamps[1:]):
                if b - a != freq:
                    raise DataError("timestamps must be equally spaced")
        else:
            freq = dt.timedelta(hours=1)
    else:
        raise DataError("mixed timestamp and integer-index rows")
    if bad_cell is not None:
        raise bad_cell

    values = np.stack(rows, axis=1)
    mask = ~np.isnan(values)
    values[~mask] = 0.0
    least = values.min(where=mask, initial=math.inf)
    shift = 1.0 - float(least) + SHIFT_EPS if least <= 0.0 else 0.0
    return SeriesPanel(values, timestamps, mask, freq, shift)


def split(panel: SeriesPanel):
    """Chronological 60/20/20 train/validation/test split at floor(0.6·T), floor(0.8·T)."""
    if panel.T < 10:
        raise DataError(f"panel too short to split: T={panel.T}")
    a = math.floor(0.6 * panel.T)
    b = math.floor(0.8 * panel.T)

    def piece(lo, hi):
        return SeriesPanel(
            panel.values[:, lo:hi].copy(),
            panel.timestamps[lo:hi],
            panel.mask[:, lo:hi].copy(),
            panel.frequency,
            panel.shift,
        )

    return piece(0, a), piece(a, b), piece(b, panel.T)


def preprocess_window(z, z_bar, seasonal):
    """x_in = log(z / (z_bar * s)) elementwise; all inputs must be positive."""
    z = np.asarray(z, dtype=np.float64)
    seasonal = np.asarray(seasonal, dtype=np.float64)
    if z_bar <= 0 or np.any(z <= 0) or np.any(seasonal <= 0):
        raise DataError("preprocessing needs strictly positive values")
    return np.log(z / (z_bar * seasonal))


def postprocess(x_hat, z_bar, seasonal, shift=0.0):
    """Invert preprocessing: z_hat = exp(x_hat) * z_bar * s, minus the load shift."""
    x_hat = np.asarray(x_hat, dtype=np.float64)
    if np.any(np.abs(x_hat) > 700.0):
        raise DataError("postprocess overflow: |x_hat| > 700")
    return np.exp(x_hat) * z_bar * np.asarray(seasonal, dtype=np.float64) - shift


def calendar_features(timestamp: dt.datetime) -> np.ndarray:
    """74-dim one-hot block: hour-of-day, day-of-week, day-of-month, month.

    Sub-hourly timestamps share their hour's slot. Exactly four entries are 1.
    """
    out = np.zeros(CALENDAR_SIZE)
    out[timestamp.hour] = 1.0
    out[24 + timestamp.weekday()] = 1.0
    out[24 + 7 + (timestamp.day - 1)] = 1.0
    out[24 + 7 + 31 + (timestamp.month - 1)] = 1.0
    return out


def synth_generate(spec: SynthSpec, seed: int) -> SeriesPanel:
    """Deterministic coupled panel: sinusoid-mixture drivers, lagged driven series."""
    if seed < 0:
        raise DataError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    n, T, p = spec.n, spec.T, spec.seasonal_period
    pad = spec.lag
    grid = np.arange(-pad, T, dtype=np.float64)

    driven_by = {}
    for driver, driven, weight in spec.weighted_edges():
        driven_by[driven] = (driver, weight)

    base = np.zeros((n, T + pad))
    for i in range(n):
        # every series gets its own positive sinusoid mixture; drawn for all
        # series (in index order) so coupling edges do not perturb the stream
        amp1, amp2 = rng.uniform(0.5, 1.5, 2)
        phase1, phase2 = rng.uniform(0.0, 2.0 * np.pi, 2)
        long_period = rng.uniform(4.0, 8.0) * p
        wave = amp1 * np.sin(2.0 * np.pi * grid / p + phase1)
        wave += amp2 * np.sin(2.0 * np.pi * grid / long_period + phase2)
        noise = rng.normal(0.0, spec.noise_sigma, T + pad) if spec.noise_sigma > 0 else 0.0
        base[i] = 10.0 + wave + noise

    values = np.empty((n, T))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below, as a DataError
        for i in range(n):
            if i in driven_by:
                driver, weight = driven_by[i]
                shifted = base[driver, pad - spec.lag : pad - spec.lag + T]
                own = base[i, pad:]
                values[i] = weight * shifted + own
            else:
                values[i] = base[i, pad:]

        low = values.min()
        if low <= 0.0:
            values = values + (1.0 - low + SHIFT_EPS)
    if not np.isfinite(values).all():
        raise DataError("synthetic panel overflows float64: lower the coupling or the noise")
    timestamps = tuple(INDEX_EPOCH + dt.timedelta(hours=t) for t in range(T))
    return SeriesPanel(values, timestamps, np.ones((n, T), dtype=bool), dt.timedelta(hours=1))


def write_panel_csv(panel: SeriesPanel, path):
    """Write a panel back to the CSV layout accepted by load_panel."""
    with opened(path, "w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for t in range(panel.T):
            row = [panel.timestamps[t].isoformat()]
            for j in range(panel.n):
                row.append(repr(float(panel.values[j, t])) if panel.mask[j, t] else "")
            writer.writerow(row)


def write_forecast_csv(rows, path):
    """Write forecast rows (timestamp, series, median, lower, upper)."""
    with opened(path, "w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["timestamp", "series", "median", "lower", "upper"])
        for stamp, series, med, lo, hi in rows:
            writer.writerow([stamp.isoformat(), series, repr(float(med)), repr(float(lo)), repr(float(hi))])
