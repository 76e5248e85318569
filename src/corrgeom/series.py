"""Aligned time series, summation windows, and centered unit vectors.

Everything geometric downstream is a function of the windowed, mean-centered,
unit-normalized sample vectors produced here: a window of K samples becomes a
point on the unit sphere S^(K-1), and angles between such points are
correlation angles.

Normalization is population style (divide by K, not K-1); the factor cancels
in every correlation anyway. Constant windows are rejected rather than mapped
to a zero vector, because a zero vector has no direction on the sphere.
"""

from __future__ import annotations

import csv
import datetime
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import (
    DuplicateIdError,
    EmptyOverlapError,
    IngestError,
    ZeroVarianceError,
)

# Tolerances for the centered-unit-vector invariants:
# |sum(components)| <= SUM_TOL * K  and  | ||v|| - 1 | <= NORM_TOL.
SUM_TOL = 1e-12
NORM_TOL = 1e-12


def _as_readonly_floats(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


def _check_unit_rows(rows: np.ndarray, ids) -> None:
    """Raise ValueError naming the first row of an (..., n, K) stack that
    breaks a centered-unit-vector invariant: finite components, zero sum and
    unit norm. Each bound is tested as "not within", so that a NaN fails it."""
    bad_sum = ~(np.abs(rows.sum(axis=-1)) <= SUM_TOL * rows.shape[-1])
    norms = np.linalg.norm(rows, axis=-1)
    bad = np.flatnonzero(bad_sum | ~(np.abs(norms - 1.0) <= NORM_TOL))
    if bad.size:
        i = bad[0]
        sid = ids[i % len(ids)]
        if not np.isfinite(rows.reshape(-1, rows.shape[-1])[i]).all():
            raise ValueError(f"components of {sid!r} are not finite")
        if bad_sum.flat[i]:
            raise ValueError(f"components of {sid!r} do not sum to zero within {SUM_TOL}*K")
        raise ValueError(f"components of {sid!r} are not unit length (norm {norms.flat[i]})")


@dataclass(frozen=True)
class TimeSeries:
    """A uniformly sampled, finite-valued series on an integer tick grid.

    ``start`` is the tick of the first sample and ``step`` the sampling
    period in ticks; sample i sits at tick ``start + i * step``.
    """

    id: str
    start: int
    step: int
    values: np.ndarray

    def __post_init__(self):
        if not self.id:
            raise ValueError("series id must be a nonempty string")
        if int(self.step) != self.step or self.step <= 0:
            raise ValueError(f"step must be a positive integer, got {self.step!r}")
        arr = _as_readonly_floats(self.values)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("values must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"series {self.id!r} contains NaN or Inf")
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "start", int(self.start))
        object.__setattr__(self, "step", int(self.step))

    def __len__(self) -> int:
        return self.values.size

    @property
    def end(self) -> int:
        """Tick of the last sample (inclusive)."""
        return self.start + self.step * (len(self) - 1)

    def tick(self, index: int) -> int:
        return self.start + self.step * index


@dataclass(frozen=True)
class TimeSeriesSet:
    """Several series sharing start, step, and length, with unique ids."""

    series: tuple[TimeSeries, ...]

    def __post_init__(self):
        series = tuple(self.series)
        if not series:
            raise ValueError("a TimeSeriesSet needs at least one series")
        ids = [s.id for s in series]
        seen = set()
        for sid in ids:
            if sid in seen:
                raise DuplicateIdError(f"duplicate series id {sid!r}")
            seen.add(sid)
        first = series[0]
        for s in series[1:]:
            if (s.start, s.step, len(s)) != (first.start, first.step, len(first)):
                raise ValueError(
                    f"series {s.id!r} is not aligned with {first.id!r}: "
                    f"start/step/length {(s.start, s.step, len(s))} vs "
                    f"{(first.start, first.step, len(first))}"
                )
        object.__setattr__(self, "series", series)
        object.__setattr__(self, "_matrix", _as_readonly_floats([s.values for s in series]))

    def __len__(self) -> int:
        return len(self.series)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.series)

    @property
    def start(self) -> int:
        return self.series[0].start

    @property
    def step(self) -> int:
        return self.series[0].step

    @property
    def length(self) -> int:
        return len(self.series[0])

    def get(self, sid: str) -> TimeSeries:
        for s in self.series:
            if s.id == sid:
                return s
        raise KeyError(sid)

    def matrix(self) -> np.ndarray:
        """Values stacked as a read-only (n_series, length) array, built once."""
        return self._matrix

    def tick(self, index: int) -> int:
        return self.series[0].tick(index)


@dataclass(frozen=True)
class WindowSpec:
    """A summation window: ``size`` consecutive samples starting at sample
    index ``t`` (an index into the series, not a tick). ``stride`` is the
    hop between consecutive windows in sliding analyses."""

    t: int
    size: int
    stride: int = 1

    def __post_init__(self):
        if self.t < 0:
            raise ValueError(f"window start index must be >= 0, got {self.t}")
        if self.size < 2:
            raise ValueError(f"window size must be >= 2, got {self.size}")
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")

    def check_fits(self, length: int) -> None:
        if self.t + self.size > length:
            raise ValueError(
                f"window [{self.t}, {self.t + self.size}) does not fit in a "
                f"series of length {length}"
            )


@dataclass(frozen=True)
class CenteredUnitVector:
    """A windowed sample vector with the window mean removed and unit
    Euclidean norm: a point on the sphere S^(K-1)."""

    components: np.ndarray
    source_id: str
    window_start: int  # tick of the first sample in the window

    def __post_init__(self):
        arr = _as_readonly_floats(self.components)
        _check_unit_rows(arr.reshape(1, -1), (self.source_id,))
        object.__setattr__(self, "components", arr)


def align(series: Iterable[TimeSeries]) -> TimeSeriesSet:
    """Truncate all series to their common tick range, preserving order.

    All series must share the sampling step and sit on the same tick grid
    (start offsets congruent modulo the step). Raises EmptyOverlapError when
    the ranges are disjoint and DuplicateIdError on colliding labels.
    """
    slist = list(series)
    if not slist:
        raise ValueError("align() needs at least one series")
    seen = set()
    for s in slist:
        if s.id in seen:
            raise DuplicateIdError(f"duplicate series id {s.id!r}")
        seen.add(s.id)
    step = slist[0].step
    for s in slist[1:]:
        if s.step != step:
            raise ValueError(
                f"series {s.id!r} has step {s.step}, expected {step}; "
                "resample upstream"
            )
        if (s.start - slist[0].start) % step != 0:
            raise EmptyOverlapError(
                f"series {s.id!r} is offset from the common tick grid"
            )
    lo = max(s.start for s in slist)
    hi = min(s.end for s in slist)
    if lo > hi:
        raise EmptyOverlapError(
            f"no common tick range: latest start {lo} is after earliest end {hi}"
        )
    out = []
    for s in slist:
        i0 = (lo - s.start) // step
        i1 = (hi - s.start) // step + 1
        out.append(TimeSeries(s.id, lo, step, s.values[i0:i1]))
    return TimeSeriesSet(tuple(out))


def _window_units(seg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centre each row of a writable (..., n, K) stack of windows in place,
    twice, the second pass removing the first's rounding residue for large
    offsets, and scale it to unit norm. Returns the stack and the norms; a row
    of zero norm (a constant series) is left unscaled."""
    seg -= seg.mean(axis=-1, keepdims=True)
    seg -= seg.mean(axis=-1, keepdims=True)
    norms = np.linalg.norm(seg, axis=-1)
    seg /= np.where(norms == 0.0, 1.0, norms)[..., None]
    return seg, norms


def _one_window_units(values: np.ndarray, ids, w: WindowSpec) -> np.ndarray:
    """_window_units for the rows of an (n, length) array over window w.
    Raises ZeroVarianceError naming the first constant row."""
    w.check_fits(values.shape[1])
    units, norms = _window_units(values[:, w.t : w.t + w.size].copy())
    if not norms.all():
        raise ZeroVarianceError(
            f"series {ids[np.argmin(norms)]!r} is constant on window [{w.t}, {w.t + w.size})"
        )
    return units


def window_vector(s: TimeSeries, w: WindowSpec) -> CenteredUnitVector:
    """One series' window as a CenteredUnitVector, centred and scaled as in
    windowed_unit_matrix. Raises ZeroVarianceError for a constant window."""
    unit = _one_window_units(s.values[None, :], (s.id,), w)[0]
    return CenteredUnitVector(unit, s.id, s.tick(w.t))


def windowed_unit_matrix(ts_set: TimeSeriesSet, w: WindowSpec) -> np.ndarray:
    """Centered unit vectors of all series over one window, stacked (n, K) and
    checked against the CenteredUnitVector invariants in one array operation.
    Raises ZeroVarianceError naming the first series constant on the window."""
    units = _one_window_units(ts_set.matrix(), ts_set.ids, w)
    _check_unit_rows(units, ts_set.ids)
    return units


# ---------------------------------------------------------------------------
# CSV ingestion / emission
#
# Format: header row mandatory; first column is an integer tick (constant
# positive step) or an ISO date (strictly increasing, mapped to consecutive
# ticks 0, 1, 2, ... in row order); remaining columns are one series each.
# Missing cells are rejected, never imputed. Decimal point only.
# ---------------------------------------------------------------------------


def _parse_value(cell: str, row: int, col: str) -> float:
    text = cell.strip()
    if not text:
        raise IngestError(f"missing value at data row {row}, column {col!r}")
    if "," in text:
        raise IngestError(
            f"bad number {cell!r} at data row {row}, column {col!r}: "
            "decimal point only, no thousands separators"
        )
    try:
        v = float(text)
    except ValueError:
        raise IngestError(
            f"bad number {cell!r} at data row {row}, column {col!r}"
        ) from None
    if not math.isfinite(v):
        raise IngestError(f"non-finite value {cell!r} at data row {row}, column {col!r}")
    return v


def _parse_tick_column(cells: list[str]) -> tuple[int, int]:
    """Return (start, step) for the first column; validates uniform spacing."""
    first = cells[0].strip()
    is_int = True
    try:
        int(first)
    except ValueError:
        is_int = False
    if is_int:
        try:
            ticks = [int(c.strip()) for c in cells]
        except ValueError as exc:
            raise IngestError(f"mixed tick column: {exc}") from None
        if len(ticks) == 1:
            return ticks[0], 1
        step = ticks[1] - ticks[0]
        if step <= 0:
            raise IngestError("tick column must be strictly increasing")
        for i in range(1, len(ticks)):
            if ticks[i] - ticks[i - 1] != step:
                raise IngestError(
                    f"non-uniform tick spacing at data row {i + 1}: "
                    f"{ticks[i]} after {ticks[i - 1]} (step {step})"
                )
        return ticks[0], step
    # ISO dates: map to consecutive ticks in row order. Calendar-day ticks
    # would break uniform sampling for monthly data, so row order it is.
    dates = []
    for i, c in enumerate(cells):
        try:
            dates.append(datetime.date.fromisoformat(c.strip()))
        except ValueError:
            raise IngestError(
                f"first column must be all integers or all ISO dates; "
                f"got {c!r} at data row {i + 1}"
            ) from None
    for i in range(1, len(dates)):
        if dates[i] <= dates[i - 1]:
            raise IngestError(
                f"dates must be strictly increasing; {dates[i]} follows "
                f"{dates[i - 1]} at data row {i + 1}"
            )
    return 0, 1


def read_timeseries_csv(source) -> TimeSeriesSet:
    """Read a TimeSeriesSet from a CSV path or open text file."""
    if isinstance(source, (str, Path)):
        with open(source, "r", newline="") as fh:
            return read_timeseries_csv(fh)
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise IngestError("empty file: header row is mandatory") from None
    if len(header) < 2:
        raise IngestError("need a tick column plus at least one series column")
    names = [h.strip() for h in header[1:]]
    seen = set()
    for name in names:
        if not name:
            raise IngestError("empty series name in header")
        if name in seen:
            raise DuplicateIdError(f"duplicate column name {name!r}")
        seen.add(name)
    tick_cells: list[str] = []
    rows: list[list[float]] = []
    for rownum, row in enumerate(reader, start=1):
        if len(row) != len(header):
            raise IngestError(
                f"data row {rownum} has {len(row)} cells, expected {len(header)}"
            )
        if not row[0].strip():
            raise IngestError(f"missing tick at data row {rownum}")
        tick_cells.append(row[0])
        # float() strips the same whitespace as str.strip() and rejects ",",
        # so a row it parses to finite values is one _parse_value accepts,
        # with the same values. Any other row goes through _parse_value, which
        # raises the row's first error.
        try:
            values = list(map(float, row[1:]))
        except ValueError:
            values = None
        if values is None or not np.isfinite(values).all():
            values = [_parse_value(cell, rownum, names[j]) for j, cell in enumerate(row[1:])]
        rows.append(values)
    if not tick_cells:
        raise IngestError("no data rows")
    start, step = _parse_tick_column(tick_cells)
    columns = np.array(rows).T
    return TimeSeriesSet(
        tuple(TimeSeries(name, start, step, col) for name, col in zip(names, columns))
    )


def write_timeseries_csv(ts_set: TimeSeriesSet, dest, tick_header: str = "tick") -> None:
    """Write a TimeSeriesSet in the format read_timeseries_csv ingests.

    Floats are written with shortest round-trip repr, so write/read is exact.
    """
    if isinstance(dest, (str, Path)):
        with open(dest, "w", newline="") as fh:
            write_timeseries_csv(ts_set, fh, tick_header)
            return
    writer = csv.writer(dest, lineterminator="\n")
    writer.writerow([tick_header, *ts_set.ids])
    mat = ts_set.matrix()
    for i in range(ts_set.length):
        writer.writerow([ts_set.tick(i), *[repr(float(v)) for v in mat[:, i]]])
