"""Aligned time series, summation windows, and centered unit vectors.

Everything geometric downstream is a function of the windowed, mean-centered,
unit-normalized sample vectors produced here: a window of K samples becomes a
point on the unit sphere S^(K-1), and angles between such points are
correlation angles.

Normalization is population style (divide by K, not K-1); the factor cancels
in every correlation anyway. A constant window is never mapped to a zero
vector, because a zero vector has no direction on the sphere: the engine
marks its window a gap.
"""

from __future__ import annotations

import csv
import datetime
import math
from pathlib import Path

import numpy as np

from .errors import DuplicateIdError, IngestError

# Tolerances for the centered-unit-vector invariants:
# |sum(components)| <= SUM_TOL * K  and  | ||v|| - 1 | <= NORM_TOL.
SUM_TOL = 1e-12
NORM_TOL = 1e-12


def _as_readonly_floats(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


def _bad_unit_row(rows: np.ndarray, ids) -> tuple[int, str] | None:
    """The flat index of the first row of an (..., n, K) stack that breaks a
    centered-unit-vector invariant (finite components, zero sum and unit
    norm) and the error naming it, or None. Each bound is tested as "not
    within", so that a NaN fails it."""
    bad_sum = ~(np.abs(rows.sum(axis=-1)) <= SUM_TOL * rows.shape[-1])
    norms = np.linalg.norm(rows, axis=-1)
    bad = np.flatnonzero(bad_sum | ~(np.abs(norms - 1.0) <= NORM_TOL))
    if not bad.size:
        return None
    i = int(bad[0])
    sid = ids[i % len(ids)]
    if not np.isfinite(rows.reshape(-1, rows.shape[-1])[i]).all():
        return i, f"components of {sid!r} are not finite"
    if bad_sum.flat[i]:
        return i, f"components of {sid!r} do not sum to zero within {SUM_TOL}*K"
    return i, f"components of {sid!r} are not unit length (norm {norms.flat[i]})"


class Frozen:
    """Base of the package's value classes, read-only once built: __init__
    sets the fields through _set, and assigning or deleting an attribute
    afterwards raises AttributeError. Equality is identity; a record that
    needs value equality is a typing.NamedTuple instead."""

    __slots__ = ()

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items() if not k.startswith("_"))
        return f"{type(self).__name__}({fields})"


class TimeSeries(Frozen):
    """A uniformly sampled, finite-valued series on an integer tick grid.

    ``start`` is the tick of the first sample and ``step`` the sampling
    period in ticks; sample i sits at tick ``start + i * step``.
    """

    def __init__(self, id: str, start: int, step: int, values):
        if not id:
            raise ValueError("series id must be a nonempty string")
        if int(step) != step or step <= 0:
            raise ValueError(f"step must be a positive integer, got {step!r}")
        arr = _as_readonly_floats(values)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("values must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"series {id!r} contains NaN or Inf")
        self._set(id=id, start=int(start), step=int(step), values=arr)

    def __len__(self) -> int:
        return self.values.size

    def tick(self, index: int) -> int:
        return self.start + self.step * index


class TimeSeriesSet(Frozen):
    """Several series sharing start, step, and length, with unique ids."""

    def __init__(self, series: tuple[TimeSeries, ...]):
        series = tuple(series)
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
        self._set(series=series, _matrix=_as_readonly_floats([s.values for s in series]))

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

    def matrix(self) -> np.ndarray:
        """Values stacked as a read-only (n_series, length) array, built once."""
        return self._matrix

    def tick(self, index: int) -> int:
        return self.series[0].tick(index)


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
    # would break uniform sampling for monthly data, so row order it is. Only
    # YYYY-MM-DD is read: from Python 3.11 on, date.fromisoformat also reads
    # week dates and other forms, which 3.10 rejects.
    dates = []
    for i, c in enumerate(cells):
        text = c.strip()
        digits = text[:4] + text[5:7] + text[8:]
        try:
            if len(text) != 10 or text[4] + text[7] != "--" or not (
                digits.isascii() and digits.isdigit()
            ):
                raise ValueError(text)
            dates.append(datetime.date.fromisoformat(text))
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


def _loadtxt_body(lines: list[str], ncol: int) -> tuple[list[str], np.ndarray] | None:
    """The tick cells and the (ncol - 1, rows) values of a CSV's data lines,
    ``lines[1:]``, parsed in one np.loadtxt call; None for a file that the
    row-at-a-time parse might read differently or reject.

    Without quotes or carriage returns, each line is one record whose cells
    are its comma-separated fields. np.loadtxt accepts a subset of what
    float() accepts, with the same values, so a body it parses to finite
    values with ncol cells per line and no blank tick is one the row loop
    reads the same. Any other file goes through the row loop, which raises
    its first error."""
    text = "".join(lines)
    body = lines[1:]
    if not body or '"' in text or "\r" in text:
        return None
    if any(line.count(",") != ncol - 1 for line in body):
        return None
    ticks = [line[: line.index(",")] for line in body]
    if not all(tick.strip() for tick in ticks):
        return None
    try:
        values = np.loadtxt(
            body, delimiter=",", comments=None, usecols=range(1, ncol), ndmin=2
        )
    except ValueError:
        return None
    if not np.isfinite(values).all():
        return None
    return ticks, values.T


def read_timeseries_csv(source) -> TimeSeriesSet:
    """Read a TimeSeriesSet from a CSV path or open text file."""
    if isinstance(source, (str, Path)):
        with open(source, "r", newline="") as fh:
            return read_timeseries_csv(fh)
    lines = list(source)
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise IngestError("empty file: header row is mandatory") from None
    except csv.Error as exc:
        raise IngestError(f"unreadable CSV in the header row: {exc}") from None
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
    tick_cells, columns = _loadtxt_body(lines, len(header)) or _read_rows(reader, header, names)
    start, step = _parse_tick_column(tick_cells)
    return TimeSeriesSet(
        tuple(TimeSeries(name, start, step, col) for name, col in zip(names, columns))
    )


def _read_rows(reader, header: list[str], names: list[str]) -> tuple[list[str], np.ndarray]:
    """The tick cells and the (ncol - 1, rows) values of the data rows left in
    ``reader``, one row at a time; raises IngestError at the first bad row."""
    tick_cells: list[str] = []
    rows: list[list[float]] = []
    rownum = 0
    try:
        for rownum, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise IngestError(
                    f"data row {rownum} has {len(row)} cells, expected {len(header)}"
                )
            if not row[0].strip():
                raise IngestError(f"missing tick at data row {rownum}")
            tick_cells.append(row[0])
            rows.append([_parse_value(cell, rownum, names[j]) for j, cell in enumerate(row[1:])])
    except csv.Error as exc:  # the csv module cannot split the next row
        raise IngestError(f"unreadable CSV at data row {rownum + 1}: {exc}") from None
    if not tick_cells:
        raise IngestError("no data rows")
    return tick_cells, np.array(rows).T


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
