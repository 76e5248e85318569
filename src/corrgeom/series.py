"""Aligned time series, summation windows, and centered unit vectors.

Everything geometric downstream is a function of the windowed, mean-centered,
unit-normalized sample vectors produced here: a window of K samples becomes a
point on the unit sphere S^(K-1), and angles between such points are
correlation angles.

Normalization is population style (divide by K, not K-1); the factor cancels
in every correlation anyway. A constant window is never mapped to a zero
vector, because a zero vector has no direction on the sphere: the engine
marks its window a gap.

A TimeSeriesSet holds its values once, as one read-only (n, L) matrix; its
``series`` are rebuilt from the matrix rows on each access. Reading a CSV
holds the file's lines once while its body is parsed, and drops them before
the set is built; after the read, only the set's matrix is held.
"""

from __future__ import annotations

import csv
import datetime
import math
import re
from pathlib import Path

import numpy as np

from .errors import DuplicateIdError, IngestError


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
    """The one series of a set: a uniformly sampled, finite-valued series on
    an integer tick grid.

    ``start`` is the tick of the first sample and ``step`` the sampling
    period in ticks; sample i sits at tick ``start + i * step``. It is built
    as the one-series set TimeSeriesSet.from_matrix((id,), start, step,
    [values]), which makes every check, and ``values`` is that set's
    read-only matrix row.
    """

    def __init__(self, id: str, start: int, step: int, values):
        data = TimeSeriesSet.from_matrix((id,), start, step, [values])
        self._set(id=id, start=data.start, step=data.step, values=data.matrix()[0])

    def __len__(self) -> int:
        return self.values.size

    def tick(self, index: int) -> int:
        return self.start + self.step * index


class TimeSeriesSet(Frozen):
    """Several series sharing start, step, and length, with unique ids.

    The set holds its ``ids``, ``start`` and ``step`` and one read-only,
    C-contiguous (n_series, length) matrix, and nothing else; its repr shows
    ids, start and step. from_matrix builds it and is the one place that
    checks a series. ``TimeSeriesSet(series)`` checks that the series are
    aligned and passes their ids and values to from_matrix, so they are not
    kept. ``series`` is rebuilt from the matrix rows on each access, at
    O(n_series * length) cost, as new TimeSeries objects with equal values;
    since equality is identity, two accesses give series that are not
    equal."""

    def __init__(self, series: tuple[TimeSeries, ...]):
        series = tuple(series)
        # An empty tuple has no grid; from_matrix rejects it by its ids.
        first = (series[0].start, series[0].step, len(series[0])) if series else (0, 1, 1)
        for s in series[1:]:
            if (s.start, s.step, len(s)) != first:
                raise ValueError(
                    f"series {s.id!r} is not aligned with {series[0].id!r}: "
                    f"start/step/length {(s.start, s.step, len(s))} vs {first}"
                )
        data = TimeSeriesSet.from_matrix(
            tuple(s.id for s in series), first[0], first[1], [s.values for s in series]
        )
        self._set(**vars(data))

    @classmethod
    def from_matrix(cls, ids, start: int, step: int, values) -> TimeSeriesSet:
        """The set whose series ``ids[i]`` has the samples ``values[i]``, the
        first at tick ``start``, one every ``step`` ticks.

        ``values`` is copied once, into the set's read-only C-contiguous
        float matrix; a later write to it does not reach the set. Checks, in
        this order: at least one id; every id nonempty; no id twice; ``step``
        a positive integer; an (len(ids), L) matrix with L >= 1; every value
        finite, else the error names the first row that is not; and every
        tick within the signed 64-bit range [-2^63, 2^63), so numpy's int64
        holds it. A repeated id raises DuplicateIdError, any other fault
        ValueError. Besides the copy, the check holds one boolean mask of
        the matrix.
        """
        ids = tuple(ids)
        if not ids:
            raise ValueError("a TimeSeriesSet needs at least one series")
        if not all(ids):
            raise ValueError("series id must be a nonempty string")
        if len(set(ids)) < len(ids):
            again = next(sid for i, sid in enumerate(ids) if sid in ids[:i])
            raise DuplicateIdError(f"duplicate series id {again!r}")
        if int(step) != step or step <= 0:
            raise ValueError(f"step must be a positive integer, got {step!r}")
        matrix = np.array(values, dtype=float, order="C")
        if matrix.ndim != 2 or matrix.shape[1] < 1:
            raise ValueError("values must be a nonempty 1-d sequence")
        if matrix.shape[0] != len(ids):
            raise ValueError(f"{len(ids)} series ids for {matrix.shape[0]} rows of values")
        bad = ~np.isfinite(matrix).all(axis=1)
        if bad.any():
            raise ValueError(f"series {ids[np.argmax(bad)]!r} contains NaN or Inf")
        start, step = int(start), int(step)
        last = start + step * (matrix.shape[1] - 1)
        if not (-(2**63) <= start and last < 2**63):
            raise ValueError(
                f"series {ids[0]!r} has ticks from {start} to {last}, outside the "
                "signed 64-bit range [-2^63, 2^63)"
            )
        matrix.setflags(write=False)
        data = cls.__new__(cls)
        data._set(ids=ids, start=start, step=step, _matrix=matrix)
        return data

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def series(self) -> tuple[TimeSeries, ...]:
        return tuple(TimeSeries(sid, self.start, self.step, row)
                     for sid, row in zip(self.ids, self._matrix))

    @property
    def length(self) -> int:
        return self._matrix.shape[1]

    def matrix(self) -> np.ndarray:
        """The set's read-only (n_series, length) matrix, stored at
        construction; every call returns that one array."""
        return self._matrix

    def tick(self, index: int) -> int:
        return self.start + self.step * index


def _window_units(seg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scale each row of a writable (..., n, K) stack of windows in place by
    a power of two, centre it twice, the second pass removing the first's
    rounding residue for large offsets, and scale it to unit norm. Returns
    the stack and the norms of the scaled, centred rows; a row of norm 0 is
    left unscaled, and its norm is 0 exactly when the row is constant.

    The first step multiplies each row x by 2^-e, e the np.frexp exponent of
    its largest |value| (0 for a zero row), taken as the larger of the row's
    maximum and negated minimum, so no |x| copy of the stack is made.
    Rounding commutes with a power-of-two scaling wherever a result is zero or
    normal, so where every scaled value and every intermediate of the kernel
    without this step is, the unit rows are bit for bit what that kernel
    gives, in any units.

    A proof that for any finite row (TimeSeriesSet.from_matrix, which builds
    every set, rejects NaN and inf) with K < 2^25 no operation overflows,
    the norm is 0 exactly when the row is constant, and every other unit row
    v has |||v|| - 1| <= eta(K). Here
    u = 2^-53, gamma_k = k u / (1 - k u), and a sum of k terms, in any order,
    is within gamma_(k-1) times the sum of their magnitudes of the exact sum
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 3.1).
    A product or quotient below the normal range errs by at most 2^-1075; a
    sum or difference there is exact.

    1. Scaling. The largest |x_i| is f 2^e with f in [1/2, 1), so the scaled
       row y holds f exactly and, rounding being monotone, every |y_i| <= f.
    2. No overflow. The first mean mu1 is within gamma_K of the exact mean of
       y, so |mu1| < 1 + gamma_K, and the centred row z has |z_i| < 2.01. In
       the same way the second mean mu2 is within 2.01 gamma_K of the exact
       mean of z, the centred row w has |w_i| < 4.03, and the sum of squares
       is below 17 K. No result is inf or NaN, so numpy warns of nothing (it
       ignores underflow), and no norm 0 is divided by.
    3. Constant rows. If every y_i is a, with |a| = f, mu1 is within
       gamma_K |a| of a, so a - mu1 = c is exact (Sterbenz), a multiple of
       2^-54 with |c| <= gamma_K. Every partial sum of K copies of c is a
       multiple of 2^-54 below 2^-52 K^2 in magnitude, so exact, and mu2 = c.
       So w = 0 and the norm is 0. A zero row stays zero.
    4. Other rows. Some y_j is not the entry of magnitude f, since a scaled
       value that rounds to the normal f was exact. The two differ by more
       than 1/4 if y_j has the other sign or a magnitude below 1/4, else by a
       multiple of 2^-54. So the largest and smallest y_i, p > q, have
       p - q >= 2^-54. Rounding is monotone, so z's extremes are fl(p - mu1)
       and fl(q - mu1), and mu1 is within gamma_K of [q, p], the hull of y;
       they differ by at least (p - q)(1 - u) - 2 u gamma_K. Likewise w's
       spread is at least (1 - u) times z's less 4.02 u gamma_K, above 2^-55
       for K < 2^25. So some |w_i| > 2^-56, and ||w|| > 2^-56.
    5. Norms. Squares below the normal range add at most K 2^-1075 to the
       sum of squares, a relative K 2^-963 of ||w||^2 > 2^-112. So the
       computed norm is N = ||w|| sqrt(1 + theta) (1 + d), |theta| <= g =
       gamma_K + K 2^-962 and |d| <= u, and v_i = fl(w_i / N) is within u
       |w_i| / N + 2^-1075 of w_i / N. Hence ||v|| <= 1 + eta(K), with
       eta(K) = (1 + u) / ((1 - u) sqrt(1 - g)) - 1 + sqrt(K) 2^-1075, and
       ||v|| >= (1 - u) / ((1 + u) sqrt(1 + g)) - sqrt(K) 2^-1075 >= 1 - eta(K),
       since sqrt(1 + g) sqrt(1 - g) <= 1 puts that quotient at or above
       1 / (1 + h) >= 1 - h, h = eta(K) - sqrt(K) 2^-1075. eta(K) is about
       (K / 2 + 2) u: 12.5 u at K = 21 and 52.5 u at K = 101.

    metric.angular_distances builds its error bound on eta(K).
    """
    np.ldexp(seg, -np.frexp(np.maximum(seg.max(-1), -seg.min(-1)))[1][..., None], out=seg)
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
# Lines end in \n, \r\n or \r. Missing cells are rejected, never imputed.
# Decimal point and ASCII digits only, with no digit-group underscores.
# ---------------------------------------------------------------------------


def parse_number(text: str, kind: type) -> int | float:
    """``kind(text)``, ``kind`` int or float, of the stripped text when it is
    ASCII with no digit-group underscores: the rule for numbers of CSV cells
    and of the CLI's flags. int() and float() alone also read 1_0 as 10, and
    non-ASCII digits. A text that breaks the rule raises ValueError in
    int()'s words, naming ``kind``."""
    text = text.strip()
    if not text.isascii() or "_" in text:
        raise ValueError(f"invalid literal for {kind.__name__}() with base 10: {text!r}")
    return kind(text)


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
        v = parse_number(text, float)
    except ValueError:
        raise IngestError(
            f"bad number {cell!r} at data row {row}, column {col!r}"
        ) from None
    if not math.isfinite(v):
        raise IngestError(f"non-finite value {cell!r} at data row {row}, column {col!r}")
    return v


def _parse_tick_column(cells: list[str]) -> tuple[int, int]:
    """Return (start, step) for the first column; validates uniform spacing."""
    is_int = True
    try:
        parse_number(cells[0], int)
    except ValueError:
        is_int = False
    if is_int:
        try:
            ticks = [parse_number(c, int) for c in cells]
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
        try:
            if not re.fullmatch(r"\d{4}-\d{2}-\d{2}", text, re.ASCII):
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

    Quotes are looked for in the body only: csv.reader has read the header
    already, quoted or not, and a quoted newline in it leaves a quote in the
    body. Without a quote, each body line is one record whose cells are its
    comma-separated fields. np.loadtxt strips a line's \\n, \\r\\n or \\r
    ending, as csv.reader does, and raises ValueError at a carriage return
    anywhere else in a line, where csv.reader raises too. It accepts a
    subset of what float() accepts, with the same values, and neither the
    underscores nor the non-ASCII digits that float() reads and _parse_value
    rejects, so a body it parses to finite values with ncol cells per line
    and no blank tick is one the row loop reads the same. Any other file
    goes through the row loop, which raises its first error. Each line is
    checked on its own, so no copy of the whole file is made."""
    body = lines[1:]
    if not body or any('"' in line or line.count(",") != ncol - 1 for line in body):
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
    """Read a TimeSeriesSet from a CSV path, read as UTF-8, or open text file.

    A body with no quote is parsed by _loadtxt_body, whatever its line
    endings: while it is parsed, the file's lines are held once, beside the
    parsed values and the tick cells. A body with a quoted cell, or one that
    _loadtxt_body rejects, goes through the row loop, _read_rows, which also
    holds a list of floats per row, about twice the memory; it raises the
    file's first error. The lines are dropped before the set is built by
    TimeSeriesSet.from_matrix, which briefly holds the parsed values, the
    set's matrix and its finite mask. After the read only the matrix is
    held."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as fh:
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
    del lines, reader  # the file's text: free it before the matrix is built
    start, step = _parse_tick_column(tick_cells)
    return TimeSeriesSet.from_matrix(names, start, step, columns)


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


def write_timeseries_csv(ts_set: TimeSeriesSet, dest) -> None:
    """Write a TimeSeriesSet to a CSV path or open text file in the format
    read_timeseries_csv ingests: a header row "tick" and the series ids,
    then one row per sample, its integer tick first. A path is written as
    UTF-8.

    Floats are written with shortest round-trip repr, so write/read is exact.
    """
    if isinstance(dest, (str, Path)):
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            write_timeseries_csv(ts_set, fh)
            return
    writer = csv.writer(dest, lineterminator="\n")
    writer.writerow(["tick", *ts_set.ids])
    mat = ts_set.matrix()
    for i in range(ts_set.length):
        writer.writerow([ts_set.tick(i), *[repr(float(v)) for v in mat[:, i]]])
