"""Sliding spread measures over time and detection of their minima.

A window of K samples starting at sample t maps each series to a point on
the sphere; the spread measures of that point cloud (diameter and best
triangle area) become time series stamped at the window start. Minima of
those series mark phase-locked intervals: times where every series moves
together.

Every command walks the windows through one engine, ``correlation_chunks``.
It takes consecutive windows as (windows, n, K) stacks of a sliding-window
view of the series matrix, in chunks whose largest array holds about
CHUNK_ELEMENTS floats (validate asks for taller ones), and each layer (unit
vectors, correlations, angular distances, the measures) runs once per chunk
on the whole stack. No per-window object is built. The engine hands out
only distances, of the kinds its caller asks for: a chunk's unit rows and
correlations are built, turned into distances and freed inside it, in the
package's one call of metric.angular_distances. The diameter is the
largest entry of each window's matrix, read in one reduction over the stack.
The triangle measure builds the pairs j < k once and walks the triples one
first index at a time, so no array holds more than about n^2 / 2 of them per
window. No unit row is checked:
series._window_units proves every unit row of a window with no constant
series finite and within eta(K) of unit norm, for a series in any units, so
no window's values make the engine raise.

``sliding_measures`` runs no metric-axiom check on its distances: that
they form a metric to within a bound far below TRIANGLE_TOL is proven in
metric.angular_distances, whose chord form keeps near-copies of a series,
|rho| near 1, as accurate as any other pair. ``validate`` still scans every
window, since the margins are its output, and checks nothing else: the same
construction makes every stack exactly symmetric, with a +0.0 diagonal and
entries in [0, pi]. cli.cmd_validate asks the engine for both kinds of
distances, spherical and projective, in chunks of at least
cli.VALIDATE_BATCH windows, and scans each chunk's stack at once. The next
chunk is built in one worker thread while the current one is scanned, so
validate holds one extra chunk; analyze and events walk their chunks in one
thread. The scan finds only each matrix's minimum margin, never its n^3
margins: it works on a copy of the stack with the stack axis innermost, in
blocks of about metric.SCAN_ELEMENTS floats, so its numpy loops are as long
as the stack is tall. Which triple holds a minimum is located one matrix at
a time, by metric._first_min_triple in n^2 memory, only where it is
reported.

Windows that cannot be evaluated (a constant series) become explicit gap
markers, never fabricated values. Minima are detected in one pass over the
whole series, in which every gap is a wall that no basin crosses, not by
scanning each gap-free segment apart: no minimum lies at or across a gap.
"""

from __future__ import annotations

import bisect
from typing import Iterator, NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import TooFewPointsError, WindowTooLongError
from .measures import _max_triangle_areas
from .metric import PROJECTIVE, angular_distances, correlation_from_units
from .series import Frozen, TimeSeriesSet, _window_units

# Target size, in float64 elements, of the largest array of a chunk of
# windows: the (windows, n, K) window rows or the (windows, n, n) matrices;
# the triangle measure's per-first-index arrays are smaller, and validate's
# triangle-margin scan works in blocks of metric.SCAN_ELEMENTS. A chunk holds
# at least one window, so where one window's rows or matrices pass 2^15
# (n * K or n^2 above it) the chunk exceeds the target. validate asks
# correlation_chunks for chunks of at least cli.VALIDATE_BATCH windows, whose
# unit rows and both kinds of distances are larger. For analyze and events,
# larger chunks were measured slower, and at 2^17 they raised peak RSS by more
# than the benchmark's 5% bound.
CHUNK_ELEMENTS = 2**15

KIND_DIAMETER = "diameter"
KIND_MAX_TRIANGLE = "max_triangle_area"
MEASURE_KINDS = (KIND_DIAMETER, KIND_MAX_TRIANGLE)


class MeasureSeries(Frozen):
    """One spread measure evaluated on sliding windows.

    ``timestamps`` are the ticks of each window's first sample, strictly
    increasing. ``gaps`` flags windows that could not be evaluated; their
    ``values`` entries are a 0.0 placeholder and must be ignored.
    """

    def __init__(self, kind: str, window: int, stride: int, timestamps, values, gaps):
        ts = np.array(timestamps, dtype=int)
        vals = np.array(values, dtype=float)
        gaps = np.array(gaps, dtype=bool)
        if not (ts.shape == vals.shape == gaps.shape) or ts.ndim != 1:
            raise ValueError("timestamps, values, and gaps must be 1-d and equal length")
        if not np.all(ts[1:] > ts[:-1]):  # np.diff wraps for steps of 2^63 or more
            raise ValueError("timestamps must be strictly increasing")
        ok = ~gaps
        if not np.all(np.isfinite(vals[ok])):
            raise ValueError("values must be finite outside gaps")
        if vals[ok].size and vals[ok].min() < 0.0:
            raise ValueError("spread measures are nonnegative")
        if not np.all(vals[gaps] == 0.0):
            raise ValueError("gap placeholders must be exactly 0.0")
        for arr in (ts, vals, gaps):
            arr.setflags(write=False)
        self._set(kind=kind, window=window, stride=stride, timestamps=ts, values=vals, gaps=gaps)

    def __len__(self) -> int:
        return self.timestamps.size

    def segments(self) -> list[tuple[int, int]]:
        """Half-open index ranges of the gap-free runs."""
        edges = np.flatnonzero(np.diff(np.r_[True, self.gaps, True])).tolist()
        return list(zip(edges[::2], edges[1::2]))


def _windows_per_chunk(n: int, window: int) -> int:
    """Windows per chunk: CHUNK_ELEMENTS over the largest per-window array of
    a chunk, the n x K window rows or the n^2 matrices, at least 1. The
    triangle measure's arrays, C(n - i - 1, 2) < n^2 / 2 triples per window
    for first index i, are smaller than both."""
    return max(1, CHUNK_ELEMENTS // max(n * window, n**2))


def correlation_chunks(
    ts_set: TimeSeriesSet, window: int, kinds: Sequence[str], stride: int = 1, at_least: int = 1
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The one window engine of every command. For each chunk of consecutive
    windows, (ms, dist): the indices ms of its windows with no constant
    series (window m starts at sample m * stride), and their angular
    distances of each of ``kinds`` (metric.SPHERICAL, metric.PROJECTIVE) as
    one (len(ms) * len(kinds), n, n) stack, in which matrix len(kinds) * w + k
    is window ms[w]'s kinds[k]. A chunk spans max(at_least,
    _windows_per_chunk(n, K)) windows, the last one fewer; validate asks for
    at_least cli.VALIDATE_BATCH, since its scan is faster on taller stacks.

    A chunk is a (windows, n, K) stack scaled, centred and normalised in one
    array pass by series._window_units, whose proof covers every finite row,
    so no chunk raises. Its unit rows and correlations stay inside the
    engine, freed before the chunk is yielded, and only the caller holds the
    chunk after that. A window longer than the series raises
    WindowTooLongError, and a window below 2 or a stride below 1 ValueError,
    here, before any chunk.
    """
    if window > ts_set.length:
        raise WindowTooLongError(f"window {window} exceeds series length {ts_set.length}")
    if window < 2:
        raise ValueError(f"window size must be >= 2, got {window}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    view = sliding_window_view(ts_set.matrix(), window, axis=1)[:, ::stride]
    size = max(at_least, _windows_per_chunk(len(ts_set), window))
    return (_chunk(view[:, lo : lo + size], lo, kinds) for lo in range(0, view.shape[1], size))


def _chunk(rows: np.ndarray, lo: int, kinds: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """correlation_chunks' chunk of the (n, windows, K) window rows whose
    first window is window lo. The chord rule of metric.angular_distances
    reads the unit rows where |rho| is near 1."""
    units, norms = _window_units(rows.transpose(1, 0, 2).copy())
    good = norms.all(axis=-1)
    ms = good.nonzero()[0] + lo
    if ms.size < len(units):
        units = units[good]
    rho = correlation_from_units(units)
    dist = np.stack([angular_distances(rho, units, kind) for kind in kinds], axis=1)
    return ms, dist.reshape(-1, len(rows), len(rows))


def sliding_measures(
    ts_set: TimeSeriesSet,
    window: int,
    stride: int = 1,
    kinds: Sequence[str] = MEASURE_KINDS,
) -> list[MeasureSeries]:
    """Evaluate spread measures on every sliding window of a series set.

    The window starting at sample t covers samples [t, t + window) and is
    stamped at the tick of sample t. Produces floor((length - window) /
    stride) + 1 points per requested kind. A constant series gaps the window
    for every kind. The measure kinds and the series count are checked first;
    then correlation_chunks raises WindowTooLongError for a window longer
    than the series, and ValueError for a window below 2 or a stride below 1.

    The measures read the projective distances that correlation_chunks hands
    out for each chunk. No window's distances are checked, because every
    window's distances are a metric to within rounding that is proven small,
    and the measures need nothing more. metric.angular_distances, in the
    engine, gives each chunk an exactly symmetric stack with a zero diagonal,
    finite since the unit rows are (series._window_units), with entries in
    [0, pi/2], whose triangle margins are all >= -B(K), with B(K) proven
    there: 3.55e-13 at K = 21 and 1.55e-12 at K = 101, below TRIANGLE_TOL up
    to K near 67,100. So every triple has sides a <= b <= c that
    measures._validate_sides accepts in that range: a >= 0, a + b - c is one
    of those margins bit for bit (the stack is exactly symmetric and IEEE
    addition commutes), and a + b + c <= 3 pi/2 < 2 pi. Beyond that K no
    measure needs the margins within the tolerance: the diameter is a maximum,
    and measures._triangle_areas gives area 0 to any triple whose margin is
    <= TRIANGLE_TOL.

    The diameter of a window is the largest entry of its whole matrix,
    dist.max(axis=(1, 2)) over a chunk. That is the largest entry above the
    diagonal bit for bit: the lower triangle mirrors the upper one exactly,
    and the +0.0 diagonal is no larger than any entry, all of them in
    [0, pi/2] and none -0.0 (angular_distances writes none), so even a
    window of coincident points gives the same +0.0.
    """
    kinds = tuple(kinds)
    if not kinds:
        raise ValueError("at least one measure kind is required")
    for kind in kinds:
        if kind not in MEASURE_KINDS:
            raise ValueError(f"unknown measure {kind!r}; choose from {', '.join(MEASURE_KINDS)}")
        if kinds.count(kind) > 1:
            raise ValueError(f"measure kind {kind!r} is given more than once")
    n = len(ts_set)
    if n < 2:
        raise TooFewPointsError("sliding measures need at least 2 series")
    triangles = KIND_MAX_TRIANGLE in kinds
    if n < 3 and triangles:
        raise TooFewPointsError("the triangle measure needs at least 3 series")

    chunks = correlation_chunks(ts_set, window, (PROJECTIVE,), stride)
    count = (ts_set.length - window) // stride + 1
    # The hop between windows can exceed int64, so it is taken modulo 2^64, as
    # int64 arithmetic wraps; every tick fits int64 (TimeSeriesSet.from_matrix
    # checks it), so each timestamp comes out exact.
    hop = (ts_set.step * stride + 2**63) % 2**64 - 2**63
    timestamps = ts_set.start + hop * np.arange(count)
    values = {kind: np.zeros(count) for kind in kinds}
    gaps = np.ones(count, dtype=bool)  # until evaluated, for every kind

    for ms, dist in chunks:
        gaps[ms] = False
        if KIND_DIAMETER in kinds:
            values[KIND_DIAMETER][ms] = dist.max(axis=(1, 2))
        if triangles:
            values[KIND_MAX_TRIANGLE][ms] = _max_triangle_areas(dist)

    return [
        MeasureSeries(kind, window, stride, timestamps, values[kind], gaps) for kind in kinds
    ]


class Event(NamedTuple):
    """A detected minimum: where, how deep, and how hard to escape.

    ``prominence`` is the smallest climb that leads out of the minimum's
    basin; ``left_base``/``right_base`` are the timestamps of the basin
    extents used to measure it.
    """

    timestamp: int
    value: float
    prominence: float
    left_base: int
    right_base: int


class EventList(Frozen):
    """Detected minima of one measure series, ordered by timestamp, with the
    detector parameters echoed for reproducibility."""

    def __init__(
        self,
        measure_kind: str,
        window: int,
        stride: int,
        min_prominence: float,
        min_separation: int,
        events: tuple[Event, ...],
    ):
        evs = tuple(events)
        for a, b in zip(evs, evs[1:]):
            if b.timestamp <= a.timestamp:
                raise ValueError("events must be strictly ordered by timestamp")
            if b.timestamp - a.timestamp < min_separation:
                raise ValueError("events closer than min_separation survived filtering")
        self._set(measure_kind=measure_kind, window=window, stride=stride,
                  min_prominence=min_prominence, min_separation=min_separation, events=evs)

    def __len__(self) -> int:
        return len(self.events)

    def timestamps(self) -> list[int]:
        return [e.timestamp for e in self.events]

    def to_dict(self) -> dict:
        return {**vars(self), "events": [e._asdict() for e in self.events]}


def _bases(x: list[float]) -> list[int]:
    """For each index i of ``x``, the lowest point of ``x`` from i leftward up
    to, not including, the nearest point strictly higher than x[i]: the base
    that scipy's walk from i to the left reaches. Among equal lows it is the
    one closest to i.

    One left-to-right pass over a stack of (value, base) entries, one for
    each index not yet passed by a point at least as high, whose values
    strictly decrease from bottom to top. An entry stands for the stretch
    from the entry below it to its own index, with that stretch's base. Index
    i pops every entry no higher than x[i], whose stretches join its own, so
    the entry left below it is the nearest strictly higher point. The popped
    stretches lie ever farther from i, so a popped base replaces i's only if
    strictly lower, which keeps the closest of equal lows. Each index is
    pushed once and popped at most once, so the pass is O(L).
    """
    bases = []
    stack: list[tuple[float, int]] = []
    for i, value in enumerate(x):
        base = i
        while stack and stack[-1][0] <= value:
            below = stack.pop()[1]
            if x[below] < x[base]:
                base = below
        stack.append((value, base))
        bases.append(base)
    return bases


def _prominent_peaks(
    x: np.ndarray, min_prominence: float
) -> list[tuple[int, int, float, int, int]]:
    """(peak, left edge, prominence, left base, right base) of each peak of ``x``
    with prominence >= ``min_prominence``, in index order: what
    ``scipy.signal.find_peaks(x, prominence=min_prominence,
    plateau_size=(None, None))`` returns, with the same float arithmetic.

    A peak is a maximal run of equal values above both neighbouring runs; a
    run at either end of ``x`` is none. The run's midpoint is the peak. From
    it each side is walked while ``x <= x[peak]``; the side's base is the
    lowest point reached, the one closest to the peak among equal lows.

    A run of +inf is a wall: it is never a peak, and no walk crosses it, so
    each finite stretch between walls gives what find_peaks gives on it
    alone. The bases come from two passes of _bases, one on the reversed
    ``x``, so the whole is O(L).
    """
    if x.size < 3:
        return []
    starts = np.flatnonzero(np.r_[True, x[1:] != x[:-1]])  # first index of each run
    ends = np.r_[starts[1:], x.size] - 1
    run = x[starts]
    top = run[1:-1]
    tops = np.flatnonzero((top > run[:-2]) & (top > run[2:]) & (top < np.inf)) + 1
    left_edges = starts[tops]
    peaks = (left_edges + ends[tops]) // 2
    values = x.tolist()
    left = np.array(_bases(values))[peaks]
    right = x.size - 1 - np.array(_bases(values[::-1]))[x.size - 1 - peaks]
    prominences = x[peaks] - np.maximum(x[left], x[right])
    keep = prominences >= min_prominence
    return list(zip(*(a[keep].tolist() for a in (peaks, left_edges, prominences, left, right))))


def detect_minima(
    series: MeasureSeries, min_prominence: float, min_separation: int
) -> EventList:
    """Find prominent local minima of a measure series.

    A candidate is a strict local minimum (plateaus report their leftmost
    point) with topographic prominence at least ``min_prominence``. Among
    candidates closer than ``min_separation`` ticks, the deeper one survives,
    ties going to the earlier timestamp. Gaps split the series; no candidate
    is ever detected across or at a gap boundary. An empty result is valid.

    The series is searched in one pass of _prominent_peaks on its negated
    values, with every gap a +inf wall.
    """
    if not min_prominence >= 0.0:  # also rejects NaN
        raise ValueError("min_prominence must be >= 0")
    if min_separation < 0:
        raise ValueError("min_separation must be >= 0")

    ts = series.timestamps
    x = np.where(series.gaps, np.inf, -series.values)
    # i is the leftmost point of a plateau; its midpoint gave the bases
    candidates = [
        Event(int(ts[i]), float(series.values[i]), prom, int(ts[lb]), int(ts[rb]))
        for _, i, prom, lb, rb in _prominent_peaks(x, min_prominence)
    ]

    # Deeper minima claim their neighborhood first; earlier timestamp wins ties.
    # Kept events stay sorted by timestamp, so only the two neighbours of a
    # candidate can be too close.
    candidates.sort(key=lambda e: (e.value, e.timestamp))
    kept: list[Event] = []
    for cand in candidates:
        t = cand.timestamp
        i = bisect.bisect_left(kept, t, key=lambda e: e.timestamp)
        if i > 0 and t - kept[i - 1].timestamp < min_separation:
            continue
        if i < len(kept) and kept[i].timestamp - t < min_separation:
            continue
        kept.insert(i, cand)
    return EventList(
        measure_kind=series.kind,
        window=series.window,
        stride=series.stride,
        min_prominence=min_prominence,
        min_separation=min_separation,
        events=tuple(kept),
    )


class ComparisonReport(NamedTuple):
    """Greedy nearest-timestamp matching of two event lists."""

    kind_a: str
    kind_b: str
    match_window: int
    matched: tuple[tuple[int, int], ...]
    a_only: tuple[int, ...]
    b_only: tuple[int, ...]

    @property
    def count_a(self) -> int:
        return len(self.matched) + len(self.a_only)

    @property
    def count_b(self) -> int:
        return len(self.matched) + len(self.b_only)

    def to_dict(self) -> dict:
        return {
            **self._asdict(),
            "matched": [list(p) for p in self.matched],
            "a_only": list(self.a_only),
            "b_only": list(self.b_only),
            "count_a": self.count_a,
            "count_b": self.count_b,
            "n_matched": len(self.matched),
        }


def compare_event_sets(a: EventList, b: EventList, match_window: int) -> ComparisonReport:
    """Match events of two lists from the same timeline.

    Candidate pairs within ``match_window`` ticks are taken greedily by
    increasing timestamp gap (earlier pairs first on ties); every event
    matches at most once. Both lists are strictly increasing, so each
    event's candidates are one run of the other list, found by bisection.
    """
    if match_window < 0:
        raise ValueError("match_window must be >= 0")
    ta = a.timestamps()
    tb = b.timestamps()
    pairs = []
    for i, x in enumerate(ta):
        lo = bisect.bisect_left(tb, x - match_window)
        hi = bisect.bisect_right(tb, x + match_window)
        pairs += [(abs(x - tb[j]), x, tb[j], i, j) for j in range(lo, hi)]
    pairs.sort()
    used_a: set[int] = set()
    used_b: set[int] = set()
    matched = []
    for _, x, y, i, j in pairs:
        if i in used_a or j in used_b:
            continue
        used_a.add(i)
        used_b.add(j)
        matched.append((x, y))
    matched.sort()
    a_only = tuple(x for i, x in enumerate(ta) if i not in used_a)
    b_only = tuple(y for j, y in enumerate(tb) if j not in used_b)
    return ComparisonReport(
        kind_a=a.measure_kind,
        kind_b=b.measure_kind,
        match_window=match_window,
        matched=tuple(matched),
        a_only=a_only,
        b_only=b_only,
    )
