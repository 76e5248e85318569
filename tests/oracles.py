"""Reference oracles that the tests hold the engine to.

No module of the package imports this one; the package ships only what its
commands run. Each oracle cross-checks the engine by another route:

* one window at a time: WindowSpec (one window's start and size),
  _one_window_units (series._window_units on one window, with the fit and
  constant-series checks), window_correlations, the per-window reference
  for the correlations of a chunk, and window_measures, the per-window
  reference for sliding_measures;
* one series or one pair at a time: window_vector, a CenteredUnitVector
  that checks its own sum and norm, and pearson_rho, the dot product of
  two of them;
* one kind at a time: distances_of_kind, each kind of angular distance by
  its own chord pass, the reference for metric.spherical_distances, which
  reuses the projective chord angle;
* one triangle at a time: max_triangle_area, the brute-force reference for
  measures._max_triangle_areas, and girard_area, vertex-angle triangle
  areas against measures.spherical_triangle_area's L'Huilier route;
* all triangles at once: verify_metric_axioms, the metric axioms of any
  square matrix from all n^3 of its triangle margins, the reference for
  validate's scan and its triple locator;
* all event pairs at once: compare_all_pairs, events.compare_event_sets from
  every pair of the two lists, the reference for its bisection;
* one gap-free segment at a time: detect_minima_by_segments,
  events.detect_minima from scipy.signal.find_peaks on each segment, the
  reference for its one pass with gaps as walls;
* one series at a time: simulate_by_series, testkit.simulate as a loop that
  builds one TimeSeries per series, the reference for its in-place rows.
"""

from __future__ import annotations

import bisect
import itertools
import math
from typing import NamedTuple

import numpy as np
from scipy.signal import find_peaks

from corrgeom.errors import CorrGeomError
from corrgeom.events import (
    KIND_DIAMETER,
    KIND_MAX_TRIANGLE,
    ComparisonReport,
    Event,
    EventList,
    MeasureSeries,
)
from corrgeom.measures import _validate_sides, spherical_triangle_area
from corrgeom.metric import (
    NEAR_ONE,
    SPHERICAL,
    TRIANGLE_TOL,
    angular_distances,
    correlation_from_units,
)
from corrgeom.series import (
    Frozen,
    TimeSeries,
    TimeSeriesSet,
    _window_units,
)
from corrgeom.testkit import DRIVER_PERIOD, OWN_PERIOD_RANGE, SyntheticSpec

# CenteredUnitVector's invariants, |sum(components)| <= SUM_TOL * K and
# | ||v|| - 1 | <= NORM_TOL: a reference the tests hold window_vector to. The
# engine checks no unit row; series._window_units proves them.
SUM_TOL = 1e-12
NORM_TOL = 1e-12


class ZeroVarianceError(CorrGeomError):
    """A window is constant, so it has no direction on the sphere."""


class WindowSpec(Frozen):
    """A summation window: ``size`` consecutive samples starting at sample
    index ``t`` (an index into the series, not a tick). ``stride`` is the
    hop between consecutive windows in sliding analyses."""

    def __init__(self, t: int, size: int, stride: int = 1):
        if t < 0:
            raise ValueError(f"window start index must be >= 0, got {t}")
        if size < 2:
            raise ValueError(f"window size must be >= 2, got {size}")
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        self._set(t=t, size=size, stride=stride)


def _one_window_units(values: np.ndarray, ids, w: WindowSpec) -> np.ndarray:
    """series._window_units for the rows of an (n, length) array over window w.
    Raises ValueError where w does not fit and ZeroVarianceError naming the
    first constant row."""
    length = values.shape[1]
    if w.t + w.size > length:
        raise ValueError(
            f"window [{w.t}, {w.t + w.size}) does not fit in a series of length {length}"
        )
    units, norms = _window_units(values[:, w.t : w.t + w.size].copy())
    if not norms.all():
        raise ZeroVarianceError(
            f"series {ids[np.argmin(norms)]!r} is constant on window [{w.t}, {w.t + w.size})"
        )
    return units


def window_correlations(ts_set: TimeSeriesSet, w: WindowSpec) -> np.ndarray:
    """The (n, n) correlations of a set over one window: its centered unit
    vectors, stacked (n, K), through correlation_from_units. Raises
    ZeroVarianceError naming the first series constant on the window."""
    return correlation_from_units(_one_window_units(ts_set.matrix(), ts_set.ids, w))


def distances_of_kind(rho: np.ndarray, units: np.ndarray, kind: str) -> np.ndarray:
    """Angular distances of ``kind`` (metric.SPHERICAL or metric.PROJECTIVE)
    between the unit rows ``units`` (..., n, K) whose correlations are
    ``rho``, each kind by its own chord pass. An entry i < j with
    |rho| <= 1 - NEAR_ONE is arccos(rho) for spherical and arccos(|rho|)
    for projective. Any other is taken from the chord: with s = sign(rho),
    phi = 2 asin(||x_i - s x_j|| / 2) is the projective distance, and the
    spherical one is phi where rho > 0, else pi - phi. Each is mirrored to
    j, i, and the diagonal is exactly zero."""
    magnitude = np.abs(rho)
    entries = np.arccos(rho if kind == SPHERICAL else magnitude)
    near = magnitude > 1.0 - NEAR_ONE
    idx = np.arange(entries.shape[-1])
    near[..., idx, idx] = False
    if near.any():
        *lead, i, j = np.nonzero(np.triu(near))
        sign = np.sign(rho[(*lead, i, j)])
        chord = np.linalg.norm(units[(*lead, i)] - sign[:, None] * units[(*lead, j)], axis=-1)
        phi = 2.0 * np.arcsin(chord / 2.0)
        if kind == SPHERICAL:
            phi = np.where(sign > 0.0, phi, math.pi - phi)
        entries[(*lead, i, j)] = entries[(*lead, j, i)] = phi
    entries[..., idx, idx] = 0.0
    return entries


def max_triangle_area(d: np.ndarray) -> float:
    """Largest spherical_triangle_area over the triples of an (n, n) distance
    matrix, n >= 3, one triple at a time. Raises InvalidTriangleError for the
    first triple in lexicographic order whose sides are invalid."""
    return max(
        spherical_triangle_area(d[i, j], d[i, k], d[j, k])
        for i, j, k in itertools.combinations(range(len(d)), 3)
    )


def window_measures(ts_set: TimeSeriesSet, window: int) -> tuple[np.ndarray, dict]:
    """Gaps and the diameter and max-triangle values of every window of a set
    at stride 1, one window and one pair or triple at a time: window_vector
    per series, pairwise dots, angular_distances on the one matrix, then the
    largest entry and the scalar spherical_triangle_area on every triple
    (max_triangle_area), n >= 3. A window with a constant series is a gap."""
    n = len(ts_set)
    count = ts_set.length - window + 1
    gaps = np.zeros(count, dtype=bool)
    diameters = np.zeros(count)
    triangles = np.zeros(count)
    for m in range(count):
        try:
            units = np.array([window_vector(s, WindowSpec(m, window)).components
                              for s in ts_set.series])
        except ZeroVarianceError:
            gaps[m] = True
            continue
        rho = np.eye(n)
        for i, j in itertools.combinations(range(n), 2):
            rho[i, j] = rho[j, i] = min(1.0, max(-1.0, float(units[i] @ units[j])))
        d = angular_distances(rho, units)
        diameters[m] = max(d[i, j] for i, j in itertools.combinations(range(n), 2))
        triangles[m] = max_triangle_area(d)
    return gaps, {KIND_DIAMETER: diameters, KIND_MAX_TRIANGLE: triangles}


class CenteredUnitVector(Frozen):
    """A windowed sample vector with the window mean removed and unit
    Euclidean norm: a point on the sphere S^(K-1). ``window_start`` is the
    tick of the first sample in the window."""

    def __init__(self, components: np.ndarray, source_id: str, window_start: int):
        arr = np.array(components, dtype=float)
        arr.setflags(write=False)
        if not abs(arr.sum()) <= SUM_TOL * arr.size:  # also rejects NaN
            raise ValueError(f"components of {source_id!r} do not sum to zero within {SUM_TOL}*K")
        norm = np.linalg.norm(arr)
        if not abs(norm - 1.0) <= NORM_TOL:
            raise ValueError(f"components of {source_id!r} are not unit length (norm {norm})")
        self._set(components=arr, source_id=source_id, window_start=window_start)


def window_vector(s: TimeSeries, w: WindowSpec) -> CenteredUnitVector:
    """One series' window as a CenteredUnitVector, centred and scaled as in
    window_correlations. Raises ZeroVarianceError for a constant window."""
    unit = _one_window_units(s.values[None, :], (s.id,), w)[0]
    return CenteredUnitVector(unit, s.id, s.tick(w.t))


def pearson_rho(a: TimeSeries, b: TimeSeries, w: WindowSpec) -> float:
    """Pearson correlation over one window, clamped to [-1, 1].

    Computed as the dot product of the two centered unit vectors; clamping
    guards arccos against the ~1e-16 excursions of floating-point dots.
    Raises ZeroVarianceError if either window is constant.
    """
    if (a.start, a.step, len(a)) != (b.start, b.step, len(b)):
        raise ValueError(
            f"series {a.id!r} and {b.id!r} are not aligned"
        )
    ua = window_vector(a, w)
    ub = window_vector(b, w)
    return float(min(1.0, max(-1.0, float(np.dot(ua.components, ub.components)))))


def girard_area(a: float, b: float, c: float) -> float:
    """Spherical triangle area as the angle sum minus pi (Girard).

    Vertex angles come from the spherical law of cosines,

        cos A = (cos a - cos b cos c) / (sin b sin c),

    an entirely different route than L'Huilier's half-side tangents, which is
    what makes this a useful cross-check. Less accurate near degenerate
    triangles, where arccos is poorly conditioned.
    """
    sa, sb, sc, _ = _validate_sides(a, b, c)
    sides = (sa, sb, sc)
    if min(sides) <= TRIANGLE_TOL:
        return 0.0
    total = 0.0
    for i in range(3):
        opp = sides[i]
        s1, s2 = sides[(i + 1) % 3], sides[(i + 2) % 3]
        cos_angle = (math.cos(opp) - math.cos(s1) * math.cos(s2)) / (
            math.sin(s1) * math.sin(s2)
        )
        total += math.acos(min(1.0, max(-1.0, cos_angle)))
    return total - math.pi


class TriangleViolation(NamedTuple):
    i: int
    j: int
    k: int
    margin: float


class MetricReport(NamedTuple):
    """Outcome of checking the metric axioms on a square matrix."""

    n: int
    passed: bool
    max_symmetry_error: float
    max_diagonal_error: float
    min_entry: float
    min_triangle_margin: float
    worst_triple: tuple[int, int, int] | None
    violations: tuple[TriangleViolation, ...]

    def summary(self) -> str:
        state = "pass" if self.passed else "FAIL"
        return (
            f"{state}: n={self.n} min_triangle_margin={self.min_triangle_margin:.3e} "
            f"symmetry={self.max_symmetry_error:.3e} diag={self.max_diagonal_error:.3e} "
            f"min_entry={self.min_entry:.3e} violations={len(self.violations)}"
        )


def _triangle_margins(m: np.ndarray) -> np.ndarray:
    """margins[i, j, k] = d(i,j) + d(j,k) - d(i,k) of an (n, n) matrix, inf
    wherever two of i, j, k coincide: an (n, n, n) array."""
    margins = m[:, :, None] + m[None, :, :]
    margins -= m[:, None, :]
    idx = np.arange(len(m))
    margins[idx, idx, :] = np.inf
    margins[:, idx, idx] = np.inf
    margins[idx, :, idx] = np.inf
    return margins


def verify_metric_axioms(matrix) -> MetricReport:
    """Check nonnegativity, zero diagonal, symmetry, and every triangle.

    The n^3 reference for any square matrix, symmetric or not. Violations are
    report content, not errors; the worst triple and its margin
    (d_ij + d_jk - d_ik, negative when violated) are always reported. The
    minimum margin, its first triple and every violated triple are read from
    one _triangle_margins array of the matrix, 8 n^3 bytes: 0.26 MB at
    n = 32, 2.1 MB at n = 64 and 16.8 MB at n = 128. The matrix passes when
    the symmetry and diagonal errors are at most TRIANGLE_TOL and neither the
    minimum entry nor any margin is below -TRIANGLE_TOL, the one tolerance
    validate applies; a NaN anywhere fails. Its worst_triple is the one
    metric._first_min_triple must locate from the minimum margin alone. A violation is a triple
    whose margin is below -TRIANGLE_TOL.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    n = m.shape[0]
    symmetry = float(np.abs(m - m.T).max(initial=0.0))
    diagonal = float(np.abs(m.diagonal()).max(initial=0.0))
    min_entry = float(m.min(initial=0.0))
    min_margin, worst, found = math.inf, None, {}
    if n >= 3:
        margins = _triangle_margins(m)
        at = margins.argmin()  # the first smallest, NaN first; 0 where all are +inf
        min_margin = float(margins.flat[at])
        worst = tuple(sorted(int(x) for x in np.unravel_index(at, margins.shape)))
        for i, j, k in np.argwhere(margins < -TRIANGLE_TOL):
            key = tuple(sorted((int(i), int(j), int(k))))
            val = float(margins[i, j, k])
            if key not in found or val < found[key]:
                found[key] = val

    violations = tuple(
        TriangleViolation(*key, margin=found[key]) for key in sorted(found)
    )
    passed = (np.maximum(symmetry, diagonal) <= TRIANGLE_TOL) & (
        np.minimum(min_entry, min_margin) >= -TRIANGLE_TOL
    )
    return MetricReport(
        n=n,
        passed=bool(passed),
        max_symmetry_error=symmetry,
        max_diagonal_error=diagonal,
        min_entry=min_entry,
        min_triangle_margin=min_margin,
        worst_triple=worst,
        violations=violations,
    )


def compare_all_pairs(a: EventList, b: EventList, match_window: int) -> ComparisonReport:
    """events.compare_event_sets with its candidate pairs taken from all
    len(a) * len(b) pairs of the two lists."""
    if match_window < 0:
        raise ValueError("match_window must be >= 0")
    ta = a.timestamps()
    tb = b.timestamps()
    pairs = [
        (abs(x - y), x, y, i, j)
        for i, x in enumerate(ta)
        for j, y in enumerate(tb)
        if abs(x - y) <= match_window
    ]
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


def detect_minima_by_segments(
    series: MeasureSeries, min_prominence: float, min_separation: int
) -> EventList:
    """events.detect_minima with each gap-free segment of ``series`` searched
    apart, by scipy.signal.find_peaks on its negated values, and the same
    separation rule, kept timestamps in a list of their own."""
    candidates = []
    for lo, hi in series.segments():
        vals = series.values[lo:hi]
        ts = series.timestamps[lo:hi]
        _, props = find_peaks(-vals, prominence=min_prominence, plateau_size=(None, None))
        for i, prom, lb, rb in zip(props["left_edges"], props["prominences"],
                                   props["left_bases"], props["right_bases"]):
            candidates.append(
                Event(int(ts[i]), float(vals[i]), float(prom), int(ts[lb]), int(ts[rb]))
            )
    candidates.sort(key=lambda e: (e.value, e.timestamp))
    kept_ts: list[int] = []
    kept: list[Event] = []
    for cand in candidates:
        t = cand.timestamp
        i = bisect.bisect_left(kept_ts, t)
        if i > 0 and t - kept_ts[i - 1] < min_separation:
            continue
        if i < len(kept_ts) and kept_ts[i] - t < min_separation:
            continue
        kept_ts.insert(i, t)
        kept.insert(i, cand)
    return EventList(series.kind, series.window, series.stride, min_prominence,
                     min_separation, tuple(kept))


def simulate_by_series(spec: SyntheticSpec) -> TimeSeriesSet:
    """testkit.simulate one series at a time: each series is built as its
    own TimeSeries from its sinusoid plus its noise row, and each episode's
    range is rewritten as the blend plus the noise, then the series are
    stacked into a set. The same draws in the same order as simulate."""
    rng = np.random.default_rng(spec.rng_seed)
    t = np.arange(spec.length, dtype=float)
    driver = np.sin(2 * math.pi * t / DRIVER_PERIOD + rng.uniform(0.0, 2 * math.pi))
    lo, hi = OWN_PERIOD_RANGE
    periods = rng.uniform(lo, hi, spec.n_series)
    phases = rng.uniform(0.0, 2 * math.pi, spec.n_series)
    noise = rng.normal(0.0, spec.noise_sigma, (spec.n_series, spec.length))

    series = []
    for i in range(spec.n_series):
        own = np.sin(2 * math.pi * t / periods[i] + phases[i])
        x = own + noise[i]
        for s, e, lam in spec.episodes:
            x[s:e] = lam * driver[s:e] + (1.0 - lam) * own[s:e] + noise[i, s:e]
        series.append(TimeSeries(f"s{i + 1}", 0, 1, x))
    return TimeSeriesSet(tuple(series))
