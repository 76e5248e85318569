"""Reference oracles and a synthetic phase-locking generator.

No module of the library imports this one at start-up: the CLI's simulate
command imports it when it runs, and the benchmark and the tests import it.
It cross-checks the engine by other routes:

* one window at a time: WindowSpec (one window's start and size),
  _one_window_units (series._window_units on one window, with the fit and
  constant-series checks), window_correlations, the per-window reference
  for the correlations of a chunk, and window_measures, the per-window
  reference for sliding_measures;
* one series, one pair or one correlation at a time;
* one triangle at a time: max_triangle_area, the brute-force reference for
  measures._max_triangle_areas, and vertex-angle triangle areas.

It also manufactures time series with planted coupling episodes for
end-to-end detection tests.

All randomness comes from numpy's default PCG64 generator seeded explicitly,
so every synthetic dataset is reproducible within this build for a fixed
seed.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .correlation import correlation_from_units
from .errors import CorrGeomError
from .events import KIND_DIAMETER, KIND_MAX_TRIANGLE
from .measures import _validate_sides, spherical_triangle_area
from .metric import PROJECTIVE, TRIANGLE_TOL, angular_distances
from .series import (
    Frozen,
    TimeSeries,
    TimeSeriesSet,
    _as_readonly_floats,
    _window_units,
)

# CenteredUnitVector's invariants, |sum(components)| <= SUM_TOL * K and
# | ||v|| - 1 | <= NORM_TOL: a reference the tests hold window_vector to. The
# engine checks no unit row; series._window_units proves them.
SUM_TOL = 1e-12
NORM_TOL = 1e-12


class ZeroVarianceError(CorrGeomError):
    """A window is constant, so it has no direction on the sphere."""


class AngleDomainError(CorrGeomError, ValueError):
    """A correlation value lies outside [-1, 1]."""


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
        d = angular_distances(rho, units, PROJECTIVE)
        diameters[m] = max(d[i, j] for i, j in itertools.combinations(range(n), 2))
        triangles[m] = max_triangle_area(d)
    return gaps, {KIND_DIAMETER: diameters, KIND_MAX_TRIANGLE: triangles}


class CenteredUnitVector(Frozen):
    """A windowed sample vector with the window mean removed and unit
    Euclidean norm: a point on the sphere S^(K-1). ``window_start`` is the
    tick of the first sample in the window."""

    def __init__(self, components: np.ndarray, source_id: str, window_start: int):
        arr = _as_readonly_floats(components)
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


def _check_rho(rho: float) -> float:
    rho = float(rho)
    if not -1.0 <= rho <= 1.0:
        raise AngleDomainError(f"correlation must lie in [-1, 1], got {rho}")
    return rho


def correlation_angle(rho: float) -> float:
    """arccos(rho): angular distance on the sphere, in [0, pi]."""
    return math.acos(_check_rho(rho))


def projective_angle(rho: float) -> float:
    """arccos(|rho|): angular distance on projective space, in [0, pi/2].

    Equals the correlation angle when that angle is at most pi/2, and its
    supplement otherwise.
    """
    return math.acos(abs(_check_rho(rho)))


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


# ---------------------------------------------------------------------------
# Synthetic phase-locking generator
# ---------------------------------------------------------------------------


class SyntheticSpec(Frozen):
    """Recipe for synthetic series with planted coupling episodes.

    Outside episodes every series is an independent slow sinusoid plus
    Gaussian noise. Inside an episode of strength lam each series becomes
    lam * shared_driver + (1 - lam) * own_process + noise, so lam = 1 with
    vanishing noise drives all pairwise correlations to +-1 and every spread
    measure to zero. Episodes are half-open [start, end) index ranges.
    """

    def __init__(
        self,
        n_series: int,
        length: int,
        episodes: tuple[tuple[int, int, float], ...],
        noise_sigma: float,
        rng_seed: int,
        driver_period: float = 20.0,
        own_period_range: tuple[float, float] = (60.0, 120.0),
    ):
        if n_series < 1:
            raise ValueError("need at least one series")
        if length < 1:
            raise ValueError("length must be positive")
        if not noise_sigma > 0.0:
            raise ValueError("noise_sigma must be > 0")
        eps = tuple((int(s), int(e), float(lam)) for s, e, lam in episodes)
        prev_end = 0
        for s, e, lam in eps:
            if not 0 <= s < e <= length:
                raise ValueError(f"episode ({s}, {e}) out of range")
            if s < prev_end:
                raise ValueError("episodes must be sorted and non-overlapping")
            if not 0.0 <= lam <= 1.0:
                raise ValueError(f"coupling strength {lam} outside [0, 1]")
            prev_end = e
        self._set(n_series=n_series, length=length, episodes=eps, noise_sigma=noise_sigma,
                  rng_seed=rng_seed, driver_period=driver_period,
                  own_period_range=own_period_range)


def simulate(spec: SyntheticSpec) -> TimeSeriesSet:
    """Generate the series set described by ``spec``.

    Deterministic for a fixed seed: the draw order (driver phase, per-series
    periods and phases, noise) never depends on the episode list, so a zero-
    strength episode reproduces the unperturbed output bit for bit.
    """
    rng = np.random.default_rng(spec.rng_seed)
    t = np.arange(spec.length, dtype=float)
    driver = np.sin(2 * math.pi * t / spec.driver_period + rng.uniform(0.0, 2 * math.pi))
    lo, hi = spec.own_period_range
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


BENCHMARK_WINDOW = 21
BENCHMARK_MIN_SEPARATION = 21
# Prominence is a quantity in each measure's own units (radians for the
# diameter, steradians for triangle areas), so the benchmark carries one
# threshold per measure rather than pretending the units compare.
BENCHMARK_MIN_PROMINENCE = {"diameter": 0.5, "max_triangle_area": 0.15}


def coupling_benchmark(seed: int, window: int = BENCHMARK_WINDOW) -> SyntheticSpec:
    """The canonical planted-episode benchmark: four series of length 500
    with two strength-0.9 episodes of three windows each."""
    span = 3 * window
    return SyntheticSpec(
        n_series=4,
        length=500,
        episodes=((120, 120 + span, 0.9), (340, 340 + span, 0.9)),
        noise_sigma=0.1,
        rng_seed=seed,
    )
