"""An independent triangle-area oracle and a synthetic phase-locking generator.

Only the CLI's simulate command imports this module, and only when it runs.
It exists to cross-check the geometry by another route (vertex-angle triangle
areas) and to manufacture time series with planted coupling episodes for
end-to-end detection tests.

All randomness comes from numpy's default PCG64 generator seeded explicitly,
so every synthetic dataset is reproducible within this build for a fixed
seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import _validate_sides
from .metric import TRIANGLE_TOL
from .series import TimeSeries, TimeSeriesSet


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


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for synthetic series with planted coupling episodes.

    Outside episodes every series is an independent slow sinusoid plus
    Gaussian noise. Inside an episode of strength lam each series becomes
    lam * shared_driver + (1 - lam) * own_process + noise, so lam = 1 with
    vanishing noise drives all pairwise correlations to +-1 and every spread
    measure to zero. Episodes are half-open [start, end) index ranges.
    """

    n_series: int
    length: int
    episodes: tuple[tuple[int, int, float], ...]
    noise_sigma: float
    rng_seed: int
    driver_period: float = 20.0
    own_period_range: tuple[float, float] = (60.0, 120.0)

    def __post_init__(self):
        if self.n_series < 1:
            raise ValueError("need at least one series")
        if self.length < 1:
            raise ValueError("length must be positive")
        if not self.noise_sigma > 0.0:
            raise ValueError("noise_sigma must be > 0")
        eps = tuple((int(s), int(e), float(lam)) for s, e, lam in self.episodes)
        prev_end = 0
        for s, e, lam in eps:
            if not 0 <= s < e <= self.length:
                raise ValueError(f"episode ({s}, {e}) out of range")
            if s < prev_end:
                raise ValueError("episodes must be sorted and non-overlapping")
            if not 0.0 <= lam <= 1.0:
                raise ValueError(f"coupling strength {lam} outside [0, 1]")
            prev_end = e
        object.__setattr__(self, "episodes", eps)


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
