"""A synthetic phase-locking generator: time series with planted coupling
episodes, for the simulate command, the benchmark and end-to-end detection
tests.

All randomness comes from numpy's default PCG64 generator seeded explicitly,
so every synthetic dataset is reproducible within this build for a fixed
seed.

The per-window reference oracles that the tests hold the engine to live in
tests/oracles.py, not here: no command runs them, and the package ships only
what its commands run. This module imports nothing from the package except
.series, and a test keeps it that way.
"""

from __future__ import annotations

import math

import numpy as np

from .series import Frozen, TimeSeries, TimeSeriesSet

# The shared driver's period, and the range each series' own period is drawn
# from, in samples: the driver cycles three to six times faster than any
# series does alone.
DRIVER_PERIOD = 20.0
OWN_PERIOD_RANGE = (60.0, 120.0)


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
    ):
        if n_series < 1:
            raise ValueError("need at least one series")
        if length < 1:
            raise ValueError("length must be positive")
        if not 0.0 < noise_sigma < math.inf:  # also rejects NaN
            raise ValueError(f"noise_sigma must be finite and > 0, got {noise_sigma}")
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
                  rng_seed=rng_seed)


def simulate(spec: SyntheticSpec) -> TimeSeriesSet:
    """Generate the series set described by ``spec``.

    Deterministic for a fixed seed: the draw order (driver phase, per-series
    periods and phases, noise) never depends on the episode list, so a zero-
    strength episode reproduces the unperturbed output bit for bit.
    """
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


BENCHMARK_WINDOW = 21
BENCHMARK_MIN_SEPARATION = 21
# Prominence is a quantity in each measure's own units (radians for the
# diameter, steradians for triangle areas), so the benchmark carries one
# threshold per measure rather than pretending the units compare.
BENCHMARK_MIN_PROMINENCE = {"diameter": 0.5, "max_triangle_area": 0.15}


def coupling_benchmark(seed: int) -> SyntheticSpec:
    """The canonical planted-episode benchmark: four series of length 500
    with two strength-0.9 episodes of three windows each."""
    span = 3 * BENCHMARK_WINDOW
    return SyntheticSpec(
        n_series=4,
        length=500,
        episodes=((120, 120 + span, 0.9), (340, 340 + span, 0.9)),
        noise_sigma=0.1,
        rng_seed=seed,
    )
