"""sliding_measures against a per-window reference on the scalar route."""

import itertools

import numpy as np
import pytest

from corrgeom import (
    KIND_DIAMETER,
    KIND_MAX_TRIANGLE,
    CorrelationMatrix,
    MeasureSeries,
    TimeSeries,
    TimeSeriesSet,
    WindowSpec,
    ZeroVarianceError,
    detect_minima,
    distance_matrix,
    sliding_measures,
    spherical_triangle_area,
    window_vector,
)
from corrgeom.testkit import (
    BENCHMARK_MIN_PROMINENCE,
    BENCHMARK_MIN_SEPARATION,
    BENCHMARK_WINDOW,
    SyntheticSpec,
    coupling_benchmark,
    simulate,
)


def reference_measures(data, window):
    """Gaps, diameter and max-triangle values, one window and one pair or
    triple at a time: window_vector per series, pairwise dots, then the
    scalar spherical_triangle_area on every triple."""
    n = len(data)
    count = data.length - window + 1
    gaps = np.zeros(count, dtype=bool)
    diam = np.zeros(count)
    tri = np.zeros(count)
    for m in range(count):
        try:
            units = [window_vector(s, WindowSpec(m, window)).components for s in data.series]
        except ZeroVarianceError:
            gaps[m] = True
            continue
        rho = np.eye(n)
        for i, j in itertools.combinations(range(n), 2):
            rho[i, j] = rho[j, i] = min(1.0, max(-1.0, float(units[i] @ units[j])))
        d = distance_matrix(CorrelationMatrix(data.ids, rho)).values
        diam[m] = max(d[i, j] for i, j in itertools.combinations(range(n), 2))
        tri[m] = max(
            spherical_triangle_area(d[i, j], d[i, k], d[j, k])
            for i, j, k in itertools.combinations(range(n), 3)
        )
    return gaps, {KIND_DIAMETER: diam, KIND_MAX_TRIANGLE: tri}


def held_input():
    """Six planted series with one held constant for 30 samples (> K)."""
    data = simulate(SyntheticSpec(6, 200, ((60, 120, 0.9),), 0.1, 5))
    values = data.series[2].values.copy()
    values[100:130] = values[100]
    series = list(data.series)
    series[2] = TimeSeries(series[2].id, 0, 1, values)
    return TimeSeriesSet(tuple(series))


# (input, windows gapped): the held series gaps the 30 - 21 + 1 windows inside it.
INPUTS = [
    pytest.param(simulate(coupling_benchmark(seed)), 0, id=f"benchmark{seed}")
    for seed in range(3)
]
INPUTS.append(pytest.param(held_input(), 10, id="held"))


@pytest.mark.parametrize("data, n_gaps", INPUTS)
def test_sliding_measures_match_scalar_route(data, n_gaps):
    window = BENCHMARK_WINDOW
    gaps, want = reference_measures(data, window)
    assert gaps.sum() == n_gaps
    got = sliding_measures(data, window)
    assert [s.kind for s in got] == [KIND_DIAMETER, KIND_MAX_TRIANGLE]
    for series in got:
        assert np.array_equal(series.timestamps, np.arange(data.length - window + 1))
        assert np.array_equal(series.gaps, gaps)
        assert np.abs(series.values - want[series.kind]).max() <= 1e-12
        reference = MeasureSeries(series.kind, window, 1, series.timestamps, want[series.kind], gaps)
        prominence = BENCHMARK_MIN_PROMINENCE[series.kind]
        found = detect_minima(series, prominence, BENCHMARK_MIN_SEPARATION).events
        expected = detect_minima(reference, prominence, BENCHMARK_MIN_SEPARATION).events
        assert [(e.timestamp, e.left_base, e.right_base) for e in found] == [
            (e.timestamp, e.left_base, e.right_base) for e in expected
        ]
        for e, r in zip(found, expected):
            assert e.value == pytest.approx(r.value, abs=1e-12)
            assert e.prominence == pytest.approx(r.prominence, abs=1e-12)
