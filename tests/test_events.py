"""The events layer: sliding_measures against a per-window reference on the
scalar route and under permuting and negating series, detect_minima and its
prominence routine against scipy.signal.find_peaks (on long series and
between +inf walls too), its gaps against a per-segment reference and its
separation rule against a brute-force one, and compare_event_sets against its
all-pairs reference."""

import tracemalloc
import weakref

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks

from corrgeom import (
    KIND_DIAMETER,
    KIND_MAX_TRIANGLE,
    Event,
    EventList,
    MeasureSeries,
    TimeSeries,
    TimeSeriesSet,
    compare_event_sets,
    detect_minima,
    sliding_measures,
)
from corrgeom import metric
from corrgeom.events import (
    CHUNK_ELEMENTS,
    _prominent_peaks,
    _windows_per_chunk,
    correlation_chunks,
)
from corrgeom.metric import NEAR_ONE, angular_distances, correlation_from_units
from corrgeom.series import _window_units
from corrgeom.testkit import (
    BENCHMARK_MIN_PROMINENCE,
    BENCHMARK_MIN_SEPARATION,
    BENCHMARK_WINDOW,
    SyntheticSpec,
    coupling_benchmark,
    simulate,
)
from oracles import compare_all_pairs, detect_minima_by_segments, window_measures


def held_input():
    """Six planted series with one held constant for 30 samples (> K)."""
    data = simulate(SyntheticSpec(6, 200, ((60, 120, 0.9),), 0.1, 5))
    values = data.series[2].values.copy()
    values[100:130] = values[100]
    series = list(data.series)
    series[2] = TimeSeries(series[2].id, 0, 1, values)
    return TimeSeriesSet(tuple(series))


# (input, windows gapped): the held series gaps the 30 - 21 + 1 windows inside it.
INPUTS = [(f"benchmark{seed}", simulate(coupling_benchmark(seed)), 0) for seed in range(3)]
INPUTS.append(("held", held_input(), 10))

# events.CHUNK_ELEMENTS settings: the default, one window per chunk, and 7
# windows per chunk on the held input (n=6, K=21: its largest per-window
# array is the 6 * 21 window rows), whose chunk boundary at window 105 splits
# the gap run 100..109.
CHUNKS = [(None, ""), (1, "-chunk1"), (7 * 6 * 21, "-chunk7")]


@pytest.mark.parametrize("n", [32, 64])
def test_wide_windows_share_a_chunk(n):
    # n^2 slabs, not n^3 margins: at K=101 the n x K window rows are largest.
    size = _windows_per_chunk(n, 101)
    assert size > 1
    assert size * max(n * 101, n * n) <= CHUNK_ELEMENTS


@pytest.mark.parametrize("chunk_elements", [None, 1])
@pytest.mark.parametrize("at_least", [1, 3, 40])
def test_chunks_span_the_larger_of_at_least_and_the_element_target(
    monkeypatch, at_least, chunk_elements
):
    # 480 gap-free windows of n = 4, K = 21: 390 to a chunk at the default
    # CHUNK_ELEMENTS, and at_least of them where it allows only one.
    set_chunk_elements(monkeypatch, chunk_elements)
    data = simulate(coupling_benchmark(0))
    size = max(at_least, _windows_per_chunk(len(data), BENCHMARK_WINDOW))
    chunks = correlation_chunks(data, BENCHMARK_WINDOW, 1, at_least)
    chunks = [ms for ms, _, _ in chunks]
    assert [len(ms) for ms in chunks[:-1]] == [size] * (len(chunks) - 1)
    assert 0 < len(chunks[-1]) <= size
    assert np.array_equal(np.concatenate(chunks), np.arange(data.length - BENCHMARK_WINDOW + 1))


@pytest.mark.parametrize(
    "data", [simulate(coupling_benchmark(0)), held_input()], ids=["benchmark0", "held"]
)
def test_a_chunks_unit_rows_are_freed_before_it_is_yielded(monkeypatch, data):
    # The engine yields a chunk's correlations and distances, and once next()
    # returns no array holds its unit rows. The held input's first chunk has
    # gapped windows, whose unit rows the engine filters out into a copy.
    held = []

    def window_units(seg):
        units, norms = _window_units(seg)
        held.append(weakref.ref(units))
        return units, norms

    def correlations(units):
        rho = correlation_from_units(units)
        held.extend([weakref.ref(units), weakref.ref(rho)])
        return rho

    monkeypatch.setattr("corrgeom.events._window_units", window_units)
    monkeypatch.setattr("corrgeom.events.correlation_from_units", correlations)
    chunk = next(correlation_chunks(data, BENCHMARK_WINDOW, 1, 3))
    assert len(chunk[0]) > 0 and len(held) == 3
    assert [ref() for ref in held[:2]] == [None] * 2
    assert held[2]() is chunk[1]  # the correlations are handed out


# Inputs of the engine-contract test: the CI near-copies (simulate --episodes
# 100:300:1 --noise-sigma 1e-9), whose correlations near +-1 take the chord,
# and the held input, whose gapped windows are dropped.
ENGINE_INPUTS = {
    "near": simulate(SyntheticSpec(4, 500, ((100, 300, 1.0),), 1e-9, 0)),
    "held": held_input(),
}


@pytest.mark.parametrize(
    "stride, chunk_elements, at_least",
    [(1, None, 1), (3, None, 1), (1, 1, 1), (1, None, 40)],
    ids=["default", "stride3", "chunk1", "at_least40"],
)
@pytest.mark.parametrize("name", ENGINE_INPUTS)
def test_the_engine_hands_out_each_windows_correlations_and_distances(
    monkeypatch, name, stride, chunk_elements, at_least
):
    # Matrix w of a chunk's rho and dist is window ms[w]'s, bit for bit what
    # correlation_from_units and angular_distances give from that window's
    # own unit rows.
    set_chunk_elements(monkeypatch, chunk_elements)
    data = ENGINE_INPUTS[name]
    view = sliding_window_view(data.matrix(), BENCHMARK_WINDOW, axis=1)[:, ::stride]
    seen, chord = [], False
    for ms, rho, dist in correlation_chunks(data, BENCHMARK_WINDOW, stride, at_least):
        assert rho.shape == dist.shape == (len(ms), len(data), len(data))
        for w, m in enumerate(ms.tolist()):
            units, norms = _window_units(view[:, m].copy())
            assert norms.all()
            want = correlation_from_units(units)
            chord |= bool((np.abs(np.triu(want, 1)) > 1.0 - NEAR_ONE).any())
            assert rho[w].tobytes() == want.tobytes()
            assert dist[w].tobytes() == angular_distances(want, units).tobytes()
        seen.extend(ms.tolist())
    gapped = [m for m in range(view.shape[1]) if not _window_units(view[:, m].copy())[1].all()]
    assert sorted(seen + gapped) == list(range(view.shape[1]))
    assert chord == (name == "near") and bool(gapped) == (name == "held")


@pytest.mark.parametrize(
    "window, stride, message",
    [(1, 1, "window size must be >= 2, got 1"), (21, 0, "stride must be >= 1, got 0")],
)
def test_the_engine_rejects_a_window_below_2_or_a_stride_below_1(window, stride, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        next(correlation_chunks(held_input(), window, stride))


def set_chunk_elements(monkeypatch, chunk_elements):
    if chunk_elements is not None:
        monkeypatch.setattr("corrgeom.events.CHUNK_ELEMENTS", chunk_elements)


@pytest.mark.parametrize(
    "data, n_gaps, chunk_elements",
    [
        pytest.param(data, n_gaps, chunk, id=name + suffix)
        for name, data, n_gaps in INPUTS
        for chunk, suffix in CHUNKS
    ],
)
def test_sliding_measures_match_scalar_route(monkeypatch, data, n_gaps, chunk_elements):
    set_chunk_elements(monkeypatch, chunk_elements)
    window = BENCHMARK_WINDOW
    gaps, want = window_measures(data, window)
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


def test_the_triangle_measure_holds_no_array_of_every_triple():
    # n = 64, K = 101: five windows a chunk. The sides of all C(64, 3)
    # triples of a chunk took a ~5 MB peak; one first index at a time, ~1 MB.
    data = simulate(SyntheticSpec(64, 130, ((30, 90, 0.9),), 0.1, 0))
    data.matrix()
    tracemalloc.start()
    try:
        sliding_measures(data, 101)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


@pytest.mark.parametrize(
    "kinds",
    [(KIND_DIAMETER,), (KIND_DIAMETER, KIND_MAX_TRIANGLE), (KIND_MAX_TRIANGLE,)],
    ids=["diameter", "both", "max_triangle"],
)
@pytest.mark.parametrize("chunk_elements", [None, 1])
def test_windows_of_tiny_samples_give_the_per_window_measures(monkeypatch, chunk_elements, kinds):
    # Samples of unit scale up to sample 21, of scale 1e-160 after it: their
    # squares are subnormal, and window 22 (tick 144) is the first with no
    # sample of unit scale. Every window is evaluated, none is a gap, and each
    # has the per-window reference's measures.
    set_chunk_elements(monkeypatch, chunk_elements)
    rng = np.random.default_rng(0)
    scale = np.where(np.arange(60) < 22, 1.0, 1e-160)
    data = TimeSeriesSet(
        tuple(TimeSeries(f"s{i}", 100, 2, scale * rng.normal(size=60)) for i in range(4))
    )
    gaps, want = window_measures(data, BENCHMARK_WINDOW)
    assert not gaps.any()
    for series in sliding_measures(data, BENCHMARK_WINDOW, kinds=kinds):
        assert series.timestamps[22] == 144
        assert not series.gaps.any()
        assert np.abs(series.values - want[series.kind]).max() <= 1e-12


@pytest.mark.parametrize("stride", [0, -1])
def test_sliding_measures_rejects_a_stride_below_1(stride):
    # Before it computes the window count, which divides by the stride.
    with pytest.raises(ValueError, match=f"^stride must be >= 1, got {stride}$"):
        sliding_measures(held_input(), BENCHMARK_WINDOW, stride)


def near_copies(eps, length=200, negate=()):
    """Four series sin(t/3) + eps * noise, the columns in ``negate`` negated."""
    x = np.sin(np.arange(length) / 3)
    rng = np.random.default_rng(0)
    columns = [x + eps * rng.normal(size=length) for _ in range(4)]
    return TimeSeriesSet(
        tuple(TimeSeries(f"s{i}", 0, 1, -c if i in negate else c) for i, c in enumerate(columns))
    )


@pytest.mark.parametrize("negate", [(), (1,)], ids=["copies", "negated"])
@pytest.mark.parametrize("eps", [1e-8, 1e-10])
def test_near_copies_give_the_per_window_measures_without_an_axiom_check(
    monkeypatch, eps, negate
):
    # arccos alone puts these windows' margins near -1.5e-8, past
    # TRIANGLE_TOL; the chord form proves them within B(21) = 3.55e-13, so
    # the engine checks no distance and scans no margin.
    calls = []

    def counted(name):
        function = getattr(metric, name)

        def call(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)
        return call

    for name in ("_min_triangle_margins", "_first_min_triple"):
        monkeypatch.setattr(metric, name, counted(name))
        monkeypatch.setattr(f"corrgeom.events.{name}", getattr(metric, name), raising=False)
    data = near_copies(eps, negate=negate)
    got = sliding_measures(data, BENCHMARK_WINDOW)
    assert calls == []
    gaps, want = window_measures(data, BENCHMARK_WINDOW)
    for series in got:
        assert not series.gaps.any() and not gaps.any()
        assert np.abs(series.values - want[series.kind]).max() <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    n=st.integers(3, 6),
    window=st.integers(3, 12),
    stride=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_sliding_measures_ignore_series_order_and_sign(data, n, window, stride, seed):
    # Some columns are near-copies of column 0, some of them negated, so
    # their |rho| is near 1 and their distances take the chord form.
    rng = np.random.default_rng(seed)
    length = window + int(rng.integers(0, 40))
    columns = rng.normal(size=(n, length))
    for i in range(1, data.draw(st.integers(0, n - 1)) + 1):
        eps = data.draw(st.sampled_from([0.0, 1e-10, 1e-8, 1e-4]))
        columns[i] = rng.choice([-1.0, 1.0]) * (columns[0] + eps * rng.normal(size=length))
    held = int(rng.integers(0, n))
    start = int(rng.integers(0, length))
    columns[held, start : start + window + 2] = columns[held, start]  # gaps some windows
    order = data.draw(st.permutations(range(n)))
    signs = np.where(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), -1.0, 1.0)
    original = TimeSeriesSet(tuple(TimeSeries(f"s{i}", 0, 1, c) for i, c in enumerate(columns)))
    changed = TimeSeriesSet(
        tuple(TimeSeries(f"s{i}", 0, 1, signs[i] * columns[i]) for i in order)
    )
    kinds = (KIND_DIAMETER, KIND_MAX_TRIANGLE)
    got = sliding_measures(changed, window, stride, kinds)
    for a, b in zip(sliding_measures(original, window, stride, kinds), got):
        assert a.kind == b.kind
        assert np.array_equal(a.timestamps, b.timestamps)
        assert np.array_equal(a.gaps, b.gaps)
        assert a.values.tobytes() == b.values.tobytes()


@pytest.mark.parametrize(
    "start, step, length, window, stride",
    [
        (2**63 - 1 - 59 * 10**15, 10**15, 60, 21, 1),  # the last tick is 2^63 - 1
        (2**63 - 1 - 59 * 10**15, 10**15, 60, 21, 7),
        (-(2**63), 3 * 10**17, 60, 21, 5),  # ticks span more than 2^63
        (-(2**63), 2**62, 4, 2, 2),  # one hop of 2^63 between windows
    ],
    ids=["last-at-limit", "last-at-limit-stride-7", "wide-span", "hop-2^63"],
)
def test_timestamps_are_the_window_ticks_up_to_the_int64_limits(
    start, step, length, window, stride
):
    rng = np.random.default_rng(0)
    data = TimeSeriesSet(
        tuple(TimeSeries(f"s{i}", start, step, rng.normal(size=length)) for i in range(3))
    )
    count = (length - window) // stride + 1
    for series in sliding_measures(data, window, stride):
        assert series.timestamps.tolist() == [data.tick(m * stride) for m in range(count)]


def measure(values, gaps=()):
    """A diameter series stamped 100, 110, ...; gap entries become 0.0."""
    values = np.array(values, dtype=float)
    gap = np.zeros(values.size, dtype=bool)
    gap[list(gaps)] = True
    values[gap] = 0.0
    return MeasureSeries(KIND_DIAMETER, 21, 1, 100 + 10 * np.arange(values.size), values, gap)


def summary(events):
    return [(e.timestamp, e.value, e.prominence, e.left_base, e.right_base) for e in events]


def test_plateau_reports_leftmost_point_with_midpoint_bases():
    # Minima at index 1, the plateau 3..6 (midpoint 4) and index 8.
    values = [3, 1, 3, 0, 0, 0, 0, 2, 1, 3]
    found = detect_minima(measure(values), 1.0, 0).events
    assert summary(found) == [
        (110, 1.0, 2.0, 100, 120),
        (130, 0.0, 3.0, 120, 190),  # among equal highs at 100 and 120, 120 is closer
        (180, 1.0, 1.0, 170, 190),  # prominence equal to the threshold is kept
    ]
    peaks, props = find_peaks(-np.array(values, float), prominence=1.0, plateau_size=(None, None))
    assert peaks.tolist() == [1, 4, 8]
    assert props["left_edges"].tolist() == [1, 3, 8]
    assert [e.prominence for e in found] == props["prominences"].tolist()
    just_above = np.nextafter(1.0, 2.0)
    assert detect_minima(measure(values), just_above, 0).timestamps() == [110, 130]


def test_no_minimum_at_or_across_a_gap():
    # The gap's 0.0 placeholder would be the deepest point; 0.5 and 0.2 sit at
    # segment edges. Only the interior minimum at index 7 counts.
    values = [2, 1, 0.5, 9, 0.2, 1, 2, 1, 2]
    assert summary(detect_minima(measure(values, gaps=[3]), 0.0, 0).events) == [
        (170, 1.0, 1.0, 160, 180)
    ]


def run_lengths(gaps):
    """Half-open ranges of the runs of False in ``gaps``, one flag at a time."""
    out, start = [], None
    for i, gap in enumerate(gaps):
        if gap and start is not None:
            out.append((start, i))
            start = None
        elif not gap and start is None:
            start = i
    if start is not None:
        out.append((start, len(gaps)))
    return out


@settings(max_examples=200, deadline=None)
@given(gaps=st.lists(st.booleans(), max_size=60)
       | st.tuples(st.booleans(), st.integers(0, 60)).map(lambda c: [c[0]] * c[1]))
@example(gaps=[])
@example(gaps=[True])
@example(gaps=[False])
def test_segments_are_the_gap_free_runs(gaps):
    # Random masks, all-gap and no-gap series, one window and none.
    series = MeasureSeries(KIND_DIAMETER, 2, 1, range(len(gaps)), np.zeros(len(gaps)), gaps)
    got = series.segments()
    assert got == run_lengths(gaps)
    assert all(type(x) is int for segment in got for x in segment)


def test_segments_shorter_than_three_points_are_skipped():
    values = [5, 9, 1, 0, 9, 2, 1, 2]
    assert detect_minima(measure(values, gaps=[1, 4]), 0.0, 0).timestamps() == [160]
    assert len(detect_minima(measure(values, gaps=[1, 4, 6]), 0.0, 0)) == 0


def test_separation_keeps_the_deeper_minimum_then_the_earlier():
    # The two minima lie 20 ticks apart.
    assert detect_minima(measure([2, 1, 2, 1, 2]), 0.0, 21).timestamps() == [110]
    assert detect_minima(measure([2, 1, 2, 0.5, 2]), 0.0, 21).timestamps() == [130]
    assert detect_minima(measure([2, 1, 2, 1, 2]), 0.0, 20).timestamps() == [110, 130]


def brute_force_separation(candidates, min_separation):
    """Timestamps kept when each candidate, deepest and then earliest first,
    is compared with every event kept before it."""
    kept = []
    for e in sorted(candidates, key=lambda e: (e.value, e.timestamp)):
        if all(abs(e.timestamp - k.timestamp) >= min_separation for k in kept):
            kept.append(e)
    return sorted(e.timestamp for e in kept)


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(st.integers(0, 4), min_size=3, max_size=200),
    gaps=st.lists(st.integers(0, 199), max_size=5),
    min_separation=st.integers(0, 50),
)
def test_separation_equals_the_brute_force_rule(values, gaps, min_separation):
    series = MeasureSeries(
        KIND_DIAMETER,
        21,
        1,
        np.arange(len(values)),
        [0 if i in gaps else v for i, v in enumerate(values)],
        [i in gaps for i in range(len(values))],
    )
    candidates = detect_minima(series, 0.0, 0).events
    found = detect_minima(series, 0.0, min_separation).events
    assert [e.timestamp for e in found] == brute_force_separation(candidates, min_separation)
    assert set(found) <= set(candidates)


@pytest.mark.parametrize("min_prominence", [-1.0, float("nan")])
def test_detect_minima_rejects_a_bad_prominence(min_prominence):
    with pytest.raises(ValueError, match="min_prominence must be >= 0"):
        detect_minima(measure([2, 1, 2]), min_prominence, 0)


def assert_same_as_find_peaks(x, min_prominence):
    x = np.array(x, dtype=float)
    peaks, props = find_peaks(x, prominence=min_prominence, plateau_size=(None, None))
    got = _prominent_peaks(x, min_prominence)
    columns = [np.array(c) for c in zip(*got)] if got else [np.array([], int)] * 5
    want = [peaks, props["left_edges"], props["prominences"], props["left_bases"], props["right_bases"]]
    for column, expected in zip(columns, want):
        assert column.astype(expected.dtype).tobytes() == expected.tobytes()


@settings(max_examples=300, deadline=None)
@given(
    x=st.lists(st.floats(-1e6, 1e6), max_size=60),
    min_prominence=st.floats(0.0, 2e6),
)
def test_prominent_peaks_equal_find_peaks_on_floats(x, min_prominence):
    assert_same_as_find_peaks(x, min_prominence)


@settings(max_examples=300, deadline=None)
@given(
    x=st.lists(st.integers(-3, 3), max_size=60),
    min_prominence=st.sampled_from([0.0, 1.0, 2.0, 2.5, 6.0]),
)
def test_prominent_peaks_equal_find_peaks_on_plateaus_and_ties(x, min_prominence):
    assert_same_as_find_peaks(x, min_prominence)


@pytest.mark.parametrize("min_prominence", [0.0, 0.5, 2.0])
@pytest.mark.parametrize("seed", [0, 1])
def test_prominent_peaks_equal_find_peaks_on_long_series(seed, min_prominence):
    rng = np.random.default_rng(seed)
    assert_same_as_find_peaks(rng.normal(size=5000), min_prominence)
    assert_same_as_find_peaks(rng.integers(-3, 4, size=5000), min_prominence)
    found = _prominent_peaks(rng.normal(size=5000), min_prominence)
    assert [tuple(map(type, peak)) for peak in found] == [(int, int, float, int, int)] * len(found)


def test_prominent_peaks_equal_find_peaks_on_a_long_staircase():
    # Peaks L / 2, L / 2 - 1, ..., 1 at the odd indices: every right walk
    # reaches the end, and every left walk the start.
    x = np.zeros(100_000)
    x[1::2] = np.arange(x.size // 2, 0, -1)
    assert_same_as_find_peaks(x, 0.0)


def find_peaks_between_walls(x, min_prominence):
    """_prominent_peaks' tuples from find_peaks on each stretch of ``x``
    between its +inf entries, shifted to indices of ``x``."""
    out = []
    walls = np.flatnonzero(x == np.inf).tolist()
    for lo, hi in zip([0] + [w + 1 for w in walls], walls + [len(x)]):
        peaks, props = find_peaks(x[lo:hi], prominence=min_prominence, plateau_size=(None, None))
        out += [
            (lo + int(p), lo + int(e), float(pr), lo + int(lb), lo + int(rb))
            for p, e, pr, lb, rb in zip(peaks, props["left_edges"], props["prominences"],
                                        props["left_bases"], props["right_bases"])
        ]
    return out


@pytest.mark.parametrize(
    "x",
    [
        [0, 3, 1, np.inf, 0, 2, 1],
        [0, 3, 1, np.inf, np.inf, 0, 2, 1],
        [np.inf, 1, 3, 1, np.inf],
        [np.inf, 3, 1, 3, np.inf],
        [2, 2, np.inf, 2, 3, 3, 1, np.inf, 0, 5, 5, 5, 0],
        [1, 5, 5, np.inf, 5, 5, 1],
        [np.inf, np.inf, np.inf],
        [0, np.inf, 0, np.inf, 0],
    ],
)
def test_a_wall_is_never_a_peak_and_no_walk_crosses_it(x):
    x = np.array(x, dtype=float)
    found = _prominent_peaks(x, 0.0)
    walls = np.flatnonzero(x == np.inf)
    for peak, _, _, left_base, right_base in found:
        assert x[peak] < np.inf
        # The bases lie between the walls on either side of the peak.
        side = np.searchsorted(walls, peak)
        assert np.searchsorted(walls, left_base) == np.searchsorted(walls, right_base) == side
    assert found == find_peaks_between_walls(x, 0.0)


@settings(max_examples=300, deadline=None)
@given(
    x=st.lists(st.integers(-3, 3) | st.just(np.inf), max_size=60)
    | st.lists(st.floats(-1e6, 1e6) | st.just(np.inf), max_size=60),
    min_prominence=st.sampled_from([0.0, 1.0, 2.5]),
)
def test_prominent_peaks_equal_find_peaks_between_walls(x, min_prominence):
    x = np.array(x, dtype=float)
    assert _prominent_peaks(x, min_prominence) == find_peaks_between_walls(x, min_prominence)


@settings(max_examples=400, deadline=None)
@given(
    cells=st.lists(st.tuples(st.integers(0, 3) | st.floats(0, 10), st.booleans()), max_size=80),
    ends=st.tuples(st.integers(0, 3), st.integers(0, 3)),
    min_prominence=st.sampled_from([0.0, 0.5, 1.0]),
    min_separation=st.integers(0, 8),
)
@example(cells=[(1, True)] * 9, ends=(0, 0), min_prominence=0.0, min_separation=0)
@example(cells=[(v, False) for v in [3, 1, 3, 0, 0, 2]], ends=(0, 0), min_prominence=0.0,
         min_separation=0)
@example(cells=[(v, False) for v in [3, 0, 0, 2, 1, 1]], ends=(2, 2), min_prominence=0.0,
         min_separation=0)
@example(cells=[(3, False), (1, False), (1, False), (0, True), (1, False), (1, False), (3, False)],
         ends=(1, 1), min_prominence=0.0, min_separation=0)
def test_detect_minima_equals_its_per_segment_reference(
    cells, ends, min_prominence, min_separation
):
    # Random masks, adjacent gaps, gaps at both ends, all-gap and no-gap
    # series, and plateaus that touch a gap.
    values = [v for v, _ in cells]
    gaps = [g or i < ends[0] or i >= len(cells) - ends[1] for i, (_, g) in enumerate(cells)]
    series = MeasureSeries(
        KIND_DIAMETER, 21, 1, 5 + 3 * np.arange(len(values)),
        [0.0 if g else v for v, g in zip(values, gaps)], gaps,
    )
    got = detect_minima(series, min_prominence, min_separation)
    want = detect_minima_by_segments(series, min_prominence, min_separation)
    assert got.to_dict() == want.to_dict()


def events(kind, *timestamps):
    return EventList(kind, 21, 1, 0.0, 0, tuple(Event(t, 0.0, 1.0, t, t) for t in timestamps))


def test_compare_matches_greedily_by_smallest_gap():
    # 100-103 (gap 3) loses to 104-103 (gap 1); 100 then takes 97 (gap 3).
    report = compare_event_sets(events("a", 100, 104, 200), events("b", 97, 103, 150), 5)
    assert report.matched == ((100, 97), (104, 103))
    assert report.a_only == (200,)
    assert report.b_only == (150,)
    assert (report.count_a, report.count_b) == (3, 3)


def test_compare_takes_the_earlier_pair_on_ties_and_matches_each_event_once():
    # 105 is 5 from both 100 and 110: the earlier pair wins, 110 stays unmatched.
    report = compare_event_sets(events("a", 100, 110), events("b", 105), 5)
    assert report.matched == ((100, 105),)
    assert report.a_only == (110,)
    assert report.b_only == ()
    report = compare_event_sets(events("a", 105), events("b", 100, 110), 5)
    assert report.matched == ((105, 100),)
    assert report.b_only == (110,)


def test_compare_rejects_a_negative_match_window():
    with pytest.raises(ValueError, match="match_window must be >= 0"):
        compare_event_sets(events("a", 100), events("b", 100), -1)


# Ticks in three bands, around 0 and at either end of the int64 tick range,
# each a few match windows wide, so that ties at exactly +-match_window occur.
TICKS = st.one_of(
    st.integers(-40, 40), st.integers(2**63 - 40, 2**63 - 1), st.integers(-2**63, -2**63 + 40)
)


@settings(max_examples=400, deadline=None)
@given(
    ta=st.sets(TICKS, max_size=12),
    tb=st.sets(TICKS, max_size=12),
    match_window=st.one_of(st.integers(0, 10), st.integers(0, 2**65)),
)
@example(ta={0}, tb={-5, 5}, match_window=5)
@example(ta={-5, 5}, tb={0}, match_window=5)
@example(ta={0, 3}, tb={0, 3}, match_window=0)
@example(ta=set(), tb={0}, match_window=0)
@example(ta={2**63 - 1}, tb={-2**63}, match_window=2**64 - 1)
def test_compare_equals_its_all_pairs_reference(ta, tb, match_window):
    a, b = events("a", *sorted(ta)), events("b", *sorted(tb))
    assert (compare_event_sets(a, b, match_window).to_dict()
            == compare_all_pairs(a, b, match_window).to_dict())
