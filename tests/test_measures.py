import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corrgeom import (
    KIND_DIAMETER,
    KIND_MAX_TRIANGLE,
    InvalidTriangleError,
    TimeSeries,
    TimeSeriesSet,
    TooFewPointsError,
    sliding_measures,
    spherical_triangle_area,
)
from corrgeom.events import correlation_chunks
from corrgeom.measures import _max_triangle_areas, _triangle_areas, _triangle_sides
from corrgeom.metric import PROJECTIVE, angular_distances, correlation_from_units
from corrgeom.series import _window_units
from oracles import girard_area, max_triangle_area

# Frozen oracle values (independently computed; see matching oracle tests).
EQUILATERAL_THIRD_PI_AREA = 0.5512855984325309  # 3*arccos(1/3) - pi
SQUARE_MAX_TRIANGLE = 0.6796738189082434


def square_config():
    """Four points at colatitude pi/4, longitudes 0, pi/2, pi, 3pi/2."""
    pts = []
    for lon in (0.0, math.pi / 2, math.pi, 3 * math.pi / 2):
        pts.append(
            (
                math.sin(math.pi / 4) * math.cos(lon),
                math.sin(math.pi / 4) * math.sin(lon),
                math.cos(math.pi / 4),
            )
        )
    return np.array(pts)


def cap_points(rng, n, radius, dim=3):
    """Random points on S^2 within an open cap of the given angular radius."""
    z = rng.uniform(math.cos(radius), 1.0, n)
    phi = rng.uniform(0.0, 2 * math.pi, n)
    sin_t = np.sqrt(1.0 - z * z)
    pts = np.column_stack([sin_t * np.cos(phi), sin_t * np.sin(phi), z])
    if dim > 3:
        pts = np.hstack([pts, np.zeros((n, dim - 3))])
    return pts


def angles_of(points):
    gram = np.clip(points @ points.T, -1, 1)
    ang = np.arccos(np.triu(gram) + np.triu(gram, 1).T)
    np.fill_diagonal(ang, 0.0)
    return ang


def max_triangle_of(m):
    """_max_triangle_areas on one matrix."""
    return float(_max_triangle_areas(m[None])[0])


def series_set(n, length=30):
    rng = np.random.default_rng(n)
    return TimeSeriesSet(tuple(TimeSeries(f"s{i}", 0, 1, rng.normal(size=length)) for i in range(n)))


def upper_diameters(m):
    """The largest entry above the diagonal of each matrix of an (M, n, n)
    stack, at its first flat index: the rule the engine's diameter followed
    before it took the largest entry of the whole matrix."""
    count, n = m.shape[0], m.shape[-1]
    upper = np.where(np.tri(n, dtype=bool), -np.inf, m).reshape(count, n * n)
    return upper[np.arange(count), upper.argmax(axis=1)]


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 8),
    window=st.integers(3, 30),
    copies=st.lists(
        st.tuples(
            st.integers(0, 7),
            st.integers(0, 7),
            st.sampled_from([0.0, 1e-12, 1e-9, 1e-2]),
            st.sampled_from([1.0, -1.0, -3.0]),
        ),
        max_size=4,
    ),
    held=st.booleans(),
)
@example(seed=0, n=2, window=3, copies=[(0, 1, 0.0, -1.0)], held=True)
@example(seed=1, n=8, window=21, copies=[(0, 1, 1e-9, 1.0), (0, 2, 0.0, -3.0)], held=True)
def test_engine_stacks_hold_what_the_measures_rely_on(seed, n, window, copies, held):
    # Series with near-copies and negations (chord entries) and, if ``held``,
    # the first one constant for window + 5 samples (gapped windows).
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n, 60))
    for src, dst, eps, scale in copies:
        values[dst % n] = scale * values[src % n] + eps * rng.normal(size=60)
    if held:
        values[0, 10 : 15 + window] = values[0, 10]
    data = TimeSeriesSet.from_matrix(tuple(f"s{i}" for i in range(n)), 0, 1, values)

    # The correlations are exactly symmetric, hold no -0.0 and equal the
    # clipped sum of the Gram's two triangles byte for byte.
    rows = np.lib.stride_tricks.sliding_window_view(data.matrix(), window, axis=1)
    units, norms = _window_units(rows.transpose(1, 0, 2).copy())
    units = units[norms.all(axis=-1)]
    rho = correlation_from_units(units)
    gram = units @ units.swapaxes(-1, -2)
    want = np.clip(np.triu(gram) + np.triu(gram, 1).swapaxes(-1, -2), -1.0, 1.0)
    want[..., range(n), range(n)] = 1.0
    assert rho.tobytes() == want.tobytes()
    assert rho.tobytes() == rho.swapaxes(-1, -2).copy().tobytes()
    assert not np.signbit(rho[rho == 0.0]).any()

    # The diameter, the largest entry of each matrix, is the largest entry
    # above the diagonal bit for bit.
    dist = np.concatenate([d for _, d in correlation_chunks(data, window, (PROJECTIVE,))])
    (diameter,) = sliding_measures(data, window, kinds=(KIND_DIAMETER,))
    assert diameter.values[~diameter.gaps].tobytes() == upper_diameters(dist).tobytes()

    # Every L'Huilier product of every triple is finite.
    if n >= 3:
        upper = ~np.tri(n, dtype=bool)
        a, b, c = _triangle_sides(dist, *np.nonzero(upper[:, :, None] & upper[None, :, :]))
        s = (a + b + c) / 2
        prod = np.tan(s / 2) * np.tan((s - a) / 2) * np.tan((s - b) / 2) * np.tan((s - c) / 2)
        assert np.isfinite(prod).all()


class TestDiameter:
    def test_too_few_points(self):
        with pytest.raises(TooFewPointsError, match="at least 2 series"):
            sliding_measures(series_set(1), 21)


class TestSphericalTriangleArea:
    def test_octant(self):
        assert spherical_triangle_area(math.pi / 2, math.pi / 2, math.pi / 2) == pytest.approx(
            math.pi / 2, abs=1e-12
        )

    def test_collinear_degenerate_is_exactly_zero(self):
        assert spherical_triangle_area(0.3, 0.4, 0.7) == 0.0
        assert spherical_triangle_area(0.7, 0.3, 0.4) == 0.0

    def test_equilateral_against_girard_oracle(self):
        got = spherical_triangle_area(math.pi / 3, math.pi / 3, math.pi / 3)
        oracle = 3 * math.acos(1.0 / 3.0) - math.pi  # Girard via vertex angles
        assert got == pytest.approx(oracle, abs=1e-12)
        assert got == pytest.approx(EQUILATERAL_THIRD_PI_AREA, abs=1e-12)

    def test_invalid_triangle_reports_margin(self):
        with pytest.raises(InvalidTriangleError, match="margin"):
            spherical_triangle_area(3.0, 0.1, math.pi / 2)

    def test_perimeter_cap(self):
        with pytest.raises(InvalidTriangleError, match="perimeter"):
            spherical_triangle_area(2.5, 2.5, 2.0)

    def test_argument_symmetry_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b = rng.uniform(0.3, 1.2, 2)
            c = rng.uniform(abs(a - b) + 0.05, min(a + b, 2 * math.pi - a - b) - 0.05)
            sides = (a, b, c)
            values = {
                spherical_triangle_area(*[sides[i] for i in perm])
                for perm in itertools.permutations(range(3))
            }
            assert len(values) == 1

    def test_lhuilier_vs_girard_sample(self):
        rng = np.random.default_rng(1)
        count = 0
        while count < 200:
            pts = rng.normal(size=(3, 3))
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            d = angles_of(pts)
            a, b, c = d[0, 1], d[0, 2], d[1, 2]
            sides = sorted((a, b, c))
            if min(sides) < 0.05 or max(sides) > math.pi - 0.05:
                continue
            if sides[0] + sides[1] - sides[2] < 0.05:
                continue
            assert spherical_triangle_area(a, b, c) == pytest.approx(
                girard_area(a, b, c), abs=1e-10
            )
            count += 1


@pytest.mark.parametrize(
    "sides",
    [
        (2 * math.pi / 3,) * 3,
        (math.pi / 2, 3 * math.pi / 4, 3 * math.pi / 4),
        (0.2, math.pi - 0.1, math.pi - 0.1),
    ],
    ids=["equilateral", "right", "thin"],
)
def test_a_hemisphere_triangle_needs_no_infinite_product_branch(sides):
    # A perimeter of 2 pi, the largest valid: np.tan of s / 2 = pi / 2 is
    # finite in floating point, so the stack kernel evaluates L'Huilier and
    # gives the scalar's area, close to 2 pi (the tangent near pi / 2 and the
    # square root amplify the rounding).
    a, b, c = (np.array([[x]]) for x in sorted(sides))
    area = _triangle_areas(a, b, c)[0, 0]
    assert area == spherical_triangle_area(*sides)
    assert area == pytest.approx(2 * math.pi, abs=1e-6)


def test_correlation_from_units_is_exported_and_bound_in_events():
    import corrgeom
    from corrgeom import events, metric

    assert corrgeom.correlation_from_units is metric.correlation_from_units
    assert events.correlation_from_units is metric.correlation_from_units


class TestMaxSimplexVolume:
    def test_single_triangle(self):
        d = angles_of(np.eye(3))
        assert max_triangle_of(d) == spherical_triangle_area(d[0, 1], d[0, 2], d[1, 2])

    def test_identical_points_zero(self):
        assert max_triangle_of(np.zeros((4, 4))) == 0.0

    def test_basis_plus_diagonal_witness(self):
        pts = np.vstack([np.eye(3), np.ones(3) / math.sqrt(3)])
        d = angles_of(pts)
        # brute-force oracle over all four triangles via the Girard route
        areas = {
            trio: girard_area(d[trio[0], trio[1]], d[trio[0], trio[2]], d[trio[1], trio[2]])
            for trio in itertools.combinations(range(4), 3)
        }
        best = max(areas, key=areas.get)
        assert best == (0, 1, 2)
        assert max_triangle_of(d) == pytest.approx(areas[best], abs=1e-12)
        assert max_triangle_of(d) == pytest.approx(math.pi / 2, abs=1e-12)
        assert all(areas[t] < math.pi / 2 - 1e-6 for t in areas if t != (0, 1, 2))

    def test_tie_takes_lexicographically_smallest_witness(self):
        # All four triangles of the square tie.
        assert max_triangle_of(angles_of(square_config())) == pytest.approx(
            SQUARE_MAX_TRIANGLE, abs=1e-12
        )

    def test_too_few_points(self):
        with pytest.raises(TooFewPointsError, match="at least 3 series"):
            sliding_measures(series_set(2), 21, kinds=(KIND_MAX_TRIANGLE,))

    def test_monotonicity_under_added_point(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            pts = cap_points(rng, 6, math.radians(40.0))
            extra = cap_points(rng, 1, math.radians(40.0))
            bigger = np.vstack([pts, extra])
            d_small = angles_of(pts).max()
            d_big = angles_of(bigger).max()
            assert d_big >= d_small - 1e-12
            m_small = max_triangle_of(angles_of(pts))
            m_big = max_triangle_of(angles_of(bigger))
            assert m_big >= m_small - 1e-12


def assert_max_triangle_matches_scalar(d):
    """_max_triangle_areas against the scalar L'Huilier area on every triple,
    within 1e-12, where every triple has valid sides: the kernel's domain."""
    try:
        want = max_triangle_area(d)
    except InvalidTriangleError:
        return
    assert abs(max_triangle_of(d) - want) <= 1e-12


unit_rows = st.lists(
    st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
        lambda v: sum(x * x for x in v) > 1e-6
    ),
    min_size=3,
    max_size=8,
)


class TestMaxTriangleMatchesScalar:
    @settings(max_examples=150, deadline=None)
    @given(rows=unit_rows, repeats=st.lists(st.integers(0, 7), max_size=3))
    def test_point_clouds(self, rows, repeats):
        pts = np.array(rows)
        # Coincident points: repeat some rows verbatim.
        pts = np.vstack([pts, pts[[r % len(pts) for r in repeats]]])
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        assert_max_triangle_matches_scalar(angles_of(pts))

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(3, 6),
        entries=st.lists(st.floats(-0.01, 3.5), min_size=15, max_size=15),
    )
    def test_arbitrary_sides(self, n, entries):
        d = np.zeros((n, n))
        iu = np.triu_indices(n, 1)
        d[iu] = entries[: len(iu[0])]
        assert_max_triangle_matches_scalar(d + d.T)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 6),
    n=st.integers(3, 12),
    copies=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=4),
)
@example(seed=5, count=1, n=12, copies=[(0, 1), (0, 8)])
def test_the_slab_kernel_equals_max_simplex_volume_byte_for_byte(seed, count, n, copies):
    # Projective distances as the engine computes them, exactly symmetric,
    # from random unit vectors with some rows repeated verbatim. The kernel
    # equals the all-triples form bit for bit and the scalar loop within 1e-12.
    # Verbatim copies are 0 apart by the chord, so every triple has valid
    # sides: the pinned example's three copies once rounded to sides such as
    # (0, 0, 1.5e-8) through arccos.
    rng = np.random.default_rng(seed)
    units = rng.normal(size=(count, n, 5))
    for src, dst in copies:
        units[:, dst % n] = units[:, src % n]
    units /= np.linalg.norm(units, axis=-1, keepdims=True)
    dist = angular_distances(correlation_from_units(units), units, PROJECTIVE)
    got = _max_triangle_areas(dist)
    upper = ~np.tri(n, dtype=bool)
    all_triples = np.nonzero(upper[:, :, None] & upper[None, :, :])
    for w, d in enumerate(dist):
        want = _triangle_areas(*_triangle_sides(d[None], *all_triples)).max()
        assert got[w].tobytes() == want.tobytes()
        assert abs(got[w] - max_triangle_area(d)) <= 1e-12
