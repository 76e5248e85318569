import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corrgeom import (
    KIND_MAX_TRIANGLE,
    InvalidTriangleError,
    TimeSeries,
    TimeSeriesSet,
    TooFewPointsError,
    sliding_measures,
    spherical_triangle_area,
)
from corrgeom.correlation import correlation_from_units
from corrgeom.measures import (
    _diameters,
    _max_triangle_areas,
    _triangle_areas,
    _triangle_sides,
)
from corrgeom.metric import PROJECTIVE, angular_distances
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


def diameter_of(m):
    """_diameters on one matrix: its value and its pair (i, j)."""
    value, flat = _diameters(m[None])
    return float(value[0]), divmod(int(flat[0]), m.shape[0])


def max_triangle_of(m):
    """_max_triangle_areas on one matrix."""
    return float(_max_triangle_areas(m[None])[0])


def series_set(n, length=30):
    rng = np.random.default_rng(n)
    return TimeSeriesSet(tuple(TimeSeries(f"s{i}", 0, 1, rng.normal(size=length)) for i in range(n)))


class TestDiameter:
    def test_zero_matrix(self):
        assert diameter_of(np.zeros((3, 3))) == (0.0, (0, 1))

    def test_equal_entries(self):
        m = np.full((4, 4), math.pi / 2)
        np.fill_diagonal(m, 0.0)
        # lexicographically smallest pair on ties
        assert diameter_of(m) == (math.pi / 2, (0, 1))

    def test_tie_away_from_first_pair_takes_smallest(self):
        m = np.full((4, 4), 0.25)
        m[1, 3] = m[3, 1] = m[2, 3] = m[3, 2] = 1.0
        np.fill_diagonal(m, 0.0)
        assert diameter_of(m)[1] == (1, 3)

    def test_listed_entries(self):
        m = np.zeros((3, 3))
        m[0, 1] = m[1, 0] = math.pi / 6
        m[0, 2] = m[2, 0] = math.pi / 4
        m[1, 2] = m[2, 1] = math.pi / 3
        assert diameter_of(m) == (math.pi / 3, (1, 2))

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
            d_small = diameter_of(angles_of(pts))[0]
            d_big = diameter_of(angles_of(bigger))[0]
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
