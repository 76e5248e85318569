import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, target
from hypothesis import strategies as st

from corrgeom import TimeSeries, TimeSeriesSet
from corrgeom import metric
from corrgeom.metric import (
    NEAR_ONE,
    PROJECTIVE,
    SPHERICAL,
    TRIANGLE_TOL,
    _first_min_triple,
    _min_triangle_margins,
    angular_distances,
    correlation_from_units,
)
from corrgeom.series import _window_units
from oracles import WindowSpec, _one_window_units, max_triangle_area, verify_metric_axioms


def random_distances(rng, n, kind, k=20):
    """angular_distances of n random series over one window of k samples."""
    s = TimeSeriesSet(tuple(TimeSeries(f"s{i}", 0, 1, rng.normal(size=k)) for i in range(n)))
    units = _one_window_units(s.matrix(), s.ids, WindowSpec(0, k))
    return angular_distances(correlation_from_units(units), units, kind)


def pair_distance(rho, kind):
    """angular_distances' off-diagonal entry for the unit rows (1, 0) and
    (rho, sqrt(1 - rho^2)), whose correlation is rho exactly."""
    units = np.array([[1.0, 0.0], [rho, math.sqrt(1.0 - rho * rho)]])
    return float(angular_distances(np.array([[1.0, rho], [rho, 1.0]]), units, kind)[0, 1])


class TestAngles:
    """The paper's anchors for the correlation angle arccos(rho) and the
    projective angle arccos(|rho|), read from angular_distances."""

    def test_correlation_angle_endpoints(self):
        assert pair_distance(1.0, SPHERICAL) == 0.0
        assert pair_distance(-1.0, SPHERICAL) == math.pi

    def test_correlation_angle_half(self):
        assert pair_distance(0.5, SPHERICAL) == pytest.approx(math.pi / 3, abs=1e-15)

    def test_projective_angle_paper_anchors(self):
        assert pair_distance(1.0, PROJECTIVE) == 0.0
        assert pair_distance(-1.0, PROJECTIVE) == 0.0
        assert pair_distance(0.0, PROJECTIVE) == math.pi / 2
        assert pair_distance(-0.5, PROJECTIVE) == pytest.approx(math.pi / 3, abs=1e-15)

    def test_projective_is_folded_spherical(self):
        for rho in np.linspace(-1, 1, 501):
            gamma = pair_distance(float(rho), SPHERICAL)
            expected = min(gamma, math.pi - gamma)
            assert pair_distance(float(rho), PROJECTIVE) == pytest.approx(expected, abs=1e-15)

    def test_projective_sign_invariance_exact(self):
        rng = np.random.default_rng(0)
        for rho in np.r_[rng.uniform(-1, 1, 100), rng.uniform(1 - NEAR_ONE, 1, 20)]:
            assert pair_distance(float(rho), PROJECTIVE) == pair_distance(float(-rho), PROJECTIVE)


class TestDistanceMatrix:
    def test_identity_correlations_projective(self):
        dm = angular_distances(np.eye(3), np.eye(3), PROJECTIVE)
        off = dm[~np.eye(3, dtype=bool)]
        assert np.all(off == math.pi / 2)
        assert np.all(np.diagonal(dm) == 0.0)

    def test_all_ones_gives_zero_matrix(self):
        for kind in (SPHERICAL, PROJECTIVE):
            assert np.all(angular_distances(np.ones((3, 3)), np.ones((3, 1)), kind) == 0.0)

    def test_opposite_copies_are_pi_apart_on_the_sphere_and_0_as_lines(self):
        units = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        rho = units @ units.T
        assert angular_distances(rho, units, SPHERICAL)[0, 1] == math.pi
        assert angular_distances(rho, units, PROJECTIVE)[0, 1] == 0.0

    def test_only_entries_near_one_take_the_chord(self):
        # Angles just inside and just outside the chord's range, |rho| on
        # either side of 1 - NEAR_ONE, and their negations.
        edge = math.acos(1.0 - NEAR_ONE)
        angles = np.array([0.0, edge * 0.999, edge * 1.001, 1e-9, 0.5])
        units = np.column_stack([np.cos(angles), np.sin(angles)])
        units = np.vstack([units, -units])
        rho = np.clip(units @ units.T, -1.0, 1.0)
        for kind, arccos in ((SPHERICAL, np.arccos(rho)), (PROJECTIVE, np.arccos(np.abs(rho)))):
            got = angular_distances(rho, units, kind)
            np.fill_diagonal(arccos, 0.0)
            far = np.abs(rho) <= 1.0 - NEAR_ONE
            assert got[far].tobytes() == arccos[far].tobytes()
            assert np.abs(got - arccos).max() < 1e-7  # arccos' error near |rho| = 1
            assert got.tobytes() == got.T.tobytes()
        spherical = angular_distances(rho, units, SPHERICAL)
        # arccos reads rho = 1.0 there as 0; the chord keeps the 1e-9 rad.
        assert spherical[0, 3] == pytest.approx(1e-9, rel=1e-12)
        assert spherical[0, 8] == pytest.approx(math.pi - 1e-9, rel=1e-15)

    def test_tight_triangle_along_great_circle(self):
        # three unit vectors at 45 degree steps along one great circle
        rho = np.array(
            [
                [1.0, math.cos(math.pi / 4), 0.0],
                [math.cos(math.pi / 4), 1.0, math.cos(math.pi / 4)],
                [0.0, math.cos(math.pi / 4), 1.0],
            ]
        )
        # verify the construction with explicit dot products
        u0 = np.array([1.0, 0.0])
        u1 = np.array([1.0, 1.0]) / math.sqrt(2)
        u2 = np.array([0.0, 1.0])
        assert float(u0 @ u1) == pytest.approx(math.cos(math.pi / 4), abs=1e-15)
        assert float(u0 @ u2) == 0.0
        dm = angular_distances(rho, np.array([u0, u1, u2]), SPHERICAL)
        assert dm[0, 1] == pytest.approx(math.pi / 4, abs=1e-15)
        assert dm[0, 2] == pytest.approx(math.pi / 2, abs=1e-15)
        report = verify_metric_axioms(dm)
        assert report.passed
        assert report.min_triangle_margin >= -1e-9
        assert report.min_triangle_margin == pytest.approx(0.0, abs=1e-15)

    def test_kinds_bound_entries(self):
        rng = np.random.default_rng(2)
        assert random_distances(rng, 5, SPHERICAL).max() <= math.pi
        assert random_distances(np.random.default_rng(2), 5, PROJECTIVE).max() <= math.pi / 2


class TestVerifyMetricAxioms:
    def test_construction_output_passes(self):
        rng = np.random.default_rng(4)
        for n in (3, 5, 8):
            assert verify_metric_axioms(random_distances(rng, n, PROJECTIVE)).passed

    def test_planted_violation_reported(self):
        bad = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]])
        report = verify_metric_axioms(bad)
        assert not report.passed
        assert report.worst_triple == (0, 1, 2)
        assert report.min_triangle_margin == pytest.approx(-1.0, abs=1e-15)
        assert len(report.violations) == 1
        v = report.violations[0]
        assert (v.i, v.j, v.k) == (0, 1, 2)
        assert v.margin == pytest.approx(-1.0, abs=1e-15)

    def test_asymmetry_and_diagonal_flagged(self):
        report = verify_metric_axioms(np.array([[0.1, 1.0], [0.9, 0.0]]))
        assert not report.passed
        assert report.max_symmetry_error == pytest.approx(0.1, abs=1e-15)
        assert report.max_diagonal_error == pytest.approx(0.1, abs=1e-15)

    def test_hundred_random_unit_vector_matrices_pass(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(3, 9))
            k = int(rng.integers(4, 24))
            pts = rng.normal(size=(n, k))
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            gram = np.clip(pts @ pts.T, -1, 1)
            gram = np.triu(gram) + np.triu(gram, 1).T
            for ang in (np.arccos(gram), np.arccos(np.abs(gram))):
                np.fill_diagonal(ang, 0.0)
                report = verify_metric_axioms(ang)
                assert report.passed, report.summary()


def reference_axiom_stats(m, tolerance=TRIANGLE_TOL):
    """The axiom figures of each matrix of an (M, n, n) stack from every
    triangle margin in one (M, n, n, n) array. Returns (passed, symmetry,
    diagonal, min_entry, min_margin) per matrix, the first flat argmin of
    each matrix's margins and the margins (None when n < 3)."""
    count, n = m.shape[0], m.shape[-1]
    symmetry = np.abs(m - m.transpose(0, 2, 1)).max(axis=(1, 2), initial=0.0)
    diagonal = np.abs(m.diagonal(0, 1, 2)).max(axis=1, initial=0.0)
    min_entry = m.min(axis=(1, 2), initial=0.0)
    if n < 3:
        min_margin, worst, margins = np.full(count, math.inf), np.zeros(count, dtype=int), None
    else:
        margins = m[:, :, :, None] + m[:, None, :, :]
        margins -= m[:, :, None, :]
        idx = np.arange(n)
        margins[:, idx, idx, :] = np.inf
        margins[:, :, idx, idx] = np.inf
        margins[:, idx, :, idx] = np.inf
        flat = margins.reshape(count, n**3)
        worst = flat.argmin(axis=1)
        min_margin = flat[np.arange(count), worst]
    passed = (np.maximum(symmetry, diagonal) <= tolerance) & (
        np.minimum(min_entry, min_margin) >= -tolerance
    )
    return (passed, symmetry, diagonal, min_entry, min_margin), worst, margins


def reference_report(m, tolerance=TRIANGLE_TOL):
    """(summary, worst triple, violations) of one matrix from the n^3 margins."""
    (passed, symmetry, diagonal, min_entry, min_margin), worst, margins = reference_axiom_stats(
        m[None], tolerance
    )
    triple, found = None, {}
    if margins is not None:
        triple = tuple(sorted(int(x) for x in np.unravel_index(worst[0], margins.shape[1:])))
        if not min_margin[0] >= -tolerance:
            for i, j, k in np.argwhere(margins[0] < -tolerance):
                key = tuple(sorted((int(i), int(j), int(k))))
                val = float(margins[0, i, j, k])
                if key not in found or val < found[key]:
                    found[key] = val
    state = "pass" if passed[0] else "FAIL"
    summary = (
        f"{state}: n={m.shape[0]} min_triangle_margin={min_margin[0]:.3e} "
        f"symmetry={symmetry[0]:.3e} diag={diagonal[0]:.3e} "
        f"min_entry={min_entry[0]:.3e} violations={len(found)}"
    )
    return summary, triple, [(*key, found[key]) for key in sorted(found)]


def symmetric_stack(rng, count, n, integers=False):
    """(count, n, n) stack mirrored from its upper triangle, as the engine's
    are, with a zero diagonal: exactly symmetric. Small integers (0..3) are
    rich in tied margins."""
    upper = rng.integers(0, 4, (count, n, n)).astype(float) if integers else (
        rng.uniform(0.0, math.pi / 2, (count, n, n))
    )
    upper = np.triu(upper, 1)
    return upper + upper.transpose(0, 2, 1)


def perturbed(rng, m, scale):
    """m with every entry moved by up to ``scale``: symmetry and diagonal
    errors, so the full scan runs."""
    return m + rng.uniform(-scale, scale, m.shape)


def with_specials(rng, m):
    """m with up to three entries set to NaN or +-inf."""
    if m.size:
        at = rng.integers(0, m.size, rng.integers(1, 4))
        m.flat[at] = rng.choice([np.nan, np.inf, -np.inf], at.size)
    return m


STACKS = {
    "random": lambda rng, count, n: symmetric_stack(rng, count, n),
    "small-integer": lambda rng, count, n: symmetric_stack(rng, count, n, integers=True),
    "symmetry-error": lambda rng, count, n: perturbed(rng, symmetric_stack(rng, count, n), 1e-12),
    "integer-asymmetric": lambda rng, count, n: np.round(
        perturbed(rng, symmetric_stack(rng, count, n, integers=True), 1.0)
    ),
    "nan": lambda rng, count, n: with_specials(rng, symmetric_stack(rng, count, n, integers=True)),
    "n3": lambda rng, count, n: symmetric_stack(rng, count, 3),
    # Off the diagonal in [0.95, 1.33] * 1e308: every margin overflows to +inf.
    "overflow": lambda rng, count, n: (
        (1 + symmetric_stack(rng, count, n) / 4) * (1 - np.eye(n)) * 0.95e308
    ),
    "empty": lambda rng, count, n: symmetric_stack(rng, 0, n),
}


# Stack heights: a few matrices, and the tall stacks validate scans at once.
COUNTS = st.integers(0, 4) | st.integers(40, 100)
# Blocks of k rows in the bulk scan: one row, a few rows of a short (50) or a
# tall (2000) stack, and all of them.
SCAN_SIZES = st.sampled_from([1, 50, 2000, metric.SCAN_ELEMENTS])


# The STACKS families that meet the scan's precondition, as every stack of
# angular_distances does: exactly symmetric and finite.
SYMMETRIC_STACKS = ("random", "small-integer", "n3", "overflow", "empty")


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("name", SYMMETRIC_STACKS)
def test_the_scan_equals_the_n3_minimum_margins_bit_for_bit(name, monkeypatch):
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=COUNTS, n=st.integers(3, 9), scan=SCAN_SIZES)
    def check(seed, count, n, scan):
        monkeypatch.setattr(metric, "SCAN_ELEMENTS", scan)
        m = STACKS[name](np.random.default_rng(seed), count, n)
        (*_, want), _, _ = reference_axiom_stats(m)
        got = _min_triangle_margins(m)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    check()


def with_nan_pair(rng, m):
    """m with one symmetric pair of off-diagonal entries per matrix set to
    NaN: still exactly symmetric, with NaN margins."""
    n = m.shape[-1]
    for matrix in m:
        i, j = rng.choice(n, 2, replace=False)
        matrix[i, j] = matrix[j, i] = np.nan
    return m


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("nan", [False, True], ids=["finite", "nan-pair"])
@pytest.mark.parametrize("name", SYMMETRIC_STACKS)
def test_the_locator_finds_the_n3_worst_triple(name, nan):
    # validate names the triple of each reported minimum from the scan's
    # margin alone: the reference's first flat argmin, NaN first, with ties
    # broken as it breaks them.
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(0, 4), n=st.integers(3, 9))
    def check(seed, count, n):
        rng = np.random.default_rng(seed)
        m = STACKS[name](rng, count, n)
        if nan:
            m = with_nan_pair(rng, m)
        for matrix, margin in zip(m, _min_triangle_margins(m)):
            triple = _first_min_triple(matrix, margin)
            assert triple == verify_metric_axioms(matrix).worst_triple
            assert all(type(x) is int for x in triple)

    check()


@pytest.mark.filterwarnings("ignore:invalid value encountered", "ignore:overflow encountered")
@pytest.mark.parametrize("name", list(STACKS))
def test_axiom_stats_equal_the_n3_margins_bit_for_bit(name):
    # verify_metric_axioms' figures for every matrix, symmetric or not, NaN or
    # not: its verdict and entry figures, the first smallest margin in flat
    # order, NaN first, its triple and every violation.
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=COUNTS, n=st.integers(0, 9))
    def check(seed, count, n):
        m = STACKS[name](np.random.default_rng(seed), count, n)
        want, _, _ = reference_axiom_stats(m)
        for matrix, *figures in zip(m, *want):
            report = verify_metric_axioms(matrix)
            got = (report.passed, report.max_symmetry_error, report.max_diagonal_error,
                   report.min_entry, report.min_triangle_margin)
            assert [np.asarray(x).tobytes() for x in got] == [x.tobytes() for x in figures]
            violations = [(v.i, v.j, v.k, v.margin) for v in report.violations]
            assert (report.summary(), report.worst_triple, violations) == reference_report(matrix)

    check()


U = 2.0**-53


def gamma(k):
    return k * U / (1 - k * U)


def unit_norm_error(window):
    """eta(K) of series._window_units' proof: no unit row's norm is further
    from 1. (1 + u) / ((1 - u) sqrt(1 - g)) - 1 is computed as a + b + a b,
    a = 2u / (1 - u) and b = 1 / sqrt(1 - g) - 1 = g / (r (1 + r)) with
    r = sqrt(1 - g), so that no digit cancels. Its terms in 2^-962 and
    2^-1075 vanish in the rounding of the others and are left out."""
    g = gamma(window)
    a = 2 * U / (1 - U)
    r = math.sqrt(1 - g)
    b = g / (r * (1 + r))
    return a + b + a * b


def accurate_norms(rows):
    """The norms of the rows of an (n, K) array to within 1.5 u: each square
    is split exactly into three products (Dekker), summed by math.fsum, which
    rounds once, and square-rooted."""
    split = 134217729.0 * rows  # (2^27 + 1) x
    hi = split - (split - rows)
    lo = rows - hi
    return np.array([math.sqrt(math.fsum(np.concatenate([h * h, 2 * h * l, l * l])))
                     for h, l in zip(hi, lo)])


def unit_rows(rng, n, window, gap, on_circle, all_longer, copies=0):
    """n centred rows of length ``window`` whose norms sit eta(K) - 5u from 1
    (or at 1 where that is negative): as far as series._window_units' proof
    lets them, less the 4u that scaling and rounding the rows can add. They
    come in random order and with random signs. ``on_circle`` of them lie on
    one great circle, neighbours ``gap`` to 4 * ``gap`` apart, so every
    triple among them in circle order has a true margin of ~0, and the
    largest |rho| is at least cos(gap); the rest are random. ``all_longer``
    makes every norm longer than 1, which shrinks each distance and so pushes
    the margins of those triples below 0. The last ``copies`` rows (at most
    n - 1) are then verbatim copies of the first, each negated or not."""
    dim = min(n + 1, window - 1)  # the centred subspace has dimension K - 1
    basis = rng.normal(size=(dim, window))
    basis -= basis.mean(axis=1, keepdims=True)
    basis = np.linalg.qr(basis.T)[0].T  # orthonormal rows, each still centred
    steps = gap * rng.uniform(1.0, 4.0, on_circle)
    steps[:2] = 0.0, gap
    angles = np.cumsum(steps)
    circle = np.cos(angles)[:, None] * basis[0] + np.sin(angles)[:, None] * basis[1]
    rows = np.vstack([circle, rng.normal(size=(n - on_circle, dim)) @ basis])
    rows /= accurate_norms(rows)[:, None]
    stretch = np.ones(n) if all_longer else rng.choice([-1.0, 1.0], n)
    reach = max(unit_norm_error(window) - 5 * U, 0.0)
    rows *= (rng.choice([-1.0, 1.0], n) * (1 + reach * stretch))[:, None]
    for dst in range(n - min(copies, n - 1), n):
        rows[dst] = rng.choice([-1.0, 1.0]) * rows[0]
    return rows[rng.permutation(n)]


def margin_bound(window):
    """B(K) of metric.angular_distances' proof: no triangle margin of a stack
    of distances between the unit rows of length K that series._window_units
    gives is below -B(K). Its underflow terms, in 2^-1074 and 2^-537, vanish
    in the rounding of the others and are left out."""
    eta = unit_norm_error(window)
    gamma1, gamma3 = gamma(window), gamma(window + 2)
    eps_rho = gamma1 * (1 + eta) ** 2 + 2 * eta + eta**2
    r = 1 - NEAR_ONE + eps_rho
    eps_a = eps_rho / math.sqrt((1 - r) * (1 + r)) + 2.0**-48
    t = math.sqrt(2 * (NEAR_ONE + eps_rho)) + 2 * eta
    t1 = t * (1 + gamma3)
    eps_c = (2 * eta + gamma3 * t) / math.sqrt(1 - t1 * t1 / 4) + 2.0**-48
    return 3 * max(eps_a, eps_c) + (2 + U) * 2 * math.pi * U


def test_the_bound_is_below_the_tolerance_up_to_k_67100():
    # The figures that metric.TRIANGLE_TOL's comment and the proofs quote.
    assert 3.54e-13 < margin_bound(21) < 3.56e-13
    assert 1.54e-12 < margin_bound(101) < 1.56e-12
    assert margin_bound(67_100) < TRIANGLE_TOL < margin_bound(67_200)
    assert unit_norm_error(21) == pytest.approx(12.5 * U, rel=1e-9)
    assert unit_norm_error(101) == pytest.approx(52.5 * U, rel=1e-9)


def exact_norm_squared(row):
    """||row||^2 of a float row as an exact fraction."""
    pairs = [x.as_integer_ratio() for x in row.tolist()]
    scale = max(d for _, d in pairs)
    return Fraction(sum((m * (scale // d)) ** 2 for m, d in pairs), scale * scale)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    window=st.integers(2, 4000),
    exponent=st.integers(-1074, 1023),
    spread=st.integers(0, 1100),
)
def test_unit_rows_are_within_eta_of_unit_norm(seed, window, exponent, spread):
    # series._window_units' proof, row by row, on rows of any finite values:
    # the largest magnitudes near 2^exponent, down to 2^-spread times that.
    # Rows: entries of mixed magnitudes; an offset plus small noise; a
    # constant with one entry a unit in the last place above it; a constant.
    rng = np.random.default_rng(seed)
    low = exponent - rng.integers(0, spread + 1, window)
    offset = np.ldexp(rng.uniform(-1.0, 1.0), exponent - 1)
    constant = np.full(window, np.ldexp(rng.uniform(0.5, 1.0), exponent))
    ulp = constant.copy()
    ulp[rng.integers(window)] = np.nextafter(constant[0], np.inf)
    rows = np.stack([
        np.ldexp(rng.uniform(-1.0, 1.0, window), np.maximum(low, -1074)),
        offset + np.ldexp(rng.uniform(-1.0, 1.0, window), max(exponent - spread - 1, -1074)),
        ulp,
        constant,
    ])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        units, norms = _window_units(rows.copy())
    is_constant = (rows == rows[:, :1]).all(axis=1)
    assert np.array_equal(norms == 0.0, is_constant)
    assert (norms[~is_constant] > 2.0**-56).all()
    assert not units[is_constant].any()
    eta = Fraction(unit_norm_error(window))
    for row in units[~is_constant]:
        assert (1 - eta) ** 2 <= exact_norm_squared(row) <= (1 + eta) ** 2


# The geodesic gap spans both sides of the chord's edge, near 0.045 rad
# (|rho| = 1 - NEAR_ONE), down to near-copies whose |rho| rounds to 1.
@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 8),
    window=st.integers(3, 4000),
    log_gap=st.floats(-8.0, -1.0),
    on_circle=st.integers(3, 8),
    all_longer=st.booleans(),
    copies=st.integers(0, 3),
    kind=st.sampled_from([SPHERICAL, PROJECTIVE]),
)
@example(seed=0, n=4, window=21, log_gap=-8.0, on_circle=4, all_longer=True, copies=2,
         kind=PROJECTIVE)
def test_a_cleared_window_passes_within_its_error_bound(
    seed, n, window, log_gap, on_circle, all_longer, copies, kind
):
    # Every window is cleared: its margins are proven >= -B(K), which is
    # within TRIANGLE_TOL for every K drawn, and its stack meets the scan's
    # precondition, which validate relies on instead of checking it.
    rng = np.random.default_rng(seed)
    units = unit_rows(rng, n, window, 10.0**log_gap, min(on_circle, n), all_longer, copies)
    rho = correlation_from_units(units[None])
    dist = angular_distances(rho, units[None], kind)
    assert np.array_equal(dist, dist.transpose(0, 2, 1))
    assert not np.signbit(dist).any()  # no -0.0 either
    assert not dist.diagonal(0, 1, 2).any()
    assert np.isfinite(dist).all()
    assert dist.max() <= (math.pi if kind == SPHERICAL else math.pi / 2)
    margin = _min_triangle_margins(dist)[0]
    bound = margin_bound(window)
    target(float(-margin / bound))
    assert margin >= -bound


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 4),
    n=st.integers(3, 8),
    window=st.integers(3, 400),
    log_gap=st.floats(-8.0, -1.0),
    on_circle=st.integers(3, 8),
    all_longer=st.booleans(),
    copies=st.integers(0, 3),
)
def test_a_window_that_passes_the_engine_checks_has_valid_triangles(
    seed, count, n, window, log_gap, on_circle, all_longer, copies
):
    # sliding_measures checks nothing: its distances must give every triple
    # valid sides.
    rng = np.random.default_rng(seed)
    gap = 10.0**log_gap
    units = np.stack(
        [unit_rows(rng, n, window, gap, min(on_circle, n), all_longer, copies)
         for _ in range(count)]
    )
    dist = angular_distances(correlation_from_units(units), units, PROJECTIVE)
    for d in dist:
        max_triangle_area(d)  # raises InvalidTriangleError on invalid sides
