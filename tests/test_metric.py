import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, target
from hypothesis import strategies as st

from corrgeom import (
    AngleDomainError,
    TimeSeries,
    TimeSeriesSet,
    WindowSpec,
    verify_metric_axioms,
)
from corrgeom import metric
from corrgeom.correlation import correlation_from_units
from corrgeom.metric import (
    PROJECTIVE,
    SPHERICAL,
    TRIANGLE_TOL,
    _axiom_stats,
    _margin_error_bound,
    _worst_triangle,
    angular_distances,
)
from corrgeom.series import NORM_TOL
from corrgeom.testkit import (
    _check_unit_rows,
    correlation_angle,
    max_triangle_area,
    projective_angle,
    window_correlations,
)


def random_corr(rng, n, k=20):
    s = TimeSeriesSet(tuple(TimeSeries(f"s{i}", 0, 1, rng.normal(size=k)) for i in range(n)))
    return window_correlations(s, WindowSpec(0, k))


class TestAngles:
    def test_correlation_angle_endpoints(self):
        assert correlation_angle(1.0) == 0.0
        assert correlation_angle(-1.0) == math.pi

    def test_correlation_angle_half(self):
        assert correlation_angle(0.5) == pytest.approx(math.pi / 3, abs=1e-15)

    def test_domain_error(self):
        with pytest.raises(AngleDomainError):
            correlation_angle(1.0000001)
        with pytest.raises(AngleDomainError):
            projective_angle(-1.1)

    def test_projective_angle_paper_anchors(self):
        assert projective_angle(1.0) == 0.0
        assert projective_angle(-1.0) == 0.0
        assert projective_angle(0.0) == math.pi / 2
        assert projective_angle(-0.5) == pytest.approx(math.pi / 3, abs=1e-15)

    def test_projective_is_folded_spherical(self):
        for rho in np.linspace(-1, 1, 501):
            gamma = correlation_angle(float(rho))
            expected = min(gamma, math.pi - gamma)
            assert projective_angle(float(rho)) == pytest.approx(expected, abs=1e-15)

    def test_projective_sign_invariance_exact(self):
        rng = np.random.default_rng(0)
        for rho in rng.uniform(-1, 1, 100):
            assert projective_angle(float(rho)) == projective_angle(float(-rho))


class TestDistanceMatrix:
    def test_identity_correlations_projective(self):
        dm = angular_distances(np.eye(3), PROJECTIVE)
        off = dm[~np.eye(3, dtype=bool)]
        assert np.all(off == math.pi / 2)
        assert np.all(np.diagonal(dm) == 0.0)

    def test_all_ones_gives_zero_matrix(self):
        for kind in (SPHERICAL, PROJECTIVE):
            assert np.all(angular_distances(np.ones((3, 3)), kind) == 0.0)

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
        dm = angular_distances(rho, SPHERICAL)
        assert dm[0, 1] == pytest.approx(math.pi / 4, abs=1e-15)
        assert dm[0, 2] == pytest.approx(math.pi / 2, abs=1e-15)
        report = verify_metric_axioms(dm)
        assert report.passed
        assert report.min_triangle_margin >= -1e-9
        assert report.min_triangle_margin == pytest.approx(0.0, abs=1e-15)

    def test_kinds_bound_entries(self):
        rng = np.random.default_rng(2)
        corr = random_corr(rng, 5)
        assert angular_distances(corr, SPHERICAL).max() <= math.pi
        assert angular_distances(corr, PROJECTIVE).max() <= math.pi / 2


class TestVerifyMetricAxioms:
    def test_construction_output_passes(self):
        rng = np.random.default_rng(4)
        for n in (3, 5, 8):
            assert verify_metric_axioms(angular_distances(random_corr(rng, n), PROJECTIVE)).passed

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
    """The n^3 form of metric._axiom_stats: every triangle margin of the
    (M, n, n) stack in one (M, n, n, n) array. Returns the _AxiomStats
    fields, the first flat argmin of each matrix's margins and the margins
    (None when n < 3)."""
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


def assert_same_arrays(got, want):
    assert len(got) == len(want)
    for field, a, b in zip(got._fields, got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field


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


@pytest.mark.filterwarnings("ignore:invalid value encountered", "ignore:overflow encountered")
@pytest.mark.parametrize("name", list(STACKS))
def test_axiom_stats_equal_the_n3_margins_bit_for_bit(name, monkeypatch):
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=COUNTS, n=st.integers(0, 9), scan=SCAN_SIZES)
    def check(seed, count, n, scan):
        monkeypatch.setattr(metric, "SCAN_ELEMENTS", scan)
        m = STACKS[name](np.random.default_rng(seed), count, n)
        want, worst, _ = reference_axiom_stats(m)
        assert_same_arrays(_axiom_stats(m), want)
        n = m.shape[-1]
        if n >= 3:
            # The locator: the first smallest margin in flat order, NaN first.
            for matrix, margin, at in zip(m, want[-1], worst):
                got_margin, triple = _worst_triangle(matrix)
                assert np.float64(got_margin).tobytes() == margin.tobytes()
                assert triple == tuple(int(x) for x in np.unravel_index(at, (n, n, n)))
        for matrix in m[:4]:
            report = verify_metric_axioms(matrix)
            violations = [(v.i, v.j, v.k, v.margin) for v in report.violations]
            assert (report.summary(), report.worst_triple, violations) == reference_report(matrix)

    check()


@pytest.mark.filterwarnings("ignore:invalid value encountered", "ignore:overflow encountered")
@pytest.mark.parametrize("name", list(STACKS))
def test_axiom_stats_scan_only_the_matrices_not_cleared(name, monkeypatch):
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=COUNTS, n=st.integers(0, 9), scan=SCAN_SIZES)
    def check(seed, count, n, scan):
        monkeypatch.setattr(metric, "SCAN_ELEMENTS", scan)
        rng = np.random.default_rng(seed)
        m = STACKS[name](rng, count, n)
        margin_error = rng.choice([0.0, TRIANGLE_TOL, 2 * TRIANGLE_TOL, np.inf, np.nan], len(m))
        got = _axiom_stats(m, margin_error=margin_error)
        (_, symmetry, diagonal, min_entry, min_margin), _, _ = reference_axiom_stats(m)
        if m.shape[-1] >= 3:
            min_margin = np.where(margin_error <= TRIANGLE_TOL, -margin_error, min_margin)
        passed = (np.maximum(symmetry, diagonal) <= TRIANGLE_TOL) & (
            np.minimum(min_entry, min_margin) >= -TRIANGLE_TOL
        )
        assert_same_arrays(got, (passed, symmetry, diagonal, min_entry, min_margin))

    check()


def unit_rows(rng, n, window, gap, on_circle, all_longer):
    """n centred rows of length ``window`` whose norms sit 0.9 * NORM_TOL from 1,
    as far as _check_unit_rows lets them, in random order and with random
    signs. ``on_circle`` of them lie on one great circle, neighbours ``gap``
    to 4 * ``gap`` apart, so every triple among them in circle order has a
    true projective margin of ~0, and the largest |rho| is at least
    cos(gap); the rest are random. ``all_longer`` makes every norm
    1 + 0.9 * NORM_TOL, which shrinks each distance and so pushes the
    margins of those triples below 0."""
    dim = min(n + 1, window - 1)  # the centred subspace has dimension K - 1
    basis = rng.normal(size=(dim, window))
    basis -= basis.mean(axis=1, keepdims=True)
    basis = np.linalg.qr(basis.T)[0].T  # orthonormal rows, each still centred
    steps = gap * rng.uniform(1.0, 4.0, on_circle)
    steps[:2] = 0.0, gap
    angles = np.cumsum(steps)
    circle = np.cos(angles)[:, None] * basis[0] + np.sin(angles)[:, None] * basis[1]
    rows = np.vstack([circle, rng.normal(size=(n - on_circle, dim)) @ basis])
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    stretch = np.ones(n) if all_longer else rng.choice([-1.0, 1.0], n)
    rows *= (rng.choice([-1.0, 1.0], n) * (1 + 0.9 * NORM_TOL * stretch))[:, None]
    return rows[rng.permutation(n)]


# The geodesic gap spans the edge of what the bound clears, near 1e-2 rad
# (|rho| ~ 0.99995) for every window length drawn.
@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 8),
    window=st.integers(3, 4000),
    log_gap=st.floats(-3.0, -1.0),
    on_circle=st.integers(3, 8),
    all_longer=st.booleans(),
)
def test_a_cleared_window_passes_within_its_error_bound(
    seed, n, window, log_gap, on_circle, all_longer
):
    rng = np.random.default_rng(seed)
    units = unit_rows(rng, n, window, 10.0**log_gap, min(on_circle, n), all_longer)
    _check_unit_rows(units, [f"s{i}" for i in range(n)])  # the bound's premise
    rho = correlation_from_units(units[None])
    error = _margin_error_bound(rho, window)[0]
    stats = _axiom_stats(angular_distances(rho, PROJECTIVE))
    if error <= TRIANGLE_TOL:
        target(float(-stats.min_margin[0] / error))
        assert stats.passed[0]
        assert stats.min_margin[0] >= -error


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 4),
    n=st.integers(3, 8),
    window=st.integers(3, 400),
    log_gap=st.floats(-8.0, -1.0),
    on_circle=st.integers(3, 8),
    all_longer=st.booleans(),
)
def test_a_window_that_passes_the_engine_checks_has_valid_triangles(
    seed, count, n, window, log_gap, on_circle, all_longer
):
    # sliding_measures runs no triangle check of its own: the axiom check,
    # skipped scan included, must imply every side is valid.
    rng = np.random.default_rng(seed)
    gap = 10.0**log_gap
    units = np.stack(
        [unit_rows(rng, n, window, gap, min(on_circle, n), all_longer) for _ in range(count)]
    )
    rho = correlation_from_units(units)
    dist = angular_distances(rho, PROJECTIVE)
    passed = _axiom_stats(dist, margin_error=_margin_error_bound(rho, window)).passed
    for w in np.flatnonzero(passed):
        max_triangle_area(dist[w])  # raises InvalidTriangleError on invalid sides


def test_the_bound_clears_what_it_can_prove_and_no_near_copy():
    # Geodesic neighbours at 0.1 rad clear with room to spare, at 1e-3 rad
    # they do not, and rows with |rho| rounded to 1 get no finite bound.
    rng = np.random.default_rng(3)
    for gap, cleared in ((1e-1, True), (1e-3, False)):
        rho = correlation_from_units(unit_rows(rng, 6, 101, gap, 6, True)[None])
        error = _margin_error_bound(rho, 101)[0]
        assert (error <= TRIANGLE_TOL) == cleared
        stats = _axiom_stats(angular_distances(rho, PROJECTIVE))
        assert stats.min_margin[0] < 0.0  # the longer norms do push margins below 0
    rho = np.ones((2, 3, 3))
    rho[1, 0, 1] = rho[1, 1, 0] = np.nan
    assert np.isinf(_margin_error_bound(rho, 21)).all()
