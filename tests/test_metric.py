import io
import math

import numpy as np
import pytest

from corrgeom import (
    AngleDomainError,
    CorrelationMatrix,
    DistanceMatrix,
    MetricViolationError,
    TimeSeries,
    TimeSeriesSet,
    WindowSpec,
    classify_correlation,
    correlation_angle,
    correlation_matrix,
    distance_matrix,
    projective_angle,
    verify_metric_axioms,
)
from corrgeom.metric import (
    CLASS_INTERMEDIATE,
    CLASS_MAX_NEGATIVE,
    CLASS_MAX_POSITIVE,
    CLASS_UNCORRELATED,
    PROJECTIVE,
    SPHERICAL,
)


def random_corr(rng, n, k=20):
    s = TimeSeriesSet(tuple(TimeSeries(f"s{i}", 0, 1, rng.normal(size=k)) for i in range(n)))
    return correlation_matrix(s, WindowSpec(0, k))


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


class TestClassify:
    def test_endpoints(self):
        assert classify_correlation(1.0) == CLASS_MAX_POSITIVE
        assert classify_correlation(-1.0) == CLASS_MAX_NEGATIVE
        assert classify_correlation(0.0) == CLASS_UNCORRELATED
        assert classify_correlation(0.5) == CLASS_INTERMEDIATE

    def test_tolerance_band(self):
        assert classify_correlation(1.0 - 1e-10) == CLASS_MAX_POSITIVE
        assert classify_correlation(1.0 - 1e-8) == CLASS_INTERMEDIATE
        assert classify_correlation(5e-10) == CLASS_UNCORRELATED
        assert classify_correlation(1.0 - 1e-8, tol=1e-7) == CLASS_MAX_POSITIVE

    def test_negation_swaps_only_extremes(self):
        rng = np.random.default_rng(1)
        swap = {CLASS_MAX_POSITIVE: CLASS_MAX_NEGATIVE, CLASS_MAX_NEGATIVE: CLASS_MAX_POSITIVE}
        for rho in list(rng.uniform(-1, 1, 200)) + [1.0, -1.0, 0.0]:
            before = classify_correlation(float(rho))
            after = classify_correlation(float(-rho))
            assert after == swap.get(before, before)


class TestDistanceMatrix:
    def test_identity_correlations_projective(self):
        corr = CorrelationMatrix(("a", "b", "c"), np.eye(3))
        dm = distance_matrix(corr, PROJECTIVE)
        off = dm.values[~np.eye(3, dtype=bool)]
        assert np.all(off == math.pi / 2)
        assert np.all(np.diagonal(dm.values) == 0.0)

    def test_all_ones_gives_zero_matrix(self):
        corr = CorrelationMatrix(("a", "b", "c"), np.ones((3, 3)))
        for kind in (SPHERICAL, PROJECTIVE):
            dm = distance_matrix(corr, kind)
            assert np.all(dm.values == 0.0)

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
        dm = distance_matrix(CorrelationMatrix(("a", "b", "c"), rho), SPHERICAL)
        assert dm.values[0, 1] == pytest.approx(math.pi / 4, abs=1e-15)
        assert dm.values[0, 2] == pytest.approx(math.pi / 2, abs=1e-15)
        report = verify_metric_axioms(dm)
        assert report.passed
        assert report.min_triangle_margin >= -1e-9
        assert report.min_triangle_margin == pytest.approx(0.0, abs=1e-15)

    def test_kinds_bound_entries(self):
        rng = np.random.default_rng(2)
        corr = random_corr(rng, 5)
        assert distance_matrix(corr, SPHERICAL).values.max() <= math.pi
        assert distance_matrix(corr, PROJECTIVE).values.max() <= math.pi / 2

    def test_constructor_rejects_violations(self):
        bad = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]])
        with pytest.raises(MetricViolationError):
            DistanceMatrix(("a", "b", "c"), bad, SPHERICAL)

    def test_csv_serialization(self):
        rng = np.random.default_rng(3)
        dm = distance_matrix(random_corr(rng, 3), PROJECTIVE)
        text = dm.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == ",s0,s1,s2"
        assert lines[1].startswith("s0,")
        cells = lines[1].split(",")[1:]
        parsed = np.array([float(c) for c in cells])
        assert np.abs(parsed - dm.values[0]).max() <= 1e-11
        # 12 significant digits requested
        assert cells[1] == f"{dm.values[0, 1]:.12g}"


class TestVerifyMetricAxioms:
    def test_construction_output_passes(self):
        rng = np.random.default_rng(4)
        for n in (3, 5, 8):
            dm = distance_matrix(random_corr(rng, n), PROJECTIVE)
            assert verify_metric_axioms(dm).passed

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
