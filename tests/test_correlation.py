import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrgeom import (
    CorrelationMatrix,
    CovarianceMatrix,
    DimensionMismatchError,
    TimeSeries,
    TimeSeriesSet,
    WindowSpec,
    ZeroVarianceError,
    correlation_matrix,
    covariance_matrix,
    pearson_rho,
    twisted_dot,
    window_vector,
    windowed_covariance,
)
from corrgeom.correlation import _mirror_upper


def ts(sid, values):
    return TimeSeries(sid, 0, 1, values)


def random_set(rng, n, k):
    return TimeSeriesSet(tuple(ts(f"s{i}", rng.normal(size=k)) for i in range(n)))


class TestWindowedCovariance:
    def test_two_point_variance(self):
        assert windowed_covariance(ts("a", [0.0, 2.0]), ts("a2", [0.0, 2.0]), WindowSpec(0, 2)) == 1.0

    def test_exact_anticorrelation(self):
        assert windowed_covariance(ts("a", [0.0, 2.0]), ts("b", [2.0, 0.0]), WindowSpec(0, 2)) == -1.0

    def test_hand_evaluated_sum(self):
        got = windowed_covariance(ts("a", [1.0, 2.0, 3.0]), ts("b", [2.0, 4.0, 7.0]), WindowSpec(0, 3))
        assert got == pytest.approx(5.0 / 3.0, abs=1e-15)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            a = ts("a", rng.normal(size=16))
            b = ts("b", rng.normal(size=16))
            w = WindowSpec(int(rng.integers(0, 5)), 10)
            assert windowed_covariance(a, b, w) == windowed_covariance(b, a, w)

    def test_cauchy_schwarz(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            a = ts("a", rng.normal(size=12) * rng.uniform(0.1, 50))
            b = ts("b", rng.normal(size=12) * rng.uniform(0.1, 50))
            w = WindowSpec(0, 12)
            cov = windowed_covariance(a, b, w)
            bound = math.sqrt(
                windowed_covariance(a, a, w) * windowed_covariance(b, b, w)
            )
            assert abs(cov) <= bound + 1e-12

    def test_variance_identity_exact(self):
        rng = np.random.default_rng(8)
        a = ts("a", rng.normal(size=20))
        w = WindowSpec(0, 20)
        var = windowed_covariance(a, a, w)
        assert var >= 0.0
        assert var == pytest.approx(float(np.var(a.values)), rel=1e-14)

    def test_product_expectation_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            av = rng.normal(size=15) * 3 + rng.uniform(-5, 5)
            bv = rng.normal(size=15) * 2 + rng.uniform(-5, 5)
            w = WindowSpec(0, 15)
            cov = windowed_covariance(ts("a", av), ts("b", bv), w)
            alt = float(np.mean(av * bv) - np.mean(av) * np.mean(bv))
            assert cov == pytest.approx(alt, abs=1e-10)

    def test_requires_alignment(self):
        with pytest.raises(ValueError, match="not aligned"):
            windowed_covariance(ts("a", [1, 2]), TimeSeries("b", 1, 1, [1, 2]), WindowSpec(0, 2))


class TestPearsonRho:
    def test_self_correlation(self):
        rng = np.random.default_rng(2)
        a = ts("a", rng.normal(size=10))
        b = ts("b", np.array(a.values))
        assert pearson_rho(a, b, WindowSpec(0, 10)) == pytest.approx(1.0, abs=1e-12)

    def test_negated_copy(self):
        rng = np.random.default_rng(3)
        a = ts("a", rng.normal(size=10))
        b = ts("b", -a.values)
        assert pearson_rho(a, b, WindowSpec(0, 10)) == pytest.approx(-1.0, abs=1e-12)

    def test_orthogonal_quadrature(self):
        a = ts("a", [1.0, 0.0, -1.0, 0.0])
        b = ts("b", [0.0, 1.0, 0.0, -1.0])
        assert pearson_rho(a, b, WindowSpec(0, 4)) == 0.0

    def test_zero_variance_propagates(self):
        with pytest.raises(ZeroVarianceError):
            pearson_rho(ts("a", [1.0, 1.0]), ts("b", [1.0, 2.0]), WindowSpec(0, 2))

    def test_matches_covariance_route(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a = ts("a", rng.normal(size=14))
            b = ts("b", rng.normal(size=14))
            w = WindowSpec(0, 14)
            direct = pearson_rho(a, b, w)
            via_cov = windowed_covariance(a, b, w) / math.sqrt(
                windowed_covariance(a, a, w) * windowed_covariance(b, b, w)
            )
            assert direct == pytest.approx(via_cov, abs=1e-12)

    def test_affine_invariance_and_sign_flip(self):
        rng = np.random.default_rng(10)
        a = ts("a", rng.normal(size=18))
        b = ts("b", rng.normal(size=18))
        w = WindowSpec(0, 18)
        rho = pearson_rho(a, b, w)
        a2 = ts("a", 3.7 * a.values + 11.0)
        b2 = ts("b", 0.2 * b.values - 4.0)
        assert pearson_rho(a2, b2, w) == pytest.approx(rho, abs=1e-10)
        assert pearson_rho(ts("a", -a.values), b, w) == -rho


class TestCorrelationMatrix:
    def test_identical_series_all_ones(self):
        rng = np.random.default_rng(1)
        vals = rng.normal(size=12)
        s = TimeSeriesSet(tuple(ts(f"s{i}", np.array(vals)) for i in range(4)))
        corr = correlation_matrix(s, WindowSpec(0, 12))
        assert np.allclose(corr.values, 1.0, atol=1e-12)
        assert np.all(np.diagonal(corr.values) == 1.0)

    def test_four_series_six_independent_pairs(self):
        rng = np.random.default_rng(12)
        corr = correlation_matrix(random_set(rng, 4, 30), WindowSpec(0, 30))
        upper = corr.values[np.triu_indices(4, 1)]
        assert upper.size == 6
        assert len(set(upper.tolist())) == 6

    def test_orthogonal_triple_gives_identity(self):
        a = np.array([1.0, -1.0, 1.0, -1.0])
        b = np.array([1.0, 1.0, -1.0, -1.0])
        c = np.array([1.0, -1.0, -1.0, 1.0])
        # brute-force check that the chosen vectors really are centered and
        # mutually orthogonal before relying on them
        for v in (a, b, c):
            assert v.sum() == 0.0
        for u, v in ((a, b), (a, c), (b, c)):
            assert float(np.dot(u, v)) == 0.0
        s = TimeSeriesSet((ts("a", a), ts("b", b), ts("c", c)))
        corr = correlation_matrix(s, WindowSpec(0, 4))
        assert np.array_equal(corr.values, np.eye(3))

    def test_zero_variance_names_offender(self):
        s = TimeSeriesSet((ts("good", [1.0, 2.0, 3.0]), ts("flat", [4.0, 4.0, 4.0])))
        with pytest.raises(ZeroVarianceError, match="'flat'"):
            correlation_matrix(s, WindowSpec(0, 3))

    def test_symmetric_and_clamped(self):
        rng = np.random.default_rng(14)
        corr = correlation_matrix(random_set(rng, 6, 9), WindowSpec(0, 9))
        assert np.array_equal(corr.values, corr.values.T)
        assert np.abs(corr.values).max() <= 1.0

    def test_validation_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            CorrelationMatrix(("a", "b"), np.array([[1.0, 0.2], [0.3, 1.0]]))


class TestTwistedDot:
    def test_basis_vectors_read_entries(self):
        rng = np.random.default_rng(15)
        s = random_set(rng, 3, 10)
        w = WindowSpec(0, 10)
        cov = covariance_matrix(s, w)
        for i in range(3):
            for j in range(3):
                ei = np.eye(3)[i]
                ej = np.eye(3)[j]
                assert twisted_dot(ei, ej, cov) == cov.values[i, j]

    def test_identity_matrix_is_plain_dot(self):
        c = np.array([1.0, 2.0, -3.0])
        d = np.array([0.5, -1.0, 2.0])
        assert twisted_dot(c, d, np.eye(3)) == pytest.approx(float(np.dot(c, d)), abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            twisted_dot([1.0, 2.0], [1.0, 2.0, 3.0], np.eye(3))
        with pytest.raises(DimensionMismatchError):
            twisted_dot([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], np.eye(2))

    def test_bilinearity_matches_explicit_combinations(self):
        # covariance of explicitly combined series equals c^T A d
        rng = np.random.default_rng(16)
        for _ in range(20):
            s = random_set(rng, 3, 5)
            w = WindowSpec(0, 5)
            cov = covariance_matrix(s, w)
            c = rng.uniform(-2, 2, 3)
            d = rng.uniform(-2, 2, 3)
            combined_c = ts("u", c @ s.matrix())
            combined_d = ts("v", d @ s.matrix())
            direct = windowed_covariance(combined_c, combined_d, w)
            assert twisted_dot(c, d, cov) == pytest.approx(direct, abs=1e-10)


class TestCovarianceMatrix:
    def test_symmetric_psd_by_construction(self):
        rng = np.random.default_rng(17)
        cov = covariance_matrix(random_set(rng, 5, 8), WindowSpec(0, 8))
        assert np.array_equal(cov.values, cov.values.T)
        assert np.linalg.eigvalsh(cov.values).min() >= -1e-9
        assert np.diagonal(cov.values).min() >= 0.0

    def test_validation_rejects_non_psd(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(ValueError, match="positive semidefinite"):
            CovarianceMatrix(("a", "b"), bad)


SPECIAL_VALUES = [0.0, -0.0, 1.5, -2.0, math.nan, math.inf, -math.inf, 1e308]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), count=st.integers(0, 4), n=st.integers(0, 9))
def test_mirror_upper_equals_the_sum_of_two_triangles_byte_for_byte(data, count, n):
    entries = data.draw(st.lists(st.sampled_from(SPECIAL_VALUES), min_size=count * n * n,
                                 max_size=count * n * n))
    m = np.array(entries, dtype=float).reshape(count, n, n)
    want = np.triu(m) + np.triu(m, 1).swapaxes(-1, -2)
    got = _mirror_upper(m)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
