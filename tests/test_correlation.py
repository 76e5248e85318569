import numpy as np
import pytest

from corrgeom import TimeSeries, TimeSeriesSet
from oracles import WindowSpec, ZeroVarianceError, pearson_rho, window_correlations


def ts(sid, values):
    return TimeSeries(sid, 0, 1, values)


def random_set(rng, n, k):
    return TimeSeriesSet(tuple(ts(f"s{i}", rng.normal(size=k)) for i in range(n)))


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
            via_cov = np.corrcoef(a.values, b.values)[0, 1]
            assert direct == pytest.approx(via_cov, abs=1e-12)

    def test_requires_alignment(self):
        with pytest.raises(ValueError, match="not aligned"):
            pearson_rho(ts("a", [1, 2]), TimeSeries("b", 1, 1, [1, 2]), WindowSpec(0, 2))

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


class TestWindowCorrelations:
    def test_identical_series_all_ones(self):
        rng = np.random.default_rng(1)
        vals = rng.normal(size=12)
        s = TimeSeriesSet(tuple(ts(f"s{i}", np.array(vals)) for i in range(4)))
        corr = window_correlations(s, WindowSpec(0, 12))
        assert np.allclose(corr, 1.0, atol=1e-12)
        assert np.all(np.diagonal(corr) == 1.0)

    def test_four_series_six_independent_pairs(self):
        rng = np.random.default_rng(12)
        corr = window_correlations(random_set(rng, 4, 30), WindowSpec(0, 30))
        upper = corr[np.triu_indices(4, 1)]
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
        corr = window_correlations(s, WindowSpec(0, 4))
        assert np.array_equal(corr, np.eye(3))

    def test_zero_variance_names_offender(self):
        s = TimeSeriesSet((ts("good", [1.0, 2.0, 3.0]), ts("flat", [4.0, 4.0, 4.0])))
        with pytest.raises(ZeroVarianceError, match="'flat'"):
            window_correlations(s, WindowSpec(0, 3))

    def test_symmetric_and_clamped(self):
        rng = np.random.default_rng(14)
        corr = window_correlations(random_set(rng, 6, 9), WindowSpec(0, 9))
        assert np.array_equal(corr, corr.T)
        assert np.abs(corr).max() <= 1.0
