"""Pearson correlation as the covariance inner product of centred unit vectors.

The windowed covariance of two series over a window of K samples is

    cov(a, b) = (1/K) * sum_l (a(l) - mean_a) * (b(l) - mean_b),

an inner product on the centred windows. Scaled to unit norm, the windows
become points on a sphere, and their correlation is the covariance inner
product of those unit vectors: the cosine of the angle between them. That
is how it is computed here, as a Gram matrix of one centred unit vector per
(series, window), shared across all pairs.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, TooFewPointsError
from .series import Frozen, TimeSeriesSet, WindowSpec, windowed_unit_matrix


def _mirror_upper(m: np.ndarray) -> np.ndarray:
    """Exactly symmetric copy of each (n, n) matrix of a stack, built from
    its upper triangle."""
    out = m.copy()
    np.copyto(out, m.swapaxes(-1, -2), where=np.tri(m.shape[-1], k=-1, dtype=bool))
    out += 0.0  # -0.0 to +0.0, as adding the two triangles did
    return out


class CorrelationMatrix(Frozen):
    """Symmetric matrix of Pearson correlations with unit diagonal."""

    def __init__(self, ids: tuple[str, ...], values: np.ndarray):
        v = np.array(values, dtype=float)
        n = len(ids)
        if v.shape != (n, n):
            raise DimensionMismatchError(
                f"expected a {n}x{n} matrix, got shape {v.shape}"
            )
        if not np.array_equal(v, v.T):
            raise ValueError("correlation matrix must be exactly symmetric")
        if not np.all(np.diagonal(v) == 1.0):
            raise ValueError("correlation matrix diagonal must be exactly 1")
        if np.abs(v).max() > 1.0:
            raise ValueError("correlation entries must lie in [-1, 1]")
        v.setflags(write=False)
        self._set(ids=tuple(ids), values=v)

    @property
    def n(self) -> int:
        return len(self.ids)


def correlation_from_units(units: np.ndarray) -> np.ndarray:
    """Correlation matrices (..., n, n) from stacked centered unit vectors
    (..., n, K), one per window of a stack.

    Entries are clamped to [-1, 1], the diagonal is exactly 1, and the upper
    triangle is mirrored so the result is exactly symmetric regardless of
    BLAS evaluation order.
    """
    gram = _mirror_upper(units @ units.swapaxes(-1, -2))
    rho = np.clip(gram, -1.0, 1.0)
    idx = np.arange(rho.shape[-1])
    rho[..., idx, idx] = 1.0
    return rho


def correlation_matrix(ts_set: TimeSeriesSet, w: WindowSpec) -> CorrelationMatrix:
    """Pairwise Pearson correlations of a set over one window.

    Raises ZeroVarianceError naming the first constant series, and
    TooFewPointsError for sets with fewer than two series.
    """
    if len(ts_set) < 2:
        raise TooFewPointsError("pairwise correlation needs at least 2 series")
    units = windowed_unit_matrix(ts_set, w)
    return CorrelationMatrix(ts_set.ids, correlation_from_units(units))
