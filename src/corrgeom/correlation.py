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


def _mirror_upper(m: np.ndarray) -> np.ndarray:
    """Exactly symmetric copy of each (n, n) matrix of a stack, built from
    its upper triangle."""
    out = m.copy()
    np.copyto(out, m.swapaxes(-1, -2), where=np.tri(m.shape[-1], k=-1, dtype=bool))
    out += 0.0  # -0.0 to +0.0, as adding the two triangles did
    return out


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

