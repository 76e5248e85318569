"""Correlation angles and angular distance matrices.

The correlation angle between two series is arccos(rho): the great-circle
distance between their centered unit vectors on the sphere. The projective
variant arccos(|rho|) identifies a series with its negation (a line through
the origin rather than a direction) and is the distance used for
phase-locking analysis, where maximal correlation of either sign counts as
"close". Where |rho| is near 1, angular_distances takes both from the unit
vectors' chord instead, since arccos loses half the digits there. Both are
metrics; `verify_metric_axioms` checks that claim numerically on any matrix.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# Triangle-inequality slack. angular_distances' margins are proven to fall no
# further below zero than B(K), 3.55e-13 at K = 21 and 1.55e-12 at K = 101,
# and B(K) reaches this tolerance near K = 67,100 samples (see
# angular_distances).
TRIANGLE_TOL = 1e-9

# angular_distances takes each entry with |rho| > 1 - NEAR_ONE from the chord
# between the unit vectors, every other entry from arccos. The largest
# off-diagonal |rho| of the benchmark's inputs for seeds 900-1009 is 0.9973,
# so none of them takes a chord.
NEAR_ONE = 1e-3

# Float64 elements per block of _min_triangle_margins' sums, (k rows, n, M):
# the rows of k > i are taken in blocks of about this size, at least one row.
# Scanning stacks of 80 matrices (K = 101, a common signal, 2-vCPU sandbox,
# medians of 9), 2^16 beat 2^14, 2^18 and unblocked at n = 64 (105 vs 170,
# 146 and 138 ms for 200 windows) and n = 96 (316 vs 428, 366 and 402 ms for
# 150 windows), and was even with them at n = 32.
SCAN_ELEMENTS = 2**16

SPHERICAL = "spherical"
PROJECTIVE = "projective"


class TriangleViolation(NamedTuple):
    i: int
    j: int
    k: int
    margin: float


class MetricReport(NamedTuple):
    """Outcome of checking the metric axioms on a square matrix."""

    n: int
    tolerance: float
    passed: bool
    max_symmetry_error: float
    max_diagonal_error: float
    min_entry: float
    min_triangle_margin: float
    worst_triple: tuple[int, int, int] | None
    violations: tuple[TriangleViolation, ...]

    def summary(self) -> str:
        state = "pass" if self.passed else "FAIL"
        return (
            f"{state}: n={self.n} min_triangle_margin={self.min_triangle_margin:.3e} "
            f"symmetry={self.max_symmetry_error:.3e} diag={self.max_diagonal_error:.3e} "
            f"min_entry={self.min_entry:.3e} violations={len(self.violations)}"
        )


class _AxiomStats(NamedTuple):
    """verify_metric_axioms' figures for each matrix of an (M, n, n) stack."""

    passed: np.ndarray
    symmetry: np.ndarray
    diagonal: np.ndarray
    min_entry: np.ndarray
    min_margin: np.ndarray  # inf when n < 3


def _triangle_margins(m: np.ndarray) -> np.ndarray:
    """margins[:, i, j, k] = d(i,j) + d(j,k) - d(i,k) of an (M, n, n) stack,
    inf wherever two of i, j, k coincide: an (M, n, n, n) array."""
    margins = m[:, :, :, None] + m[:, None, :, :]
    margins -= m[:, :, None, :]
    idx = np.arange(m.shape[-1])
    margins[:, idx, idx, :] = np.inf
    margins[:, :, idx, idx] = np.inf
    margins[:, idx, :, idx] = np.inf
    return margins


def _min_triangle_margins(m: np.ndarray) -> np.ndarray:
    """Minimum of _triangle_margins(m) per matrix of an exactly symmetric
    (M, n, n) stack, n >= 3, bit for bit, without building it.

    The scan works on one copy of the stack with the stack axis innermost,
    s[k, j, r] = m[r, k, j], so every numpy loop runs over all M matrices and
    a tall stack scans faster per matrix than a short one. For each first
    index i and each block of k > i it adds s[k] + s[i], that is d_kj + d_ij,
    takes the minimum over j, and only then subtracts d_ik, once per (i, k):

    * d_kj + d_ij is d_ij + d_jk bit for bit, since the stack is exactly
      symmetric and IEEE addition commutes. For the same reason the margin of
      (i, j, k) equals that of (k, j, i), so k > i covers every triple.
    * An exactly symmetric stack is finite, since a NaN or inf entry makes
      m - m^T NaN. For finite c, fl(x - c) is monotone in x, so
      min_j fl(x_j - c) = fl(min_j x_j - c): the hoisted subtraction is exact.
    * s has a +inf diagonal, so the sums with j == i or j == k are +inf and
      stay +inf after the subtraction, as _triangle_margins masks them.

    A zero minimum may differ in its sign where entries are -0.0, which
    angular_distances never writes.
    """
    count, n = m.shape[0], m.shape[-1]
    s = m.transpose(1, 2, 0).copy()
    idx = np.arange(n)
    s[idx, idx] = np.inf
    rows = max(1, SCAN_ELEMENTS // (n * count or 1))
    block = min(rows, n - 1)
    sums = np.empty((block, n, count))
    low = np.empty((block, count))
    best = np.full(count, np.inf)
    for i in range(n - 1):
        for lo in range(i + 1, n, block):
            hi = min(lo + block, n)
            x, y = sums[: hi - lo], low[: hi - lo]
            np.add(s[lo:hi], s[i], out=x)  # x[k - lo, j] = d_kj + d_ij
            np.minimum.reduce(x, axis=1, out=y)
            y -= s[i, lo:hi]
            np.minimum(best, y.min(axis=0), out=best)
    return best


def _axiom_stats(m: np.ndarray, tolerance: float = TRIANGLE_TOL) -> _AxiomStats:
    """Symmetry error, diagonal error, minimum entry and minimum triangle
    margin of every matrix of an (M, n, n) stack, and whether each passes.

    The margins are those of _triangle_margins. An exactly symmetric stack,
    as angular_distances makes every stack validate checks, is reduced by
    _min_triangle_margins without building them. Any other stack builds them
    one matrix at a time and takes each minimum with argmin, so that a NaN
    margin counts as smallest, as in the n^3 definition. A matrix passes when
    each error is within tolerance and no margin is below -tolerance; a NaN
    anywhere fails.
    """
    count, n = m.shape[0], m.shape[-1]
    asymmetry = m - m.transpose(0, 2, 1)
    symmetry = np.abs(asymmetry, out=asymmetry).max(axis=(1, 2), initial=0.0)
    del asymmetry  # not held during the scan
    diagonal = np.abs(m.diagonal(0, 1, 2)).max(axis=1, initial=0.0)
    min_entry = m.min(axis=(1, 2), initial=0.0)
    if n < 3:
        min_margin = np.full(count, math.inf)
    elif symmetry.any():
        flat = (_triangle_margins(matrix[None]).ravel() for matrix in m)
        min_margin = np.array([x[x.argmin()] for x in flat])
    else:
        min_margin = _min_triangle_margins(m)
    passed = (np.maximum(symmetry, diagonal) <= tolerance) & (
        np.minimum(min_entry, min_margin) >= -tolerance
    )
    return _AxiomStats(passed, symmetry, diagonal, min_entry, min_margin)


def verify_metric_axioms(matrix, tolerance: float = TRIANGLE_TOL) -> MetricReport:
    """Check nonnegativity, zero diagonal, symmetry, and every triangle.

    Violations are report content, not errors; the worst triple and its
    margin (d_ij + d_jk - d_ik, negative when violated) are always reported.
    The verdict and the entry figures are _axiom_stats'; the minimum margin,
    its first triple and every violated triple are read from one
    _triangle_margins array of the matrix, 8 n^3 bytes: 0.26 MB at n = 32,
    2.1 MB at n = 64 and 16.8 MB at n = 128.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    n = m.shape[0]
    stats = _axiom_stats(m[None], tolerance)
    min_margin, worst, found = math.inf, None, {}
    if n >= 3:
        margins = _triangle_margins(m[None])[0]
        at = margins.argmin()  # the first smallest, NaN first; 0 where all are +inf
        min_margin = float(margins.flat[at])
        worst = tuple(sorted(int(x) for x in np.unravel_index(at, margins.shape)))
        for i, j, k in np.argwhere(margins < -tolerance):
            key = tuple(sorted((int(i), int(j), int(k))))
            val = float(margins[i, j, k])
            if key not in found or val < found[key]:
                found[key] = val

    violations = tuple(
        TriangleViolation(*key, margin=found[key]) for key in sorted(found)
    )
    return MetricReport(
        n=n,
        tolerance=tolerance,
        passed=bool(stats.passed[0]),
        max_symmetry_error=float(stats.symmetry[0]),
        max_diagonal_error=float(stats.diagonal[0]),
        min_entry=float(stats.min_entry[0]),
        min_triangle_margin=min_margin,
        worst_triple=worst,
        violations=violations,
    )


def angular_distances(rho: np.ndarray, units: np.ndarray, kind: str = PROJECTIVE) -> np.ndarray:
    """Angular distances (..., n, n) between the unit rows ``units`` (..., n, K)
    whose correlations are ``rho``, with exactly zero diagonals.

    An entry i < j with |rho| <= 1 - NEAR_ONE is arccos(rho) for spherical and
    arccos(|rho|) for projective. Any other is taken from the chord: with
    s = sign(rho), phi = 2 asin(||x_i - s x_j|| / 2) is the projective
    distance, and the spherical one is phi where rho > 0, else pi - phi. Each
    is mirrored to j, i, so a stack mirrored from its upper triangle, as
    correlation_from_units makes it, gives an exactly symmetric one. arccos
    has slope 1 / sqrt(1 - rho^2), so near |rho| = 1 it turns the rounding of
    rho into errors near sqrt(u) (u = 2^-53); the chord has no such factor.

    A proof that every triangle margin d_ij + d_jk - d_ik of such a stack is
    >= -B(K), from the unit rows of length K that series._window_units gives
    a window with no constant series and rho from correlation_from_units.
    u = 2^-53, gamma_k = k u / (1 - k u) (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., section 3.1) and delta = NEAR_ONE. A
    product or square below the normal range errs by at most 2^-1075.

    1. Norms. series._window_units proves |||x|| - 1| <= eta = eta(K), about
       (K / 2 + 2) u, for every such row.
    2. Correlations. Let c = x_i.x_j / (||x_i|| ||x_j||), the exact cosine of the
       two rows. The computed dot product, in any summation order, is within
       gamma_K (1 + eta)^2 + K 2^-1074 of x_i.x_j, which is within
       (1 + eta)^2 - 1 of c, and clipping to [-1, 1] moves no entry away from
       c. So |rho - c| <= eps_rho = gamma_K (1 + eta)^2 + 2 eta + eta^2 +
       K 2^-1074.
    3. arccos entries. Here |rho| <= 1 - delta, so rho and c lie in [-r, r] with
       r = 1 - delta + eps_rho, where arccos has slope at most 1 / sqrt(1 - r^2).
       With E = 2^-48 for the error of one np.arccos result (16 ulps at pi/2;
       the SVML arccos numpy uses on AVX-512 machines is specified within
       4 ulps and glibc's acos within 1; against 120-bit mpmath, numpy 2.4 on
       an AVX-512 Xeon erred by at most 0.79 ulp over 20,000 arguments), each
       entry is within eps_a = eps_rho / sqrt(1 - r^2) + E of the exact
       angle, arccos c or arccos|c|.
    4. Chord entries. Here |rho| > 1 - delta > eps_rho, so c has the sign s,
       and with a, b the rows scaled to unit length the exact angles are
       theta = 2 asin(||a - s b|| / 2) (projective), and theta or pi - theta
       (spherical, as s is 1 or -1). ||x_i - s x_j|| is within 2 eta of
       ||a - s b|| <= sqrt(2 (delta + eps_rho)), so at most t = sqrt(2 (delta +
       eps_rho)) + 2 eta; the subtraction and the norm add a relative error of
       at most gamma_(K+2), and squares below the normal range an absolute
       one of at most v = sqrt(K) 2^-537. 2 asin(y / 2) has slope at most
       1 / sqrt(1 - t'^2 / 4) for y <= t' = t (1 + gamma_(K+2)) + v. So each
       entry is within eps_c = (2 eta + gamma_(K+2) t + v) / sqrt(1 - t'^2 / 4)
       + E of the exact angle; E also covers np.arcsin, the error of np.pi and
       the rounding of pi - phi.
    5. Margins. The exact angles are metrics (between directions; between
       lines, minimised over the sign), so their margins are >= 0, and each
       computed entry is within eps_d = max(eps_a, eps_c) of its exact angle.
       The two roundings of a margin, on sums of at most 2 pi, add at most
       (2 + u) 2 pi u. So every margin is >= -B(K) = -(3 eps_d + (2 + u) 2 pi u).

    B(K) is 3.55e-13 at K = 21 and 1.55e-12 at K = 101, eps_a dominating,
    and reaches TRIANGLE_TOL near K = 67,100. The entries are finite, since
    the unit rows are, and lie in [0, pi/2] for projective and [0, pi] for
    spherical.
    """
    magnitude = np.abs(rho)
    if kind == SPHERICAL:
        entries = np.arccos(rho)
    elif kind == PROJECTIVE:
        entries = np.arccos(magnitude)
    else:
        raise ValueError(f"kind must be {SPHERICAL!r} or {PROJECTIVE!r}")
    near = magnitude > 1.0 - NEAR_ONE
    idx = np.arange(entries.shape[-1])
    near[..., idx, idx] = False
    if near.any():  # rare: locating the entries costs more than the arccos
        *lead, i, j = np.nonzero(np.triu(near))
        sign = np.sign(rho[(*lead, i, j)])
        chord = np.linalg.norm(units[(*lead, i)] - sign[:, None] * units[(*lead, j)], axis=-1)
        phi = 2.0 * np.arcsin(chord / 2.0)
        if kind == SPHERICAL:
            phi = np.where(sign > 0.0, phi, math.pi - phi)
        entries[(*lead, i, j)] = entries[(*lead, j, i)] = phi
    entries[..., idx, idx] = 0.0
    return entries
