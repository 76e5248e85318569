"""Correlations, correlation angles and angular distance matrices.

correlation_from_units gives the Pearson correlations of a window as the
Gram matrix of its centred unit vectors, mirrored from its upper triangle in
place. The correlation angle between two series is arccos(rho): the
great-circle distance between their centered unit vectors on the sphere. The
projective variant arccos(|rho|) identifies a series with its negation (a
line through the origin rather than a direction) and is the distance used
for phase-locking analysis, where maximal correlation of either sign counts
as "close". angular_distances gives the projective distances; where |rho| is
near 1 it takes them from the unit vectors' chord instead, since arccos
loses half the digits there. spherical_distances derives the spherical ones
from rho and those projective distances, reusing the chord angle where
|rho| is near 1, so the chord is computed once. Both are metrics.
`validate` checks that claim numerically, asking one question of each
window's matrices, their minimum triangle margin, which
`_min_triangle_margins` finds for a whole stack without building the
margins, and `_first_min_triple` names the triple that holds a reported
minimum, one matrix at a time. No function here builds the n^3 margins of a
matrix. validate checks nothing else, since both functions make every stack
exactly symmetric with a +0.0 diagonal and entries in [0, pi].
"""

from __future__ import annotations

import math

import numpy as np

# Triangle-inequality slack. angular_distances' margins are proven to fall no
# further below zero than B(K), 3.55e-13 at K = 21 and 1.55e-12 at K = 101,
# and B(K) reaches this tolerance near K = 67,100 samples (see
# angular_distances).
TRIANGLE_TOL = 1e-9

# angular_distances takes each entry with |rho| > 1 - NEAR_ONE from the chord
# between the unit vectors, and spherical_distances from that chord angle,
# every other entry from arccos. The largest off-diagonal |rho| of the
# benchmark's inputs for seeds 900-1009 is 0.9973, so none of them takes a
# chord.
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


def _min_triangle_margins(m: np.ndarray) -> np.ndarray:
    """Minimum triangle margin d_ij + d_jk - d_ik over the triples of
    distinct i, j, k of each matrix of an (M, n, n) stack, n >= 3, bit for
    bit, without building the margins.

    Precondition: the stack is exactly symmetric and finite. Nothing checks
    it here: angular_distances gives every stack it makes both properties by
    construction, mirroring each entry i < j to j, i and computing it from
    finite unit rows, and spherical_distances keeps them.

    The scan works on one copy of the stack with the stack axis innermost,
    s[k, j, r] = m[r, k, j], so every numpy loop runs over all M matrices and
    a tall stack scans faster per matrix than a short one. For each first
    index i and each block of k > i it adds s[k] + s[i], that is d_kj + d_ij,
    takes the minimum over j, and only then subtracts d_ik, once per (i, k):

    * d_kj + d_ij is d_ij + d_jk bit for bit, since the stack is exactly
      symmetric and IEEE addition commutes. For the same reason the margin of
      (i, j, k) equals that of (k, j, i), so k > i covers every triple.
    * For finite c, fl(x - c) is monotone in x, so
      min_j fl(x_j - c) = fl(min_j x_j - c): the hoisted subtraction is exact.
    * s has a +inf diagonal, so the sums with j == i or j == k are +inf and
      stay +inf after the subtraction: those triples are left out.

    A zero minimum may differ in its sign where entries are -0.0, which
    neither angular_distances nor spherical_distances writes.
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


def _first_min_triple(matrix: np.ndarray, margin: float) -> tuple[int, int, int]:
    """The first triple (i, j, k) in row-major order whose margin
    d_ij + d_jk - d_ik equals ``margin`` (the first NaN margin if ``margin``
    is NaN), sorted, of an exactly symmetric (n, n) matrix, n >= 3. Margins
    with two of i, j, k equal count as +inf. It takes n^2 memory: each i
    forms only the (j, k >= i) block. A margin equals that of (k, j, i), so
    every entry equal to ``margin`` with the smallest first index has k >= i,
    and the first hit is the flat argmin of all n^3 margins when ``margin``
    is their minimum."""
    n = len(matrix)
    for i in range(n):
        block = matrix[i, :, None] + matrix[:, i:]  # block[j, k - i] = d_ij + d_jk
        block -= matrix[i, i:]
        block[i] = block[:, 0] = np.inf  # j == i, k == i
        block[np.arange(i, n), np.arange(n - i)] = np.inf  # j == k
        hits = np.flatnonzero(np.isnan(block) if math.isnan(margin) else block == margin)
        if hits.size:
            j, k = divmod(int(hits[0]), n - i)
            return tuple(sorted((i, j, i + k)))
    raise ValueError(f"no triangle margin equals {margin!r}")


def correlation_from_units(units: np.ndarray) -> np.ndarray:
    """Correlation matrices (..., n, n) from stacked centered unit vectors
    (..., n, K), one per window of a stack.

    The windowed covariance of two series over a window of K samples is

        cov(a, b) = (1/K) * sum_l (a(l) - mean_a) * (b(l) - mean_b),

    an inner product on the centred windows. Scaled to unit norm, the windows
    become points on a sphere, and their correlation is the covariance inner
    product of those unit vectors: the cosine of the angle between them. So
    the correlations are the Gram matrix of one centred unit vector per
    (series, window), shared across all pairs.

    The upper triangle is mirrored in place, so the result is exactly
    symmetric regardless of BLAS evaluation order, and adding +0.0 turns
    every -0.0 into +0.0. Entries are clamped to [-1, 1], and the diagonal
    is exactly 1.
    """
    rho = units @ units.swapaxes(-1, -2)
    np.copyto(rho, rho.swapaxes(-1, -2), where=np.tri(rho.shape[-1], k=-1, dtype=bool))
    rho += 0.0
    np.clip(rho, -1.0, 1.0, out=rho)
    idx = np.arange(rho.shape[-1])
    rho[..., idx, idx] = 1.0
    return rho


def angular_distances(rho: np.ndarray, units: np.ndarray) -> np.ndarray:
    """Projective angular distances (..., n, n) between the unit rows
    ``units`` (..., n, K) whose correlations are ``rho``, with exactly zero
    diagonals.

    An entry i < j with |rho| <= 1 - NEAR_ONE is arccos(|rho|). Any other is
    taken from the chord: with s = sign(rho), phi = 2 asin(||x_i - s x_j|| / 2).
    Each is mirrored to j, i, so a stack mirrored from its upper triangle, as
    correlation_from_units makes it, gives an exactly symmetric one. arccos
    has slope 1 / sqrt(1 - rho^2), so near |rho| = 1 it turns the rounding of
    rho into errors near sqrt(u) (u = 2^-53); the chord has no such factor.
    spherical_distances derives the spherical distances from these.

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
       and with a, b the rows scaled to unit length the exact angle is
       theta = 2 asin(||a - s b|| / 2). ||x_i - s x_j|| is within 2 eta of
       ||a - s b|| <= sqrt(2 (delta + eps_rho)), so at most t = sqrt(2 (delta +
       eps_rho)) + 2 eta; the subtraction and the norm add a relative error of
       at most gamma_(K+2), and squares below the normal range an absolute
       one of at most v = sqrt(K) 2^-537. 2 asin(y / 2) has slope at most
       1 / sqrt(1 - t'^2 / 4) for y <= t' = t (1 + gamma_(K+2)) + v. So each
       entry is within eps_c = (2 eta + gamma_(K+2) t + v) / sqrt(1 - t'^2 / 4)
       + E of the exact angle; E also covers np.arcsin. spherical_distances
       proves the same bound for its own entries.
    5. Margins. The exact angles are metrics (between directions; between
       lines, minimised over the sign), so their margins are >= 0, and each
       computed entry is within eps_d = max(eps_a, eps_c) of its exact angle.
       The two roundings of a margin, on sums of at most 2 pi, add at most
       (2 + u) 2 pi u. So every margin is >= -B(K) = -(3 eps_d + (2 + u) 2 pi u).

    B(K) is 3.55e-13 at K = 21 and 1.55e-12 at K = 101, eps_a dominating,
    and reaches TRIANGLE_TOL near K = 67,100. The entries are finite, since
    the unit rows are, and lie in [0, pi/2].
    """
    magnitude = np.abs(rho)
    entries = np.arccos(magnitude)
    near = magnitude > 1.0 - NEAR_ONE
    idx = np.arange(entries.shape[-1])
    near[..., idx, idx] = False
    if near.any():  # rare: locating the entries costs more than the arccos
        *lead, i, j = np.nonzero(np.triu(near))
        sign = np.sign(rho[(*lead, i, j)])
        chord = np.linalg.norm(units[(*lead, i)] - sign[:, None] * units[(*lead, j)], axis=-1)
        entries[(*lead, i, j)] = entries[(*lead, j, i)] = 2.0 * np.arcsin(chord / 2.0)
    entries[..., idx, idx] = 0.0
    return entries


def spherical_distances(rho: np.ndarray, projective: np.ndarray) -> np.ndarray:
    """Spherical angular distances (..., n, n) between unit rows whose
    correlations are ``rho``, with a diagonal of exactly 1, and whose
    projective distances angular_distances gave as ``projective``.

    An entry with |rho| <= 1 - NEAR_ONE is arccos(rho), within eps_a of the
    exact angle arccos c by step 3 of angular_distances' proof. Any other is
    taken from the chord angle phi that angular_distances computed for it:
    phi where rho > 0, else pi - phi, as the exact angle is theta or
    pi - theta where s is 1 or -1. By step 4 that is within eps_c of the
    exact angle, E also covering the error of np.pi and the rounding of
    pi - phi, so step 5 bounds every margin by -B(K) here too. The diagonal,
    where rho is 1, takes the projective 0.0. Stacks exactly symmetric in
    both arguments give an exactly symmetric one, with finite entries in
    [0, pi].
    """
    entries = np.arccos(rho)
    near = np.abs(rho) > 1.0 - NEAR_ONE
    entries[near] = np.where(rho[near] > 0.0, projective[near], math.pi - projective[near])
    return entries
