"""Correlation angles and angular distance matrices.

The correlation angle between two series is arccos(rho): the great-circle
distance between their centered unit vectors on the sphere. The projective
variant arccos(|rho|) identifies a series with its negation (a line through
the origin rather than a direction) and is the distance used for
phase-locking analysis, where maximal correlation of either sign counts as
"close". Both are metrics; `verify_metric_axioms` checks that claim
numerically on any matrix.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .series import NORM_TOL

# Triangle-inequality slack. arccos amplifies dot-product rounding near +-1
# like 1/sqrt(eps), so 1e-9 covers windows up to ~1e6 samples in doubles.
TRIANGLE_TOL = 1e-9

# Unit roundoff of float64.
UNIT_ROUNDOFF = 2.0**-53
# Allowance for the absolute error of one np.arccos result in [0, pi/2]: 16
# ulps at pi/2. The SVML arccos numpy uses on AVX-512 machines is specified
# within 4 ulps and glibc's acos within 1; against 120-bit mpmath, numpy 2.4
# on an AVX-512 Xeon erred by at most 0.79 ulp over 20,000 arguments. The
# rest covers the rounding of _margin_error_bound's own evaluation.
ARCCOS_ERROR = 2.0**-48

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
    min_margin: np.ndarray  # inf when n < 3; -margin_error where not scanned


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


def _worst_triangle(m: np.ndarray) -> tuple[float, tuple[int, int, int]]:
    """Smallest triangle margin of one (n, n) matrix, n >= 3, and the first
    (i, j, k) in the flat order of _triangle_margins where it falls; a NaN
    margin counts as smallest, and where every margin is +inf it is (0, 0, 0).

    The margins are reduced in (n, n) slabs of one first index i at a time,
    with the coinciding indices masked. argmin keeps the first minimum and
    counts a NaN as smallest, within a slab and across them, as it does over
    the whole (n, n, n) array.
    """
    n = m.shape[0]
    values = np.empty(n)
    args = np.empty(n, dtype=int)
    for i in range(n):
        slab = m[i, :, None] + m  # slab[j, k]
        slab -= m[i, None, :]
        slab[i] = np.inf  # j == i
        np.fill_diagonal(slab, np.inf)  # j == k
        slab[:, i] = np.inf  # k == i
        args[i] = slab.argmin()
        values[i] = slab.flat[args[i]]
    i = int(values.argmin())
    margin = float(values[i])
    if margin == math.inf:
        return margin, (0, 0, 0)
    return margin, (i, *divmod(int(args[i]), n))


def _margin_error_bound(rho: np.ndarray, window: int) -> np.ndarray:
    """A proven bound, per matrix of an (M, n, n) stack of correlations from
    correlation_from_units, on how far below zero a triangle margin of
    angular_distances(rho, PROJECTIVE) can fall: every margin that
    _axiom_stats computes from those distances is >= -bound; inf where none
    is proven.

    The premises: rho[i, j] is the dot product of rows x_i, x_j of length K =
    ``window`` that passed the engine's unit-row check, series._bad_unit_row,
    computed in float64 in any summation order, then clipped to [-1, 1]. u is
    the unit roundoff and gamma_k = k*u / (1 - k*u) (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., section 3.1).

    1. Norms. The check computed each norm N = ||x|| (1 + t), |t| <= gamma_(K+1)
       (K squares, K - 1 sums, one square root), and found |N - 1| <= eta0 =
       NORM_TOL. So |||x|| - 1| <= eta = (eta0 + gamma_(K+1)) / (1 - gamma_(K+1)).
    2. Correlations. Let c = x_i.x_j / (||x_i|| ||x_j||), the exact cosine of the
       two computed rows. The computed dot product is within gamma_K ||x_i||
       ||x_j|| <= gamma_K (1 + eta)^2 of x_i.x_j, which is within (1 + eta)^2 - 1
       of c, and clipping to [-1, 1] moves no entry away from c. So
       |rho - c| <= eps_rho = gamma_K (1 + eta)^2 + 2 eta + eta^2, and the
       same holds for |rho| against |c|.
    3. Distances. Let r be the matrix's largest off-diagonal |rho|. Both |rho|
       and |c| lie in [0, r + eps_rho]; where r + eps_rho < 1, arccos has slope
       at most 1 / sqrt(1 - (r + eps_rho)^2) there, so arccos|rho| is within
       eps_rho / sqrt(1 - (r + eps_rho)^2) of the projective angle
       theta = arccos|c|. np.arccos adds at most ARCCOS_ERROR, so each computed
       distance d is within eps_d = eps_rho / sqrt(1 - (r + eps_rho)^2) +
       ARCCOS_ERROR of theta. The diagonal is exactly 0 in both.
    4. Margins. theta is a metric on lines through the origin (the angle
       between x and +-y, minimised over the sign), so theta_ij + theta_jk -
       theta_ik >= 0 for the computed rows. Hence d_ij + d_jk - d_ik >= -3 eps_d,
       and its two roundings, on sums of at most pi, add at most (2 + u) u pi.

    bound = 3 eps_d + (2 + u) u pi where r + eps_rho < 1, else inf. The bound
    is itself rounded, with a relative error of a few u; ARCCOS_ERROR's slack
    covers that wherever the bound is small enough to be used. Near-copies,
    whose |rho| is within ~1e-16 of 1, get no finite bound.
    """
    n = rho.shape[-1]
    off = ~np.eye(n, dtype=bool)
    r = np.maximum(
        rho.max(axis=(1, 2), where=off, initial=0.0),
        -rho.min(axis=(1, 2), where=off, initial=0.0),
    )
    u = UNIT_ROUNDOFF
    gamma, gamma1 = (k * u / (1 - k * u) for k in (window, window + 1))
    eta = (NORM_TOL + gamma1) / (1 - gamma1)
    eps_rho = gamma * (1 + eta) ** 2 + 2 * eta + eta**2
    s = r + eps_rho
    bound = np.full(s.shape, math.inf)
    proven = s < 1.0  # False for a NaN
    eps_d = eps_rho / np.sqrt((1.0 - s[proven]) * (1.0 + s[proven])) + ARCCOS_ERROR
    bound[proven] = 3 * eps_d + (2 + u) * u * math.pi
    return bound


def _axiom_stats(
    m: np.ndarray,
    tolerance: float = TRIANGLE_TOL,
    margin_error: np.ndarray | None = None,
    min_margin: np.ndarray | None = None,
) -> _AxiomStats:
    """Symmetry error, diagonal error, minimum entry and minimum triangle
    margin of every matrix of an (M, n, n) stack, and whether each passes.

    The margins are those of _triangle_margins, reduced without building it:
    by _min_triangle_margins on an exactly symmetric stack, the engine's
    case, and by _worst_triangle one matrix at a time on any other. A matrix
    passes when each error is within tolerance and no margin is below
    -tolerance; a NaN anywhere fails.

    ``margin_error``, from _margin_error_bound, proves per matrix that no
    margin is below -margin_error. A matrix where that is within tolerance is
    not scanned: it passes the triangle test and its min_margin reads
    -margin_error (a lower bound, not the minimum). The other checks run on
    every matrix. ``min_margin``, where the caller has already found the
    minima, replaces the scan.
    """
    count, n = m.shape[0], m.shape[-1]
    asymmetry = m - m.transpose(0, 2, 1)
    symmetry = np.abs(asymmetry, out=asymmetry).max(axis=(1, 2), initial=0.0)
    del asymmetry  # not held during the scan
    diagonal = np.abs(m.diagonal(0, 1, 2)).max(axis=1, initial=0.0)
    min_entry = m.min(axis=(1, 2), initial=0.0)
    if min_margin is None and n < 3:
        min_margin = np.full(count, math.inf)
    elif min_margin is None:
        if margin_error is None:
            margin_error = np.full(count, math.inf)  # nothing proven: scan every matrix
        min_margin = -margin_error
        scan = ~(margin_error <= tolerance)
        if scan.any():
            sub = m if scan.all() else m[scan]
            if symmetry[scan].any():
                min_margin[scan] = [_worst_triangle(matrix)[0] for matrix in sub]
            else:
                min_margin[scan] = _min_triangle_margins(sub)
    passed = (np.maximum(symmetry, diagonal) <= tolerance) & (
        np.minimum(min_entry, min_margin) >= -tolerance
    )
    return _AxiomStats(passed, symmetry, diagonal, min_entry, min_margin)


def verify_metric_axioms(matrix, tolerance: float = TRIANGLE_TOL) -> MetricReport:
    """Check nonnegativity, zero diagonal, symmetry, and every triangle.

    Violations are report content, not errors; the worst triple and its
    margin (d_ij + d_jk - d_ik, negative when violated) are always reported.
    Only a matrix with a margin below -tolerance (or a NaN one) has its n^3
    margins built, to list every violated triple.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    n = m.shape[0]
    min_margin, worst = (math.inf, None) if n < 3 else _worst_triangle(m)
    stats = _axiom_stats(m[None], tolerance, min_margin=np.array([min_margin]))
    found: dict[tuple[int, int, int], float] = {}
    if worst is not None:
        worst = tuple(sorted(worst))
        if not min_margin >= -tolerance:
            margins = _triangle_margins(m[None])[0]
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


def angular_distances(rho: np.ndarray, kind: str = PROJECTIVE) -> np.ndarray:
    """Angular distances from correlations (..., n, n), with exactly zero
    diagonals: arccos(rho) for spherical, arccos(|rho|) for projective."""
    if kind == SPHERICAL:
        entries = np.arccos(rho)
    elif kind == PROJECTIVE:
        entries = np.arccos(np.abs(rho))
    else:
        raise ValueError(f"kind must be {SPHERICAL!r} or {PROJECTIVE!r}")
    idx = np.arange(entries.shape[-1])
    entries[..., idx, idx] = 0.0
    return entries

