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
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .correlation import CorrelationMatrix
from .errors import AngleDomainError, MetricViolationError
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

SPHERICAL = "spherical"
PROJECTIVE = "projective"

CLASS_MAX_POSITIVE = "max_positive"
CLASS_MAX_NEGATIVE = "max_negative"
CLASS_UNCORRELATED = "uncorrelated"
CLASS_INTERMEDIATE = "intermediate"


def _check_rho(rho: float) -> float:
    rho = float(rho)
    if not -1.0 <= rho <= 1.0:
        raise AngleDomainError(f"correlation must lie in [-1, 1], got {rho}")
    return rho


def correlation_angle(rho: float) -> float:
    """arccos(rho): angular distance on the sphere, in [0, pi]."""
    return math.acos(_check_rho(rho))


def projective_angle(rho: float) -> float:
    """arccos(|rho|): angular distance on projective space, in [0, pi/2].

    Equals the correlation angle when that angle is at most pi/2, and its
    supplement otherwise.
    """
    return math.acos(abs(_check_rho(rho)))


def classify_correlation(rho: float, tol: float = 1e-9) -> str:
    """Classify a correlation as maximally positive/negative, uncorrelated,
    or intermediate, comparing against the endpoints within ``tol``."""
    rho = _check_rho(rho)
    if rho >= 1.0 - tol:
        return CLASS_MAX_POSITIVE
    if rho <= -1.0 + tol:
        return CLASS_MAX_NEGATIVE
    if abs(rho) <= tol:
        return CLASS_UNCORRELATED
    return CLASS_INTERMEDIATE


@dataclass(frozen=True)
class TriangleViolation:
    i: int
    j: int
    k: int
    margin: float


@dataclass(frozen=True)
class MetricReport:
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
    worst: np.ndarray  # first flat index (i*n + j)*n + k of min_margin in (i, j, k) order


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


def _min_triangle_margins(m: np.ndarray, half: bool) -> tuple[np.ndarray, np.ndarray]:
    """Minimum and first flat argmin of _triangle_margins(m) per matrix,
    reduced over one (M, n, n - lo) slab of first index i at a time, with k
    from lo = i + 1 when ``half`` (m exactly symmetric), from 0 otherwise."""
    count, n = m.shape[0], m.shape[-1]
    stop = n - 1 if half else n
    values = np.empty((stop, count))
    args = np.empty((stop, count), dtype=int)
    buffer = np.empty(count * n * n)
    rows = np.arange(count)
    for i in range(stop):
        lo = i + 1 if half else 0
        width = n - lo
        slab = buffer[: count * n * width].reshape(count, n, width)
        np.add(m[:, i, :, None], m[:, :, lo:], out=slab)  # slab[:, j, k - lo]
        np.subtract(slab, m[:, i, None, lo:], out=slab)
        flat = slab.reshape(count, n * width)
        flat[:, i * width : (i + 1) * width] = np.inf  # j == i
        flat[:, lo * width :: width + 1] = np.inf  # j == k
        if not half:
            flat[:, i::n] = np.inf  # k == i
        args[i] = flat.argmin(axis=1)
        values[i] = flat[rows, args[i]]
    # argmin keeps the first minimum and counts a NaN as smallest, within a
    # slab and across them, as it does over the whole (n, n, n) array.
    first = values.argmin(axis=0)
    arg = args[first, rows]
    lo = first + 1 if half else 0
    width = n - lo
    worst = (first * n + arg // width) * n + lo + arg % width
    min_margin = values[first, rows]
    if half:
        # Every margin +inf: the first is (0, 0, 0), which the scan skips.
        worst[min_margin == np.inf] = 0
    return min_margin, worst


def _margin_error_bound(rho: np.ndarray, window: int) -> np.ndarray:
    """A proven bound, per matrix of an (M, n, n) stack of correlations from
    correlation_from_units, on how far below zero a triangle margin of
    angular_distances(rho, PROJECTIVE) can fall: every margin that
    _axiom_stats computes from those distances is >= -bound; inf where none
    is proven.

    The premises: rho[i, j] is the dot product of rows x_i, x_j of length K =
    ``window`` that passed series._check_unit_rows, computed in float64 in any
    summation order, then clipped to [-1, 1]. u is the unit roundoff and
    gamma_k = k*u / (1 - k*u) (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., section 3.1).

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
    m: np.ndarray, tolerance: float = TRIANGLE_TOL, margin_error: np.ndarray | None = None
) -> _AxiomStats:
    """Symmetry error, diagonal error, minimum entry and minimum triangle
    margin of every matrix of an (M, n, n) stack, and whether each passes.

    The margins are those of _triangle_margins, reduced without building it.
    On a stack with no symmetry error the margin of (i, j, k) equals that of
    (k, j, i) bit for bit, so only k > i is scanned. A matrix passes when each
    error is within tolerance and no margin is below -tolerance; a NaN
    anywhere fails.

    ``margin_error``, from _margin_error_bound, proves per matrix that no
    margin is below -margin_error. A matrix where that is within tolerance is
    not scanned: it passes the triangle test, its min_margin reads
    -margin_error (a lower bound, not the minimum) and its worst reads 0. The
    other checks run on every matrix.
    """
    count, n = m.shape[0], m.shape[-1]
    symmetry = np.abs(m - m.transpose(0, 2, 1)).max(axis=(1, 2), initial=0.0)
    diagonal = np.abs(m.diagonal(0, 1, 2)).max(axis=1, initial=0.0)
    min_entry = m.min(axis=(1, 2), initial=0.0)
    if n < 3:
        min_margin, worst = np.full(count, math.inf), np.zeros(count, dtype=int)
    elif margin_error is None:
        min_margin, worst = _min_triangle_margins(m, half=not symmetry.any())
    else:
        min_margin, worst = -margin_error, np.zeros(count, dtype=int)
        scan = ~(margin_error <= tolerance)
        if scan.any():
            sub = m if scan.all() else m[scan]
            min_margin[scan], worst[scan] = _min_triangle_margins(
                sub, half=not symmetry[scan].any()
            )
    passed = (np.maximum(symmetry, diagonal) <= tolerance) & (
        np.minimum(min_entry, min_margin) >= -tolerance
    )
    return _AxiomStats(passed, symmetry, diagonal, min_entry, min_margin, worst)


def verify_metric_axioms(matrix, tolerance: float = TRIANGLE_TOL) -> MetricReport:
    """Check nonnegativity, zero diagonal, symmetry, and every triangle.

    Violations are report content, not errors; the worst triple and its
    margin (d_ij + d_jk - d_ik, negative when violated) are always reported.
    Only a matrix with a margin below -tolerance (or a NaN one) has its n^3
    margins built, to list every violated triple.
    """
    m = matrix.values if isinstance(matrix, DistanceMatrix) else np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    n = m.shape[0]
    stats = _axiom_stats(m[None], tolerance)
    min_margin = float(stats.min_margin[0])
    worst: tuple[int, int, int] | None = None
    found: dict[tuple[int, int, int], float] = {}
    if n >= 3:
        worst = tuple(sorted(int(x) for x in np.unravel_index(stats.worst[0], (n, n, n))))
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


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric matrix of angular distances in radians with zero diagonal.

    ``kind`` is "spherical" (entries in [0, pi]) or "projective" (entries in
    [0, pi/2]). Construction verifies the metric axioms and raises
    MetricViolationError on failure, which indicates numerical corruption
    upstream rather than a recoverable condition.
    """

    ids: tuple[str, ...]
    values: np.ndarray
    kind: str

    def __post_init__(self):
        if self.kind not in (SPHERICAL, PROJECTIVE):
            raise ValueError(f"kind must be {SPHERICAL!r} or {PROJECTIVE!r}")
        v = np.array(self.values, dtype=float)
        n = len(self.ids)
        if v.shape != (n, n):
            raise ValueError(f"expected a {n}x{n} matrix, got shape {v.shape}")
        bound = math.pi if self.kind == SPHERICAL else math.pi / 2
        if v.max(initial=0.0) > bound + TRIANGLE_TOL:
            raise MetricViolationError(
                f"{self.kind} distances must not exceed {bound}"
            )
        report = verify_metric_axioms(v)
        if not report.passed:
            raise MetricViolationError(
                f"distance matrix fails the metric axioms ({report.summary()})"
            )
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "ids", tuple(self.ids))

    @property
    def n(self) -> int:
        return len(self.ids)

    def to_csv(self, dest=None) -> str | None:
        """Serialize with id headers and 12 significant digits, for audit."""
        lines = ["," + ",".join(self.ids)]
        for sid, row in zip(self.ids, self.values):
            lines.append(sid + "," + ",".join(f"{x:.12g}" for x in row))
        text = "\n".join(lines) + "\n"
        if dest is None:
            return text
        Path(dest).write_text(text)
        return None


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


def distance_matrix(corr: CorrelationMatrix, kind: str = PROJECTIVE) -> DistanceMatrix:
    """Validated angular distance matrix from a correlation matrix."""
    return DistanceMatrix(corr.ids, angular_distances(corr.values, kind), kind)
