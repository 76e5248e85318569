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

# Triangle-inequality slack. arccos amplifies dot-product rounding near +-1
# like 1/sqrt(eps), so 1e-9 covers windows up to ~1e6 samples in doubles.
TRIANGLE_TOL = 1e-9

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
    min_margin: np.ndarray  # inf when n < 3
    worst: np.ndarray  # first flat index of min_margin into a matrix's (n, n, n) margins
    margins: np.ndarray | None  # (M, n, n, n), inf on repeated indices; None when n < 3


def _axiom_stats(m: np.ndarray, tolerance: float = TRIANGLE_TOL) -> _AxiomStats:
    """Symmetry error, diagonal error, minimum entry and minimum triangle
    margin of every matrix of an (M, n, n) stack, and whether each passes.

    margins[:, i, j, k] = d(i,j) + d(j,k) - d(i,k) over triples of distinct
    points. A matrix passes when each error is within tolerance and no margin
    is below -tolerance; a NaN anywhere fails.
    """
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
    return _AxiomStats(passed, symmetry, diagonal, min_entry, min_margin, worst, margins)


def verify_metric_axioms(matrix, tolerance: float = TRIANGLE_TOL) -> MetricReport:
    """Check nonnegativity, zero diagonal, symmetry, and every triangle.

    Violations are report content, not errors; the worst triple and its
    margin (d_ij + d_jk - d_ik, negative when violated) are always reported.
    """
    m = matrix.values if isinstance(matrix, DistanceMatrix) else np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    n = m.shape[0]
    stats = _axiom_stats(m[None], tolerance)
    min_margin = float(stats.min_margin[0])
    worst: tuple[int, int, int] | None = None
    found: dict[tuple[int, int, int], float] = {}
    if stats.margins is not None:
        margins = stats.margins[0]
        worst = tuple(sorted(int(x) for x in np.unravel_index(stats.worst[0], margins.shape)))
        bad = np.argwhere(margins < -tolerance) if not min_margin >= -tolerance else ()
        for i, j, k in bad:
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
