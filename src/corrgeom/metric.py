"""Correlation angles, angular distance matrices, and sign lifting.

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
from typing import Sequence

import numpy as np

from .correlation import CorrelationMatrix, correlation_from_units
from .errors import AngleDomainError, MetricViolationError
from .series import CenteredUnitVector

# Triangle-inequality slack. arccos amplifies dot-product rounding near +-1
# like 1/sqrt(eps), so 1e-9 covers windows up to ~1e6 samples in doubles.
TRIANGLE_TOL = 1e-9

# A point this close to orthogonal with the sign reference keeps its sign.
ORTHO_TIE_TOL = 1e-12

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


def verify_metric_axioms(matrix, tolerance: float = TRIANGLE_TOL) -> MetricReport:
    """Check nonnegativity, zero diagonal, symmetry, and every triangle.

    Violations are report content, not errors; the worst triple and its
    margin (d_ij + d_jk - d_ik, negative when violated) are always reported.
    """
    m = matrix.values if isinstance(matrix, DistanceMatrix) else np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    n = m.shape[0]
    sym_err = float(np.abs(m - m.T).max(initial=0.0))
    diag_err = float(np.abs(np.diagonal(m)).max(initial=0.0))
    min_entry = float(m.min(initial=0.0))

    min_margin = math.inf
    worst: tuple[int, int, int] | None = None
    found: dict[tuple[int, int, int], float] = {}
    if n >= 3:
        # margins[i, j, k] = d(i,j) + d(j,k) - d(i,k) over triples of distinct points
        margins = m[:, :, None] + m[None, :, :]
        margins -= m[:, None, :]
        idx = np.arange(n)
        margins[idx, idx, :] = np.inf
        margins[:, idx, idx] = np.inf
        margins[idx, :, idx] = np.inf
        flat = int(np.argmin(margins))
        i, j, k = np.unravel_index(flat, margins.shape)
        min_margin = float(margins[i, j, k])
        worst = tuple(sorted((int(i), int(j), int(k))))
        bad = np.argwhere(margins < -tolerance) if not min_margin >= -tolerance else ()
        for i, j, k in bad:
            key = tuple(sorted((int(i), int(j), int(k))))
            val = float(margins[i, j, k])
            if key not in found or val < found[key]:
                found[key] = val

    violations = tuple(
        TriangleViolation(*key, margin=found[key]) for key in sorted(found)
    )
    passed = (
        sym_err <= tolerance
        and diag_err <= tolerance
        and min_entry >= -tolerance
        and not violations
    )
    return MetricReport(
        n=n,
        tolerance=tolerance,
        passed=passed,
        max_symmetry_error=sym_err,
        max_diagonal_error=diag_err,
        min_entry=min_entry,
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
    """Angular distances from correlations, with an exactly zero diagonal:
    arccos(rho) for spherical, arccos(|rho|) for projective."""
    if kind == SPHERICAL:
        entries = np.arccos(rho)
    elif kind == PROJECTIVE:
        entries = np.arccos(np.abs(rho))
    else:
        raise ValueError(f"kind must be {SPHERICAL!r} or {PROJECTIVE!r}")
    np.fill_diagonal(entries, 0.0)
    return entries


def distance_matrix(corr: CorrelationMatrix, kind: str = PROJECTIVE) -> DistanceMatrix:
    """Validated angular distance matrix from a correlation matrix."""
    return DistanceMatrix(corr.ids, angular_distances(corr.values, kind), kind)


def _unit_rows(points, ids) -> tuple[np.ndarray, tuple[str, ...]]:
    if isinstance(points, np.ndarray):
        arr = np.array(points, dtype=float)
        if arr.ndim != 2:
            raise ValueError("expected a 2-d array of row vectors")
        if ids is None:
            ids = tuple(f"p{i}" for i in range(arr.shape[0]))
    else:
        pts = list(points)
        if pts and isinstance(pts[0], CenteredUnitVector):
            arr = np.vstack([p.components for p in pts]) if pts else np.empty((0, 0))
            if ids is None:
                ids = tuple(p.source_id for p in pts)
        else:
            arr = np.array(pts, dtype=float)
            if ids is None:
                ids = tuple(f"p{i}" for i in range(arr.shape[0]))
    if arr.shape[0] == 0:
        raise ValueError("need at least one point")
    norms = np.linalg.norm(arr, axis=1)
    if np.abs(norms - 1.0).max() > 1e-9:
        raise ValueError("points must be unit vectors (norm within 1e-9 of 1)")
    ids = tuple(ids)
    if len(ids) != arr.shape[0]:
        raise ValueError("ids and points disagree in length")
    return arr, ids


def hemisphere_witness(points: np.ndarray) -> np.ndarray | None:
    """A unit vector u with u . p > 0 for every point, or None.

    Tries the normalized centroid first; when that fails, solves the convex
    feasibility problem max m s.t. P u >= m, |u_i| <= 1 in the span of the
    points. A strictly positive optimum certifies the open hemisphere.
    """
    pts = np.asarray(points, dtype=float)
    centroid = pts.sum(axis=0)
    norm = float(np.linalg.norm(centroid))
    if norm > 0.0:
        c = centroid / norm
        if float((pts @ c).min()) > ORTHO_TIE_TOL:
            return c
    # Work in the span so the LP stays small for high-dimensional windows.
    _, sing, vt = np.linalg.svd(pts, full_matrices=False)
    rank = int((sing > sing.max(initial=0.0) * max(pts.shape) * np.finfo(float).eps).sum())
    if rank == 0:
        return None
    basis = vt[:rank]
    q = pts @ basis.T  # (n, rank)
    # Variables x = (u, m); minimize -m subject to m - q_i . u <= 0.
    n, r = q.shape
    a_ub = np.hstack([-q, np.ones((n, 1))])
    b_ub = np.zeros(n)
    c_obj = np.zeros(r + 1)
    c_obj[-1] = -1.0
    bounds = [(-1.0, 1.0)] * r + [(None, None)]
    from scipy.optimize import linprog  # imported here: only this fallback needs scipy
    res = linprog(c_obj, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not res.success:
        return None
    u = res.x[:r]
    unorm = float(np.linalg.norm(u))
    if unorm == 0.0 or float(res.x[-1]) / unorm <= ORTHO_TIE_TOL:
        return None
    witness = basis.T @ (u / unorm)
    if float((pts @ witness).min()) <= 0.0:
        return None
    return witness


@dataclass(frozen=True)
class ProjectivePointSet:
    """Unit-vector representatives of projective points, with a hemisphere
    certificate. ``points`` is an (n, dim) array; ``witness`` is a unit
    vector with positive dot against every point when one exists."""

    ids: tuple[str, ...]
    points: np.ndarray
    reference_id: str
    in_open_hemisphere: bool
    witness: np.ndarray | None

    def __post_init__(self):
        arr = np.array(self.points, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "points", arr)
        object.__setattr__(self, "ids", tuple(self.ids))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @classmethod
    def from_vectors(cls, points, ids: Sequence[str] | None = None) -> "ProjectivePointSet":
        """Wrap unit vectors as-is (no sign canonicalization), computing the
        hemisphere certificate. Use sign_lift for projective data."""
        arr, ids = _unit_rows(points, ids)
        witness = hemisphere_witness(arr)
        return cls(ids, arr, ids[0], witness is not None, witness)

    def pairwise_angles(self) -> np.ndarray:
        """Great-circle distances arccos(p_i . p_j) between representatives."""
        return angular_distances(correlation_from_units(self.points), SPHERICAL)


def sign_lift(points, ids: Sequence[str] | None = None) -> ProjectivePointSet:
    """Choose sphere representatives of projective points deterministically.

    The first point is the reference; every other point is negated if its dot
    with the reference is negative. Points orthogonal to the reference within
    1e-12 keep their original sign, so the result is order-independent for
    ties. Pairwise projective distances are unchanged by lifting. The result
    records whether the lifted set fits in an open hemisphere; hull
    construction requires that flag.
    """
    arr, ids = _unit_rows(points, ids)
    ref = arr[0]
    dots = arr @ ref
    flip = dots < -ORTHO_TIE_TOL
    lifted = np.where(flip[:, None], -arr, arr)
    witness = hemisphere_witness(lifted)
    return ProjectivePointSet(ids, lifted, ids[0], witness is not None, witness)
