"""Spread measures for points on the sphere.

Three measures of how spread out a set of unit vectors is, all driven by
angular distance:

* diameter: the largest pairwise distance;
* maximal simplex volume: the largest volume over every simplex with
  vertices in the set (exact spherical excess for triangles, chordal
  Cayley-Menger volume for dimension >= 3, flagged as such);
* geodesic convex hull area: the spherical area of the smallest geodesically
  convex set containing the points, computed by gnomonic projection onto the
  tangent plane at an interior center, a planar convex hull, and a fan
  triangulation whose triangle areas are evaluated on the original sphere
  points.

Small values of any of these mean the underlying series are jointly highly
correlated. The hull never exceeds (number of hull triangles) times the best
triangle, and never falls below it; `sandwich_check` verifies that bracket on
concrete configurations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CorrGeomError,
    HemisphereError,
    HullRankError,
    InvalidTriangleError,
    NonEmbeddableError,
    TooFewPointsError,
)
from .metric import TRIANGLE_TOL, DistanceMatrix, ProjectivePointSet, hemisphere_witness

EXACT_SPHERICAL = "exact_spherical"
CHORDAL_CAYLEY_MENGER = "chordal_cayley_menger"


@dataclass(frozen=True)
class MeasureResult:
    """One spread measure: value, witnessing vertex indices, method flag.

    Units: radians for dimension 1, steradians for dimension 2, chordal
    (Euclidean) volume units for dimension >= 3.
    """

    value: float
    witness: tuple[int, ...]
    method: str
    dimension: int

    def __post_init__(self):
        if self.value < 0.0:
            raise ValueError("measure values are nonnegative")
        object.__setattr__(self, "witness", tuple(int(i) for i in self.witness))

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "witness": list(self.witness),
            "method": self.method,
            "dimension": self.dimension,
        }


@dataclass(frozen=True)
class HullResult:
    """Geodesic convex hull of sphere points: boundary vertices in cyclic
    order, fan triangulation, and total spherical area."""

    vertices: tuple[int, ...]
    area: float
    triangulation: tuple[tuple[int, int, int], ...]
    degenerate: bool
    interior: tuple[int, ...]
    method: str = EXACT_SPHERICAL

    def to_dict(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "area": self.area,
            "triangulation": [list(t) for t in self.triangulation],
            "degenerate": self.degenerate,
            "interior": list(self.interior),
            "method": self.method,
        }


def _validate_sides(a: float, b: float, c: float) -> tuple[float, float, float, float]:
    """Check the spherical triangle inequalities; return the sides sorted
    ascending plus the smallest margin. Sorting makes every downstream
    formula exactly symmetric in the argument order.

    Raises InvalidTriangleError naming the violated inequality when the
    margin is worse than -TRIANGLE_TOL or the perimeter exceeds 2*pi.
    """
    for s in (a, b, c):
        if not math.isfinite(s) or s < -TRIANGLE_TOL:
            raise InvalidTriangleError(f"side lengths must be nonnegative, got {s}")
    a, b, c = sorted((float(a), float(b), float(c)))
    margin = a + b - c
    if margin < -TRIANGLE_TOL:
        raise InvalidTriangleError(
            f"triangle inequality violated (longest side {c} exceeds {a} + {b}) "
            f"by margin {-margin:.3e}"
        )
    excess = (a + b + c) - 2 * math.pi
    if excess > TRIANGLE_TOL:
        raise InvalidTriangleError(
            f"perimeter exceeds 2*pi by {excess:.3e}"
        )
    return a, b, c, margin


def spherical_triangle_area(a: float, b: float, c: float) -> float:
    """Spherical excess of a triangle from its three side lengths (radians).

    Uses L'Huilier's formula,

        tan(E/4) = sqrt( tan(s/2) tan((s-a)/2) tan((s-b)/2) tan((s-c)/2) ),

    with s the semiperimeter. Degenerate triangles (triangle inequality tight
    within 1e-9) return exactly 0; they are legitimate zero-area candidates
    inside enumerations. Exactly symmetric in its arguments (sides are sorted
    before evaluation).
    """
    a, b, c, margin = _validate_sides(a, b, c)
    if margin <= TRIANGLE_TOL:
        return 0.0
    s = (a + b + c) / 2
    prod = (
        math.tan(s / 2)
        * math.tan((s - a) / 2)
        * math.tan((s - b) / 2)
        * math.tan((s - c) / 2)
    )
    if not math.isfinite(prod):
        # Perimeter of exactly 2*pi with nondegenerate margins: the triangle
        # fills a hemisphere.
        return 2 * math.pi
    return 4 * math.atan(math.sqrt(max(prod, 0.0)))


def _angular_matrix(source) -> np.ndarray:
    """Pairwise angular distances from a DistanceMatrix, a ProjectivePointSet
    (great-circle distances of its representatives), or a raw square
    symmetric distance array."""
    if isinstance(source, DistanceMatrix):
        return source.values
    if isinstance(source, ProjectivePointSet):
        return source.pairwise_angles()
    m = np.asarray(source, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(
            "expected a DistanceMatrix, ProjectivePointSet, or square "
            f"distance array, got shape {m.shape}"
        )
    if np.abs(m - m.T).max(initial=0.0) > 1e-9 or np.abs(np.diagonal(m)).max(initial=0.0) > 1e-9:
        raise ValueError("distance array must be symmetric with zero diagonal")
    return m


def diameter(source) -> MeasureResult:
    """Largest pairwise angular distance with its witnessing pair.

    Ties break to the lexicographically smallest pair. Requires n >= 2.
    """
    m = _angular_matrix(source)
    n = m.shape[0]
    if n < 2:
        raise TooFewPointsError("diameter needs at least 2 points")
    upper = np.where(np.tri(n, dtype=bool), -np.inf, m)  # pairs i < j only
    i, j = divmod(int(np.argmax(upper)), n)  # first maximum in row-major, i.e. lexicographic, order
    return MeasureResult(float(m[i, j]), (i, j), EXACT_SPHERICAL, 1)


def cayley_menger_volume(dists) -> float:
    """Euclidean simplex volume from pairwise distances of d+1 points.

    Standard bordered-determinant formula:

        V^2 = (-1)^(d+1) / (2^d (d!)^2) * det(CM)

    where CM borders the squared-distance matrix with a row and column of
    ones. V^2 within -1e-12 of zero clamps to 0 (flat simplex); more negative
    values mean the distances are not embeddable and raise NonEmbeddableError.
    """
    m = np.asarray(dists, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 2:
        raise ValueError(f"expected a square matrix of >= 2 points, got shape {m.shape}")
    if np.abs(m - m.T).max() > 1e-9 or np.abs(np.diagonal(m)).max() > 1e-9:
        raise ValueError("distance matrix must be symmetric with zero diagonal")
    npts = m.shape[0]
    d = npts - 1
    bordered = np.ones((npts + 1, npts + 1))
    bordered[0, 0] = 0.0
    bordered[1:, 1:] = m * m
    det = float(np.linalg.det(bordered))
    vol2 = (-1.0) ** (d + 1) / (2.0**d * math.factorial(d) ** 2) * det
    if vol2 < -1e-12:
        raise NonEmbeddableError(
            f"squared volume {vol2:.3e} is negative beyond tolerance; the "
            f"distances do not embed in {d} dimensions"
        )
    return math.sqrt(max(vol2, 0.0))


def max_simplex_volume(source, dimension: int) -> MeasureResult:
    """Largest d-simplex volume over all (d+1)-subsets of the points.

    Input is a DistanceMatrix, a ProjectivePointSet, or a raw angular
    distance array. Dimension 1 is the geodesic diameter; dimension 2 uses
    exact spherical excess with the matrix entries as side lengths; dimension
    >= 3 substitutes the chordal Cayley-Menger volume (chord = 2 sin(angle/2))
    and flags the method accordingly. Enumeration is exhaustive, and ties
    break to the lexicographically smallest vertex subset.

    Dimension 2 applies spherical_triangle_area's rules to all triples as
    arrays and raises its error for the first triple with invalid sides.
    """
    if dimension < 1:
        raise ValueError(f"dimension must be >= 1, got {dimension}")
    m = _angular_matrix(source)
    n = m.shape[0]
    if n < dimension + 1:
        raise TooFewPointsError(
            f"a {dimension}-simplex needs {dimension + 1} points, got {n}"
        )
    if dimension == 1:
        return diameter(m)
    if dimension == 2:
        upper = ~np.tri(n, dtype=bool)
        i, j, k = np.nonzero(upper[:, :, None] & upper[None, :, :])  # lexicographic
        sides = np.stack([m[i, j], m[i, k], m[j, k]], axis=1)
        a, b, c = np.sort(sides, axis=1).T
        margin = a + b - c
        # False exactly where _validate_sides raises: NaN compares false, and
        # an infinite side fails the margin or the perimeter test.
        ok = (sides >= -TRIANGLE_TOL).all(axis=1) & (margin >= -TRIANGLE_TOL)
        ok &= (a + b + c) - 2 * math.pi <= TRIANGLE_TOL
        if not ok.all():
            _validate_sides(*sides[np.argmin(ok)])
        s = (a + b + c) / 2
        prod = np.tan(s / 2) * np.tan((s - a) / 2) * np.tan((s - b) / 2) * np.tan((s - c) / 2)
        area = np.where(np.isfinite(prod), 4 * np.arctan(np.sqrt(prod.clip(0.0))), 2 * math.pi)
        area[margin <= TRIANGLE_TOL] = 0.0
        best = int(np.argmax(area))
        return MeasureResult(float(area[best]), (i[best], j[best], k[best]), EXACT_SPHERICAL, 2)
    chords = 2.0 * np.sin(m / 2.0)
    best = -math.inf
    witness = tuple(range(dimension + 1))
    for subset in itertools.combinations(range(n), dimension + 1):
        vol = cayley_menger_volume(chords[np.ix_(subset, subset)])
        if vol > best:
            best = vol
            witness = subset
    return MeasureResult(best, witness, CHORDAL_CAYLEY_MENGER, dimension)


# ---------------------------------------------------------------------------
# Geodesic convex hull via gnomonic projection
# ---------------------------------------------------------------------------


def embed_in_span(points: np.ndarray) -> np.ndarray:
    """Isometric 3-d coordinates for unit vectors spanning <= 3 dimensions.

    Raises HullRankError when the span exceeds three dimensions: such points
    lie on no common 2-sphere and have no two-dimensional hull area.
    """
    pts = np.asarray(points, dtype=float)
    u, sing, vt = np.linalg.svd(pts, full_matrices=False)
    tol = sing.max(initial=0.0) * max(pts.shape) * np.finfo(float).eps
    rank = int((sing > tol).sum())
    if rank > 3:
        raise HullRankError(
            f"points span {rank} dimensions; hull area is defined only for "
            "points on a common 2-sphere"
        )
    coords = np.zeros((pts.shape[0], 3))
    coords[:, :rank] = u[:, :rank] * sing[:rank]
    return coords


def _monotone_chain(coords: np.ndarray, cross_tol: float) -> list[int]:
    """Indices of the convex hull of 2-d points, counterclockwise.

    Points on an edge (turn within cross_tol of straight) are dropped, so
    only extreme points survive.
    """
    order = sorted(range(coords.shape[0]), key=lambda i: (coords[i, 0], coords[i, 1], i))

    def build(indices):
        chain: list[int] = []
        for i in indices:
            while len(chain) >= 2:
                ox, oy = coords[chain[-2]]
                ax, ay = coords[chain[-1]]
                bx, by = coords[i]
                if (ax - ox) * (by - oy) - (ay - oy) * (bx - ox) <= cross_tol:
                    chain.pop()
                else:
                    break
            chain.append(i)
        return chain

    lower = build(order)
    upper = build(reversed(order))
    return lower[:-1] + upper[:-1]


def _edge_normals(coords3: np.ndarray, vertices: tuple[int, ...]) -> np.ndarray:
    """Inward-pointing great-circle normals for each hull edge.

    The hull interior is { y : n . y >= 0 for every edge normal n }; that is
    the containment predicate used both for the self-check here and for
    Monte Carlo sampling oracles.
    """
    inside = coords3[list(vertices)].sum(axis=0)
    inside /= np.linalg.norm(inside)
    normals = []
    for a, b in zip(vertices, vertices[1:] + vertices[:1]):
        nvec = np.cross(coords3[a], coords3[b])
        norm = float(np.linalg.norm(nvec))
        if norm == 0.0:
            raise CorrGeomError("degenerate hull edge between coincident points")
        nvec /= norm
        if float(nvec @ inside) < 0.0:
            nvec = -nvec
        normals.append(nvec)
    return np.vstack(normals)


def _as_point_set(points) -> ProjectivePointSet:
    if isinstance(points, ProjectivePointSet):
        return points
    return ProjectivePointSet.from_vectors(np.asarray(points, dtype=float))


def spherical_convex_hull_area(points) -> HullResult:
    """Area of the geodesic convex hull of sphere points, in steradians.

    The points (a ProjectivePointSet, typically from sign_lift, or a raw
    array of unit vectors taken as-is) must fit in an open hemisphere;
    geodesics within a hemisphere map to straight lines under gnomonic
    projection, so the planar hull of the projections is the geodesic hull.
    Points contributing nothing to the hull boundary are discarded; the area
    is the sum of a fan triangulation's spherical excesses, each evaluated
    from the original points' pairwise angles. Collinear input (all points on
    one great circle) yields area 0 with the degenerate flag set.
    """
    pset = _as_point_set(points)
    n = pset.n
    if n < 3:
        raise TooFewPointsError("a hull needs at least 3 points")
    if not pset.in_open_hemisphere:
        raise HemisphereError(
            "points do not fit in an open hemisphere; geodesic hull is "
            "undefined under the gnomonic construction"
        )
    coords3 = embed_in_span(pset.points)

    # Projection center: the normalized centroid when it sees every point at
    # less than 90 degrees, else the hemisphere witness (always valid). The
    # hull itself does not depend on the center.
    center = coords3.sum(axis=0)
    cnorm = float(np.linalg.norm(center))
    center = center / cnorm if cnorm > 0.0 else None
    if center is None or float((coords3 @ center).min()) <= 1e-12:
        witness = hemisphere_witness(coords3)
        if witness is None:
            raise HemisphereError("no valid projection center found")
        center = witness
    depths = coords3 @ center
    if float(depths.min()) <= 0.0:
        raise HemisphereError("projection center does not face every point")

    # Orthonormal frame (e1, e2, center) for gnomonic chart coordinates.
    seed = np.eye(3)[int(np.argmin(np.abs(center)))]
    e1 = seed - (seed @ center) * center
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(center, e1)
    chart = np.column_stack([coords3 @ e1 / depths, coords3 @ e2 / depths])

    scale = float(np.abs(chart).max(initial=1.0))
    centered = chart - chart.mean(axis=0)
    sing = np.linalg.svd(centered, compute_uv=False)
    if sing.size < 2 or sing[1] <= max(1e-12, sing[0] * n * np.finfo(float).eps):
        # All projections on one line: the points share a great circle.
        axis = (
            np.linalg.svd(centered, full_matrices=False)[2][0]
            if sing.size and sing[0] > 0.0
            else np.array([1.0, 0.0])
        )
        along = centered @ axis
        i_lo, i_hi = int(np.argmin(along)), int(np.argmax(along))
        if i_lo == i_hi:
            i_lo, i_hi = 0, min(1, n - 1)
        verts = tuple(sorted((i_lo, i_hi)))
        interior = tuple(i for i in range(n) if i not in verts)
        return HullResult(verts, 0.0, (), True, interior)

    hull = _monotone_chain(chart, cross_tol=1e-12 * scale * scale)
    if len(hull) < 3:
        verts = tuple(sorted(set(hull)))
        interior = tuple(i for i in range(n) if i not in verts)
        return HullResult(verts, 0.0, (), True, interior)

    # Deterministic starting vertex so permuted inputs agree exactly.
    k = hull.index(min(hull))
    hull = hull[k:] + hull[:k]

    angles = pset.pairwise_angles()
    triangles = []
    area = 0.0
    v0 = hull[0]
    for a, b in zip(hull[1:], hull[2:]):
        triangles.append((v0, a, b))
        area += spherical_triangle_area(angles[v0, a], angles[v0, b], angles[a, b])

    normals = _edge_normals(coords3, tuple(hull))
    worst = float((normals @ coords3.T).min())
    if worst < -TRIANGLE_TOL:
        raise CorrGeomError(
            f"hull containment self-check failed (margin {worst:.3e})"
        )

    interior = tuple(i for i in range(n) if i not in set(hull))
    return HullResult(tuple(hull), area, tuple(triangles), False, interior)


@dataclass(frozen=True)
class SandwichReport:
    """Bracket check: max simplex <= hull <= (triangle count) * max simplex."""

    max_simplex: MeasureResult
    hull: HullResult
    bound_factor: int
    ratio: float
    lower_ok: bool
    upper_ok: bool

    @property
    def passed(self) -> bool:
        return self.lower_ok and self.upper_ok

    def to_dict(self) -> dict:
        return {
            "max_simplex": self.max_simplex.to_dict(),
            "hull": self.hull.to_dict(),
            "bound_factor": self.bound_factor,
            "ratio": self.ratio,
            "lower_ok": self.lower_ok,
            "upper_ok": self.upper_ok,
            "passed": self.passed,
        }


def sandwich_check(points, dimension: int = 2) -> SandwichReport:
    """Verify max-simplex <= hull <= B * max-simplex on one configuration.

    B is the size of the hull's fan triangulation (hull vertices minus two).
    Both sides are evaluated with the same great-circle distances between the
    set's representatives, which is what makes the bracket exact. The ratio
    hull/max-simplex is an empirical estimate of the bracket constant. Only
    dimension 2 is supported, matching the hull.
    """
    if dimension != 2:
        raise ValueError("sandwich_check supports dimension 2 only")
    pset = _as_point_set(points)
    hull = spherical_convex_hull_area(pset)
    best = max_simplex_volume(pset.pairwise_angles(), 2)
    factor = max(len(hull.triangulation), 1)
    lower_ok = best.value <= hull.area + TRIANGLE_TOL
    upper_ok = hull.area <= factor * best.value + TRIANGLE_TOL
    ratio = hull.area / best.value if best.value > 0.0 else math.nan
    return SandwichReport(best, hull, factor, ratio, lower_ok, upper_ok)
