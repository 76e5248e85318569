"""Spread measures for points on the sphere.

Two measures of how spread out a set of unit vectors is, both driven by
angular distance:

* diameter: the largest pairwise distance;
* maximal simplex volume: the largest volume over every simplex with
  vertices in the set (exact spherical excess for triangles, chordal
  Cayley-Menger volume for dimension >= 3, flagged as such).

Small values of either mean the underlying series are jointly highly
correlated.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidTriangleError, NonEmbeddableError, TooFewPointsError
from .metric import TRIANGLE_TOL, DistanceMatrix

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
    """Pairwise angular distances from a DistanceMatrix or a raw square
    symmetric distance array."""
    if isinstance(source, DistanceMatrix):
        return source.values
    m = np.asarray(source, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(
            f"expected a DistanceMatrix or square distance array, got shape {m.shape}"
        )
    if np.abs(m - m.T).max(initial=0.0) > 1e-9 or np.abs(np.diagonal(m)).max(initial=0.0) > 1e-9:
        raise ValueError("distance array must be symmetric with zero diagonal")
    return m


def _diameters(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest entry above the diagonal of each matrix of an (M, n, n) stack,
    and its first flat index in row-major, i.e. lexicographic, order."""
    count, n = m.shape[0], m.shape[-1]
    upper = np.where(np.tri(n, dtype=bool), -np.inf, m).reshape(count, n * n)  # i < j only
    flat = upper.argmax(axis=1)
    return upper[np.arange(count), flat], flat


def diameter(source) -> MeasureResult:
    """Largest pairwise angular distance with its witnessing pair.

    Ties break to the lexicographically smallest pair. Requires n >= 2.
    """
    m = _angular_matrix(source)
    n = m.shape[0]
    if n < 2:
        raise TooFewPointsError("diameter needs at least 2 points")
    value, flat = _diameters(m[None])
    return MeasureResult(float(value[0]), divmod(int(flat[0]), n), EXACT_SPHERICAL, 1)


def _triples(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index arrays (i, j, k) of every triple i < j < k, in lexicographic order."""
    upper = ~np.tri(n, dtype=bool)
    return np.nonzero(upper[:, :, None] & upper[None, :, :])


def _triangle_sides(m: np.ndarray, triples) -> tuple[np.ndarray, np.ndarray]:
    """Sides of every triple in each matrix of an (M, n, n) stack, sorted
    ascending (M, T, 3), and whether each triple passes _validate_sides.

    The mask is False exactly where _validate_sides raises: NaN compares
    false, and an infinite side fails the margin or the perimeter test.
    """
    i, j, k = triples
    sides = np.sort(np.stack([m[:, i, j], m[:, i, k], m[:, j, k]], axis=-1), axis=-1)
    a, b, c = np.moveaxis(sides, -1, 0)
    ok = (sides >= -TRIANGLE_TOL).all(axis=-1) & (a + b - c >= -TRIANGLE_TOL)
    ok &= (a + b + c) - 2 * math.pi <= TRIANGLE_TOL
    return sides, ok


def _triangle_areas(sides: np.ndarray) -> np.ndarray:
    """spherical_triangle_area of every row of sorted valid sides (..., 3)."""
    a, b, c = np.moveaxis(sides, -1, 0)
    s = (a + b + c) / 2
    prod = np.tan(s / 2) * np.tan((s - a) / 2) * np.tan((s - b) / 2) * np.tan((s - c) / 2)
    area = np.where(np.isfinite(prod), 4 * np.arctan(np.sqrt(prod.clip(0.0))), 2 * math.pi)
    area[a + b - c <= TRIANGLE_TOL] = 0.0
    return area


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

    Input is a DistanceMatrix or a raw angular distance array. Dimension 1
    is the geodesic diameter; dimension 2 uses exact spherical excess with
    the matrix entries as side lengths; dimension >= 3 substitutes the
    chordal Cayley-Menger volume (chord = 2 sin(angle/2)) and flags the
    method accordingly. Enumeration is exhaustive, and ties break to the
    lexicographically smallest vertex subset.

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
        triples = _triples(n)
        sides, ok = _triangle_sides(m[None], triples)
        if not ok.all():
            i, j, k = (int(idx[np.argmin(ok[0])]) for idx in triples)
            _validate_sides(m[i, j], m[i, k], m[j, k])
        area = _triangle_areas(sides[0])
        best = int(np.argmax(area))
        return MeasureResult(
            float(area[best]), tuple(idx[best] for idx in triples), EXACT_SPHERICAL, 2
        )
    chords = 2.0 * np.sin(m / 2.0)
    best = -math.inf
    witness = tuple(range(dimension + 1))
    for subset in itertools.combinations(range(n), dimension + 1):
        vol = cayley_menger_volume(chords[np.ix_(subset, subset)])
        if vol > best:
            best = vol
            witness = subset
    return MeasureResult(best, witness, CHORDAL_CAYLEY_MENGER, dimension)
