"""Spread measures for points on the sphere.

Two measures of how spread out a set of unit vectors is, both driven by
angular distance, the paper's M_1 and M_2:

* diameter: the largest pairwise distance;
* maximal triangle area: the largest spherical excess over every triangle
  with vertices in the set.

Small values of either mean the underlying series are jointly highly
correlated. The engine computes both on stacks of windows: the diameter is
the largest entry of each distance matrix (events.sliding_measures), and the
triangle is _max_triangle_areas; spherical_triangle_area is one triangle's
area as a scalar, the reference that the stack kernel is checked against.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidTriangleError
from .metric import TRIANGLE_TOL


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
    within TRIANGLE_TOL) return exactly 0; they are legitimate zero-area
    candidates inside enumerations. Exactly symmetric in its arguments (sides
    are sorted before evaluation).
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


def _triangle_sides(m: np.ndarray, i, j, k) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sides (a, b, c) of the triples (i, j, k) in each matrix of an
    (M, n, n) stack, sorted ascending, each (M, T).

    The sides are sorted by a three-element min/max network, which gives
    np.sort's order wherever no side is NaN; a NaN side propagates through
    np.minimum and np.maximum to a NaN smallest side.
    """
    x, y, z = m[:, i, j], m[:, i, k], m[:, j, k]
    lo = np.minimum(x, y)
    hi = np.maximum(x, y, out=x)
    c = np.maximum(hi, z)
    mid = np.minimum(hi, z, out=z)
    a = np.minimum(lo, mid)
    b = np.maximum(lo, mid, out=lo)
    return a, b, c


def _triangle_areas(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """spherical_triangle_area of sorted valid sides a <= b <= c, elementwise.

    The scalar's 2 pi branch for an infinite L'Huilier product has no
    counterpart: np.tan of a finite float is finite, below about 1.6e16 in
    magnitude (at the float nearest pi/2), so a product of four is below
    1e65, and finite sides give a finite product.
    """
    s = (a + b + c) / 2
    prod = np.tan(s / 2) * np.tan((s - a) / 2) * np.tan((s - b) / 2) * np.tan((s - c) / 2)
    area = 4 * np.arctan(np.sqrt(prod.clip(0.0)))
    area[a + b - c <= TRIANGLE_TOL] = 0.0
    return area


def _max_triangle_areas(m: np.ndarray) -> np.ndarray:
    """Largest triangle area of each matrix of an (M, n, n) stack whose
    triples all have valid sides, n >= 3.

    The pairs j < k are built once, in row-major order, and the triples
    i < j < k are taken one first index i at a time, with the pairs whose
    j > i, a contiguous suffix of them. So each array holds
    M * C(n - i - 1, 2) entries rather than M * C(n, 3). The areas are those
    of the all-triples form, _triangle_areas(*_triangle_sides(m, *triples))
    over every i < j < k, by the same arithmetic on the same sides.
    """
    n = m.shape[-1]
    best = np.zeros(m.shape[0])
    j, k = np.triu_indices(n, 1)
    lo = 0
    for i in range(n - 2):
        lo += n - 1 - i  # the pairs (j, k) with j <= i come first
        area = _triangle_areas(*_triangle_sides(m, i, j[lo:], k[lo:]))
        np.maximum(best, area.max(axis=1), out=best)
    return best

