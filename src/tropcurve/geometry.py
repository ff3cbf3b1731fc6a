"""Exact lattice plane geometry helpers.

All functions work on pairs of ints or Fractions and never touch floats.
Lattice points are plain ``(i, j)`` tuples throughout the package.
`triangle_weights` is the one lattice-triangle kernel, shared by the path
counter's tilings and the dual triangles of extracted curves.
"""

from __future__ import annotations

from math import gcd

Point = tuple[int, int]


def cross(u, v):
    """2D cross product u x v (works for int and Fraction pairs)."""
    return u[0] * v[1] - u[1] * v[0]


def turn(a, b, c):
    """Cross product of (b - a) and (c - b): sign of the turn at b."""
    return (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])


def convex_hull(points: list[Point]) -> list[Point]:
    """Strict convex hull, counterclockwise, starting at the lexicographic minimum.

    Collinear points in the interior of hull edges are dropped, so the result
    lists hull vertices only.  Degenerate inputs give a single point or the
    two endpoints of a segment.
    """
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts

    def half(seq):
        out: list[Point] = []
        for p in seq:
            while len(out) > 1 and turn(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    return lower[:-1] + upper[:-1]


def lattice_length(a: Point, b: Point) -> int:
    """Number of primitive steps along the segment from a to b."""
    return gcd(abs(b[0] - a[0]), abs(b[1] - a[1]))


def primitive(v: tuple[int, int]) -> tuple[int, int]:
    """Primitive integer vector parallel to v (gcd of entries = 1)."""
    g = gcd(abs(v[0]), abs(v[1]))
    if g == 0:
        raise ValueError("zero vector has no primitive direction")
    return (v[0] // g, v[1] // g)


def triangle_weights(a: Point, b: Point, c: Point) -> tuple[int, int]:
    """Normalized area m (twice Euclidean) and Welschinger factor w of a triangle.

    w is 0 for even m, else (-1) to the interior lattice point count, which by
    Pick's theorem is (m - boundary + 2) / 2.
    """
    m = abs(turn(a, b, c))
    if m % 2 == 0:
        return m, 0
    boundary = lattice_length(a, b) + lattice_length(b, c) + lattice_length(c, a)
    interior = (m - boundary + 2) // 2
    return m, (-1 if interior % 2 else 1)

