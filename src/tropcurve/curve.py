"""Dual subdivisions and tropical plane curves.

A tropical polynomial induces a regular subdivision of its Newton polygon:
lift each exponent (i, j) to height c(i, j) and project the upper faces of the
lifted hull back down.  The tropical curve (the non-differentiability locus of
the max) is dual to that subdivision: one curve vertex per 2-cell, one bounded
edge per interior subdivision edge, one unbounded ray per boundary edge.  The
cell list is the curve's one index: curve vertex k is dual to cell k, and the
edges and rays are read straight off the cells' sides.

The subdivision is computed over the integers, on the polynomial's integer
lift: coefficients rescaled by a common denominator (positive rescaling does
not change the face structure).
Its cells are found by a gift-wrapping walk over the upper hull of the lifted
points: from one facet next to the Newton polygon's boundary, each cell edge
is crossed once by a linear scan of integer orientation signs, so the cost
grows with the number of cells, not with the number of point triples.  Curve
vertex coordinates are exact Fractions solved from term equalities.  Each
curve puts its vertices on one common denominator once, and keeps every edge
and ray as integer line data; a membership query scales the point to match
and compares ints.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm, prod
from operator import add
from typing import NamedTuple

from .errors import DegenerateSupportError
from .geometry import (
    Point,
    convex_hull,
    cross,
    lattice_length,
    primitive,
    triangle_weights,
    turn,
)
from .polynomial import TropicalPolynomial

Segment = tuple[Point, Point]
Lifted = tuple[int, int, int]

WEST = (-1, 0)
SOUTH = (0, -1)
NORTHEAST = (1, 1)


class CurveVertex(NamedTuple):
    x: Fraction
    y: Fraction


class BoundedEdge(NamedTuple):
    v1: int
    v2: int
    weight: int
    dual: Segment


class Ray(NamedTuple):
    vertex: int
    direction: tuple[int, int]
    weight: int
    dual: Segment


class _CurveFields(NamedTuple):
    vertices: tuple[CurveVertex, ...]
    bounded_edges: tuple[BoundedEdge, ...]
    rays: tuple[Ray, ...]
    cells: tuple[tuple[Point, ...], ...]


class TropicalCurve(_CurveFields):
    """A curve's fields, plus the memos of its integer geometry and of its
    cell classification in the instance __dict__ (a NamedTuple itself has none)."""

    @cached_property
    def _lines(self) -> tuple[int, list[tuple[int, ...]], list[tuple[int, ...]]]:
        """The curve's integer geometry, built once: (den, edges, rays).

        den is the lcm of the vertex denominators; a and b below are vertices
        times den.  A bounded edge a..b is (dx, dy, cross(d, a), dot(d, a),
        dot(d, b)) with d = primitive(b - a), and a ray from a is (dx, dy,
        cross(d, a), dot(d, a)) with d its direction.  A zero-length edge
        raises ValueError.
        """
        den = lcm(*(lcm(v.x.denominator, v.y.denominator) for v in self.vertices))
        q = [(v.x.numerator * den // v.x.denominator, v.y.numerator * den // v.y.denominator)
             for v in self.vertices]
        edges = []
        for edge in self.bounded_edges:
            (ax, ay), (bx, by) = q[edge.v1], q[edge.v2]
            dx, dy = primitive((bx - ax, by - ay))
            edges.append((dx, dy, dx * ay - dy * ax, dx * ax + dy * ay, dx * bx + dy * by))
        rays = []
        for ray in self.rays:
            (ax, ay), (dx, dy) = q[ray.vertex], ray.direction
            rays.append((dx, dy, dx * ay - dy * ax, dx * ax + dy * ay))
        return den, edges, rays

    @cached_property
    def _cell_weights(self) -> tuple[tuple[int, int] | None, ...]:
        """(multiplicity, Welschinger factor) per dual cell, classified once:
        `triangle_weights` for a triangle, (1, 1) for a node's parallelogram
        (a 4-cell whose diagonals share their midpoint), None for any other cell."""
        return tuple(
            triangle_weights(*cell) if len(cell) == 3
            else (1, 1) if len(cell) == 4 and [*map(add, *cell[::2])] == [*map(add, *cell[1::2])]
            else None
            for cell in self.cells
        )


class CurveStats(NamedTuple):
    """Enumerative summary; each field is what the function of its name
    returns, so None where that is undefined."""

    degree: int | None
    node_count: int
    trivalent_multiplicities: tuple[int, ...]
    betti1: int | None
    welschinger_sign: int | None


def _facet_beyond(points: list[Lifted], u: Lifted, v: Lifted) -> frozenset[Point] | None:
    """Support points of the upper facet across the lifted edge u -> v.

    Gift wrapping: of the points strictly right of u -> v, keep the one with
    no point above the plane through u, v and it (planes about the line uv
    are totally ordered there, so one scan finds it).  The facet is every
    point on that plane; None when u -> v is on the Newton polygon boundary.
    """
    ux, uy, uz = u
    dx, dy, dz = v[0] - ux, v[1] - uy, v[2] - uz
    normal = None
    for px, py, pz in points:
        wx, wy, wz = px - ux, py - uy, pz - uz
        nz = dx * wy - dy * wx
        if nz >= 0:
            continue
        if normal is None or normal[0] * wx + normal[1] * wy + normal[2] * wz > 0:
            # (v - u) x (p - u), negated so that it points upwards
            normal = (dz * wy - dy * wz, dx * wz - dz * wx, -nz)
    if normal is None:
        return None
    nx, ny, nz = normal
    return frozenset(
        (px, py) for px, py, pz in points
        if nx * (px - ux) + ny * (py - uy) + nz * (pz - uz) == 0
    )


def dual_subdivision(poly: TropicalPolynomial) -> tuple[tuple[Point, ...], ...]:
    """Cells of the regular subdivision of the Newton polygon induced by the
    coefficients, each its hull vertices counterclockwise from the lex minimum.

    The cells are the upper facets of the lifted support, found by a walk.
    The first facet borders the first segment h0 -> q of the upper chain over
    the first Newton polygon edge h0 -> h1.  Every hull edge of a found cell
    is then crossed once with `_facet_beyond`, at O(n) integer sign checks.
    """
    support = poly.support
    hull = convex_hull(support)
    if len(hull) < 3:
        raise DegenerateSupportError(
            f"Newton polygon must be 2-dimensional, got hull {hull}"
        )
    points = list(poly.integer_lift)
    lifted = {row[:2]: row for row in points}
    h0, h1 = hull[0], hull[1]
    # next vertex after h0 on the upper chain over the edge h0 -> h1
    q = max(
        (p for p in support if p != h0 and turn(h0, h1, p) == 0),
        key=lambda p: Fraction(lifted[p][2] - lifted[h0][2], lattice_length(h0, p)),
    )
    first = _facet_beyond(points, lifted[q], lifted[h0])
    hulls = {first: tuple(convex_hull(first))}
    pending = [first]
    crossed: set[Segment] = set()
    while pending:
        polygon = hulls[pending.pop()]
        for t, a in enumerate(polygon):
            b = polygon[(t + 1) % len(polygon)]
            seg: Segment = (a, b) if a < b else (b, a)
            if seg in crossed:
                continue
            crossed.add(seg)
            cell = _facet_beyond(points, lifted[a], lifted[b])
            if cell is not None and cell not in hulls:
                hulls[cell] = tuple(convex_hull(cell))
                pending.append(cell)
    return tuple(hulls[s] for s in sorted(hulls, key=sorted))


def _cell_vertex(poly: TropicalPolynomial, cell: tuple[Point, ...]) -> tuple[Fraction, Fraction]:
    """Exact point where all the cell's terms are equal (and globally maximal).

    Solved from two independent equalities among the first three hull
    vertices; independence holds because the cell is 2-dimensional.
    """
    (a, b, c) = cell[0], cell[1], cell[2]
    ca, cb, cc = poly.terms[a], poly.terms[b], poly.terms[c]
    # (a_i - b_i) x + (a_j - b_j) y = c_b - c_a, same for c
    a11, a12, r1 = a[0] - b[0], a[1] - b[1], cb - ca
    a21, a22, r2 = a[0] - c[0], a[1] - c[1], cc - ca
    det = a11 * a22 - a12 * a21
    x = Fraction(r1 * a22 - r2 * a12, det)
    y = Fraction(a11 * r2 - a21 * r1, det)
    return x, y


def extract_curve(poly: TropicalPolynomial) -> TropicalCurve:
    """Tropical curve dual to the polynomial's regular subdivision.

    Vertex k solves cell k.  Each cell side is met once per incident cell, in
    cell order; a side of two cells is a bounded edge between their vertices,
    a side of one cell is a ray out of its vertex.
    """
    cells = dual_subdivision(poly)
    vertices = tuple(CurveVertex(*_cell_vertex(poly, cell)) for cell in cells)
    # canonical segment (a < b) -> (first counterclockwise side seen, incident cells)
    sides: dict[Segment, tuple[Segment, list[int]]] = {}
    for idx, cell in enumerate(cells):
        for a, b in zip(cell, cell[1:] + cell[:1]):
            seg: Segment = (a, b) if a < b else (b, a)
            sides.setdefault(seg, ((a, b), []))[1].append(idx)
    bounded = []
    rays = []
    for seg, ((a, b), owners) in sides.items():
        weight = lattice_length(a, b)
        if len(owners) == 2:
            bounded.append(BoundedEdge(v1=owners[0], v2=owners[1], weight=weight, dual=seg))
        else:
            # the cell lies left of a -> b; turning that by -90 degrees points out
            direction = primitive((b[1] - a[1], a[0] - b[0]))
            rays.append(Ray(vertex=owners[0], direction=direction, weight=weight, dual=seg))
    return TropicalCurve(
        vertices=vertices,
        bounded_edges=tuple(bounded),
        rays=tuple(rays),
        cells=cells,
    )


def check_balancing(curve: TropicalCurve) -> list[tuple[int, tuple[int, int]]]:
    """Vertices where weighted primitive outgoing directions do not sum to zero.

    Empty on every correctly extracted curve; a nonempty result signals an
    internal inconsistency, not bad user input.
    """
    sums = [[0, 0] for _ in curve.vertices]
    # the vertices scale by den > 0, which keeps each primitive direction
    for edge, (dx, dy, *_) in zip(curve.bounded_edges, curve._lines[1]):
        sums[edge.v1][0] += edge.weight * dx
        sums[edge.v1][1] += edge.weight * dy
        sums[edge.v2][0] -= edge.weight * dx
        sums[edge.v2][1] -= edge.weight * dy
    for ray in curve.rays:
        sums[ray.vertex][0] += ray.weight * ray.direction[0]
        sums[ray.vertex][1] += ray.weight * ray.direction[1]
    return [(v, (s[0], s[1])) for v, s in enumerate(sums) if s != [0, 0]]


def degree(curve: TropicalCurve) -> int | None:
    """Weighted ray count in each of the West/South/North-East directions;
    None for a ray in any other direction, or counts that disagree."""
    counts = {WEST: 0, SOUTH: 0, NORTHEAST: 0}
    for ray in curve.rays:
        if ray.direction not in counts:
            return None
        counts[ray.direction] += ray.weight
    deg = counts[WEST]
    return deg if counts[SOUTH] == counts[NORTHEAST] == deg else None


def node_count(curve: TropicalCurve) -> int:
    """Number of 4-valent vertices: dual cells that are parallelograms."""
    weights = curve._cell_weights
    return sum(len(cell) == 4 and w is not None for cell, w in zip(curve.cells, weights))


def curve_multiplicity(curve: TropicalCurve) -> int | None:
    """Product of trivalent vertex multiplicities (nodes contribute 1); None
    unless the curve is simple (every dual cell a triangle or parallelogram)."""
    weights = curve._cell_weights
    return None if None in weights else prod(m for m, _ in weights)


def welschinger_sign(curve: TropicalCurve) -> int | None:
    """Tropical Welschinger sign: 0 if some trivalent vertex has even
    multiplicity, else (-1) to the total interior lattice point count of the
    dual triangles; None unless the curve is simple."""
    weights = curve._cell_weights
    return None if None in weights else prod(w for _, w in weights)


def first_betti(curve: TropicalCurve) -> int | None:
    """First Betti number of the compactified parameterization graph.

    Nodes are split into their two crossing branches: an edge at a node joins
    the branch whose parallelogram sides are parallel to its dual segment.
    Rays end in leaves and close no cycle, so b1 counts the bounded edges
    that join two already connected branches.  None unless the curve is
    simple.
    """
    if None in curve._cell_weights:
        return None
    parent: dict[tuple[int, bool], tuple[int, bool]] = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def branch(v: int, dual: Segment) -> tuple[int, bool]:
        cell = curve.cells[v]
        if len(cell) == 3:
            return (v, False)
        a, b = dual
        side = (cell[1][0] - cell[0][0], cell[1][1] - cell[0][1])
        return (v, cross((b[0] - a[0], b[1] - a[1]), side) == 0)

    cycles = 0
    for edge in curve.bounded_edges:
        x, y = find(branch(edge.v1, edge.dual)), find(branch(edge.v2, edge.dual))
        if x == y:
            cycles += 1
        else:
            parent[x] = y
    return cycles


def membership_oracle(poly: TropicalPolynomial, point) -> bool:
    """True iff the max is attained at least twice at the point."""
    values = poly._scaled_values(point[0], point[1])
    return values.count(max(values)) >= 2


def point_on_curve(curve: TropicalCurve, point) -> bool:
    """Exact geometric membership test against extracted edges and rays.

    With x = a/b and y = e/f, s = b*f and Q = (a*f*den, e*b*den) is the
    point times s*den, where den scales the vertices to ints (`_lines`).  The
    point is on the line through a along d iff cross(d, Q) == s*cross(d, a),
    and on the edge iff also s*dot(d, a) <= dot(d, Q) <= s*dot(d, b) (a ray
    has no upper bound).
    """
    x, y = point[0], point[1]
    if not isinstance(x, Fraction):
        x = Fraction(x)
    if not isinstance(y, Fraction):
        y = Fraction(y)
    den, edges, rays = curve._lines
    s = x.denominator * y.denominator
    qx = x.numerator * y.denominator * den
    qy = y.numerator * x.denominator * den
    for dx, dy, c, lo, hi in edges:
        if dx * qy - dy * qx == s * c and s * lo <= dx * qx + dy * qy <= s * hi:
            return True
    for dx, dy, c, lo in rays:
        if dx * qy - dy * qx == s * c and dx * qx + dy * qy >= s * lo:
            return True
    return False


def curve_stats(curve: TropicalCurve) -> CurveStats:
    """Summary of the enumerative attributes the curve supports."""
    return CurveStats(
        degree=degree(curve),
        node_count=node_count(curve),
        trivalent_multiplicities=tuple(
            w[0] for cell, w in zip(curve.cells, curve._cell_weights) if len(cell) == 3
        ),
        betti1=first_betti(curve),
        welschinger_sign=welschinger_sign(curve),
    )
