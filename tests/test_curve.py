import hashlib
import random
from fractions import Fraction
from itertools import combinations
from math import lcm, prod

import pytest

from tropcurve import (
    BoundedEdge,
    DegenerateSupportError,
    Ray,
    TropicalCurve,
    TropicalPolynomial,
    check_balancing,
    curve_multiplicity,
    curve_stats,
    degree,
    dual_subdivision,
    extract_curve,
    first_betti,
    membership_oracle,
    node_count,
    parse_expression,
    parse_term_table,
    point_on_curve,
    welschinger_sign,
)
from tropcurve import curve as curvemod
from tropcurve.document import curve_document, write_document
from tropcurve.geometry import convex_hull, cross
from tropcurve.svgout import render_svg

from path_oracle import brute_triangle_weights
from subdivision_oracle import normalized_area, triple_scan_cells

WEST, SOUTH, NORTHEAST = (-1, 0), (0, -1), (1, 1)


def concave_poly(d):
    """Full T_d support with a strictly concave lift: every cell a unit triangle."""
    return TropicalPolynomial(
        [((i, j), Fraction(-(i * i + i * j + j * j))) for i in range(d + 1) for j in range(d + 1 - i)]
    )


def line_poly():
    return parse_expression("max(0, x, y)")


def nodal_conic():
    """Union of two tropical lines: one 4-valent node at (1, 1)."""
    return TropicalPolynomial(
        [
            ((0, 0), Fraction(0)),
            ((1, 0), Fraction(0)),
            ((0, 1), Fraction(0)),
            ((2, 0), Fraction(-2)),
            ((1, 1), Fraction(-1)),
            ((0, 2), Fraction(-1)),
        ]
    )


def nodal_cubic():
    """Rational cubic with one node: its cycle closes only through the node."""
    return parse_term_table(
        "0 0 -4\n0 1 4\n0 2 1\n0 3 -5\n1 0 1\n1 1 8\n1 2 -2\n2 0 5\n2 1 0\n3 0 0\n"
    )


def weight_two_triangle():
    """One cell, the triangle (0,0),(2,0),(0,2): every ray has weight two."""
    return TropicalPolynomial(
        [((0, 0), Fraction(0)), ((2, 0), Fraction(0)), ((0, 2), Fraction(0))]
    )


def pentagon_poly():
    """One pentagonal cell: not simple, and not of standard degree."""
    return TropicalPolynomial(
        [
            ((0, 0), Fraction(0)),
            ((2, 0), Fraction(0)),
            ((2, 1), Fraction(0)),
            ((1, 2), Fraction(0)),
            ((0, 2), Fraction(0)),
        ]
    )


def trapezoid_poly():
    """One four-sided cell that is not a parallelogram: not simple."""
    return parse_expression("max(0, 2x, x + y, y)")


def square_poly():
    """One unit-square cell: a node's parallelogram, with rays East and North."""
    return TropicalPolynomial([((i, j), Fraction(0)) for i in (0, 1) for j in (0, 1)])


def imbalanced_line():
    """The tropical line with its West ray doctored to weight two."""
    curve = extract_curve(line_poly())
    return TropicalCurve(
        vertices=curve.vertices,
        bounded_edges=curve.bounded_edges,
        rays=tuple(
            Ray(r.vertex, r.direction, 2 if r.direction == WEST else 1, r.dual)
            for r in curve.rays
        ),
        cells=curve.cells,
    )


def random_quartic(rng):
    """Random support inside T_4 (corners always kept) with random coefficients."""
    corners = {(0, 0), (4, 0), (0, 4)}
    others = [
        (i, j)
        for i in range(5)
        for j in range(5 - i)
        if (i, j) not in corners
    ]
    support = sorted(corners | {p for p in others if rng.random() < 0.55})
    return TropicalPolynomial(
        [(p, Fraction(rng.randint(-40, 40), rng.randint(1, 6))) for p in support]
    )


def oracle_cells(poly):
    """Independent subdivision oracle: solve term-equalizing points and read
    off the argmax sets there.  Every 2-cell is the argmax set at its dual
    vertex, so scanning all affinely independent support triples finds all of
    them.  This goes through evaluation only, not through the lift: the
    heights are the coefficients times the lcm of their denominators, taken
    here from the Fractions, so each vertex is solved in ints."""
    support = poly.support
    scale = lcm(*(c.denominator for c in poly.terms.values()))
    height = {p: c.numerator * (scale // c.denominator) for p, c in poly.terms.items()}
    found = set()
    for a, b, c in combinations(support, 3):
        det = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        if det == 0:
            continue
        # solve a-term = b-term = c-term
        a11, a12 = a[0] - b[0], a[1] - b[1]
        a21, a22 = a[0] - c[0], a[1] - c[1]
        r1 = height[b] - height[a]
        r2 = height[c] - height[a]
        den = (a11 * a22 - a12 * a21) * scale
        x = Fraction(r1 * a22 - r2 * a12, den)
        y = Fraction(a11 * r2 - a21 * r1, den)
        winners = poly.argmax_terms(x, y)
        if {a, b, c} <= winners:
            found.add(frozenset(winners))
    return {tuple(convex_hull(sorted(s))) for s in found}


def assert_matches_oracles(poly):
    """The hull walk equals the triple scan, cell for cell and in order, and
    the argmax oracle as a set.  The argmax oracle makes O(n^4) integer
    operations (about 0.2 s at 45 terms, 0.9 s at 66), so it only runs up to
    66 terms: concave lifts with d <= 8 and wide lifts with d <= 10."""
    cells = dual_subdivision(poly)
    assert cells == triple_scan_cells(poly)
    if len(poly) <= 66:
        assert set(cells) == oracle_cells(poly)
    return cells


def triangle(d):
    return [(i, j) for i in range(d + 1) for j in range(d + 1 - i)]


class TestDualSubdivision:
    def test_line_single_cell(self):
        cells = dual_subdivision(line_poly())
        assert cells == (((0, 0), (1, 0), (0, 1)),)

    def test_concave_conic_four_unit_triangles(self):
        cells = dual_subdivision(concave_poly(2))
        expected = {
            ((0, 0), (1, 0), (0, 1)),
            ((0, 1), (1, 0), (1, 1)),
            ((1, 0), (2, 0), (1, 1)),
            ((0, 1), (1, 1), (0, 2)),
        }
        assert set(cells) == expected
        assert all(abs(normalized_area(list(c))) == 1 for c in cells)

    def test_concave_cubic_full_triangulation(self):
        cells = dual_subdivision(concave_poly(3))
        assert len(cells) == 9
        assert all(len(c) == 3 for c in cells)
        assert all(abs(normalized_area(list(c))) == 1 for c in cells)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_matches_argmax_oracle_on_concave_lifts(self, d):
        assert len(assert_matches_oracles(concave_poly(d))) == d * d

    def test_matches_argmax_oracle_on_random_polynomials(self):
        rng = random.Random(20240811)
        for _ in range(12):
            assert_matches_oracles(random_quartic(rng))

    @pytest.mark.parametrize("d", [2, 4, 6, 8, 10])
    def test_matches_oracles_on_random_wide_lifts(self, d):
        rng = random.Random(f"wide:{d}")
        for _ in range(3):
            assert_matches_oracles(
                TropicalPolynomial(
                    [(p, Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 9))) for p in triangle(d)]
                )
            )

    def test_matches_oracles_on_tie_heavy_lifts(self):
        """Heights in -3..3 give coplanar lifted points and so cells with
        more than three vertices."""
        rng = random.Random(31)
        sizes = set()
        for _ in range(25):
            d = rng.randint(2, 6)
            corners = {(0, 0), (d, 0), (0, d)}
            support = corners | {p for p in triangle(d) if rng.random() < 0.7}
            poly = TropicalPolynomial([(p, Fraction(rng.randint(-3, 3))) for p in support])
            sizes.update(len(c) for c in assert_matches_oracles(poly))
        assert max(sizes) > 3

    @pytest.mark.parametrize(
        "row",
        [
            (0, -5, 3, 0),  # the upper chain from (0, 0) skips (1, 0)
            (0, 0, 0, 0),  # one lifted segment along the whole edge
            (-4, 2, 1, -5),  # the chain turns at (1, 0) and again at (2, 0)
            (0, 1, 2, 9),  # convex row: straight to the far end
        ],
    )
    def test_first_newton_edge_with_interior_points(self, row):
        """The walk starts on the first Newton edge (0, 0) -> (3, 0), whose
        interior lattice points carry the given heights."""
        terms = {(i, 0): Fraction(c) for i, c in enumerate(row)}
        terms.update({(0, 1): Fraction(-1), (1, 1): Fraction(1), (0, 2): Fraction(-2), (2, 1): Fraction(-3)})
        assert_matches_oracles(TropicalPolynomial(terms.items()))

    def test_matches_oracles_on_random_first_edges(self):
        rng = random.Random(47)
        for _ in range(30):
            d = rng.randint(3, 6)
            support = {p for p in triangle(d) if p[1] == 0 or rng.random() < 0.5} | {(0, d)}
            poly = TropicalPolynomial([(p, Fraction(rng.randint(-9, 9), rng.randint(1, 3))) for p in support])
            assert_matches_oracles(poly)

    def test_off_origin_support(self):
        poly = parse_expression("max(0, x, y, -x-y)")
        assert assert_matches_oracles(poly) == (((-1, -1), (1, 0), (0, 1)),)
        nonflat = parse_expression("max(1, x, y, -x-y)")
        assert len(assert_matches_oracles(nonflat)) == 3

    def test_matches_oracles_on_random_lattice_supports(self):
        """Arbitrary supports around the origin, negative exponents included."""
        rng = random.Random(59)
        checked = 0
        while checked < 60:
            support = {(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(3, 12))}
            if len(convex_hull(sorted(support))) < 3:
                continue
            assert_matches_oracles(
                TropicalPolynomial([(p, Fraction(rng.randint(-4, 4), rng.randint(1, 2))) for p in support])
            )
            checked += 1

    def test_concave_degree_24_unimodular(self):
        """325 terms: the triple scan takes over a minute here."""
        cells = dual_subdivision(concave_poly(24))
        assert len(cells) == 576
        assert all(abs(normalized_area(list(c))) == 1 for c in cells)

    def test_degenerate_support_rejected(self):
        with pytest.raises(DegenerateSupportError):
            dual_subdivision(TropicalPolynomial([((2, 3), Fraction(5))]))
        with pytest.raises(DegenerateSupportError):
            dual_subdivision(
                TropicalPolynomial([((0, 0), Fraction(0)), ((1, 0), Fraction(0))])
            )

    def test_area_conservation(self):
        rng = random.Random(7)
        for _ in range(8):
            poly = random_quartic(rng)
            cells = dual_subdivision(poly)
            total = sum(abs(normalized_area(list(c))) for c in cells)
            assert total == abs(normalized_area(convex_hull(poly.support)))

    def test_translation_leaves_subdivision_unchanged(self):
        poly = concave_poly(2)
        shifted = TropicalPolynomial((p, c + Fraction(7, 3)) for p, c in poly.terms.items())
        assert dual_subdivision(poly) == dual_subdivision(shifted)


class TestExtractCurve:
    def test_line(self):
        curve = extract_curve(line_poly())
        assert len(curve.vertices) == 1
        assert (curve.vertices[0].x, curve.vertices[0].y) == (0, 0)
        assert len(curve.bounded_edges) == 0
        assert sorted(r.direction for r in curve.rays) == sorted([WEST, SOUTH, NORTHEAST])
        assert all(r.weight == 1 for r in curve.rays)

    def test_concave_conic(self):
        curve = extract_curve(concave_poly(2))
        assert len(curve.vertices) == 4
        assert len(curve.bounded_edges) == 3
        assert len(curve.rays) == 6
        assert degree(curve) == 2

    def test_weight_two_rays(self):
        poly = TropicalPolynomial(
            [((0, 0), Fraction(0)), ((2, 0), Fraction(0)), ((0, 2), Fraction(0))]
        )
        curve = extract_curve(poly)
        assert len(curve.vertices) == 1
        assert (curve.vertices[0].x, curve.vertices[0].y) == (0, 0)
        assert degree(curve) == 2
        assert all(r.weight == 2 for r in curve.rays)

    def test_edges_perpendicular_to_duals(self):
        curve = extract_curve(concave_poly(3))
        for edge in curve.bounded_edges:
            a = curve.vertices[edge.v1]
            b = curve.vertices[edge.v2]
            (du, dv) = edge.dual
            dual_vec = (dv[0] - du[0], dv[1] - du[1])
            dot = (b.x - a.x) * dual_vec[0] + (b.y - a.y) * dual_vec[1]
            assert dot == 0

    def test_duality_counts(self):
        rng = random.Random(99)
        for _ in range(8):
            poly = random_quartic(rng)
            curve = extract_curve(poly)
            cells = curve.cells
            assert len(curve.vertices) == len(cells)
            # a side shared by two cells is interior, a side of one cell is boundary
            incidence = {}
            for cell in cells:
                for t, a in enumerate(cell):
                    side = frozenset((a, cell[(t + 1) % len(cell)]))
                    incidence[side] = incidence.get(side, 0) + 1
            interior = [s for s, n in incidence.items() if n == 2]
            boundary = [s for s, n in incidence.items() if n == 1]
            assert len(curve.bounded_edges) == len(interior)
            assert len(curve.rays) == len(boundary)
            from tropcurve.geometry import lattice_length

            assert sum(lattice_length(*s) for s in boundary) == sum(
                r.weight for r in curve.rays
            )

    def test_weighted_ray_directions_sum_to_zero(self):
        rng = random.Random(311)
        for _ in range(8):
            rays = extract_curve(random_quartic(rng)).rays
            total = (
                sum(r.weight * r.direction[0] for r in rays),
                sum(r.weight * r.direction[1] for r in rays),
            )
            assert total == (0, 0)


class TestBalancing:
    def test_line_balances(self):
        assert check_balancing(extract_curve(line_poly())) == []

    def test_random_extractions_balance(self):
        rng = random.Random(4242)
        for _ in range(10):
            assert check_balancing(extract_curve(random_quartic(rng))) == []

    def test_missing_ray_detected(self):
        curve = extract_curve(line_poly())
        broken = TropicalCurve(
            vertices=curve.vertices,
            bounded_edges=curve.bounded_edges,
            rays=curve.rays[:-1],
            cells=curve.cells,
        )
        violations = check_balancing(broken)
        assert [v for v, _ in violations] == [0]


class TestDegree:
    def test_line_conic_cubic(self):
        assert degree(extract_curve(line_poly())) == 1
        assert degree(extract_curve(concave_poly(2))) == 2
        assert degree(extract_curve(concave_poly(3))) == 3

    def test_non_standard_direction_rejected(self):
        assert degree(extract_curve(square_poly())) is None

    def test_imbalanced_counts_rejected(self):
        assert degree(imbalanced_line()) is None


class TestMultiplicities:
    def test_unit_triangle(self):
        curve = extract_curve(line_poly())
        assert curve_stats(curve).trivalent_multiplicities == (1,)

    def test_area_three_triangle(self):
        poly = TropicalPolynomial(
            [((0, 0), Fraction(0)), ((2, 1), Fraction(0)), ((1, 2), Fraction(0))]
        )
        curve = extract_curve(poly)
        assert curve_stats(curve).trivalent_multiplicities == (3,)
        assert curve_multiplicity(curve) == 3

    def test_determinant_two(self):
        poly = TropicalPolynomial(
            [((0, 0), Fraction(0)), ((1, 0), Fraction(0)), ((0, 2), Fraction(0))]
        )
        assert curve_stats(extract_curve(poly)).trivalent_multiplicities == (2,)

    def test_line_and_conic_multiplicity_one(self):
        assert curve_multiplicity(extract_curve(line_poly())) == 1
        assert curve_multiplicity(extract_curve(concave_poly(2))) == 1

    def test_nodal_conic_multiplicity(self):
        assert curve_multiplicity(extract_curve(nodal_conic())) == 1


class TestNodesAndSimplicity:
    def test_line_and_cubic_nodeless(self):
        assert node_count(extract_curve(line_poly())) == 0
        assert curve_multiplicity(extract_curve(line_poly())) == 1
        assert node_count(extract_curve(concave_poly(3))) == 0
        assert curve_multiplicity(extract_curve(concave_poly(3))) == 1

    def test_nodal_conic_has_one_node(self):
        curve = extract_curve(nodal_conic())
        assert node_count(curve) == 1
        assert curve_multiplicity(curve) == 1

    def test_pentagon_cell_not_simple(self):
        # the trapezoid has four sides but is no parallelogram, so no node either
        for poly in (pentagon_poly(), trapezoid_poly()):
            curve = extract_curve(poly)
            assert curve_multiplicity(curve) is None
            assert welschinger_sign(curve) is None
            assert first_betti(curve) is None


class TestWelschingerSign:
    def test_line_positive(self):
        assert welschinger_sign(extract_curve(line_poly())) == 1

    def test_interior_point_flips_sign(self):
        # triangle (0,0),(2,1),(1,2): area 3/2, boundary 3, one interior point
        poly = TropicalPolynomial(
            [((0, 0), Fraction(0)), ((2, 1), Fraction(0)), ((1, 2), Fraction(0))]
        )
        assert welschinger_sign(extract_curve(poly)) == -1

    def test_even_multiplicity_kills_sign(self):
        poly = TropicalPolynomial(
            [((0, 0), Fraction(0)), ((1, 0), Fraction(0)), ((0, 2), Fraction(0))]
        )
        assert welschinger_sign(extract_curve(poly)) == 0

    def test_sign_parity_matches_multiplicity(self):
        rng = random.Random(313)
        checked = 0
        for _ in range(20):
            curve = extract_curve(random_quartic(rng))
            sign = welschinger_sign(curve)
            if sign is None:
                continue
            mult = curve_multiplicity(curve)
            assert abs(sign) <= 1
            assert (sign - mult) % 2 == 0
            triangles = [c for c in curve.cells if len(c) == 3]
            assert sign == prod(brute_triangle_weights(*c)[1] for c in triangles)
            checked += 1
        assert checked >= 5


class TestRationality:
    def test_line_rational(self):
        assert first_betti(extract_curve(line_poly())) == 0

    def test_smooth_cubic_not_rational(self):
        curve = extract_curve(concave_poly(3))
        assert first_betti(curve) == 1

    def test_conic_rational(self):
        assert first_betti(extract_curve(concave_poly(2))) == 0

    def test_nodal_conic_rational_two_components(self):
        # two lines crossing at the node: resolved graph is two trees
        curve = extract_curve(nodal_conic())
        assert first_betti(curve) == 0

    def test_nodal_cubic_node_split_opens_the_cycle(self):
        # unsplit, the node would close the cubic's one cycle (b1 = 1)
        curve = extract_curve(nodal_cubic())
        assert len(curve.cells) == 8
        assert node_count(curve) == 1
        assert first_betti(curve) == 0
        assert curve_multiplicity(curve) == 1
        assert welschinger_sign(curve) == 1
        assert degree(curve) == 3


class TestMembership:
    def test_line_examples(self):
        poly = line_poly()
        assert membership_oracle(poly, (0, 0))
        assert not membership_oracle(poly, (5, -1))
        assert membership_oracle(poly, (2, 2))

    def test_sampling_agreement(self):
        rng = random.Random(5150)
        for _ in range(6):
            poly = random_quartic(rng)
            curve = extract_curve(poly)
            points = []
            for edge in curve.bounded_edges:
                a = curve.vertices[edge.v1]
                b = curve.vertices[edge.v2]
                for t in (Fraction(1, 3), Fraction(2, 5)):
                    points.append((a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)))
            for ray in curve.rays:
                base = curve.vertices[ray.vertex]
                for t in (Fraction(1, 2), Fraction(7, 3)):
                    points.append(
                        (base.x + t * ray.direction[0], base.y + t * ray.direction[1])
                    )
            for _ in range(60):
                points.append(
                    (
                        Fraction(rng.randint(-40, 40), rng.randint(1, 7)),
                        Fraction(rng.randint(-40, 40), rng.randint(1, 7)),
                    )
                )
            for p in points:
                assert membership_oracle(poly, p) == point_on_curve(curve, p)


def on_segment(p, a, b):
    """Exact test: does p lie on the closed segment [a, b]?"""
    d = (b[0] - a[0], b[1] - a[1])
    w = (p[0] - a[0], p[1] - a[1])
    if cross(d, w) != 0:
        return False
    t = w[0] * d[0] + w[1] * d[1]
    return 0 <= t <= d[0] * d[0] + d[1] * d[1]


def on_ray(p, base, direction):
    """Exact test: does p lie on the ray from base along an integer direction?"""
    w = (p[0] - base[0], p[1] - base[1])
    if cross(direction, w) != 0:
        return False
    return w[0] * direction[0] + w[1] * direction[1] >= 0


def fraction_point_on_curve(curve, point):
    """Reference membership test: the segment and ray tests run on the
    curve's Fraction vertices, with no common denominator."""
    p = (Fraction(point[0]), Fraction(point[1]))
    vertex = [(v.x, v.y) for v in curve.vertices]
    for edge in curve.bounded_edges:
        if on_segment(p, vertex[edge.v1], vertex[edge.v2]):
            return True
    for ray in curve.rays:
        if on_ray(p, vertex[ray.vertex], ray.direction):
            return True
    return False


class TestPointOnCurve:
    @staticmethod
    def probes(curve, rng):
        """Points on edges and rays, on their extensions, and at random."""
        points = []
        for edge in curve.bounded_edges:
            a = curve.vertices[edge.v1]
            b = curve.vertices[edge.v2]
            for t in (Fraction(0), Fraction(1, 3), Fraction(1), Fraction(3, 2), Fraction(-1, 4)):
                points.append((a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)))
        for ray in curve.rays:
            base = curve.vertices[ray.vertex]
            for t in (Fraction(-1, 2), Fraction(0), Fraction(5, 2), Fraction(7)):
                points.append((base.x + t * ray.direction[0], base.y + t * ray.direction[1]))
        for _ in range(40):
            points.append(
                (
                    Fraction(rng.randint(-40, 40), rng.randint(1, 7)),
                    Fraction(rng.randint(-40, 40), rng.randint(1, 7)),
                )
            )
        for _ in range(20):
            points.append((Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9))))
        return points

    @staticmethod
    def forms(point):
        """The point as Fractions, as "p/q" text, mixed, and as ints when integral."""
        x, y = point
        yield point
        yield (f"{x.numerator}/{x.denominator}", f"{y.numerator}/{y.denominator}")
        yield (x, str(y))
        if x.denominator == 1 and y.denominator == 1:
            yield (int(x), int(y))

    def test_matches_fraction_reference(self):
        rng = random.Random(6174)
        polys = [line_poly(), parse_expression("max(1/2, x, y - 1/3)"), nodal_conic()]
        polys += [random_quartic(rng) for _ in range(8)]
        seen = {True: 0, False: 0}
        ints = 0
        for poly in polys:
            curve = extract_curve(poly)
            for point in self.probes(curve, rng):
                want = fraction_point_on_curve(curve, point)
                seen[want] += 1
                for given in self.forms(point):
                    ints += type(given[0]) is int
                    assert point_on_curve(curve, given) == want
        assert min(seen.values()) > 100
        assert ints > 50

    def test_rays_only_curve(self):
        curve = extract_curve(parse_expression("max(1/2, x, y - 1/3)"))
        assert not curve.bounded_edges
        assert point_on_curve(curve, ("1/2", "5/6"))
        assert point_on_curve(curve, (-7, Fraction(5, 6)))
        assert point_on_curve(curve, ("1/2", -3))
        assert point_on_curve(curve, (3, "10/3"))
        assert not point_on_curve(curve, (3, 3))
        assert not point_on_curve(curve, (0, 0))

    @staticmethod
    def assert_both_tests(poly, curve, point, given):
        """The edge test equals the Fraction reference, and the argmax oracle
        equals "the argmax set has two or more terms", for the point as given."""
        assert point_on_curve(curve, given) == fraction_point_on_curve(curve, point)
        assert membership_oracle(poly, given) == (len(poly.argmax_terms(*point)) >= 2)

    def test_tie_heavy_quartics(self):
        """Heights in -1..1 put the vertices on lattice points, where several
        edges meet and three or more terms tie."""
        rng = random.Random(8128)
        corners = {(0, 0), (4, 0), (0, 4)}
        ties = {True: 0, False: 0}
        multi = 0
        for _ in range(12):
            support = corners | {p for p in triangle(4) if rng.random() < 0.7}
            poly = TropicalPolynomial([(p, Fraction(rng.randint(-1, 1))) for p in support])
            curve = extract_curve(poly)
            points = self.probes(curve, rng)
            points += [(v.x, v.y) for v in curve.vertices]
            points += [(Fraction(i, 2), Fraction(j, 2)) for i in range(-8, 9) for j in range(-8, 9)]
            for point in points:
                self.assert_both_tests(poly, curve, point, point)
                winners = len(poly.argmax_terms(*point))
                ties[winners >= 2] += 1
                multi += winners >= 3
        assert min(ties.values()) > 300
        assert multi > 100

    def test_hand_built_curve_never_queried(self):
        """Curves built directly from a queried one, with edges and rays
        dropped, answer from their own edges and rays.  With one edge and no
        rays, both closed ends of that edge are found by that edge alone."""
        curve = extract_curve(nodal_cubic())
        points = self.probes(curve, random.Random(1729))
        assert len(curve.bounded_edges) > 1
        assert any(point_on_curve(curve, p) for p in points)
        for edges, rays in ((curve.bounded_edges[1:], curve.rays[:-1]), (curve.bounded_edges[:1], ())):
            built = TropicalCurve(
                vertices=curve.vertices,
                bounded_edges=edges,
                rays=rays,
                cells=curve.cells,
            )
            differ = 0
            for point in points:
                want = fraction_point_on_curve(built, point)
                assert point_on_curve(built, point) == want
                differ += want != point_on_curve(curve, point)
            assert differ > 0
            assert check_balancing(built)
        for v in (edges[0].v1, edges[0].v2):
            assert point_on_curve(built, (curve.vertices[v].x, curve.vertices[v].y))

    def test_zero_length_edge_is_refused(self):
        """An edge whose ends coincide has no line; it is not taken to hold
        every point."""
        curve = extract_curve(concave_poly(2))
        edge = curve.bounded_edges[0]
        built = TropicalCurve(
            vertices=curve.vertices,
            bounded_edges=(BoundedEdge(edge.v1, edge.v1, edge.weight, edge.dual),),
            rays=curve.rays,
            cells=curve.cells,
        )
        with pytest.raises(ValueError):
            point_on_curve(built, (100, -100))
        with pytest.raises(ValueError):
            check_balancing(built)

    def test_points_as_floats_and_lists(self):
        """Dyadic points given as floats (0.5, -0.25) and as 2-lists."""
        line = line_poly()
        line_curve = extract_curve(line)
        assert point_on_curve(line_curve, (0.5, 0.5))
        assert point_on_curve(line_curve, [-0.25, 0.0])
        assert not point_on_curve(line_curve, (0.5, -0.25))
        assert point_on_curve(line_curve, [0, -0.25])
        assert membership_oracle(line, [0.5, 0.5])
        assert not membership_oracle(line, (0.5, -0.25))
        rng = random.Random(4096)
        polys = [nodal_conic()] + [random_quartic(rng) for _ in range(6)]
        seen = {True: 0, False: 0}
        for poly in polys:
            curve = extract_curve(poly)
            points = self.probes(curve, rng)
            points += [
                (Fraction(rng.randint(-40, 40), 2 ** rng.randint(0, 3)),
                 Fraction(rng.randint(-40, 40), 2 ** rng.randint(0, 3)))
                for _ in range(100)
            ]
            for point in points:
                if any(c.denominator & (c.denominator - 1) for c in point):
                    continue  # not dyadic: no exact float
                x, y = float(point[0]), float(point[1])
                seen[fraction_point_on_curve(curve, point)] += 1
                for given in ((x, y), [x, y], [point[0], y], list(point)):
                    self.assert_both_tests(poly, curve, point, given)
        assert min(seen.values()) > 20


class TestStats:
    def test_line_stats(self):
        stats = curve_stats(extract_curve(line_poly()))
        assert stats.degree == 1
        assert stats.node_count == 0
        assert stats.trivalent_multiplicities == (1,)
        assert stats.betti1 == 0
        assert stats.welschinger_sign == 1

    def test_non_simple_stats_are_partial(self):
        poly = TropicalPolynomial(
            [
                ((0, 0), Fraction(0)),
                ((2, 0), Fraction(0)),
                ((2, 1), Fraction(0)),
                ((1, 2), Fraction(0)),
                ((0, 2), Fraction(0)),
            ]
        )
        stats = curve_stats(extract_curve(poly))
        assert stats.degree is None
        assert stats.betti1 is None
        assert stats.welschinger_sign is None

    def test_nodal_conic_stats(self):
        stats = curve_stats(extract_curve(nodal_conic()))
        assert stats.degree == 2
        assert stats.node_count == 1
        assert stats.betti1 == 0
        assert stats.welschinger_sign == 1

    def test_stats_equal_the_public_functions(self):
        rng = random.Random(2024)
        curves = [extract_curve(random_quartic(rng)) for _ in range(20)]
        curves += [extract_curve(p) for p in (pentagon_poly(), trapezoid_poly(), square_poly())]
        curves.append(imbalanced_line())
        simple = 0
        for curve in curves:
            stats = curve_stats(curve)
            assert stats == (
                degree(curve),
                node_count(curve),
                tuple(brute_triangle_weights(*c)[0] for c in curve.cells if len(c) == 3),
                first_betti(curve),
                welschinger_sign(curve),
            )
            mult = curve_multiplicity(curve)
            assert (mult is None) == (stats.betti1 is None) == (stats.welschinger_sign is None)
            if mult is not None:
                assert mult == prod(stats.trivalent_multiplicities)
                simple += 1
        assert 5 <= simple < len(curves)

    def test_stats_weigh_each_triangle_once(self, monkeypatch):
        calls = []

        def counted(a, b, c):
            calls.append((a, b, c))
            return weights(a, b, c)

        weights = curvemod.triangle_weights
        monkeypatch.setattr(curvemod, "triangle_weights", counted)
        curve = extract_curve(concave_poly(8))
        curve_stats(curve)
        assert len(calls) == len(curve.cells) == 64
        assert sorted(calls) == sorted(curve.cells)


class TestGoldenBytes:
    # sha256 of write_document + render_svg output per input, pinned so that a
    # refactor of the curve layer has to keep every byte of both formats
    GOLDEN = {
        "concave-1": "69ecc5c3c6a2e5c0b3224ba0c9e0a16d14ce192019cd140dbd472835be3a9ccd",
        "concave-2": "bbf1708546e0b200ad964cf67a838359f924323120b8b1d1df2bb5cad8c8c45b",
        "concave-3": "c10379a65d84589bef5d31d35017965a7d0d80c4216278bbaf1050b729707ce7",
        "concave-4": "e869d8c667199d93374b58d1ed618f60170e821b700651d31ddef4f518102f0b",
        "concave-5": "dbede1518fc124f4f8d43a6b3559fd7830c87b36804d6b00fc35c142c6bce6ff",
        "concave-6": "d4cc778f7bf0f2a00ce9581f91def321bbc3dc21c21a284ddb48bb0f2115e3b2",
        "concave-7": "6c40c754c2bc2fa83ec0c731f018cb3decd340e9f37fc7f78693ebebb0e4e00a",
        "concave-8": "9fa81ff854a87a8d7cc41bea106749efa0100b5f16875c38039a781b80095334",
        "nodal-cubic": "95a462073b8a40315c12bbe9529de7cc38170af921822226762eba5c816fae6e",
        "nodal-conic": "046c8e0681435966abdd3def215bf03c44b22bd6ff7f5a68f377269db2ea31a5",
        "weight-two": "0697a87d76c8c373cfab870547060db74807e764aa2294fcaf1b67f6911a96d2",
        "pentagon": "be5708c95c9b1c82af5133d5b5266c50affa68d4ebf5fe337bf8b2d14b33ff6a",
        "trapezoid": "f5503181a1b356fb1bbdf6988cde345ec4d1d26f7be7587d23a10fe2b71d2b21",
    }

    @staticmethod
    def corpus():
        polys = {f"concave-{d}": concave_poly(d) for d in range(1, 9)}
        polys["nodal-cubic"] = nodal_cubic()
        polys["nodal-conic"] = nodal_conic()
        polys["weight-two"] = weight_two_triangle()
        polys["pentagon"] = pentagon_poly()
        polys["trapezoid"] = trapezoid_poly()
        return polys

    def test_json_and_svg_bytes_are_pinned(self):
        digests = {}
        for name, poly in self.corpus().items():
            doc = curve_document(extract_curve(poly))
            text = write_document(doc) + render_svg(doc)
            digests[name] = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digests == self.GOLDEN
