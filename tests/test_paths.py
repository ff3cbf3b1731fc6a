import gc
import math
import os
import random
import resource
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import tropcurve
from tropcurve import (
    BadDegreeError,
    InvalidPathError,
    count_both,
    enumerate_paths,
    km_count,
    nonzero_multiplicities,
    path_domain,
    path_multiplicity,
    side_multiplicity,
)
from tropcurve import paths
from tropcurve.geometry import triangle_weights, turn
from tropcurve.paths import (
    KIND_COMPLEX,
    KIND_WELSCHINGER,
    ORDER_ROWMAJOR,
    ORDER_XEY,
    SIDE_MINUS,
    SIDE_PLUS,
)

from path_oracle import (
    ForwardRecursion,
    TilingOracle,
    brute_triangle_weights,
    engine_map,
    engine_states,
    from_engine,
    join_totals,
    oracle_map,
    product,
    to_engine,
    union_merges,
)


def side_product_total(dom):
    """Sum of mu+ * mu- over all paths: glued pairs with no connectivity filter."""
    naive = 0
    for path in enumerate_paths(dom):
        cp = side_multiplicity(path, dom, SIDE_PLUS, KIND_COMPLEX)
        if cp == 0:
            continue
        naive += cp * side_multiplicity(path, dom, SIDE_MINUS, KIND_COMPLEX)
    return naive


def census_ranks(dom):
    """The census paths as their points' ranks, in the form the engines take them."""
    return [to_engine(path, dom) for path in enumerate_paths(dom)]


def direct_side(dom):
    return SIDE_MINUS if dom.corner_side() == SIDE_PLUS else SIDE_PLUS


def live_paths(dom):
    """The reverse search's live paths, from the domain's corner engine."""
    return paths._live_paths(dom.engines[dom.corner_side()], dom.steps())


def turn_tables(dom):
    """Each side's turn table, as its engine holds it."""
    return {side: engine.toward for side, engine in dom.engines.items()}


@pytest.fixture
def read_tables(monkeypatch):
    """The piece read counts of each pass's direct engine, kept to look at after the pass."""
    tables, reads = [], paths._DivisionEngine.reads

    def kept(engine, live):
        tables.append(reads(engine, live))
        return tables[-1]

    monkeypatch.setattr(paths._DivisionEngine, "reads", kept)
    return tables


def walked_arcs(d, p, q):
    """Reference (left, right) arcs: walk the boundary from p straight to q, and
    from p through the third corner r to q, one primitive step at a time."""

    def segment(a, b):
        steps = math.gcd(b[0] - a[0], b[1] - a[1])
        dx, dy = (b[0] - a[0]) // steps, (b[1] - a[1]) // steps
        return [(a[0] + k * dx, a[1] + k * dy) for k in range(steps + 1)]

    (r,) = {(0, 0), (d, 0), (0, d)} - {p, q}
    direct = tuple(segment(p, q))
    via_corner = tuple(segment(p, r) + segment(r, q)[1:])
    r_is_left = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0]) > 0
    return (via_corner, direct) if r_is_left else (direct, via_corner)


def census_formula(d):
    points = (d + 1) * (d + 2) // 2
    return math.comb(points - 2, 3 * d - 2)


def past_the_counter(shown):
    """The one line every path entry point refuses a degree past 6 with."""
    return (
        f"the lattice-path counter serves degrees up to 6, got {shown}; "
        "N_d up to degree 500: count --method recursion"
    )


class TestDomain:
    def test_xey_degree_one(self):
        dom = path_domain(1)
        assert dom.points == ((0, 1), (0, 0), (1, 0))
        assert dom.p == (0, 1)
        assert dom.q == (1, 0)

    def test_xey_degree_two(self):
        dom = path_domain(2)
        assert dom.points == ((0, 2), (0, 1), (0, 0), (1, 1), (1, 0), (2, 0))

    def test_rowmajor_degree_two(self):
        dom = path_domain(2, ORDER_ROWMAJOR)
        assert dom.points == ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0))
        assert dom.p == (0, 0)
        assert dom.q == (2, 0)

    def test_xey_arcs(self):
        dom = path_domain(2)
        assert dom.left_arc == ((0, 2), (1, 1), (2, 0))
        assert dom.right_arc == ((0, 2), (0, 1), (0, 0), (1, 0), (2, 0))

    def test_rowmajor_arcs(self):
        dom = path_domain(1, ORDER_ROWMAJOR)
        assert dom.left_arc == ((0, 0), (0, 1), (1, 0))
        assert dom.right_arc == ((0, 0), (1, 0))

    @pytest.mark.parametrize("order", [ORDER_XEY, ORDER_ROWMAJOR])
    @pytest.mark.parametrize("d", range(1, 7))
    def test_arcs_are_the_boundary_walks(self, d, order):
        dom = path_domain(d, order)
        assert (dom.left_arc, dom.right_arc) == walked_arcs(d, dom.p, dom.q)
        for arc in (dom.left_arc, dom.right_arc):
            ranks = [dom.rank[pt] for pt in arc]
            assert all(a < b for a, b in zip(ranks, ranks[1:]))
        # the step count and the join memo's block count, read off the arcs, are T_d's
        # 3d - 1 and d; one sort key, (d + 1)x -+ y, orders T_d as these keys do
        assert dom.steps() == 3 * d - 1
        assert dom.joins.blocks == d
        preset_key = {ORDER_XEY: lambda pt: (pt[0], -pt[1]), ORDER_ROWMAJOR: lambda pt: (d + 1) * pt[0] + pt[1]}
        triangle = [(x, y) for x in range(d + 1) for y in range(d + 1 - x)]
        assert dom.points == tuple(sorted(triangle, key=preset_key[order]))

    def test_bad_degree(self):
        with pytest.raises(BadDegreeError):
            path_domain(0)
        with pytest.raises(BadDegreeError):
            path_domain(-3)

    @pytest.mark.parametrize("d", [7, 15, 10**5])
    def test_no_domain_past_the_counter(self, d):
        # the path layer's one gate: every path function needs a domain
        start = time.perf_counter()
        with pytest.raises(BadDegreeError) as refused:
            path_domain(d)
        assert time.perf_counter() - start < 1
        assert str(refused.value) == past_the_counter(d)

    def test_a_far_domain_is_refused_within_a_small_address_space(self):
        # T_100000 alone would hold 5 * 10^9 points: under a 256 MB cap a regression
        # that builds anything of it before the gate fails here instead of filling memory
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

        code = (
            "from tropcurve import BadDegreeError, path_domain\n"
            "try:\n    path_domain(10**5)\n"
            "except BadDegreeError as exc:\n    print(exc)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(Path(tropcurve.__file__).parents[1])},
            preexec_fn=cap,
            timeout=60,
        )
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout == past_the_counter(100000) + "\n"

    def test_unknown_order(self):
        with pytest.raises(ValueError):
            path_domain(2, "diagonal")


class TestDegreeGate:
    # 10**5000 has 5001 digits: past CPython's default limit of 4300 digits, so its
    # refusal names it by its size
    @pytest.mark.parametrize(
        "method, pointer",
        [
            (paths.PATH_COUNTER, "; N_d up to degree 500: count --method recursion"),
            (paths.FULL_LISTING, "; list the nonzero paths alone with --nonzero-only"),
            (paths.RECURSION, ""),
        ],
        ids=["counter", "listing", "recursion"],
    )
    def test_a_degree_past_the_digit_limit_is_named_by_its_size(
        self, digit_limit, method, pointer
    ):
        digit_limit(4300)
        limit = paths.MAX_DEGREE[method]
        huge = "integer of 5001 digits, past the int-to-str digit limit (4300 digits)"
        with pytest.raises(BadDegreeError) as refused:
            paths.check_degree(10**5000, method)
        assert str(refused.value) == (
            f"{method} serves degrees up to {limit}, got an {huge}{pointer}"
        )
        with pytest.raises(BadDegreeError) as refused:
            paths.check_degree(-(10**5000), method)
        assert str(refused.value) == (
            f"degree must be a positive integer, got a negative {huge}"
        )
        # a degree with as many digits as the limit allows is shown in full
        with pytest.raises(BadDegreeError) as refused:
            paths.check_degree(10**4299, method)
        shown = "1" + "0" * 4299
        assert str(refused.value) == f"{method} serves degrees up to {limit}, got {shown}{pointer}"

    def test_a_non_number_past_the_digit_limit_is_named_by_its_type(self, digit_limit):
        # its repr would raise: the refusal names its type, not its digits
        digit_limit(4300)
        with pytest.raises(BadDegreeError) as refused:
            paths.check_degree([10**5000], paths.RECURSION)
        assert str(refused.value) == (
            "degree must be a positive integer, got a list holding a number past "
            "the int-to-str digit limit (4300 digits)"
        )

    def test_the_methods_are_the_three_tested(self):
        assert set(paths.MAX_DEGREE) == {paths.PATH_COUNTER, paths.FULL_LISTING, paths.RECURSION}

    def test_a_lowered_digit_limit_is_followed(self, digit_limit):
        # PYTHONINTMAXSTRDIGITS may lower the limit to 640: 10**639 still has 640 digits
        digit_limit(640)
        limit = "the int-to-str digit limit (640 digits)"
        for d, shown in ((10**639, "1" + "0" * 639), (10**640, f"an integer of 641 digits, past {limit}")):
            with pytest.raises(BadDegreeError) as refused:
                paths.check_degree(d, paths.RECURSION)
            assert str(refused.value) == f"the recursion serves degrees up to 500, got {shown}"

    def test_entry_points_refuse_a_huge_degree_at_once(self, digit_limit):
        digit_limit(4300)
        past = "of 5001 digits, past the int-to-str digit limit (4300 digits)"
        huge = f"integer {past}"
        calls = [
            (path_domain, 10**5000, past_the_counter(f"an {huge}")),
            (count_both, 10**5000, past_the_counter(f"an {huge}")),
            (count_both, -(10**5000), f"degree must be a positive integer, got a negative {huge}"),
            (km_count, 10**5000, f"the recursion serves degrees up to 500, got an {huge}"),
            (
                km_count,
                Fraction(10**5000),
                f"degree must be a positive integer, got a fraction {past}",
            ),
        ]
        for call, d, line in calls:
            start = time.perf_counter()
            with pytest.raises(BadDegreeError) as refused:
                call(d)
            assert time.perf_counter() - start < 1
            assert str(refused.value) == line


class TestEnumeration:
    def test_degree_one_unique_path(self):
        paths = list(enumerate_paths(path_domain(1)))
        assert paths == [((0, 1), (0, 0), (1, 0))]

    def test_degree_two_unique_path(self):
        dom = path_domain(2)
        paths = list(enumerate_paths(dom))
        assert paths == [dom.points]

    def test_degree_three_census(self):
        assert len(list(enumerate_paths(path_domain(3)))) == 8

    @pytest.mark.parametrize(
        "d, order",
        [pytest.param(d, ORDER_XEY, id=str(d)) for d in range(1, 6)]
        + [pytest.param(d, ORDER_ROWMAJOR, id=f"rowmajor-{d}") for d in range(1, 6)],
    )
    def test_census_matches_binomial(self, d, order):
        assert sum(1 for _ in enumerate_paths(path_domain(d, order))) == census_formula(d)

    def test_census_out_of_reach_fails_on_call(self):
        enumerate_paths(path_domain(6))  # served: a generator, no path drawn yet
        with pytest.raises(BadDegreeError) as refused:
            enumerate_paths(path_domain(7))  # no domain, so no path to draw
        assert str(refused.value) == past_the_counter(7)

    def test_path_limits_are_the_census_limits_they_replace(self):
        # the path gates were census limits, 10^8 paths to count and 10^6 to list;
        # the census never falls as d grows, so each degree limit is the same gate
        counter = paths.MAX_DEGREE[paths.PATH_COUNTER]
        listing = paths.MAX_DEGREE[paths.FULL_LISTING]
        assert census_formula(counter) <= 10**8 < census_formula(counter + 1)
        assert census_formula(listing) <= 10**6 < census_formula(listing + 1)
        censuses = list(map(census_formula, range(1, 600)))
        assert all(a <= b for a, b in zip(censuses, censuses[1:]))

    def test_deterministic_order(self):
        first = list(enumerate_paths(path_domain(3)))
        second = list(enumerate_paths(path_domain(3)))
        assert first == second


class TestSideMultiplicity:
    def test_degree_one_hand_trace(self):
        dom = path_domain(1)
        path = ((0, 1), (0, 0), (1, 0))
        # one division: unit corner triangle, reflected point (1,1) outside
        assert side_multiplicity(path, dom, SIDE_PLUS, KIND_COMPLEX) == 1
        # the path IS the right boundary arc
        assert side_multiplicity(path, dom, SIDE_MINUS, KIND_COMPLEX) == 1

    def test_degree_two_hand_trace(self):
        dom = path_domain(2)
        path = dom.points
        assert side_multiplicity(path, dom, SIDE_PLUS, KIND_COMPLEX) == 1
        assert side_multiplicity(path, dom, SIDE_MINUS, KIND_COMPLEX) == 1
        assert side_multiplicity(path, dom, SIDE_PLUS, KIND_WELSCHINGER) == 1
        assert side_multiplicity(path, dom, SIDE_MINUS, KIND_WELSCHINGER) == 1

    def test_dead_side_gives_zero(self):
        dom = path_domain(3)
        dead = [
            p
            for p in enumerate_paths(dom)
            if side_multiplicity(p, dom, SIDE_PLUS, KIND_COMPLEX) == 0
            or side_multiplicity(p, dom, SIDE_MINUS, KIND_COMPLEX) == 0
        ]
        assert dead
        for path in dead:
            m = path_multiplicity(path, dom)
            assert m.complex_total == 0
            assert m.welschinger_total == 0

    def test_degree_three_multiplicity_profile(self):
        # five contributing paths with weights 2, 1, 4, 3, 2
        dom = path_domain(3)
        mus = [path_multiplicity(p, dom).complex_total for p in enumerate_paths(dom)]
        assert sorted(m for m in mus if m) == [1, 2, 2, 3, 4]

    @pytest.mark.parametrize("d", [3, 4])
    def test_only_top_level_paths_have_multiplicities(self, d):
        # the corner side's table holds paths of 3d points alone: one point
        # fewer or more is refused on either side, not given a zero
        dom = path_domain(d)
        top = nonzero_multiplicities(dom)[0][0]
        inner = [pt for pt in dom.points[1:-1] if pt not in top]
        for path in (top[:1] + top[2:], top[:1] + (inner[0],) + top[1:]):
            # still increasing from p to q: only the length is refused
            path = tuple(sorted(path, key=dom.rank.__getitem__))
            assert len(path) in (3 * d - 1, 3 * d + 1)
            with pytest.raises(InvalidPathError, match=f"must visit {3 * d} points"):
                path_multiplicity(path, dom)
            for side in (SIDE_PLUS, SIDE_MINUS):
                with pytest.raises(InvalidPathError, match=f"must visit {3 * d} points"):
                    side_multiplicity(path, dom, side, KIND_COMPLEX)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("order", [ORDER_XEY, ORDER_ROWMAJOR])
    def test_direct_side_value_is_the_product_of_its_pieces_sums(self, d, order):
        # a product map's weight sum is the product of its factors' sums.  The
        # direct side's value is the sum over its product map for both kinds,
        # and the per-path API and the nonzero listing's pass report that value
        # as the direct side's
        dom, ref = path_domain(d, order), path_domain(d, order)
        direct = direct_side(dom)

        def direct_value(m):
            return m.complex_plus if direct == SIDE_PLUS else m.complex_minus

        expected = {}
        for path in enumerate_paths(dom):
            states = engine_states(ref.engines[direct], to_engine(path, ref))
            mu, nu = sum(mu for mu, _ in states.values()), sum(nu for _, nu in states.values())
            assert side_multiplicity(path, dom, direct, KIND_COMPLEX) == mu
            assert side_multiplicity(path, dom, direct, KIND_WELSCHINGER) == nu
            assert direct_value(path_multiplicity(path, dom)) == mu
            expected[path] = mu
        rows = nonzero_multiplicities(path_domain(d, order))
        assert rows and all(direct_value(m) == expected[path] for path, m in rows)

    def test_bad_side_and_kind(self):
        dom = path_domain(1)
        path = ((0, 1), (0, 0), (1, 0))
        with pytest.raises(ValueError):
            side_multiplicity(path, dom, "north", KIND_COMPLEX)
        with pytest.raises(ValueError):
            side_multiplicity(path, dom, SIDE_PLUS, "quantum")


class TestPathValidation:
    def test_wrong_endpoints(self):
        dom = path_domain(2)
        with pytest.raises(InvalidPathError):
            path_multiplicity(((0, 1), (0, 0), (2, 0)), dom)

    def test_not_increasing(self):
        dom = path_domain(2)
        with pytest.raises(InvalidPathError):
            path_multiplicity(((0, 2), (0, 0), (0, 1), (1, 1), (1, 0), (2, 0)), dom)

    def test_outside_triangle(self):
        dom = path_domain(2)
        with pytest.raises(InvalidPathError):
            path_multiplicity(((0, 2), (3, 3), (2, 0)), dom)

    @pytest.mark.parametrize("bad", [("a", 1), (math.nan, 1), (math.inf, 1), (0.5, 1)])
    def test_no_lattice_point(self, bad):
        dom = path_domain(2)
        with pytest.raises(InvalidPathError):
            path_multiplicity(((0, 2), bad, (2, 0)), dom)

    @pytest.mark.parametrize("bad", [(0, 2, 99), (0,), 7, [0, 1, 0], "01"])
    def test_no_pair(self, bad):
        # a point is a pair: a longer tuple is not read as its first two entries
        dom = path_domain(2)
        with pytest.raises(InvalidPathError):
            side_multiplicity(((0, 2), bad, (2, 0)), dom, SIDE_PLUS, KIND_COMPLEX)
        with pytest.raises(InvalidPathError):
            path_multiplicity(((0, 2), bad, (2, 0)), dom)

    def test_int_valued_coordinates_are_accepted(self):
        # a coordinate equal to an int (float, Fraction) hashes like it, so it
        # finds that point's rank: the path's values are the int path's
        dom = path_domain(2)
        ints = ((0, 2), (0, 1), (0, 0), (1, 1), (1, 0), (2, 0))
        mixed = ((0, 2.0), (Fraction(0), 1), (0.0, 0), (1.0, Fraction(2, 2)))
        mixed += ((Fraction(1), 0.0), (2, 0))
        assert mixed == ints == dom.points
        assert path_multiplicity(mixed, dom) == path_multiplicity(ints, dom) == (1, 1, 1, 1)
        for side in (SIDE_PLUS, SIDE_MINUS):
            for kind in (KIND_COMPLEX, KIND_WELSCHINGER):
                assert side_multiplicity(mixed, dom, side, kind) == 1

    def test_an_iterator_path_is_read_once(self):
        # a path given as an iterator is read as the same points given as a tuple:
        # the same values, and the same fault named
        dom = path_domain(2)
        assert path_multiplicity(iter(dom.points), dom) == path_multiplicity(dom.points, dom)
        for side in (SIDE_PLUS, SIDE_MINUS):
            for kind in (KIND_COMPLEX, KIND_WELSCHINGER):
                expected = side_multiplicity(dom.points, dom, side, kind)
                assert side_multiplicity(iter(dom.points), dom, side, kind) == expected
        bad = ((0, 2), (9, 9), (2, 0))
        fault = r"\(9, 9\) is no lattice point of the side-2 triangle"
        for path in (bad, iter(bad)):
            with pytest.raises(InvalidPathError, match=fault):
                path_multiplicity(path, dom)
        with pytest.raises(InvalidPathError, match=fault):
            side_multiplicity(iter(bad), dom, SIDE_PLUS, KIND_COMPLEX)


class TestMultiplicity:
    def test_degree_one(self):
        dom = path_domain(1)
        m = path_multiplicity(((0, 1), (0, 0), (1, 0)), dom)
        assert (m.complex_plus, m.complex_minus) == (1, 1)
        assert (m.complex_total, m.welschinger_total) == (1, 1)

    def test_degree_two(self):
        dom = path_domain(2)
        m = path_multiplicity(dom.points, dom)
        assert (m.complex_total, m.welschinger_total) == (1, 1)

    def test_degree_three_breakdown(self):
        dom = path_domain(3)
        mus = [path_multiplicity(p, dom).complex_total for p in enumerate_paths(dom)]
        nus = [path_multiplicity(p, dom).welschinger_total for p in enumerate_paths(dom)]
        assert sum(mus) == 12
        assert sum(nus) == 8

    def test_parity_and_dominance_per_path(self):
        for d in (2, 3, 4):
            dom = path_domain(d)
            for path in enumerate_paths(dom):
                m = path_multiplicity(path, dom)
                assert m.complex_total >= 0
                assert abs(m.welschinger_total) <= m.complex_total
                assert (m.welschinger_total - m.complex_total) % 2 == 0
                for side, mu in ((SIDE_PLUS, m.complex_plus), (SIDE_MINUS, m.complex_minus)):
                    assert abs(side_multiplicity(path, dom, side, KIND_WELSCHINGER)) <= mu

    def test_totals_bounded_by_side_products(self):
        # connectivity filtering can only shrink a path's contribution
        dom = path_domain(4)
        for path in enumerate_paths(dom):
            m = path_multiplicity(path, dom)
            assert m.complex_total <= m.complex_plus * m.complex_minus


class TestCounts:
    def test_known_values(self):
        assert [count_both(d)[0] for d in (1, 2, 3, 4)] == [1, 1, 12, 620]
        assert [count_both(d)[1] for d in (1, 2, 3)] == [1, 1, 8]

    def test_degree_four_welschinger(self):
        assert count_both(4)[1] == 240

    def test_order_invariance(self):
        for d in (1, 2, 3, 4):
            assert count_both(d, ORDER_XEY) == count_both(d, ORDER_ROWMAJOR)

    def test_total_parity(self):
        for d in (1, 2, 3, 4):
            n, w = count_both(d)
            assert (n - w) % 2 == 0
            assert w <= n

    def test_bad_degree(self):
        with pytest.raises(BadDegreeError):
            count_both(0)
        with pytest.raises(BadDegreeError):
            count_both(-1)

    def test_unknown_order(self):
        with pytest.raises(ValueError, match="'bogus'"):
            count_both(3, "bogus")
        with pytest.raises(ValueError, match=r"\['xey'\]"):
            count_both(3, ["xey"])

    def test_reducible_excess_at_degree_four(self):
        # side products also count reducible degenerations; at d=4 these are a
        # line through 2 of the 11 points union a one-cycle cubic through the
        # other 9, contributing C(11,2) = 55 units over the true count
        dom = path_domain(4)
        naive = side_product_total(dom)
        assert naive - count_both(4)[0] == math.comb(11, 2)

    def test_reducible_excess_at_degree_five(self):
        # a line through 2 of the 14 points with a 2-nodal quartic through the
        # other 12 (Severi degree N^{4,2} = 225), or a conic through 5 with a
        # cubic through the other 9
        dom = path_domain(5)
        excess = side_product_total(dom) - km_count(5)
        assert excess == math.comb(14, 2) * 225 + math.comb(14, 5) == 22477

    def test_determinism(self):
        a = count_both(3)
        b = count_both(3)
        assert a == b

    def test_cached_degree_rejects_float_and_bool(self):
        # 3.0 == 3 and True == 1: a degree that merely equals an int is still refused
        count_both(3)
        count_both(1)
        with pytest.raises(BadDegreeError):
            count_both(3.0)
        with pytest.raises(BadDegreeError):
            count_both(True)

    @pytest.mark.parametrize("order", [ORDER_XEY, ORDER_ROWMAJOR])
    def test_state_labels_are_dense(self, order):
        # no relabelling after a swap: the glue sizes its union-find over the
        # direct side's blocks by max + 1, so the k blocks of every live path's
        # product map on either side must be labelled exactly 0..k-1 (the pieces
        # are held to their arc steps below)
        dom = path_domain(4, order)
        for engine in dom.engines.values():
            keys = 0
            for path in live_paths(dom):
                for labels in engine_states(engine, path):
                    assert set(labels) == set(range(max(labels) + 1)), labels
                    keys += 1
            assert keys > 0

    @pytest.mark.parametrize("order", [ORDER_XEY, ORDER_ROWMAJOR])
    def test_live_paths_and_top_level_keys_are_bytes(self, order):
        # a path is the bytes of its ranks and a partition the bytes of its labels,
        # so no rank may pass 255: the largest domain the counter serves has at
        # most 256 points
        assert len(path_domain(paths.MAX_DEGREE[paths.PATH_COUNTER], order).points) <= 256
        dom = path_domain(4, order)
        live = live_paths(dom)
        assert live and all(type(path) is bytes for path in live)
        maps = [engine.product(path) for engine in dom.engines.values() for path in live]
        keys = [labels for partitions, _, _ in maps for labels in partitions]
        assert keys and all(type(labels) is bytes for labels in keys)

    @pytest.mark.parametrize("order", [ORDER_XEY, ORDER_ROWMAJOR])
    def test_engine_keys_are_pieces(self, order):
        # each side's memo keys a piece by its ranks: it starts and ends on the
        # side's arc with no arc point inside, and each of its partitions labels
        # its steps with exactly the indices of the arc steps between its ends.
        # Two-point pieces are never stored; a dead piece maps to the shared
        # `_NO_STATES`
        dom = path_domain(5, order)
        for path in enumerate_paths(dom):
            path_multiplicity(path, dom)
        for side, engine in dom.engines.items():
            index = {rank: i for i, rank in enumerate(engine.arc)}
            for piece, (keys, _, _) in engine.cache.items():
                assert len(piece) > 2 and piece[0] in index and piece[-1] in index
                assert not index.keys() & set(piece[1:-1])
                assert list(piece) == sorted(set(piece))
                steps = set(range(index[piece[0]], index[piece[-1]]))
                for labels in keys:
                    assert len(labels) == len(piece) - 1 and set(labels) == steps
            dead = [states for states in engine.cache.values() if not states[0]]
            assert dead and len(dead) < len(engine.cache)
            assert all(states is paths._NO_STATES for states in dead)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("order", [ORDER_XEY, ORDER_ROWMAJOR])
    def test_memo_maps_are_parallel_with_distinct_keys(self, d, order):
        # a map is three parallel sequences, and no dict keeps its partitions
        # distinct: every map the engines hold, after a pass and after per-path
        # calls over the census, has three equal lengths and distinct partitions,
        # and every dead one is the shared `_NO_STATES`
        dom = path_domain(d, order)

        def held_maps():
            held = dead = 0
            for engine in dom.engines.values():
                for states in [*engine.cache.values(), *engine.arc_steps.values()]:
                    keys, mus, nus = states
                    assert len(keys) == len(mus) == len(nus)
                    assert len(set(keys)) == len(keys)
                    if not keys:
                        assert states is paths._NO_STATES
                        dead += 1
                    held += 1
            return held, dead

        nonzero_multiplicities(dom)
        after_pass = held_maps()
        for path in enumerate_paths(dom):
            path_multiplicity(path, dom)
        after_census = held_maps()
        assert after_census[0] > after_pass[0] > 0
        assert (after_census[1] > 0) == (d >= 3)  # T_1 and T_2 have no dead piece

    def test_no_corner_on_an_arc_turns_toward_it(self):
        # T_d is convex, so a corner at a boundary point turns away from both arcs:
        # no cut or swap takes a path's arc points away, and the engine splits a
        # path at them.  A swap may still land v on the direct arc, and split a piece
        for d in range(1, 7):
            for order in (ORDER_XEY, ORDER_ROWMAJOR):
                dom = path_domain(d, order)
                turns = turn_tables(dom)
                for side in (SIDE_PLUS, SIDE_MINUS):
                    arc = set(dom.engines[side].arc)
                    assert not any(b in arc for _, b, _ in turns[side])
                direct = direct_side(dom)
                landed = sum(v in set(dom.engines[direct].arc) for *_, v in turns[direct].values())
                assert landed == {1: 0, 2: 3, 3: 18, 4: 62, 5: 162, 6: 357}[d]

    def test_turn_table_holds_each_corner_turning_toward_the_arc(self):
        # over all C(|T_d|, 3) increasing rank triples: a triple sits in the table of
        # the side its corner turns toward, with the triangle's weights and the rank
        # of the reflected point, which lies between a and c, or -1; a collinear
        # triple sits in neither.  The engine reads the direct arc's table, the
        # reverse search the corner arc's
        total = 0
        for d in range(1, 6):
            for order in (ORDER_XEY, ORDER_ROWMAJOR):
                dom = path_domain(d, order)
                turns = turn_tables(dom)
                assert set(turns) == {SIDE_PLUS, SIDE_MINUS}
                expected = {SIDE_PLUS: {}, SIDE_MINUS: {}}
                collinear = 0
                for abc in combinations(range(len(dom.points)), 3):
                    a, b, c = (dom.points[k] for k in abc)
                    if turn(a, b, c) == 0:
                        assert all(abc not in table for table in turns.values())
                        collinear += 1
                        continue
                    v = (a[0] + c[0] - b[0], a[1] + c[1] - b[1])
                    v_rank = dom.points.index(v) if v in dom.points else -1
                    assert v_rank == -1 or abc[0] < v_rank < abc[2]
                    side = SIDE_PLUS if turn(a, b, c) > 0 else SIDE_MINUS
                    expected[side][abc] = (*triangle_weights(a, b, c), v_rank)
                    total += 1
                assert turns == expected
                size = sum(map(len, turns.values()))
                assert size + collinear == math.comb(len(dom.points), 3)
        assert total > 0

    def test_a_far_degree_builds_no_table_up_front(self):
        # at the counter's limit T_6 has C(28, 3) = 3276 rank triples: a domain walks
        # none of them up front, and one path toward the direct arc builds both engines
        # with their turn tables, of which only the direct one fills, and no glue memo
        for order in (ORDER_XEY, ORDER_ROWMAJOR):
            dom = path_domain(6, order)
            assert math.comb(len(dom.points), 3) == 3276
            assert "engines" not in vars(dom)
            path = dom.points[: dom.steps()] + (dom.q,)
            direct = direct_side(dom)
            side_multiplicity(path, dom, direct, KIND_COMPLEX)
            assert dom.engines[dom.corner_side()].cache == {} and dom.engines[direct].cache
            assert "joins" not in vars(dom)
        dom = path_domain(3)
        path = nonzero_multiplicities(dom)[0][0]
        engines = vars(dom)["engines"]  # the pass's
        path_multiplicity(path, dom)
        side_multiplicity(path, dom, dom.corner_side(), KIND_COMPLEX)
        assert dom.engines is engines

    def test_engines_live_on_their_domain(self):
        # count_both leaves no engine behind; each domain builds its own, once.
        # Other modules may hold domains with engines, so count, not look for none.
        def engines():
            gc.collect()
            return sum(isinstance(obj, paths._DivisionEngine) for obj in gc.get_objects())

        before = engines()
        count_both(4)
        assert engines() <= before
        dom = path_domain(4)
        assert dom.engines is dom.engines
        assert list(dom.engines) == [dom.corner_side(), direct_side(dom)]  # as the pass reads them
        other = path_domain(4).engines
        assert all(other[side] is not dom.engines[side] for side in (SIDE_PLUS, SIDE_MINUS))

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("order", [ORDER_XEY, ORDER_ROWMAJOR])
    def test_a_pass_reads_each_direct_map_as_often_as_counted(self, d, order, read_tables):
        # a pass drops each direct map at its last counted read: a count too low
        # raises KeyError, one too high leaves the map and its count behind.  The
        # corner engine reads with no count, and keeps its pieces for the pass
        dom = path_domain(d, order)
        totals = [(mu, nu) for *_, mu, nu in paths._glued(dom)]
        assert dom.engines[direct_side(dom)].cache == {} and read_tables == [{}]
        assert sum(mu for mu, _ in totals) == km_count(d)
        assert sum(nu for _, nu in totals) == {1: 1, 2: 1, 3: 8, 4: 240, 5: 18264}[d]

    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("order", [ORDER_XEY, ORDER_ROWMAJOR])
    def test_the_per_path_api_after_a_pass(self, d, order, read_tables):
        # the read counts belong to the pass: after a full pass, or one dropped
        # after its first row, a domain answers per path as a fresh one does,
        # and a second pass reads the maps the memo holds without walking below
        fresh = path_domain(d, order)
        full, dropped = path_domain(d, order), path_domain(d, order)
        expected = nonzero_multiplicities(path_domain(d, order))
        assert nonzero_multiplicities(full) == expected
        next(paths._glued(dropped))
        for path in enumerate_paths(fresh):
            for dom in (full, dropped):
                assert path_multiplicity(path, dom) == path_multiplicity(path, fresh)
                for side in (SIDE_PLUS, SIDE_MINUS):
                    for kind in (KIND_COMPLEX, KIND_WELSCHINGER):
                        got = side_multiplicity(path, dom, side, kind)
                        assert got == side_multiplicity(path, fresh, side, kind)
        read_tables.clear()
        for dom in (full, dropped):
            engine = dom.engines[direct_side(dom)]
            held = set(engine.cache)
            assert nonzero_multiplicities(dom) == expected
            assert set(engine.cache) < held
        assert read_tables == [{}, {}]

    @pytest.mark.parametrize("order", [ORDER_XEY, ORDER_ROWMAJOR])
    def test_a_pass_reads_the_pieces_after_a_dead_one(self, order):
        # a path dead in its first piece is dead, yet a pass still reads its later
        # pieces, whose reads the walk counted, so none of their maps outlives it
        other = path_domain(4, order)
        probe = other.engines[direct_side(other)]

        def dead_first(pieces):
            later = [piece for piece in pieces[1:] if len(piece) > 2]
            return not engine_states(probe, pieces[0]) and any(engine_states(probe, piece) for piece in later)

        dom = path_domain(4, order)
        engine = dom.engines[direct_side(dom)]
        (path,) = [path for path in census_ranks(dom) if dead_first(probe.pieces(path))]
        later = {piece for piece in engine.pieces(path)[1:] if len(piece) > 2}
        reads = engine.reads([path, path])
        assert later <= set(reads)
        for _ in range(2):
            assert engine.product(path, reads)[0] == []
        assert reads == {} and engine.cache == {}

    @pytest.mark.parametrize("order", [ORDER_XEY, ORDER_ROWMAJOR])
    def test_a_pass_glues_paths_sharing_a_tail_together(self, order):
        # the recursion peels a piece at its first turning corner, so paths with a
        # common tail share direct pieces: the pass glues them in ascending order
        # of their reversed ranks, and the direct engine holds at most 2014
        # partition entries at once at d = 5 (3599 in the search's order).  Of
        # the 1833 live paths, 1432 have a tiling toward the direct arc too
        dom = path_domain(5, order)
        direct = dom.engines[direct_side(dom)]
        order_keys, peak = [], 0
        for path, *_ in paths._glued(dom):
            order_keys.append(path[::-1])
            peak = max(peak, sum(len(keys) for keys, _, _ in direct.cache.values()))
        assert len(order_keys) == 1432 and order_keys == sorted(order_keys)
        assert 0 < peak <= 2014

    @pytest.mark.parametrize("order", [ORDER_XEY, ORDER_ROWMAJOR])
    def test_a_pass_builds_no_corner_side_for_a_path_dead_on_the_direct_one(self, order):
        # a path whose direct map is empty has no glued pair: the pass yields
        # exactly the live paths with a nonempty direct product, and builds the
        # corner side of those alone, leaving 904 corner pieces at d = 5 (986
        # if it built the corner side of all 1833 live paths)
        dom, ref = path_domain(5, order), path_domain(5, order)
        probe = ref.engines[direct_side(ref)]
        expected = [path for path in live_paths(ref) if probe.product(path)[0]]
        rows = [path for path, *_ in paths._glued(dom)]
        assert sorted(rows) == sorted(expected) and len(rows) == 1432
        assert len(dom.engines[dom.corner_side()].cache) == 904


class TestSideChoice:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_corner_side_by_order(self, d):
        # the corner arc runs through the corner that is neither p nor q; the
        # engine runs toward the other arc, the direct one
        expected = {ORDER_XEY: [SIDE_MINUS, SIDE_PLUS], ORDER_ROWMAJOR: [SIDE_PLUS, SIDE_MINUS]}
        for order, sides in expected.items():
            dom = path_domain(d, order)
            assert dom.corner_side() == sides[0]
            arc, direct = (dom.left_arc, dom.right_arc)[:: 1 if sides[0] == SIDE_PLUS else -1]
            for side, points in zip(sides, (arc, direct)):
                ranks = tuple(map(dom.rank.__getitem__, points))
                assert list(map(from_engine, dom.engines[side].arc_steps)) == list(zip(ranks, ranks[1:]))
            assert from_engine(dom.engines[sides[1]].arc) == tuple(map(dom.rank.__getitem__, direct))
            assert from_engine(dom.engines[sides[0]].arc) == tuple(map(dom.rank.__getitem__, arc))
            (corner,) = {(0, 0), (d, 0), (0, d)} - {dom.p, dom.q}
            assert corner in arc and corner not in direct

    def test_degree_five_counts_agree_across_orders(self):
        assert count_both(5, ORDER_ROWMAJOR) == count_both(5, ORDER_XEY) == (87304, 18264)


def random_states(rng, steps, entries):
    """A state map of dense partitions with arbitrary block counts, 1..steps."""
    states = {}
    for _ in range(entries):
        blocks = rng.randint(1, steps)
        labels = list(range(blocks)) + [rng.randrange(blocks) for _ in range(steps - blocks)]
        rng.shuffle(labels)
        states[tuple(labels)] = (rng.randint(-9, 9), rng.randint(-9, 9))
    return states


def glue_by_blocks(corner, other, joins):
    """`paths._glue` of two state maps whose partitions may have any block count:
    the glue reads the other side's partitions of one block count per call, with
    that count's memo from `joins`, one `_Joins(blocks)` per block count."""
    by_blocks = {}
    for labels, (mu, nu) in other.items():
        keys, mus, nus = by_blocks.setdefault(max(labels) + 1, ([], [], []))
        keys.append(to_engine(labels))
        mus.append(mu)
        nus.append(nu)
    total_mu = total_nu = 0
    for blocks, direct in by_blocks.items():
        memo = joins.setdefault(blocks, paths._Joins(blocks))
        mu, nu = paths._glue(engine_map(corner), direct, memo)
        total_mu, total_nu = total_mu + mu, total_nu + nu
    return total_mu, total_nu


WEIGHTS = st.tuples(st.integers(-9, 9), st.integers(-9, 9))
ONE_ENTRY = st.builds(lambda labels, weights: {labels: weights}, st.tuples(st.integers(0, 9)), WEIGHTS)
# a piece's partitions all have its step count, so concatenated labels never collide
MULTI_ENTRY = st.integers(1, 3).flatmap(
    lambda steps: st.dictionaries(st.tuples(*[st.integers(0, 3)] * steps), WEIGHTS, min_size=2, max_size=4)
)
PIECES = st.lists(st.one_of(ONE_ENTRY, MULTI_ENTRY, st.just({})), min_size=1, max_size=8)
ARC_STEP = {(0,): (1, 1)}


def engine_form(states):
    """A dict state map as an engine holds it: `engine_map`, or `_NO_STATES` if empty."""
    return engine_map(states) if states else paths._NO_STATES


class TestGlue:
    @given(PIECES)
    @example([{}, ARC_STEP, {(0,): (3, -1)}, {(0,): (1, 1), (1,): (2, 1)}])
    @example([ARC_STEP, {(1,): (2, 3)}, {}, {(0,): (1, 1), (1,): (2, 1)}, ARC_STEP])
    @example([{(0,): (1, 1), (1,): (2, 1)}, ARC_STEP, {(2,): (5, 1)}, {}])
    @example([ARC_STEP, {(1,): (3, -1)}, {(0, 1): (1, 1), (1, 0): (4, 0)}, ARC_STEP, {(2,): (-2, 7)}])
    @example([{}])
    def test_flat_lists_equal_the_product_map(self, maps):
        # runs of one-entry pieces, weights (1, 1) or not, between pieces of
        # several entries, with a dead piece anywhere: `product` gives the same
        # entries in order as the dict product of the oracle.  Each map is read
        # as the piece (2k, 2k + 1, 2k + 2), with the even ranks on the arc.  A
        # lone map of several entries comes back uncopied
        pieces = list(map(engine_form, maps))
        engine = object.__new__(paths._DivisionEngine)
        engine.on_arc, engine.arc_steps = set(range(0, 2 * len(pieces) + 1, 2)), {}
        engine._piece = lambda piece, reads: pieces[piece[0] // 2]
        got = engine.product(to_engine(range(2 * len(pieces) + 1)))
        keys, mus, nus = got
        assert list(zip(map(from_engine, keys), zip(mus, nus))) == list(product(maps).items())
        assert len(pieces) > 1 or len(keys) == 1 or got is pieces[0]

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("order", [ORDER_XEY, ORDER_ROWMAJOR])
    def test_product_equals_the_pieces_product_on_every_census_path(self, d, order):
        # on either side, a path's map is the dict product of its pieces' maps,
        # entries in order; a path whose one piece has several entries reads
        # that piece's cached map itself (one census path at d = 4, on the
        # direct side)
        dom = path_domain(d, order)
        lone = 0
        for engine in dom.engines.values():
            for path in census_ranks(dom):
                got = engine.product(path)
                pieces = engine.pieces(path)
                maps = [engine.product(piece) for piece in pieces]
                expected = product(list(map(oracle_map, maps)))
                assert list(zip(map(from_engine, got[0]), zip(got[1], got[2]))) == list(expected.items())
                if len(pieces) == 1 and len(maps[0][0]) > 1:
                    assert got is engine.cache[path]
                    lone += 1
        assert lone == {4: 1}.get(d, 0)

    @pytest.mark.parametrize("seed", range(20))
    def test_forest_test_equals_the_join_on_random_partitions(self, seed):
        rng = random.Random(seed)
        steps = rng.randint(1, 17)
        first = random_states(rng, steps, rng.randint(1, 30))
        second = random_states(rng, steps, rng.randint(1, 30))
        expected = join_totals(first, second)
        assert glue_by_blocks(first, second, {}) == expected
        assert glue_by_blocks(second, first, {}) == expected

    @pytest.mark.parametrize("seed", range(5))
    def test_merge_memo_equals_a_plain_union_find(self, seed):
        rng = random.Random(seed)
        memos, seen = {}, set()
        for _ in range(300):
            blocks = rng.randint(1, 9)
            ends = tuple(rng.randrange(blocks) for _ in range(2 * rng.randint(1, 9)))
            memo = memos.setdefault(blocks, paths._Joins(blocks))
            joined = union_merges(ends) == blocks - 1
            assert memo[ends] is joined
            assert ends in memo and memo[ends] is joined
            seen.add(joined)
        assert seen == {True, False}

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("order", [ORDER_XEY, ORDER_ROWMAJOR])
    def test_forest_test_equals_the_join_on_every_live_path(self, d, order):
        # the glue reads both sides as flat lists built off their pieces' maps;
        # the oracle joins the product maps, which those lists must equal
        dom = path_domain(d, order)
        glued = 0
        joins = paths._Joins(d)  # one, as the domain keeps it
        for path in census_ranks(dom):
            (corner_states, corner), (other_states, direct) = [
                (engine_states(engine, path), engine.product(path)) for engine in dom.engines.values()
            ]
            for states, (keys, mus, nus) in ((corner_states, corner), (other_states, direct)):
                assert oracle_map((keys, mus, nus)) == states
                assert len(keys) == len(states)
            if corner_states and other_states:
                expected = join_totals(corner_states, other_states)
                assert paths._glue(corner, direct, joins) == expected
                glued += 1
        assert glued == {1: 1, 2: 1, 3: 5, 4: 63}[d]

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("order", [ORDER_XEY, ORDER_ROWMAJOR])
    def test_top_level_partitions_have_one_block_per_arc_step(self, d, order):
        # the arc gives each step its own block, cuts copy labels and swaps
        # exchange them, so a top-level partition has one block per arc step: 2d
        # on the corner side and d on the other.  The glue builds its forest on
        # the side with more blocks: 3d - 1 - 2d = d - 1 edges over the other
        # side's d blocks
        dom = path_domain(d, order)
        for side in (SIDE_PLUS, SIDE_MINUS):
            arc = dom.left_arc if side == SIDE_PLUS else dom.right_arc
            assert len(arc) - 1 == (2 * d if side == dom.corner_side() else d)
            checked = 0
            for path in census_ranks(dom):
                for labels in engine_states(dom.engines[side], path):
                    assert max(labels) + 1 == len(arc) - 1
                    checked += 1
            assert checked > 0


class TestReverseSearch:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("order", [ORDER_XEY, ORDER_ROWMAJOR])
    def test_live_paths_equal_the_census_filter(self, d, order):
        dom = path_domain(d, order)
        live = sorted(live_paths(dom))
        for path in live:
            assert paths._ranks(from_engine(path, dom), dom) == path
        # the filter runs the forward recursion toward the corner arc on its own
        # domain, so it shares nothing with the search
        ref = path_domain(d, order)
        forward = ref.engines[ref.corner_side()]
        census_live = [path for path in census_ranks(ref) if engine_states(forward, path)]
        assert live == census_live
        assert len(live) == {1: 1, 2: 1, 3: 5, 4: 69, 5: 1833}[d]

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("order", [ORDER_XEY, ORDER_ROWMAJOR])
    def test_nonzero_rows_equal_the_census_filter(self, d, order):
        # one pass over the search's table gives the rows the per-path API gives
        # over the census, in the census order, each domain on its own
        ref = path_domain(d, order)
        census = [(path, path_multiplicity(path, ref)) for path in enumerate_paths(ref)]
        expected = [(path, m) for path, m in census if m.complex_total != 0]
        assert nonzero_multiplicities(path_domain(d, order)) == expected
        # the listing prints every row with a nonzero Welschinger total: a live
        # path with a zero complex total has no connected pair, even where both
        # of its sides have tilings (the reducible ones, from d = 4 on).  The
        # pass yields no path dead on the direct side
        zero = [row for row in paths._glued(path_domain(d, order)) if row[3] == 0]
        assert all(nu == 0 for *_, nu in zero)
        assert all(keys for _, _, (keys, _, _), _, _ in zero) and len(zero) == {4: 5}.get(d, 0)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("order", [ORDER_XEY, ORDER_ROWMAJOR])
    def test_corner_maps_equal_the_forward_recursion(self, d, order):
        # every census path's corner-side map, the product of its pieces' maps,
        # equals the one the recursion builds on the whole path, in the oracle's
        # own terms; it is nonempty exactly on the search's live paths
        dom = path_domain(d, order)
        live = set(live_paths(dom))
        engine = dom.engines[dom.corner_side()]
        forward = ForwardRecursion(path_domain(d, order), dom.corner_side())
        missing = 0
        for path, ranks in zip(enumerate_paths(dom), census_ranks(dom)):
            expected = forward.states(path)
            assert engine_states(engine, ranks) == expected
            if ranks in live:
                assert expected
            else:
                assert expected == {}
                missing += 1
        assert len(live) + missing == census_formula(d)

    @pytest.mark.parametrize("order", [ORDER_XEY, ORDER_ROWMAJOR])
    def test_the_search_leaves_no_cycle(self, order):
        # the search frees each level by reference counting alone: with the
        # cyclic collector off, a collection after it finds nothing to free
        dom = path_domain(4, order)
        gc.collect()
        gc.disable()
        try:
            live = live_paths(dom)
            del live
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_count_checks_the_census_first(self):
        # the search builds no census; the domain it needs applies the degree gate
        for refused in (lambda: nonzero_multiplicities(path_domain(7)), lambda: count_both(7)):
            with pytest.raises(BadDegreeError) as raised:
                refused()
            assert str(raised.value) == past_the_counter(7)


class TestSideSymmetry:
    def test_minus_first_evaluation_same_totals(self):
        # early rejection order between the two sides must not matter
        for d in (2, 3):
            dom = path_domain(d)
            total_mu = 0
            total_nu = 0
            for path in enumerate_paths(dom):
                if side_multiplicity(path, dom, SIDE_MINUS, KIND_COMPLEX) == 0:
                    continue
                m = path_multiplicity(path, dom)
                total_mu += m.complex_total
                total_nu += m.welschinger_total
            assert (total_mu, total_nu) == count_both(d)


class TestTilingOracle:
    @pytest.mark.parametrize("order", [ORDER_XEY, ORDER_ROWMAJOR])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_every_path_matches_materialised_tilings(self, d, order):
        dom = path_domain(d, order)
        oracle = TilingOracle(dom)
        for path in enumerate_paths(dom):
            m = path_multiplicity(path, dom)
            assert (
                m.complex_plus,
                m.complex_minus,
                side_multiplicity(path, dom, SIDE_PLUS, KIND_WELSCHINGER),
                side_multiplicity(path, dom, SIDE_MINUS, KIND_WELSCHINGER),
                m.complex_total,
                m.welschinger_total,
            ) == oracle.multiplicity(path)

    def test_triangle_kernel_matches_brute_force(self):
        points = [(x, y) for x in range(5) for y in range(5 - x)]
        checked = 0
        for a, b, c in combinations(points, 3):
            expected = brute_triangle_weights(a, b, c)
            if expected[0] == 0:
                continue
            assert triangle_weights(a, b, c) == expected
            assert triangle_weights(a, c, b) == expected
            checked += 1
        assert checked == 455 - 48  # 48 collinear triples
