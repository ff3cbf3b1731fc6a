"""Increasing lattice paths in the side-d triangle and their curve-counting weights.

Paths live in T_d = {(x, y): x, y >= 0, x + y <= d}, ordered by a generic
linear functional.  A top-level path visits 3d points (3d - 1 primitive-order
steps) from the minimal vertex p to the maximal vertex q.

Each path, together with the two boundary arcs of T_d, bounds two regions.
The division recursion peels a region at the first corner a-b-c turning
toward its arc: either cut the corner (the triangle abc becomes a trivalent
dual cell) or reflect b across the chord to v = a + c - b (the parallelogram
abcv becomes a node of the dual curve); a reflection falling outside T_d
drops that branch.  Peeling both regions down to their arcs yields the pairs
of tilings whose glued cells are exactly the dual subdivisions of plane
tropical curves whose marked edges realize the path.

Two weights attach to a tiling: its complex weight (product of normalized
triangle areas) and its Welschinger weight (zero if any triangle has even
area, else a sign from interior lattice points).  Summing over glued pairs
that form a CONNECTED curve (after splitting each node into its two crossing
branches) gives the count of irreducible rational degree-d curves through
3d - 1 generic points, and the Welschinger invariant.  Dropping the
connectivity filter would also count reducible degenerations, such as a line
through two of the points union a rigid one-cycle cubic through the other
nine; those must not enter either total.  The first reducible configurations
appear at d = 4, where they account for exactly C(11,2) = 55 spurious units.

No tiling is ever built.  Per side, the recursion maps each partition of the
path's steps into curve components to the summed weights of the tilings that
induce it.  Arc: every step is its own block.  Cut: steps ab and bc take the
block of step ac of the shorter path, times the triangle's weights.  Swap: a
parallelogram's branches cross, so ab takes the block of vc and bc that of av.
Join: a plus and a minus partition glue to a connected curve exactly when
their join is one block, that is, when one partition's blocks, merged along
a spanning forest of the other (each step linked to the previous step of its
block), form one component.  A top-level partition has one block per arc
step, so the forest of the corner side's 2d blocks has d - 1 edges over the
other side's d blocks.  Few distinct labellings of the forest's edge ends
occur, so the domain memoizes whether each joins the d blocks into one.  Side
values are weight sums.  No component escapes the partitions: every cell
branch owns a step of its path.

The counts and the listing of nonzero paths do not scan the census.  Few
paths have a tiling toward the arc through the third corner of the triangle.
A reverse search (Avis-Fukuda) lists exactly those, grown out of that arc by
the recursion's moves run backwards; only they meet the engines, and a path
with a nonzero total is one of them.  One engine per side runs the recursion
forwards toward its arc.  It splits each path where the path meets the arc
and memoizes the pieces; the corner engine reads only the live paths with a
direct tiling.  A side's map of a path, its engine's `product` of the pieces'
maps, has the one form of every map from the memo to the glue; a side value
sums it.  Inside, a path is the bytes of its points' ranks in the domain's
order.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations, compress
from operator import itemgetter, lt
from typing import Iterator, NamedTuple, Sequence

from .errors import BadDegreeError, InvalidPathError, shown
from .geometry import Point, triangle_weights, turn

ORDER_XEY = "xey"  # (d+1)*x - y ascending: x ascending, y descending
ORDER_ROWMAJOR = "rowmajor"  # (d+1)*x + y ascending

SIDE_PLUS = "plus"  # boundary arc left of the travel direction p -> q
SIDE_MINUS = "minus"

KIND_COMPLEX = "complex"
KIND_WELSCHINGER = "welschinger"

# The largest degree each counting method serves, decided from the degree alone
# by `check_degree`, before T_d or any path is built.  The path census
# C(|T_d| - 2, 3d - 2) never falls as d grows, so a path limit is a census limit.
PATH_COUNTER = "the lattice-path counter"
FULL_LISTING = "the full listing"
RECURSION = "the recursion"
MAX_DEGREE = {
    # d = 6: 5311735 census paths, counted in 7-9 s at 54 MB (2 vCPUs); d = 7: 1855967520
    PATH_COUNTER: 6,
    # d = 5 lists 27132 paths; at d = 6 the memos outgrew 1 GiB long before the end
    FULL_LISTING: 5,
    # `invariants.km_count`: N_500 has 3673 digits and takes 6-10 s (2 vCPUs); the cost
    # grows faster than d^3
    RECURSION: 500,
}
_PAST_MAX = {
    PATH_COUNTER: f"; N_d up to degree {MAX_DEGREE[RECURSION]}: count --method recursion",
    FULL_LISTING: "; list the nonzero paths alone with --nonzero-only",
}

# A side's state map sends a partition of a path's steps into curve
# components, one block label per step, to the summed (complex, Welschinger)
# weight of the tilings that induce it, as three parallel sequences: distinct
# partitions, complex and Welschinger weights.  Labels are dense, 0..k-1 in no
# set order, as the glue needs: arcs start as range, cuts copy, swaps exchange.
# A partition is bytes, one label per byte, as a path is the bytes of its ranks:
# a rank or a label past 255 makes `bytes` raise, and T_6 has 28 points.
States = tuple[Sequence[bytes], Sequence[int], Sequence[int]]

_NO_STATES: States = ((), (), ())  # shared by every dead side; a truth test reads its keys
_BYTE = [bytes((k,)) for k in range(256)]  # each rank and label as a one-byte key


class _DomainFields(NamedTuple):
    d: int
    points: tuple[Point, ...]
    p: Point
    q: Point
    left_arc: tuple[Point, ...]
    right_arc: tuple[Point, ...]


class PathDomain(_DomainFields):
    """Triangle T_d with a total point order and its two boundary arcs.  Its tables,
    the rank map, the two division engines and the glue's join memo, live in the
    instance __dict__ (a NamedTuple itself has none), so they last as long as the domain."""

    @cached_property
    def rank(self) -> dict[Point, int]:
        return {pt: k for k, pt in enumerate(self.points)}

    def corner_side(self) -> str:
        """The side whose arc runs through the third corner: the longer arc."""
        return SIDE_PLUS if len(self.left_arc) > len(self.right_arc) else SIDE_MINUS

    @cached_property
    def engines(self) -> dict[str, _DivisionEngine]:
        """Per side, the division engine toward that side's arc, the corner side's first.
        One pass files every non-collinear rank triple under the side it turns toward."""
        points, rank = self.points, self.rank
        tables: dict = {SIDE_PLUS: {}, SIDE_MINUS: {}}
        for abc in combinations(range(len(points)), 3):
            a, b, c = map(points.__getitem__, abc)
            if turned := turn(a, b, c):
                v = rank.get((a[0] + c[0] - b[0], a[1] + c[1] - b[1]), -1)
                side = SIDE_PLUS if turned > 0 else SIDE_MINUS
                tables[side][abc] = (*triangle_weights(a, b, c), v)
        corner = self.corner_side()
        sides = (corner, SIDE_MINUS if corner == SIDE_PLUS else SIDE_PLUS)
        arcs = {SIDE_PLUS: self.left_arc, SIDE_MINUS: self.right_arc}
        return {side: _DivisionEngine(tables[side], bytes(map(rank.__getitem__, arcs[side]))) for side in sides}

    @cached_property
    def joins(self) -> _Joins:
        # a direct top-level partition has one block per step of the direct, shorter arc
        return _Joins(min(len(self.left_arc), len(self.right_arc)) - 1)

    def steps(self) -> int:
        """Step count of a top-level path."""
        return len(self.left_arc) + len(self.right_arc) - 3  # boundary points - 1; p, q on both


def check_degree(d: int, method: str) -> None:
    """Raise BadDegreeError unless d is a positive int (bools excluded), and
    one that `method`, a key of MAX_DEGREE, serves."""
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise BadDegreeError(f"degree must be a positive integer, got {shown(d, repr)}")
    if d > MAX_DEGREE[method]:
        limit = f"{method} serves degrees up to {MAX_DEGREE[method]}, got {shown(d)}"
        raise BadDegreeError(limit + _PAST_MAX.get(method, ""))


def path_domain(d: int, order: str = ORDER_XEY) -> PathDomain:
    """Lattice points of T_d under the chosen order, with boundary arcs.  The
    path layer's one degree gate: no domain past the counter's limit exists."""
    check_degree(d, PATH_COUNTER)
    pts = [(x, y) for x in range(d + 1) for y in range(d + 1 - x)]
    if order not in (ORDER_XEY, ORDER_ROWMAJOR):  # by ==: an unhashable preset is refused too
        raise ValueError(f"unknown order preset {order!r}")
    s = -1 if order == ORDER_XEY else 1
    pts.sort(key=lambda pt: (d + 1) * pt[0] + s * pt[1])
    p, q = pts[0], pts[-1]
    # p -> q is a side of T_d, the direct arc; the rest of the boundary, with p and q,
    # is the corner arc.  Listed in the point order, each arc is increasing.
    direct = tuple(pt for pt in pts if turn(p, pt, q) == 0)
    via_corner = tuple(pt for pt in pts if (0 in pt or sum(pt) == d) and pt not in direct[1:-1])
    # the corner lies left of p -> q iff the turn p, corner, q is clockwise
    corner_is_left = turn(p, via_corner[1], q) < 0
    left_arc, right_arc = (via_corner, direct) if corner_is_left else (direct, via_corner)
    return PathDomain(d, tuple(pts), p, q, left_arc, right_arc)


def enumerate_paths(domain: PathDomain) -> Iterator[tuple[Point, ...]]:
    """All strictly increasing point sequences p -> q with 3d - 1 steps.

    Any selection of 3d - 2 interior-order points works, so enumeration is a
    plain combination scan; the order is deterministic.
    """
    head = (domain.p,)
    tail = (domain.q,)
    middles = combinations(domain.points[1:-1], domain.steps() - 1)
    return (head + middle + tail for middle in middles)


def _ranks(path, domain: PathDomain) -> bytes:
    """The ranks of a top-level path of the domain; else InvalidPathError."""
    rank, path = domain.rank, tuple(path)  # both passes read it; a tuple stays itself
    try:
        ranks = bytes(map(rank.__getitem__, path))  # only pairs are keys
    except (KeyError, TypeError):
        ranks = []
        for v in path:
            try:
                x, y = v  # a pair, not the head of a longer sequence
                ranks.append(rank[x, y])
            except (KeyError, TypeError, ValueError):
                msg = f"{v!r} is no lattice point of the side-{domain.d} triangle"
                raise InvalidPathError(msg) from None
    if len(ranks) < 2 or ranks[0] != 0 or ranks[-1] != len(domain.points) - 1:
        raise InvalidPathError(f"path must run from {domain.p} to {domain.q}")
    if not all(map(lt, ranks, ranks[1:])):
        raise InvalidPathError("path is not strictly increasing in the point order")
    if len(ranks) != domain.steps() + 1:
        raise InvalidPathError(f"path must visit {domain.steps() + 1} points, got {len(ranks)}")
    return bytes(ranks)


def _divided(j: int, corner, shorter: States, swapped: States) -> States:
    """A path's map from its children's at its first corner abc, at step j, turning
    toward the arc: the cut child's times the triangle's weights, ab and bc taking
    ac's block, plus the swap child's, where the parallelogram's branches cross:
    ab ~ vc, bc ~ av."""
    m, fw, _ = corner
    out = {labels[:j] + labels[j - 1 :]: (m * mu, fw * nu) for labels, mu, nu in zip(*shorter)}
    for labels, mu, nu in zip(*swapped):
        key = labels[: j - 1] + labels[j : j + 1] + labels[j - 1 : j] + labels[j + 1 :]
        old_mu, old_nu = out.get(key, (0, 0))
        out[key] = (old_mu + mu, old_nu + nu)
    return (tuple(out), *zip(*out.values())) if out else _NO_STATES


class _DivisionEngine:
    """Memoized connectivity-state division recursion toward one boundary arc, by piece.

    `toward` maps each rank triple a < b < c whose corner b turns toward the arc to the
    triangle's weights and the rank of v = a + c - b, or -1 outside the domain; `arc` is
    its ranks, increasing.  No arc point may be a turning corner (T_d is convex), so a
    path's arc points stay through every cut and swap, and cut the region between the
    path and the arc into pieces, the runs of the path between consecutive arc points.
    A piece's map labels each block by the index of its arc step, so a path's map is the
    product of its pieces' maps, labels concatenated.  The memo keys a piece by its
    ranks; a dead one maps to `_NO_STATES`.  Maps read with no read counts stay as long
    as the domain; a pass over known paths may count each piece's reads first (`reads`),
    and keep a map only until its last read.
    """

    def __init__(self, toward: dict[tuple[int, int, int], tuple[int, int, int]], arc: bytes):
        self.cache: dict[bytes, States] = {}
        self.toward, self.arc = toward, arc
        self.on_arc = set(arc)
        self.arc_steps = {arc[i : i + 2]: ((_BYTE[i],), (1,), (1,)) for i in range(len(arc) - 1)}

    def pieces(self, path: bytes) -> list[bytes]:
        """The runs of a path between consecutive arc points; its ends lie on the arc."""
        ends = [j for j, rank in enumerate(path) if rank in self.on_arc]
        return [path[i : j + 1] for i, j in zip(ends, ends[1:])]

    def _peeled(self, piece: bytes):
        """A piece's first corner turning toward the arc, its step j, the cut child's
        piece and the swap child's path (empty with v outside T_d); or None."""
        turning = self.toward.get
        for j, abc in enumerate(zip(piece, piece[1:], piece[2:]), 1):
            corner = turning(abc)
            if corner is not None:
                v, head, tail = corner[2], piece[:j], piece[j + 1 :]
                return corner, j, head + tail, head + _BYTE[v] + tail if v >= 0 else b""
        return None

    def reads(self, paths) -> dict[bytes, int]:
        """How often `product` reads each piece's map in a pass over `paths`: the recursion
        on keys alone, expanding a piece at its first read unless the memo holds it.  The
        swap child is one piece unless v lands on the arc."""
        reads: dict[bytes, int] = {}
        for path in paths:
            work = self.pieces(path)
            while work:
                piece = work.pop()
                if len(piece) > 2:
                    seen = reads.get(piece, 0)
                    reads[piece] = seen + 1
                    if not (seen or piece in self.cache) and (peeled := self._peeled(piece)):
                        corner, _, cut, swap = peeled
                        work += [cut, *self.pieces(swap)] if corner[2] in self.on_arc else [cut, swap]
        return reads

    def product(self, path: bytes, reads=None) -> States:
        """The map of an increasing path from arc to arc, in one walk: its pieces' maps,
        labels concatenated and weights multiplied.  Most pieces are arc steps, of one
        entry: a run of them joins the next piece's labels once, and scales every entry
        last; a lone piece's map of several entries comes back uncopied.  A pass passes
        its `reads`; every piece is read, consuming each counted read past a dead one."""
        unit = out = ((b"",), (1,), (1,))
        run, scale_mu, scale_nu = b"", 1, 1
        begin, on_arc, arc_step = 0, self.on_arc, self.arc_steps.get
        for end, rank in enumerate(path[1:], 1):
            if rank in on_arc:
                piece = path[begin : end + 1]
                states = arc_step(piece, _NO_STATES) if end - begin == 1 else self._piece(piece, reads)
                begin, (labels, mus, nus) = end, states
                if len(labels) == 1:
                    run, scale_mu, scale_nu = run + labels[0], scale_mu * mus[0], scale_nu * nus[0]
                    continue
                if run:
                    states, run = ([run + l for l in labels], mus, nus), b""
                if out is not unit:
                    (keys, ms, ws), (labels, mus, nus) = out, states
                    keys, ms = [k + l for k in keys for l in labels], [m * n for m in ms for n in mus]
                    states = keys, ms, [w * x for w in ws for x in nus]
                out = states
        if run:
            out = [k + run for k in out[0]], out[1], out[2]
        if scale_mu != 1 or scale_nu != 1:
            out = out[0], [m * scale_mu for m in out[1]], [w * scale_nu for w in out[2]]
        return out

    def _piece(self, piece: bytes, reads) -> States:
        """The map of a piece of three points or more."""
        result = self.cache.get(piece)
        if result is None:
            result = _NO_STATES
            if peeled := self._peeled(piece):
                corner, j, cut, swap = peeled
                shorter = self._piece(cut, reads) if len(cut) > 2 else self.arc_steps.get(cut, _NO_STATES)
                result = _divided(j, corner, shorter, self.product(swap, reads) if swap else _NO_STATES)
            self.cache[piece] = result
        if reads is not None:  # a pass drops the map at its last read
            if left := reads.pop(piece) - 1:
                reads[piece] = left
            else:
                del self.cache[piece]
        return result


def _live_paths(corner: _DivisionEngine, steps: int) -> list[bytes]:
    """The top-level paths of `steps` steps, as ranks, with a tiling toward the corner
    engine's arc, by reverse search level by level in the number of points.  The
    recursion peels a live path at its first corner j turning toward the arc, to a
    live path that is shorter (cut) or as long (swap).  Backwards: insert b between
    consecutive a and c (inverse cut), or replace v between a and c by b = a + c - v
    (inverse swap), a < b < c in the order.  The result is live iff j, where b lands,
    is its first turning corner."""
    toward, arc = corner.toward, corner.arc
    # the b whose corner between a and c turns, and the b a swap turned into v
    between: dict[bytes, list[int]] = {}
    unswap: dict[bytes, int] = {}
    for (a, b, c), (_, _, v) in toward.items():
        between.setdefault(bytes((a, c)), []).append(b)
        if v >= 0:
            unswap[bytes((a, v, c))] = b

    def keeps(path, j, b):
        # b, whose corner turns, lands at j: does no corner before it turn?
        return j == 1 or (path[j - 2], path[j - 1], b) not in toward

    # each path's first corner turning toward the arc; on the arc none, so len - 1
    level = {arc: len(arc) - 1}
    for size in range(len(arc), steps + 2):
        if size > len(arc):  # a move puts b at j <= first + 1: corners 1..j-2 stay
            level = {
                path[:j] + _BYTE[b] + path[j:]: j
                for path, first in level.items()
                for j in range(1, min(first + 1, size - 2) + 1)
                for b in between.get(path[j - 1 : j + 1], ())
                if keeps(path, j, b)
            }
        work = list(level)
        while work:
            path = work.pop()
            for j in range(1, min(level[path] + 1, size - 2) + 1):
                b = unswap.get(path[j - 1 : j + 2])
                if b is not None and keeps(path, j, b):
                    swapped = path[:j] + _BYTE[b] + path[j + 1 :]
                    if swapped not in level:
                        level[swapped] = j
                        work.append(swapped)
    return list(level)


class _Joins(dict):
    """The glue's memo for partitions into `blocks` blocks: a tuple of labels, ends ->
    whether joining the blocks of its pairs ends[0:2], ends[2:4], ... leaves one."""

    def __init__(self, blocks: int):  # dict.__init__ would only fill it
        self.blocks = blocks

    def __missing__(self, ends: tuple[int, ...]) -> bool:
        component = list(range(self.blocks))
        for x, y in zip(ends[::2], ends[1::2]):
            keep, gone = component[x], component[y]
            component = [keep if c == gone else c for c in component]
        joined = self[ends] = len(set(component)) == 1
        return joined


def _glue(corner: States, direct: States, joins) -> tuple[int, int]:
    """(complex, Welschinger) sums over glued pairs forming a connected curve, from
    each side's map, its engine's `product`.  A direct partition, of `joins.blocks`
    blocks, joins a corner-side one iff its labels on that one's spanning forest
    do: the forest links each step to the previous step of its block, and with
    no edge it is a loop at 0."""
    keys, mus, nus = direct
    total_mu = total_nu = 0
    for labels, mu_c, nu_c in zip(*corner) if keys else ():
        last: dict[int, int] = {}
        ends: list[int] = []
        for step, block in enumerate(labels):
            if block in last:
                ends += last[block], step
            last[block] = step
        joined = list(map(joins.__getitem__, map(itemgetter(*(ends or (0, 0))), keys)))
        total_mu += mu_c * sum(compress(mus, joined))
        total_nu += nu_c * sum(compress(nus, joined))
    return total_mu, total_nu


class PathMultiplicity(NamedTuple):
    """Division values of one path.

    The side values are the raw complex recursion results (the Welschinger
    ones come from `side_multiplicity`); the totals sum only over glued
    completions forming an irreducible (connected) curve, so for d >= 4 the
    total can be smaller than the product of the sides.
    """

    complex_plus: int
    complex_minus: int
    complex_total: int
    welschinger_total: int


def _glued(domain: PathDomain) -> Iterator[tuple[bytes, States, States, int, int]]:
    """Each path live on both sides, as ranks, with both sides' maps and its connected
    (complex, Welschinger) totals from `_glue`, as `path_multiplicity` glues one path.
    The direct side comes first: a path dead there has no glued pair, and no corner
    map.  Each direct piece's map goes at its last read, which the pass counts first;
    the corner pieces stay for the pass, since freeing them cost more time than it
    saved.  Paths come in ascending order of their reversed ranks, each leaving the
    list once glued.  The recursion peels a piece at its first turning corner, so
    paths with a common tail read their direct pieces together, and each map is
    freed soon after it is built, which lowers the peak against the search's order.
    It yields no `PathMultiplicity` rows: they were slower."""
    corner, direct = domain.engines.values()
    live = _live_paths(corner, domain.steps())
    reads = direct.reads(live)
    live.sort(key=lambda path: path[::-1], reverse=True)
    while live:
        path = live.pop()
        direct_map = direct.product(path, reads)
        if direct_map[0]:
            corner_map = corner.product(path)
            yield path, corner_map, direct_map, *_glue(corner_map, direct_map, domain.joins)


def _multiplicity(domain: PathDomain, corner: States, direct: States, mu, nu) -> PathMultiplicity:
    """A path's `PathMultiplicity` from both sides' maps and its totals."""
    values = sum(corner[1]), sum(direct[1])
    plus, minus = values if domain.corner_side() == SIDE_PLUS else values[::-1]
    return PathMultiplicity(plus, minus, mu, nu)


def side_multiplicity(path, domain: PathDomain, side: str, kind: str) -> int:
    """Division value of a top-level path toward one side, for one weight kind."""
    ranks = _ranks(path, domain)
    if side not in (SIDE_PLUS, SIDE_MINUS):
        raise ValueError(f"side must be {SIDE_PLUS!r} or {SIDE_MINUS!r}")
    if kind not in (KIND_COMPLEX, KIND_WELSCHINGER):
        raise ValueError(f"kind must be {KIND_COMPLEX!r} or {KIND_WELSCHINGER!r}")
    return sum(domain.engines[side].product(ranks)[1 if kind == KIND_COMPLEX else 2])


def path_multiplicity(path, domain: PathDomain) -> PathMultiplicity:
    """Side values and connected totals of one top-level path."""
    ranks = _ranks(path, domain)
    corner, direct = (engine.product(ranks) for engine in domain.engines.values())
    return _multiplicity(domain, corner, direct, *_glue(corner, direct, domain.joins))


def nonzero_multiplicities(domain: PathDomain) -> list[tuple[tuple[Point, ...], PathMultiplicity]]:
    """The paths with a nonzero complex total, each with its `PathMultiplicity`, in
    the order `enumerate_paths` yields them.  A live path with a zero complex
    total has no connected pair, so its Welschinger total is zero too."""
    rows = [
        (path, _multiplicity(domain, corner, direct, mu, nu))
        for path, corner, direct, mu, nu in _glued(domain)
        if mu
    ]
    return [(tuple(map(domain.points.__getitem__, path)), m) for path, m in sorted(rows)]


def count_both(d: int, order: str = ORDER_XEY) -> tuple[int, int]:
    """(curve count, Welschinger invariant) from one pass over the paths live on
    the corner side; a path dead there has no completions at all."""
    total_mu = total_nu = 0
    for *_, mu, nu in _glued(path_domain(d, order)):
        total_mu += mu
        total_nu += nu
    return total_mu, total_nu
