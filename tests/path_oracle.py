"""Reference path weights by materialised tilings and a union-find per tiling.

This is the direct reading of the lattice-path theorem: list every tiling of
each side region, glue each plus tiling to each minus tiling, resolve nodes
into their crossing branches, and keep the glued pairs that form one
connected curve.  It is slow and memory-hungry, and serves only as the
oracle that `tropcurve.paths` is compared against.  Its triangle weights come
from `brute_triangle_weights`, which counts lattice points one by one and
shares no code with `tropcurve.geometry.triangle_weights`.  `join_totals`
glues two state maps by a union-find over every step, the reference for the
forest test in `tropcurve.paths`, `product` multiplies state maps as
dicts, the reference for its flat product, and `engine_states` reads a
division engine's map of a path in that dict form.
"""

from __future__ import annotations

from tropcurve.paths import SIDE_MINUS, SIDE_PLUS, PathDomain


def _orientation(p, q, r) -> int:
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def brute_triangle_weights(a, b, c) -> tuple[int, int]:
    """(normalized area, Welschinger factor) of a lattice triangle by counting.

    The factor is 0 for even area, else (-1) to the number of lattice points
    strictly inside, found by scanning the triangle's bounding box.
    """
    m = abs(_orientation(a, b, c))
    if m % 2 == 0:
        return m, 0
    interior = 0
    for x in range(min(a[0], b[0], c[0]), max(a[0], b[0], c[0]) + 1):
        for y in range(min(a[1], b[1], c[1]), max(a[1], b[1], c[1]) + 1):
            p = (x, y)
            sides = (_orientation(a, b, p), _orientation(b, c, p), _orientation(c, a, p))
            if min(sides) > 0 or max(sides) < 0:
                interior += 1
    return m, (-1) ** interior

# a tiling is a tuple of cells; a cell is a tuple of 3 (triangle) or 4
# (parallelogram a, b, c, a+c-b in boundary order) lattice points


class TilingOracle:
    """Every completion of every side region of one domain, memoized."""

    def __init__(self, domain: PathDomain):
        self.d = domain.d
        self.arcs = {SIDE_PLUS: domain.left_arc, SIDE_MINUS: domain.right_arc}
        self.signs = {SIDE_PLUS: 1, SIDE_MINUS: -1}
        self.tiling_cache: dict = {}

    def _divisible_corner(self, pts, side):
        sign = self.signs[side]
        for k in range(1, len(pts) - 1):
            a, b, c = pts[k - 1], pts[k], pts[k + 1]
            t = (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])
            if sign * t > 0:
                return k
        return None

    def tilings(self, pts, side):
        """All completions of the region between pts and the side's arc."""
        key = (pts, side)
        cached = self.tiling_cache.get(key)
        if cached is not None:
            return cached
        if pts == self.arcs[side]:
            result = ((),)
        else:
            j = self._divisible_corner(pts, side)
            if j is None:
                result = ()
            else:
                a, b, c = pts[j - 1], pts[j], pts[j + 1]
                out = [((a, b, c),) + rest for rest in self.tilings(pts[:j] + pts[j + 1 :], side)]
                vx, vy = a[0] + c[0] - b[0], a[1] + c[1] - b[1]
                if vx >= 0 and vy >= 0 and vx + vy <= self.d:
                    cell = (a, b, c, (vx, vy))
                    refl = pts[:j] + ((vx, vy),) + pts[j + 1 :]
                    out.extend((cell,) + rest for rest in self.tilings(refl, side))
                result = tuple(out)
        self.tiling_cache[key] = result
        return result

    @staticmethod
    def info(tiling):
        """(complex weight, Welschinger weight, segment -> component root).

        Every parallelogram is split into its two crossing branches: opposite
        sides belong to the same branch.
        """
        mu = nu = 1
        side_owner: dict = {}
        node_of_side: dict = {}
        node_count = 0
        for cell in tiling:
            if len(cell) == 3:
                a, b, c = cell
                m, fw = brute_triangle_weights(a, b, c)
                mu *= m
                nu *= fw
                sides = ((a, b), (b, c), (c, a))
                nodes = (node_count,) * 3
                node_count += 1
            else:
                a, b, c, v = cell
                sides = ((a, b), (c, v), (b, c), (v, a))
                nodes = (node_count, node_count, node_count + 1, node_count + 1)
                node_count += 2
            for (u, w), node in zip(sides, nodes):
                seg = (u, w) if u < w else (w, u)
                node_of_side[seg] = node
                side_owner.setdefault(seg, []).append(node)
        parent = list(range(node_count))
        for owners in side_owner.values():
            if len(owners) == 2:
                _union(parent, owners[0], owners[1])
        return mu, nu, {seg: _find(parent, node) for seg, node in node_of_side.items()}

    def multiplicity(self, path):
        """(mu+, mu-, nu+, nu-, mu, nu) of one validated path."""
        plus = self.tilings(path, SIDE_PLUS)
        minus = self.tilings(path, SIDE_MINUS)
        segs = [(u, w) if u < w else (w, u) for u, w in zip(path, path[1:])]

        def step_blocks(tiling):
            mu, nu, segment_root = self.info(tiling)
            blocks: dict = {}
            for k, seg in enumerate(segs):
                root = segment_root.get(seg)
                if root is not None:
                    blocks.setdefault(root, []).append(k)
            return mu, nu, list(blocks.values())

        plus_data = [step_blocks(t) for t in plus]
        minus_data = [step_blocks(t) for t in minus]
        total_mu = total_nu = 0
        for mu_p, nu_p, blocks_p in plus_data:
            for mu_m, nu_m, blocks_m in minus_data:
                parent = list(range(len(segs)))
                merged = len(segs)
                for block in blocks_p + blocks_m:
                    for k in block[1:]:
                        merged -= _union(parent, block[0], k)
                if merged == 1:
                    total_mu += mu_p * mu_m
                    total_nu += nu_p * nu_m
        return (
            sum(mu for mu, _, _ in plus_data),
            sum(mu for mu, _, _ in minus_data),
            sum(nu for _, nu, _ in plus_data),
            sum(nu for _, nu, _ in minus_data),
            total_mu,
            total_nu,
        )


class ForwardRecursion:
    """One side's state map of a whole path by the division recursion on points,
    memoized by whole sub-path: no split into pieces, no rank tables, and weights
    from `brute_triangle_weights`.  Labels are the arc's step indices, as in
    `tropcurve.paths`."""

    def __init__(self, domain: PathDomain, side):
        self.oracle = TilingOracle(domain)  # its corner rule and T_d test
        self.side = side
        self.arc = self.oracle.arcs[side]
        self.memo: dict = {self.arc: {tuple(range(len(self.arc) - 1)): (1, 1)}}

    def states(self, pts) -> dict:
        pts = tuple(pts)
        if pts in self.memo:
            return self.memo[pts]
        out: dict = {}
        j = self.oracle._divisible_corner(pts, self.side)
        if j is not None:
            a, b, c = pts[j - 1], pts[j], pts[j + 1]
            m, fw = brute_triangle_weights(a, b, c)
            for labels, (mu, nu) in self.states(pts[:j] + pts[j + 1 :]).items():
                out[labels[:j] + labels[j - 1 :]] = (m * mu, fw * nu)  # ab, bc take ac's
            v = (a[0] + c[0] - b[0], a[1] + c[1] - b[1])
            if min(v) >= 0 and sum(v) <= self.oracle.d:
                for labels, (mu, nu) in self.states(pts[:j] + (v,) + pts[j + 1 :]).items():
                    key = labels[: j - 1] + (labels[j], labels[j - 1]) + labels[j + 1 :]
                    old_mu, old_nu = out.get(key, (0, 0))  # ab ~ vc, bc ~ av
                    out[key] = (old_mu + mu, old_nu + nu)
        self.memo[pts] = out
        return out


def engine_states(engine, path) -> dict:
    """A division engine's map of a path as a dict, partition -> (complex, Welschinger)
    weight: the product of its pieces' maps, in the oracles' form."""
    keys, mus, nus = engine.product(path)
    return dict(zip(keys, zip(mus, nus)))


def product(maps) -> dict:
    """The state map of a run of pieces from theirs, as dicts: labels concatenated,
    weights multiplied."""
    out, *rest = maps
    for one in rest:
        out = {k + l: (m * n, w * x) for k, (m, w) in out.items() for l, (n, x) in one.items()}
    return out


def joined(plus, minus) -> bool:
    """Whether the join of two step partitions is a single block, by a
    union-find over every step of both (one node per block of each)."""
    offset = max(plus) + 1
    parent = list(range(offset + max(minus) + 1))
    merged = len(parent)
    for x, y in zip(plus, minus):
        merged -= _union(parent, x, y + offset)
    return merged == 1


def join_totals(plus, minus) -> tuple[int, int]:
    """(complex, Welschinger) sums over the pairs of two state maps whose join
    is a single block."""
    total_mu = total_nu = 0
    for labels_p, (mu_p, nu_p) in plus.items():
        for labels_m, (mu_m, nu_m) in minus.items():
            if joined(labels_p, labels_m):
                total_mu += mu_p * mu_m
                total_nu += nu_p * nu_m
    return total_mu, total_nu


def union_merges(ends) -> int:
    """How many merges a union-find with path halving makes along the pairs
    ends[0:2], ends[2:4], ... of block labels."""
    parent = list(range(max(ends) + 1))
    return sum(_union(parent, x, y) for x, y in zip(ends[::2], ends[1::2]))


def _find(parent, x):
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _union(parent, x, y) -> int:
    """Merge the classes of x and y; 1 if they were apart, else 0."""
    rx, ry = _find(parent, x), _find(parent, y)
    if rx == ry:
        return 0
    parent[rx] = ry
    return 1
