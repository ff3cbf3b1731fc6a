"""Triple-scan regular subdivision, kept as an oracle for the hull walk, and
the shoelace area that checks cells add up to their Newton polygon.

Every affinely independent triple of support points spans a candidate facet
plane of the lifted point set; the triple lies on an upper facet exactly when
no lifted point is above that plane.  The facet's cell is the full set of
support points on the plane.  This costs O(n^4) integer sign checks, so it is
only run on small supports.
"""

from __future__ import annotations

from tropcurve.geometry import convex_hull


def triple_scan_cells(poly):
    """Cells of the regular subdivision, ordered and shaped as in
    `dual_subdivision(poly)`."""
    support = poly.support
    lift = {(i, j): z for i, j, z in poly.integer_lift}
    n = len(support)
    cell_sets = set()
    for ia in range(n):
        pa = support[ia]
        za = lift[pa]
        for ib in range(ia + 1, n):
            pb = support[ib]
            ux, uy, uz = pb[0] - pa[0], pb[1] - pa[1], lift[pb] - za
            for ic in range(ib + 1, n):
                pc = support[ic]
                vx, vy, vz = pc[0] - pa[0], pc[1] - pa[1], lift[pc] - za
                nz = ux * vy - uy * vx
                if nz == 0:
                    continue
                nx = uy * vz - uz * vy
                ny = uz * vx - ux * vz
                if nz < 0:
                    nx, ny, nz = -nx, -ny, -nz
                members = []
                upper = True
                for s in support:
                    e = nx * (s[0] - pa[0]) + ny * (s[1] - pa[1]) + nz * (lift[s] - za)
                    if e > 0:
                        upper = False
                        break
                    if e == 0:
                        members.append(s)
                if upper:
                    cell_sets.add(frozenset(members))
    return tuple(tuple(convex_hull(sorted(s))) for s in sorted(cell_sets, key=sorted))


def normalized_area(polygon):
    """Twice the Euclidean area of a lattice polygon (shoelace, CCW positive)."""
    total = 0
    n = len(polygon)
    for k in range(n):
        a = polygon[k]
        b = polygon[(k + 1) % n]
        total += a[0] * b[1] - a[1] * b[0]
    return total
