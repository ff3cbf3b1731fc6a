"""Independent answers that every benchmark output is checked against.

Nothing here imports tropcurve: the counts come from closed forms, the
Kontsevich-Manin recursion written out again, and constants recorded from
the literature, and curve documents are checked with plain Fraction
arithmetic on the input term table.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd

# Welschinger invariants W_d (Itenberg-Kharlamov-Shustin).
WELSCHINGER = {1: 1, 2: 1, 3: 8, 4: 240, 5: 18264}

# Rows printed by `paths -d D --nonzero-only`, and paths live on both sides.
# Neither has a closed form; both are recorded constants that must repeat.
NONZERO_ROWS = {3: 5, 4: 58, 5: 1197}
LIVE_PATHS = {3: 5, 4: 63, 5: 1432}

PATHS_HEADER = "# path  mu+ mu- mu nu"


@lru_cache(maxsize=None)
def km(d: int) -> int:
    """N_d by the Kontsevich-Manin recursion."""
    if d == 1:
        return 1
    total = 0
    for a in range(1, d):
        b = d - a
        total += km(a) * km(b) * (
            a * a * b * b * comb(3 * d - 4, 3 * a - 2)
            - a**3 * b * comb(3 * d - 4, 3 * a - 1)
        )
    return total


def census(d: int) -> int:
    """Number of increasing lattice paths with 3d - 1 steps in T_d."""
    return comb((d + 1) * (d + 2) // 2 - 2, 3 * d - 2)


def two_nodal(d: int) -> int:
    """Severi degree N^{d,2} (Kleiman-Piene node polynomial)."""
    return 3 * (d - 1) * (d - 2) * (3 * d * d - 3 * d - 11) // 2


def reducible_excess(d: int) -> int:
    """Unfiltered glued total minus N_d: the reducible degenerations.

    d = 4: a line through 2 of the 11 points and the cubic through the other 9.
    d = 5: a line and a 2-nodal quartic, or a conic and a cubic.
    """
    return {
        1: 0,
        2: 0,
        3: 0,
        4: comb(11, 2),
        5: comb(14, 2) * two_nodal(4) + comb(14, 5),
    }[d]


def check_count(stdout: str, d: int) -> list[str]:
    expected = f"{km(d)} {km(d)}\n"
    return [] if stdout == expected else [f"count printed {stdout!r}, want {expected!r}"]


def _xey_rank(pt: tuple[int, int]) -> tuple[int, int]:
    return (pt[0], -pt[1])


def check_paths(stdout: str, d: int) -> list[str]:
    """Check a `paths -d D --nonzero-only` listing row by row."""
    lines = stdout.splitlines()
    want_total = f"# total mu={km(d)} nu={WELSCHINGER[d]}"
    if len(lines) < 2 or lines[0] != PATHS_HEADER or lines[-1] != want_total:
        return [f"paths listing frame wrong: {lines[:1]} ... {lines[-1:]}"]
    rows = lines[1:-1]
    problems = []
    if len(rows) != NONZERO_ROWS[d]:
        problems.append(f"{len(rows)} rows, want {NONZERO_ROWS[d]}")
    sum_mu = sum_nu = 0
    for row in rows:
        path_text, values = row.split("  ")
        mu_p, mu_m, mu, nu = (int(v) for v in values.split())
        pts = [tuple(int(c) for c in v.strip("()").split(",")) for v in path_text.split("->")]
        ranks = [_xey_rank(p) for p in pts]
        ok = (
            len(pts) == 3 * d
            and pts[0] == (0, d)
            and pts[-1] == (d, 0)
            and all(x >= 0 and y >= 0 and x + y <= d for x, y in pts)
            and all(a < b for a, b in zip(ranks, ranks[1:]))
            and 0 < mu <= mu_p * mu_m
            and abs(nu) <= mu
            and (mu - nu) % 2 == 0
        )
        if not ok:
            problems.append(f"bad row {row!r}")
            break
        sum_mu += mu
        sum_nu += nu
    if (sum_mu, sum_nu) != (km(d), WELSCHINGER[d]):
        problems.append(f"rows sum to mu={sum_mu} nu={sum_nu}")
    return problems


def parse_terms(text: str) -> dict[tuple[int, int], Fraction]:
    terms = {}
    for line in text.splitlines():
        i, j, c = line.split()
        terms[(int(i), int(j))] = Fraction(c)
    return terms


def argmax(terms: dict[tuple[int, int], Fraction], x: Fraction, y: Fraction) -> set:
    values = {p: c + p[0] * x + p[1] * y for p, c in terms.items()}
    best = max(values.values())
    return {p for p, v in values.items() if v == best}


def _turn(a, b, c) -> int:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _in_polygon(p, polygon) -> bool:
    """Closed containment in a counterclockwise convex polygon."""
    k = len(polygon)
    return all(_turn(polygon[t], polygon[(t + 1) % k], p) >= 0 for t in range(k))


def _primitive(dx: Fraction, dy: Fraction) -> tuple[int, int]:
    scale = dx.denominator * dy.denominator
    ix, iy = int(dx * scale), int(dy * scale)
    g = gcd(ix, iy)
    return ix // g, iy // g


def check_curve(doc: dict, terms: dict[tuple[int, int], Fraction], d: int) -> list[str]:
    """Degree, balancing, cell area and argmax-cell checks on a curve document."""
    problems = []
    if doc["degree"] != d:
        problems.append(f"degree {doc['degree']}, want {d}")
    vertices = [(Fraction(v["x"]), Fraction(v["y"])) for v in doc["vertices"]]
    cells = [[tuple(p) for p in v["dual_cell"]] for v in doc["vertices"]]

    area = 0
    for cell in cells:
        area += sum(_turn(cell[0], cell[t], cell[t + 1]) for t in range(1, len(cell) - 1))
    if area != d * d:
        problems.append(f"cell areas sum to {area}, want {d * d}")

    for (x, y), cell in zip(vertices, cells):
        winners = argmax(terms, x, y)
        if not set(cell) <= winners or not all(_in_polygon(p, cell) for p in winners):
            problems.append(f"argmax at ({x}, {y}) is not the dual cell {cell}")
            break

    balance = [[0, 0] for _ in vertices]
    for e in doc["edges"]:
        (x1, y1), (x2, y2) = vertices[e["from"]], vertices[e["to"]]
        ux, uy = _primitive(x2 - x1, y2 - y1)
        for v, sign in ((e["from"], 1), (e["to"], -1)):
            balance[v][0] += sign * e["weight"] * ux
            balance[v][1] += sign * e["weight"] * uy
    rays = {(-1, 0): 0, (0, -1): 0, (1, 1): 0}
    for r in doc["rays"]:
        direction = tuple(r["dir"])
        if direction not in rays:
            problems.append(f"ray in direction {direction}")
            continue
        rays[direction] += r["weight"]
        balance[r["vertex"]][0] += r["weight"] * direction[0]
        balance[r["vertex"]][1] += r["weight"] * direction[1]
    if any(b != [0, 0] for b in balance):
        problems.append("curve is not balanced")
    if set(rays.values()) != {d}:
        problems.append(f"ray weights per direction {rays}, want {d} each")
    return problems
