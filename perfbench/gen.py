"""Seeded input generators.

Each function writes one input set into a directory and returns its spec,
the JSON description the worker reads.  The same (seed, index) always gives
the same files.  `count-d5` and `paths-d5` take no input files: their only
input is the degree, so they do not depend on the seed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

FULL = {"degree": 5, "lifts": ((14, "concave"), (12, "random"), (14, "random")),
        "quartics": 20, "points": 1000}
SMOKE = {"degree": 3, "lifts": ((4, "concave"), (3, "random"), (4, "random")),
         "quartics": 3, "points": 20}

WIDE = 10**6  # numerator range of the random lifts' coefficients


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _table(terms) -> str:
    return "".join(f"{i} {j} {c}\n" for (i, j), c in sorted(terms.items()))


def _triangle(d: int):
    return [(i, j) for i in range(d + 1) for j in range(d + 1 - i)]


def concave_lift(d: int, rng: random.Random) -> dict:
    """Strictly concave lift plus a seeded affine shift: d*d unit triangles."""
    a = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
    b = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
    return {(i, j): -(i * i + i * j + j * j) + a * i + b * j for i, j in _triangle(d)}


def random_lift(d: int, rng: random.Random) -> dict:
    """Full support of T_d with wide random heights: a few coarse cells."""
    return {p: Fraction(rng.randint(-WIDE, WIDE), rng.randint(1, 9)) for p in _triangle(d)}


def random_quartic(rng: random.Random) -> dict:
    """Random support in T_4 (corners kept) with small random coefficients."""
    corners = {(0, 0), (4, 0), (0, 4)}
    others = [p for p in _triangle(4) if p not in corners]
    support = sorted(corners | {p for p in others if rng.random() < 0.55})
    return {p: Fraction(rng.randint(-40, 40), rng.randint(1, 6)) for p in support}


def curve_lift_set(out: Path, seed: int, index: int, sizes: dict) -> dict:
    rng = _rng("curve-lift", seed, index)
    lifts = []
    for k, (d, kind) in enumerate(sizes["lifts"]):
        terms = concave_lift(d, rng) if kind == "concave" else random_lift(d, rng)
        path = out / f"lift{k}.txt"
        path.write_text(_table(terms), encoding="utf-8")
        lifts.append({"poly": path.name, "degree": d, "kind": kind})
    return {"workload": "curve-lift", "seed": seed, "index": index, "lifts": lifts}


def _breakpoints(terms: dict, t: Fraction, axis: int) -> list:
    """Exact points of the tropical curve on the line x = t (axis 0) or y = t.

    Along the line the max is an upper envelope of lines s -> m*s + b, one per
    slope; its breakpoints are exactly where two terms tie at the maximum.
    """
    lines: dict[int, Fraction] = {}
    for (i, j), c in terms.items():
        m, b = (j, c + i * t) if axis == 0 else (i, c + j * t)
        if m not in lines or b > lines[m]:
            lines[m] = b
    hull: list[tuple[int, Fraction]] = []
    for m, b in sorted(lines.items()):
        # drop the last line while the new one overtakes hull[-2] no later than it does
        while len(hull) >= 2 and (hull[-2][1] - b) * (hull[-1][0] - hull[-2][0]) <= (
            hull[-2][1] - hull[-1][1]
        ) * (m - hull[-2][0]):
            hull.pop()
        hull.append((m, b))
    points = []
    for (m1, b1), (m2, b2) in zip(hull, hull[1:]):
        s = (b1 - b2) / (m2 - m1)
        points.append((t, s) if axis == 0 else (s, t))
    return points


def _coordinate(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-60, 60), rng.randint(1, 6))


def membership_set(out: Path, seed: int, index: int, sizes: dict) -> dict:
    """Quartics with points: the first half on the curve, the rest random.

    Points on the curve are breakpoints of the max along random horizontal
    and vertical lines, found without the program under test.
    """
    rng = _rng("membership", seed, index)
    quartics = []
    for k in range(sizes["quartics"]):
        terms = random_quartic(rng)
        half = sizes["points"] // 2
        points = []
        while len(points) < half:
            points += _breakpoints(terms, _coordinate(rng), rng.randrange(2))
        points = points[:half] + [
            (_coordinate(rng), _coordinate(rng)) for _ in range(sizes["points"] - half)
        ]
        poly_path = out / f"q{k}.txt"
        points_path = out / f"q{k}.pts"
        poly_path.write_text(_table(terms), encoding="utf-8")
        points_path.write_text("".join(f"{x} {y}\n" for x, y in points), encoding="utf-8")
        quartics.append({"poly": poly_path.name, "points": points_path.name, "on_curve": half})
    return {"workload": "membership", "seed": seed, "index": index, "quartics": quartics}


def degree_set(workload: str, seed: int, sizes: dict) -> dict:
    return {"workload": workload, "seed": seed, "index": 0, "degree": sizes["degree"]}
