"""Curve counts by recursion, invariant tables, and bound checks.

The count of rational degree-d plane curves through 3d - 1 generic points
satisfies, for d >= 2,

    N_d = sum over a + b = d (a, b >= 1) of
          N_a * N_b * (a^2 b^2 C(3d-4, 3a-2) - a^3 b C(3d-4, 3a-1)),

with N_1 = 1.  The sum runs over ordered pairs; the two orders of a split
contribute differently.  This recursion is the independent cross-check for
the lattice-path totals, and everything here is exact integer arithmetic.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import CrossCheckMismatchError
from .paths import ORDER_XEY, PATH_COUNTER, RECURSION, check_degree, count_both


def km_count(d: int) -> int:
    """Rational plane curve count N_d by the Kontsevich-Manin recursion, bottom-up.

    BadDegreeError past `paths.MAX_DEGREE[RECURSION]`, from the degree alone:
    the big-integer products make a far degree hang."""
    check_degree(d, RECURSION)
    n = [0, 1]  # n[e] = N_e
    for e in range(2, d + 1):
        total = 0
        for a in range(1, e):
            b = e - a
            # 1 <= 3a - 2 < 3a - 1 <= 3e - 4: no binomial falls outside its range
            term = a * a * b * b * math.comb(3 * e - 4, 3 * a - 2)
            term -= a * a * a * b * math.comb(3 * e - 4, 3 * a - 1)
            total += n[a] * n[b] * term
        n.append(total)
    return n[d]


class TableRow(NamedTuple):
    d: int
    n_paths: int
    n_recursion: int
    w: int
    bound_ok: bool
    dominance_ok: bool
    parity_ok: bool


def build_table(dmax: int, order: str = ORDER_XEY) -> tuple[TableRow, ...]:
    """Per-degree rows, d = 1..dmax, of counts from both methods with consistency flags.

    Fails fast with CrossCheckMismatchError when the path total and the
    recursion disagree; that is an internal error, never a data condition.
    dmax is checked before any row is computed.  bound_ok is the real-count
    lower bound 3 W_d >= d!.
    """
    check_degree(dmax, PATH_COUNTER)
    rows = []
    for d in range(1, dmax + 1):
        n_paths, w = count_both(d, order)
        n_rec = km_count(d)
        if n_paths != n_rec:
            raise CrossCheckMismatchError(
                f"d={d}: paths give {n_paths}, recursion gives {n_rec}"
            )
        rows.append(
            TableRow(
                d=d,
                n_paths=n_paths,
                n_recursion=n_rec,
                w=w,
                bound_ok=3 * w >= math.factorial(d),
                dominance_ok=w <= n_paths,
                parity_ok=(w - n_paths) % 2 == 0,
            )
        )
    return tuple(rows)


class AsymptoticRow(NamedTuple):
    d: int
    log_n: float
    three_d_log_d: float
    gap_per_d: float
    real_gap_per_d: float | None


def asymptotic_report(table: tuple[TableRow, ...]) -> list[AsymptoticRow]:
    """log N_d against 3d log d, and (log N_d - log W_d)/d where W_d > 0.

    Display-only floats; the core values stay exact in the table.
    """
    report = []
    for row in table:
        log_n = math.log(row.n_paths)
        reference = 3 * row.d * math.log(row.d) if row.d > 1 else 0.0
        real_gap = None
        if row.w > 0:
            real_gap = (log_n - math.log(row.w)) / row.d
        report.append(
            AsymptoticRow(
                d=row.d,
                log_n=log_n,
                three_d_log_d=reference,
                gap_per_d=(log_n - reference) / row.d,
                real_gap_per_d=real_gap,
            )
        )
    return report
