"""Acceptance suite: every criterion asserted at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  All numeric checks are exact (zero tolerance); the two timing
gates are wall-clock budgets.
"""

import json
import math
import random
import time
from fractions import Fraction

from tropcurve import (
    TropicalPolynomial,
    build_table,
    check_balancing,
    cli,
    count_both,
    degree,
    enumerate_paths,
    extract_curve,
    first_betti,
    km_count,
    membership_oracle,
    parse_expression,
    path_domain,
    point_on_curve,
    welschinger_sign,
)
from tropcurve.document import curve_document, write_document
from tropcurve.paths import ORDER_ROWMAJOR, ORDER_XEY

from subdivision_oracle import normalized_area


def _report(number: int, ok: bool, description: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def concave_poly(d):
    return TropicalPolynomial(
        [((i, j), Fraction(-(i * i + i * j + j * j))) for i in range(d + 1) for j in range(d + 1 - i)]
    )


def test_criterion_01_km_recursion():
    start = time.perf_counter()
    values = [km_count(d) for d in (1, 2, 3, 4)]
    elapsed = time.perf_counter() - start
    ok = values == [1, 1, 12, 620] and elapsed < 1.0
    _report(1, ok, f"recursion gives {values} in {elapsed:.3f}s (< 1s)")


def test_criterion_02_oracle_equivalence():
    start = time.perf_counter()
    pairs = [(count_both(d, ORDER_XEY)[0], km_count(d)) for d in (1, 2, 3, 4, 5)]
    elapsed = time.perf_counter() - start
    ok = all(a == b for a, b in pairs) and elapsed < 60.0
    _report(
        2,
        ok,
        f"paths vs recursion for d=1..5: {[a for a, _ in pairs]} in {elapsed:.1f}s (< 60s)",
    )


def test_criterion_03_welschinger_values():
    values = [count_both(d)[1] for d in (1, 2, 3)]
    ok = values == [1, 1, 8]
    _report(3, ok, f"Welschinger invariants W_1..W_3 = {values}")


def test_criterion_04_bounds():
    ok = True
    details = []
    for row in build_table(5):
        d, n, w = row.d, row.n_paths, row.w
        dominance = w <= n
        parity = (n - w) % 2 == 0
        ok = ok and row.bound_ok and dominance and parity
        details.append(f"d={d}: 3*{w}>={math.factorial(d)}, {w}<={n}, parity")
    _report(4, ok, "; ".join(details))


def test_criterion_05_order_invariance():
    ok = True
    for d in (1, 2, 3, 4):
        ok = ok and count_both(d, ORDER_XEY) == count_both(d, ORDER_ROWMAJOR)
    _report(5, ok, "counts agree between xey and rowmajor orders for d=1..4")


def test_criterion_06_path_census():
    expected = [1, 1, 8, 286, 27132, 5311735]
    start = time.perf_counter()
    census = [sum(1 for _ in enumerate_paths(path_domain(d))) for d in (1, 2, 3, 4, 5, 6)]
    elapsed = time.perf_counter() - start
    formula = [
        math.comb((d + 1) * (d + 2) // 2 - 2, 3 * d - 2) for d in (1, 2, 3, 4, 5, 6)
    ]
    ok = census == expected == formula and elapsed < 60.0
    _report(6, ok, f"census {census} (formula matches) in {elapsed:.1f}s (< 60s)")


def test_criterion_07_curve_engine_random():
    rng = random.Random(777)
    corners = {(0, 0), (4, 0), (0, 4)}
    others = [(i, j) for i in range(5) for j in range(5 - i) if (i, j) not in corners]
    polys_checked = 0
    points_checked = 0
    ok = True
    for _ in range(50):
        support = sorted(corners | {p for p in others if rng.random() < 0.55})
        poly = TropicalPolynomial(
            [(p, Fraction(rng.randint(-40, 40), rng.randint(1, 6))) for p in support]
        )
        curve = extract_curve(poly)
        if check_balancing(curve):
            ok = False
            break
        total = sum(abs(normalized_area(list(c))) for c in curve.cells)
        if total != 16:  # twice the Euclidean area 8 = d^2/2
            ok = False
            break
        samples = []
        objects = list(curve.bounded_edges) + list(curve.rays)
        k = 0
        while len(samples) < 500:
            obj = objects[k % len(objects)]
            t = Fraction((k % 11) + 1, 13)
            if hasattr(obj, "direction"):
                base = curve.vertices[obj.vertex]
                samples.append(
                    (base.x + 3 * t * obj.direction[0], base.y + 3 * t * obj.direction[1])
                )
            else:
                a = curve.vertices[obj.v1]
                b = curve.vertices[obj.v2]
                samples.append((a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)))
            k += 1
        while len(samples) < 1000:
            samples.append(
                (
                    Fraction(rng.randint(-60, 60), rng.randint(1, 6)),
                    Fraction(rng.randint(-60, 60), rng.randint(1, 6)),
                )
            )
        for p in samples:
            if membership_oracle(poly, p) != point_on_curve(curve, p):
                ok = False
                break
        if not ok:
            break
        polys_checked += 1
        points_checked += len(samples)
    ok = ok and polys_checked == 50
    _report(
        7,
        ok,
        f"{polys_checked} random quartic supports: balanced, cell areas sum to 8, "
        f"membership agreement on {points_checked} exact points",
    )


def test_criterion_08_figure_reproduction():
    line = extract_curve(parse_expression("max(0, x, y)"))
    conic = extract_curve(concave_poly(2))
    cubic = extract_curve(concave_poly(3))
    degrees = (degree(line), degree(conic), degree(cubic))
    ok = (
        degrees == (1, 2, 3)
        and len(conic.vertices) == 4
        and first_betti(cubic) == 1
        and welschinger_sign(line) == 1
    )
    _report(
        8,
        ok,
        f"line/conic/cubic degrees {degrees}, cubic betti1=1 and not rational, "
        "line sign +1",
    )


def test_criterion_09_shell(tmp_path, capsys):
    line_doc = curve_document(extract_curve(parse_expression("max(0, x, y)")))
    text = write_document(line_doc)
    round_trip = write_document(json.loads(text)) == text
    stable = write_document(line_doc) == text

    code_count = cli.main(["count", "-d", "3", "--method", "both"])
    out_count = capsys.readouterr().out.strip()

    code_report = cli.main(["report", "--max", "5"])
    report_out = capsys.readouterr().out
    report_clean = "FAIL" not in report_out

    code_bad = cli.main(["curve", "--expr", "max()"])
    capsys.readouterr()

    ok = (
        round_trip
        and stable
        and code_count == 0
        and out_count == "12 12"
        and code_report == 0
        and report_clean
        and code_bad == 1
    )
    _report(
        9,
        ok,
        f"JSON byte-stable round trip; count both -> '{out_count}' exit {code_count}; "
        f"report --max 5 exit {code_report}; malformed expression exit {code_bad}",
    )


def test_criterion_10_asymptotics_reported_not_asserted():
    from tropcurve import asymptotic_report, build_table

    rows = asymptotic_report(build_table(5))
    for row in rows:
        gap = "" if row.real_gap_per_d is None else f" (logN-logW)/d={row.real_gap_per_d:.4f}"
        print(
            f"    d={row.d}: logN={row.log_n:.4f} vs 3dlogd={row.three_d_log_d:.4f} "
            f"gap/d={row.gap_per_d:.4f}{gap}"
        )
    ok = len(rows) == 5 and all(math.isfinite(r.log_n) for r in rows)
    _report(
        10,
        ok,
        "asymptotic comparisons reported for d=1..5 (not asserted); "
        "configuration-independence outside quantitative scope",
    )
