"""One pass of one benchmark workload, in a fresh process.

    python3 perfbench/worker.py SPEC.json [--trace SPANS.json]

SPEC.json is an input set written by gen.py; its file names are relative to
the spec's directory.  tropcurve must be importable (run.py puts the
checkout's src/ on PYTHONPATH).  The worker imports the program, loads the
inputs, then times the pass from the first call into the program to the
verified result, and prints one JSON line:

    {"t_ready": <time.monotonic() once the inputs are loaded>,
     "wall_s": ..., "ref_s": ..., "problems": [...], "counts": {...},
     "layers": {...}}

ref_s is the mean time of reference() just before and just after the pass.

With --trace, spans are recorded around the calls into tropcurve's public
functions, written to SPANS.json, and summarised per span name in "layers";
the count workload is then replayed stage by stage instead of through
`count`.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from fractions import Fraction
from math import comb
from pathlib import Path

import oracles
from spans import Tracer

from tropcurve import cli, curve, document, invariants, paths, polynomial


def instrument(tr: Tracer) -> None:
    """Put spans around every public function the workloads call."""
    tr.wrap(cli, "main", "cli.main")
    tr.wrap(cli, "km_count", "invariants.km_count")
    tr.wrap(invariants, "km_count", "invariants.km_count")
    tr.wrap(cli, "parse_term_table", "polynomial.parse_term_table")
    tr.wrap(polynomial, "parse_term_table", "polynomial.parse_term_table")
    tr.wrap(polynomial.TropicalPolynomial, "argmax_terms", "polynomial.argmax_terms")
    tr.wrap(cli, "curve_document", "document.curve_document")
    tr.wrap(cli, "write_document", "document.write_document")
    tr.wrap(cli, "render_svg", "svgout.render_svg")
    tr.wrap(document, "curve_stats", "curve.curve_stats")
    for name in ("extract_curve", "dual_subdivision", "check_balancing", "point_on_curve"):
        tr.wrap(curve, name, f"curve.{name}")
    tr.wrap_iter(paths, "enumerate_paths", "paths.enumerate_paths")
    for name in ("side_multiplicity", "path_multiplicity"):
        tr.wrap(paths, name, f"paths.{name}")


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


# --- passes: each returns (problems, counts) --------------------------------


def count_pass(spec, inputs, tr):
    d = spec["degree"]
    if tr is None:
        code, out = run_cli(["count", "-d", str(d), "--method", "both"])
        return [f"exit {code}"] * (code != 0) + oracles.check_count(out, d), {}
    return count_replay(d)


def count_replay(d):
    """`count -d D --method both`, stage by stage through the public API."""
    domain = paths.path_domain(d)
    every = list(paths.enumerate_paths(domain))
    live = [
        path for path in every
        if paths.side_multiplicity(path, domain, paths.SIDE_PLUS, paths.KIND_COMPLEX)
        and paths.side_multiplicity(path, domain, paths.SIDE_MINUS, paths.KIND_COMPLEX)
    ]
    mu = nu = excess = 0
    for path in live:
        m = paths.path_multiplicity(path, domain)
        mu += m.complex_total
        nu += m.welschinger_total
        excess += m.complex_plus * m.complex_minus - m.complex_total
    n_rec = invariants.km_count(d)
    counts = {
        "paths.enumerated": len(every),
        "paths.live": len(live),
        "paths.live_ratio": len(live) / len(every),
        "paths.reducible_units": excess,
    }
    expected = {
        "N_d (paths)": (mu, oracles.km(d)),
        "N_d (recursion)": (n_rec, oracles.km(d)),
        "W_d": (nu, oracles.WELSCHINGER[d]),
        "census": (len(every), oracles.census(d)),
        "live paths": (len(live), oracles.LIVE_PATHS[d]),
        "reducible excess": (excess, oracles.reducible_excess(d)),
    }
    problems = [f"{k}: got {got}, want {want}" for k, (got, want) in expected.items() if got != want]
    return problems, counts


def paths_pass(spec, inputs, tr):
    d = spec["degree"]
    code, out = run_cli(["paths", "-d", str(d), "--nonzero-only"])
    return [f"exit {code}"] * (code != 0) + oracles.check_paths(out, d), {}


def curve_lift_pass(spec, inputs, tr):
    problems = []
    counts = {"curve.terms": 0, "curve.cells": 0, "curve.triples": 0}
    for lift, (poly_path, terms) in zip(spec["lifts"], inputs):
        json_path = poly_path.with_suffix(".json")
        svg_path = poly_path.with_suffix(".svg")
        code, _ = run_cli(["curve", "--poly", str(poly_path),
                           "--json", str(json_path), "--svg", str(svg_path)])
        if code != 0:
            problems.append(f"{poly_path.name}: exit {code}")
            continue
        doc = json.loads(json_path.read_text(encoding="utf-8"))
        found = oracles.check_curve(doc, terms, lift["degree"])
        if not svg_path.read_text(encoding="utf-8").startswith("<svg"):
            found.append("svg output does not start with <svg")
        problems += [f"{poly_path.name}: {p}" for p in found]
        counts["curve.terms"] += len(terms)
        counts["curve.cells"] += len(doc["vertices"])
        counts["curve.triples"] += comb(len(terms), 3)
    return problems, counts


def membership_pass(spec, inputs, tr):
    problems = []
    n_points = on_curve = agree = 0
    for q, (text, points) in zip(spec["quartics"], inputs):
        poly = polynomial.parse_term_table(text)
        extracted = curve.extract_curve(poly)
        for k, p in enumerate(points):
            by_argmax = curve.membership_oracle(poly, p)
            by_edges = curve.point_on_curve(extracted, p)
            n_points += 1
            agree += by_argmax == by_edges
            on_curve += by_argmax and by_edges
            if by_argmax != by_edges or (k < q["on_curve"] and not by_argmax):
                problems.append(f"{q['poly']}: point {p} argmax={by_argmax} edges={by_edges}")
    counts = {"query.points": n_points, "query.on_curve": on_curve, "query.agree": agree}
    return problems[:5], counts


def load(spec, base: Path):
    """Inputs read before timing starts: term tables for the oracle, points."""
    if spec["workload"] == "curve-lift":
        return [
            (base / lift["poly"], oracles.parse_terms((base / lift["poly"]).read_text(encoding="utf-8")))
            for lift in spec["lifts"]
        ]
    if spec["workload"] == "membership":
        out = []
        for q in spec["quartics"]:
            text = (base / q["poly"]).read_text(encoding="utf-8")
            lines = (base / q["points"]).read_text(encoding="utf-8").splitlines()
            out.append((text, [tuple(Fraction(v) for v in line.split()) for line in lines]))
        return out
    return None


PASSES = {
    "count-d5": count_pass,
    "paths-d5": paths_pass,
    "curve-lift": curve_lift_pass,
    "membership": membership_pass,
}


def reference() -> float:
    """Seconds taken by a fixed pure-Python kernel: dict, tuple, int and
    Fraction work, like the program's own.  Timed just before and just after
    each pass, it measures how fast the machine runs at that moment."""
    start = time.perf_counter()
    table: dict = {}
    acc = Fraction(0)
    for i in range(60000):
        key = (i % 97, i % 89)  # a small table, so peak RSS stays the program's
        table[key] = table.get(key, 0) + i * i % 7
        if i % 4 == 0:
            acc += Fraction(i % 13, 7 + i % 5)
    for value in table.values():
        acc += value
    return time.perf_counter() - start


def main(argv: list[str]) -> int:
    spec_path = Path(argv[0])
    spans_path = argv[2] if len(argv) > 2 and argv[1] == "--trace" else None
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    inputs = load(spec, spec_path.parent)
    tr = None
    if spans_path:
        tr = Tracer(f"{spec['workload']}:{spec['seed']}:{spec['index']}")
        instrument(tr)
    t_ready = time.monotonic()
    before = reference()
    start = time.perf_counter()
    problems, counts = PASSES[spec["workload"]](spec, inputs, tr)
    wall = time.perf_counter() - start
    ref = (before + reference()) / 2
    layers = {}
    if tr is not None:
        tr.write(spans_path)
        layers = tr.summary()
    print(json.dumps({"t_ready": t_ready, "wall_s": wall, "ref_s": ref, "problems": problems,
                      "counts": counts, "layers": layers}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
