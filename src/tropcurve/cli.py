"""Command line interface.

Commands: curve, count, welschinger, paths, report.
Exit codes: 0 success, 1 user error, 2 internal consistency failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import curve as curvemod
from . import paths as pathsmod
from .document import curve_document, write_document
from .errors import CrossCheckMismatchError, ParseError, TropcurveError
from .invariants import asymptotic_report, build_table, km_count
from .polynomial import parse_expression, parse_term_table
from .svgout import render_svg

EXIT_OK = 0
EXIT_USER = 1
EXIT_INTERNAL = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tropcurve",
        description="Exact tropical plane curves and enumerative invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_lambda(p):
        p.add_argument(
            "--lambda",
            dest="lambda_order",
            choices=[pathsmod.ORDER_XEY, pathsmod.ORDER_ROWMAJOR],
            default=pathsmod.ORDER_XEY,
            help="point order preset for path enumeration (default: xey)",
        )

    p_curve = sub.add_parser("curve", help="extract a tropical curve and emit JSON/SVG")
    group = p_curve.add_mutually_exclusive_group(required=True)
    group.add_argument("--expr", help="expression like 'max(0, x, y)'")
    group.add_argument("--poly", help="path to a term-table file")
    p_curve.add_argument("--json", dest="json_path", help="write curve JSON here")
    p_curve.add_argument("--svg", dest="svg_path", help="write curve SVG here")

    p_count = sub.add_parser("count", help="rational curve count N_d")
    p_count.add_argument("-d", "--degree", type=int, required=True)
    p_count.add_argument(
        "--method",
        choices=["paths", "recursion", "both"],
        default="both",
    )
    add_lambda(p_count)

    p_w = sub.add_parser("welschinger", help="Welschinger invariant W_d")
    p_w.add_argument("-d", "--degree", type=int, required=True)
    add_lambda(p_w)

    p_paths = sub.add_parser("paths", help="list lattice paths with multiplicities")
    p_paths.add_argument("-d", "--degree", type=int, required=True)
    p_paths.add_argument("--nonzero-only", action="store_true")
    add_lambda(p_paths)

    p_report = sub.add_parser("report", help="invariant table and asymptotics")
    p_report.add_argument("--max", dest="dmax", type=int, required=True)
    add_lambda(p_report)

    return parser


def _load_polynomial(args):
    if args.expr is not None:
        return parse_expression(args.expr)
    try:
        text = Path(args.poly).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{args.poly}: not UTF-8 text (byte {exc.start})") from None
    return parse_term_table(text)


def cmd_curve(args) -> None:
    poly = _load_polynomial(args)
    curve = curvemod.extract_curve(poly)
    violations = curvemod.check_balancing(curve)
    if violations:
        raise CrossCheckMismatchError(f"balancing violated at vertices {violations}")
    try:
        doc = curve_document(curve)
        text = write_document(doc)
    except ValueError:  # the JSON keeps exact values: an int past CPython's int-to-str digit limit
        limit = f"the int-to-str digit limit ({sys.get_int_max_str_digits()} digits)"
        raise TropcurveError(f"a number in the curve is past {limit}, so no JSON can write it") from None
    svg = render_svg(doc) if args.svg_path else None  # a refused SVG leaves no JSON file behind
    if args.json_path:
        Path(args.json_path).write_text(text, encoding="utf-8")
    if args.svg_path:
        Path(args.svg_path).write_text(svg, encoding="utf-8")
    if not (args.json_path or args.svg_path):
        sys.stdout.write(text)


def _print_int(n: int) -> None:
    """Print n in full, past CPython's int-to-str digit limit (4300 by default),
    and leave the limit as it was.  Pythons before 3.10.7 have no such limit."""
    if not hasattr(sys, "get_int_max_str_digits"):
        print(n)
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        print(n)
    finally:
        sys.set_int_max_str_digits(limit)


def cmd_count(args) -> None:
    if args.method == "recursion":
        _print_int(km_count(args.degree))
        return
    n_paths = pathsmod.count_both(args.degree, args.lambda_order)[0]
    if args.method == "paths":
        print(n_paths)
        return
    n_rec = km_count(args.degree)
    print(f"{n_paths} {n_rec}")
    if n_paths != n_rec:
        raise CrossCheckMismatchError("path count and recursion disagree")


def cmd_welschinger(args) -> None:
    print(pathsmod.count_both(args.degree, args.lambda_order)[1])


def _format_path(path) -> str:
    return "->".join(f"({x},{y})" for x, y in path)


def cmd_paths(args) -> None:
    # the domain refuses past the counter's limit, so that refusal comes first
    domain = pathsmod.path_domain(args.degree, args.lambda_order)
    if args.nonzero_only:
        rows = pathsmod.nonzero_multiplicities(domain)
    else:
        pathsmod.check_degree(args.degree, pathsmod.FULL_LISTING)
        paths = pathsmod.enumerate_paths(domain)
        rows = ((path, pathsmod.path_multiplicity(path, domain)) for path in paths)
    print("# path  mu+ mu- mu nu")
    total_mu = total_nu = 0
    for path, m in rows:
        total_mu += m.complex_total
        total_nu += m.welschinger_total
        print(f"{_format_path(path)}  {' '.join(map(str, m))}")  # mu+ mu- mu nu
    print(f"# total mu={total_mu} nu={total_nu}")


def cmd_report(args) -> None:
    table = build_table(args.dmax, args.lambda_order)
    failed = []
    for row in table:
        flags = {"bound": row.bound_ok, "dominance": row.dominance_ok, "parity": row.parity_ok}
        shown = " ".join(f"{name}={'ok' if ok else 'FAIL'}" for name, ok in flags.items())
        print(f"d={row.d} N_paths={row.n_paths} N_recursion={row.n_recursion} W={row.w} {shown}")
        failed += [f"{name} at d={row.d}" for name, ok in flags.items() if not ok]
    for row in asymptotic_report(table):
        real = "" if row.real_gap_per_d is None else f" (logN-logW)/d={row.real_gap_per_d:.4f}"
        print(
            f"d={row.d} logN={row.log_n:.4f} 3dlogd={row.three_d_log_d:.4f} "
            f"gap/d={row.gap_per_d:.4f}{real}"
        )
    if failed:
        raise CrossCheckMismatchError(f"failed checks: {', '.join(failed)}")


_HANDLERS = {
    "curve": cmd_curve,
    "count": cmd_count,
    "welschinger": cmd_welschinger,
    "paths": cmd_paths,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses status 2 for usage errors; that is a user error here
        return EXIT_USER if exc.code else EXIT_OK
    try:
        _HANDLERS[args.command](args)
        return EXIT_OK
    except CrossCheckMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except BrokenPipeError:
        # the reader left: point stdout at devnull so the flush at exit stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_USER
    except (TropcurveError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER
    except MemoryError:
        print("error: out of memory; try a smaller degree or polynomial", file=sys.stderr)
        return EXIT_USER


if __name__ == "__main__":
    sys.exit(main())
