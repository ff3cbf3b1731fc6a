"""Benchmark of tropcurve: four workloads, timed end to end or traced by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout; the program is imported from its src/.
NAME is one of count-d5, paths-d5, curve-lift, membership, or `all` for
the four in turn.  See perfbench/README.md for what each workload does, why
it is there, and which layer metric should move which end-to-end metric.

Every run of a workload is a fresh single-threaded worker process
(worker.py), started one after another, never in parallel, with its
address space capped by RLIMIT_AS.  `--trace 0` starts runs until
--seconds have passed and reports the medians of wall_ref_s, setup_s and
peak_rss_mb.  wall_ref_s is each run's wall time rescaled by a reference
kernel timed around it (worker.reference), so that the machine's own speed
drift cancels; the wall time as measured is printed beside it.  `--trace 1`
makes one traced pass of every workload plus one untraced pass of NAME, and
reports the per-layer metrics.  `--smoke` uses tiny inputs (d = 3, small
lifts, a few points).

The last line of stdout is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
A run fails when its output fails its oracle, when it exits with an error,
or when it runs out of memory or time; failed runs give no timings.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
WORKLOADS = ("count-d5", "paths-d5", "curve-lift", "membership")
POOL = 4  # seeded input sets per workload; run k uses set k % POOL
MIN_RUNS = 3
MEMORY_CAP = 2 << 30  # RLIMIT_AS of each worker, bytes
BUDGET_S = 170.0  # no run starts after this, and none outlives it
# worker.reference() at the machine speed the baseline was taken at (2-vCPU
# Intel Xeon VM, CPython 3.11.7); wall_ref_s rescales each run's wall time
# to this speed.
REF_NOMINAL_S = 0.1

# per-layer time -> (workload whose traced pass gives it, or None for the sum
# over all passes; [(span name, "total_s" or "self_s"), ...] summed)
LAYER_SPANS = {
    "paths.enumerate_s": ("count-d5", [("paths.enumerate_paths", "total_s")]),
    "paths.side_s": ("count-d5", [("paths.side_multiplicity", "total_s")]),
    "paths.glue_s": ("count-d5", [("paths.path_multiplicity", "total_s")]),
    "invariants.km_s": ("count-d5", [("invariants.km_count", "total_s")]),
    "paths.per_path_s": ("paths-d5", [("paths.path_multiplicity", "total_s")]),
    "curve.subdivision_s": ("curve-lift", [("curve.dual_subdivision", "total_s")]),
    "curve.extract_s": ("curve-lift", [("curve.extract_curve", "self_s")]),
    "curve.stats_s": ("curve-lift", [("curve.curve_stats", "total_s")]),
    "document.json_s": ("curve-lift", [("document.curve_document", "self_s"),
                                       ("document.write_document", "total_s")]),
    "svgout.svg_s": ("curve-lift", [("svgout.render_svg", "total_s")]),
    "polynomial.parse_s": ("membership", [("polynomial.parse_term_table", "total_s")]),
    "polynomial.argmax_s": ("membership", [("polynomial.argmax_terms", "total_s")]),
    "curve.point_test_s": ("membership", [("curve.point_on_curve", "total_s")]),
    "cli.self_s": (None, [("cli.main", "self_s")]),
}
# per-layer count -> (workload whose traced pass gives it, unit)
LAYER_COUNTS = {
    "paths.enumerated": ("count-d5", "count"),
    "paths.live": ("count-d5", "count"),
    "paths.live_ratio": ("count-d5", "ratio"),
    "paths.reducible_units": ("count-d5", "count"),
    "curve.terms": ("curve-lift", "count"),
    "curve.cells": ("curve-lift", "count"),
    "curve.triples": ("curve-lift", "count"),
    "query.points": ("membership", "count"),
    "query.on_curve": ("membership", "count"),
    "query.agree": ("membership", "count"),
}


class Bench:
    """Inputs, worker processes and results of one benchmark invocation."""

    def __init__(self, root: Path, seed: int, sizes: dict, work: Path):
        self.root = root
        self.seed = seed
        self.sizes = sizes
        self.work = work
        self.started = time.monotonic()
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def input_sets(self, workload: str, count: int) -> list[Path]:
        """Write `count` seeded input sets; return their spec files."""
        specs = []
        for index in range(count):
            out = self.work / f"{workload}-{index}"
            out.mkdir(parents=True, exist_ok=True)
            if workload == "curve-lift":
                spec = gen.curve_lift_set(out, self.seed, index, self.sizes)
            elif workload == "membership":
                spec = gen.membership_set(out, self.seed, index, self.sizes)
            else:
                spec = gen.degree_set(workload, self.seed, self.sizes)
            path = out / "spec.json"
            path.write_text(json.dumps(spec, indent=1), encoding="utf-8")
            specs.append(path)
        return specs

    def spawn(self, spec: Path, spans: Path | None = None) -> dict:
        """One worker run: its report plus setup_s, peak_rss_mb and failure."""
        cmd = [sys.executable, str(HERE / "worker.py"), str(spec)]
        if spans is not None:
            cmd += ["--trace", str(spans)]
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=self.env,
                                preexec_fn=_cap_memory)
        watchdog = threading.Timer(max(self.time_left(), 1.0), proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            watchdog.cancel()
        lines = out.decode("utf-8", "replace").splitlines()
        if proc.returncode != 0 or not lines:
            return {"failed": f"worker exit {proc.returncode} on {spec.parent.name}"}
        report = json.loads(lines[-1])
        if report["problems"]:
            return {"failed": f"{spec.parent.name}: {report['problems']}"}
        report["setup_s"] = report["t_ready"] - t0
        report["peak_rss_mb"] = usage.ru_maxrss / 1024  # ru_maxrss is in KiB
        report["failed"] = None
        return report

    def time_left(self) -> float:
        return self.started + BUDGET_S - time.monotonic()


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def _result(runs: list[dict], metrics: dict) -> dict:
    failed = sum(1 for r in runs if r["failed"])
    return {"correct": failed == 0, "attempted": len(runs), "failed": failed, "metrics": metrics}


def timed(bench: Bench, workload: str, seconds: float) -> dict:
    """Untraced runs for about `seconds`; medians of the successful ones.

    No run starts that would, at the typical run length so far, end after
    `seconds`, once MIN_RUNS have been made.
    """
    specs = bench.input_sets(workload, POOL if workload in ("curve-lift", "membership") else 1)
    runs, durations = [], []
    start = time.monotonic()
    while True:
        if durations:
            if len(runs) >= MIN_RUNS and time.monotonic() - start + statistics.median(durations) > seconds:
                break
            if bench.time_left() < 2 * max(durations):
                break
        t = time.monotonic()
        runs.append(bench.spawn(specs[len(runs) % len(specs)]))
        durations.append(time.monotonic() - t)
    good = [r for r in runs if not r["failed"]]
    metrics = {}
    if good:
        metrics["wall_ref_s"] = {
            "value": statistics.median(r["wall_s"] * REF_NOMINAL_S / r["ref_s"] for r in good),
            "unit": "s"}
        for name, unit in (("setup_s", "s"), ("peak_rss_mb", "MB")):
            metrics[name] = {"value": statistics.median(r[name] for r in good), "unit": unit}
    _print_summary(workload, runs, metrics)
    if good:
        walls = sorted(r["wall_s"] for r in good)
        refs = sorted(r["ref_s"] for r in good)
        print(f"  wall_s (as measured)     {statistics.median(walls):.6g} s, "
              f"min {walls[0]:.4f}, max {walls[-1]:.4f}, over {len(walls)} runs")
        print(f"  reference kernel         {statistics.median(refs):.6g} s "
              f"(nominal {REF_NOMINAL_S} s)")
    return _result(runs, metrics)


def traced(bench: Bench, workload: str) -> dict:
    """Traced pass of every workload, and one untraced pass of `workload`."""
    order = [workload] + [w for w in WORKLOADS if w != workload]
    specs = {w: bench.input_sets(w, 1)[0] for w in order}
    twin = bench.spawn(specs[workload])
    spans_dir = bench.root / ".perfbench-work"
    passes = {w: bench.spawn(specs[w], spans_dir / f"spans-{w}.json") for w in order}
    runs = [twin] + list(passes.values())
    if any(r["failed"] for r in runs):
        _print_summary(workload, runs, {})
        return _result(runs, {})
    metrics = {}
    for name, (source, spans) in LAYER_SPANS.items():
        layers = [passes[w]["layers"] for w in ([source] if source else order)]
        value = sum(l.get(span, {}).get(field, 0.0) for l in layers for span, field in spans)
        metrics[name] = {"value": value, "unit": "s"}
    for name, (source, unit) in LAYER_COUNTS.items():
        metrics[name] = {"value": passes[source]["counts"][name], "unit": unit}
    metrics["trace.overhead_s"] = {
        "value": passes[workload]["wall_s"] - twin["wall_s"], "unit": "s"}
    _print_summary(workload, runs, metrics)
    return _result(runs, metrics)


def _print_summary(workload: str, runs: list[dict], metrics: dict) -> None:
    failed = sum(1 for r in runs if r["failed"])
    print(f"{workload}: {len(runs)} runs, fail_ratio {failed}/{len(runs)} = {failed / len(runs):.4f}")
    for r in runs:
        if r["failed"]:
            print(f"  FAILED {r['failed']}")
    for name, m in metrics.items():
        print(f"  {name:24s} {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "tropcurve" / "__init__.py").is_file():
        print(f"error: no tropcurve package under {src}; run from a checkout root", file=sys.stderr)
        return 2

    sizes = gen.SMOKE if args.smoke else gen.FULL
    work = root / ".perfbench-work" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    bench = Bench(root, args.seed, sizes, work)
    try:
        if args.workload != "all":
            if args.trace:
                result = traced(bench, args.workload)
            else:
                result = timed(bench, args.workload, args.seconds)
        else:
            result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            for w in WORKLOADS:
                part = traced(bench, w) if args.trace else timed(bench, w, args.seconds)
                bench.started = time.monotonic()
                result["correct"] &= part["correct"]
                result["attempted"] += part["attempted"]
                result["failed"] += part["failed"]
                for name, m in part["metrics"].items():
                    result["metrics"][f"{w}.{name}"] = m
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
