"""Smoke test of the benchmark at tiny sizes, and of its oracles.

    python3 -m pytest perfbench/test_smoke.py

Every workload runs timed and traced with --smoke (d = 3, small lifts, a few
points): each must pass its oracle and emit exactly the metrics that
BENCHMARK.json declares, with their units.
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import gen
import oracles

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_metric(workload, trace):
    proc = bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["paths.enumerated"] == oracles.census(3)
        assert metrics["paths.live"] == oracles.LIVE_PATHS[3]
        assert metrics["query.agree"] == metrics["query.points"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_closed_forms():
    assert [oracles.km(d) for d in range(1, 6)] == [1, 1, 12, 620, 87304]
    assert oracles.census(5) == 27132
    assert oracles.reducible_excess(4) == 55
    assert oracles.reducible_excess(5) == 22477


def paths_listing(d: int) -> str:
    proc = subprocess.run(
        [sys.executable, "-m", "tropcurve.cli", "paths", "-d", str(d), "--nonzero-only"],
        cwd=ROOT, env={"PYTHONPATH": str(ROOT / "src")}, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_oracles_reject_wrong_output():
    assert oracles.check_count("87304 87304\n", 5) == []
    assert oracles.check_count("87305 87304\n", 5)
    listing = paths_listing(3)
    assert oracles.check_paths(listing, 3) == []
    assert oracles.check_paths(listing.replace("nu=8", "nu=10"), 3)
    rows = listing.splitlines()
    assert oracles.check_paths("\n".join(rows[:1] + rows[2:]) + "\n", 3)


def test_curve_oracle_rejects_a_moved_vertex():
    terms = {(0, 0): Fraction(0), (1, 0): Fraction(0), (0, 1): Fraction(0)}
    doc = {
        "degree": 1,
        "vertices": [{"x": "0", "y": "0", "dual_cell": [[0, 0], [1, 0], [0, 1]]}],
        "edges": [],
        "rays": [
            {"vertex": 0, "dir": [-1, 0], "weight": 1},
            {"vertex": 0, "dir": [0, -1], "weight": 1},
            {"vertex": 0, "dir": [1, 1], "weight": 1},
        ],
    }
    assert oracles.check_curve(doc, terms, 1) == []
    doc["vertices"][0]["x"] = "1/2"
    assert oracles.check_curve(doc, terms, 1)


def test_sampled_points_lie_on_the_curve(tmp_path):
    spec = gen.membership_set(tmp_path, 5, 0, gen.SMOKE)
    for q in spec["quartics"]:
        terms = oracles.parse_terms((tmp_path / q["poly"]).read_text(encoding="utf-8"))
        lines = (tmp_path / q["points"]).read_text(encoding="utf-8").splitlines()
        for line in lines[: q["on_curve"]]:
            x, y = (Fraction(v) for v in line.split())
            assert len(oracles.argmax(terms, x, y)) >= 2
