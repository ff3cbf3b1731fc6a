import math
import sys
import time

import pytest

from tropcurve import (
    BadDegreeError,
    CrossCheckMismatchError,
    asymptotic_report,
    build_table,
    km_count,
)
from tropcurve import invariants, paths


class TestRecursion:
    def test_base_case(self):
        assert km_count(1) == 1

    def test_degree_two_from_recursion(self):
        # single ordered pair (1,1): C(2,1) - C(2,2) = 2 - 1
        assert km_count(2) == 1

    def test_degree_three_ordered_pairs_differ(self):
        # (1,2) contributes 4*5 - 2*10 = 0 and (2,1) contributes 4*5 - 8*1 = 12
        assert km_count(3) == 12

    def test_degree_four(self):
        # term-by-term: -144 + 224 + 540
        assert km_count(4) == 620

    def test_degree_five(self):
        assert km_count(5) == 87304

    def test_positive_and_increasing(self):
        values = [km_count(d) for d in range(2, 10)]
        assert all(v > 0 for v in values)
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_bad_degree(self):
        with pytest.raises(BadDegreeError):
            km_count(0)

    def test_past_the_limit_refused_from_the_degree_alone(self):
        # km_count(500) takes seconds: a refusal after any of the work shows here
        start = time.perf_counter()
        with pytest.raises(BadDegreeError, match="up to 500, got 501$"):
            km_count(paths.MAX_DEGREE[paths.RECURSION] + 1)
        assert time.perf_counter() - start < 1

    def test_published_degrees_six_to_eight(self):
        assert [km_count(d) for d in (6, 7, 8)] == [
            26312976,
            14616808192,
            13525751027392,
        ]

    def test_high_degree_needs_no_stack(self):
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth += 1
            frame = frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 30)
        try:
            value = km_count(150)
        finally:
            sys.setrecursionlimit(limit)
        assert value > 0


class TestFactorialBound:
    @staticmethod
    def bound_ok(monkeypatch, d, w):
        """build_table's bound flag at degree d when the path counter gives W = w."""
        monkeypatch.setattr(invariants, "count_both", lambda e, order: (km_count(e), w))
        return build_table(d)[-1].bound_ok

    def test_examples(self, monkeypatch):
        assert self.bound_ok(monkeypatch, 3, 8)
        assert self.bound_ok(monkeypatch, 1, 1)
        assert not self.bound_ok(monkeypatch, 3, 1)

    def test_exact_boundary(self, monkeypatch):
        assert self.bound_ok(monkeypatch, 3, 2)  # 6 >= 6
        assert not self.bound_ok(monkeypatch, 4, 7)  # 21 < 24


class TestTable:
    def test_three_rows(self):
        table = build_table(3)
        assert [r.n_paths for r in table] == [1, 1, 12]
        assert [r.n_recursion for r in table] == [1, 1, 12]
        assert [r.w for r in table] == [1, 1, 8]
        assert all(r.bound_ok and r.dominance_ok and r.parity_ok for r in table)

    def test_flags_recomputable(self):
        for row in build_table(4):
            assert row.bound_ok == (3 * row.w >= math.factorial(row.d))
            assert row.dominance_ok == (row.w <= row.n_paths)
            assert row.parity_ok == ((row.w - row.n_paths) % 2 == 0)

    def test_bad_degree(self):
        with pytest.raises(BadDegreeError):
            build_table(0)

    def test_cross_check_failure_raises(self, monkeypatch):
        monkeypatch.setattr(invariants, "km_count", lambda d: 999)
        with pytest.raises(CrossCheckMismatchError):
            invariants.build_table(2)

    def test_census_out_of_reach_checked_before_any_row(self, monkeypatch):
        def no_rows(d, order):
            raise AssertionError(f"row {d} computed")

        monkeypatch.setattr(invariants, "count_both", no_rows)
        with pytest.raises(BadDegreeError) as refused:
            build_table(7)
        assert str(refused.value) == (
            "the lattice-path counter serves degrees up to 6, got 7; "
            "N_d up to degree 500: count --method recursion"
        )


class TestAsymptotics:
    def test_degree_one_row(self):
        report = asymptotic_report(build_table(1))
        assert report[0].log_n == 0.0
        assert report[0].three_d_log_d == 0.0

    def test_degree_four_row(self):
        report = asymptotic_report(build_table(4))
        row = report[-1]
        assert row.log_n == pytest.approx(math.log(620), rel=1e-12)
        assert row.three_d_log_d == pytest.approx(12 * math.log(4), rel=1e-12)
        assert row.real_gap_per_d == pytest.approx(
            (math.log(620) - math.log(240)) / 4, rel=1e-12
        )

    def test_empty_table_rejected(self):
        assert asymptotic_report(()) == []
