import gc
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import tropcurve
from tropcurve import cli, invariants, paths
from tropcurve.document import write_document

CONIC_TABLE = """\
# concave-lift conic
0 0 0
1 0 -1
0 1 -1
2 0 -4
1 1 -3
0 2 -4
"""


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_both_match(self, capsys):
        code, out, _ = run_cli(capsys, "count", "-d", "3", "--method", "both")
        assert code == 0
        assert out.strip() == "12 12"

    def test_recursion_only(self, capsys):
        code, out, _ = run_cli(capsys, "count", "-d", "4", "--method", "recursion")
        assert code == 0
        assert out.strip() == "620"

    def test_paths_only(self, capsys):
        code, out, _ = run_cli(capsys, "count", "-d", "3", "--method", "paths")
        assert code == 0
        assert out.strip() == "12"

    def test_bad_degree_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "count", "-d", "0")
        assert code == 1
        assert "error" in err

    def test_missing_flag_is_user_error(self, capsys):
        assert run_cli(capsys, "count")[0] == 1
        assert run_cli(capsys, "count", "-d", "two")[0] == 1

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0

    def test_out_of_memory_is_one_error_line(self, capsys, monkeypatch):
        def exhausted(d, order):
            raise MemoryError

        monkeypatch.setattr(cli.pathsmod, "count_both", exhausted)
        code, out, err = run_cli(capsys, "count", "-d", "3", "--method", "both")
        assert code == 1
        assert out == ""
        assert err.startswith("error: out of memory")
        assert err.count("\n") == 1

    def test_mismatch_exits_two(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "km_count", lambda d: 999)
        code, out, err = run_cli(capsys, "count", "-d", "2", "--method", "both")
        assert code == 2
        assert out.strip() == "1 999"
        assert err == "error: path count and recursion disagree\n"

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit"
    )
    def test_recursion_prints_past_the_digit_limit(self, capsys):
        expected = str(invariants.km_count(150))  # 862 digits
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, _ = run_cli(capsys, "count", "-d", "150", "--method", "recursion")
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 0
        assert out == expected + "\n"

    def test_recursion_prints_without_a_digit_limit(self, capsys, monkeypatch):
        # Pythons before 3.10.7 have neither the limit nor its getter and setter
        monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
        monkeypatch.delattr(sys, "set_int_max_str_digits", raising=False)
        code, out, err = run_cli(capsys, "count", "-d", "5", "--method", "recursion")
        assert (code, out, err) == (0, "87304\n", "")


def past_the_counter(d):
    """The one stderr line a path command refuses degree d with."""
    return (
        f"error: the lattice-path counter serves degrees up to 6, got {d}; "
        "N_d up to degree 500: count --method recursion\n"
    )


class TestCensusLimit:
    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "-d", "7"],
            ["count", "-d", "7", "--method", "paths"],
            ["welschinger", "-d", "7"],
            ["paths", "-d", "7"],
            ["report", "--max", "7"],
            ["paths", "-d", "7", "--nonzero-only"],
        ],
    )
    def test_out_of_reach_is_one_error_line(self, capsys, argv):
        # d = 7 has 1855967520 census paths; the full listing names the counter's
        # limit too, since --nonzero-only would not serve d = 7 either
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (1, "", past_the_counter(7))

    @pytest.mark.parametrize("command", ["count", "welschinger"])
    def test_far_degree_is_refused_at_once(self, capsys, command):
        # the degree is checked before any per-domain table: T_40 has over 10^8 triples
        start = time.perf_counter()
        code, out, err = run_cli(capsys, command, "-d", "40")
        assert time.perf_counter() - start < 2
        assert (code, out, err) == (1, "", past_the_counter(40))

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "-d", "700"],
            ["welschinger", "-d", "700"],
            ["paths", "-d", "700"],
            ["paths", "-d", "700", "--nonzero-only"],
            ["report", "--max", "700"],
        ],
    )
    def test_a_census_past_the_digit_limit_is_one_error_line(self, capsys, argv):
        # the degree-700 census has 5247 digits, past CPython's int-to-str limit of
        # 4300: the refusal names the degree, never the census
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 2
        assert (code, out, err) == (1, "", past_the_counter(700))

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "-d", "1000000"],
            ["welschinger", "-d", "1000000"],
            ["paths", "-d", "1000000", "--nonzero-only"],
            ["report", "--max", "1000000"],
        ],
    )
    def test_a_far_degree_is_refused_within_a_small_address_space(self, argv):
        # T_d alone would hold 5 * 10^11 points: under a 256 MB cap a regression that
        # builds anything of the degree first fails here instead of filling the machine
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

        src = str(Path(tropcurve.__file__).parents[1])
        result = subprocess.run(
            [sys.executable, "-m", "tropcurve.cli", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            preexec_fn=cap,
            timeout=60,
        )
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == past_the_counter(1000000)

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["count", "-d", "1" * 5000], "an integer"),
            (["paths", "--nonzero-only", "-d", "1" * 5000], "an integer"),
            (["report", "--max", "1" * 5000], "an integer"),
            (["welschinger", "-d", "-" + "1" * 5000], "a negative integer"),
        ],
        ids=["count", "paths", "report", "welschinger"],
    )
    def test_a_numeral_past_the_digit_limit_is_named_not_echoed(self, capsys, digit_limit, argv, named):
        # -d and --max are read as strictly as a term table's exponent, so a
        # 5000-digit numeral is named by its size: a usage line and one error line
        digit_limit(4300)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert len(err.encode()) < 1024
        assert err.endswith(f": cannot read {named} of 5000 digits, past the int-to-str digit limit (4300 digits)\n")

    @pytest.mark.parametrize("numeral", ["1x", "1_0", "\uff15", "1/1", "5.0", ""])
    def test_a_degree_is_read_as_strictly_as_an_exponent(self, capsys, numeral):
        code, out, err = run_cli(capsys, "count", "-d", numeral)
        assert (code, out) == (1, "")
        assert err.endswith(f"error: argument -d/--degree: not an integer: {numeral!r}\n")

    def test_recursion_past_its_limit_is_one_error_line(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "count", "-d", "501", "--method", "recursion")
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (1, "", "error: the recursion serves degrees up to 500, got 501\n")

    def test_recursion_still_reaches_degree_seven(self, capsys):
        code, out, _ = run_cli(capsys, "count", "-d", "7", "--method", "recursion")
        assert code == 0
        assert out == "14616808192\n"


class TestWelschinger:
    @pytest.mark.parametrize("d,expected", [(1, "1"), (2, "1"), (3, "8")])
    def test_values(self, capsys, d, expected):
        code, out, _ = run_cli(capsys, "welschinger", "-d", str(d))
        assert code == 0
        assert out.strip() == expected

    def test_bad_degree(self, capsys):
        code, _, _ = run_cli(capsys, "welschinger", "-d", "-2")
        assert code == 1


class TestPaths:
    def test_degree_two_single_row(self, capsys):
        code, out, _ = run_cli(capsys, "paths", "-d", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3  # header, one path, footer
        assert lines[1].endswith("1 1 1 1")
        assert lines[-1] == "# total mu=1 nu=1"

    def test_degree_three_footer_matches_counts(self, capsys):
        code, out, _ = run_cli(capsys, "paths", "-d", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2 + 8
        assert lines[-1] == "# total mu=12 nu=8"

    def test_nonzero_filter(self, capsys):
        code, out, _ = run_cli(capsys, "paths", "-d", "3", "--nonzero-only")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2 + 5
        assert lines[-1] == "# total mu=12 nu=8"

    def test_degree_one_nonzero(self, capsys):
        code, out, _ = run_cli(capsys, "paths", "-d", "1", "--nonzero-only")
        assert code == 0
        rows = out.strip().splitlines()[1:-1]
        assert len(rows) == 1

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("order", ["xey", "rowmajor"])
    def test_nonzero_listing_is_the_full_listing_filtered(self, capsys, d, order):
        # the two listings walk different path sources: the census and the search
        code, full, _ = run_cli(capsys, "paths", "-d", str(d), "--lambda", order)
        assert code == 0
        code, nonzero, _ = run_cli(capsys, "paths", "-d", str(d), "--lambda", order, "--nonzero-only")
        assert code == 0
        full, nonzero = full.splitlines(), nonzero.splitlines()
        assert nonzero[0] == full[0] and nonzero[-1] == full[-1]
        assert nonzero[1:-1] == [row for row in full[1:-1] if row.split()[-2] != "0"]

    @pytest.mark.parametrize("order", ["xey", "rowmajor"])
    def test_the_nonzero_listing_frees_its_engines_with_its_domain(self, capsys, monkeypatch, order):
        # the listing glues in one pass, as the count does: its domain's direct
        # engine drops each map at its last read, the corner engine keeps its
        # pieces for the pass, and no engine outlives the call
        def engines():
            gc.collect()
            return sum(isinstance(obj, paths._DivisionEngine) for obj in gc.get_objects())

        built, path_domain = [], paths.path_domain

        def kept_domain(*args):
            built.append(path_domain(*args))
            return built[-1]

        monkeypatch.setattr(paths, "path_domain", kept_domain)
        before = engines()
        code, out, _ = run_cli(capsys, "paths", "-d", "4", "--lambda", order, "--nonzero-only")
        assert code == 0
        assert out.splitlines()[-1] == "# total mu=620 nu=240"
        (domain,) = built
        corner, direct = vars(domain)["engines"].values()
        assert corner.cache and direct.cache == {}
        del domain, corner, direct
        built.clear()
        assert engines() <= before

    @pytest.mark.parametrize("order", ["xey", "rowmajor"])
    def test_degree_six_full_listing_refused_up_front(self, capsys, order):
        # 5311735 paths would outgrow 1 GiB after about a minute; the nonzero listing fits
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "paths", "-d", "6", "--lambda", order)
        elapsed = time.perf_counter() - start
        assert (code, out) == (1, "")
        assert err == (
            "error: the full listing serves degrees up to 5, got 6; "
            "list the nonzero paths alone with --nonzero-only\n"
        )
        assert elapsed < 1.0


class TestCurve:
    def test_line_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "curve", "--expr", "max(0,x,y)")
        assert code == 0
        doc = json.loads(out)
        assert doc["degree"] == 1
        assert len(doc["vertices"]) == 1
        assert len(doc["rays"]) == 3
        assert doc["stats"]["welschinger_sign"] == 1

    @pytest.mark.parametrize("kinds", [("json",), ("svg",), ("json", "svg")])
    def test_stdout_is_the_json_unless_a_file_is_written(self, capsys, tmp_path, kinds):
        written = {kind: tmp_path / f"curve.{kind}" for kind in kinds}
        flags = [arg for kind, path in written.items() for arg in (f"--{kind}", str(path))]
        assert run_cli(capsys, "curve", "--expr", "max(0,x,y)", *flags) == (0, "", "")
        code, out, err = run_cli(capsys, "curve", "--expr", "max(0,x,y)")
        assert (code, err) == (0, "")
        if "json" in written:
            assert written["json"].read_text(encoding="utf-8") == out
        if "svg" in written:
            assert written["svg"].read_text(encoding="utf-8").count("<line ") == 3

    def test_malformed_expression_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "curve", "--expr", "max()")
        assert code == 1
        assert "error" in err

    def test_degenerate_input_exits_one(self, capsys):
        code, _, _ = run_cli(capsys, "curve", "--expr", "max(0, x)")
        assert code == 1

    def test_conic_term_table(self, capsys, tmp_path):
        table = tmp_path / "conic.txt"
        table.write_text(CONIC_TABLE, encoding="utf-8")
        out_json = tmp_path / "conic.json"
        code, _, _ = run_cli(capsys, "curve", "--poly", str(table), "--json", str(out_json))
        assert code == 0
        doc = json.loads(out_json.read_text(encoding="utf-8"))
        assert doc["degree"] == 2
        assert len(doc["vertices"]) == 4
        assert len(doc["rays"]) == 6

    def test_json_byte_stable_and_round_trips(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run_cli(capsys, "curve", "--expr", "max(0,x,y)", "--json", str(a))
        run_cli(capsys, "curve", "--expr", "max(0,x,y)", "--json", str(b))
        assert a.read_bytes() == b.read_bytes()
        doc = json.loads(a.read_text(encoding="utf-8"))
        assert write_document(doc) == a.read_text(encoding="utf-8")

    def test_svg_line_count_and_determinism(self, capsys, tmp_path):
        first = tmp_path / "a.svg"
        second = tmp_path / "b.svg"
        run_cli(capsys, "curve", "--expr", "max(0,x,y)", "--svg", str(first))
        run_cli(capsys, "curve", "--expr", "max(0,x,y)", "--svg", str(second))
        svg = first.read_text(encoding="utf-8")
        assert svg.count("<line ") == 3
        assert first.read_bytes() == second.read_bytes()

    def test_conic_svg_segment_count(self, capsys, tmp_path):
        table = tmp_path / "conic.txt"
        table.write_text(CONIC_TABLE, encoding="utf-8")
        out_svg = tmp_path / "conic.svg"
        code, _, _ = run_cli(capsys, "curve", "--poly", str(table), "--svg", str(out_svg))
        assert code == 0
        assert out_svg.read_text(encoding="utf-8").count("<line ") == 9

    def test_expression_with_trailing_whitespace(self, capsys):
        code, out, _ = run_cli(capsys, "curve", "--expr", "max(0, x, y) ")
        assert code == 0
        assert json.loads(out)["degree"] == 1

    def test_zero_denominator_in_table_exits_one(self, capsys, tmp_path):
        table = tmp_path / "zero.txt"
        table.write_text("0 0 0\n1 0 0\n0 1 1/0\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "curve", "--poly", str(table))
        assert code == 1
        assert err.startswith("error: line 3:")

    def test_non_utf8_table_exits_one(self, capsys, tmp_path):
        table = tmp_path / "latin1.txt"
        table.write_bytes(b"0 0 0\n1 0 0\n0 1 0 # \xe9\n")
        code, _, err = run_cli(capsys, "curve", "--poly", str(table))
        assert code == 1
        assert err.startswith("error:") and "UTF-8" in err

    def test_byte_order_mark_is_accepted(self, capsys, tmp_path):
        plain = tmp_path / "plain.txt"
        marked = tmp_path / "marked.txt"
        plain.write_text(CONIC_TABLE, encoding="utf-8")
        marked.write_text(CONIC_TABLE, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        outputs = []
        for table in (plain, marked):
            out_json = tmp_path / f"{table.stem}.json"
            code, _, err = run_cli(capsys, "curve", "--poly", str(table), "--json", str(out_json))
            assert code == 0, err
            outputs.append(out_json.read_bytes())
        assert outputs[0] == outputs[1]

    def test_balancing_failure_exits_two_and_writes_nothing(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(cli.curvemod, "check_balancing", lambda curve: [(0, (1, 0))])
        out_json = tmp_path / "line.json"
        out_svg = tmp_path / "line.svg"
        code, out, err = run_cli(
            capsys, "curve", "--expr", "max(0,x,y)", "--json", str(out_json), "--svg", str(out_svg)
        )
        assert (code, out) == (2, "")
        assert err == "error: balancing violated at vertices [(0, (1, 0))]\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kinds", [("svg",), ("json", "svg")])
    def test_vertex_past_float_range_refused_before_any_file(self, tmp_path, kinds):
        # the JSON keeps exact values, but the SVG draws floats: a vertex at
        # x = -10^400, vertices at x = -10^307 and 10^307 whose span at 60 px
        # per unit is past float range (width="inf"), or a ray of weight 10^400
        # exits 1 with one line, and writes neither file
        flags = [arg for kind in kinds for arg in (f"--{kind}", str(tmp_path / f"curve.{kind}"))]
        refusals = {
            f"max(0, x + 1{'0' * 400}, y)": "vertex 0 lies outside float range, so no SVG can draw it",
            f"max(0, x + 1{'0' * 307}, 2x, y)": "the vertices span past float range, so no SVG viewport can frame them",
            f"max(0, 1{'0' * 400}x, y)": "ray 0 has a weight or direction outside float range, so no SVG can draw it",
        }
        for expr, message in refusals.items():
            run = subprocess.run(
                [sys.executable, "-m", "tropcurve.cli", "curve", "--expr", expr, *flags],
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert (run.returncode, run.stdout) == (1, "")
            assert run.stderr == f"error: {message}\n"
            assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit"
    )
    def test_number_past_the_digit_limit_refused_before_any_file(self, tmp_path):
        # a fresh interpreter's limit is 4300 digits: a numeral past it, in an
        # expression or a term table, is named by its size, and a vertex with a
        # denominator past it (y = 1/a - 1/b, of about 4400 digits), or a slope
        # summed past it, cannot be written as JSON.  A parse error about a value
        # past it, a slope summed to a fraction (1/a + 1/b) or a duplicate term at
        # a summed exponent, names the value by its size.  Each exits 1 with one
        # line, no traceback and neither file
        out = tmp_path / "out"
        out.mkdir()
        flags = ["--json", str(out / "curve.json"), "--svg", str(out / "curve.svg")]
        long, a, b, nines = "1" * 5000, "1" * 2200, "1" * 2199 + "3", "9" * 4300
        tables = {"exponent": f"0 0 0\n{long} 0 0\n0 1 0\n", "coefficient": f"0 0 0\n1 0 {long}\n0 1 0\n"}
        for name, table in tables.items():
            (tmp_path / f"{name}.txt").write_text(table, encoding="utf-8")
        numeral = "cannot read an integer of {} digits, past the int-to-str digit limit (4300 digits)"
        written = "a number in the curve is past the int-to-str digit limit (4300 digits), so no JSON can write it"
        refusals = [
            (["--expr", f"max({long}, x, y)"], numeral.format(5000)),
            (["--expr", f"max(1/{'1' * 4301}, x, y)"], numeral.format(4301)),
            (["--poly", str(tmp_path / "exponent.txt")], "line 2: " + numeral.format(5000)),
            (["--poly", str(tmp_path / "coefficient.txt")], "line 2: " + numeral.format(5000)),
            (["--expr", f"max(0, x + 1/{a}, x + y + 1/{b})"], written),
            (["--expr", f"max(0, {nines}x + {nines}x, y)"], written),
            (
                ["--expr", f"max(0, 1/{a} x + 1/{b} x, y)"],
                "slope of x must be an integer, got a fraction of 4399 digits, past the int-to-str digit limit (4300 digits)",
            ),
            (
                ["--expr", f"max(0, {nines}x + {nines}x, {nines}x + {nines}x)"],
                "duplicate term at exponent (an integer of 4301 digits, past the int-to-str digit limit (4300 digits), 0)",
            ),
        ]
        for args, message in refusals:
            run = subprocess.run(
                [sys.executable, "-m", "tropcurve.cli", "curve", *args, *flags],
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert (run.returncode, run.stdout) == (1, "")
            assert run.stderr == f"error: {message}\n"
            assert list(out.iterdir()) == []

    def test_ray_direction_past_float_squares_is_drawn(self, tmp_path):
        # a ray of direction (1, 10^300) and one of weight 10^300: the squared
        # length is past float range, but each float is not, so the SVG draws them
        svg = tmp_path / "curve.svg"
        expr = f"max(0, 1{'0' * 300}x, y)"
        run = subprocess.run(
            [sys.executable, "-m", "tropcurve.cli", "curve", "--expr", expr, "--svg", str(svg)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (run.returncode, run.stderr) == (0, "")
        assert svg.read_text().count("<line ") == 3

    def test_missing_file_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "curve", "--poly", "/nonexistent/poly.txt")
        assert code == 1
        assert "error" in err


class TestReport:
    def test_max_three(self, capsys):
        code, out, _ = run_cli(capsys, "report", "--max", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert "d=3 N_paths=12 N_recursion=12 W=8" in lines[2]
        assert all("FAIL" not in line for line in lines)

    def test_bad_degree(self, capsys):
        code, _, _ = run_cli(capsys, "report", "--max", "0")
        assert code == 1

    def test_a_failed_flag_exits_two(self, capsys, monkeypatch):
        # W_3 = 9 passes the bound and dominance but not the parity with N_3 = 12
        counts = {1: (1, 1), 2: (1, 1), 3: (12, 9)}
        monkeypatch.setattr(invariants, "count_both", lambda d, order: counts[d])
        code, out, err = run_cli(capsys, "report", "--max", "3")
        assert (code, err) == (2, "error: failed checks: parity at d=3\n")
        lines = out.splitlines()
        assert lines[2] == "d=3 N_paths=12 N_recursion=12 W=9 bound=ok dominance=ok parity=FAIL"
        assert lines[5].startswith("d=3 logN=")

    def test_cross_check_failure_exits_two(self, capsys, monkeypatch):
        monkeypatch.setattr(invariants, "km_count", lambda d: 999)
        code, _, err = run_cli(capsys, "report", "--max", "2")
        assert code == 2
        assert "error" in err


class TestGoldenBytes:
    # sha256 of stdout per command, pinned so that a refactor of the path
    # counter has to keep every byte of every row, not only the footers
    GOLDEN = {
        "paths -d 4 --lambda xey": "6164dfa789cf422cc1ea1d117c271b1fe793d4ff95ad06161893bab487f40105",
        "paths -d 4 --lambda rowmajor": "e51991318af0a7dfd0ae985cf70e361757083bda87a128932723397c32730e96",
        # the full listing: the corner side of all 27132 census paths, dead ones included
        "paths -d 5 --lambda xey": "fdaf1c563b53e335d8d5fe63a0339fc4ca2f04810e5061f4766c673471816e83",
        "paths -d 5 --lambda rowmajor": "306d0232eeb3424009cab5d9cb79cd399ef620cf985ff383c46e3e28d153263f",
        "paths -d 5 --nonzero-only": "86b01deca0430373499174b30f750daea3e0ec9fecc8f9abac188eed72b0c088",
        "paths -d 5 --nonzero-only --lambda rowmajor": "aaff7e222b073b442bedc8daf2ad1d6e22a9a13ac0f5df80aeb56f03e9385492",
        "report --max 5": "683c69bd12a25f03c5028a0f75573234c538d6a1e64ec3ac7d9f44c398b25387",
        "report --max 5 --lambda rowmajor": "683c69bd12a25f03c5028a0f75573234c538d6a1e64ec3ac7d9f44c398b25387",
    }

    @pytest.mark.parametrize("command", sorted(GOLDEN))
    def test_stdout_bytes_are_pinned(self, capsys, command):
        code, out, _ = run_cli(capsys, *command.split())
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == self.GOLDEN[command]


def test_installed_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "tropcurve.cli", "count", "-d", "2", "--method", "both"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "1 1"


def test_closed_stdout_ends_quietly():
    # paths -d 5 writes far more than a pipe buffer holds, so the pipe really breaks
    proc = subprocess.Popen(
        [sys.executable, "-m", "tropcurve.cli", "paths", "-d", "5"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
    assert first.startswith(b"# path")
    assert proc.returncode == 1
    assert err == b""
