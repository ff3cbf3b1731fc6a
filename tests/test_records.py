"""The result records: immutable, named fields, a `Name(field=...)` repr, and
memos that belong to one instance; and a CLI start that loads no heavy module."""

import json
import subprocess
import sys
from fractions import Fraction

import pytest

from tropcurve import (
    AsymptoticRow,
    BoundedEdge,
    CurveStats,
    CurveVertex,
    PathDomain,
    PathMultiplicity,
    Ray,
    TableRow,
    TropicalCurve,
    asymptotic_report,
    build_table,
    curve_stats,
    extract_curve,
    nonzero_multiplicities,
    parse_expression,
    path_domain,
    path_multiplicity,
)

FIELDS = {
    CurveVertex: ("x", "y"),
    BoundedEdge: ("v1", "v2", "weight", "dual"),
    Ray: ("vertex", "direction", "weight", "dual"),
    TropicalCurve: ("vertices", "bounded_edges", "rays", "cells"),
    CurveStats: ("degree", "node_count", "trivalent_multiplicities", "betti1", "welschinger_sign"),
    TableRow: ("d", "n_paths", "n_recursion", "w", "bound_ok", "dominance_ok", "parity_ok"),
    AsymptoticRow: ("d", "log_n", "three_d_log_d", "gap_per_d", "real_gap_per_d"),
    PathDomain: ("d", "points", "p", "q", "left_arc", "right_arc"),
    PathMultiplicity: ("complex_plus", "complex_minus", "complex_total", "welschinger_total"),
}


@pytest.fixture(scope="module")
def samples():
    """One record of each type, built in this module alone: a domain with its
    engine must not outlive it (tests elsewhere look for stray engines)."""
    # a conic with a bounded edge, so every curve record occurs
    curve = extract_curve(parse_expression("max(0, x - 1, y - 1, 2x - 4, x + y - 3, 2y - 4)"))
    table = build_table(3)
    domain = path_domain(3)
    records = [
        curve.vertices[0],
        curve.bounded_edges[0],
        curve.rays[0],
        curve,
        curve_stats(curve),
        table[0],
        asymptotic_report(table)[-1],
        domain,
        path_multiplicity(nonzero_multiplicities(domain)[0][0], domain),
    ]
    assert [type(r) for r in records] == list(FIELDS)
    return dict(zip(FIELDS, records))


@pytest.fixture(params=list(FIELDS), ids=lambda kind: kind.__name__)
def record(request, samples):
    return samples[request.param]


class TestRecord:
    def test_fields_cannot_be_assigned(self, record):
        assert record._fields == FIELDS[type(record)]
        for name in FIELDS[type(record)]:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))

    def test_repr_names_the_type_and_its_first_field(self, record):
        kind = type(record)
        assert repr(record).startswith(f"{kind.__name__}({FIELDS[kind][0]}=")

    def test_built_by_keyword_and_by_position_alike(self, record):
        values = {name: getattr(record, name) for name in FIELDS[type(record)]}
        by_keyword = type(record)(**values)
        by_position = type(record)(*values.values())
        assert by_keyword == by_position == record
        assert hash(by_keyword) == hash(record)


def shifted_line():
    """The tropical line with its vertex at (1/2, -1/3)."""
    return TropicalCurve(
        vertices=(CurveVertex(Fraction(1, 2), Fraction(-1, 3)),),
        bounded_edges=(),
        rays=(
            Ray(0, (-1, 0), 1, ((0, 0), (0, 1))),
            Ray(0, (0, -1), 1, ((0, 0), (1, 0))),
            Ray(0, (1, 1), 1, ((0, 1), (1, 0))),
        ),
        cells=(((0, 0), (1, 0), (0, 1)),),
    )


def test_curve_lines_are_built_once_per_curve():
    line = shifted_line()
    first = line._lines
    assert first[0] == 6
    assert line._lines is first
    twin = TropicalCurve(**{name: getattr(line, name) for name in FIELDS[TropicalCurve]})
    assert twin == line
    assert twin._lines is not first


def test_cell_weights_are_classified_once_per_curve():
    line = shifted_line()
    first = line._cell_weights
    assert first == ((1, 1),)
    assert line._cell_weights is first
    assert shifted_line()._cell_weights is not first


def test_domain_tables_are_built_once_per_domain():
    domain = path_domain(3)
    path = nonzero_multiplicities(domain)[0][0]  # the join memo fills
    path_multiplicity(path, domain)
    tables = ("rank", "engines", "joins")
    assert set(vars(domain)) == set(tables)  # the glue keeps no other table
    built = {name: getattr(domain, name) for name in tables}
    assert domain.engines[domain.corner_side()].cache and domain.joins
    for name, value in built.items():
        assert getattr(domain, name) is value
    twin = path_domain(3)
    assert twin == domain
    for name, value in built.items():
        assert getattr(twin, name) is not value


def test_cli_import_loads_no_dataclasses_or_inspect():
    # the difference leaves out what the interpreter's site set-up preloads
    probe = (
        "import json, sys; before = set(sys.modules); import tropcurve.cli; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    loaded = set(json.loads(result.stdout))
    assert "tropcurve.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}
