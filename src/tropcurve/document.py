"""Byte-stable JSON serialization of extracted curves.

Rational coordinates serialize as canonical strings ('p' or 'p/q'), never as
floats.  Writing is deterministic: keys sorted, two-space indent, trailing
newline, so identical curves produce identical bytes.
"""

from __future__ import annotations

import json

from .curve import TropicalCurve, curve_stats
from .polynomial import format_rational


def curve_document(curve: TropicalCurve) -> dict:
    """Plain-dict form of a curve with its stats block."""
    stats = curve_stats(curve)
    return {
        "degree": stats.degree,
        "vertices": [
            {
                "x": format_rational(v.x),
                "y": format_rational(v.y),
                "dual_cell": [list(p) for p in cell],
            }
            for v, cell in zip(curve.vertices, curve.cells)
        ],
        "edges": [
            {
                "from": e.v1,
                "to": e.v2,
                "weight": e.weight,
                "dual": [list(p) for p in e.dual],
            }
            for e in curve.bounded_edges
        ],
        "rays": [
            {
                "vertex": r.vertex,
                "dir": list(r.direction),
                "weight": r.weight,
                "dual": [list(p) for p in r.dual],
            }
            for r in curve.rays
        ],
        "stats": {
            "node_count": stats.node_count,
            "betti1": stats.betti1,
            "welschinger_sign": stats.welschinger_sign,
            "multiplicities": list(stats.trivalent_multiplicities),
        },
    }


def write_document(doc: dict) -> str:
    """Canonical JSON text for a curve document."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
