"""SVG rendering of curve documents.

Floats are display-only here; the document keeps exact values.  The y axis
is flipped at render time (screen coordinates).  Output bytes are
deterministic for identical inputs.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import TropcurveError

RAY_LENGTH = 2.0  # drawn length of each ray, also the viewport padding
SCALE = 60.0  # pixels per unit


def _fmt(value: float) -> str:
    return f"{value:.4f}"


def render_svg(doc: dict) -> str:
    """Well-formed SVG for a curve document.

    The viewport is the bounding box of the vertices padded by the ray
    truncation length; edge stroke width grows with weight.  A vertex, an edge's
    weight or a ray's weight or direction past float range, or a viewport too
    large for a float, raises TropcurveError.
    """
    vertices = []
    for k, v in enumerate(doc["vertices"]):
        try:
            vertices.append((float(Fraction(v["x"])), float(Fraction(v["y"]))))
        except OverflowError:
            msg = f"vertex {k} lies outside float range, so no SVG can draw it"
            raise TropcurveError(msg) from None
    # flipped y for screen coordinates
    pts = [(x, -y) for x, y in vertices]
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    min_x, max_x = min(xs) - RAY_LENGTH, max(xs) + RAY_LENGTH
    min_y, max_y = min(ys) - RAY_LENGTH, max(ys) + RAY_LENGTH
    width = max_x - min_x
    height = max_y - min_y
    if not (math.isfinite(width * SCALE) and math.isfinite(height * SCALE)):
        raise TropcurveError("the vertices span past float range, so no SVG viewport can frame them")

    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{_fmt(min_x)} {_fmt(min_y)} {_fmt(width)} {_fmt(height)}" '
        f'width="{_fmt(width * SCALE)}" height="{_fmt(height * SCALE)}">',
        '<g stroke="black" stroke-linecap="round" fill="none">',
    ]
    try:
        for k, edge in enumerate(doc["edges"]):
            drawn = f"edge {k}"
            x1, y1 = pts[edge["from"]]
            x2, y2 = pts[edge["to"]]
            lines.append(
                f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
                f'stroke-width="{_fmt(0.05 * edge["weight"])}"/>'
            )
        for k, ray in enumerate(doc["rays"]):
            drawn = f"ray {k}"
            x1, y1 = pts[ray["vertex"]]
            dx, dy = ray["dir"]
            dy = -dy
            norm = math.hypot(dx, dy)
            x2 = x1 + RAY_LENGTH * dx / norm
            y2 = y1 + RAY_LENGTH * dy / norm
            lines.append(
                f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
                f'stroke-width="{_fmt(0.05 * ray["weight"])}"/>'
            )
    except OverflowError:
        raise TropcurveError(f"{drawn} has a weight or direction outside float range, so no SVG can draw it") from None
    for x, y in pts:
        lines.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="0.07" fill="black"/>')
    lines += ["</g>", "</svg>"]
    return "\n".join(lines) + "\n"
