"""SVG drawing of tropical curves.

Floats are display-only here; the curve keeps exact values.  The y axis
is flipped at render time (screen coordinates).  Output bytes are
deterministic for identical inputs.
"""

from __future__ import annotations

import math

from .curve import TropicalCurve
from .errors import TropcurveError

RAY_LENGTH = 2.0  # drawn length of each ray, also the viewport padding
SCALE = 60.0  # pixels per unit


def _fmt(value: float) -> str:
    return f"{value:.4f}"


def render_svg(curve: TropicalCurve) -> str:
    """Well-formed SVG of a tropical curve.

    The viewport is the bounding box of the vertices padded by the ray
    truncation length; edge stroke width grows with weight.  A vertex, an edge's
    weight or a ray's weight or direction past float range, or a viewport too
    large for a float, raises TropcurveError.
    """
    pts = []  # y flipped for screen coordinates
    for k, v in enumerate(curve.vertices):
        try:
            pts.append((float(v.x), -float(v.y)))
        except OverflowError:
            msg = f"vertex {k} lies outside float range, so no SVG can draw it"
            raise TropcurveError(msg) from None
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
        for k, edge in enumerate(curve.bounded_edges):
            drawn = f"edge {k}"
            x1, y1 = pts[edge.v1]
            x2, y2 = pts[edge.v2]
            lines.append(
                f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
                f'stroke-width="{_fmt(0.05 * edge.weight)}"/>'
            )
        for k, ray in enumerate(curve.rays):
            drawn = f"ray {k}"
            x1, y1 = pts[ray.vertex]
            dx, dy = ray.direction
            dy = -dy
            norm = math.hypot(dx, dy)
            x2 = x1 + RAY_LENGTH * dx / norm
            y2 = y1 + RAY_LENGTH * dy / norm
            lines.append(
                f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
                f'stroke-width="{_fmt(0.05 * ray.weight)}"/>'
            )
    except OverflowError:
        raise TropcurveError(f"{drawn} has a weight or direction outside float range, so no SVG can draw it") from None
    for x, y in pts:
        lines.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="0.07" fill="black"/>')
    lines += ["</g>", "</svg>"]
    return "\n".join(lines) + "\n"
