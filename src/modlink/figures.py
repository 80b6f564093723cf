"""SVG figures: the Farey tessellation in the disk, and lattice cutting.

Both emitters return complete standalone SVG documents with one element
per combinatorial unit (triangle, crossing, letter), so the structure of
a figure can be checked by counting elements.  Coordinates are printed
with fixed precision; identical inputs give identical bytes.
"""

from __future__ import annotations

import math

from .cutting import ab_events, lr_events, lr_geometric_oracle, require_positive
from .farey import FareyPath, FareyTriangle, Slope, base_triangle


def _disk_point(s: Slope) -> tuple[float, float]:
    """Boundary point of the disk model for a slope via z -> (z-i)/(z+i)."""
    p, q = s.p, s.q
    n = p * p + q * q
    return ((p * p - q * q) / n, -2 * p * q / n)


def _arc_to(p1: tuple[float, float], p2: tuple[float, float]) -> str:
    """SVG path segment for the geodesic from p1 to p2 (both on the circle)."""
    dot = p1[0] * p2[0] + p1[1] * p2[1]
    if dot <= -1 + 1e-12:
        return f"L {p2[0]:.5f} {p2[1]:.5f}"
    cx = (p1[0] + p2[0]) / (1 + dot)
    cy = (p1[1] + p2[1]) / (1 + dot)
    radius = math.sqrt((1 - dot) / (1 + dot))
    cross = (p1[0] - cx) * (p2[1] - cy) - (p1[1] - cy) * (p2[0] - cx)
    sweep = 1 if cross > 0 else 0
    return f"A {radius:.5f} {radius:.5f} 0 0 {sweep} {p2[0]:.5f} {p2[1]:.5f}"


def _triangle_path(tri: FareyTriangle) -> str:
    a, b, c = (_disk_point(v) for v in tri.vertices)
    return (
        f"M {a[0]:.5f} {a[1]:.5f} " + _arc_to(a, b) + " " + _arc_to(b, c)
        + " " + _arc_to(c, a) + " Z"
    )


def _tessellation(depth: int) -> list[FareyTriangle]:
    """Triangles within the given dual-tree distance of the base triangle.

    The dual graph is a tree: no triangle crosses back over the edge it
    was reached across, the one opposite its newest vertex.
    """
    start = base_triangle()
    frontier = [(start, None)]
    out = [start]
    for _ in range(depth):
        next_frontier = []
        for tri, newest in frontier:
            vs = tri.vertices
            for i in range(3):
                u, w = vs[i], vs[(i + 1) % 3]
                v = vs[(i + 2) % 3]
                if v == newest:
                    continue
                total = Slope(u.p + w.p, u.q + w.q)
                third = Slope(u.p - w.p, u.q - w.q) if total == v else total
                neighbour = FareyTriangle((u, w, third))
                next_frontier.append((neighbour, third))
                out.append(neighbour)
        frontier = next_frontier
    return out


# Dual-tree distance from the base triangle to which the background
# tessellation of the disk figure is drawn.
_BACKGROUND_DEPTH = 5


def farey_disk_svg(path: FareyPath) -> str:
    """Disk-model picture of the tessellation with the path highlighted.

    Background triangles are drawn to dual-tree depth _BACKGROUND_DEPTH;
    the path triangles are filled (class "path-triangle", one element
    per triangle, in path order) and every path vertex is labelled with
    its slope (class "slope-label").
    """
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="640" '
        'viewBox="-1.18 -1.18 2.36 2.36">',
        '<circle cx="0" cy="0" r="1" fill="none" stroke="#444" '
        'stroke-width="0.006" class="boundary"/>',
    ]
    shown = {tri.vertices for tri in path.triangles}
    for tri in _tessellation(_BACKGROUND_DEPTH):
        if tri.vertices in shown:
            continue
        parts.append(
            f'<path d="{_triangle_path(tri)}" fill="none" stroke="#b9c4d0" '
            'stroke-width="0.004" class="triangle"/>'
        )
    for step, tri in enumerate(path.triangles):
        parts.append(
            f'<path d="{_triangle_path(tri)}" fill="#f2c46d" '
            'fill-opacity="0.45" stroke="#b35a1f" stroke-width="0.007" '
            f'class="path-triangle" data-step="{step}"/>'
        )
    for s in path.slopes():
        x, y = _disk_point(s)
        cls = "slope-label target" if s == path.target else "slope-label"
        parts.append(
            f'<text x="{1.09 * x:.5f}" y="{1.09 * y + 0.02:.5f}" '
            f'font-size="0.062" text-anchor="middle" class="{cls}">{s}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


_DRAW_EPS = 0.12


def lattice_line_svg(s: Slope) -> str:
    """One period of the offset line of slope p/q over the lattice.

    The grid (verticals, horizontals, slope-one diagonals) is drawn for
    the fundamental box, the offset line crosses it, every A/B crossing
    gets a marker and a letter (class "ab-label"), and every traversed
    triangle gets its L/R letter midway between consecutive crossings
    (class "lr-label").
    """
    require_positive(s)
    p, q = s.p, s.q
    scale = 90.0
    margin = 55.0
    ymax = p + 0.45
    ymin = -0.3
    width = 2 * margin + q * scale
    height = 2 * margin + (ymax - ymin) * scale

    def px(x: float, y: float) -> tuple[float, float]:
        return (margin + x * scale, margin + (ymax - y) * scale)

    def line_el(x1, y1, x2, y2, cls, colour, w) -> str:
        a, b = px(x1, y1), px(x2, y2)
        return (
            f'<line x1="{a[0]:.2f}" y1="{a[1]:.2f}" x2="{b[0]:.2f}" '
            f'y2="{b[1]:.2f}" stroke="{colour}" stroke-width="{w}" class="{cls}"/>'
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">'
    ]
    for k in range(q + 1):
        parts.append(line_el(k, 0, k, p, "grid", "#c8c8c8", 1))
    for m in range(p + 1):
        parts.append(line_el(0, m, q, m, "grid", "#c8c8c8", 1))
    for c in range(-q + 1, p):
        x1, x2 = max(0, -c), min(q, p - c)
        if x1 < x2:
            parts.append(line_el(x1, x1 + c, x2, x2 + c, "grid diagonal", "#dcd2b8", 1))
    parts.append(
        line_el(0, _DRAW_EPS, q, p + _DRAW_EPS, "cut-line", "#b03030", 2.5)
    )

    def event_xy(line: tuple[str, int]) -> tuple[float, float]:
        kind, idx = line
        if kind == "v":
            return (idx, p / q * idx + _DRAW_EPS)
        if kind == "h":
            return ((idx - _DRAW_EPS) * q / p, idx)
        x = (idx - _DRAW_EPS) * q / (p - q)
        return (x, x + idx)

    for (x0, coeff), letter in ab_events(p, q):
        # an A crossing's offset coefficient is 0, so it sits at x0
        x = float(x0) + float(coeff) * _DRAW_EPS
        y = p / q * x + _DRAW_EPS
        cx, cy = px(x, y)
        parts.append(
            f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="4" fill="#1f4f8f" '
            'class="crossing"/>'
        )
        parts.append(
            f'<text x="{cx:.2f}" y="{cy - 9:.2f}" font-size="16" '
            f'text-anchor="middle" class="ab-label">{letter}</text>'
        )

    events = lr_events(p, q)
    letters = lr_geometric_oracle(s).letters
    for i, letter in enumerate(letters):
        x1, y1 = event_xy(events[i][1])
        x2, y2 = event_xy(events[i + 1][1])
        cx, cy = px((x1 + x2) / 2, (y1 + y2) / 2)
        parts.append(
            f'<text x="{cx:.2f}" y="{cy + 22:.2f}" font-size="15" '
            f'fill="#555" text-anchor="middle" class="lr-label">{letter}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
