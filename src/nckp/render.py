"""Arc-diagram SVG emitter for partitions.

Vertices sit on a baseline, arcs are semicircular paths above it, one
<path> element per arc.  Multiple partitions stack vertically.
"""

from __future__ import annotations

from .diagrams import Partition

_VERTEX_GAP = 28
_MARGIN = 20
_LABEL_OFFSET = 16


def _diagram_group(p: Partition, y_base: float) -> list[str]:
    parts = []
    xs = {v: _MARGIN + (v - 1) * _VERTEX_GAP for v in range(1, p.n + 1)}
    for i, j in p.arcs:
        x1, x2 = xs[i], xs[j]
        r = (x2 - x1) / 2
        parts.append(
            f'<path d="M {x1} {y_base} A {r} {r} 0 0 1 {x2} {y_base}" '
            f'fill="none" stroke="black" stroke-width="1.2"/>'
        )
    for v in range(1, p.n + 1):
        parts.append(f'<circle cx="{xs[v]}" cy="{y_base}" r="2.5" fill="black"/>')
        parts.append(
            f'<text x="{xs[v]}" y="{y_base + _LABEL_OFFSET}" font-size="10" '
            f'text-anchor="middle">{v}</text>'
        )
    return parts


def render_svg(partitions: list[Partition]) -> str:
    """One SVG document with an arc diagram per partition."""
    rows = []
    y = 0.0
    width = _MARGIN * 2
    for p in partitions:
        span = max((j - i for i, j in p.arcs), default=0)
        height = span * _VERTEX_GAP / 2 + 50
        y += height
        rows.append("<g>" + "".join(_diagram_group(p, y - 24)) + "</g>")
        width = max(width, _MARGIN * 2 + max(p.n - 1, 0) * _VERTEX_GAP)
    total_height = y + _MARGIN
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{total_height}" viewBox="0 0 {width} {total_height}">'
        + "".join(rows)
        + "</svg>"
    )
