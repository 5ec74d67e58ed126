"""Deterministic SVG 1.1 output for layouts and circle configurations.

A render is a pure function of the artifact: floats are written with a
fixed format and elements in a fixed order, so rerunning on the same
input yields byte-identical files. Each kind of element is written from
one pass over its table (y negated, as SVG's y axis points down), and the
viewBox is the min/max over (x, y, pad) rows: circles padded by radius
and stroke, dots by their radius, labels by their text box.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError

_EDGE_COLOR = "#555555"
_CIRCLE_COLOR = "#1f77b4"
_POINT_COLOR = "#d62728"
_LABEL_COLOR = "#222222"
_DOT = '<circle cx="{:.6f}" cy="{:.6f}" r="{:.6f}" />\n'


def _fmt(v: float) -> str:
    if not math.isfinite(v):
        raise ParameterError("cannot render non-finite coordinate")
    out = format(v, ".6f")
    return "0.000000" if out == "-0.000000" else out


def _group(head: str, element: str, table: np.ndarray) -> str:
    """head, element filled in with each row of table, and </g>, a line each.
    Every field of element is a quoted {:.6f}, written as _fmt writes it."""
    if not np.isfinite(table).all():
        raise ParameterError("cannot render non-finite coordinate")
    body = (element * len(table)).format(*table.ravel().tolist())
    return f"{head}\n{body}</g>".replace('"-0.000000"', '"0.000000"')


def _flipped(table) -> np.ndarray:
    """A float copy of table with column 1 negated."""
    out = np.array(table, dtype=float)
    out[:, 1] = -out[:, 1]
    return out


def _scale_of(pts: np.ndarray) -> float:
    # reference length for strokes and dot radii
    if not len(pts):
        raise ParameterError("nothing to render")
    span = (pts.max(axis=0) - pts.min(axis=0)).tolist()
    return max(span[0], span[1], 1e-9)


def render_layout(layout, labels: bool = False) -> str:
    """Graph drawing: line per edge, dot per vertex, optional vertex labels."""
    pts = _flipped(layout.pos)
    ref = _scale_of(pts)
    ends = np.array(layout.graph.edges, dtype=np.intp).reshape(-1, 2)
    lines = _group(
        f'<g stroke="{_EDGE_COLOR}" stroke-width="{_fmt(0.004 * ref)}">',
        '<line x1="{:.6f}" y1="{:.6f}" x2="{:.6f}" y2="{:.6f}" />\n',
        pts.take(ends, axis=0).reshape(-1, 4),
    )
    texts = [layout.graph.label(v) for v in range(layout.graph.order)] if labels else None
    marks, boxes = _marks(pts, ref, texts)
    return _document([lines, *marks], boxes)


def render_config(cfg, labels: bool = False) -> str:
    """Point-circle drawing: stroked circles plus configuration points."""
    if len(cfg.circles) == 0:
        raise ParameterError("nothing to render")
    circles = _flipped(cfg.circles.view(float).reshape(-1, 3))
    pts = _flipped(cfg.points)
    ref = max(_scale_of(pts), 2.0 * float(circles[:, 2].max()))
    lw = 0.004 * ref
    rings = _group(f'<g fill="none" stroke="{_CIRCLE_COLOR}" stroke-width="{_fmt(lw)}">', _DOT, circles)
    marks, boxes = _marks(pts, ref, [str(i) for i in range(len(pts))] if labels else None)
    circles[:, 2] += lw
    return _document([rings, *marks], [circles, *boxes])


def _marks(pts: np.ndarray, ref: float, texts) -> tuple[list[str], list[np.ndarray]]:
    """A dot at each point and, unless texts is None, each text beside it:
    their elements and their (x, y, pad) rows."""
    dots = np.column_stack([pts, np.full(len(pts), 0.012 * ref)])
    parts = [_group(f'<g fill="{_POINT_COLOR}">', _DOT, dots)]
    if texts is None:
        return parts, [dots]
    size = 0.03 * ref
    off = 0.018 * ref
    at = np.column_stack([pts[:, 0] + off, pts[:, 1] - off])
    parts.append(f'<g fill="{_LABEL_COLOR}" font-family="sans-serif" font-size="{_fmt(size)}">')
    for (x, y), text in zip(at.tolist(), texts):
        safe = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        parts.append(f'<text x="{_fmt(x)}" y="{_fmt(y)}">{safe}</text>')
    parts.append("</g>")
    width = size * np.array([len(t) for t in texts], dtype=float) * 0.6
    return parts, [dots, np.column_stack([at[:, 0] + width, at[:, 1], np.full(len(at), size)])]


def _document(parts: list[str], boxes: list[np.ndarray]) -> str:
    """The SVG of parts, its viewBox holding every (x, y, pad) row of boxes
    with a 5 % margin."""
    rows = np.vstack(boxes)
    lo = (rows[:, :2] - rows[:, 2:]).min(axis=0).tolist()
    hi = (rows[:, :2] + rows[:, 2:]).max(axis=0).tolist()
    w = max(hi[0] - lo[0], 1e-9)
    h = max(hi[1] - lo[1], 1e-9)
    margin = 0.05 * max(w, h)
    box = " ".join(map(_fmt, (lo[0] - margin, lo[1] - margin, w + 2 * margin, h + 2 * margin)))
    head = f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="{box}">'
    return "\n".join([head, *parts, "</svg>"]) + "\n"
