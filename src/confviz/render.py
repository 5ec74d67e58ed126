"""Deterministic SVG 1.1 output for layouts and circle configurations.

A render is a pure function of the artifact: floats are written with a
fixed format and elements in a fixed order, so rerunning on the same
input yields byte-identical files.
"""

from __future__ import annotations

import math

from .errors import ParameterError

_EDGE_COLOR = "#555555"
_CIRCLE_COLOR = "#1f77b4"
_POINT_COLOR = "#d62728"
_LABEL_COLOR = "#222222"


def _fmt(v: float) -> str:
    if not math.isfinite(v):
        raise ParameterError("cannot render non-finite coordinate")
    out = format(v, ".6f")
    return "0.000000" if out == "-0.000000" else out


class _Canvas:
    def __init__(self):
        self.parts: list[str] = []
        self.lo = [math.inf, math.inf]
        self.hi = [-math.inf, -math.inf]

    def grow(self, x: float, y: float, pad: float = 0.0):
        self.lo[0] = min(self.lo[0], x - pad)
        self.lo[1] = min(self.lo[1], y - pad)
        self.hi[0] = max(self.hi[0], x + pad)
        self.hi[1] = max(self.hi[1], y + pad)

    def finish(self) -> str:
        if not self.parts or self.lo[0] > self.hi[0]:
            raise ParameterError("nothing to render")
        w = max(self.hi[0] - self.lo[0], 1e-9)
        h = max(self.hi[1] - self.lo[1], 1e-9)
        margin = 0.05 * max(w, h)
        box = (self.lo[0] - margin, self.lo[1] - margin, w + 2 * margin, h + 2 * margin)
        head = (
            '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'viewBox="{_fmt(box[0])} {_fmt(box[1])} {_fmt(box[2])} {_fmt(box[3])}">'
        )
        return "\n".join([head, *self.parts, "</svg>"]) + "\n"


def _scale_of(points) -> float:
    # reference length for strokes and dot radii
    xs = [p[0] for p in points]
    ys = [-p[1] for p in points]
    return max(max(xs) - min(xs), max(ys) - min(ys), 1e-9)


def render_layout(layout, labels: bool = False) -> str:
    """Graph drawing: line per edge, dot per vertex, optional vertex labels."""
    pts = [(float(x), -float(y)) for x, y in layout.pos]
    ref = _scale_of(layout.pos)
    lw = 0.004 * ref
    dot = 0.012 * ref
    cv = _Canvas()
    cv.parts.append(f'<g stroke="{_EDGE_COLOR}" stroke-width="{_fmt(lw)}">')
    for u, v in layout.graph.edges:
        (x1, y1), (x2, y2) = pts[u], pts[v]
        cv.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" />'
        )
    cv.parts.append("</g>")
    _draw_points(cv, pts, dot)
    if labels:
        _draw_labels(cv, pts, [layout.graph.label(v) for v in range(layout.graph.order)], ref)
    for x, y in pts:
        cv.grow(x, y, dot)
    return cv.finish()


def render_config(cfg, labels: bool = False) -> str:
    """Point-circle drawing: stroked circles plus configuration points."""
    if len(cfg.circles) == 0:
        raise ParameterError("nothing to render")
    circles = cfg.circles.view(float).reshape(-1, 3).tolist()
    pts = [(float(x), -float(y)) for x, y in cfg.points]
    ref = _scale_of(cfg.points)
    ref = max(ref, 2.0 * max(r for _, _, r in circles))
    lw = 0.004 * ref
    dot = 0.012 * ref
    cv = _Canvas()
    cv.parts.append(f'<g fill="none" stroke="{_CIRCLE_COLOR}" stroke-width="{_fmt(lw)}">')
    for cx, cy, r in circles:
        cv.parts.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(-cy)}" r="{_fmt(r)}" />')
        cv.grow(cx, -cy, r + lw)
    cv.parts.append("</g>")
    _draw_points(cv, pts, dot)
    if labels:
        _draw_labels(cv, pts, [str(i) for i in range(len(pts))], ref)
    for x, y in pts:
        cv.grow(x, y, dot)
    return cv.finish()


def _draw_points(cv: _Canvas, pts, dot: float):
    cv.parts.append(f'<g fill="{_POINT_COLOR}">')
    for x, y in pts:
        cv.parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(dot)}" />')
    cv.parts.append("</g>")


def _draw_labels(cv: _Canvas, pts, texts, ref: float):
    size = 0.03 * ref
    off = 0.018 * ref
    cv.parts.append(
        f'<g fill="{_LABEL_COLOR}" font-family="sans-serif" font-size="{_fmt(size)}">'
    )
    for (x, y), text in zip(pts, texts):
        safe = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        cv.parts.append(f'<text x="{_fmt(x + off)}" y="{_fmt(y - off)}">{safe}</text>')
        cv.grow(x + off + size * len(text) * 0.6, y - off, size)
    cv.parts.append("</g>")
