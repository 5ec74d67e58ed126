"""Numeric derivation of the (9_3) hexagrammum-mysticum structure.

Two carrier lines with three marked points each are intersected crosswise;
the nine collinear triples are then read off the coordinates, not written
down by hand. incidence.pappus_structure() and the pappus graph family
(its Levi graph) both take their blocks from this scan. Nine points need no
arrays: the arithmetic is on Python floats, so the commands that only need
the structure start without numpy.
"""

from __future__ import annotations

import math
from itertools import combinations

from .errors import DegeneracyError
from .incidence import IncidenceStructure

_COLLINEAR_TOL = 1e-9

Point = tuple[float, float]


def _line_intersection(p1: Point, p2: Point, q1: Point, q2: Point) -> Point:
    d1 = (p2[0] - p1[0], p2[1] - p1[1])
    d2 = (q2[0] - q1[0], q2[1] - q1[1])
    denom = d1[0] * d2[1] - d1[1] * d2[0]
    if abs(denom) < 1e-12:
        raise DegeneracyError("carrier lines chosen parallel; pick other anchors")
    t = ((q1[0] - p1[0]) * d2[1] - (q1[1] - p1[1]) * d2[0]) / denom
    return (p1[0] + t * d1[0], p1[1] + t * d1[1])


def _collinear(p: Point, q: Point, r: Point, scale: float) -> bool:
    area2 = abs((q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0]))
    return area2 <= _COLLINEAR_TOL * scale * scale


def derive_pappus_points() -> tuple[Point, ...]:
    """Nine (x, y) points of a generic planar realization, construction order."""
    a = ((0.0, 0.0), (1.0, 0.0), (2.7, 0.0))
    b = tuple((0.15 + s * 1.0, 1.0 + s * 0.22) for s in (0.0, 1.2, 2.1))
    g = _line_intersection(a[0], b[1], a[1], b[0])
    h = _line_intersection(a[0], b[2], a[2], b[0])
    i = _line_intersection(a[1], b[2], a[2], b[1])
    return (*a, *b, g, h, i)


def derive_pappus_structure() -> IncidenceStructure:
    """Scan all point triples for collinearity and assemble the structure."""
    pts = derive_pappus_points()
    scale = max(abs(x) for pt in pts for x in pt)
    for p, q in combinations(pts, 2):
        if math.dist(p, q) < 1e-6 * scale:
            raise DegeneracyError("derived points collide; anchors not generic")
    triples = [
        (i, j, k)
        for i, j, k in combinations(range(9), 3)
        if _collinear(pts[i], pts[j], pts[k], scale)
    ]
    if len(triples) != 9:
        raise DegeneracyError(f"expected 9 collinear triples, found {len(triples)}")
    counts = [0] * 9
    for t in triples:
        for p in t:
            counts[p] += 1
    if counts != [3] * 9:
        raise DegeneracyError("collinear triples do not form a (9_3) structure")
    return IncidenceStructure(points=9, blocks=tuple(triples), provenance="pappus")
