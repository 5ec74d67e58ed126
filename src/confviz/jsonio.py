"""Canonical JSON for every artifact the pipeline reads or writes.

Floats are emitted with 17 significant digits so a re-read reproduces the
exact double, and construction order of keys is preserved verbatim; the same
in-memory value therefore always serializes to the same bytes.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from typing import Any

import numpy as np

from .errors import ParameterError
from .graphs import Graph
from .incidence import IncidenceStructure


def _emit(value: Any, out: list[str]) -> None:
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        v = float(value)
        if not math.isfinite(v):
            raise ParameterError("non-finite number in artifact")
        out.append(format(v, ".17g"))
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, dict):
        out.append("{")
        for i, (k, v) in enumerate(value.items()):
            if not isinstance(k, str):
                raise ParameterError("artifact keys must be strings")
            if i:
                out.append(", ")
            out.append(json.dumps(k))
            out.append(": ")
            _emit(v, out)
        out.append("}")
    elif isinstance(value, (list, tuple)) or isinstance(value, np.ndarray):
        seq = value.tolist() if isinstance(value, np.ndarray) else value
        out.append("[")
        for i, v in enumerate(seq):
            if i:
                out.append(", ")
            _emit(v, out)
        out.append("]")
    else:
        raise ParameterError(f"cannot serialize {type(value).__name__}")


def dumps(obj: Any) -> str:
    out: list[str] = []
    _emit(obj, out)
    return "".join(out)


def save(path: str, obj: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))
        fh.write("\n")


def load(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# converters


@contextmanager
def _malformed(kind: str):
    """Report a missing key, a wrong type or an unparsable value in an
    artifact as one ParameterError; one raised already passes unchanged."""
    try:
        yield
    except ParameterError:
        raise
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ParameterError(f"malformed {kind} object: {exc}") from exc


def graph_to_obj(g: Graph) -> dict:
    obj: dict[str, Any] = {
        "order": g.order,
        "edges": [[u, v] for u, v in g.edges],
    }
    if g.labels is not None:
        obj["labels"] = list(g.labels)
    return obj


def graph_from_obj(obj: dict) -> Graph:
    with _malformed("graph"):
        labels = obj.get("labels")
        return Graph(
            order=int(obj["order"]),
            edges=tuple((int(u), int(v)) for u, v in obj["edges"]),
            labels=tuple(labels) if labels is not None else None,
        )


def incidence_to_obj(c: IncidenceStructure) -> dict:
    return {
        "points": c.points,
        "blocks": [list(b) for b in c.blocks],
        "provenance": c.provenance,
    }


def incidence_from_obj(obj: dict) -> IncidenceStructure:
    with _malformed("incidence"):
        return IncidenceStructure(
            points=int(obj["points"]),
            blocks=tuple(tuple(int(p) for p in b) for b in obj["blocks"]),
            provenance=str(obj.get("provenance", "")),
        )


def layout_to_obj(layout) -> dict:
    return {
        "graph": graph_to_obj(layout.graph),
        "pos": [[float(x), float(y)] for x, y in layout.pos],
        "meta": dict(layout.meta),
    }


def layout_from_obj(obj: dict):
    from .realization import Layout

    with _malformed("layout"):
        g = graph_from_obj(obj["graph"])
        pos = np.array([[float(x), float(y)] for x, y in obj["pos"]], dtype=float)
    if pos.shape != (g.order, 2):
        raise ParameterError("layout position table does not match graph order")
    return Layout(graph=g, pos=pos, meta=dict(obj.get("meta", {})))


def pcc_to_obj(cfg) -> dict:
    return {
        "points": [[float(x), float(y)] for x, y in cfg.points],
        "circles": [{"c": [c.cx, c.cy], "r": c.r} for c in cfg.circles],
        "incidence": [[p, k] for p, k in cfg.incidence],
        "flags": dict(cfg.flags),
        "tols": dict(cfg.tols),
    }


def pcc_from_obj(obj: dict):
    from .realization import Circle, PointCircleConfig

    with _malformed("point-circle"):
        points = np.array([[float(x), float(y)] for x, y in obj["points"]], dtype=float)
        circles = tuple(
            Circle(float(c["c"][0]), float(c["c"][1]), float(c["r"])) for c in obj["circles"]
        )
        incidence = tuple((int(p), int(k)) for p, k in obj["incidence"])
    return PointCircleConfig(
        points=points,
        circles=circles,
        incidence=incidence,
        flags=dict(obj.get("flags", {})),
        tols=dict(obj.get("tols", {})),
    )


def skeleton_to_obj(sk) -> dict:
    return {
        "name": sk.name,
        "graph": graph_to_obj(sk.graph),
        "coords": [[float(x) for x in row] for row in sk.coords],
    }


def skeleton_from_obj(obj: dict):
    from .spatial import PolytopeSkeleton

    with _malformed("skeleton"):
        g = graph_from_obj(obj["graph"])
        coords = np.array([[float(x) for x in row] for row in obj["coords"]], dtype=float)
        name = str(obj["name"])
    if coords.shape != (g.order, 3):
        raise ParameterError("skeleton coordinates do not match graph order")
    return PolytopeSkeleton(name=name, graph=g, coords=coords)


def pointplane_to_obj(cfg) -> dict:
    return {
        "points": [[float(x) for x in row] for row in cfg.points],
        "planes": [{"n": list(pl.normal), "d": pl.offset} for pl in cfg.planes],
        "incidence": [[p, j] for p, j in cfg.incidence],
        "max_residual": cfg.max_residual,
    }


def spherical_to_obj(cfg) -> dict:
    return {
        "sphere": {"c": [float(x) for x in cfg.center], "r": cfg.radius},
        "points": [[float(x) for x in row] for row in cfg.points],
        "circles": [
            {
                "n": list(sc.plane.normal),
                "d": sc.plane.offset,
                "center": [float(x) for x in sc.center],
                "radius": sc.radius,
            }
            for sc in cfg.circles
        ],
        "incidence": [[p, j] for p, j in cfg.incidence],
    }


def spherical_from_obj(obj: dict):
    from .spatial import Plane, SphereCircle, SphericalCircleConfig

    with _malformed("spherical"):
        center = np.array([float(x) for x in obj["sphere"]["c"]], dtype=float)
        radius = float(obj["sphere"]["r"])
        points = np.array([[float(x) for x in row] for row in obj["points"]], dtype=float)
        circles = tuple(
            SphereCircle(
                plane=Plane(tuple(float(x) for x in c["n"]), float(c["d"])),
                center=np.array([float(x) for x in c["center"]], dtype=float),
                radius=float(c["radius"]),
            )
            for c in obj["circles"]
        )
        incidence = tuple((int(p), int(j)) for p, j in obj["incidence"])
    return SphericalCircleConfig(
        center=center, radius=radius, points=points, circles=circles, incidence=incidence
    )


def pointline_from_obj(obj: dict) -> tuple[np.ndarray, tuple[tuple[int, ...], ...]]:
    with _malformed("point-line"):
        points = np.array([[float(x), float(y)] for x, y in obj["points"]], dtype=float)
        lines = tuple(tuple(int(p) for p in line) for line in obj["lines"])
    return points, lines


def detect_kind(obj: Any) -> str:
    """Classify a loaded artifact by its key shape."""
    if not isinstance(obj, dict):
        raise ParameterError("artifact must be a JSON object")
    if "order" in obj and "edges" in obj:
        return "graph"
    if "blocks" in obj and "points" in obj:
        return "incidence"
    if "pos" in obj and "graph" in obj:
        return "layout"
    if "sphere" in obj:
        return "spherical"
    if "planes" in obj:
        return "pointplane"
    if "coords" in obj and "graph" in obj:
        return "skeleton"
    if "lines" in obj and "points" in obj:
        return "pointline"
    if "circles" in obj and "points" in obj:
        return "pcc"
    raise ParameterError("unrecognized artifact shape")
