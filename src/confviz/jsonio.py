"""Canonical JSON for every artifact the pipeline reads or writes.

json's own encoder writes each float as its shortest round-trip repr and
keys in construction order, so the same in-memory value always serializes
to the same bytes, and every value reads back bit for bit. Writers hand
numpy tables and scalars to the encoder as they are. `read` is the one
entry point that loads an artifact file, checks its kind and converts it.
Readers take an index or a count only as a JSON integer (not 1.0, true or
"1"), a coordinate or a radius only as a JSON number (not true or "1"), a
label or provenance only as a string, and flags, tols or meta as an object.

Every output file, JSON or SVG, goes through `write_text`. It encodes the
whole text first, so an encoding error leaves an existing file as it was.
It then overwrites the file in place and cuts it to the new length, instead
of opening it with O_TRUNC as open(path, "w") does: on ext4, truncating an
existing file to zero starts writeback of its blocks at close (the
auto_da_alloc rule), which makes a small rewrite 20 to 40 times slower.
"""

from __future__ import annotations

import json
import math
import os
import stat
from contextlib import contextmanager
from itertools import chain
from operator import itemgetter
from typing import Any

from .errors import ParameterError
from .graphs import Graph
from .incidence import IncidenceStructure


def _tolist(value: Any) -> Any:
    """numpy arrays and scalars as lists and Python numbers."""
    if not hasattr(value, "tolist"):
        raise TypeError(f"cannot serialize {type(value).__name__}")
    return value.tolist()


def dumps(obj: Any) -> str:
    try:
        return json.dumps(obj, allow_nan=False, default=_tolist)
    except ValueError as exc:
        raise ParameterError("non-finite number in artifact") from exc
    except TypeError as exc:
        raise ParameterError(str(exc)) from exc


def write_text(path: str, text: str) -> None:
    """Write text to path as UTF-8, leaving exactly its bytes there.

    Gives the bytes and the file mode of open(path, "w"), writes through a
    symlink and keeps the inode, but opens without O_TRUNC: the bytes go
    over the old ones in place and a regular file is then cut to their
    length, which spares ext4 the flush it starts when a truncated file is
    closed. Unlinking first would replace a symlink and reset the mode;
    writing a temporary file and renaming it over is flushed the same way.
    Pipes, FIFOs and devices such as /dev/null take the bytes and are not
    cut. As with open(path, "w") nothing is synced, so a crash before
    writeback can leave old bytes under the new length instead of an empty
    file; `read` reports either as invalid JSON when it does not parse.
    """
    data = text.encode("utf-8")
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view) :]
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, len(data))
        finally:
            os.close(fd)
    except OSError as exc:
        raise ParameterError(f"cannot write {path}: {exc.strerror or exc}")


def save(path: str, obj: Any) -> None:
    write_text(path, dumps(obj) + "\n")


def load(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# converters


@contextmanager
def _malformed(kind: str):
    """Report a missing key, a wrong type, an unparsable value or a table the
    artifact's dataclass rejects as one ParameterError naming the kind; the
    report of a nested artifact (a layout's graph) passes unchanged."""
    try:
        yield
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        if isinstance(exc, ParameterError) and str(exc).startswith("malformed "):
            raise
        raise ParameterError(f"malformed {kind} object: {exc}") from exc


def _int(x: Any) -> int:
    """x when it is a JSON integer; a float, a bool or a string is malformed."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"expected an integer, found {x!r}")
    return x


def _num(x: Any) -> float:
    """x as a float when it is a JSON number; a bool or a string is malformed."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError(f"expected a number, found {x!r}")
    return float(x)


def _json(x: Any, kind: type | tuple, what: str) -> Any:
    """x when it has the type json.load gives `what`; anything else is malformed."""
    if not isinstance(x, kind):
        raise ValueError(f"expected {what}, found {x!r}")
    return x


def graph_to_obj(g: Graph) -> dict:
    obj: dict[str, Any] = {"order": g.order, "edges": g.edges}
    if g.labels is not None:
        obj["labels"] = g.labels
    return obj


def graph_from_obj(obj: dict) -> Graph:
    with _malformed("graph"):
        labels = obj.get("labels")
        if labels is not None:
            labels = tuple(_json(s, str, "a string") for s in _json(labels, (list, tuple), "a list of strings"))
        return Graph(
            order=_int(obj["order"]),
            edges=tuple((_int(u), _int(v)) for u, v in obj["edges"]),
            labels=labels,
        )


def incidence_to_obj(c: IncidenceStructure) -> dict:
    return {"points": c.points, "blocks": c.blocks, "provenance": c.provenance}


def incidence_from_obj(obj: dict) -> IncidenceStructure:
    with _malformed("incidence"):
        points = _int(obj["points"])
        blocks = tuple(map(tuple, obj["blocks"]))
        # one pass over every entry's type; only a file that fails it pays
        # for _int on each entry, which names the first bad one
        if not {int}.issuperset(map(type, chain.from_iterable(blocks))):
            blocks = tuple(tuple(map(_int, b)) for b in blocks)
        return IncidenceStructure(
            points=points,
            blocks=blocks,
            provenance=_json(obj.get("provenance", ""), str, "a string"),
        )


def layout_to_obj(layout) -> dict:
    return {"graph": graph_to_obj(layout.graph), "pos": layout.pos, "meta": layout.meta}


def layout_from_obj(obj: dict):
    from .realization import Layout

    with _malformed("layout"):
        g = graph_from_obj(obj["graph"])
        pos = [[_num(x) for x in row] for row in obj["pos"]]
        return Layout(graph=g, pos=pos, meta=dict(_json(obj.get("meta", {}), dict, "an object")))


def pcc_to_obj(cfg) -> dict:
    return {
        "points": cfg.points,
        "circles": [{"c": [cx, cy], "r": r} for cx, cy, r in cfg.circles.view(float).reshape(-1, 3).tolist()],
        "incidence": cfg.incidence,
        "flags": cfg.flags,
        "tols": cfg.tols,
    }


def pcc_from_obj(obj: dict):
    from .realization import PointCircleConfig

    with _malformed("point-circle"):
        return PointCircleConfig(
            points=[[_num(x) for x in row] for row in obj["points"]],
            # a centre of other than two numbers makes a row the table refuses
            circles=[(*map(_num, c["c"]), _num(c["r"])) for c in obj["circles"]],
            incidence=tuple((_int(p), _int(k)) for p, k in obj["incidence"]),
            flags=dict(_json(obj.get("flags", {}), dict, "an object")),
            tols=dict(_json(obj.get("tols", {}), dict, "an object")),
        )


def pointplane_to_obj(cfg) -> dict:
    return {
        "points": cfg.points,
        "planes": [{"n": row[:3], "d": row[3]} for row in cfg.planes.tolist()],
        "incidence": cfg.incidence,
        "max_residual": cfg.max_residual,
    }


def spherical_to_obj(cfg) -> dict:
    from .spatial import _circle_cuts

    centers, radii = _circle_cuts(cfg)
    return {
        "sphere": {"c": cfg.center, "r": cfg.radius},
        "points": cfg.points,
        "circles": [
            {"n": row[:3], "d": row[3], "center": c, "radius": r}
            for row, c, r in zip(cfg.circles.tolist(), centers.tolist(), radii.tolist())
        ],
        "incidence": cfg.incidence,
    }


def spherical_from_obj(obj: dict):
    """The plane rows of the circles, normalised and oriented as the writer's;
    each circle's centre and radius follow from its row and the sphere, but
    are still required keys. Points must be a finite (n, 3) table, the
    sphere a finite 3-vector centre with a finite positive radius, and each
    incidence (point, circle) must name a point and a circle that exist."""
    import numpy as np

    from .spatial import SphericalCircleConfig, _plane_rows

    with _malformed("spherical"):
        circles = obj["circles"]
        fields = map(itemgetter("n", "d", "center", "radius"), circles)
        table = np.array([[*map(_num, n), _num(d)] for n, d, _, _ in fields], dtype=float).reshape(len(circles), 4)
        rows = [[_num(x) for x in row] for row in obj["points"]]
        points = np.array(rows, dtype=float) if rows else np.empty((0, 3))
        center = np.array([_num(x) for x in obj["sphere"]["c"]])
        radius = _num(obj["sphere"]["r"])
        incidence = tuple((_int(p), _int(j)) for p, j in obj["incidence"])
        if points.shape != (len(rows), 3) or not np.all(np.isfinite(points)):
            raise ValueError("points must be a finite (n, 3) table")
        if center.shape != (3,) or not np.all(np.isfinite(center)):
            raise ValueError("sphere centre must be a finite 3-vector")
        if not (math.isfinite(radius) and radius > 0):
            raise ValueError(f"sphere radius must be finite and positive, not {radius!r}")
        for p, j in incidence:
            if not (0 <= p < len(points) and 0 <= j < len(circles)):
                raise ValueError(f"incidence ({p}, {j}) outside {len(points)} points and {len(circles)} circles")
        return SphericalCircleConfig(
            center=center,
            radius=radius,
            points=points,
            circles=_plane_rows(table[:, :3], table[:, 3]),
            incidence=incidence,
        )


def pointline_from_obj(obj: dict):
    import numpy as np

    with _malformed("point-line"):
        points = np.array([[_num(x), _num(y)] for x, y in obj["points"]], dtype=float)
        lines = tuple(tuple(map(_int, line)) for line in obj["lines"])
    return points, lines


# Each kind once: the keys that identify it, tried in this order, and the
# reader that converts it. A point-plane artifact is written, never read.
_KINDS = {
    "graph": (("order", "edges"), graph_from_obj),
    "incidence": (("blocks", "points"), incidence_from_obj),
    "layout": (("pos", "graph"), layout_from_obj),
    "spherical": (("sphere",), spherical_from_obj),
    "pointplane": (("planes",), None),
    "pointline": (("lines", "points"), pointline_from_obj),
    "pcc": (("circles", "points"), pcc_from_obj),
}


def detect_kind(obj: Any) -> str:
    """Classify a loaded artifact by its key shape."""
    if not isinstance(obj, dict):
        raise ParameterError("artifact must be a JSON object")
    for kind, (keys, _) in _KINDS.items():
        if all(k in obj for k in keys):
            return kind
    raise ParameterError("unrecognized artifact shape")


def read(path: str, *kinds: str):
    """Load the artifact at path, which must be of one of the given kinds,
    and convert it with that kind's reader. A missing file, invalid JSON, an
    unreadable path, an unrecognized shape or another kind is a
    ParameterError."""
    try:
        obj = load(path)
    except FileNotFoundError:
        raise ParameterError(f"no such file: {path}")
    except OSError as exc:
        raise ParameterError(f"cannot read {path}: {exc.strerror or exc}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParameterError(f"{path} is not valid JSON: {exc}")
    kind = detect_kind(obj)
    if kind not in kinds:
        want = ("an " if kinds[0][0] in "aeiou" else "a ") + " or ".join(kinds)
        raise ParameterError(f"{path}: expected {want} artifact, found {kind}")
    return _KINDS[kind][1](obj)
