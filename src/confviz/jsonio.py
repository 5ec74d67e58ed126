"""Canonical JSON for every artifact the pipeline reads or writes.

json's own encoder writes each float as its shortest round-trip repr and
keys in construction order, so the same in-memory value always serializes
to the same bytes, and every value reads back bit for bit. Writers hand
numpy tables and scalars to the encoder as they are. `read` is the one
entry point that loads an artifact file, checks its kind and converts it.
Readers only map an artifact's fields onto the constructor of its class,
which checks them as it checks a hand-built one: an index or a count only
as an integer (not 1.0, true or "1"), a coordinate or a radius only as a
number within float's range (not true or "1"), a label or provenance only
as a string, and meta, flags or tols only as a table that a file gives
back equal to itself.

Every output file, JSON or SVG, goes through `write_text`. It encodes the
whole text first, so an encoding error leaves an existing file as it was.
It then overwrites the file in place and cuts it to the new length, instead
of opening it with O_TRUNC as open(path, "w") does: on ext4, truncating an
existing file to zero starts writeback of its blocks at close (the
auto_da_alloc rule), which makes a small rewrite 20 to 40 times slower.
"""

from __future__ import annotations

import json
import os
import stat
from contextlib import contextmanager
from operator import itemgetter
from typing import Any

from .errors import ParameterError
from .graphs import Graph, _int_rows
from .incidence import IncidenceStructure


def _tolist(value: Any) -> Any:
    """numpy arrays and scalars as lists and Python numbers."""
    if not hasattr(value, "tolist"):
        raise TypeError(f"cannot serialize {type(value).__name__}")
    return value.tolist()


def dumps(obj: Any) -> str:
    """obj as canonical JSON text. A value that cannot be written is a
    ParameterError with the encoder's reason, save that a NaN or an
    infinity is named a non-finite number."""
    try:
        return json.dumps(obj, allow_nan=False, default=_tolist)
    except (ValueError, TypeError, RecursionError) as exc:
        reason = str(exc)
        if reason.startswith("Out of range float values"):
            reason = "non-finite number in artifact"
        raise ParameterError(reason) from exc


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
    artifact's class refuses as one ParameterError naming the kind; the
    report of a nested artifact (a layout's graph) passes unchanged."""
    try:
        yield
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        if isinstance(exc, ParameterError) and str(exc).startswith("malformed "):
            raise
        raise ParameterError(f"malformed {kind} object: {exc}") from exc


def graph_to_obj(g: Graph) -> dict:
    obj: dict[str, Any] = {"order": g.order, "edges": g.edges}
    if g.labels is not None:
        obj["labels"] = g.labels
    return obj


def graph_from_obj(obj: dict) -> Graph:
    with _malformed("graph"):
        return Graph(order=obj["order"], edges=obj["edges"], labels=obj.get("labels"))


def incidence_to_obj(c: IncidenceStructure) -> dict:
    return {"points": c.points, "blocks": c.blocks, "provenance": c.provenance}


def incidence_from_obj(obj: dict) -> IncidenceStructure:
    with _malformed("incidence"):
        return IncidenceStructure(points=obj["points"], blocks=obj["blocks"], provenance=obj.get("provenance", ""))


def layout_to_obj(layout) -> dict:
    return {"graph": graph_to_obj(layout.graph), "pos": layout.pos, "meta": layout.meta}


def layout_from_obj(obj: dict):
    from .realization import Layout

    with _malformed("layout"):
        return Layout(graph=graph_from_obj(obj["graph"]), pos=obj["pos"], meta=obj.get("meta", {}))


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
        # a centre of other than two numbers makes a row the table refuses
        circles = [(*c["c"], c["r"]) for c in obj["circles"]]
        return PointCircleConfig(obj["points"], circles, obj["incidence"], obj.get("flags", {}), obj.get("tols", {}))


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
    """Circles from their plane rows; each one's centre and radius follow
    from its row and the sphere, but are still required keys."""
    from .spatial import SphericalCircleConfig

    with _malformed("spherical"):
        rows = [(*n, d) for n, d, _, _ in map(itemgetter("n", "d", "center", "radius"), obj["circles"])]
        return SphericalCircleConfig(obj["sphere"]["c"], obj["sphere"]["r"], obj["points"], rows, obj["incidence"])


def pointline_from_obj(obj: dict):
    """Points as a float (n, 2) table and lines as tuples of integers."""
    from .realization import _float_table

    with _malformed("point-line"):
        points = _float_table(obj["points"], "point entry", "points must be an (n, 2) table", 2)
        return points, tuple(map(tuple, _int_rows(obj["lines"], "line entry", "lines")))


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
    # JSONDecodeError, UnicodeDecodeError, an integer past int's digit limit,
    # or arrays and objects nested past the interpreter's recursion limit
    except (ValueError, RecursionError) as exc:
        raise ParameterError(f"{path} is not valid JSON: {exc}")
    kind = detect_kind(obj)
    if kind not in kinds:
        want = ("an " if kinds[0][0] in "aeiou" else "a ") + " or ".join(kinds)
        raise ParameterError(f"{path}: expected {want} artifact, found {kind}")
    return _KINDS[kind][1](obj)
