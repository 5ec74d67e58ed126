import json
import math
import os
import re
import stat
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from confviz import ParameterError, jsonio, polytope_data, sphere_circles, stereographic_project
from confviz.graphs import Graph, hypercube_graph, petersen_graph
from confviz.incidence import fano_plane
from confviz.layouts import layout_gen_cuboctahedron, layout_polygon, solve_unit_distance
from confviz.realization import Layout, PointCircleConfig, check_flags, circles_from_layout
from confviz.spatial import POLYTOPE_NAMES, SphericalCircleConfig, point_plane_vconstruct

ADMISSIBLE = tuple(name for name in POLYTOPE_NAMES if name != "octahedron")


def test_dumps_float_is_exact():
    x = 0.1 + 0.2
    s = jsonio.dumps({"v": x})
    assert s == '{"v": 0.30000000000000004}'
    assert float(s.split(": ")[1].rstrip("}")) == x


def test_dumps_rejects_non_finite():
    with pytest.raises(ParameterError, match="^non-finite number in artifact$"):
        jsonio.dumps({"v": math.inf})
    with pytest.raises(ParameterError, match="^non-finite number in artifact$"):
        jsonio.dumps([float("nan")])
    with pytest.raises(ParameterError, match="^non-finite number in artifact$"):
        jsonio.dumps([np.array([1.0, math.inf])])
    with pytest.raises(ParameterError, match="^cannot serialize complex$"):
        jsonio.dumps({"v": [1 + 2j]})


def test_dumps_gives_the_encoder_reason_for_anything_but_a_non_finite_number():
    # both were once reported as "non-finite number in artifact"
    table = {"a": []}
    table["a"].append(table)
    with pytest.raises(ParameterError, match="^Circular reference detected$"):
        jsonio.dumps(table)
    with pytest.raises(ParameterError, match=r"^Exceeds the limit \(4300 digits\) for integer string conversion"):
        jsonio.dumps({"n": 10**5000})


def test_dumps_preserves_key_order():
    assert jsonio.dumps({"b": 1, "a": 2}) == '{"b": 1, "a": 2}'


def test_graph_round_trip_bytes(tmp_path):
    g = hypercube_graph(3)
    obj = jsonio.graph_to_obj(g)
    path = str(tmp_path / "g.json")
    jsonio.save(path, obj)
    back = jsonio.graph_from_obj(jsonio.load(path))
    assert back == g
    assert jsonio.dumps(jsonio.graph_to_obj(back)) == jsonio.dumps(obj)


def test_incidence_round_trip_bytes():
    c = fano_plane()
    obj = jsonio.incidence_to_obj(c)
    back = jsonio.incidence_from_obj(obj)
    assert back == c
    assert jsonio.dumps(jsonio.incidence_to_obj(back)) == jsonio.dumps(obj)


def test_layout_round_trip_bytes():
    lay = layout_polygon(7)
    obj = jsonio.layout_to_obj(lay)
    back = jsonio.layout_from_obj(obj)
    assert back.graph == lay.graph
    assert np.array_equal(back.pos, lay.pos)
    assert back.meta == lay.meta
    assert jsonio.dumps(jsonio.layout_to_obj(back)) == jsonio.dumps(obj)


def test_layout_meta_survives_solver():
    lay, _ = solve_unit_distance(petersen_graph(), symmetry=5, seed=3)
    back = jsonio.layout_from_obj(jsonio.layout_to_obj(lay))
    assert back.meta["method"] == "orbit-lm"
    assert back.meta["seed"] == 3
    assert np.array_equal(back.pos, lay.pos)


def test_pcc_round_trip_bytes():
    lay, _ = solve_unit_distance(petersen_graph(), symmetry=5, seed=0)
    cfg = circles_from_layout(lay, 1e-9)
    obj = jsonio.pcc_to_obj(cfg)
    back = jsonio.pcc_from_obj(obj)
    assert np.array_equal(back.points, cfg.points)
    assert back.circles.tobytes() == cfg.circles.tobytes()
    assert back.incidence == cfg.incidence
    assert jsonio.dumps(jsonio.pcc_to_obj(back)) == jsonio.dumps(obj)


def test_pcc_reader_refuses_a_circle_the_table_refuses():
    for circle, why in [({"c": [0, 0], "r": -1}, "circle radius must be positive"),
                        ({"c": [0, float("nan")], "r": 1}, "circle parameters must be finite")]:
        obj = {"points": [[0.0, 0.0]], "circles": [circle], "incidence": []}
        with pytest.raises(ParameterError, match=f"^malformed point-circle object: {why}$"):
            jsonio.pcc_from_obj(obj)


@pytest.mark.parametrize("name", ADMISSIBLE)
def test_spherical_round_trip_bytes(name, tmp_path):
    # dodecahedron, icosahedron and cuboctahedron carry -0.0 coordinates
    sc = sphere_circles(polytope_data(name))
    obj = jsonio.spherical_to_obj(sc)
    path = str(tmp_path / "s.json")
    jsonio.save(path, obj)
    back = jsonio.read(path, "spherical")
    assert np.array_equal(back.points, sc.points)
    assert back.radius == sc.radius
    assert len(back.circles) == len(sc.circles)
    assert jsonio.dumps(jsonio.spherical_to_obj(back)) == jsonio.dumps(obj)


def test_spherical_reader_normalises_rows_and_refuses_bad_normals(tmp_path):
    sc = sphere_circles(polytope_data("cube"))
    obj = json.loads(jsonio.dumps(jsonio.spherical_to_obj(sc)))
    path = str(tmp_path / "s.json")
    jsonio.save(path, obj)
    assert jsonio.read(path, "spherical").circles.tobytes() == sc.circles.tobytes()
    # a scaled, flipped row reads as the writer's; centre and radius are derived
    first = obj["circles"][0]
    first.update(n=[-2.0 * x for x in first["n"]], d=-2.0 * first["d"], center=None, radius=None)
    jsonio.save(path, obj)
    assert np.allclose(jsonio.read(path, "spherical").circles, sc.circles, rtol=0.0, atol=1e-15)
    for bad in ({"n": [0, 0, 0]}, {"n": [float("nan"), 0, 1]}, {"n": [1, 0]}, {"n": [1, 0, 0, 0]}, {"d": "x"}):
        broken = json.loads(jsonio.dumps(obj))
        broken["circles"][1].update(bad)
        with open(path, "w") as fh:
            json.dump(broken, fh)
        with pytest.raises(ParameterError, match="^malformed spherical object: "):
            jsonio.read(path, "spherical")
    for key in ("center", "radius", "n", "d"):
        del obj["circles"][2][key]
        jsonio.save(path, obj)
        with pytest.raises(ParameterError, match=f"^malformed spherical object: '{key}'$"):
            jsonio.read(path, "spherical")
        obj["circles"][2][key] = 0.0


def test_a_hand_built_spherical_configuration_reads_back_bit_for_bit():
    """Rows the constructor normalised are kept as given when read back:
    a second pass through _plane_rows would move bits in most of these."""
    rng = np.random.default_rng(0)
    for _ in range(200):
        center, radius = rng.normal(size=3), rng.uniform(0.5, 2.0)
        normals = rng.normal(size=(5, 3))
        # each plane cuts the sphere, so every circle has a centre and radius
        d = normals @ center + rng.uniform(-0.9, 0.9, size=5) * radius * np.linalg.norm(normals, axis=1)
        incidence = [(p, k) for p in range(4) for k in range(5) if rng.random() < 0.5]
        cfg = SphericalCircleConfig(center, radius, rng.normal(size=(4, 3)), np.column_stack([normals, d]), incidence)
        text = jsonio.dumps(jsonio.spherical_to_obj(cfg))
        back = jsonio.spherical_from_obj(json.loads(text))
        assert back.circles.tobytes() == cfg.circles.tobytes()
        assert jsonio.dumps(jsonio.spherical_to_obj(back)) == text


def _with_first(rows, row):
    return [row] + rows[1:]


# case: (the key it replaces, its new value from the cube's object, the message read gives)
SPHERICAL_BREAKS = {
    "planar points": ("points", lambda o: [row[:2] for row in o["points"]],
                      r"points must be a finite \(n, 3\) table"),
    "4-d points": ("points", lambda o: [row + [0.0] for row in o["points"]], "points must be a finite"),
    "ragged points": ("points", lambda o: _with_first(o["points"], [0.0, 1.0]),
                      r"points must be a finite \(n, 3\) table"),
    "nan point": ("points", lambda o: _with_first(o["points"], [math.nan, 0.0, 0.0]), "points must be a finite"),
    "2-d centre": ("sphere", lambda o: {"c": [0.0, 0.0], "r": 1.0}, "centre must be a finite 3-vector"),
    "infinite centre": ("sphere", lambda o: {"c": [0.0, math.inf, 0.0], "r": 1.0}, "centre must be a finite"),
    "zero radius": ("sphere", lambda o: {"c": o["sphere"]["c"], "r": 0.0},
                    "radius must be finite and positive, not 0.0"),
    "negative radius": ("sphere", lambda o: {"c": o["sphere"]["c"], "r": -1.5}, "radius must be finite and positive"),
    "nan radius": ("sphere", lambda o: {"c": o["sphere"]["c"], "r": math.nan}, "radius must be finite and positive"),
    "point out of range": ("incidence", lambda o: o["incidence"] + [[8, 0]],
                           r"incidence \(8, 0\) outside 8 points and 8 circles"),
    "negative point": ("incidence", lambda o: o["incidence"] + [[-1, 0]], r"incidence \(-1, 0\) outside"),
    "circle out of range": ("incidence", lambda o: o["incidence"] + [[0, 8]], r"incidence \(0, 8\) outside"),
}


@pytest.mark.parametrize("case", SPHERICAL_BREAKS)
def test_spherical_reader_refuses_malformed_tables(case, tmp_path):
    # once read, such a file would make stereographic_project raise numpy's errors
    obj = json.loads(jsonio.dumps(jsonio.spherical_to_obj(sphere_circles(polytope_data("cube")))))
    key, change, message = SPHERICAL_BREAKS[case]
    obj[key] = change(obj)
    path = str(tmp_path / "s.json")
    with open(path, "w") as fh:
        json.dump(obj, fh)
    with pytest.raises(ParameterError, match=f"^malformed spherical object: .*{message}"):
        jsonio.read(path, "spherical")


def test_spherical_reader_takes_an_empty_point_table(tmp_path):
    obj = jsonio.spherical_to_obj(sphere_circles(polytope_data("cube")))
    obj.update(points=[], incidence=[])
    path = str(tmp_path / "s.json")
    jsonio.save(path, obj)
    assert jsonio.read(path, "spherical").points.shape == (0, 3)


def test_layout_and_pcc_readers_take_an_empty_point_table(tmp_path):
    # an empty (0, 2) table is written as []
    path = str(tmp_path / "a.json")
    jsonio.save(path, jsonio.layout_to_obj(Layout(Graph(0, ()), np.empty((0, 2)))))
    assert jsonio.read(path, "layout").pos.shape == (0, 2)
    jsonio.save(path, jsonio.pcc_to_obj(PointCircleConfig(np.empty((0, 2)), [(0.0, 0.0, 1.0)], ())))
    assert jsonio.read(path, "pcc").points.shape == (0, 2)


@pytest.mark.parametrize("name", ADMISSIBLE)
def test_projected_pcc_round_trip_bytes(name, tmp_path):
    cfg, _ = stereographic_project(sphere_circles(polytope_data(name)), seed=0)
    obj = jsonio.pcc_to_obj(check_flags(cfg))
    path = str(tmp_path / "p.json")
    jsonio.save(path, obj)
    assert jsonio.dumps(jsonio.pcc_to_obj(jsonio.read(path, "pcc"))) == jsonio.dumps(obj)


def test_negative_zero_keeps_its_sign(tmp_path):
    path = str(tmp_path / "z.json")
    jsonio.save(path, {"a": [-0.0, 0.0, -0.5, -10], "b": np.float64(-0.0)})
    obj = jsonio.load(path)
    assert [math.copysign(1.0, x) for x in obj["a"][:2]] == [-1.0, 1.0]
    assert type(obj["a"][0]) is float and type(obj["a"][3]) is int
    assert math.copysign(1.0, obj["b"]) == -1.0


@pytest.mark.parametrize(
    "layout",
    [
        lambda: layout_gen_cuboctahedron(5),  # r_outer, r_inner = 2.0, 1.0
        lambda: solve_unit_distance(hypercube_graph(3), seed=0)[0],  # residual 0.0
        lambda: solve_unit_distance(petersen_graph(), symmetry=5, seed=3)[0],
    ],
    ids=["cuboctahedron", "product-solve", "orbit-solve"],
)
def test_layout_meta_keeps_its_types(layout, tmp_path):
    lay = layout()
    path = str(tmp_path / "lay.json")
    jsonio.save(path, jsonio.layout_to_obj(lay))
    back = jsonio.read(path, "layout")
    assert back.meta == lay.meta
    assert {k: type(v) for k, v in back.meta.items()} == {k: type(v) for k, v in lay.meta.items()}


def test_pointplane_to_obj_shape():
    from confviz import point_plane_vconstruct

    ppc = point_plane_vconstruct(polytope_data("dodecahedron"))
    obj = jsonio.pointplane_to_obj(ppc)
    assert len(obj["planes"]) == 20
    assert jsonio.detect_kind(obj) == "pointplane"
    # planes carry unit normals
    for pl in obj["planes"]:
        assert abs(np.linalg.norm(pl["n"]) - 1.0) < 1e-12


def test_pointline_from_obj():
    pts, lines = jsonio.pointline_from_obj(
        {"points": [[0, 0], [1, 0], [2, 0]], "lines": [[0, 1, 2]]}
    )
    assert pts.shape == (3, 2)
    assert lines == ((0, 1, 2),)


def test_detect_kind():
    assert jsonio.detect_kind(jsonio.graph_to_obj(petersen_graph())) == "graph"
    assert jsonio.detect_kind(jsonio.incidence_to_obj(fano_plane())) == "incidence"
    assert jsonio.detect_kind(jsonio.layout_to_obj(layout_polygon(5))) == "layout"
    sk = polytope_data("cube")
    assert jsonio.detect_kind(jsonio.spherical_to_obj(sphere_circles(sk))) == "spherical"
    assert jsonio.detect_kind({"points": [], "lines": []}) == "pointline"
    assert jsonio.detect_kind({"points": [], "circles": [], "incidence": []}) == "pcc"
    with pytest.raises(ParameterError):
        jsonio.detect_kind({"what": 1})
    with pytest.raises(ParameterError):
        jsonio.detect_kind([1, 2])


def test_malformed_objects_rejected():
    with pytest.raises(ParameterError):
        jsonio.graph_from_obj({"order": 3})
    with pytest.raises(ParameterError):
        jsonio.incidence_from_obj({"points": 3})
    with pytest.raises(ParameterError):
        jsonio.layout_from_obj({"graph": jsonio.graph_to_obj(layout_polygon(4).graph), "pos": [[0, 0]]})
    # unparsable values are parameter errors too, wrapped once
    graph = jsonio.graph_to_obj(layout_polygon(4).graph)
    with pytest.raises(ParameterError, match="^malformed graph object: "):
        jsonio.graph_from_obj({"order": "ten", "edges": []})
    with pytest.raises(ParameterError, match="^malformed graph object: "):
        jsonio.layout_from_obj({"graph": {"order": "ten", "edges": []}, "pos": []})
    with pytest.raises(ParameterError, match="^malformed layout object: "):
        jsonio.layout_from_obj({"graph": graph, "pos": [[0, 0, 0]] * 4})
    with pytest.raises(ParameterError, match="^malformed point-circle object: "):
        jsonio.pcc_from_obj({"points": [], "circles": [{"c": [0, 0], "r": "one"}], "incidence": []})
    with pytest.raises(ParameterError, match="^malformed incidence object: "):
        jsonio.incidence_from_obj({"points": "three", "blocks": []})


def _artifact(kind):
    """A small valid artifact of each readable kind, as json.load gives it."""
    lay = layout_polygon(4)
    obj = {
        "graph": {"order": 3, "edges": [[0, 1], [1, 2]]},
        "incidence": {"points": 3, "blocks": [[0, 1], [1, 2]]},
        "layout": jsonio.layout_to_obj(lay),
        "pcc": jsonio.pcc_to_obj(circles_from_layout(lay, 1e-9, allow_degree_two=True)),
        "spherical": jsonio.spherical_to_obj(sphere_circles(polytope_data("cube"))),
        "pointline": {"points": [[0, 0], [1, 0], [2, 0]], "lines": [[0, 1, 2]]},
    }[kind]
    return json.loads(jsonio.dumps(obj))


_READERS = {
    "graph": (jsonio.graph_from_obj, "graph"),
    "incidence": (jsonio.incidence_from_obj, "incidence"),
    "layout": (jsonio.layout_from_obj, "layout"),
    "pcc": (jsonio.pcc_from_obj, "point-circle"),
    "spherical": (jsonio.spherical_from_obj, "spherical"),
    "pointline": (jsonio.pointline_from_obj, "point-line"),
}


def _with(obj, path, value):
    obj = json.loads(json.dumps(obj))
    *head, last = path
    target = obj
    for key in head:
        target = target[key]
    target[last] = value
    return obj


# how the class behind a reader names each index, count, coordinate and
# radius: by kind and the keys on the path to it; {!r} is the entry
NAMES = {
    ("graph", "order"): "graph order", ("graph", "edges"): "edge entry {!r}",
    ("incidence", "points"): "point count", ("incidence", "blocks"): "block entry {!r}",
    ("pcc", "incidence"): "incidence entry {!r}", ("spherical", "incidence"): "incidence entry {!r}",
    ("pointline", "lines"): "line entry {!r}",
    ("layout", "pos"): "position entry {!r}",
    ("pcc", "points"): "point entry {!r}", ("pcc", "circles", "c"): "circle entry {!r}",
    ("pcc", "circles", "r"): "circle entry {!r}",
    ("spherical", "points"): "point entry {!r}", ("spherical", "sphere", "c"): "sphere centre entry {!r}",
    ("spherical", "sphere", "r"): "sphere radius", ("spherical", "circles", "n"): "plane entry {!r}",
    ("spherical", "circles", "d"): "plane entry {!r}",
    ("pointline", "points"): "point entry {!r}",
}


def _refusal(kind, path, bad, want):
    """The whole message a reader gives for bad at path: its class's words
    for an entry that is not want, after the reader's prefix."""
    named = NAMES[(kind, *(key for key in path if isinstance(key, str)))].format(bad)
    return f"^malformed {_READERS[kind][1]} object: {re.escape(named)} must be {want}, not {type(bad).__name__}$"


# each index and count a reader takes: kind and the path to it
INDICES = [
    ("graph", ("order",)), ("graph", ("edges", 0, 1)),
    ("incidence", ("points",)), ("incidence", ("blocks", 0, 1)),
    ("pcc", ("incidence", 0, 0)), ("pcc", ("incidence", 0, 1)),
    ("spherical", ("incidence", 0, 0)), ("spherical", ("incidence", 0, 1)),
    ("pointline", ("lines", 0, 1)),
]


@pytest.mark.parametrize("kind, path", INDICES, ids=lambda x: "/".join(map(str, x)) if isinstance(x, tuple) else x)
@pytest.mark.parametrize("bad", [1.7, 1.0, True, "1"], ids=repr)
def test_readers_take_only_integers_as_indices(kind, path, bad):
    read = _READERS[kind][0]
    read(_artifact(kind))
    with pytest.raises(ParameterError, match=_refusal(kind, path, bad, "an integer")):
        read(_with(_artifact(kind), path, bad))


# each coordinate and radius a reader takes: kind and the path to it
COORDINATES = [
    ("layout", ("pos", 0, 1)),
    ("pcc", ("points", 1, 0)), ("pcc", ("circles", 0, "c", 1)), ("pcc", ("circles", 0, "r")),
    ("spherical", ("points", 0, 2)), ("spherical", ("sphere", "c", 0)), ("spherical", ("sphere", "r")),
    ("spherical", ("circles", 0, "n", 0)), ("spherical", ("circles", 0, "d")),
    ("pointline", ("points", 1, 0)),
]


@pytest.mark.parametrize("kind, path", COORDINATES, ids=lambda x: "/".join(map(str, x)) if isinstance(x, tuple) else x)
@pytest.mark.parametrize("bad", [True, "2.5"], ids=repr)
def test_readers_take_only_numbers_as_coordinates(kind, path, bad):
    read = _READERS[kind][0]
    with pytest.raises(ParameterError, match=_refusal(kind, path, bad, "a number")):
        read(_with(_artifact(kind), path, bad))


# each label, provenance, flag, tolerance and meta table, and each circle
# centre, a reader takes: kind, the path to it, a value of the wrong shape
# and what the reader says of it
SHAPES = [
    ("graph", ("labels",), "abc", "labels must be a sequence, not str"),
    ("graph", ("labels",), [1.5, True, "c"], "label 1.5 must be a string, not float"),
    ("graph", ("labels",), ["a", True, "c"], "label True must be a string, not bool"),
    ("incidence", ("provenance",), {"a": 1}, "provenance must be a string, not dict"),
    ("incidence", ("provenance",), 7, "provenance must be a string, not int"),
    ("layout", ("meta",), [["method", "polygon"]], "meta must be a mapping, not list"),
    ("pcc", ("flags",), [["proper", True]], "flags must be a mapping, not list"),
    ("pcc", ("tols",), [["incidence", 1e-9]], "tols must be a mapping, not list"),
    ("pcc", ("tols",), "incidence", "tols must be a mapping, not str"),
    ("pcc", ("circles", 0, "c"), [1.0, 0.0, 7, 8], "circles must be (cx, cy, r) rows"),
    ("pcc", ("circles", 0, "c"), [1.0], "circles must be (cx, cy, r) rows"),
    ("pcc", ("circles", 0, "c"), {"x": 1.0, "y": 0.0}, "circle entry 'x' must be a number, not str"),
]


@pytest.mark.parametrize("kind, path, bad, message", SHAPES, ids=lambda x: "/".join(map(str, x)) if isinstance(x, tuple) else None)
def test_readers_take_only_the_json_type_written(kind, path, bad, message):
    read, name = _READERS[kind]
    with pytest.raises(ParameterError, match=f"^malformed {name} object: {re.escape(message)}$"):
        read(_with(_artifact(kind), path, bad))


def test_save_appends_newline(tmp_path):
    path = str(tmp_path / "x.json")
    jsonio.save(path, {"a": 1})
    with open(path, "rb") as fh:
        data = fh.read()
    assert data == b'{"a": 1}\n'


# ---------------------------------------------------------------------------
# json's encoder against the numpy-branching emitter it replaced, which
# tests/oracles.py keeps as the reference for the old format

_finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -5e-324, 1.7976931348623157e308, 0.1 + 0.2]),
)
_int64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
_good_leaf = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    _finite,
    st.text(max_size=8),
    _finite.map(np.float64),
    _int64.map(np.int64),
    st.lists(_finite, max_size=5).map(lambda xs: np.array(xs, dtype=float)),
    st.lists(st.tuples(_finite, _finite), max_size=4).map(
        lambda rows: np.array(rows, dtype=float).reshape(-1, 2)
    ),
    st.lists(_int64, max_size=5).map(lambda xs: np.array(xs, dtype=np.int64)),
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
    )


_good = st.recursive(_good_leaf, _containers, max_leaves=20)
_bad_leaf = st.one_of(
    st.sampled_from([math.inf, -math.inf, math.nan]),
    st.sampled_from([np.float64(math.inf), np.float64(math.nan), np.array([1.0, math.inf])]),
    st.sampled_from([{(1, 2): []}]),
    st.sampled_from([object(), {1, 2}, b"bytes", 1 + 2j, range(3)]),
)


def _exact(value):
    """value as plain JSON data: numpy as lists and Python numbers, tuples as
    lists, dicts as their items in order, and each number tagged with its
    type, each float by its bits."""
    if hasattr(value, "tolist"):
        value = value.tolist()
    if isinstance(value, dict):
        return ("dict", [(k, _exact(v)) for k, v in value.items()])
    if isinstance(value, (list, tuple)):
        return [_exact(v) for v in value]
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    return (type(value).__name__, value)


@settings(max_examples=300, deadline=None)
@given(_good)
@example([-0.0, 5e-324, -5e-324, 1.7976931348623157e308, np.float64(-0.0), np.array([-0.0, 2.0])])
def test_dumps_round_trips_bit_for_bit(value):
    assert _exact(json.loads(jsonio.dumps(value))) == _exact(value)


def test_dumps_turns_scalar_keys_into_strings():
    # json's own behaviour; every writer keys its dicts by string literals
    assert jsonio.dumps({1: 0}) == '{"1": 0}'
    assert jsonio.dumps({None: "x"}) == '{"null": "x"}'


@settings(max_examples=150, deadline=None)
@given(_good, _bad_leaf, st.integers(0, 3), st.booleans())
def test_dumps_raises_where_oracle_emitter_raises(good, bad, depth, keyed):
    for _ in range(depth):
        bad = [bad]
    value = {"good": good, "bad": bad} if keyed else [good, bad]
    with pytest.raises(ParameterError):
        oracles.dumps(value)
    with pytest.raises(ParameterError):
        jsonio.dumps(value)


def _artifacts():
    lay, _ = solve_unit_distance(petersen_graph(), symmetry=5, seed=0)
    sk = polytope_data("dodecahedron")  # its sphere circles carry -0.0
    return {
        "graph": jsonio.graph_to_obj(petersen_graph()),
        "incidence": jsonio.incidence_to_obj(fano_plane()),
        "layout": jsonio.layout_to_obj(lay),
        "pcc": jsonio.pcc_to_obj(check_flags(circles_from_layout(lay, 1e-9))),
        "spherical": jsonio.spherical_to_obj(sphere_circles(sk)),
        "pointplane": jsonio.pointplane_to_obj(point_plane_vconstruct(sk)),
        "pointline": {"points": np.eye(2), "lines": ((0, 1),)},
    }


def test_every_artifact_kind_matches_oracle_emitter():
    for kind, obj in _artifacts().items():
        assert jsonio.detect_kind(obj) == kind
        if kind in ("graph", "incidence"):
            assert jsonio.dumps(obj) == oracles.dumps(obj), kind
        else:
            # the text differs from the 17-digit emitter's, the values do not
            assert _exact(json.loads(jsonio.dumps(obj))) == _exact(obj), kind
            assert json.loads(jsonio.dumps(obj)) == json.loads(oracles.dumps(obj)), kind


_TO_OBJ = {
    "graph": jsonio.graph_to_obj,
    "incidence": jsonio.incidence_to_obj,
    "layout": jsonio.layout_to_obj,
    "pcc": jsonio.pcc_to_obj,
    "spherical": jsonio.spherical_to_obj,
    "pointline": lambda pl: {"points": pl[0], "lines": pl[1]},
}


def test_old_format_files_still_read(tmp_path):
    """Files from the 17-digit writer, which printed integral floats as ints
    and -0.0 as -0, read as the same values as files from dumps. The one
    loss: a -0 in an old file reads as 0.0."""
    artifacts = _artifacts()
    artifacts["layout"] = jsonio.layout_to_obj(layout_gen_cuboctahedron(5))  # meta 2.0 and 1.0
    for kind, to_obj in _TO_OBJ.items():
        old, new = tmp_path / f"{kind}.old.json", tmp_path / f"{kind}.new.json"
        old.write_text(oracles.dumps(artifacts[kind]) + "\n")
        jsonio.save(str(new), artifacts[kind])
        from_old, from_new = (json.loads(jsonio.dumps(to_obj(jsonio.read(str(p), kind)))) for p in (old, new))
        assert from_old == from_new, kind
    old_n, new_n = (
        jsonio.read(str(tmp_path / f"spherical.{v}.json"), "spherical").circles[:, :3]
        for v in ("old", "new")
    )
    assert np.signbit(new_n[new_n == 0.0]).any() and not np.signbit(old_n[old_n == 0.0]).any()


def test_read_checks_kind_and_converts(tmp_path):
    path = tmp_path / "g.json"
    jsonio.save(str(path), jsonio.graph_to_obj(petersen_graph()))
    assert jsonio.read(str(path), "graph") == petersen_graph()
    with pytest.raises(ParameterError, match="expected an incidence or pcc artifact, found graph$"):
        jsonio.read(str(path), "incidence", "pcc")
    with pytest.raises(ParameterError, match="no such file"):
        jsonio.read(str(tmp_path / "missing.json"), "graph")
    path.write_text("{not json")
    with pytest.raises(ParameterError, match="is not valid JSON"):
        jsonio.read(str(path), "graph")


def test_read_refuses_a_kind_with_no_reader_before_opening(tmp_path):
    """No kind, an unknown kind, or the point-plane kind, which is written
    and never read, is refused before the file is opened; a point-plane
    file where a layout is expected names what it found."""
    path = tmp_path / "pp.json"
    jsonio.save(str(path), _artifacts()["pointplane"])
    for name in (str(tmp_path / "missing.json"), str(path)):
        with pytest.raises(ParameterError, match="^read needs at least one artifact kind$"):
            jsonio.read(name)
        for kinds in (("pointplane",), ("layout", "pointplane"), ("nosuch",)):
            with pytest.raises(ParameterError, match="^no reader for artifact kind '(pointplane|nosuch)'$"):
                jsonio.read(name, *kinds)
    with pytest.raises(ParameterError, match="expected a layout artifact, found pointplane$"):
        jsonio.read(str(path), "layout")


# ---------------------------------------------------------------------------
# the one writer every artifact and SVG goes through


@pytest.mark.parametrize("bad", [{"a": math.inf}, {"a": complex(1, 2)}])
def test_failed_save_keeps_the_old_file(tmp_path, bad):
    path = tmp_path / "x.json"
    jsonio.save(str(path), {"a": 1})
    before = path.read_bytes()
    with pytest.raises(ParameterError):
        jsonio.save(str(path), bad)
    assert path.read_bytes() == before


@settings(max_examples=60, deadline=None)
@given(st.text(), st.one_of(st.none(), st.binary(max_size=600)))
def test_write_text_leaves_exactly_the_new_bytes(tmp_path_factory, text, old):
    # old is what the path held before: nothing, or bytes longer or shorter
    path = tmp_path_factory.mktemp("w") / "x.json"
    if old is not None:
        path.write_bytes(old)
    jsonio.write_text(str(path), text)
    assert path.read_bytes() == text.encode("utf-8")


def test_write_text_writes_through_a_symlink(tmp_path):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("a much longer old artifact\n")
    inode = target.stat().st_ino
    link.symlink_to(target.name)
    jsonio.write_text(str(link), "new\n")
    assert link.is_symlink() and os.readlink(link) == target.name
    assert target.read_bytes() == b"new\n"
    assert target.stat().st_ino == inode


def test_write_text_gives_a_new_file_the_mode_of_open(tmp_path):
    old = os.umask(0o027)
    try:
        jsonio.write_text(str(tmp_path / "a.json"), "{}\n")
        with open(tmp_path / "b.json", "w", encoding="utf-8") as fh:
            fh.write("{}\n")
    finally:
        os.umask(old)
    mode = (tmp_path / "a.json").stat().st_mode
    assert mode == (tmp_path / "b.json").stat().st_mode
    assert stat.S_IMODE(mode) == 0o640


def test_write_text_never_truncates_on_open(tmp_path, monkeypatch):
    # opening with O_TRUNC makes ext4 flush the old blocks at close
    flags = []
    real_open = os.open

    def spy(path, flag, *args, **kwargs):
        flags.append(flag)
        return real_open(path, flag, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    path = tmp_path / "x.json"
    path.write_text("[" * 100)
    jsonio.save(str(path), [1, 2])
    jsonio.write_text(str(path), "<svg/>\n")
    assert len(flags) == 2 and not any(f & os.O_TRUNC for f in flags)
    assert path.read_bytes() == b"<svg/>\n"

