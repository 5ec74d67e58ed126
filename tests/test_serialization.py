import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from confviz import ParameterError, jsonio, polytope_data, sphere_circles, stereographic_project
from confviz.graphs import hypercube_graph, petersen_graph
from confviz.incidence import fano_plane
from confviz.realization import (
    check_flags,
    circles_from_layout,
    layout_polygon,
    solve_unit_distance,
)
from confviz.spatial import POLYTOPE_NAMES, point_plane_vconstruct

ADMISSIBLE = tuple(name for name in POLYTOPE_NAMES if name != "octahedron")


def test_dumps_float_is_exact():
    x = 0.1 + 0.2
    s = jsonio.dumps({"v": x})
    assert s == '{"v": 0.30000000000000004}'
    assert float(s.split(": ")[1].rstrip("}")) == x


def test_dumps_rejects_non_finite():
    with pytest.raises(ParameterError):
        jsonio.dumps({"v": math.inf})
    with pytest.raises(ParameterError):
        jsonio.dumps([float("nan")])


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
    assert back.circles == cfg.circles
    assert back.incidence == cfg.incidence
    assert jsonio.dumps(jsonio.pcc_to_obj(back)) == jsonio.dumps(obj)


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


@pytest.mark.parametrize("name", ADMISSIBLE)
def test_projected_pcc_round_trip_bytes(name, tmp_path):
    cfg, _ = stereographic_project(sphere_circles(polytope_data(name)), seed=0)
    obj = jsonio.pcc_to_obj(check_flags(cfg))
    path = str(tmp_path / "p.json")
    jsonio.save(path, obj)
    assert jsonio.dumps(jsonio.pcc_to_obj(jsonio.read(path, "pcc"))) == jsonio.dumps(obj)


def test_load_reads_negative_zero_as_a_float(tmp_path):
    path = tmp_path / "z.json"
    path.write_text('{"a": [-0, 0, -0.0, -0e0, -0.5, -10], "b": -0}')
    obj = jsonio.load(str(path))
    assert [math.copysign(1.0, x) for x in obj["a"][:4]] == [-1.0, 1.0, -1.0, -1.0]
    assert type(obj["a"][0]) is float and type(obj["a"][1]) is int
    assert obj["a"][4:] == [-0.5, -10] and type(obj["a"][5]) is int
    assert math.copysign(1.0, obj["b"]) == -1.0


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


def test_save_appends_newline(tmp_path):
    path = str(tmp_path / "x.json")
    jsonio.save(path, {"a": 1})
    with open(path, "rb") as fh:
        data = fh.read()
    assert data == b'{"a": 1}\n'


# ---------------------------------------------------------------------------
# the emitter against the numpy-branching oracle it replaced

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
    st.sampled_from([{1: 0}, {None: "x"}, {(1, 2): []}]),
    st.sampled_from([object(), {1, 2}, b"bytes", 1 + 2j, range(3)]),
)


@settings(max_examples=300, deadline=None)
@given(_good)
def test_dumps_matches_oracle_emitter(value):
    assert jsonio.dumps(value) == oracles.dumps(value)


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


def test_every_artifact_kind_matches_oracle_emitter():
    lay, _ = solve_unit_distance(petersen_graph(), symmetry=5, seed=0)
    sk = polytope_data("dodecahedron")
    objs = {
        "graph": jsonio.graph_to_obj(petersen_graph()),
        "incidence": jsonio.incidence_to_obj(fano_plane()),
        "layout": jsonio.layout_to_obj(lay),
        "pcc": jsonio.pcc_to_obj(check_flags(circles_from_layout(lay, 1e-9))),
        "spherical": jsonio.spherical_to_obj(sphere_circles(sk)),
        "pointplane": jsonio.pointplane_to_obj(point_plane_vconstruct(sk)),
        "pointline": {"points": np.eye(2), "lines": ((0, 1),)},
    }
    for kind, obj in objs.items():
        assert jsonio.detect_kind(obj) == kind
        assert jsonio.dumps(obj) == oracles.dumps(obj), kind


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
