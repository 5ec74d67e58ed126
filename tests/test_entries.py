"""One verdict for a table, whether it is built by hand or read from a file.

Every reader maps an artifact's fields onto the constructor of its class
(or, for a point-line artifact, onto invert_pointline), and the class
checks them. So the same table, typed into the library or read from JSON,
is accepted with the same bits or refused with the same words; a reader
only puts "malformed <kind> object: " in front.
"""

import json
import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from confviz import jsonio
from confviz.cli import main
from confviz.errors import ParameterError
from confviz.graphs import Graph, _count, _real
from confviz.incidence import IncidenceStructure
from confviz.realization import Layout, PointCircleConfig, circles_from_layout, invert_pointline, layout_polygon
from confviz.realization import _seed, _tolerance
from confviz.spatial import PolytopeSkeleton, SphericalCircleConfig, polytope_data, sphere_circles

import oracles

CENTER = (0.5, 1.0)


def _artifact(kind):
    """A small valid artifact of each readable kind, as json.load gives it."""
    lay = layout_polygon(4)
    obj = {
        "graph": {"order": 3, "edges": [[0, 1], [1, 2]]},
        "incidence": {"points": 3, "blocks": [[0, 1], [1, 2]]},
        "layout": jsonio.layout_to_obj(lay),
        "pcc": jsonio.pcc_to_obj(circles_from_layout(lay, 1e-9, allow_degree_two=True)),
        "spherical": jsonio.spherical_to_obj(sphere_circles(polytope_data("cube"))),
        "pointline": {"points": [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], "lines": [[0, 1, 2]]},
    }[kind]
    return json.loads(jsonio.dumps(obj))


# each kind: the reader's name for it, its reader, the same fields built by
# hand, and the bytes that stand for what either built
KINDS = {
    "graph": ("graph", jsonio.graph_from_obj, lambda o: Graph(o["order"], o["edges"], o.get("labels")),
              lambda g: jsonio.dumps(jsonio.graph_to_obj(g))),
    "incidence": ("incidence", jsonio.incidence_from_obj,
                  lambda o: IncidenceStructure(o["points"], o["blocks"], o.get("provenance", "")),
                  lambda c: jsonio.dumps(jsonio.incidence_to_obj(c))),
    "layout": ("layout", jsonio.layout_from_obj,
               lambda o: Layout(KINDS["graph"][2](o["graph"]), o["pos"], o["meta"]),
               lambda lay: jsonio.dumps(jsonio.layout_to_obj(lay))),
    "pcc": ("point-circle", jsonio.pcc_from_obj,
            lambda o: PointCircleConfig(o["points"], [(*c["c"], c["r"]) for c in o["circles"]], o["incidence"],
                                        o["flags"], o["tols"]),
            lambda cfg: jsonio.dumps(jsonio.pcc_to_obj(cfg))),
    "spherical": ("spherical", jsonio.spherical_from_obj,
                  lambda o: SphericalCircleConfig(o["sphere"]["c"], o["sphere"]["r"], o["points"],
                                                  [(*c["n"], c["d"]) for c in o["circles"]], o["incidence"]),
                  lambda cfg: jsonio.dumps(jsonio.spherical_to_obj(cfg))),
    "pointline": ("point-line", lambda o: invert_pointline(*jsonio.pointline_from_obj(o), CENTER),
                  lambda o: invert_pointline(o["points"], o["lines"], CENTER),
                  lambda cfg: jsonio.dumps(jsonio.pcc_to_obj(cfg))),
}

# each entry of a table: kind and the path to it
INDEX_ENTRIES = [
    ("graph", ("edges", 1, 0)), ("incidence", ("blocks", 0, 1)),
    ("pcc", ("incidence", 2, 0)), ("pcc", ("incidence", 0, 1)),
    ("spherical", ("incidence", 3, 0)), ("spherical", ("incidence", 0, 1)),
    ("pointline", ("lines", 0, 2)),
]
COORDINATE_ENTRIES = [
    ("layout", ("pos", 2, 1)),
    ("pcc", ("points", 1, 0)), ("pcc", ("circles", 0, "c", 1)), ("pcc", ("circles", 1, "r")),
    ("spherical", ("points", 5, 2)), ("spherical", ("sphere", "c", 0)),
    ("spherical", ("circles", 0, "n", 0)), ("spherical", ("circles", 4, "d")),
    ("pointline", ("points", 1, 0)),
]
# a row of these tables may be of any length
RAGGED_OK = {("incidence", "blocks"), ("pointline", "lines")}

BAD = [True, False, "1", "2.5", None, 10**400, math.nan, [1, 2], "ragged"]


def _entry(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _with(obj, path, value):
    """A copy of obj with the entry at path replaced by value, or with the
    row that holds it one entry short when value is "ragged"."""
    obj = json.loads(json.dumps(obj))
    row = _entry(obj, path[:-1])
    if value == "ragged":
        row.pop()
    else:
        row[path[-1]] = value
    return obj


def _both(kind, obj):
    """What the reader and the hand-built path make of obj: each ('ok', the
    bytes of its result) or ('raised', type, message without the prefix)."""
    name, read, build, to_bytes = KINDS[kind]

    def outcome(fn):
        try:
            return "ok", to_bytes(fn(obj))
        except Exception as exc:  # noqa: BLE001 - the failure itself is compared
            return "raised", type(exc), str(exc).removeprefix(f"malformed {name} object: ")

    return outcome(read), outcome(build)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(INDEX_ENTRIES + COORDINATE_ENTRIES), st.sampled_from(BAD))
def test_a_bad_entry_gets_one_verdict_by_hand_and_from_a_file(entry, bad):
    kind, path = entry
    assume(bad != "ragged" or isinstance(_entry(_artifact(kind), path[:-1]), list))
    obj = _with(_artifact(kind), path, bad)
    read, built = _both(kind, obj)
    assert read == built
    if not (bad == "ragged" and (kind, path[0]) in RAGGED_OK):
        assert read[:2] == ("raised", ParameterError)


def _numbers(value):
    """value as each numeric type an entry may take, all with its own value."""
    if isinstance(value, int):
        return [np.int64(value), np.int32(value), np.uint16(value), np.intp(value)]
    out = [np.float64(value), np.float32(value)] if float(np.float32(value)) == value else [np.float64(value)]
    return out + ([int(value)] if value.is_integer() else [])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(INDEX_ENTRIES + COORDINATE_ENTRIES), st.data())
def test_numeric_entries_read_as_they_build_with_the_same_bits(entry, data):
    kind, path = entry
    obj = _artifact(kind)
    original = _both(kind, obj)[0]
    assert original[0] == "ok"
    number = data.draw(st.sampled_from(_numbers(_entry(obj, path))))
    _entry(obj, path[:-1])[path[-1]] = number
    assert _both(kind, obj) == (original, original)


TABLES = [("layout", "pos"), ("pcc", "points"), ("spherical", "points"), ("pointline", "points"),
          ("graph", "edges"), ("pcc", "incidence"), ("spherical", "incidence"), ("pointline", "lines")]


@pytest.mark.parametrize("kind, key", TABLES)
def test_arrays_get_one_verdict_by_hand_and_from_a_file(kind, key):
    obj = _artifact(kind)
    original = _both(kind, obj)[0]
    table = np.array(obj[key])
    for dtype in (np.float64, np.float32, np.int64, np.int32):
        obj[key] = table.astype(dtype)
        read, built = _both(kind, obj)
        assert read == built
        if table.dtype.kind == "i" and obj[key].dtype.kind == "f":
            assert read[:2] == ("raised", ParameterError)
        elif np.array_equal(obj[key], table):
            # an int table of integral coordinates, or a float table of exact values
            assert read == original


# ---------------------------------------------------------------------------
# tables that slipped through or crashed, one test each


def _square():
    return layout_polygon(4).graph


def test_a_layout_of_strings_is_refused():
    with pytest.raises(ParameterError, match=r"^position entry 'a' must be a number, not str$"):
        Layout(_square(), [["a", "b"], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]])


def test_an_inversion_center_of_strings_is_refused():
    with pytest.raises(ParameterError, match=r"^center entry 'a' must be a number, not str$"):
        invert_pointline([[0.0, 0.0], [1.0, 0.0]], [(0, 1)], ("a", 0))


def test_a_ragged_layout_is_refused():
    with pytest.raises(ParameterError, match=r"^position table must be \(order, 2\)$"):
        Layout(Graph(3, [(0, 1), (1, 2)]), [[0, 0], [1], [2, 2]])


def test_ragged_points_are_refused():
    with pytest.raises(ParameterError, match=r"^points must be an \(n, 2\) table$"):
        PointCircleConfig([[0, 0], [1]], [(0.0, 0.0, 1.0)], ())


def test_points_of_strings_are_refused():
    with pytest.raises(ParameterError, match=r"^point entry '1' must be a number, not str$"):
        PointCircleConfig([["1", "2"]], [(0.0, 0.0, 1.0)], ())


@pytest.mark.parametrize("row, shown", [(("1", 0, 1), "'1' must be a number, not str"),
                                        ((True, 0, 1), "True must be a number, not bool")])
def test_circle_rows_of_strings_or_bools_are_refused(row, shown):
    with pytest.raises(ParameterError, match=rf"^circle entry {re.escape(shown)}$"):
        PointCircleConfig([[0.0, 0.0]], [row], ())


def test_a_layout_of_bools_is_refused():
    with pytest.raises(ParameterError, match=r"^position entry True must be a number, not bool$"):
        Layout(_square(), [[True, False], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]])


def test_skeleton_coordinates_of_strings_are_refused():
    cube = polytope_data("cube")
    rows = [[str(x) for x in row] for row in cube.coords.tolist()]
    with pytest.raises(ParameterError, match=r"^coordinate entry '-1\.0' must be a number, not str$"):
        PolytopeSkeleton("cube", cube.graph, rows)


@pytest.mark.parametrize("entry, shown", [("1", "'1' must be a number, not str"), (True, "True must be a number, not bool")])
def test_coplanarity_of_strings_or_bools_is_refused(entry, shown):
    with pytest.raises(ParameterError, match=rf"^point entry {re.escape(shown)}$"):
        oracles.plane_row([[entry, 0, 0], [0, 1, 0], [0, 0, 1]])


@pytest.mark.parametrize("entry, shown", [("1", "'1' must be a number, not str"), (True, "True must be a number, not bool")])
def test_inverting_points_of_strings_or_bools_is_refused(entry, shown):
    with pytest.raises(ParameterError, match=rf"^point entry {re.escape(shown)}$"):
        invert_pointline([[0.0, 0.0], [entry, 0.0], [2.0, 0.0]], [(0, 1, 2)], CENTER)


def test_a_plain_float_array_of_circles_is_taken_as_its_rows():
    rows = [(0.0, 0.0, 1.0), (1.0, 0.5, 2.0)]
    table = PointCircleConfig([[0.0, 0.0]], np.array(rows), ()).circles
    assert table.tobytes() == PointCircleConfig([[0.0, 0.0]], rows, ()).circles.tobytes()
    assert table[1].cy == 0.5 and not table.flags.writeable


def _spherical(**change):
    cfg = sphere_circles(polytope_data("cube"))
    fields = dict(center=cfg.center, radius=cfg.radius, points=cfg.points, circles=cfg.circles,
                  incidence=cfg.incidence)
    return SphericalCircleConfig(**{**fields, **change})


def test_a_hand_built_spherical_configuration_is_checked():
    cfg = sphere_circles(polytope_data("cube"))
    nan_points = cfg.points.copy()
    nan_points[0, 0] = math.nan
    for points in (nan_points, cfg.points[:, :2]):
        with pytest.raises(ParameterError, match=r"^points must be a finite \(n, 3\) table$"):
            _spherical(points=points)
    with pytest.raises(ParameterError, match=r"^sphere radius must be finite and positive, not -1\.0$"):
        _spherical(radius=-1)
    with pytest.raises(ParameterError, match=r"^sphere centre must be a finite 3-vector$"):
        _spherical(center=[0.0, 0.0])
    with pytest.raises(ParameterError, match=r"^incidence \(0, 8\) outside 8 points and 8 circles$"):
        _spherical(incidence=cfg.incidence + ((0, 8),))
    with pytest.raises(ParameterError, match=r"^plane normal must be a nonzero vector$"):
        _spherical(circles=np.vstack([cfg.circles[:-1], [[0.0, 0.0, 0.0, 1.0]]]))
    # incidences keep their order; rows come out as _plane_rows gives them
    flipped = _spherical(circles=-2.0 * cfg.circles, incidence=cfg.incidence[::-1])
    assert flipped.incidence == cfg.incidence[::-1]
    assert np.allclose(flipped.circles, cfg.circles, rtol=0.0, atol=1e-15)


def test_a_circle_plane_that_misses_the_sphere_is_refused():
    """A plane as far from the centre as the radius, or farther, cuts out no
    circle. The constructor refuses it by its circle's index, so a
    hand-built configuration or a file fails where it is made, not when it
    is written."""
    with pytest.raises(ParameterError, match=r"^circle 0 misses the sphere \(5 from the centre, radius 1\)$"):
        SphericalCircleConfig([0, 0, 0], 1.0, [[0, 0, 1]], [[0, 0, 1, 5.0]], [(0, 0)])
    cfg = sphere_circles(polytope_data("cube"))
    tangent = cfg.circles.copy()
    tangent[3, 3] = -cfg.radius  # the plane touches the sphere at one point
    with pytest.raises(ParameterError, match=r"^circle 3 misses the sphere \(1\.73205 from the centre, radius 1\.73205\)$"):
        _spherical(circles=tangent)
    obj = json.loads(jsonio.dumps(jsonio.spherical_to_obj(cfg)))
    obj["circles"][3].update(d=2.0, center=None, radius=None)
    with pytest.raises(ParameterError, match=r"^malformed spherical object: circle 3 misses the sphere \(2 from"):
        jsonio.spherical_from_obj(obj)


def test_an_integer_too_large_for_a_float_is_refused():
    pos = [[10**400, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]]
    with pytest.raises(ParameterError, match=r"^position entry 10{400} is too large for a float$"):
        Layout(_square(), pos)


@pytest.mark.parametrize("argv", [["circles"], ["render", "-o", "pic.svg"]])
def test_a_layout_file_with_a_huge_integer_is_a_usage_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    obj = json.loads(jsonio.dumps(jsonio.layout_to_obj(layout_polygon(4))))
    obj["pos"][0][0] = 10**400
    (tmp_path / "lay.json").write_text(json.dumps(obj))
    code = main([argv[0], "lay.json", *argv[1:]])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: malformed layout object: position entry 1{'0' * 400} is too large for a float\n"


@pytest.mark.parametrize("edges, named", [([(0, 1, 2)], r"\(0, 1, 2\)"), ([(0,)], r"\(0,\)")])
def test_edges_that_are_not_pairs_are_refused(edges, named):
    with pytest.raises(ParameterError, match=rf"^edge {named} is not a pair of vertices$"):
        Graph(3, edges)
    with pytest.raises(ParameterError, match=rf"^malformed graph object: edge {named} is not a pair of vertices$"):
        jsonio.graph_from_obj({"order": 3, "edges": [list(e) for e in edges]})


def test_a_file_with_an_integer_past_the_digit_limit_is_a_usage_error(tmp_path, capsys):
    # json.load refuses such an integer with a plain ValueError, not a JSONDecodeError
    (tmp_path / "g.json").write_text('{"order": ' + "1" * 5000 + ', "edges": []}')
    assert main(["vconstruct", str(tmp_path / "g.json")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {tmp_path / 'g.json'} is not valid JSON: Exceeds the limit")


# ---------------------------------------------------------------------------
# labels, provenance and meta: checked by their classes, like every table

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
# each field: the kind that holds it, its writer, and values as json.load
# gives them, some that its class takes and some that it refuses
FIELDS = {
    "labels": ("graph", jsonio.graph_to_obj, st.lists(st.text(max_size=3), min_size=3, max_size=3)
               | st.lists(st.text(max_size=3) | _JSON, min_size=3, max_size=3) | _JSON),
    "provenance": ("incidence", jsonio.incidence_to_obj, st.text(max_size=5) | _JSON),
    "meta": ("layout", jsonio.layout_to_obj, st.dictionaries(st.text(max_size=3), _JSON, max_size=3) | _JSON),
}


def _compared(x):
    """What equality means for an artifact: a layout's graph, positions and
    meta, any other artifact itself."""
    return (x.graph, x.pos.tolist(), x.meta) if isinstance(x, Layout) else x


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(FIELDS)), st.data())
def test_labels_provenance_and_meta_get_one_verdict_and_read_back_as_built(field, data):
    kind, to_obj, values = FIELDS[field]
    obj = _artifact(kind)
    obj[field] = data.draw(values)
    read, built = _both(kind, obj)
    assert read == built
    try:
        made = KINDS[kind][2](obj)
    except ParameterError as exc:
        refusal = exc
    else:
        refusal = None
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "a.json")
        if refusal is None:
            jsonio.save(path, to_obj(made))
            assert _compared(jsonio.read(path, kind)) == _compared(made)
        else:
            jsonio.save(path, obj)
            prefix = f"malformed {KINDS[kind][0]} object: "
            with pytest.raises(ParameterError, match=f"^{re.escape(prefix + str(refusal))}$"):
                jsonio.read(path, kind)


@pytest.mark.parametrize("build, refusal", [
    (lambda: IncidenceStructure(3, ((0, 1, 2),), provenance=5), "provenance must be a string, not int"),
    (lambda: IncidenceStructure(3, ((0, 1, 2),), provenance=None), "provenance must be a string, not NoneType"),
    (lambda: Layout(_square(), layout_polygon(4).pos, meta=[1, 2]), "meta must be a mapping, not list"),
    (lambda: Layout(_square(), layout_polygon(4).pos, meta=None), "meta must be a mapping, not NoneType"),
    (lambda: Graph(3, [(0, 1)], "abc"), "labels must be a sequence, not str"),
    (lambda: Graph(3, [(0, 1)], {"a": 0, "b": 1, "c": 2}), "labels must be a sequence, not dict"),
    (lambda: Graph(3, [(0, 1)], [1, 2, 3]), "label 1 must be a string, not int"),
    (lambda: Graph(2, [(0, 1)], [None, True]), "label None must be a string, not NoneType"),
])
def test_a_field_no_reader_would_take_is_refused_when_built(build, refusal):
    # each of these once saved without error, into a file that read refused
    with pytest.raises(ParameterError, match=f"^{re.escape(refusal)}$"):
        build()


@pytest.mark.parametrize("field", ["meta", "flags", "tols"])
@pytest.mark.parametrize("table, shown", [
    ({1: ("a", "b")}, "{1: ('a', 'b')} reads back from a file as {'1': ['a', 'b']}"),
    ({"a": {4: 1}}, "{'a': {4: 1}} reads back from a file as {'a': {'4': 1}}"),
    ({"a": [{"b": 0}, {2.5: 0}]}, "{'a': [{'b': 0}, {2.5: 0}]} reads back from a file as {'a': [{'b': 0}, {'2.5': 0}]}"),
    ({"a": ({None: 0},)}, "{'a': ({None: 0},)} reads back from a file as {'a': [{'null': 0}]}"),
])
def test_a_key_that_would_read_back_changed_is_refused_built_and_read(field, table, shown):
    # JSON keeps only string keys: {1: ...} once saved and read back as {"1": ...}
    lay = layout_polygon(4)
    kind = "layout" if field == "meta" else "pcc"
    name, read, build, _ = KINDS[kind]
    obj = jsonio.layout_to_obj(lay) if kind == "layout" else _artifact("pcc")
    refusal = f"{field} {shown}"
    with pytest.raises(ParameterError, match=f"^{re.escape(refusal)}$"):
        build({**obj, field: table})
    # the same table as a reader meets it, had the file's parser kept other keys
    with pytest.raises(ParameterError, match=f"^malformed {name} object: {re.escape(refusal)}$"):
        read({**obj, field: table})
    # with string keys the table is taken, and a file gives it back unchanged
    text = json.loads(json.dumps(table))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "a.json")
        jsonio.save(path, {**obj, field: text})
        assert getattr(jsonio.read(path, kind), field) == text == getattr(build({**obj, field: text}), field)


def test_a_table_that_holds_itself_is_refused():
    # once accepted when built, and then refused by save as a non-finite number
    lay = layout_polygon(4)
    meta = {"a": [1]}
    meta["a"].append(meta)
    with pytest.raises(ParameterError, match="^meta cannot be written to a file: Circular reference detected$"):
        Layout(lay.graph, lay.pos, meta)


@pytest.mark.parametrize("radius, text", [(0, "0.0"), (-1, "-1.0"), (math.inf, "inf"), (math.nan, "nan")])
def test_a_radius_is_finite_and_positive_by_one_rule_on_the_sphere_and_in_inversion(radius, text, capsys):
    with pytest.raises(ParameterError, match=rf"^sphere radius must be finite and positive, not {text}$"):
        _spherical(radius=radius)
    refusal = f"inversion radius must be finite and positive, not {text}"
    with pytest.raises(ParameterError, match=f"^{refusal}$"):
        invert_pointline([[0.0, 0.0], [1.0, 0.0]], [(0, 1)], CENTER, radius=radius)
    capsys.readouterr()
    assert main(["invert", "pappus", "--center", "0.4", "0.37", "--radius", str(radius)]) == 2
    assert capsys.readouterr().err == f"error: {refusal}\n"


def _refusal(fn, value):
    with pytest.raises(ParameterError) as caught:
        fn(value)
    return str(caught.value)


@pytest.mark.parametrize("value", [3.0, True, "3", None, -1, -(2**70)])
def test_a_seed_follows_the_count_rule(value):
    if value is None:
        assert _seed(value) == 0
    else:
        assert _refusal(_seed, value) == _refusal(lambda v: _count(v, "seed"), value)


@pytest.mark.parametrize("value", [True, "1e-9", None, [1e-9], 10**400])
def test_a_tolerance_follows_the_number_rule(value):
    refusal = _refusal(lambda v: _tolerance("cluster", v), value)
    assert refusal == _refusal(lambda v: _real(v, "cluster tolerance"), value)


@pytest.mark.parametrize("pair", [(8, 0), (0, 8), (-1, 3), (10**20, 0), (0, -(10**20))])
def test_an_incidence_pair_out_of_range_gets_one_text_in_the_plane_and_on_the_sphere(pair):
    cfg = sphere_circles(polytope_data("cube"))
    assert (len(cfg.points), len(cfg.circles)) == (8, 8)
    circles = [(float(k), 0.0, 1.0) for k in range(8)]
    refusal = f"^incidence {re.escape(str(pair))} outside 8 points and 8 circles$"
    with pytest.raises(ParameterError, match=refusal):
        PointCircleConfig(cfg.points[:, :2], circles, cfg.incidence + (pair,))
    with pytest.raises(ParameterError, match=refusal):
        _spherical(incidence=cfg.incidence + (pair,))
