"""One rule for meta, flags and tols: a table is taken exactly when its
text, written by jsonio.dumps and read back by json.loads, compares equal
to it. Whatever is taken saves, reads back equal and saves again to the
same bytes, and so does every artifact the library writes. Counts no
artifact can hold and a graph field that is not a Graph are refused in
the library and at the command line alike."""

import json
import math
import re
import reprlib
import time
from fractions import Fraction
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confviz import graphs, jsonio
from confviz.cli import main
from confviz.errors import ParameterError
from confviz.graphs import MAX_ORDER, Graph, build_family, cartesian_factors, cartesian_product, kronecker_cover
from confviz.graphs import line_graph
from confviz.incidence import IncidenceStructure, decompose, fano_plane, levi_graph, pappus_structure, v_construct
from confviz.pappus import derive_pappus_points
from confviz.realization import (
    Layout,
    PointCircleConfig,
    check_flags,
    circles_from_layout,
    incidence_of,
    invert_pointline,
    layout_gen_cuboctahedron,
    layout_hypercube,
    layout_polygon,
    realize_n3,
    solve_unit_distance,
)
from confviz.spatial import PolytopeSkeleton, polytope_data, sphere_circles, stereographic_project

_FIELDS = ("meta", "flags", "tols")

_JSON_LEAVES = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(
    max_size=3
)
# numpy scalars, which a file gives back equal as Python numbers
_NUMPY_LEAVES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
)
# leaves a file changes or cannot hold, and some it gives back equal
_OTHER_LEAVES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.integers(4300, 4310).map(lambda digits: 10**digits),  # past int's digit limit for text
    st.fractions(max_denominator=4),
    st.floats(width=32).map(np.float32),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=3).map(np.array),
    _NUMPY_LEAVES,
)
_KEYS = st.text(max_size=3) | st.integers(-3, 3) | st.none() | st.booleans() | st.floats(allow_nan=False, width=16)

# tables a file gives back equal: string keys, lists, finite numbers
_TAKEN_TABLES = st.dictionaries(
    st.text(max_size=3),
    st.recursive(
        _JSON_LEAVES | _NUMPY_LEAVES,
        lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=3), children, max_size=3),
        max_leaves=8,
    ),
    max_size=3,
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(_KEYS, children, max_size=3),
    )


_ANY_TABLES = st.dictionaries(_KEYS, st.recursive(_JSON_LEAVES | _OTHER_LEAVES, _containers, max_leaves=8), max_size=3)


def _holding_itself(table):
    table["self"] = [table]
    return table


# tables a file gives back, tables of anything, and tables that hold themselves
_TABLES = st.one_of(_TAKEN_TABLES, _ANY_TABLES, _ANY_TABLES.map(_holding_itself))


def _base(kind):
    """A small artifact of the kind that holds each field, as json.load gives it."""
    lay = layout_polygon(4)
    if kind == "layout":
        return json.loads(jsonio.dumps(jsonio.layout_to_obj(lay)))
    return json.loads(jsonio.dumps(jsonio.pcc_to_obj(circles_from_layout(lay, 1e-9, allow_degree_two=True))))


def _kind(field):
    return "layout" if field == "meta" else "pcc"


def _build(field, table):
    """The artifact holding table as field, built by hand."""
    obj = _base(_kind(field))
    if field == "meta":
        return Layout(jsonio.graph_from_obj(obj["graph"]), obj["pos"], table)
    obj[field] = table
    circles = [(*c["c"], c["r"]) for c in obj["circles"]]
    return PointCircleConfig(obj["points"], circles, obj["incidence"], obj["flags"], obj["tols"])


def _to_obj(x):
    return jsonio.layout_to_obj(x) if isinstance(x, Layout) else jsonio.pcc_to_obj(x)


def _state(x):
    """What equality means for a layout or a configuration."""
    if isinstance(x, Layout):
        return x.graph, x.pos.tolist(), x.meta
    return x.points.tolist(), x.circles.tolist(), x.incidence, x.flags, x.tols


def _refusal(field, table):
    """Why a file would not give table back, or None when it does."""
    try:
        back = json.loads(jsonio.dumps(table))
    except ParameterError as exc:
        return f"{field} cannot be written to a file: {exc}"
    try:
        same = back == table
    except ValueError:  # a numpy array of several entries against its list
        same = False
    return None if same else f"{field} {reprlib.repr(table)} reads back from a file as {reprlib.repr(back)}"


def _saved_and_read(made, tmp_path):
    """made saved and read back, and the bytes it was saved as."""
    path = str(tmp_path / "a.json")
    jsonio.save(path, _to_obj(made))
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return jsonio.read(path, "layout", "pcc"), text


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(_FIELDS), _TABLES)
def test_a_table_is_taken_exactly_when_a_file_gives_it_back(field, table):
    refusal = _refusal(field, table)
    obj = {**_base(_kind(field)), field: table}
    reader = jsonio.layout_from_obj if field == "meta" else jsonio.pcc_from_obj
    if refusal is None:
        assert _state(_build(field, table)) == _state(reader(obj))
        return
    with pytest.raises(ParameterError, match=f"^{re.escape(refusal)}$"):
        _build(field, table)
    # the same table as a reader meets it, had the file's parser kept it as it is
    name = "layout" if field == "meta" else "point-circle"
    with pytest.raises(ParameterError, match=f"^malformed {name} object: {re.escape(refusal)}$"):
        reader(obj)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_FIELDS), _TAKEN_TABLES)
def test_a_taken_table_saves_reads_back_equal_and_saves_again_to_the_same_bytes(tmp_path_factory, field, table):
    assert _refusal(field, table) is None
    tmp = tmp_path_factory.mktemp("t")
    made = _build(field, table)
    back, text = _saved_and_read(made, tmp)
    assert _state(back) == _state(made)
    # read from a file, it saves again to that file's bytes
    again, text_again = _saved_and_read(back, tmp)
    assert text_again == text
    assert _state(again) == _state(back)


def _library_artifacts():
    """One artifact of each kind from every builder that writes one."""
    petersen = build_family("petersen")
    families = [
        ("petersen",), ("dodecahedron",), ("desargues",), ("pappus",), ("cycle", 5), ("path", 4), ("complete", 4),
        ("prism", 5), ("hypercube", 3), ("kneser", 5, 2), ("bipartite_kneser", 5, 2), ("odd", 3),
        ("gen_petersen", 7, 2), ("gen_cuboctahedron", 5),
    ]
    hypercube = layout_hypercube(3, seed=0)
    cube = sphere_circles(polytope_data("cube"))
    pappus_lines = pappus_structure().blocks
    return {
        **{f"family {'/'.join(map(str, f))}": lambda f=f: build_family(*f) for f in families},
        "line_graph": lambda: line_graph(petersen),
        "cartesian_product": lambda: cartesian_product(build_family("cycle", 3), build_family("path", 2)),
        "cartesian_factors": lambda: cartesian_factors(build_family("hypercube", 3))[0][0],
        "kronecker_cover": lambda: kronecker_cover(petersen)[0],
        "levi_graph": lambda: levi_graph(fano_plane())[0],
        "v_construct": lambda: v_construct(petersen),
        "v_construct collapse": lambda: v_construct(build_family("cycle", 4), collapse=True),
        "decompose": lambda: decompose(v_construct(build_family("hypercube", 3)))[1],
        "fano_plane": fano_plane,
        "pappus_structure": pappus_structure,
        "incidence_of": lambda: incidence_of(circles_from_layout(hypercube)),
        "layout_polygon": lambda: layout_polygon(5),
        "layout_hypercube": lambda: hypercube,
        "layout_gen_cuboctahedron": lambda: layout_gen_cuboctahedron(5, Fraction(5, 2), 1),
        "solve_unit_distance": lambda: solve_unit_distance(build_family("hypercube", 3), seed=0)[0],
        "solve_unit_distance symmetric": lambda: solve_unit_distance(petersen, symmetry=5, seed=3)[0],
        "circles_from_layout": lambda: circles_from_layout(hypercube),
        "check_flags": lambda: check_flags(circles_from_layout(hypercube)),
        "realize_n3": lambda: realize_n3(fano_plane(), seed=0),
        "invert_pointline": lambda: check_flags(invert_pointline(derive_pappus_points(), pappus_lines, (0.4, 0.37))),
        "stereographic_project": lambda: check_flags(stereographic_project(cube, seed=0)[0]),
    }


_WRITERS = {
    Graph: ("graph", jsonio.graph_to_obj),
    IncidenceStructure: ("incidence", jsonio.incidence_to_obj),
    Layout: ("layout", jsonio.layout_to_obj),
    PointCircleConfig: ("pcc", jsonio.pcc_to_obj),
}


@pytest.mark.parametrize("builder", sorted(_library_artifacts()))
def test_every_artifact_the_library_writes_saves_again_to_the_same_bytes(builder, tmp_path):
    made = _library_artifacts()[builder]()
    kind, to_obj = _WRITERS[type(made)]
    path = str(tmp_path / "a.json")
    jsonio.save(path, to_obj(made))
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    back = jsonio.read(path, kind)
    jsonio.save(path, to_obj(back))
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == text


# ---------------------------------------------------------------------------
# each verified defect, one verdict built by hand or read from a file

_SELF = {"a": [1]}
_SELF["a"].append(_SELF)


@pytest.mark.parametrize("meta, refusal", [
    ({"a": ("x", "y")}, "meta {'a': ('x', 'y')} reads back from a file as {'a': ['x', 'y']}"),
    (_SELF, "meta cannot be written to a file: Circular reference detected"),
    ({"a": math.nan}, "meta cannot be written to a file: non-finite number in artifact"),
    ({"a": np.array([1.0, 2.0])}, "meta {'a': array([1., 2.])} reads back from a file as {'a': [1.0, 2.0]}"),
    ({"r": Fraction(1, 2)}, "meta cannot be written to a file: cannot serialize Fraction"),
], ids=["tuple", "holds-itself", "nan", "array", "fraction"])
def test_a_meta_a_file_would_not_give_back_is_refused_built_and_read(meta, refusal, tmp_path):
    # each once built a layout that saved changed, or that save refused
    lay = layout_polygon(4)
    with pytest.raises(ParameterError, match=f"^{re.escape(refusal)}$"):
        Layout(lay.graph, lay.pos, meta)
    with pytest.raises(ParameterError, match=f"^malformed layout object: {re.escape(refusal)}$"):
        jsonio.layout_from_obj({**jsonio.layout_to_obj(lay), "meta": meta})


def test_a_nan_in_a_file_is_refused_as_it_is_built(tmp_path):
    # json.load takes NaN, which no file the library writes holds
    path = tmp_path / "a.json"
    path.write_text(json.dumps({**jsonio.layout_to_obj(layout_polygon(4)), "meta": {"a": math.nan}}, default=list))
    refusal = "malformed layout object: meta cannot be written to a file: non-finite number in artifact"
    with pytest.raises(ParameterError, match=f"^{re.escape(refusal)}$"):
        jsonio.read(str(path), "layout")


def test_a_fraction_radius_builds_a_layout_that_saves_and_reads_back(tmp_path):
    # its meta once held the Fraction, and save failed with "cannot serialize Fraction"
    lay = layout_gen_cuboctahedron(5, Fraction(2), 1)
    assert np.array_equal(lay.pos, layout_gen_cuboctahedron(5, 2.0, 1.0).pos)
    back, text = _saved_and_read(lay, tmp_path)
    assert _state(back) == _state(lay)
    assert text == jsonio.dumps(jsonio.layout_to_obj(layout_gen_cuboctahedron(5))) + "\n"


@pytest.mark.parametrize("make, what", [
    (lambda n: Graph(n, []), "graph order"),
    (lambda n: IncidenceStructure(n, ((0, 1),)), "point count"),
])
@pytest.mark.parametrize("n", [MAX_ORDER + 1, 2**31, 2**63])
def test_a_count_above_the_limit_is_refused(make, what, n):
    with pytest.raises(ParameterError, match=f"^{what} {n} is above the limit of {MAX_ORDER}$"):
        make(n)


def test_a_count_at_the_limit_builds():
    assert Graph(MAX_ORDER, []).order == MAX_ORDER
    assert IncidenceStructure(MAX_ORDER, ((0, 1),)).points == MAX_ORDER


@pytest.mark.parametrize("argv, obj, refusal", [
    (["verify", "type"], {"points": 2**31, "blocks": [[0, 1]]}, f"malformed incidence object: point count {2**31}"),
    (["verify", "type"], {"points": 2**63, "blocks": [[0, 1]]}, f"malformed incidence object: point count {2**63}"),
    (["vconstruct"], {"order": 2**31, "edges": []}, f"malformed graph object: graph order {2**31}"),
])
def test_the_command_line_refuses_a_count_above_the_limit_at_once(argv, obj, refusal, tmp_path, capsys):
    # 2**63 points once exited 1 from an index-sized integer, 2**31 ran out of
    # memory, and a graph of 2**31 vertices ran about 20 s before it failed
    path = tmp_path / "big.json"
    path.write_text(json.dumps(obj))
    start = time.perf_counter()
    code = main([*argv, str(path)])
    assert time.perf_counter() - start < 0.1
    assert code == 2
    assert capsys.readouterr().err == f"error: {refusal} is above the limit of {MAX_ORDER}\n"


_OVERSIZED_FAMILIES = [
    (("cycle", 2**40), f"graph order {2**40}"),
    (("path", MAX_ORDER + 1), f"graph order {MAX_ORDER + 1}"),
    (("complete", 2049), "graph size 2098176"),
    (("prism", 2**19 + 1), f"graph order {2**20 + 2}"),
    (("hypercube", 40), "graph order 2**40"),
    (("hypercube", 10**12), f"graph order 2**{10**12}"),
    (("hypercube", 18), f"graph size {18 * 2**17}"),
    (("kneser", 10**14, 50), f"graph order at least C({10**14},50)"),
    (("kneser", 40, 4), "graph size 2691663975"),
    (("bipartite_kneser", 10**6, 2), "graph order 999999000000"),
    (("odd", 30), "graph order at least C(59,29)"),
    (("gen_petersen", 2**40, 2), f"graph order {2**41}"),
    (("gen_cuboctahedron", 2**19), f"graph order {3 * 2**19}"),
]


@pytest.mark.parametrize("family, refusal", _OVERSIZED_FAMILIES, ids=[str(f) for f, _ in _OVERSIZED_FAMILIES])
def test_a_family_too_large_is_refused_before_it_is_built(family, refusal):
    # cycle(2**40) and hypercube(40) once ran on past 6 s under a 1.5 GB cap
    start = time.perf_counter()
    with pytest.raises(ParameterError) as info:
        build_family(*family)
    assert time.perf_counter() - start < 0.1
    limit = MAX_ORDER if refusal.startswith("graph order") else graphs._MAX_SIZE
    assert str(info.value) == f"{refusal} is above the limit of {limit}"


@pytest.mark.parametrize("family", [
    ("cycle", 7), ("path", 5), ("complete", 6), ("prism", 5), ("hypercube", 10), ("kneser", 7, 3),
    ("bipartite_kneser", 7, 2), ("odd", 6), ("gen_petersen", 50, 2), ("gen_cuboctahedron", 40),
], ids=str)
def test_a_family_is_bounded_by_its_own_counts(family):
    # the closed-form counts each builder checks are those of the graph it builds
    with mock.patch.object(graphs, "_bounded", wraps=graphs._bounded) as bounded:
        g = build_family(*family)
    assert bounded.call_args_list[0].args == (g.order, g.size)


@pytest.mark.parametrize("argv", [
    ["gen", "cycle", "1099511627776"],
    ["gen", "hypercube", "40"],
    ["realize", "--layout", "polygon", "--n", "1099511627776"],
])
def test_the_command_line_refuses_a_family_too_large_at_once(argv, tmp_path, capsys):
    start = time.perf_counter()
    code = main([*argv, "-o", str(tmp_path / "out.json")])
    assert time.perf_counter() - start < 0.1
    assert code == 2
    assert capsys.readouterr().err.endswith(f" is above the limit of {MAX_ORDER}\n")
    assert not (tmp_path / "out.json").exists()


# past the interpreter's 4,300-digit limit on writing an int in decimal, where
# each of these messages once raised ValueError ("Exceeds the limit ...")
_HUGE = 10**5000
_HUGE_INTEGER_SITES = [
    (lambda n: Graph(n, []), "graph order <16610-bit integer> is above the limit of 1048576"),
    (lambda n: IncidenceStructure(n, ()), "point count <16610-bit integer> is above the limit of 1048576"),
    (graphs.cycle_graph, "graph order <16610-bit integer> is above the limit of 1048576"),
    (graphs.complete_graph, "graph order <16610-bit integer> is above the limit of 1048576"),
    (lambda n: graphs.generalized_petersen_graph(n, 2), "graph order <16611-bit integer> is above the limit of 1048576"),
    (graphs.hypercube_graph, "graph order 2**<16610-bit integer> is above the limit of 1048576"),
    (lambda n: graphs.kneser_graph(n, 2), "graph order at least C(<16610-bit integer>,2) is above the limit of 1048576"),
    (graphs.odd_graph, "graph order at least C(<16611-bit integer>,<16610-bit integer>) is above the limit of 1048576"),
    (lambda n: Graph(3, ((0, n),)), "edge (0,<16610-bit integer>) outside vertex range"),
    (lambda n: Graph(3, ((n, n),)), "loop at vertex <16610-bit integer>"),
    (lambda n: Graph(3, ((0, 1, -n),)), "edge (0, 1, -<16610-bit integer>) is not a pair of vertices"),
    (lambda n: Graph(3, (n,)), "edge <16610-bit integer> is not a sequence"),
    (lambda n: IncidenceStructure(3, ((0, n),)), "block (0, <16610-bit integer>) outside point range"),
    (lambda n: IncidenceStructure(3, ((n, n),)), "repeated point in block (<16610-bit integer>, <16610-bit integer>)"),
    (layout_polygon, "graph order <16610-bit integer> is above the limit of 1048576"),
    (layout_hypercube, "graph order 2**<16610-bit integer> is above the limit of 1048576"),
    (layout_gen_cuboctahedron, "graph order <16612-bit integer> is above the limit of 1048576"),
    (lambda n: PointCircleConfig([(0.0, 0.0)], [(0.0, 0.0, 1.0)], [(0, n)]),
     "incidence (0, <16610-bit integer>) outside 1 points and 1 circles"),
    (lambda n: PointCircleConfig([(0.0, 0.0)], [(0.0, 0.0, 1.0)], [(0, 0, n)]),
     "incidence (0, 0, <16610-bit integer>) is not a (point, circle) pair"),
    (lambda n: PointCircleConfig([(n, 0.0)], [(0.0, 0.0, 1.0)], []),
     "point entry <16610-bit integer> is too large for a float"),
    (lambda n: invert_pointline([(0.0, 0.0), (1.0, 0.0)], [(0, n)], (0.0, 5.0)),
     "line (0, <16610-bit integer>) outside point range"),
    (lambda n: invert_pointline([(0.0, 0.0), (1.0, 0.0)], [(n,)], (0.0, 5.0)),
     "line (<16610-bit integer>,) needs at least two distinct points"),
    (lambda n: solve_unit_distance(build_family("petersen"), symmetry=n),
     "no free order-<16610-bit integer> symmetry available"),
]


@pytest.mark.parametrize("make, refusal", _HUGE_INTEGER_SITES, ids=[m for _, m in _HUGE_INTEGER_SITES])
def test_an_integer_too_long_to_write_out_gets_its_parameter_error(make, refusal):
    start = time.perf_counter()
    with pytest.raises(ParameterError) as info:
        make(_HUGE)
    assert time.perf_counter() - start < 0.1
    assert str(info.value) == refusal


_SEEDED = {
    "solve_unit_distance": lambda: partial(solve_unit_distance, build_family("petersen")),
    "layout_hypercube": lambda: partial(layout_hypercube, 3),
    "realize_n3": lambda: partial(realize_n3, fano_plane()),
    "stereographic_project": lambda: partial(stereographic_project, sphere_circles(polytope_data("cube"))),
}


@pytest.mark.parametrize("site", _SEEDED)
def test_a_seed_too_long_to_write_out_is_refused_before_any_work(site):
    # the solve and the cube layout once ran and then failed in their meta
    # check, and realize_n3 returned its configuration
    call = _SEEDED[site]()
    start = time.perf_counter()
    with pytest.raises(ParameterError) as info:
        call(seed=_HUGE)
    assert time.perf_counter() - start < 0.1
    assert str(info.value) == "seed <16610-bit integer> has too many digits to record"


def test_an_integer_is_shown_in_full_up_to_the_digit_limit():
    assert graphs._shown(10**4299) == "1" + "0" * 4299
    assert graphs._shown((-(10**4299), "a", 1.5)) == f"(-1{'0' * 4299}, 'a', 1.5)"
    assert graphs._shown(10**4300) == "<14285-bit integer>"


@pytest.mark.parametrize("argv", [
    ["gen", "prism", "9" * 4300],
    ["realize", "--layout", "gen_cuboctahedron", "--n", "9" * 4300],
])
def test_the_command_line_refuses_an_integer_too_long_to_write_out(argv, tmp_path, capsys):
    # 4,300 nines parse, but twice or thrice them do not write out; gen exited 1
    # on that, and realize on the float of its n
    code = main([*argv, "-o", str(tmp_path / "out.json")])
    assert code == 2
    assert capsys.readouterr().err.endswith(f"-bit integer> is above the limit of {MAX_ORDER}\n")
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("make, name", [
    (lambda: Layout("petersen", layout_polygon(4).pos), "str"),
    (lambda: Layout(None, layout_polygon(4).pos), "NoneType"),
    (lambda: PolytopeSkeleton("cube", "g", polytope_data("cube").coords), "str"),
], ids=["layout-str", "layout-none", "skeleton-str"])
def test_a_graph_field_that_is_not_a_graph_is_refused(make, name):
    # each once failed with AttributeError: ... has no attribute 'order'
    with pytest.raises(ParameterError, match=f"^graph must be a Graph, not {name}$"):
        make()
