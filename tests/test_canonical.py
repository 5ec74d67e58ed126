"""Structures and graphs that the library builds in canonical form without
re-checking them, held to what the checking constructors give, and the
counts and entries those constructors take."""

import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from confviz import (
    Graph,
    IncidenceStructure,
    ParameterError,
    build_family,
    cartesian_factors,
    cartesian_product,
    classify,
    decompose,
    is_admissible,
    kronecker_cover,
    levi_graph,
    line_graph,
    v_construct,
)
from confviz import graphs, jsonio
from confviz.graphs import _FAMILIES, Bipartition, VertexMap, pair_in_two
from confviz.layouts import layout_gen_cuboctahedron, layout_hypercube, layout_polygon
from confviz.realization import PointCircleConfig, check_flags, circles_from_layout, invert_pointline

import oracles

from test_polarity_oracle import LADDER, structures


def rebuilt(c):
    """c through the public constructor, with every check."""
    return IncidenceStructure(c.points, c.blocks, c.provenance)


@st.composite
def shuffled_graphs(draw, max_order=9):
    """Graphs whose edges are given in a random order and orientation, so
    that no neighbour list comes out sorted by the input's order alone."""
    n = draw(st.integers(min_value=1, max_value=max_order))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    return Graph(n, tuple((v, u) if flip else (u, v) for (u, v), flip in zip(edges, flips)))


def assert_trusted(g):
    """g, built without the constructor's checks, is the graph the checking
    constructor makes of its fields, with tuples of int entries."""
    assert Graph(g.order, g.edges, g.labels) == g
    assert type(g.order) is int and type(g.edges) is tuple
    assert all(type(e) is tuple and type(e[0]) is int and type(e[1]) is int for e in g.edges)
    assert g.labels is None or (type(g.labels) is tuple and all(type(s) is str for s in g.labels))


def assert_derived_graphs_trusted(g):
    """The graphs built from g without the constructor's checks, and the
    line graph against the version that sorted and checked its edges."""
    assert_trusted(kronecker_cover(g)[0])
    for factor in cartesian_factors(g)[0]:
        assert_trusted(factor)
    if g.size:
        lg = line_graph(g)
        assert_trusted(lg)
        assert lg == oracles.line_graph(g)
    if all(g.neighbor_sets):
        assert_trusted(levi_graph(v_construct(g, collapse=True))[0])


# each family with parameters, beside those on the ladder
FAMILY_CASES = LADDER + [
    ("cycle", (3,)), ("cycle", (4,)), ("path", (1,)), ("path", (5,)), ("complete", (1,)),
    ("complete", (6,)), ("prism", (3,)), ("prism", (7,)), ("hypercube", (1,)), ("kneser", (2, 1)),
    ("kneser", (8, 3)), ("bipartite_kneser", (3, 1)), ("bipartite_kneser", (7, 3)), ("odd", (2,)),
    ("gen_petersen", (3, 1)), ("gen_petersen", (12, 5)), ("gen_cuboctahedron", (3,)),
]


def test_every_family_is_built_in_the_cases():
    assert {family for family, _ in FAMILY_CASES} == set(_FAMILIES)


@pytest.mark.parametrize("family,params", FAMILY_CASES, ids=lambda x: str(x))
def test_family_graphs_and_their_derived_graphs_equal_the_checked_ones(family, params):
    g = build_family(family, *params)
    assert_trusted(g)
    assert_derived_graphs_trusted(g)


@st.composite
def family_members(draw):
    """A cycle, prism, GP(n,r), Kneser or bipartite Kneser graph with drawn
    parameters."""
    family = draw(st.sampled_from(["cycle", "prism", "gen_petersen", "kneser", "bipartite_kneser"]))
    if family in ("cycle", "prism"):
        return family, (draw(st.integers(3, 40)),)
    if family == "gen_petersen":
        n = draw(st.integers(3, 40))
        return family, (n, draw(st.integers(1, (n - 1) // 2)))
    if family == "kneser":
        n = draw(st.integers(2, 9))
        return family, (n, draw(st.integers(1, n // 2)))
    n = draw(st.integers(3, 9))
    return family, (n, draw(st.integers(1, (n - 1) // 2)))


@settings(max_examples=150, deadline=None)
@given(family_members())
def test_drawn_family_members_equal_the_checked_ones(member):
    family, params = member
    g = build_family(family, *params)
    assert_trusted(g)
    assert_trusted(kronecker_cover(g)[0])
    assert line_graph(g) == oracles.line_graph(g)


@settings(max_examples=200, deadline=None)
@given(shuffled_graphs())
def test_graphs_derived_from_any_graph_equal_the_checked_ones(g):
    assert_derived_graphs_trusted(g)


@settings(max_examples=150, deadline=None)
@given(shuffled_graphs(max_order=5), shuffled_graphs(max_order=5))
def test_products_equal_the_checked_ones(g, h):
    gh = cartesian_product(g, h)
    assert_trusted(gh)
    assert gh.size == g.order * h.size + h.order * g.size


@settings(max_examples=150, deadline=None)
@given(structures())
def test_levi_graphs_of_any_structure_equal_the_checked_ones(c):
    assert_trusted(levi_graph(c)[0])


@settings(max_examples=200, deadline=None)
@given(shuffled_graphs())
def test_adjacency_rows_are_the_sorted_neighbour_lists(g):
    nbrs = oracles.adjacency(g.order, g.edges)
    assert g.adjacency == tuple(tuple(sorted(ns)) for ns in nbrs)


@settings(max_examples=200, deadline=None)
@given(shuffled_graphs())
def test_v_constructions_and_their_parts_equal_the_checked_ones(g):
    assume(all(g.neighbor_sets))
    built = [v_construct(g, collapse=True)]
    if is_admissible(g)[0]:
        built.append(v_construct(g))
    for c in built:
        assert rebuilt(c) == c
        for part in decompose(c):
            assert rebuilt(part) == part


@settings(max_examples=200, deadline=None)
@given(structures())
def test_parts_of_any_structure_equal_the_checked_ones(c):
    for part in decompose(c):
        assert rebuilt(part) == part


@pytest.mark.parametrize("family,params", LADDER, ids=lambda x: str(x))
def test_ladder_structures_equal_the_checked_ones(family, params):
    g = build_family(family, *params)
    c = v_construct(g)
    assert rebuilt(c) == c
    assert all(rebuilt(part) == part for part in decompose(c))
    assert pair_in_two(c.blocks) == oracles.pair_in_two(c.blocks)
    assert pair_in_two(g.adjacency) == oracles.pair_in_two(g.adjacency)


@settings(max_examples=300, deadline=None)
@given(structures())
def test_pair_in_two_matches_the_pair_by_pair_oracle(c):
    assert pair_in_two(c.blocks) == oracles.pair_in_two(c.blocks)
    assert classify(c).lineal == (not oracles.pair_in_two(c.blocks))


@settings(max_examples=200, deadline=None)
@given(shuffled_graphs(max_order=8))
def test_four_cycles_match_the_oracles(g):
    assert pair_in_two(g.adjacency) == oracles.pair_in_two(g.adjacency)
    assert pair_in_two(g.adjacency) == oracles.has_four_cycle_brute(g.order, g.edges)


@pytest.mark.parametrize("count", [3.0, "3", None, True, np.float64(3.0), [3]])
def test_counts_other_than_integers_are_refused(count):
    with pytest.raises(ParameterError, match="must be an integer"):
        IncidenceStructure(points=count, blocks=((0, 1), (1, 2)))
    with pytest.raises(ParameterError, match="must be an integer"):
        Graph(count, ((0, 1),))


@pytest.mark.parametrize("count", [np.int64(3), np.int32(3), np.uint8(3), 3])
def test_numpy_integer_counts_become_ints(count):
    c = IncidenceStructure(points=count, blocks=((0, 1), (1, 2)))
    g = Graph(count, ((0, 1),))
    assert type(c.points) is int and type(g.order) is int
    assert c == IncidenceStructure(3, ((0, 1), (1, 2)))
    assert g == Graph(3, ((0, 1),))
    assert classify(c).point_count == 3


def test_negative_counts_keep_their_message():
    with pytest.raises(ParameterError, match="point count must be non-negative"):
        IncidenceStructure(points=np.int64(-1), blocks=())
    with pytest.raises(ParameterError, match="graph order must be non-negative"):
        Graph(-2, ())


def test_incidence_reader_names_the_first_bad_block_entry():
    obj = {"points": 3, "blocks": [[0, 1], [1, 2.0], [True, 2]]}
    with pytest.raises(ParameterError, match=r"^malformed incidence object: block entry 2\.0 must be an integer, not float$"):
        jsonio.incidence_from_obj(obj)
    good = {"points": 3, "blocks": [[2, 1], [0, 1]], "provenance": "by hand"}
    assert jsonio.incidence_from_obj(good) == IncidenceStructure(3, ((1, 2), (0, 1)), "by hand")


@pytest.mark.parametrize("entry", [1.0, 1.9, "1", True, False, None, np.float64(1.0), np.bool_(True)])
def test_entries_other_than_integers_are_refused(entry):
    named = re.escape(repr(entry))
    with pytest.raises(ParameterError, match=rf"^edge entry {named} must be an integer, not "):
        Graph(3, [(0, 1), (2, entry)])
    with pytest.raises(ParameterError, match=rf"^block entry {named} must be an integer, not "):
        IncidenceStructure(3, [(0, 1), (entry, 2)])
    with pytest.raises(ParameterError, match=rf"^incidence entry {named} must be an integer, not "):
        PointCircleConfig(np.zeros((3, 2)), [(0.0, 0.0, 1.0)], [(0, 0), (entry, 0)])
    with pytest.raises(ParameterError, match=rf"^line entry {named} must be an integer, not "):
        invert_pointline([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], [(0, 2, entry)], center=(0.5, 1.0))
    with pytest.raises(ParameterError, match=rf"^vertex image {named} must be an integer, not "):
        VertexMap((0, entry))
    with pytest.raises(ParameterError, match=rf"^bipartition side {named} must be an integer, not "):
        Bipartition((entry, 1))


@pytest.mark.parametrize("incidence", [((0, 1, 2), (3,)), ((0, 1, 2),), ((0,),), ((0, 0), ())])
def test_incidences_are_pairs(incidence):
    # ragged rows were once re-paired: ((0, 1, 2), (3,)) read as ((0, 1), (2, 3))
    with pytest.raises(ParameterError, match=r"^incidence \(.*\) is not a \(point, circle\) pair$"):
        PointCircleConfig(np.zeros((4, 2)), [(0.0, 0.0, 1.0)] * 4, incidence)


def test_family_parameters_and_layout_sizes_must_be_integers():
    # build_family once applied int(): ("cycle", 5.7) built cycle(5)
    cases = [
        (lambda: build_family("cycle", 5.7), "n"),
        (lambda: layout_polygon(5.5), "n"),
        (lambda: layout_hypercube(3.5), "d"),
        (lambda: layout_gen_cuboctahedron(5.5), "n"),
        (lambda: build_family("gen_cuboctahedron", "5"), "n"),
    ]
    for make, what in cases:
        with pytest.raises(ParameterError, match=rf"^{re.escape(what)} must be an integer, not (float|bool|str)$"):
            make()


def test_numpy_integer_entries_become_ints():
    g = Graph(3, [(np.int64(2), np.int32(0)), (1, np.uint8(2))])
    c = IncidenceStructure(3, [(np.int64(2), np.uint8(0)), (1, np.int16(2))])
    assert g == Graph(3, [(0, 2), (1, 2)]) and c == IncidenceStructure(3, [(0, 2), (1, 2)])
    assert all(type(x) is int for e in g.edges for x in e)
    assert all(type(x) is int for b in c.blocks for x in b)
    cfg = PointCircleConfig(np.zeros((3, 2)), [(0.0, 0.0, 1.0)], [(np.int64(2), np.uint8(0)), (1, 0)])
    assert cfg.incidence == ((1, 0), (2, 0)) and all(type(x) is int for pk in cfg.incidence for x in pk)
    vm, sides = VertexMap((np.int64(1), np.int32(0))), Bipartition(np.array([0, 1]))
    assert vm.image == (1, 0) and sides.sides == (0, 1)
    assert all(type(x) is int for x in vm.image + sides.sides)
    inverted = invert_pointline([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], np.array([[0, 1, 2]]), (0.5, 1.0))
    assert inverted.incidence == ((0, 0), (1, 0), (2, 0))


def test_accepted_entries_are_never_shown(monkeypatch):
    """The slow paths for numpy entries form an entry's error text only for
    the entry that fails."""

    def shown(x):
        raise AssertionError(f"{x!r} shown")

    monkeypatch.setattr(graphs, "_shown", shown)
    assert graphs._int_rows([(np.int64(2), np.int32(0))], "edge entry") == ((2, 0),)
    assert graphs._real_rows([(np.float64(0.5), 1)], "point entry", "shape") == ((0.5, 1.0),)
    with pytest.raises(AssertionError, match="^1.5 shown$"):
        graphs._int_rows([(np.int64(2), 1.5)], "edge entry")


@pytest.mark.parametrize("entry,shown", [(1.0, "1.0"), (True, "True"), ("1", "'1'")])
def test_readers_keep_their_message_for_bad_entries(entry, shown):
    found = f"entry {re.escape(shown)} must be an integer, not {type(entry).__name__}$"
    with pytest.raises(ParameterError, match=rf"^malformed graph object: edge {found}"):
        jsonio.graph_from_obj({"order": 3, "edges": [[0, 1], [2, entry]]})
    with pytest.raises(ParameterError, match=rf"^malformed incidence object: block {found}"):
        jsonio.incidence_from_obj({"points": 3, "blocks": [[0, 1], [2, entry]]})


NOT_SEQUENCES = {
    "PointCircleConfig": (lambda: PointCircleConfig(np.zeros((2, 2)), [(0.0, 0.0, 1.0)], (1, 0)), "incidence 1"),
    "invert_pointline": (lambda: invert_pointline([[0.0, 0.0], [1.0, 0.0]], [5], (0.5, 1.0)), "line 5"),
    "VertexMap": (lambda: VertexMap(3), "vertex image 3"),
    "Bipartition": (lambda: Bipartition(1), "bipartition side 1"),
    "IncidenceStructure": (lambda: IncidenceStructure(3, (1, 2)), "block 1"),
    "Graph": (lambda: Graph(3, (0, 1)), "edge 0"),
}


@pytest.mark.parametrize("name", NOT_SEQUENCES)
def test_rows_that_are_not_sequences_are_named(name):
    # each once raised TypeError: 'int' object is not iterable
    make, row = NOT_SEQUENCES[name]
    with pytest.raises(ParameterError, match=rf"^{row} is not a sequence$"):
        make()


NOT_TABLES = {
    "Graph": (lambda: Graph(3, 5), "edges"),
    "IncidenceStructure": (lambda: IncidenceStructure(3, 5), "blocks"),
    "PointCircleConfig": (lambda: PointCircleConfig(np.zeros((2, 2)), [(0.0, 0.0, 1.0)], 5), "incidence"),
    "invert_pointline": (lambda: invert_pointline([[0.0, 0.0], [1.0, 0.0]], 5, (0.5, 1.0)), "lines"),
}


@pytest.mark.parametrize("name", NOT_TABLES)
def test_tables_that_are_not_sequences_are_named(name):
    # each once raised TypeError: 'int' object is not iterable
    make, table = NOT_TABLES[name]
    with pytest.raises(ParameterError, match=rf"^{table} must be a sequence, not int$"):
        make()


def test_an_error_raised_while_reading_a_table_is_not_renamed():
    def rows():
        yield (0, 1)
        raise TypeError("from the caller's generator")

    with pytest.raises(TypeError, match="caller's generator"):
        Graph(3, rows())


def test_rows_taken_from_iterators_keep_their_entries():
    assert VertexMap(iter((1, 0))).image == (1, 0)
    assert Bipartition(x for x in (0, 1)).sides == (0, 1)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: layout_polygon("5"), "n must be an integer, not str"),
        (lambda: layout_hypercube("3"), "d must be an integer, not str"),
        (lambda: layout_gen_cuboctahedron("5"), "n must be an integer, not str"),
        (lambda: layout_gen_cuboctahedron(5, "2", 1), "r_outer must be a number, not str"),
        (lambda: layout_gen_cuboctahedron(5, 2.0, None), "r_inner must be a number, not NoneType"),
        (lambda: layout_gen_cuboctahedron(5, True, 0.5), "r_outer must be a number, not bool"),
        (lambda: layout_gen_cuboctahedron(5, float("inf"), 1.0), "r_outer must be finite"),
        (lambda: layout_gen_cuboctahedron(5, 2.0, float("nan")), "r_inner must be finite"),
        (lambda: layout_gen_cuboctahedron(5, 10**400, 1), "r_outer is too large for a float"),
    ],
)
def test_layout_sizes_and_radii_are_checked_before_they_are_compared(make, message):
    # a string size or radius once raised TypeError from < or >
    with pytest.raises(ParameterError, match=rf"^{re.escape(message)}$"):
        make()


@pytest.mark.parametrize("r_outer, r_inner", [(2, np.float64(1.0)), (Fraction(2), Fraction(1)), (2.0, np.float32(1.0))])
def test_layout_radii_are_recorded_as_the_floats_they_are_checked_as(r_outer, r_inner):
    # a Fraction radius once built a layout that save refused ("cannot serialize Fraction")
    meta = layout_gen_cuboctahedron(5, r_outer, r_inner).meta
    assert meta == {"generator": "gen_cuboctahedron", "n": 5, "r_outer": 2.0, "r_inner": 1.0}
    assert type(meta["r_outer"]) is float and type(meta["r_inner"]) is float


@pytest.mark.parametrize(
    "radius, message",
    [
        ("2", "must be a number, not str"),
        (None, "must be a number, not NoneType"),
        (True, "must be a number, not bool"),
        (10**400, "is too large for a float"),
    ],
)
def test_inversion_radius_is_checked_before_it_is_compared(radius, message):
    # "2" and None once raised TypeError, and 10**400 OverflowError, from math.isfinite
    with pytest.raises(ParameterError, match=rf"^inversion radius {message}$"):
        invert_pointline([[0.0, 0.0], [1.0, 0.0]], [(0, 1)], (0.5, 1.0), radius=radius)


@pytest.mark.parametrize(
    "make",
    [
        lambda: circles_from_layout(layout_polygon(5), tol=10**400, allow_degree_two=True),
        lambda: check_flags(PointCircleConfig(np.zeros((1, 2)), [(0.0, 0.0, 1.0)], (), tols={"incidence": 10**400})),
    ],
)
def test_a_tolerance_too_large_for_a_float_is_refused(make):
    # 10**400 passes 0 <= tol < inf and once raised OverflowError from float()
    with pytest.raises(ParameterError, match=r"^incidence tolerance is too large for a float$"):
        make()


@pytest.mark.parametrize("name", ["flags", "tols"])
@pytest.mark.parametrize("value", [[1], (("incidence", 1e-9),), "tols", None])
def test_flags_and_tols_are_mappings(name, value):
    # tols=[1] once built, and check_flags then raised TypeError from dict()
    with pytest.raises(ParameterError, match=rf"^{name} must be a mapping, not {type(value).__name__}$"):
        PointCircleConfig(np.zeros((2, 2)), [(0.0, 0.0, 1.0)], (), **{name: value})
