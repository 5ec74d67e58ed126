"""Structures and graphs that the library builds in canonical form without
re-checking them, held to what the checking constructors give, and the
counts those constructors take."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from confviz import (
    Graph,
    IncidenceStructure,
    ParameterError,
    build_family,
    classify,
    decompose,
    is_admissible,
    v_construct,
)
from confviz import jsonio
from confviz.graphs import has_four_cycle, pair_in_two

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
    assert has_four_cycle(g) == oracles.pair_in_two(g.adjacency)


@settings(max_examples=300, deadline=None)
@given(structures())
def test_pair_in_two_matches_the_pair_by_pair_oracle(c):
    assert pair_in_two(c.blocks) == oracles.pair_in_two(c.blocks)
    assert classify(c).lineal == (not oracles.pair_in_two(c.blocks))


@settings(max_examples=200, deadline=None)
@given(shuffled_graphs(max_order=8))
def test_four_cycles_match_the_oracles(g):
    assert has_four_cycle(g) == oracles.pair_in_two(g.adjacency)
    assert has_four_cycle(g) == oracles.has_four_cycle_brute(g.order, g.edges)


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
    with pytest.raises(ParameterError, match=r"^malformed incidence object: expected an integer, found 2\.0$"):
        jsonio.incidence_from_obj(obj)
    good = {"points": 3, "blocks": [[2, 1], [0, 1]], "provenance": "by hand"}
    assert jsonio.incidence_from_obj(good) == IncidenceStructure(3, ((1, 2), (0, 1)), "by hand")
