"""The construction's Kronecker witness tested against the generic isomorphism search."""

import pytest
from hypothesis import assume, given, settings

from confviz import (
    VertexMap,
    build_family,
    is_admissible,
    isomorphic,
    kronecker_cover,
    levi_graph,
    v_construct,
    verify_kronecker_theorem,
)
from confviz.iso import MAX_VERTICES

from test_properties import graphs

FIXTURES = (
    [("petersen", ()), ("desargues", ()), ("dodecahedron", ()), ("pappus", ()),
     ("kneser", (7, 3)), ("kneser", (6, 2)), ("bipartite_kneser", (5, 2)),
     ("cycle", (5,)), ("cycle", (8,)), ("complete", (5,)), ("prism", (5,))]
    + [("gen_petersen", (n, 2)) for n in range(5, 51)]
    + [("gen_cuboctahedron", (n,)) for n in range(3, 41)]
    + [("hypercube", (d,)) for d in range(3, 8)]
    + [("odd", (m,)) for m in range(3, 6)]
)


def levi_and_cover(g):
    levi, _ = levi_graph(v_construct(g))
    cover, _ = kronecker_cover(g)
    return levi, cover


def maps_edges_onto(vm, g, h):
    hedges = set(h.edges)
    return sorted(vm.image) == list(range(h.order)) and g.size == h.size and all(
        tuple(sorted((vm(u), vm(v)))) in hedges for u, v in g.edges
    )


def assert_witness_matches_search(g):
    rep = verify_kronecker_theorem(g)
    levi, cover = levi_and_cover(g)
    assert rep.admissible
    assert rep.verified == (isomorphic(levi, cover) is not None)
    assert rep.verified and maps_edges_onto(rep.witness, levi, cover)


@pytest.mark.parametrize("family,params", FIXTURES, ids=lambda x: str(x))
def test_witness_verifies_exactly_when_search_finds_one(family, params):
    g = build_family(family, *params)
    assert is_admissible(g)[0]
    assert 2 * g.order <= MAX_VERTICES
    assert_witness_matches_search(g)


@settings(max_examples=60, deadline=None)
@given(graphs(max_order=10))
def test_witness_matches_search_on_random_admissible_graphs(g):
    assume(all(g.neighbor_sets) and is_admissible(g)[0])
    assert_witness_matches_search(g)


@pytest.mark.parametrize("family,params", [("petersen", ()), ("hypercube", (4,)), ("odd", (4,))])
def test_witness_with_two_blocks_swapped_is_rejected(family, params):
    g = build_family(family, *params)
    levi, cover = levi_and_cover(g)
    image = list(verify_kronecker_theorem(g).witness.image)
    n = g.order
    image[n], image[n + 1] = image[n + 1], image[n]
    swapped = VertexMap(tuple(image))
    assert swapped.is_bijection()
    assert not swapped.is_isomorphism(levi, cover)
    assert not maps_edges_onto(swapped, levi, cover)
