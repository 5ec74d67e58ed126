"""The construction's Kronecker witness tested against the generic isomorphism search,
and the whole report against the one that checked the witness on the Levi graph."""

from dataclasses import replace

import pytest
from hypothesis import assume, given, settings, strategies as st

from confviz import (
    VertexMap,
    build_family,
    is_admissible,
    isomorphic,
    kronecker_cover,
    levi_graph,
    structure_report,
    v_construct,
    verify_kronecker_theorem,
)
from confviz import incidence
from confviz.errors import ParameterError
from confviz.graphs import Graph
from confviz.iso import MAX_VERTICES

import oracles
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
    assert rep == oracles.verify_kronecker_theorem(g)
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


@st.composite
def kronecker_inputs(draw, max_order=10):
    """Random graphs, bipartite graphs and disjoint unions of two graphs."""
    kind = draw(st.sampled_from(["any", "bipartite", "union"]))
    if kind == "any":
        return draw(graphs(max_order=max_order))
    if kind == "union":
        a, b = draw(graphs(max_order=max_order // 2)), draw(graphs(max_order=max_order // 2))
        return Graph(a.order + b.order, a.edges + tuple((u + a.order, v + a.order) for u, v in b.edges))
    left = draw(st.integers(min_value=1, max_value=max_order // 2))
    right = draw(st.integers(min_value=1, max_value=max_order // 2))
    pairs = [(u, left + v) for u in range(left) for v in range(right)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(left + right, tuple(p for p, keep in zip(pairs, mask) if keep))


def outcome(verify, g):
    try:
        return verify(g)
    except ParameterError as exc:  # an isolated vertex
        return f"ParameterError: {exc}"


@settings(max_examples=300, deadline=None)
@given(kronecker_inputs())
def test_report_matches_the_levi_graph_oracle(g):
    assert outcome(verify_kronecker_theorem, g) == outcome(oracles.verify_kronecker_theorem, g)


def test_kronecker_inputs_reach_every_case():
    seen = set()

    @settings(max_examples=300, database=None, derandomize=True)
    @given(kronecker_inputs())
    def collect(g):
        rep = outcome(oracles.verify_kronecker_theorem, g)
        if isinstance(rep, str):
            seen.add("isolated vertex")
            return
        seen.add("admissible" if rep.admissible else "not admissible")
        if rep.cover_components > 2:
            seen.add("disconnected")
        if structure_report(g).bipartite and rep.admissible and g.size:
            seen.add("bipartite admissible")

    collect()
    assert seen == {"isolated vertex", "admissible", "not admissible", "disconnected",
                    "bipartite admissible"}


@pytest.mark.parametrize("family,params", [("petersen", ()), ("hypercube", (4,)), ("odd", (4,))])
def test_witness_from_a_wrong_polarity_is_rejected(family, params, monkeypatch):
    # the construction's polarity always gives a true witness; a wrong one
    # must fail the edge-list check as it fails the isomorphism check
    def swapped_polarity(g, collapse=False):
        c = v_construct(g, collapse)
        pol = list(c.polarity)
        pol[0], pol[1] = pol[1], pol[0]
        return replace(c, polarity=tuple(pol))

    monkeypatch.setattr(incidence, "v_construct", swapped_polarity)
    monkeypatch.setattr(oracles, "v_construct", swapped_polarity)
    g = build_family(family, *params)
    rep = verify_kronecker_theorem(g)
    assert rep.admissible and not rep.verified and rep.witness is None
    assert rep == oracles.verify_kronecker_theorem(g)
