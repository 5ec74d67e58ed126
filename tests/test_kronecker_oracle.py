"""The construction's Kronecker witness, the identity, tested against the generic isomorphism search,
and the whole report against the one that checked the witness on the Levi graph."""

from dataclasses import replace

import pytest
from hypothesis import assume, given, settings, strategies as st

from confviz import (
    IncidenceStructure,
    VertexMap,
    build_family,
    is_admissible,
    isomorphic,
    kronecker_cover,
    levi_graph,
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


def assert_witness_matches_search(g):
    rep = verify_kronecker_theorem(g)
    assert rep == oracles.verify_kronecker_theorem(g)
    levi, cover = levi_and_cover(g)
    assert rep.admissible
    assert rep.verified == (isomorphic(levi, cover) is not None)
    assert rep.verified and oracles.is_isomorphism(rep.witness, levi, cover)
    assert rep.witness == VertexMap(tuple(range(2 * g.order)))


@pytest.mark.parametrize("family,params", FIXTURES, ids=lambda x: str(x))
def test_witness_verifies_exactly_when_search_finds_one(family, params):
    g = build_family(family, *params)
    assert is_admissible(g)[0]
    assert 2 * g.order <= MAX_VERTICES
    assert_witness_matches_search(g)


@settings(max_examples=60, deadline=None)
@given(graphs(max_order=10))
def test_witness_matches_search_on_random_admissible_graphs(g):
    assume(all(g.adjacency) and is_admissible(g)[0])
    assert_witness_matches_search(g)


@pytest.mark.parametrize("family,params", [("petersen", ()), ("hypercube", (4,)), ("odd", (4,))])
def test_witness_with_two_blocks_swapped_is_rejected(family, params):
    g = build_family(family, *params)
    levi, cover = levi_and_cover(g)
    image = list(verify_kronecker_theorem(g).witness.image)
    n = g.order
    image[n], image[n + 1] = image[n + 1], image[n]
    swapped = VertexMap(tuple(image))
    assert sorted(swapped.image) == list(range(levi.order))
    assert not oracles.is_isomorphism(swapped, levi, cover)


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
        if oracles.bipartition(g) is not None and rep.admissible and g.size:
            seen.add("bipartite admissible")

    collect()
    assert seen == {"isolated vertex", "admissible", "not admissible", "disconnected",
                    "bipartite admissible"}


@pytest.mark.parametrize("family,params", [("petersen", ()), ("hypercube", (4,)), ("odd", (4,))])
def test_construction_with_two_blocks_swapped_is_rejected(family, params, monkeypatch):
    # block v = N(v) always makes the identity a true witness; with blocks 0
    # and 1 swapped it must fail the edge-list check as it fails the
    # isomorphism check
    def swapped_blocks(g, collapse=False):
        c = v_construct(g, collapse)
        return replace(c, blocks=(c.blocks[1], c.blocks[0]) + c.blocks[2:])

    monkeypatch.setattr(incidence, "v_construct", swapped_blocks)
    monkeypatch.setattr(oracles, "v_construct", swapped_blocks)
    g = build_family(family, *params)
    rep = verify_kronecker_theorem(g)
    assert rep.admissible and not rep.verified and rep.witness is None
    assert rep == oracles.verify_kronecker_theorem(g)


def construction_with(mutate):
    """v_construct whose neighbourhood N(0) is first changed by mutate(g, block)."""

    def construct(g, collapse=False):
        c = v_construct(g, collapse)
        nbhds = [list(a) for a in g.adjacency]
        mutate(g, nbhds[0])
        return IncidenceStructure(c.points, tuple(map(tuple, nbhds)), c.provenance)

    return construct


def drop_a_point(g, block):
    # still inside N(0), but one incidence short of 2 * g.size
    block.pop()


def swap_in_a_non_neighbour(g, block):
    # as many incidences as the cover has edges, one of them off the cover
    taken = set(g.adjacency)
    for w in range(g.order):
        if w not in g.adjacency[0] and tuple(sorted(block[1:] + [w])) not in taken:
            block[0] = w
            return
    raise AssertionError("no free non-neighbour")


@pytest.mark.parametrize("mutate", [drop_a_point, swap_in_a_non_neighbour])
@pytest.mark.parametrize("family,params", [("petersen", ()), ("hypercube", (4,)), ("odd", (4,))])
def test_a_construction_off_the_cover_is_rejected(family, params, mutate, monkeypatch):
    construct = construction_with(mutate)
    monkeypatch.setattr(incidence, "v_construct", construct)
    monkeypatch.setattr(oracles, "v_construct", construct)
    g = build_family(family, *params)
    c = construct(g)
    assert c.points == c.block_count == g.order
    assert sum(map(len, c.blocks)) == 2 * g.size - (mutate is drop_a_point)
    rep = verify_kronecker_theorem(g)
    assert rep.admissible and not rep.verified and rep.witness is None
    assert rep == oracles.verify_kronecker_theorem(g)


@settings(max_examples=200, deadline=None)
@given(kronecker_inputs())
def test_cover_components_follow_weichsel(g):
    # the cover of a connected graph is connected when the graph is not
    # bipartite and splits in two when it is; counted here by BFS on each
    # component, apart from the union-find the report uses
    rep = outcome(verify_kronecker_theorem, g)
    assume(not isinstance(rep, str))
    comps = oracles.components(g)
    bipartite = 0
    for comp in comps:
        index = {v: i for i, v in enumerate(comp)}
        sub = Graph(len(comp), tuple((index[u], index[v]) for u, v in g.edges if u in index))
        bipartite += oracles.bipartition(sub) is not None
    assert rep.cover_order == 2 * g.order
    assert rep.cover_components == len(comps) + bipartite


# ---------------------------------------------------------------------------
# the cover's components by one BFS over g, against union-find over the cover


def component_kinds(g):
    """(bipartite, not bipartite) counts over g's components."""
    comps = oracles.components(g)
    bipartite = 0
    for comp in comps:
        index = {v: i for i, v in enumerate(comp)}
        sub = Graph(len(comp), tuple((index[u], index[v]) for u, v in g.edges if u in index))
        bipartite += oracles.bipartition(sub) is not None
    return bipartite, len(comps) - bipartite


@settings(max_examples=400, deadline=None)
@given(kronecker_inputs())
def test_report_matches_the_union_find_oracle(g):
    assert outcome(verify_kronecker_theorem, g) == outcome(oracles.verify_kronecker_by_union_find, g)


@pytest.mark.parametrize("family,params", FIXTURES + [("hypercube", (8,)), ("odd", (6,)), ("cycle", (4,))],
                         ids=lambda x: str(x))
def test_ladder_reports_match_the_union_find_oracle(family, params):
    g = build_family(family, *params)
    assert verify_kronecker_theorem(g) == oracles.verify_kronecker_by_union_find(g)


# K_{2,3}: the two vertices of one side, and the three of the other, share a neighbourhood
K23 = Graph(5, tuple((u, v) for u in (0, 1) for v in (2, 3, 4)))
# K_{1,4}: the four leaves share the centre as their one neighbour
K14 = Graph(5, tuple((0, v) for v in (1, 2, 3, 4)))


@pytest.mark.parametrize("g", [build_family("cycle", 4), K23, build_family("petersen"), build_family("hypercube", 4),
                               K14, build_family("cycle", 6)],
                         ids=["cycle(4)", "K_{2,3}", "petersen", "hypercube(4)", "K_{1,4}", "cycle(6)"])
def test_one_construction_and_an_admissibility_check_only_on_a_clash(g, monkeypatch):
    """The collapsed N(g) decides admissibility; is_admissible runs only to
    name the clash pair of a graph whose shared neighbourhoods merged."""
    calls = []

    def counted(fn):
        def call(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(incidence, "v_construct", counted(v_construct))
    monkeypatch.setattr(incidence, "is_admissible", counted(is_admissible))
    rep = verify_kronecker_theorem(g)
    assert calls == ["v_construct"] + ["is_admissible"] * (not rep.admissible)
    monkeypatch.undo()
    assert rep == oracles.verify_kronecker_by_union_find(g) == oracles.verify_kronecker_theorem(g)
    assert rep.admissible == (g.order > 5)


def test_union_find_oracle_inputs_reach_every_case():
    seen = set()

    @settings(max_examples=400, database=None, derandomize=True)
    @given(kronecker_inputs())
    def collect(g):
        rep = outcome(oracles.verify_kronecker_by_union_find, g)
        if isinstance(rep, str):
            seen.add("isolated vertex")
            return
        seen.add("admissible" if rep.admissible else "not admissible")
        bipartite, odd = component_kinds(g)
        if bipartite and odd:
            seen.add("mixed components")
        if bipartite > 1 or odd > 1:
            seen.add("two of a kind")

    collect()
    assert seen == {"isolated vertex", "admissible", "not admissible", "mixed components",
                    "two of a kind"}


def test_mixed_components_by_hand():
    # a triangle, a square and an edge: 1 + 2 + 2 cover components; the
    # square and the edge share neighbourhoods, so g is not admissible
    g = Graph(9, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6), (7, 8)))
    rep = verify_kronecker_theorem(g)
    assert rep == oracles.verify_kronecker_by_union_find(g)
    assert not rep.admissible and rep.cover_components == 5
    with pytest.raises(ParameterError):
        verify_kronecker_theorem(Graph(3, ((0, 1),)))
    with pytest.raises(ParameterError):
        oracles.verify_kronecker_by_union_find(Graph(3, ((0, 1),)))
