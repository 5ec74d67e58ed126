"""The pairing point i <-> block i, which block v = N(v) makes a polarity of
every V-construction, tested against the generic involution search,
block-pair lineality against the Levi girth, and the incidence stages that
use neither the Levi graph nor its walk against the ones that did."""

from dataclasses import replace
from functools import cached_property
from itertools import combinations, permutations

import pytest
from hypothesis import assume, given, settings, strategies as st

from confviz import (
    IncidenceStructure,
    VertexMap,
    build_family,
    classify,
    decompose,
    is_admissible,
    is_self_polar,
    levi_graph,
    structure_report,
    v_construct,
    verify_kronecker_theorem,
)
from confviz import incidence, iso
from confviz.graphs import StructureReport
from confviz.iso import MAX_VERTICES

import oracles

from test_kronecker_oracle import FIXTURES
from test_properties import graphs

# the two largest Levi graphs, 512 and 924 vertices; their searches take 0.2-0.6 s each
LARGE = [("hypercube", (8,)), ("odd", (6,))]
ALL_FIXTURES = FIXTURES + LARGE


def side_swapping_involution(vm, c) -> bool:
    levi, parts = levi_graph(c)
    return (
        vm.is_automorphism(levi)
        and all(vm(vm(v)) == v for v in range(levi.order))
        and all(parts.sides[v] != parts.sides[vm(v)] for v in range(levi.order))
    )


def girth_lineal(c) -> bool:
    return structure_report(levi_graph(c)[0]).girth >= 6


def assert_matches_oracles(c):
    """Components, parts, the self-polarity witness and the classification
    equal those of the Levi-graph paths in tests/oracles.py."""
    comps = oracles.levi_components(c)
    assert c.levi_components == comps
    assert decompose(c) == oracles.decompose(c)
    witness = oracles.self_polar(c)
    assert is_self_polar(c) == witness
    if c.points and c.block_count:
        cls = classify(c, with_self_polar=True)
        assert (cls.connected, cls.self_polar) == (len(comps) <= 1, witness is not None)


@pytest.fixture
def no_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the involution search ran")

    monkeypatch.setattr(iso, "find_swap_involution", refuse)


def identity_pairing(n):
    """Point i <-> block i as a map on the Levi graph's 2n vertices."""
    return VertexMap(tuple(range(n, 2 * n)) + tuple(range(n)))


def search(c):
    """The generic involution search on c's Levi graph, with no shortcut."""
    levi, parts = levi_graph(c)
    return iso.find_swap_involution(levi, parts.sides)


def with_blocks_swapped(c):
    blocks = list(c.blocks)
    blocks[0], blocks[1] = blocks[1], blocks[0]
    return replace(c, blocks=tuple(blocks))


@pytest.mark.parametrize("family,params", ALL_FIXTURES, ids=lambda x: str(x))
def test_construction_polarity_is_a_levi_involution(family, params, no_search):
    g = build_family(family, *params)
    c = v_construct(g)
    assert c.blocks == g.adjacency
    vm = is_self_polar(c)
    assert vm is not None and side_swapping_involution(vm, c)
    assert vm == identity_pairing(g.order)
    assert_matches_oracles(c)


@pytest.mark.parametrize("family,params", ALL_FIXTURES, ids=lambda x: str(x))
def test_classify_matches_the_search_and_the_girth(family, params):
    c = v_construct(build_family(family, *params))
    assert c.points + c.block_count <= MAX_VERTICES
    searched = search(c)
    assert searched is not None and side_swapping_involution(searched, c)
    cls = classify(c, with_self_polar=True)
    # the order the blocks were stored in before, which the search classifies
    old = replace(c, blocks=tuple(sorted(c.blocks)))
    assert cls.describe() == classify(old, with_self_polar=True).describe()
    assert cls.lineal == girth_lineal(c)


@settings(max_examples=60, deadline=None)
@given(graphs(max_order=10))
def test_polarity_matches_search_on_random_admissible_graphs(g):
    assume(all(g.neighbor_sets) and is_admissible(g)[0])
    c = v_construct(g)
    searched = search(c)
    assert searched is not None and side_swapping_involution(searched, c)
    vm = is_self_polar(c)
    assert side_swapping_involution(vm, c)
    assert vm == identity_pairing(g.order)


@pytest.mark.parametrize(
    "family,params",
    [("petersen", ()), ("hypercube", (4,)), ("odd", (4,)), ("gen_petersen", (7, 2)),
     ("gen_cuboctahedron", (5,))],
    ids=lambda x: str(x),
)
def test_swapped_blocks_return_the_search_answer(family, params):
    c = with_blocks_swapped(v_construct(build_family(family, *params)))
    assert not identity_pairing(c.points).is_automorphism(levi_graph(c)[0])  # a bijection that fails the check
    answer = search(c)
    assert answer is not None
    assert is_self_polar(c) == answer
    assert_matches_oracles(c)


def test_polarity_on_a_structure_that_is_not_self_polar():
    lopsided = IncidenceStructure(4, ((0, 1), (0, 2), (0, 3), (1, 2)))
    assert is_self_polar(lopsided) is None
    assert classify(lopsided, with_self_polar=True).self_polar is False


def test_collapse_keeps_blocks_in_first_occurrence_order():
    for g in (build_family("cycle", 4), build_family("path", 3)):
        assert not is_admissible(g)[0]
        c = v_construct(g, collapse=True)
        assert c.blocks == tuple(dict.fromkeys(g.adjacency))
        assert is_self_polar(c) == oracles.self_polar(c)
    g = build_family("petersen")
    assert v_construct(g, collapse=True).blocks == v_construct(g).blocks == g.adjacency


@pytest.mark.parametrize("family,params",
                         [("hypercube", (8,)), ("odd", (6,)), ("gen_cuboctahedron", (40,))])
def test_large_v_constructions_never_enter_the_search(family, params, no_search):
    cls = classify(v_construct(build_family(family, *params)), with_self_polar=True)
    assert cls.describe().endswith(", self-polar")


# the admissible families of the combinatorics benchmark's ladder
LADDER = (
    [("hypercube", (d,)) for d in range(3, 9)]
    + [("odd", (m,)) for m in range(3, 7)]
    + [("gen_petersen", (n, 2)) for n in [10, 14, 18, 22, *range(26, 43, 2), 46, 50]]
    + [("gen_cuboctahedron", (n,)) for n in [5, 9, 13, *range(17, 30, 2), *range(30, 41)]]
    + [("kneser", (7, 3)), ("petersen", ()), ("desargues", ()), ("dodecahedron", ()),
       ("pappus", ())]
)


@pytest.fixture
def no_levi_graph(monkeypatch):
    """Call to make building a Levi graph or a Kronecker cover, walking a
    graph's components and the involution search raise from then on."""

    def refuse(what):
        def fail(*args, **kwargs):
            raise AssertionError(f"{what} ran")

        return fail

    def forbid():
        monkeypatch.setattr(incidence, "levi_graph", refuse("levi_graph"))
        monkeypatch.setattr("confviz.graphs.kronecker_cover", refuse("kronecker_cover"))
        # and under that name in incidence, should it be imported there again
        monkeypatch.setattr(incidence, "kronecker_cover", refuse("kronecker_cover"), raising=False)
        monkeypatch.setattr(StructureReport, "_component_walk", property(refuse("the component walk")))
        monkeypatch.setattr(iso, "find_swap_involution", refuse("the involution search"))

    return forbid


@pytest.mark.parametrize("family,params", LADDER, ids=lambda x: str(x))
def test_ladder_stages_build_no_levi_graph(family, params, no_levi_graph, monkeypatch):
    g = build_family(family, *params)  # the Pappus graph is itself a Levi graph
    no_levi_graph()
    walks = []
    walk = IncidenceStructure.levi_components.func

    def counted(c):
        walks.append(c.points + c.block_count)
        return walk(c)

    components = cached_property(counted)
    components.__set_name__(IncidenceStructure, "levi_components")
    monkeypatch.setattr(IncidenceStructure, "levi_components", components)
    rep = verify_kronecker_theorem(g)
    assert rep.admissible and rep.verified and rep.levi_order == 2 * g.order
    assert walks == []  # the cover's components come from a BFS over g
    c = v_construct(g)
    cls = classify(c, with_self_polar=True)
    parts = decompose(c)
    assert walks == [c.points + c.block_count]  # one components walk per structure, shared
    assert cls.self_polar and cls.connected == (len(parts) == 1)
    assert len(parts) in (1, 2) and sum(part.points for part in parts) == c.points
    assert is_self_polar(c) == identity_pairing(g.order)


def test_non_admissible_report_builds_no_levi_graph(no_levi_graph):
    g = build_family("cycle", 4)
    no_levi_graph()
    rep = verify_kronecker_theorem(g)
    assert not rep.admissible and rep.cover_components == 2 and rep.collapsed_block_count == 2
    parts = decompose(v_construct(g, collapse=True))
    assert [(part.points, part.blocks) for part in parts] == [(2, ((0, 1),)), (2, ((0, 1),))]


# ---------------------------------------------------------------------------
# random structures, held to the Levi-graph oracles


@st.composite
def structures(draw, max_points=9):
    """Structures on up to max_points points, some in no block and often with
    several Levi components. Half are random blocks; half come from a random
    symmetric relation, block p holding the points related to p, so that
    point p <-> block p is a polarity whenever those blocks are nonempty and
    distinct. Those keep their blocks in point order or in a random one."""
    n = draw(st.integers(min_value=1, max_value=max_points))
    points = st.integers(min_value=0, max_value=n - 1)
    if draw(st.booleans()):
        blocks = draw(st.lists(st.frozensets(points, min_size=1), min_size=1, max_size=12, unique=True))
        return IncidenceStructure(n, tuple(tuple(b) for b in blocks))
    rows = [set() for _ in range(n)]
    for a, b in draw(st.sets(st.tuples(points, points), min_size=1)):
        rows[a].add(b)
        rows[b].add(a)
    blocks = tuple(dict.fromkeys(tuple(sorted(row)) for row in rows if row))
    if draw(st.booleans()):
        blocks = tuple(draw(st.permutations(blocks)))
    return IncidenceStructure(n, blocks)


def _pairing_is_automorphism(c):
    """Whether point i <-> block i is a Levi automorphism; None when the
    point and block counts differ."""
    if c.points != c.block_count:
        return None
    return identity_pairing(c.points).is_automorphism(levi_graph(c)[0])


REACH = {
    "point in no block": lambda c: c.points > len({p for blk in c.blocks for p in blk}),
    "disconnected": lambda c: len(oracles.levi_components(c)) > 1,
    "pairing is a polarity": lambda c: _pairing_is_automorphism(c) is True,
    "pairing is not a polarity": lambda c: _pairing_is_automorphism(c) is False,
    "self-polar by search only": lambda c: _pairing_is_automorphism(c) is False and search(c) is not None,
    "more points than blocks": lambda c: c.points > c.block_count,
    "more blocks than points": lambda c: c.points < c.block_count,
}


def test_every_block_order_on_up_to_three_points():
    # each order of each set of n distinct blocks on n points
    for n in (1, 2, 3):
        subsets = [b for k in range(1, n + 1) for b in combinations(range(n), k)]
        for blocks in combinations(subsets, n):
            for order in permutations(blocks):
                c = IncidenceStructure(n, order)
                assert is_self_polar(c) == oracles.self_polar(c)


def test_structures_reach_every_case():
    seen = set()

    @settings(max_examples=300, database=None, derandomize=True)
    @given(structures())
    def collect(c):
        seen.update(case for case, hit in REACH.items() if hit(c))

    collect()
    assert seen == set(REACH)


@settings(max_examples=300, deadline=None)
@given(structures())
def test_incidence_stages_match_the_levi_graph_oracles(c):
    assert_matches_oracles(c)


# ---------------------------------------------------------------------------
# lineality


@settings(max_examples=200, deadline=None)
@given(structures())
def test_block_pair_lineality_matches_levi_girth(c):
    assert classify(c).lineal == girth_lineal(c)


def test_lineality_cases_by_hand():
    shared = IncidenceStructure(5, ((0, 1, 2), (0, 1, 3), (4,)))  # shared pair, disconnected
    assert not classify(shared).lineal and not girth_lineal(shared)
    apart = IncidenceStructure(6, ((0, 1, 2), (2, 3), (4, 5), (0, 3)))  # non-uniform
    assert classify(apart).lineal and girth_lineal(apart)
