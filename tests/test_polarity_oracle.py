"""The construction's polarity v <-> N(v) tested against the generic involution
search, and block-pair lineality against the Levi girth."""

from dataclasses import replace

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
)
from confviz import iso, jsonio
from confviz.iso import MAX_VERTICES

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


@pytest.fixture
def no_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the involution search ran")

    monkeypatch.setattr(iso, "find_swap_involution", refuse)


@pytest.mark.parametrize("family,params", ALL_FIXTURES, ids=lambda x: str(x))
def test_construction_polarity_is_a_levi_involution(family, params, no_search):
    g = build_family(family, *params)
    c = v_construct(g)
    n = g.order
    assert all(c.blocks[c.polarity[v]] == g.adjacency[v] for v in range(n))
    vm = is_self_polar(c)
    assert vm is not None and side_swapping_involution(vm, c)
    assert vm.image[:n] == tuple(n + j for j in c.polarity)


@pytest.mark.parametrize("family,params", ALL_FIXTURES, ids=lambda x: str(x))
def test_classify_matches_the_search_and_the_girth(family, params):
    c = v_construct(build_family(family, *params))
    bare = replace(c, polarity=None)
    assert bare.polarity is None and bare == c
    assert c.points + c.block_count <= MAX_VERTICES
    searched = is_self_polar(bare)
    assert searched is not None and side_swapping_involution(searched, c)
    cls = classify(c, with_self_polar=True)
    assert cls.describe() == classify(bare, with_self_polar=True).describe()
    assert cls.lineal == girth_lineal(c)


@settings(max_examples=60, deadline=None)
@given(graphs(max_order=10))
def test_polarity_matches_search_on_random_admissible_graphs(g):
    assume(all(g.neighbor_sets) and is_admissible(g)[0])
    c = v_construct(g)
    searched = is_self_polar(replace(c, polarity=None))
    assert searched is not None and side_swapping_involution(searched, c)
    vm = is_self_polar(c)
    assert side_swapping_involution(vm, c)
    assert vm.image[: g.order] == tuple(g.order + j for j in c.polarity)


def corruptions(pol):
    n = len(pol)
    swapped = list(pol)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    high, low = list(pol), list(pol)
    high[-1], low[0] = n, -1
    return {
        "swapped": tuple(swapped),
        "short": pol[:-1],
        "long": pol + (pol[0],),
        "high": tuple(high),
        "negative": tuple(low),
        "repeated": (pol[0],) * n,
    }


@pytest.mark.parametrize(
    "family,params",
    [("petersen", ()), ("hypercube", (4,)), ("odd", (4,)), ("gen_petersen", (7, 2)),
     ("gen_cuboctahedron", (5,))],
    ids=lambda x: str(x),
)
def test_corrupted_polarity_returns_the_search_answer(family, params):
    c = v_construct(build_family(family, *params))
    levi, _ = levi_graph(c)
    n = c.points
    swapped = corruptions(c.polarity)["swapped"]
    image = [0] * (2 * n)
    for p, j in enumerate(swapped):
        image[p], image[n + j] = n + j, p
    assert not VertexMap(tuple(image)).is_automorphism(levi)  # a bijection that fails the check
    answer = is_self_polar(replace(c, polarity=None))
    assert answer is not None
    for name, bad in corruptions(c.polarity).items():
        assert is_self_polar(replace(c, polarity=bad)) == answer, name


def test_polarity_on_a_structure_that_is_not_self_polar():
    lopsided = IncidenceStructure(4, ((0, 1), (0, 2), (0, 3), (1, 2)), polarity=(0, 1, 2, 3))
    assert is_self_polar(lopsided) is None
    assert classify(lopsided, with_self_polar=True).self_polar is False


def test_polarity_set_only_without_merged_blocks():
    for g in (build_family("cycle", 4), build_family("path", 3)):
        assert not is_admissible(g)[0]
        assert v_construct(g, collapse=True).polarity is None
    g = build_family("petersen")
    assert v_construct(g, collapse=True).polarity == v_construct(g).polarity


def test_polarity_leaves_equality_repr_and_bytes_alone(tmp_path):
    c = v_construct(build_family("petersen"))
    bare = replace(c, polarity=None)
    assert c == bare and hash(c) == hash(bare) and repr(c) == repr(bare)
    assert "polarity" not in repr(c)
    assert jsonio.incidence_to_obj(c) == jsonio.incidence_to_obj(bare)
    path = tmp_path / "c.json"
    jsonio.save(str(path), jsonio.incidence_to_obj(c))
    back = jsonio.incidence_from_obj(jsonio.load(str(path)))
    assert back == c and back.polarity is None
    assert all(part.polarity is None for part in decompose(v_construct(build_family("hypercube", 3))))


@pytest.mark.parametrize("family,params",
                         [("hypercube", (8,)), ("odd", (6,)), ("gen_cuboctahedron", (40,))])
def test_large_v_constructions_never_enter_the_search(family, params, no_search):
    cls = classify(v_construct(build_family(family, *params)), with_self_polar=True)
    assert cls.describe().endswith(", self-polar")


# ---------------------------------------------------------------------------
# lineality


@st.composite
def structures(draw, max_points=9):
    n = draw(st.integers(min_value=1, max_value=max_points))
    subsets = st.frozensets(st.integers(min_value=0, max_value=n - 1), min_size=1)
    blocks = draw(st.lists(subsets, min_size=1, max_size=12, unique=True))
    return IncidenceStructure(n, tuple(tuple(b) for b in blocks))


@settings(max_examples=200, deadline=None)
@given(structures())
def test_block_pair_lineality_matches_levi_girth(c):
    assert classify(c).lineal == girth_lineal(c)


def test_lineality_cases_by_hand():
    shared = IncidenceStructure(5, ((0, 1, 2), (0, 1, 3), (4,)))  # shared pair, disconnected
    assert not classify(shared).lineal and not girth_lineal(shared)
    apart = IncidenceStructure(6, ((0, 1, 2), (2, 3), (4, 5), (0, 3)))  # non-uniform
    assert classify(apart).lineal and girth_lineal(apart)
