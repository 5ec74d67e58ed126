import math

from hypothesis import given, settings, strategies as st

from confviz import (
    Graph,
    classify,
    kronecker_cover,
    levi_graph,
    structure_report,
    v_construct,
)
from confviz.graphs import (
    cartesian_product,
    cycle_graph,
    desargues_graph,
    dodecahedron_graph,
    gen_cuboctahedron_graph,
    generalized_petersen_graph,
    hypercube_graph,
    is_admissible,
    odd_graph,
    pappus_graph,
    petersen_graph,
)
from oracles import adjacency, bipartition_valid_for, brute_girth, has_four_cycle_brute


@st.composite
def graphs(draw, max_order=8):
    n = draw(st.integers(min_value=1, max_value=max_order))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = tuple(p for p, keep in zip(pairs, mask) if keep)
    return Graph(n, edges)


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_cover_is_always_bipartite(g):
    cover, parts = kronecker_cover(g)
    assert cover.order == 2 * g.order
    rep = structure_report(cover)
    assert rep.bipartite
    assert bipartition_valid_for(parts, cover)
    assert len(parts.sides) == cover.order


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_cover_preserves_degrees(g):
    cover, _ = kronecker_cover(g)
    deg = [len(a) for a in adjacency(g.order, g.edges)]
    cdeg = [len(a) for a in adjacency(cover.order, cover.edges)]
    for v in range(g.order):
        assert cdeg[v] == deg[v]
        assert cdeg[g.order + v] == deg[v]


@settings(max_examples=40, deadline=None)
@given(graphs(max_order=6), graphs(max_order=4))
def test_product_degree_sum(g, h):
    prod = cartesian_product(g, h)
    dg = [len(a) for a in adjacency(g.order, g.edges)]
    dh = [len(a) for a in adjacency(h.order, h.edges)]
    dp = [len(a) for a in adjacency(prod.order, prod.edges)]
    for u in range(g.order):
        for v in range(h.order):
            assert dp[u * h.order + v] == dg[u] + dh[v]


@settings(max_examples=80, deadline=None)
@given(graphs())
def test_girth_and_four_cycles_match_oracles(g):
    rep = structure_report(g)
    assert rep.girth == brute_girth(g.order, g.edges)
    assert rep.has_four_cycle == has_four_cycle_brute(g.order, g.edges)
    if rep.girth == 4:
        assert rep.has_four_cycle
    if rep.girth != math.inf and rep.girth > 4:
        assert not rep.has_four_cycle


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_components_partition_vertices(g):
    rep = structure_report(g)
    seen = sorted(v for comp in rep.components for v in comp)
    assert seen == list(range(g.order))
    assert rep.connected == (len(rep.components) == 1)


ADMISSIBLE_POOL = [
    petersen_graph(),
    desargues_graph(),
    pappus_graph(),
    dodecahedron_graph(),
    hypercube_graph(3),
    hypercube_graph(4),
    gen_cuboctahedron_graph(4),
    gen_cuboctahedron_graph(5),
    generalized_petersen_graph(7, 2),
    odd_graph(4),
    cycle_graph(7),
]


def test_pool_is_admissible():
    for g in ADMISSIBLE_POOL:
        ok, pair = is_admissible(g)
        assert ok, pair


def test_levi_graph_is_bipartite():
    for g in ADMISSIBLE_POOL:
        c = v_construct(g)
        levi, parts = levi_graph(c)
        rep = structure_report(levi)
        assert rep.bipartite
        assert bipartition_valid_for(parts, levi)
        assert parts.sides == (0,) * c.points + (1,) * c.block_count


def test_odd_cycle_square_products_verify():
    # smallest documented sizes; larger N untested by design
    from confviz import v_construct as vc, verify_kronecker_theorem

    for n in (5, 7, 9):
        g = cartesian_product(cycle_graph(n), hypercube_graph(2))
        rep = verify_kronecker_theorem(g)
        assert rep.admissible and rep.verified
        assert classify(vc(g)).balanced_type == (4 * n, 4)


def test_lineal_iff_levi_girth_iff_no_four_cycle():
    for g in ADMISSIBLE_POOL:
        c = v_construct(g)
        lineal = classify(c).lineal
        levi, _ = levi_graph(c)
        girth6 = structure_report(levi).girth >= 6
        four_free = not structure_report(g).has_four_cycle
        assert lineal == girth6 == four_free, (g.order, lineal, girth6, four_free)
