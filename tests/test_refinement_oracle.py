"""The free-action search that isomorphic and find_swap_involution run,
against the 1-WL refinement engine with individualisation that they ran
before (oracles.refinement_isomorphic and
oracles.refinement_swap_involution): the same outcome on every case, and
every witness checked on its own."""

from itertools import combinations

from hypothesis import given, settings, strategies as st

import oracles
from confviz import Graph, isomorphic, kronecker_cover
from confviz.graphs import generalized_petersen_graph
from confviz.iso import find_swap_involution


def relabelled(g: Graph, perm) -> Graph:
    return Graph(g.order, tuple((perm[u], perm[v]) for u, v in g.edges))


def assert_same_isomorphism_outcome(g: Graph, h: Graph) -> bool:
    mine, old = isomorphic(g, h), oracles.refinement_isomorphic(g, h)
    assert (mine is None) == (old is None)
    for vm in (mine, old):
        assert vm is None or oracles.is_isomorphism(vm, g, h)
    return mine is not None


def assert_same_swap_outcome(g: Graph, sides) -> bool:
    mine, old = find_swap_involution(g, sides), oracles.refinement_swap_involution(g, sides)
    assert (mine is None) == (old is None)
    for vm in (mine, old):
        if vm is not None:
            assert oracles.is_isomorphism(vm, g, g)
            assert all(vm(vm(v)) == v and sides[vm(v)] != sides[v] for v in range(g.order))
    return mine is not None


@st.composite
def graph_pairs(draw):
    """A graph of at most 12 vertices, and either a relabelled copy of it or
    a random graph of the same order and size."""
    n = draw(st.integers(min_value=0, max_value=12))
    pairs = list(combinations(range(n), 2))
    m = draw(st.integers(min_value=0, max_value=len(pairs)))
    g = Graph(n, tuple(draw(st.permutations(pairs))[:m]))
    if draw(st.booleans()):
        return g, relabelled(g, draw(st.permutations(range(n))))
    return g, Graph(n, tuple(draw(st.permutations(pairs))[:m]))


@settings(max_examples=200, deadline=None)
@given(graph_pairs())
def test_isomorphic_agrees_with_refinement_on_random_graphs(pair):
    assert_same_isomorphism_outcome(*pair)


@st.composite
def sided_graphs(draw):
    """A relabelled Kronecker cover of a graph of at most 6 vertices, with its
    sides, where the fibre swap is an answer; or a random graph of at most 12
    vertices with a random balanced side assignment."""
    half = draw(st.integers(min_value=0, max_value=6))
    n = 2 * half
    if draw(st.booleans()):
        pairs = list(combinations(range(half), 2))
        base = Graph(half, tuple(draw(st.permutations(pairs))[: draw(st.integers(0, len(pairs)))]))
        cover, parts = kronecker_cover(base)
        perm = draw(st.permutations(range(n)))
        sides = [0] * n
        for v in range(n):
            sides[perm[v]] = parts.sides[v]
        return relabelled(cover, perm), tuple(sides)
    pairs = list(combinations(range(n), 2))
    g = Graph(n, tuple(draw(st.permutations(pairs))[: draw(st.integers(0, len(pairs)))]))
    return g, tuple(draw(st.permutations((0,) * half + (1,) * half)))


@settings(max_examples=200, deadline=None)
@given(sided_graphs())
def test_swap_involution_agrees_with_refinement_on_random_graphs(case):
    g, sides = case
    found = assert_same_swap_outcome(g, sides)
    if g.order <= 6:
        assert found == bool(oracles.brute_swap_involutions(g.order, g.edges, sides))


def rook_and_shrikhande() -> tuple[Graph, Graph]:
    """The 4x4 rook graph and the Shrikhande graph, both strongly regular
    (16,6,2,2): 1-WL does not tell them apart."""

    def idx(a, b):
        return 4 * (a % 4) + (b % 4)

    cells = [(a, b) for a in range(4) for b in range(4)]
    rook = {(idx(a, b), idx(a, b + t)) for a, b in cells for t in range(1, 4)}
    rook |= {(idx(a, b), idx(a + t, b)) for a, b in cells for t in range(1, 4)}
    steps = ((0, 1), (0, -1), (1, 0), (-1, 0), (1, 1), (-1, -1))
    shrikhande = {(idx(a, b), idx(a + da, b + db)) for a, b in cells for da, db in steps}
    return Graph(16, tuple(rook)), Graph(16, tuple(shrikhande))


def triangular_and_chang() -> tuple[Graph, list[Graph]]:
    """T(8), the line graph of K8, and the three Chang graphs: T(8) Seidel
    switched on the edges of K8 that form a perfect matching, an 8-cycle,
    and a triangle with a disjoint 5-cycle. All four are strongly regular
    (28,12,6,4) and pairwise non-isomorphic."""
    pairs = list(combinations(range(8), 2))
    index = {p: i for i, p in enumerate(pairs)}
    edges = {(index[p], index[q]) for p, q in combinations(pairs, 2) if set(p) & set(q)}

    def switched(cycles):
        # a 2-cycle is one edge, met from both ends
        switch = {index[tuple(sorted((c[i], c[(i + 1) % len(c)])))] for c in cycles for i in range(len(c))}
        toggled = {(u, v) for u in switch for v in range(len(pairs)) if v not in switch}
        both = {tuple(sorted(e)) for e in toggled}
        return Graph(len(pairs), tuple((edges - both) | (both - edges)))

    chang = [
        switched([(0, 1), (2, 3), (4, 5), (6, 7)]),
        switched([tuple(range(8))]),
        switched([(0, 1, 2), (3, 4, 5, 6, 7)]),
    ]
    return Graph(len(pairs), tuple(edges)), chang


def test_rook_and_shrikhande_agree_with_refinement():
    rook, shrikhande = rook_and_shrikhande()
    assert not assert_same_isomorphism_outcome(rook, shrikhande)
    for g in (rook, shrikhande):
        assert assert_same_isomorphism_outcome(g, relabelled(g, [(5 * v + 3) % 16 for v in range(16)]))


def test_triangular_graph_and_chang_graphs_agree_with_refinement():
    t8, chang = triangular_and_chang()
    for g in (t8, *chang):
        assert g.size == 28 * 12 // 2 and all(len(a) == 12 for a in g.adjacency)
    for c in chang:
        assert not assert_same_isomorphism_outcome(t8, c)
    assert assert_same_isomorphism_outcome(chang[0], relabelled(chang[0], [(3 * v + 1) % 28 for v in range(28)]))


def test_generalized_petersen_pairs_agree_with_refinement():
    """All 570 pairs GP(n,a), GP(n,b) with a < b < n/2, n = 7..26. They are
    isomorphic exactly when ab = +-1 (mod n), which holds for 33 of them."""
    found = 0
    for n in range(7, 27):
        for a, b in combinations(range(1, (n + 1) // 2), 2):
            iso = assert_same_isomorphism_outcome(generalized_petersen_graph(n, a), generalized_petersen_graph(n, b))
            assert iso == ((a * b) % n in (1, n - 1))
            found += iso
    assert found == 33
