import math
import pathlib
import random
import re
from functools import reduce
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from confviz import (
    Graph,
    ParameterError,
    VertexMap,
    build_family,
    cartesian_factors,
    cartesian_product,
    family_names,
    girth,
    is_admissible,
    isomorphic,
    jsonio,
    kronecker_cover,
    line_graph,
)
from confviz.graphs import (
    bipartite_kneser_graph,
    complete_graph,
    cycle_graph,
    desargues_graph,
    dodecahedron_graph,
    gen_cuboctahedron_graph,
    generalized_petersen_graph,
    hypercube_graph,
    kneser_graph,
    odd_graph,
    pappus_graph,
    path_graph,
    petersen_graph,
    prism_graph,
)

import confviz.graphs as graphs
import oracles
from oracles import brute_girth, has_four_cycle_brute, tensor_double_cover


def test_graph_normalizes_edges():
    g = Graph(4, ((2, 0), (3, 1), (0, 1)))
    assert g.edges == ((0, 1), (0, 2), (1, 3))
    assert g.size == 3
    assert g.adjacency == ((1, 2), (0, 3), (0,), (1,))


def test_graph_rejects_bad_edges():
    with pytest.raises(ParameterError):
        Graph(3, ((0, 3),))
    with pytest.raises(ParameterError):
        Graph(3, ((1, 1),))
    # reversed duplicates collapse under normalization
    assert Graph(3, ((0, 1), (1, 0))).edges == ((0, 1),)


def test_cycle_path_complete_prism():
    assert cycle_graph(4).edges == ((0, 1), (0, 3), (1, 2), (2, 3))
    assert path_graph(3).edges == ((0, 1), (1, 2))
    assert complete_graph(4).size == 6
    p = prism_graph(3)
    assert p.order == 6 and p.size == 9
    assert oracles.regular_degree(p) == 3


def test_hypercube():
    q3 = hypercube_graph(3)
    assert q3.order == 8 and q3.size == 12
    assert oracles.bipartition(q3) is not None and girth(q3) == 4 and oracles.regular_degree(q3) == 3
    assert q3.label(5) == "101"
    q5 = hypercube_graph(5)
    assert q5.order == 32 and q5.size == 80


def test_kneser_graphs():
    pet = kneser_graph(5, 2)
    assert pet.order == 10 and pet.size == 15
    assert girth(pet) == 5
    k73 = kneser_graph(7, 3)
    assert k73.order == 35
    assert oracles.regular_degree(k73) == 4
    with pytest.raises(ParameterError):
        kneser_graph(3, 2)


def test_kneser_edges_match_all_pairs_definition():
    for n in range(2, 12):
        for k in range(1, n // 2 + 1):
            verts = list(combinations(range(n), k))
            expected = tuple(
                (i, j)
                for i, j in combinations(range(len(verts)), 2)
                if not set(verts[i]) & set(verts[j])
            )
            assert kneser_graph(n, k).edges == expected, (n, k)


def test_bipartite_kneser_matches_containment_definition():
    for n in range(3, 12):
        for k in range(1, (n - 1) // 2 + 1):
            small = list(combinations(range(n), k))
            large = list(combinations(range(n), n - k))
            expected = tuple(
                (i, len(small) + j)
                for i, s in enumerate(small)
                for j, t in enumerate(large)
                if set(s) <= set(t)
            )
            h = bipartite_kneser_graph(n, k)
            assert h.edges == expected, (n, k)
            assert h.labels == tuple(
                "{" + ",".join(map(str, s)) + "}" for s in small + large
            ), (n, k)


def test_bipartite_kneser():
    bk = bipartite_kneser_graph(5, 2)
    assert bk.order == 20 and bk.size == 30
    assert oracles.bipartition(bk) is not None and girth(bk) == 6 and oracles.regular_degree(bk) == 3
    with pytest.raises(ParameterError):
        bipartite_kneser_graph(4, 2)


def test_odd_graph_is_kneser():
    assert odd_graph(3).edges == petersen_graph().edges
    o4 = odd_graph(4)
    assert o4.order == 35 and o4.edges == kneser_graph(7, 3).edges


def test_generalized_petersen():
    gp = generalized_petersen_graph(7, 2)
    assert gp.order == 14 and gp.size == 21
    assert oracles.regular_degree(gp) == 3
    assert gp.label(0) == "o0" and gp.label(7) == "i0"
    with pytest.raises(ParameterError):
        generalized_petersen_graph(4, 2)


def test_named_graphs():
    assert dodecahedron_graph().edges == generalized_petersen_graph(10, 2).edges
    des = desargues_graph()
    assert des.order == 20 and girth(des) == 6
    pap = pappus_graph()
    assert pap.order == 18 and pap.size == 27
    assert oracles.bipartition(pap) is not None and girth(pap) == 6


def test_gen_cuboctahedron_is_prism_line_graph():
    for n in (3, 5):
        co = gen_cuboctahedron_graph(n)
        assert co.order == 3 * n
        assert oracles.regular_degree(co) == 4
        assert co.edges == line_graph(prism_graph(n)).edges


def test_family_registry():
    names = family_names()
    for needed in ("cycle", "kneser", "petersen", "pappus", "gen_cuboctahedron"):
        assert needed in names
    assert build_family("kneser", 5, 2).edges == petersen_graph().edges
    with pytest.raises(ParameterError):
        build_family("nosuch")
    with pytest.raises(ParameterError):
        build_family("petersen", 3)


def test_cartesian_product_c7_q2():
    g = cartesian_product(cycle_graph(7), hypercube_graph(2))
    assert g.order == 28
    assert g.size == 7 * 4 + 4 * 7
    assert oracles.regular_degree(g) == 4


def test_product_labels():
    g = cartesian_product(path_graph(2), path_graph(2))
    assert g.order == 4 and g.size == 4
    assert "(" in g.label(0) and "," in g.label(0)


# prime factors without a 4-cycle, so the delta rule splits their products
# exactly along the factors
SQUARE_FREE = [complete_graph(2), cycle_graph(3)] + [cycle_graph(n) for n in range(5, 9)]
SQUARE_FREE += [path_graph(n) for n in range(3, 6)] + [complete_graph(4), petersen_graph()]


def relabel(g, seed):
    perm = list(range(g.order))
    random.Random(seed).shuffle(perm)
    return Graph(g.order, tuple((perm[u], perm[v]) for u, v in g.edges))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(SQUARE_FREE), min_size=2, max_size=3), st.integers(0, 2**32 - 1))
def test_cartesian_factors_split_products_of_primes(primes, seed):
    product = primes[0]
    for f in primes[1:]:
        product = cartesian_product(product, f)
    g = relabel(product, seed)
    factors, witness = cartesian_factors(g)
    folded = factors[0]
    for f in factors[1:]:
        folded = cartesian_product(folded, f)
    assert oracles.is_isomorphism(witness, g, folded)
    unmatched = list(primes)
    for f in factors:
        match = next(i for i, p in enumerate(unmatched) if isomorphic(f, p) is not None)
        unmatched.pop(match)
    assert unmatched == []


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(SQUARE_FREE), min_size=1, max_size=3), st.integers(0, 2**32 - 1),
       st.integers(-1, 40))
def test_cartesian_factors_match_component_walk_oracle(primes, seed, cut):
    """The vertex union-find gives the factors, labels and witness of the
    per-class component walks it replaced, also on products missing an edge."""
    g = relabel(reduce(cartesian_product, primes), seed)
    if 0 <= cut < g.size:
        g = Graph(g.order, g.edges[:cut] + g.edges[cut + 1:])
    assert cartesian_factors(g) == oracles.cartesian_factors(g)


FACTOR_CASES = [("hypercube", 6), ("prism", 12), ("gen_petersen", 9, 1), ("pappus",), ("gen_cuboctahedron", 9)]


@pytest.mark.parametrize("g", [build_family(*f) for f in FACTOR_CASES])
def test_cartesian_factors_of_families_match_oracle(g):
    assert cartesian_factors(g) == oracles.cartesian_factors(g)


# every builder that records a closed-form factorization, over the members
# it leaves to the recognizer too: prism(4) = GP(4,1) is the 3-cube, and the
# 1-cube is K_2
RECORDED = ([("prism", n) for n in range(3, 41)] + [("gen_petersen", n, 1) for n in range(3, 41)]
            + [("hypercube", d) for d in range(1, 11)])
UNRECORDED = [("prism", 4), ("gen_petersen", 4, 1), ("hypercube", 1)]


@pytest.mark.parametrize("family", RECORDED, ids=lambda f: "-".join(map(str, f)))
def test_recorded_factorizations_match_the_recognizer(family):
    """A family member records itself, and its closed-form factors and
    witness equal, field for field, what the recognizer finds for a
    constructor-built copy, and what the component-walk oracle finds; the
    members left to the recognizer never form the closed form. A copy and
    a file record nothing."""
    g = build_family(*family)
    copy = Graph(g.order, g.edges, g.labels)
    assert copy == g and hash(copy) == hash(g) and repr(copy) == repr(g)
    assert g._family == family
    assert copy._family is None and jsonio.graph_from_obj(jsonio.graph_to_obj(g))._family is None
    form = "_cube_factors" if family[0] == "hypercube" else "_prism_factors"
    with mock.patch.object(graphs, form, wraps=getattr(graphs, form)) as closed:
        got = cartesian_factors(g)
    assert closed.call_count == (family not in UNRECORDED)
    assert got == cartesian_factors(copy) == oracles.cartesian_factors(g)


# family builders, with the record each leaves: the dodecahedron is built
# as GP(10,2), and line graphs, products, covers and factors record nothing
BUILT = {
    "prism(4)": (lambda: prism_graph(4), ("prism", 4)),
    "GP(12,5)": (lambda: generalized_petersen_graph(12, 5), ("gen_petersen", 12, 5)),
    "dodecahedron": (dodecahedron_graph, ("gen_petersen", 10, 2)),
    "hypercube(1)": (lambda: hypercube_graph(1), ("hypercube", 1)),
    "petersen": (petersen_graph, None),
    "desargues": (desargues_graph, None),
    "pappus": (pappus_graph, None),
    "cycle(6)": (lambda: cycle_graph(6), None),
    "path(4)": (lambda: path_graph(4), None),
    "complete(4)": (lambda: complete_graph(4), None),
    "kneser(6,2)": (lambda: kneser_graph(6, 2), None),
    "bipartite_kneser(5,1)": (lambda: bipartite_kneser_graph(5, 1), None),
    "odd(4)": (lambda: odd_graph(4), None),
    "CO(5)": (lambda: gen_cuboctahedron_graph(5), None),
    "line graph": (lambda: line_graph(hypercube_graph(3)), None),
    "product": (lambda: cartesian_product(cycle_graph(5), path_graph(2)), None),
    "cover": (lambda: kronecker_cover(prism_graph(5))[0], None),
    "factor": (lambda: cartesian_factors(prism_graph(5))[0][0], None),
}


@pytest.mark.parametrize("build,record", BUILT.values(), ids=BUILT)
def test_the_record_names_the_member_built(build, record):
    assert build()._family == record


def test_only_graphs_reads_the_family_record():
    """The record, and the two it replaced, are named in graphs.py alone."""
    src = pathlib.Path(graphs.__file__).parent
    named = sorted(p.name for p in src.glob("*.py") if re.search(r"\b_(family|factored|rotations)\b", p.read_text()))
    assert named == ["graphs.py"]


@pytest.mark.parametrize("g", [petersen_graph(), complete_graph(4), cycle_graph(5),
                               generalized_petersen_graph(7, 2), dodecahedron_graph(),
                               desargues_graph()])
def test_cartesian_factors_leave_primes_whole(g):
    factors, witness = cartesian_factors(g)
    assert factors == (g,)
    assert witness.image == tuple(range(g.order))


def test_cartesian_factors_of_prism_and_hypercube():
    factors, witness = cartesian_factors(prism_graph(7))
    assert [(f.order, f.size) for f in factors] == [(7, 7), (2, 1)]
    assert oracles.is_isomorphism(witness, prism_graph(7), cartesian_product(*factors))
    assert [f.order for f in cartesian_factors(hypercube_graph(5))[0]] == [2] * 5
    assert cartesian_factors(Graph(3, ()))[0] == (Graph(3, ()),)


@pytest.mark.parametrize("seed", [0, 1])
def test_wrong_factor_map_falls_back_to_random_loop(monkeypatch, seed):
    """A product the witness map does not fit counts as prime, and the plain
    solve runs the random loop alone, bit-equal to the loop it came from."""
    from confviz import ConvergenceError, graphs, solve_unit_distance

    right = graphs._product_map

    def swapped(g, factors, colour, coords):
        # the coordinates of vertices 0 and 1 exchanged
        return right(g, factors, colour, [coords[1], coords[0], *coords[2:]])

    monkeypatch.setattr(graphs, "_product_map", swapped)
    # built by the constructor, so that no recorded factorization stands in
    # for the recognizer
    g = Graph(10, prism_graph(5).edges)
    assert cartesian_factors(g) == ((g,), VertexMap(tuple(range(g.order))))
    try:
        want = oracles.solve_unit_distance(g, seed=seed, restarts=8)
    except ConvergenceError as exc:
        with pytest.raises(ConvergenceError) as got:
            solve_unit_distance(g, seed=seed, restarts=8)
        assert (got.value.residual, got.value.restarts) == (exc.residual, 8)
        return
    lay, residual = solve_unit_distance(g, seed=seed, restarts=8)
    assert lay.meta["method"] == "lm"
    assert (lay.pos.tobytes(), list(lay.meta.items()), residual) == (
        want[0].pos.tobytes(), list(want[0].meta.items()), want[1])


def test_product_map_refuses_coordinates_that_collide():
    """Every edge of the 4-cycle moves its first coordinate along K2 when
    vertices 0 and 2, and 1 and 3, share coordinates; only the bijection
    test refuses that map."""
    from confviz import graphs

    k2 = complete_graph(2)
    c4 = cycle_graph(4)
    assert c4.edges == ((0, 1), (0, 3), (1, 2), (2, 3))
    # the edge classes, then each factor's coordinate of vertices 0..3
    assert graphs._product_map(c4, [k2, k2], [list(c4.edges), []], [[0, 1, 0, 1], [0, 0, 0, 0]]) is None
    good = graphs._product_map(c4, [k2, k2], [[(0, 1), (2, 3)], [(0, 3), (1, 2)]], [[0, 1, 1, 0], [0, 0, 1, 1]])
    assert oracles.is_isomorphism(good, c4, cartesian_product(k2, k2))


def test_line_graph_k4():
    lg = line_graph(complete_graph(4))
    assert lg.order == 6
    assert oracles.regular_degree(lg) == 4
    # complement of L(K4) is a perfect matching
    comp = [(u, v) for u, v in combinations(range(6), 2) if (u, v) not in lg.edges]
    assert len(comp) == 3
    assert len({x for e in comp for x in e}) == 6


def test_kronecker_cover_k3_matches_tensor_oracle():
    k3 = complete_graph(3)
    cover, parts = kronecker_cover(k3)
    assert cover.edges == tensor_double_cover(3, k3.edges)
    assert cover.order == 6
    assert len(oracles.components(cover)) == 1 and girth(cover) == 6  # the cover of K3 is a hexagon
    assert oracles.bipartition_valid_for(parts, cover)


def test_kronecker_cover_of_bipartite_splits():
    q3 = hypercube_graph(3)
    cover, _ = kronecker_cover(q3)
    assert len(oracles.components(cover)) == 2
    assert cover.edges == tensor_double_cover(8, q3.edges)


def test_admissibility():
    pet = petersen_graph()
    ok, pair = is_admissible(pet)
    assert ok and pair is None
    # brute force: all neighborhood pairs distinct
    nbhd = pet.neighbor_sets
    assert len(set(nbhd)) == len(nbhd)
    ok, pair = is_admissible(cycle_graph(4))
    assert not ok and pair == (0, 2)


def test_girth_against_oracle():
    graphs = [
        cycle_graph(5),
        cycle_graph(9),
        petersen_graph(),
        hypercube_graph(3),
        hypercube_graph(4),
        prism_graph(4),
        complete_graph(5),
        generalized_petersen_graph(7, 2),
        desargues_graph(),
        pappus_graph(),
    ]
    for g in graphs:
        assert girth(g) == brute_girth(g.order, g.edges)


def test_acyclic_girth_is_infinite():
    assert girth(path_graph(5)) == math.inf


def test_four_cycle_against_oracle():
    for g in (cycle_graph(4), cycle_graph(5), petersen_graph(), hypercube_graph(3),
              complete_graph(4), prism_graph(4), path_graph(4)):
        assert graphs.pair_in_two(g.adjacency) == has_four_cycle_brute(g.order, g.edges)


def test_bipartition_oracle():
    sides = oracles.bipartition(hypercube_graph(3)).sides
    for u, v in hypercube_graph(3).edges:
        assert sides[u] != sides[v]
    assert oracles.bipartition(petersen_graph()) is None


def test_components_listed():
    g = Graph(6, ((0, 1), (1, 2), (3, 4)))
    assert oracles.components(g) == ((0, 1, 2), (3, 4), (5,))


@pytest.mark.parametrize("g, connected", [
    (Graph(0, ()), True), (Graph(1, ()), True), (Graph(2, ()), False),
    (Graph(6, ((0, 1), (1, 2), (3, 4))), False), (Graph(3, ((1, 2),)), False),
    (prism_graph(14), True), (hypercube_graph(4), True),
    # the same graphs without their family record, which answers unwalked
    (Graph(28, prism_graph(14).edges), True), (Graph(16, hypercube_graph(4).edges), True),
])
def test_connected_by_one_walk_from_vertex_0(g, connected):
    """connected is read off one BFS count from vertex 0, or a family
    record, and agrees with the component walk; the empty graph counts as
    connected."""
    assert graphs._connected(g) is connected
    assert connected == (len(oracles.components(g)) <= 1)


def test_vertex_map_basics():
    vm = VertexMap((1, 2, 0))
    assert vm(0) == 1
    assert oracles.permutation_order(vm) == 3
    assert oracles.inverse(vm).image == (2, 0, 1)
    g = cycle_graph(3)
    assert oracles.is_isomorphism(vm, g, g)


def test_swap_involution_c6_matches_bruteforce():
    from oracles import brute_swap_involutions

    from confviz import Bipartition

    c6 = cycle_graph(6)
    sides = (0, 1, 0, 1, 0, 1)
    vm = oracles.bipartite_swap_involution(c6, Bipartition(sides))
    assert vm is not None
    refs = brute_swap_involutions(6, c6.edges, sides)
    assert vm.image in refs
    assert oracles.permutation_order(vm) == 2


def test_swap_involution_respects_sides():
    cover, parts = kronecker_cover(petersen_graph())
    vm = oracles.bipartite_swap_involution(cover, parts)
    assert vm is not None
    assert oracles.is_isomorphism(vm, cover, cover)
    for v in range(cover.order):
        assert parts.sides[v] != parts.sides[vm(v)]
        assert vm(vm(v)) == v


def test_family_parameter_errors():
    for name, params in (("cycle", (2,)), ("path", (0,)), ("complete", (0,)),
                         ("prism", (2,)), ("hypercube", (0,)), ("gen_petersen", (6, 3))):
        with pytest.raises(ParameterError):
            build_family(name, *params)
