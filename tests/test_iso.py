import numpy as np
import pytest

from confviz import CapacityError, Graph, build_family, isomorphic
from confviz.graphs import (
    bipartite_kneser_graph,
    complete_graph,
    cycle_graph,
    desargues_graph,
    generalized_petersen_graph,
    hypercube_graph,
    kneser_graph,
    petersen_graph,
    prism_graph,
)
from confviz.iso import MAX_VERTICES, find_free_cyclic_action, find_swap_involution, orbits_of


def shuffled_copy(g: Graph, seed: int):
    rng = np.random.default_rng(seed)
    perm = rng.permutation(g.order)
    edges = tuple(tuple(sorted((int(perm[u]), int(perm[v])))) for u, v in g.edges)
    return Graph(g.order, edges), perm


def check_witness(g, h, vm):
    assert sorted(vm.image) == list(range(g.order))
    hedges = set(h.edges)
    for u, v in g.edges:
        assert tuple(sorted((vm(u), vm(v)))) in hedges


@pytest.mark.parametrize("name", ["petersen", "desargues", "pappus"])
@pytest.mark.parametrize("seed", [0, 3])
def test_isomorphic_to_shuffled_self(name, seed):
    g = build_family(name)
    h, _ = shuffled_copy(g, seed)
    vm = isomorphic(g, h)
    assert vm is not None
    check_witness(g, h, vm)


def test_known_identifications():
    vm = isomorphic(generalized_petersen_graph(5, 2), kneser_graph(5, 2))
    assert vm is not None
    check_witness(generalized_petersen_graph(5, 2), kneser_graph(5, 2), vm)
    vm = isomorphic(desargues_graph(), generalized_petersen_graph(10, 3))
    assert vm is not None
    vm = isomorphic(hypercube_graph(3), generalized_petersen_graph(4, 1))
    assert vm is not None


def test_not_isomorphic_same_degree_sequence():
    two_triangles = Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))
    assert isomorphic(cycle_graph(6), two_triangles) is None
    assert isomorphic(prism_graph(3), bipartite_kneser_graph(3, 1)) is None
    assert isomorphic(petersen_graph(), generalized_petersen_graph(5, 1)) is None


def test_order_mismatch_fast_reject():
    assert isomorphic(cycle_graph(5), cycle_graph(6)) is None
    assert isomorphic(cycle_graph(6), Graph(6, ())) is None


def test_refinement_hard_pair_needs_backtracking():
    # two strongly regular (16,6,2,2) graphs that 1-WL cannot separate:
    # the 4x4 rook graph vs the Shrikhande graph (Z4 x Z4, steps
    # +-(0,1), +-(1,0), +-(1,1)). Distinguishing them requires the
    # individualisation step.
    def idx(a, b):
        return 4 * (a % 4) + (b % 4)

    rook = set()
    for a in range(4):
        for b in range(4):
            for t in range(1, 4):
                rook.add(tuple(sorted((idx(a, b), idx(a, b + t)))))
                rook.add(tuple(sorted((idx(a, b), idx(a + t, b)))))
    shrik = set()
    for a in range(4):
        for b in range(4):
            for da, db in ((0, 1), (0, -1), (1, 0), (-1, 0), (1, 1), (-1, -1)):
                shrik.add(tuple(sorted((idx(a, b), idx(a + da, b + db)))))
    g = Graph(16, tuple(sorted(rook)))
    h = Graph(16, tuple(sorted(shrik)))
    assert g.size == h.size == 48
    assert isomorphic(g, h) is None
    gs, _ = shuffled_copy(g, 1)
    assert isomorphic(g, gs) is not None
    hs, _ = shuffled_copy(h, 1)
    assert isomorphic(h, hs) is not None


def test_capacity_limit():
    big = cycle_graph(MAX_VERTICES + 1)
    with pytest.raises(CapacityError):
        isomorphic(big, big)
    with pytest.raises(CapacityError):
        find_free_cyclic_action(big, 7)


def test_swap_involution_found_and_verified():
    from confviz import kronecker_cover

    cover, parts = kronecker_cover(kneser_graph(6, 2))
    vm = find_swap_involution(cover, parts.sides)
    assert vm is not None
    assert vm.is_automorphism(cover) and vm.permutation_order() == 2
    assert all(parts.sides[v] != parts.sides[vm(v)] for v in range(cover.order))


def test_swap_involution_absent():
    # path on 2 vertices plus pendant: sides of unequal size
    g = Graph(3, ((0, 1), (1, 2)))
    assert find_swap_involution(g, (0, 1, 0)) is None


def test_free_cyclic_actions_petersen():
    g = petersen_graph()
    actions = find_free_cyclic_action(g, 5, limit=3)
    assert actions
    for vm in actions:
        assert vm.is_automorphism(g)
        assert vm.permutation_order() == 5
        orbs = orbits_of(vm)
        assert sorted(len(o) for o in orbs) == [5, 5]
    # the Petersen graph has no free involution (every order-2 element
    # of S5 fixes a 2-subset)
    assert find_free_cyclic_action(g, 2) == []
    # 3 does not divide 10
    assert find_free_cyclic_action(g, 3) == []


def test_free_cyclic_actions_cycle():
    c6 = cycle_graph(6)
    for k in (2, 3, 6):
        actions = find_free_cyclic_action(c6, k, limit=1)
        assert len(actions) == 1
        assert actions[0].permutation_order() == k
    assert find_free_cyclic_action(c6, 4) == []


def test_orbits_of_explicit():
    from confviz import VertexMap

    vm = VertexMap((1, 0, 3, 2))
    assert orbits_of(vm) == [[0, 1], [2, 3]]


def test_desargues_free_action_of_order_ten():
    g = desargues_graph()
    actions = find_free_cyclic_action(g, 10, limit=2)
    assert actions
    for vm in actions:
        assert vm.permutation_order() == 10
        assert all(len(o) == 10 for o in orbits_of(vm))


def test_complete_graph_everything_is_automorphic():
    k5 = complete_graph(5)
    actions = find_free_cyclic_action(k5, 5, limit=1)
    assert len(actions) == 1
