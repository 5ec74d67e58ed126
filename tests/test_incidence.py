from itertools import combinations

import pytest

import oracles
from confviz import incidence
from confviz import (
    AdmissibilityError,
    IncidenceStructure,
    ParameterError,
    classify,
    decompose,
    fano_plane,
    is_self_polar,
    isomorphic,
    levi_graph,
    pappus_structure,
    v_construct,
    verify_kronecker_theorem,
)
from confviz.graphs import (
    Graph,
    bipartite_kneser_graph,
    cycle_graph,
    gen_cuboctahedron_graph,
    hypercube_graph,
    kneser_graph,
    odd_graph,
    petersen_graph,
)


def test_structure_canonical_form():
    c = IncidenceStructure(4, ((2, 1, 0), (3, 1, 0)))
    assert c.blocks == ((0, 1, 2), (0, 1, 3))
    assert c._blocks_through == ((0, 1), (0, 1), (0,), (1,))
    assert c.block_count == 2


def test_structure_keeps_block_order():
    # each block is sorted, but the blocks stay where they were given
    c = IncidenceStructure(4, ((3, 1), (2, 0, 1)))
    assert c.blocks == ((1, 3), (0, 1, 2))
    assert c != IncidenceStructure(4, ((0, 1, 2), (1, 3)))


def test_structure_validation():
    with pytest.raises(ParameterError):
        IncidenceStructure(3, ((0, 1), (1, 0)))  # duplicate block
    with pytest.raises(ParameterError):
        IncidenceStructure(3, ((0, 3),))
    with pytest.raises(ParameterError):
        IncidenceStructure(3, ((),))
    with pytest.raises(ParameterError):
        IncidenceStructure(3, ((0, 0, 1),))


def test_v_construct_petersen():
    c = v_construct(petersen_graph())
    assert c.points == 10 and c.block_count == 10
    assert all(len(b) == 3 for b in c.blocks)
    # v lies in N(u) exactly when u lies in N(v), so block v is the blocks through v
    assert c._blocks_through == c.blocks


def test_v_construct_rejects_duplicate_neighborhoods():
    with pytest.raises(AdmissibilityError) as exc:
        v_construct(cycle_graph(4))
    assert exc.value.pair == (0, 2)


def test_v_construct_collapse_merges():
    # merged blocks keep the order in which they first occur: N(0), then N(1)
    c = v_construct(cycle_graph(4), collapse=True)
    assert c.blocks == ((1, 3), (0, 2))
    path = v_construct(Graph(4, ((0, 3), (1, 3), (2, 3))), collapse=True)
    assert path.blocks == ((3,), (0, 1, 2))


def test_v_construct_block_v_is_n_of_v():
    g = petersen_graph()
    assert v_construct(g).blocks == g.adjacency


def test_v_construct_rejects_isolated_vertices():
    with pytest.raises(ParameterError, match="^vertex 2 is isolated: its neighbourhood would be an empty block$"):
        v_construct(Graph(5, ((0, 1), (3, 4))), collapse=True)


def test_levi_graph_shape():
    c = v_construct(petersen_graph())
    levi, parts = levi_graph(c)
    assert levi.order == 20 and levi.size == 30
    assert oracles.bipartition_valid_for(parts, levi)
    assert levi.label(0) == "p0" and levi.label(10) == "b0"
    assert oracles.bipartition(levi) is not None


def test_classify_petersen_vconstruct():
    cls = classify(v_construct(petersen_graph()), with_self_polar=True)
    assert cls.balanced_type == (10, 3)
    assert cls.lineal and cls.connected and cls.self_polar
    assert not cls.pointline_impossible
    assert cls.describe() == "(10_3), lineal, connected, self-polar"


def test_classify_fano():
    cls = classify(fano_plane())
    assert cls.balanced_type == (7, 3)
    assert cls.lineal and cls.connected


def test_classify_non_lineal_when_blocks_share_two_points():
    c = IncidenceStructure(4, ((0, 1, 2), (0, 1, 3)))
    assert not classify(c).lineal


def test_pointline_impossible_rule():
    # balanced (n_4) with n <= 17 admits no point-line realization
    co = v_construct(gen_cuboctahedron_graph(3))
    cls = classify(co)
    assert cls.balanced_type == (9, 4)
    assert cls.pointline_impossible
    cls18 = classify(v_construct(gen_cuboctahedron_graph(6)))
    assert cls18.balanced_type == (18, 4)
    assert not cls18.pointline_impossible
    assert not classify(fano_plane()).pointline_impossible


def test_self_polar_witnesses():
    assert is_self_polar(fano_plane()) is not None
    assert is_self_polar(pappus_structure()) is not None
    quad = IncidenceStructure(4, tuple(combinations(range(4), 3)))
    assert is_self_polar(quad) is not None


def test_self_polar_negative():
    lopsided = IncidenceStructure(4, ((0, 1), (0, 2), (0, 3), (1, 2)))
    assert is_self_polar(lopsided) is None


def test_self_polar_with_unequal_counts_builds_no_levi_graph(monkeypatch):
    def refuse(c):
        raise AssertionError("levi_graph called")

    monkeypatch.setattr(incidence, "levi_graph", refuse)
    assert is_self_polar(IncidenceStructure(4, ((0, 1), (2, 3), (1, 2)))) is None
    assert is_self_polar(IncidenceStructure(2, ((0,), (1,), (0, 1)))) is None


def test_self_polar_search_on_a_rotated_fano_plane_matches_the_oracle():
    # the Fano plane with its blocks rotated: point i <-> block i is no
    # polarity, but the plane is self-dual
    blocks = fano_plane().blocks
    rotated = IncidenceStructure(7, blocks[1:] + blocks[:1])
    expected = oracles.self_polar(rotated)
    assert expected is not None
    assert is_self_polar(rotated) == expected


def test_self_polar_witness_is_levi_involution():
    c = v_construct(petersen_graph())
    vm = is_self_polar(c)
    levi, parts = levi_graph(c)
    assert oracles.is_isomorphism(vm, levi, levi)
    assert oracles.permutation_order(vm) == 2
    assert all(parts.sides[v] != parts.sides[vm(v)] for v in range(levi.order))


def test_decompose_hypercube():
    comps = decompose(v_construct(hypercube_graph(3)))
    assert len(comps) == 2
    for part in comps:
        assert part.points == 4 and part.block_count == 4
        assert classify(part).balanced_type == (4, 3)
        assert "component" in part.provenance
    assert len(decompose(v_construct(petersen_graph()))) == 1


def test_decompose_components_reindex_densely():
    comps = decompose(v_construct(hypercube_graph(3)))
    for part in comps:
        used = sorted({p for b in part.blocks for p in b})
        assert used == list(range(part.points))


def test_kronecker_theorem_verified_with_witness():
    rep = verify_kronecker_theorem(petersen_graph())
    assert rep.admissible and rep.verified
    assert rep.witness is not None
    assert rep.levi_order == rep.cover_order == 20
    assert "verified" in rep.describe()


@pytest.mark.parametrize("build,param", [(hypercube_graph, 8), (odd_graph, 6)])
def test_kronecker_theorem_verified_past_the_search_cap(build, param):
    g = build(param)
    rep = verify_kronecker_theorem(g)
    assert rep.admissible and rep.verified
    assert rep.levi_order == rep.cover_order == 2 * g.order


def test_classify_hypercube8_with_self_polar():
    cls = classify(v_construct(hypercube_graph(8)), with_self_polar=True)
    assert cls.describe() == "(256_8), not lineal, disconnected, self-polar"


def test_kronecker_theorem_non_admissible_diagnosis():
    rep = verify_kronecker_theorem(cycle_graph(4))
    assert not rep.admissible
    assert rep.offending_pair == (0, 2)
    assert rep.collapsed_block_count == 2
    assert rep.cover_components == 2
    assert "not admissible" in rep.describe()


def test_fano_plane_is_a_projective_plane():
    f = fano_plane()
    assert f.points == 7 and f.block_count == 7
    for p, q in combinations(range(7), 2):
        through = [b for b in f.blocks if p in b and q in b]
        assert len(through) == 1


def test_pappus_structure_shape():
    c = pappus_structure()
    assert c.points == 9 and c.block_count == 9
    assert all(len(b) == 3 for b in c.blocks)
    cls = classify(c, with_self_polar=True)
    assert cls.balanced_type == (9, 3) and cls.lineal and cls.self_polar


def test_pappus_structure_blocks():
    # the collinearity scan must keep finding exactly these nine lines
    c = pappus_structure()
    assert c.points == 9 and c.provenance == "pappus"
    assert [list(b) for b in c.blocks] == [
        [0, 1, 2], [0, 4, 6], [0, 5, 7], [1, 3, 6], [1, 5, 8],
        [2, 3, 7], [2, 4, 8], [3, 4, 5], [6, 7, 8],
    ]


def test_odd_graph_covers_match_bipartite_kneser():
    for n in (3, 4):
        levi, _ = levi_graph(v_construct(odd_graph(n)))
        assert isomorphic(levi, bipartite_kneser_graph(2 * n - 1, n - 1)) is not None


def test_vconstruct_blocks_are_neighborhoods():
    g = kneser_graph(6, 2)
    c = v_construct(g)
    for v in range(g.order):
        assert tuple(sorted(g.adjacency[v])) in c.blocks
