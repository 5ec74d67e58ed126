"""End-to-end acceptance checks, one printed PASS/FAIL line per criterion.

Combinatorial claims are exact; geometric claims carry the stated
tolerances. The whole module is budgeted to finish well under a minute.
"""

import math
import time
from itertools import combinations

import numpy as np

from confviz import (
    TOL_INCIDENCE,
    check_flags,
    circles_from_layout,
    classify,
    decompose,
    fano_plane,
    incidence_of,
    invert_pointline,
    isomorphic,
    layout_gen_cuboctahedron,
    layout_hypercube,
    levi_graph,
    pappus_structure,
    point_plane_vconstruct,
    polytope_data,
    realize_n3,
    solve_unit_distance,
    sphere_circles,
    stereographic_project,
    structure_report,
    unit_edge_residual,
    v_construct,
    verify_kronecker_theorem,
)
from confviz.errors import AdmissibilityError
from confviz.graphs import (
    bipartite_kneser_graph,
    desargues_graph,
    dodecahedron_graph,
    gen_cuboctahedron_graph,
    generalized_petersen_graph,
    hypercube_graph,
    kneser_graph,
    odd_graph,
    pappus_graph,
    petersen_graph,
    prism_graph,
)

from oracles import bipartition_valid_for, circumcircle


def sorted_center_distances(cfg):
    """Sorted multiset of circle-center distances; a similarity fingerprint."""
    centers = np.column_stack([cfg.circles["cx"], cfg.circles["cy"]])
    i, j = np.triu_indices(len(centers), 1)
    return np.sort(np.linalg.norm(centers[i] - centers[j], axis=1))


def report(num, label, ok):
    print(f"criterion {num:>2} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num}: {label}"


def test_criterion_01_kronecker_suite():
    suite = [petersen_graph(), dodecahedron_graph(), kneser_graph(7, 3)]
    suite += [gen_cuboctahedron_graph(n) for n in range(3, 8)]
    suite += [hypercube_graph(d) for d in range(3, 6)]
    suite += [generalized_petersen_graph(7, 2)]
    t0 = time.perf_counter()
    ok = True
    for g in suite:
        rep = verify_kronecker_theorem(g)
        ok = ok and rep.admissible and rep.verified and rep.witness is not None
    elapsed = time.perf_counter() - t0
    report(1, "Levi of neighbourhood structure is the Kronecker cover", ok and elapsed < 10.0)


def test_criterion_02_petersen_identity():
    c = v_construct(petersen_graph())
    levi, _ = levi_graph(c)
    ok = isomorphic(levi, bipartite_kneser_graph(5, 2)) is not None
    text = classify(c, with_self_polar=True).describe()
    ok = ok and text == "(10_3), lineal, connected, self-polar"
    report(2, "petersen dualizes to the (10_3) Desargues class", ok)


def test_criterion_03_hypercube_series():
    ok = True
    for d in (3, 4, 5):
        parts = decompose(v_construct(hypercube_graph(d)))
        ok = ok and len(parts) == 2
        for part in parts:
            ok = ok and classify(part).balanced_type == (2 ** (d - 1), d)
            levi, _ = levi_graph(part)
            ok = ok and isomorphic(levi, hypercube_graph(d)) is not None
    report(3, "hypercube neighbourhoods split into two cube-Levi copies", ok)


def test_criterion_04_odd_graph_series():
    ok = True
    for n, typ in ((3, (10, 3)), (4, (35, 4))):
        c = v_construct(odd_graph(n))
        levi, _ = levi_graph(c)
        ok = ok and isomorphic(levi, bipartite_kneser_graph(2 * n - 1, n - 1)) is not None
        ok = ok and classify(c).balanced_type == typ
    report(4, "odd-graph Levi graphs are bipartite Kneser graphs", ok)


def test_criterion_05_unit_distance_solver():
    t0 = time.perf_counter()
    ok = True
    for g, k in ((petersen_graph(), 5), (desargues_graph(), 10), (pappus_graph(), 3)):
        lay, res = solve_unit_distance(g, symmetry=k, seed=0)
        ok = ok and res < 1e-9 and unit_edge_residual(lay) < 1e-9
        if g.order == 10:
            cfg = check_flags(circles_from_layout(lay, 1e-9))
            ok = ok and all(abs(c.r - 1.0) < 1e-9 for c in cfg.circles)
            ok = ok and all(
                cfg.flags[f] for f in ("isometric", "lineal", "determining", "perfect")
            )
    elapsed = time.perf_counter() - t0
    report(5, "unit-distance solves within 1e-9 and petersen is perfect", ok and elapsed < 5.0)


def test_criterion_06_two_copies():
    lay, res = solve_unit_distance(desargues_graph(), symmetry=10, seed=0)
    cfg = circles_from_layout(lay, 1e-9)
    ok = res < 1e-9 and cfg.max_incidence_residual() < 1e-9
    parts = decompose(incidence_of(cfg))
    ok = ok and len(parts) == 2
    for part in parts:
        ok = ok and classify(part).balanced_type == (10, 3)
        levi, _ = levi_graph(part)
        ok = ok and isomorphic(levi, desargues_graph()) is not None
    report(6, "desargues layout carries two Desargues-configuration copies", ok)


def test_criterion_07_cuboctahedral_series():
    ok = True
    for n in range(3, 10):
        lay = layout_gen_cuboctahedron(n, 2.0, 1.0)
        cfg = circles_from_layout(lay, 1e-9)
        ok = ok and cfg.max_incidence_residual() < 1e-9
        ok = ok and len(cfg.circles) == 3 * n
        for a, b in combinations(cfg.circles, 2):
            gap = math.hypot(a.cx - b.cx, a.cy - b.cy) + abs(a.r - b.r)
            ok = ok and gap > 1e-6
        ok = ok and classify(incidence_of(cfg)).balanced_type == (3 * n, 4)
    report(7, "ring layouts give distinct concyclic ((3n)_4) systems", ok)


def test_criterion_08_spatial_pipeline():
    p = polytope_data("dodecahedron")
    ppc = point_plane_vconstruct(p)
    ok = len(ppc.planes) == 20 and ppc.max_residual < 1e-9
    for i, j in combinations(range(len(ppc.planes)), 2):
        ok = ok and float(np.max(np.abs(ppc.planes[i] - ppc.planes[j]))) > 1e-7
    ok = ok and classify(incidence_of_planes(ppc)).balanced_type == (20, 3)
    try:
        point_plane_vconstruct(polytope_data("octahedron"))
        ok = False
    except AdmissibilityError:
        pass
    for name in ("cube", "dodecahedron"):
        sk = polytope_data(name)
        pcc, _ = stereographic_project(sphere_circles(sk), seed=0)
        ok = ok and pcc.max_incidence_residual() < 1e-9
        ok = ok and sorted(incidence_of(pcc).blocks) == sorted(v_construct(sk.graph).blocks)
    report(8, "spatial pipeline produces and projects (20_3) faithfully", ok)


def incidence_of_planes(ppc):
    from confviz import IncidenceStructure

    blocks = tuple(
        tuple(sorted(u for (u, b) in ppc.incidence if b == j))
        for j in range(len(ppc.planes))
    )
    return IncidenceStructure(len(ppc.points), tuple(sorted(blocks)))


def generic_positions(points, tol=1e-6):
    pts = np.asarray(points, dtype=float)
    for a, b, c in combinations(range(len(pts)), 3):
        u, v = pts[b] - pts[a], pts[c] - pts[a]
        if abs(u[0] * v[1] - u[1] * v[0]) < tol:
            return False
    for quad in combinations(range(len(pts)), 4):
        circ = circumcircle(pts[quad[0]], pts[quad[1]], pts[quad[2]])
        extra = abs(math.hypot(*(pts[quad[3]] - [circ.cx, circ.cy])) - circ.r)
        if extra < tol:
            return False
    return True


def test_criterion_09_n3_realizer():
    ok = True
    for struct, n in ((fano_plane(), 7), (pappus_structure(), 9)):
        cfg = realize_n3(struct, seed=0)
        ok = ok and len(cfg.circles) == n
        ok = ok and cfg.max_incidence_residual() < 1e-9
        ok = ok and generic_positions(cfg.points)
    report(9, "Fano and Pappus realize as generic point-circle systems", ok)


def test_criterion_10_property_suite():
    ok = True
    sources = [petersen_graph(), dodecahedron_graph(), kneser_graph(7, 3),
               hypercube_graph(3), hypercube_graph(4), gen_cuboctahedron_graph(4),
               generalized_petersen_graph(7, 2), odd_graph(4)]
    for g in sources:
        c = v_construct(g)
        levi, parts = levi_graph(c)
        rep = structure_report(levi)
        ok = ok and rep.bipartite and bipartition_valid_for(parts, levi)
        lineal = classify(c).lineal
        ok = ok and lineal == (rep.girth >= 6) == (not structure_report(g).has_four_cycle)

    from confviz.pappus import derive_pappus_points

    pts = np.array(derive_pappus_points())
    inv = check_flags(invert_pointline(pts, pappus_structure().blocks, center=(0.4, 0.37)))
    ok = ok and not inv.flags["proper"]

    d0 = sorted_center_distances(circles_from_layout(layout_hypercube(3, seed=0), 1e-9))
    d1 = sorted_center_distances(circles_from_layout(layout_hypercube(3, seed=1), 1e-9))
    ok = ok and not np.allclose(d0, d1)
    report(10, "structural invariants and movability evidence hold", ok)


def test_criterion_11_kronecker_witness_ladder():
    ok = True
    for g in [hypercube_graph(d) for d in range(3, 9)] + [odd_graph(m) for m in range(3, 7)]:
        rep = verify_kronecker_theorem(g)
        ok = ok and rep.admissible and rep.verified and rep.witness is not None
    report(11, "Kronecker witness on hypercube 3..8 and odd 3..6", ok)


def test_criterion_12_plain_solve_on_product_ladders():
    """Every point lies on exactly the circles of its neighbours: within
    TOL_INCIDENCE of those, and 1e-6 or more off every other circle."""
    ladder = [(prism_graph(n), seed) for n in range(3, 41) for seed in range(4)]
    ladder += [(generalized_petersen_graph(n, 1), seed) for n in range(3, 41) for seed in range(4)]
    ladder += [(hypercube_graph(d), 0) for d in range(3, 9)]
    ok = True
    for g, seed in ladder:
        lay, res = solve_unit_distance(g, seed=seed)
        cfg = circles_from_layout(lay)
        centers = np.column_stack([cfg.circles["cx"], cfg.circles["cy"]])
        radii = cfg.circles["r"]
        off = np.abs(np.linalg.norm(lay.pos[None, :, :] - centers[:, None, :], axis=2) - radii[:, None])
        near = np.zeros((g.order, g.order), dtype=bool)
        for u, v in g.edges:
            near[u, v] = near[v, u] = True
        ok = ok and res <= TOL_INCIDENCE and lay.meta["method"] == "product"
        ok = ok and bool(np.all(off[near] <= TOL_INCIDENCE) and np.all(off[~near] >= 1e-6))
    report(12, "plain solve on product ladders", ok)
