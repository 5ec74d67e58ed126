import math

import numpy as np
import pytest

from confviz import (
    Circle,
    ConcyclicityError,
    ConvergenceError,
    DegeneracyError,
    DistinctnessError,
    Layout,
    ParameterError,
    TOL_INCIDENCE,
    circles_from_layout,
    circumcircle,
    fit_circle,
    incidence_of,
    layout_gen_cuboctahedron,
    layout_hypercube,
    layout_polygon,
    layout_product,
    solve_unit_distance,
    unit_edge_residual,
    v_construct,
)
from confviz.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    desargues_graph,
    pappus_graph,
    petersen_graph,
)
from confviz.realization import lm_least_squares

from oracles import circle_residuals


def test_circle_validation():
    with pytest.raises(ParameterError):
        Circle(0.0, 0.0, -1.0)
    with pytest.raises(ParameterError):
        Circle(0.0, math.nan, 1.0)
    c = Circle(1.0, 2.0, 3.0)
    assert np.allclose(c.center, (1.0, 2.0))


def test_circumcircle_right_triangle():
    c = circumcircle((0, 0), (1, 0), (0, 1))
    assert np.allclose(c.center, (0.5, 0.5))
    assert math.isclose(c.r, math.sqrt(2) / 2, rel_tol=1e-14)


def test_circumcircle_unit():
    c = circumcircle((1, 0), (-1, 0), (0, 1))
    assert np.allclose(c.center, (0, 0), atol=1e-14)
    assert math.isclose(c.r, 1.0, rel_tol=1e-14)


def test_circumcircle_collinear_raises():
    with pytest.raises(DegeneracyError):
        circumcircle((0, 0), (1, 0), (2, 0))


def test_circumcircle_residual_bound():
    rng = np.random.default_rng(5)
    for _ in range(50):
        pts = rng.uniform(-3, 3, size=(3, 2))
        try:
            c = circumcircle(*pts)
        except DegeneracyError:
            continue
        worst = max(circle_residuals(c.cx, c.cy, c.r, pts))
        assert worst <= 1e-12 * (1.0 + c.r)


def test_fit_circle_exact_quarters():
    pts = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    c, res = fit_circle(pts)
    assert res < 1e-12
    assert np.allclose(c.center, (0, 0), atol=1e-12)
    assert math.isclose(c.r, 1.0, abs_tol=1e-12)


def test_fit_circle_square_corners():
    c, res = fit_circle([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert res < 1e-12
    assert math.isclose(c.r, math.sqrt(2) / 2, abs_tol=1e-12)


def test_fit_circle_rejects_non_concyclic():
    _, res = fit_circle([(0, 0), (1, 0), (0, 1), (1, 1.1)])
    assert res > 0.01


def test_fit_circle_collinear_raises():
    with pytest.raises(DegeneracyError):
        fit_circle([(0, 0), (1, 0), (2, 0), (3, 0)])


def test_lm_recovers_circle_from_noisy_start():
    # fit x^2 + y^2 = 4 from 12 exact samples, starting far away
    angles = np.linspace(0, 2 * np.pi, 12, endpoint=False)
    pts = 2.0 * np.column_stack([np.cos(angles), np.sin(angles)]) + np.array([3.0, -1.0])

    def resid(x):
        return np.hypot(pts[:, 0] - x[0], pts[:, 1] - x[1]) - x[2]

    def jac(x):
        dx = x[0] - pts[:, 0]
        dy = x[1] - pts[:, 1]
        d = np.hypot(dx, dy)
        return np.column_stack([dx / d, dy / d, -np.ones(len(pts))])

    x = lm_least_squares(resid, jac, np.array([0.0, 0.0, 1.0]))
    assert np.allclose(x, [3.0, -1.0, 2.0], atol=1e-10)


def test_unit_edge_residual_edgeless():
    assert unit_edge_residual(Layout(Graph(3, ()), np.zeros((3, 2)))) == 0.0
    assert unit_edge_residual(Layout(Graph(1, ()), np.ones((1, 2)))) == 0.0


def test_layout_polygon_radii_and_edges():
    for n, radius in ((5, 0.8506508083520399), (3, 1 / math.sqrt(3))):
        lay = layout_polygon(n)
        assert math.isclose(np.linalg.norm(lay.pos[0]), radius, abs_tol=1e-12)
        assert unit_edge_residual(lay) < 1e-12
    with pytest.raises(ParameterError):
        layout_polygon(2)


def test_layout_hypercube_square():
    lay = layout_hypercube(2, angles=[0.0, math.pi / 2])
    assert unit_edge_residual(lay) < 1e-12
    got = sorted(map(tuple, np.round(lay.pos, 9).tolist()))
    assert got == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]


def test_layout_hypercube_generic():
    for d, edges in ((3, 12), (5, 80)):
        lay = layout_hypercube(d, seed=1)
        assert lay.graph.size == edges
        assert unit_edge_residual(lay) < 1e-12
        dists = [np.linalg.norm(a - b) for i, a in enumerate(lay.pos) for b in lay.pos[i + 1:]]
        assert min(dists) > 1e-6


def test_layout_hypercube_degenerate_angles():
    with pytest.raises(DegeneracyError):
        layout_hypercube(2, angles=[0.3, 0.3])


def test_layout_hypercube_seed_reproducible():
    a = layout_hypercube(3, seed=4)
    b = layout_hypercube(3, seed=4)
    assert np.array_equal(a.pos, b.pos)
    c = layout_hypercube(3, seed=5)
    assert not np.allclose(a.pos, c.pos)


def test_layout_product_c7_k2():
    seg = Layout(Graph(2, ((0, 1),)), np.array([[0.0, 0.0], [1.0, 0.0]]), {})
    lay = layout_product(layout_polygon(7), seg, seed=0)
    assert lay.graph.order == 14 and lay.graph.size == 21
    assert unit_edge_residual(lay) < 1e-12


def test_layout_gen_cuboctahedron_shape():
    lay = layout_gen_cuboctahedron(7, 2.0, 1.0)
    assert lay.graph.order == 21
    for v in range(21):
        nbrs = [lay.pos[u] for u in lay.graph.adjacency[v]]
        _, res = fit_circle(nbrs)
        assert res < 1e-9
    with pytest.raises(ParameterError):
        layout_gen_cuboctahedron(5, 1.0, 1.0)


def test_layout_gen_cuboctahedron_rotation_symmetry():
    n = 6
    lay = layout_gen_cuboctahedron(n, 2.0, 1.0)
    a = 2 * math.pi / n
    rot = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
    rotated = lay.pos @ rot.T
    for p in rotated:
        assert min(np.linalg.norm(lay.pos - p, axis=1)) < 1e-12


def test_solver_petersen_ring_radii():
    lay, res = solve_unit_distance(petersen_graph(), symmetry=5, seed=0)
    assert res < 1e-9
    radii = np.linalg.norm(lay.pos - lay.pos.mean(axis=0), axis=1)
    got = sorted(set(np.round(radii, 6)))
    want = sorted({round(1 / (2 * math.sin(math.pi / 5)), 6),
                   round(1 / (2 * math.sin(2 * math.pi / 5)), 6)})
    assert got == want


def test_solver_desargues_golden_radii():
    lay, res = solve_unit_distance(desargues_graph(), symmetry=10, seed=0)
    assert res < 1e-9
    phi = (1 + math.sqrt(5)) / 2
    radii = np.linalg.norm(lay.pos - lay.pos.mean(axis=0), axis=1)
    got = sorted(set(np.round(radii, 6)))
    assert got == [round(1 / phi, 6), round(phi, 6)]


def test_solver_pappus():
    lay, res = solve_unit_distance(pappus_graph(), symmetry=3, seed=0)
    assert res < 1e-9
    assert lay.meta["method"] == "orbit-lm" and lay.meta["symmetry"] == 3


def test_solver_polish_recovers_perturbed_pentagon():
    base = layout_polygon(5)
    rng = np.random.default_rng(2)
    noisy = Layout(base.graph, base.pos + rng.uniform(-0.05, 0.05, base.pos.shape), {})
    lay, res = solve_unit_distance(base.graph, init=noisy)
    assert res < 1e-10


def test_solver_rejects_disconnected():
    g = Graph(4, ((0, 1), (2, 3)))
    with pytest.raises(ParameterError):
        solve_unit_distance(g, seed=0)
    with pytest.raises(ParameterError):
        solve_unit_distance(Graph(2, ()), seed=0)


def test_solver_k4_cannot_embed():
    with pytest.raises(ConvergenceError) as exc:
        solve_unit_distance(complete_graph(4), seed=0, restarts=4)
    assert exc.value.residual > 1e-3
    assert exc.value.restarts == 4
    best = f"{exc.value.residual:.1e}"
    assert str(exc.value) == f"unit-distance solve exhausted 4 restarts (best residual {best})"
    # K4 has three fixed-point-free involutions, each an orbit set
    with pytest.raises(ConvergenceError) as exc:
        solve_unit_distance(complete_graph(4), seed=0, symmetry=2, restarts=2)
    assert exc.value.restarts == 6
    assert str(exc.value).startswith("symmetric solve exhausted 6 restarts over 3 orbit sets (best ")


def test_solver_explicit_orbits():
    orbits = [[0, 2, 4, 6], [1, 3, 5, 7]]
    lay, res = solve_unit_distance(cycle_graph(8), symmetry=orbits, seed=1)
    assert res < 1e-9
    with pytest.raises(ParameterError):
        solve_unit_distance(cycle_graph(8), symmetry=[[0, 1, 2], [3, 4, 5]], seed=0)


def test_solver_random_restarts_mode():
    lay, res = solve_unit_distance(cycle_graph(5), seed=3)
    assert res < 1e-9
    assert lay.meta["method"] == "lm"


def test_circles_from_layout_unit_identity():
    lay, _ = solve_unit_distance(petersen_graph(), symmetry=5, seed=0)
    cfg = circles_from_layout(lay, TOL_INCIDENCE)
    assert len(cfg.circles) == 10
    for v, c in enumerate(cfg.circles):
        assert abs(c.r - 1.0) < 1e-9
        assert np.linalg.norm(np.asarray(c.center) - lay.pos[v]) < 1e-9


def test_circles_incidence_matches_vconstruct():
    lay, _ = solve_unit_distance(petersen_graph(), symmetry=5, seed=0)
    cfg = circles_from_layout(lay, TOL_INCIDENCE)
    assert incidence_of(cfg).blocks == v_construct(lay.graph).blocks


def test_circles_from_layout_names_bad_vertex():
    # wheel on 4 rim vertices: rim positions not concyclic around the hub
    edges = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (1, 4)]
    g = Graph(5, tuple(edges))
    pos = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.3, -1.4]])
    with pytest.raises(ConcyclicityError) as exc:
        circles_from_layout(Layout(g, pos, {}), TOL_INCIDENCE)
    assert exc.value.vertex == 0


def test_circles_from_layout_degree_two_override():
    sq = Layout(cycle_graph(4), np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float), {})
    with pytest.raises(ParameterError):
        circles_from_layout(sq, TOL_INCIDENCE)
    cfg = circles_from_layout(sq, TOL_INCIDENCE, allow_degree_two=True)
    assert len(cfg.circles) == 4
    assert all(math.isclose(c.r, 1.0, abs_tol=1e-12) for c in cfg.circles)


def test_circles_from_layout_duplicate_circles_rejected():
    # K4 drawn on concyclic corners: every neighbourhood spans the same circle
    pos = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(DistinctnessError, match="vertices 0 and 1 coincide"):
        circles_from_layout(Layout(complete_graph(4), pos, {}), TOL_INCIDENCE)


def test_layout_validation():
    with pytest.raises(ParameterError):
        Layout(cycle_graph(3), np.zeros((4, 2)), {})
    with pytest.raises(ParameterError):
        Layout(cycle_graph(3), np.array([[0, 0], [1, 0], [math.inf, 0]]), {})
