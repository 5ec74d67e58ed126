import inspect
import math
import re
from dataclasses import replace
from itertools import islice
from unittest import mock

import numpy as np
import pytest

from confviz import (
    ConcyclicityError,
    ConvergenceError,
    DegeneracyError,
    DistinctnessError,
    Layout,
    ParameterError,
    PointCircleConfig,
    TOL_INCIDENCE,
    circles_from_layout,
    fano_plane,
    incidence_of,
    layout_gen_cuboctahedron,
    layout_hypercube,
    layout_polygon,
    polytope_data,
    realize_n3,
    solve_unit_distance,
    sphere_circles,
    stereographic_project,
    unit_edge_residual,
    v_construct,
)
from confviz import graphs, iso, jsonio, layouts, realization
from confviz.graphs import (
    Graph,
    build_family,
    cartesian_product,
    complete_graph,
    cycle_graph,
    desargues_graph,
    generalized_petersen_graph,
    hypercube_graph,
    pappus_graph,
    petersen_graph,
    prism_graph,
)
from confviz.layouts import _product_positions
from confviz.realization import _circumcircles

from oracles import circle_residuals, fit_circle, gen_cuboctahedron_positions, hypercube_positions


def test_circle_validation():
    pts = np.zeros((1, 2))
    for bad in [(0.0, 0.0, -1.0), (0.0, 0.0, 0.0)]:
        with pytest.raises(ParameterError, match="^circle radius must be positive$"):
            PointCircleConfig(pts, [(1.0, 2.0, 3.0), bad], ())
    for bad in [(0.0, math.nan, 1.0), (0.0, 0.0, math.inf), (0.0, 0.0, math.nan)]:
        with pytest.raises(ParameterError, match="^circle parameters must be finite$"):
            PointCircleConfig(pts, [(1.0, 2.0, 3.0), bad], ())
    # the first bad circle names the failure
    with pytest.raises(ParameterError, match="^circle radius must be positive$"):
        PointCircleConfig(pts, [(0.0, 0.0, -1.0), (0.0, math.nan, 1.0)], ())
    cfg = PointCircleConfig(pts, [(1.0, 2.0, 3.0)], ())
    assert (cfg.circles[0].cx, cfg.circles[0].cy, cfg.circles[0].r) == (1.0, 2.0, 3.0)
    assert cfg.circles["r"].tolist() == [3.0]
    assert cfg.circles.view(float).reshape(-1, 3).tolist() == [[1.0, 2.0, 3.0]]


def test_circle_table_refuses_what_is_not_rows():
    pts = np.zeros((1, 2))
    for bad in [np.array([1.0, 2.0]), [1.0, 2.0], [(0.0, 1.0)], [(0.0, 0.0, 1.0, 2.0)], [(0.0, 0.0, 1.0), (1.0, 2.0)]]:
        with pytest.raises(ParameterError, match=re.escape("circles must be (cx, cy, r) rows")):
            PointCircleConfig(pts, bad, ())
    with pytest.raises(ParameterError, match=re.escape("circle entry 'one' must be a number, not str")):
        PointCircleConfig(pts, [(0.0, "one", 1.0)], ())
    table = PointCircleConfig(pts, [(0.0, 0.0, 1.0), (1.0, 0.0, 2.0)], ()).circles
    # a plain (C, 3) float table is read row by row, as the same rows in a list
    assert PointCircleConfig(pts, np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 2.0]]), ()).circles.tobytes() == table.tobytes()
    with pytest.raises(ParameterError, match=re.escape("circles must be (cx, cy, r) rows")):
        PointCircleConfig(pts, np.stack([table, table]), ())
    # a table, a tuple of its rows and an empty sequence are all circle sets
    assert PointCircleConfig(pts, table[::-1], ()).circles.tolist() == [(1.0, 0.0, 2.0), (0.0, 0.0, 1.0)]
    assert PointCircleConfig(pts, tuple(table), ()).circles.tobytes() == table.tobytes()
    assert len(PointCircleConfig(pts, (), ()).circles) == 0


def test_circle_table_is_read_only_and_owned():
    pts = np.zeros((1, 2))
    table = PointCircleConfig(pts, [(0.0, 0.0, 1.0)], ()).circles.copy()
    cfg = PointCircleConfig(pts, table, ())
    assert table.flags.writeable and cfg.circles is not table  # the caller's table stays its own
    for write in (
        lambda: cfg.circles.__setitem__(0, (1.0, 1.0, 1.0)),
        lambda: cfg.circles["r"].__setitem__(0, 5.0),
        lambda: setattr(cfg.circles[0], "r", 5.0),
    ):
        with pytest.raises(ValueError, match="read-only"):
            write()
    assert cfg.circles.tolist() == [(0.0, 0.0, 1.0)]


def test_point_circle_incidence_sorted_and_range_checked():
    circles, pts = ((0.0, 0.0, 1.0), (3.0, 0.0, 1.0)), np.zeros((3, 2))
    cfg = PointCircleConfig(pts, circles, ((2, 1), (0, 0), (2, 1), (np.int64(1), 0)))
    assert cfg.incidence == ((0, 0), (1, 0), (2, 1))
    assert {type(x) for pair in cfg.incidence for x in pair} == {int}
    # the first pair out of range in input order is named, past intp too
    for incidence, named in [
        (((0, 0), (5, 1), (10**20, 0)), "(5, 1)"),
        (((0, 0), (-(10**20), 1), (5, 1)), f"({-(10**20)}, 1)"),
        (((1, -1),), "(1, -1)"),
        (((0, 2),), "(0, 2)"),
    ]:
        with pytest.raises(ParameterError, match=f"^incidence {re.escape(named)} outside 3 points and 2 circles$"):
            PointCircleConfig(pts, circles, incidence)


def test_circumcircle_right_triangle():
    (cx,), (cy,), (r,) = _circumcircles((0, 0), (1, 0), (0, 1))
    assert np.allclose((cx, cy), (0.5, 0.5))
    assert math.isclose(r, math.sqrt(2) / 2, rel_tol=1e-14)


def test_circumcircle_unit():
    (cx,), (cy,), (r,) = _circumcircles((1, 0), (-1, 0), (0, 1))
    assert np.allclose((cx, cy), (0, 0), atol=1e-14)
    assert math.isclose(r, 1.0, rel_tol=1e-14)


def test_circumcircle_collinear_raises():
    with pytest.raises(DegeneracyError):
        _circumcircles((0, 0), (1, 0), (2, 0))


def test_circumcircle_residual_bound():
    rng = np.random.default_rng(5)
    for _ in range(50):
        pts = rng.uniform(-3, 3, size=(3, 2))
        try:
            (cx,), (cy,), (r,) = _circumcircles(*pts)
        except DegeneracyError:
            continue
        worst = max(circle_residuals(cx, cy, r, pts))
        assert worst <= 1e-12 * (1.0 + r)


# fit_circle is the least-squares fit circles_from_layout ran before its
# circumcircle pass, kept in oracles as that pass's reference
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


def _hypercube_fold(angles) -> np.ndarray:
    """layout_hypercube's positions: _product_positions folded over one
    unit segment per angle, each as the major factor."""
    pos = np.zeros((1, 2))
    for u in np.column_stack([np.cos(angles), np.sin(angles)]):
        pos = _product_positions(np.stack([np.zeros(2), u]), pos)
    return pos


def test_layout_hypercube_square():
    pos = _hypercube_fold([0.0, math.pi / 2])
    assert unit_edge_residual(Layout(hypercube_graph(2), pos, {})) < 1e-12
    got = sorted(map(tuple, np.round(pos, 9).tolist()))
    assert got == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]


def test_layout_hypercube_generic():
    for d, edges in ((3, 12), (5, 80)):
        lay = layout_hypercube(d, seed=1)
        assert lay.graph.size == edges
        assert unit_edge_residual(lay) < 1e-12
        dists = [np.linalg.norm(a - b) for i, a in enumerate(lay.pos) for b in lay.pos[i + 1:]]
        assert min(dists) > 1e-6


def test_hypercube_positions_bit_equal_to_loop():
    rng = np.random.default_rng(11)
    for d in range(0, 9):
        for _ in range(40):
            angles = rng.uniform(0.0, 2.0 * math.pi, size=d)
            assert np.array_equal(_hypercube_fold(angles), hypercube_positions(d, angles))
    for d in range(1, 9):
        for seed in range(5):
            lay = layout_hypercube(d, seed=seed)
            assert np.array_equal(lay.pos, hypercube_positions(d, np.array(lay.meta["angles"])))


def test_gen_cuboctahedron_positions_bit_equal_to_loop():
    for r_outer, r_inner in ((2.0, 1.0), (3.0, 0.5), (1.7, 1.3)):
        for n in range(3, 61):
            lay = layout_gen_cuboctahedron(n, r_outer, r_inner)
            assert np.array_equal(lay.pos, gen_cuboctahedron_positions(n, r_outer, r_inner))


def test_layout_hypercube_seed_reproducible():
    a = layout_hypercube(3, seed=4)
    b = layout_hypercube(3, seed=4)
    assert np.array_equal(a.pos, b.pos)
    c = layout_hypercube(3, seed=5)
    assert not np.allclose(a.pos, c.pos)


SEEDED = {
    "layout_hypercube": lambda seed: layout_hypercube(3, seed=seed),
    "solve_unit_distance": lambda seed: solve_unit_distance(petersen_graph(), seed=seed),
    "realize_n3": lambda seed: realize_n3(fano_plane(), seed=seed),
    "stereographic_project": lambda seed: stereographic_project(sphere_circles(polytope_data("cube")), seed=seed),
}


@pytest.mark.parametrize("name", SEEDED)
@pytest.mark.parametrize("seed", [-1, -(2**70), 1.5, "3"])
def test_seeded_entry_points_refuse_a_seed_that_is_not_a_non_negative_integer(name, seed):
    refusal = "non-negative" if isinstance(seed, int) else f"an integer, not {type(seed).__name__}"
    with pytest.raises(ParameterError, match=f"^seed must be {refusal}$"):
        SEEDED[name](seed)


@pytest.mark.parametrize("name", SEEDED)
def test_seeded_entry_points_take_numpy_integers(name):
    assert repr(SEEDED[name](np.int64(2))) == repr(SEEDED[name](2))


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


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"restarts": 1.5}, "restarts must be an integer, not float"),
        ({"restarts": "4"}, "restarts must be an integer, not str"),
        ({"restarts": None}, "restarts must be an integer, not NoneType"),
        ({"restarts": -3}, "restarts must be non-negative"),
        ({"symmetry": 1.5}, "symmetry must be an integer, not float"),
        ({"symmetry": True}, "symmetry must be an integer, not bool"),
        ({"symmetry": "5"}, "symmetry must be an integer, not str"),
    ],
)
def test_solver_refuses_restarts_and_symmetry_that_are_not_integers(kwargs, message):
    # restarts=-3 once ran no start and reported "best residual inf"; the
    # others raised TypeError, a bad restarts only once a start was drawn
    with pytest.raises(ParameterError, match=rf"^{message}$"):
        solve_unit_distance(petersen_graph(), seed=0, **kwargs)


def test_free_cyclic_action_order_must_be_an_integer():
    with pytest.raises(ParameterError, match="^k must be an integer, not str$"):
        iso.find_free_cyclic_action(petersen_graph(), "5")
    assert len(list(iso.find_free_cyclic_action(petersen_graph(), np.int64(5)))) > 0


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
    assert exc.value.restarts == 6 and exc.value.skipped == 0
    assert str(exc.value).startswith("symmetric solve exhausted 6 restarts over 3 orbit sets (best ")


def test_symmetric_solve_of_hypercube_10_reads_its_actions_without_recursion():
    """hypercube(10) has MAX_VERTICES vertices; reading its six free
    involutions must not exhaust Python's recursion limit."""
    g = hypercube_graph(10)
    assert g.order == iso.MAX_VERTICES
    with pytest.raises(ConvergenceError) as exc:
        solve_unit_distance(g, symmetry=2, restarts=0)
    assert (exc.value.restarts, exc.value.skipped, exc.value.residual) == (0, 0, None)
    assert str(exc.value) == "symmetric solve ran 0 restarts over 6 orbit sets"


def test_solver_reports_orbit_sets_ruled_out():
    # each 4-cycle of K4 as one orbit has chords of one and two steps,
    # which force two radii on its ring
    with pytest.raises(ConvergenceError) as exc:
        solve_unit_distance(complete_graph(4), seed=0, symmetry=4)
    assert (exc.value.restarts, exc.value.skipped, exc.value.residual) == (0, 6, None)
    assert str(exc.value) == "symmetric solve ran 0 restarts: ring radii rule out 6 of 6 orbit sets"
    # no order reaches "1 of 1 orbit set": for k >= 3 a free action's
    # inverse is a second one, and at k = 2 every chord forces radius 1/2;
    # K2, whose swap is its one free involution, names a single set
    with pytest.raises(ConvergenceError) as exc:
        solve_unit_distance(Graph(2, ((0, 1),)), seed=0, symmetry=2, restarts=0)
    assert str(exc.value) == "symmetric solve ran 0 restarts over 1 orbit set"
    # K4 x K2 under order 4: the two sets left run their starts and fail
    g = cartesian_product(complete_graph(4), complete_graph(2))
    with pytest.raises(ConvergenceError) as exc:
        solve_unit_distance(g, seed=0, symmetry=4, restarts=2)
    assert (exc.value.restarts, exc.value.skipped) == (4, 4)
    assert str(exc.value).startswith(
        "symmetric solve exhausted 4 restarts over 6 orbit sets, 4 ruled out by ring radii (best "
    )


def test_a_solve_that_runs_no_start_reports_no_residual():
    # Petersen is prime, so restarts=0 leaves no start at all
    for kwargs, text, skipped in [
        ({}, "unit-distance solve ran 0 restarts", None),
        ({"symmetry": 5}, "symmetric solve ran 0 restarts over 6 orbit sets", 0),
    ]:
        with pytest.raises(ConvergenceError) as exc:
            solve_unit_distance(petersen_graph(), seed=0, restarts=0, **kwargs)
        assert str(exc.value) == text
        assert (exc.value.residual, exc.value.restarts, exc.value.skipped) == (None, 0, skipped)
    # a product's own start is no restart, and still runs
    lay, residual = solve_unit_distance(prism_graph(7), seed=0, restarts=0)
    assert lay.meta["method"] == "product" and residual <= TOL_INCIDENCE


def test_symmetric_solve_polishes_only_ring_solutions(monkeypatch):
    """A ring start above TOL_INCIDENCE fails as it stands: a polish from it
    may reach a unit-distance drawing that is not rotational."""
    solve = layouts._solve
    rings = []

    def scaled(edges, x0, P=None):
        # every ring solution scaled by 1.1, so its edges within an orbit grow to 1.1
        pos = solve(edges, x0, P)
        rings.append(P is not None)
        return pos if P is None else 1.1 * pos

    monkeypatch.setattr(layouts, "_solve", scaled)
    with pytest.raises(ConvergenceError) as exc:
        solve_unit_distance(petersen_graph(), seed=0, symmetry=5, restarts=4)
    assert (exc.value.restarts, exc.value.skipped) == (24, 0)
    assert rings == [True] * 24  # every ring solve went through the patch, and no polish ran


def _distinct_radii(pos: np.ndarray) -> int:
    centred = pos - pos.mean(axis=0)
    radii = np.sort(np.hypot(centred[:, 0], centred[:, 1]))
    return 1 + int(np.count_nonzero(np.diff(radii) > 1e-9))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("n,m", [(13, 3)] + [(n, 2) for n in range(13, 26)])
def test_symmetric_solve_is_rotational(n, m, seed):
    """A symmetry=n solve of GP(n,m) puts each of its two orbits on one
    ring about the centroid: no polish leaves the rotational drawing."""
    lay, residual = solve_unit_distance(generalized_petersen_graph(n, m), seed=seed, symmetry=n)
    assert residual <= TOL_INCIDENCE
    assert lay.meta["method"] == "orbit-lm"
    assert _distinct_radii(lay.pos) == 2


def _rotational_under(pos: np.ndarray, orbits, k: int) -> bool:
    """True when rotating pos by 2*pi/k about its centroid sends each
    orbit[t] to orbit[t + 1]."""
    centred = pos - pos.mean(axis=0)
    c, s = math.cos(2 * math.pi / k), math.sin(2 * math.pi / k)
    turned = centred @ np.array([[c, s], [-s, c]])
    nxt = [o[(t + 1) % k] for o in orbits for t in range(k)]
    return np.allclose(turned[[v for o in orbits for v in o]], centred[nxt], atol=1e-6)


def _ruled_out_in_closed_form(g, orbits, k: int) -> bool:
    """An orbit whose chords force two radii 1 / (2 sin(pi s / k)), or an
    edge between forced rings r_a, r_b whose cosine law
    cos = (r_a^2 + r_b^2 - 1) / (2 r_a r_b) has no angle."""
    where = {v: (j, t) for j, o in enumerate(orbits) for t, v in enumerate(o)}
    forced = [[] for _ in orbits]
    for u, v in g.edges:
        (a, s), (b, t) = where[u], where[v]
        if a == b:
            forced[a].append(1.0 / (2.0 * math.sin(math.pi * abs(t - s) / k)))
    if any(r and max(r) - min(r) > 1e-9 * max(r) for r in forced):
        return True
    for u, v in g.edges:
        ra, rb = forced[where[u][0]], forced[where[v][0]]
        # GP(10,3) sits on the boundary: its rings 1.618 and 0.618 differ by 1
        if ra and rb and abs((ra[0] ** 2 + rb[0] ** 2 - 1.0) / (2.0 * ra[0] * rb[0])) > 1.0 + 1e-9:
            return True
    return False


@pytest.mark.parametrize("n,m", [(n, m) for n in range(7, 26) for m in (2, 3, 4) if 2 * m < n])
def test_ring_radius_check_is_sound(n, m):
    """The check rules out exactly the orbit sets that the cosine law shows
    infeasible, and the set a seed-0 solve lands on is never ruled out."""
    g = generalized_petersen_graph(n, m)
    orbit_sets = [a.cycles() for a in islice(iso.find_free_cyclic_action(g, n), 6)]
    ruled_out = [layouts._rings_rule_out(g, orbits, n) for orbits in orbit_sets]
    assert ruled_out == [_ruled_out_in_closed_form(g, orbits, n) for orbits in orbit_sets]
    lay, _ = solve_unit_distance(g, seed=0, symmetry=n)
    landed = [out for orbits, out in zip(orbit_sets, ruled_out) if _rotational_under(lay.pos, orbits, n)]
    assert landed and not any(landed)


def _count_pulls(monkeypatch) -> list:
    """Wrap the free-action search so that each action read is recorded."""
    pulled = []
    search = iso.find_free_cyclic_action

    def counted(g, k):
        for vm in search(g, k):
            pulled.append(vm)
            yield vm

    monkeypatch.setattr(iso, "find_free_cyclic_action", counted)
    return pulled


@pytest.mark.parametrize("g,k", [(petersen_graph(), 5), (generalized_petersen_graph(14, 2), 14)])
def test_symmetric_solve_pulls_actions_on_demand(g, k, monkeypatch):
    """A solve that ends on orbit set j reads exactly j actions."""
    orbit_sets = [a.cycles() for a in islice(iso.find_free_cyclic_action(g, k), 6)]
    pulled = _count_pulls(monkeypatch)
    lay, _ = solve_unit_distance(g, seed=0, symmetry=k)
    j = next(j for j, orbits in enumerate(orbit_sets, 1) if _rotational_under(lay.pos, orbits, k))
    assert len(pulled) == j
    assert [a.cycles() for a in pulled] == orbit_sets[:j]
    if k == 14:  # the plain rotation of GP(14,2) comes first and is ruled out
        assert j > 1 and layouts._rings_rule_out(g, orbit_sets[0], k)


def test_symmetric_solve_counts_sets_of_a_short_stream(monkeypatch):
    """Prism(5) has four free order-5 actions: a failed solve reads the
    stream dry and names all four."""
    pulled = _count_pulls(monkeypatch)
    with pytest.raises(ConvergenceError) as exc:
        solve_unit_distance(prism_graph(5), seed=0, symmetry=5, restarts=1)
    assert str(exc.value) == "symmetric solve exhausted 4 restarts over 4 orbit sets (best residual 1.1e-16)"
    assert (exc.value.restarts, exc.value.skipped, len(pulled)) == (4, 0, 4)


@pytest.mark.parametrize("k", [2, 3])
def test_symmetric_solve_without_free_action(k):
    # every involution of S5 fixes a 2-subset, and 3 does not divide 10
    with pytest.raises(ParameterError, match=f"^no free order-{k} symmetry available$"):
        solve_unit_distance(petersen_graph(), seed=0, symmetry=k)


@pytest.mark.parametrize(
    "symmetry, kind",
    [
        (5.0, "float"),
        ([[0, 1], [2, 3]], "list"),
        ([5, 6], "list"),
        ([[0, 1, 2, 3, "a"], [5, 6, 7, 8, 9]], "list"),
        (((0, 1, 2, 3, 4), (5, 6, 7, 8, 9)), "tuple"),
        (True, "bool"),
        ("5", "str"),
    ],
)
def test_solver_symmetry_must_be_an_integer(symmetry, kind):
    # symmetry is an order only: an orbit list or tuple is refused as no
    # integer, as are a bool and a string
    with pytest.raises(ParameterError, match=f"^symmetry must be an integer, not {kind}$"):
        solve_unit_distance(petersen_graph(), seed=0, symmetry=symmetry)


@pytest.mark.parametrize(
    "entry, signature, removed",
    [
        (solve_unit_distance, "(g, *, seed=None, symmetry=None, restarts=40)", "init"),
        (stereographic_project, "(cfg, pole=None, seed=0)", "tol"),
    ],
    ids=["solve_unit_distance", "stereographic_project"],
)
def test_solve_and_projection_take_only_their_callers_inputs(entry, signature, removed):
    sig = inspect.signature(entry)
    bare = [p.replace(annotation=p.empty) for p in sig.parameters.values()]
    assert str(sig.replace(parameters=bare, return_annotation=sig.empty)) == signature
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{removed}'"):
        entry(None, **{removed: None})


def test_solver_takes_a_numpy_integer_symmetry():
    lay, _ = solve_unit_distance(cycle_graph(8), symmetry=np.int64(4), seed=1)
    want, _ = solve_unit_distance(cycle_graph(8), symmetry=4, seed=1)
    assert lay.pos.tobytes() == want.pos.tobytes()


def test_solver_random_restarts_mode():
    lay, res = solve_unit_distance(cycle_graph(5), seed=3)
    assert res < 1e-9
    assert lay.meta["method"] == "lm"


def test_solver_product_start():
    lay, res = solve_unit_distance(prism_graph(14), seed=2)
    assert list(lay.meta.items()) == [("method", "product"), ("factors", [14, 2]), ("seed", 2),
                                      ("residual", res)]
    assert res <= TOL_INCIDENCE
    # a cycle is drawn in its walk order, whatever the vertex numbering
    perm = np.random.default_rng(0).permutation(7)
    c7 = Graph(7, tuple((perm[u], perm[v]) for u, v in cycle_graph(7).edges))
    assert unit_edge_residual(Layout(c7, layouts._factor_positions(c7, 0, 1))) < 1e-15
    perm = np.random.default_rng(0).permutation(18)
    g = Graph(18, tuple((perm[u], perm[v]) for u, v in prism_graph(9).edges))
    lay, res = solve_unit_distance(g, seed=0)
    assert lay.meta["method"] == "product" and res <= 1e-14
    assert incidence_of(circles_from_layout(lay)).blocks == v_construct(g).blocks
    # a prime factor other than a cycle is drawn by the plain solve
    lay, res = solve_unit_distance(cartesian_product(complete_graph(2), petersen_graph()), seed=0)
    assert lay.meta["factors"] == [10, 2] and res <= TOL_INCIDENCE


def test_solver_product_start_skips_bad_angles(monkeypatch):
    # at angle pi the square K_2 x K_2 folds onto a segment
    monkeypatch.setattr(layouts, "_PRODUCT_ANGLES", (math.pi, 1.0))
    lay, _ = solve_unit_distance(cycle_graph(4), seed=0)
    assert lay.meta == {"method": "product", "factors": [2, 2], "seed": 0, "residual": 0.0}
    # the second factor joined at angle 1.0, the patched angles' second
    turned = [np.abs(lay.pos[u] - lay.pos[v]) for u, v in cycle_graph(4).edges]
    assert any(np.allclose(d, [math.cos(1.0), math.sin(1.0)]) for d in turned)
    # at this angle the rung at pentagon vertex 0 ends at unit distance
    # from pentagon vertex 1, so the circle of vertex 1 would carry it
    q = layout_polygon(5).pos
    d = q[1] - q[0]
    bad = math.atan2(d[1], d[0]) + math.pi / 3.0
    g = prism_graph(5)
    monkeypatch.setattr(layouts, "_PRODUCT_ANGLES", (bad, 1.0))
    lay, _ = solve_unit_distance(g, seed=0)
    assert lay.meta["method"] == "product"
    assert np.allclose(lay.pos[5] - lay.pos[0], [math.cos(1.0), math.sin(1.0)])
    monkeypatch.setattr(layouts, "_PRODUCT_ANGLES", (bad,))
    with pytest.raises(ConvergenceError) as exc:
        solve_unit_distance(g, seed=1, restarts=1)
    assert exc.value.restarts == 1  # no product start, one random one


def test_solver_counts_the_product_start(monkeypatch):
    monkeypatch.setattr(layouts, "TOL_INCIDENCE", -1.0)  # no start passes
    with pytest.raises(ConvergenceError) as exc:
        solve_unit_distance(prism_graph(5), seed=0, restarts=2)
    assert exc.value.restarts == 3
    assert str(exc.value).startswith("unit-distance solve exhausted 3 restarts (best residual ")
    with pytest.raises(ConvergenceError) as exc:
        solve_unit_distance(cycle_graph(5), seed=0, restarts=2)
    assert exc.value.restarts == 2


SOLVED_PRODUCTS = ([("prism", (n,), seed) for n in range(11, 19) for seed in range(4)]
                   + [("gen_petersen", (n, 1), seed) for n in range(11, 19) for seed in range(4)]
                   + [("hypercube", (d,), 0) for d in range(3, 7)])


@pytest.mark.parametrize("family, params, seed", SOLVED_PRODUCTS)
def test_recorded_factorization_solves_to_the_recognized_bytes(family, params, seed):
    """A family-built product, whose factorization comes in closed form,
    and its constructor-built copy, which the recognizer factors, solve to
    the same layout file."""
    g = build_family(family, *params)
    copy = Graph(g.order, g.edges, g.labels)
    texts = [jsonio.dumps(jsonio.layout_to_obj(solve_unit_distance(h, seed=seed)[0])) for h in (g, copy)]
    assert texts[0] == texts[1]
    assert '"method": "product"' in texts[0]


def test_circles_from_layout_unit_identity():
    lay, _ = solve_unit_distance(petersen_graph(), symmetry=5, seed=0)
    cfg = circles_from_layout(lay, TOL_INCIDENCE)
    assert len(cfg.circles) == 10
    for v, c in enumerate(cfg.circles):
        assert abs(c.r - 1.0) < 1e-9
        assert np.linalg.norm((c.cx - lay.pos[v, 0], c.cy - lay.pos[v, 1])) < 1e-9


def test_circles_incidence_matches_vconstruct():
    lay, _ = solve_unit_distance(petersen_graph(), symmetry=5, seed=0)
    cfg = circles_from_layout(lay, TOL_INCIDENCE)
    assert incidence_of(cfg).blocks == v_construct(lay.graph).blocks


LADDER_LAYOUTS = {
    **{f"hypercube({d})": lambda d=d: layout_hypercube(d, seed=d) for d in range(3, 9)},
    **{f"CO({n})": lambda n=n: layout_gen_cuboctahedron(n) for n in (5, 9, 13, 17, 20, 24, 40)},
    **{f"GP({n},2)": lambda n=n: solve_unit_distance(generalized_petersen_graph(n, 2), symmetry=n, seed=0)[0]
       for n in (10, 14, 18)},
}


@pytest.mark.parametrize("name", LADDER_LAYOUTS)
def test_circles_of_a_ladder_layout_read_back_as_its_v_construction(name):
    # circle v is the circle of N(v), so block order survives the round trip
    lay = LADDER_LAYOUTS[name]()
    c = v_construct(lay.graph)
    back = incidence_of(circles_from_layout(lay))
    assert back == replace(c, provenance=back.provenance)


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


# three points on a line and three circles; each case's incidences and the
# refusal incidence_of names, the first failing circle in circle order
UNREADABLE = [
    ([(0, 0), (1, 1)], "circle 2 holds no point"),
    ([(0, 0), (1, 0), (0, 2), (1, 2), (2, 1)], "circles 0 and 2 hold the same points"),
    ([(0, 1), (1, 1), (2, 2)], "circle 0 holds no point"),
    ([(0, 0), (0, 1)], "circles 0 and 1 hold the same points"),
]


@pytest.mark.parametrize("incidence, message", UNREADABLE)
def test_incidence_of_names_a_circle_it_cannot_read_as_a_block(incidence, message):
    cfg = PointCircleConfig([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], [(0, 0, 1), (0, 0, 2), (5, 5, 1)], incidence)
    with pytest.raises(ParameterError) as exc:
        incidence_of(cfg)
    assert str(exc.value) == message
    # one incidence per circle, on its own point, reads back
    cfg = PointCircleConfig(cfg.points, cfg.circles, [(0, 0), (1, 1), (2, 2)])
    assert incidence_of(cfg).blocks == ((0,), (1,), (2,))


def test_layout_validation():
    with pytest.raises(ParameterError):
        Layout(cycle_graph(3), np.zeros((4, 2)), {})
    with pytest.raises(ParameterError):
        Layout(cycle_graph(3), np.array([[0, 0], [1, 0], [math.inf, 0]]), {})


# ---------------------------------------------------------------------------
# what a solve hands on: its layout, built unchecked with a record of what
# the solve measured, and a family GP(n,r)'s rotations in place of a search


def _hand_built(lay: Layout) -> Layout:
    """lay rebuilt by the constructor, which records nothing."""
    return Layout(lay.graph, lay.pos.copy(), dict(lay.meta))


def _circles_text(lay: Layout, **kwargs):
    """circles_from_layout(lay) as the text a file holds, or its error's
    type and text, with the number of _near_pairs sweeps it made."""
    with mock.patch.object(realization, "_near_pairs", wraps=realization._near_pairs) as sweeps:
        try:
            out = jsonio.dumps(jsonio.pcc_to_obj(circles_from_layout(lay, **kwargs)))
        except ValueError as exc:
            out = type(exc), str(exc)
    return out, sweeps.call_count


HANDED_ON = {
    "plain": lambda: solve_unit_distance(petersen_graph(), seed=1),
    "product": lambda: solve_unit_distance(prism_graph(7), seed=0),
    "symmetric": lambda: solve_unit_distance(generalized_petersen_graph(14, 2), seed=0, symmetry=14),
}


@pytest.mark.parametrize("kind", list(HANDED_ON))
def test_a_solved_layout_saves_as_its_hand_built_copy(kind):
    lay, residual = HANDED_ON[kind]()
    copy = _hand_built(lay)
    assert lay._verified is not None and copy._verified is None
    assert lay.meta["method"] == {"plain": "lm", "product": "product", "symmetric": "orbit-lm"}[kind]
    assert jsonio.dumps(jsonio.layout_to_obj(lay)) == jsonio.dumps(jsonio.layout_to_obj(copy))
    (mine, sweeps), (theirs, copy_sweeps) = _circles_text(lay), _circles_text(copy)
    assert mine == theirs and (sweeps, copy_sweeps) == (0, 1)


def _reassigned(lay):
    lay.pos = lay.pos + 0.25


def _edited(lay):
    lay.pos[3] += 1e-3


def _swapped(lay):
    lay.graph = Graph(lay.graph.order, lay.graph.edges, lay.graph.labels)


# each case's sweep count, and whether it raises: at tol 0 no edge length
# is exactly 1, so the circles are fitted, and a fit fails before the sweep
@pytest.mark.parametrize(
    "change, kwargs, sweeps, fails",
    [
        (_reassigned, {}, 1, False),
        (_edited, {}, 1, False),
        (_swapped, {}, 1, False),
        (None, {"tol": 1e-12}, 1, False),
        (None, {"tol": 0.0}, 0, True),
    ],
    ids=["reassigned", "edited", "swapped", "tol 1e-12", "tol 0"],
)
def test_a_changed_layout_or_a_smaller_tol_voids_the_record(change, kwargs, sweeps, fails):
    lay, _ = solve_unit_distance(petersen_graph(), seed=0, symmetry=5)
    if change is not None:
        change(lay)
    mine = _circles_text(lay, **kwargs)
    assert mine == _circles_text(_hand_built(lay), **kwargs)
    assert mine[1] == sweeps and isinstance(mine[0], tuple) == fails


def test_family_built_solves_neither_search_nor_walk_nor_sweep():
    """A family GP(14,2) solve at symmetry 14 reads its rotations without
    entering the search, takes no connectivity walk, and its circles take
    no sweep; the same graph built by the constructor runs all three and
    ends on the same bytes."""
    g = generalized_petersen_graph(14, 2)
    runs = []
    for h in (g, Graph(g.order, g.edges, g.labels)):
        with mock.patch.object(iso, "_free_cyclic_actions", wraps=iso._free_cyclic_actions) as search, \
                mock.patch.object(graphs, "bfs_layers", wraps=graphs.bfs_layers) as walk:
            lay, _ = solve_unit_distance(h, seed=0, symmetry=14)
        with mock.patch.object(realization, "_near_pairs", wraps=realization._near_pairs) as sweeps:
            circles_from_layout(lay)
        runs.append((search.call_count, walk.call_count, sweeps.call_count, lay.pos.tobytes()))
    assert runs[0][:3] == (0, 0, 0) and runs[1][:3] == (1, 1, 0)
    assert runs[0][3] == runs[1][3]
