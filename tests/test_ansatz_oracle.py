"""The ring-map ansatz solve against per-vertex, per-edge loops in the same
variables, and against the polar ring solve that it replaced."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confviz import (
    TOL_SEPARATION,
    ConvergenceError,
    Layout,
    build_family,
    circles_from_layout,
    iso,
    realization,
    solve_unit_distance,
    unit_edge_residual,
)
from confviz.graphs import Graph, complete_graph, cycle_graph
from confviz.realization import _edge_arrays, _ring_map, _ring_start, _solve

import oracles

SYMMETRIC = [("petersen", (), 5), ("desargues", (), 10), ("pappus", (), 3), ("dodecahedron", (), 5)]
# GP(14,2), GP(16,2) and GP(18,2): their first orbit sets are ruled out by
# their ring radii, and GP(14,2)'s last one too
SYMMETRIC += [("gen_petersen", (n, 2), n) for n in (10, 11, 12, 14, 16, 18)]
C8_ORBITS = [[0, 2, 4, 6], [1, 3, 5, 7]]


def assert_same_solve(run_new, run_old):
    """Bit-equal positions, equal meta in the same key order, or equal
    ConvergenceError residuals."""
    try:
        old = run_old()
    except ConvergenceError as exc:
        with pytest.raises(ConvergenceError) as new:
            run_new()
        assert new.value.residual == exc.residual
        return
    lay, residual = run_new()
    assert lay.pos.tobytes() == old[0].pos.tobytes()
    assert list(lay.meta.items()) == list(old[0].meta.items())
    assert residual == old[1]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("family,params,k", SYMMETRIC)
def test_symmetric_solve_matches_oracle(family, params, k, seed):
    g = build_family(family, *params)
    assert_same_solve(
        lambda: solve_unit_distance(g, seed=seed, symmetry=k),
        lambda: oracles.solve_unit_distance(g, seed=seed, symmetry=k),
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_explicit_orbit_and_plain_solves_match_oracle(seed):
    g = cycle_graph(8)
    # C8's first free order-4 action has the oracle's explicit orbits
    assert next(iso.find_free_cyclic_action(g, 4)).cycles() == C8_ORBITS
    assert_same_solve(
        lambda: solve_unit_distance(g, seed=seed, symmetry=4),
        lambda: oracles.solve_unit_distance(g, seed=seed, symmetry=C8_ORBITS),
    )
    # prime graphs: no product start, so the random loop alone, as before
    plain = [(cycle_graph(5), 40), (complete_graph(4), 4)]
    plain += [(build_family(*f), 4) for f in (("petersen",), ("gen_petersen", 7, 2), ("dodecahedron",))]
    for g, restarts in plain:
        assert_same_solve(
            lambda: solve_unit_distance(g, seed=seed, restarts=restarts),
            lambda: oracles.solve_unit_distance(g, seed=seed, restarts=restarts),
        )


def _outcome(run):
    """('ok', None, None) for a solve, else ('fail', restarts, skipped)."""
    try:
        run()
    except ConvergenceError as exc:
        return "fail", exc.restarts, exc.skipped
    return "ok", None, None


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("family,params,k", SYMMETRIC)
def test_symmetric_solve_keeps_the_polar_outcome(family, params, k, seed):
    """The drawing may differ where ring radii are free, but a solve in
    orbit representatives succeeds where the polar ring solve did, and
    fails after as many restarts and skipped orbit sets."""
    g = build_family(family, *params)
    assert _outcome(lambda: solve_unit_distance(g, seed=seed, symmetry=k)) == _outcome(
        lambda: oracles.solve_unit_distance(g, seed=seed, symmetry=k, polar=True)
    )


@pytest.mark.parametrize("m, restarts", [(1, 1), (2, 40), (3, 7), (4, 0)])
def test_one_draw_leaves_the_generator_where_the_ruled_out_starts_would(m, restarts):
    """A ruled-out orbit set draws rng.random(2 * m * restarts) in place of
    its restarts' radius and phase draws: both take one double an entry."""
    drawn, skipped = np.random.default_rng(7), np.random.default_rng(7)
    for _ in range(restarts):
        drawn.uniform(0.25, 2.2, size=m)
        drawn.uniform(0.0, 2.0 * math.pi, size=m)
    skipped.random(2 * m * restarts)
    assert skipped.bit_generator.state == drawn.bit_generator.state
    assert skipped.random(3).tobytes() == drawn.random(3).tobytes()


def _orbits(family, params, k):
    return next(iso.find_free_cyclic_action(build_family(family, *params), k)).cycles()


ORBIT_GRAPHS = [
    (cycle_graph(8), C8_ORBITS, 4),
    (build_family("petersen"), _orbits("petersen", (), 5), 5),
    (build_family("prism", 6), _orbits("prism", (6,), 6), 6),
    (build_family("gen_petersen", 7, 2), _orbits("gen_petersen", (7, 2), 7), 7),
    (build_family("dodecahedron"), _orbits("dodecahedron", (), 5), 5),
]


@st.composite
def ring_problems(draw):
    g, orbits, k = draw(st.sampled_from(ORBIT_GRAPHS))
    m = len(orbits)
    coordinate = st.floats(-2.2, 2.2, allow_nan=False)
    z0 = np.array(draw(st.lists(coordinate, min_size=2 * m, max_size=2 * m)))
    return g, orbits, k, z0, draw(st.integers(1, 40))


@settings(max_examples=60, deadline=None)
@given(ring_problems())
def test_ring_solve_matches_per_edge_loop(problem):
    g, orbits, k, z0, max_iter = problem
    P = _ring_map(orbits, k)
    assert P.tobytes() == oracles.ring_map(orbits, k, g.order).tobytes()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(realization, "_LM_MAX_ITER", max_iter)
        got = _solve(_edge_arrays(g), z0, P)
    assert got.tobytes() == oracles._solve_ring(g, P, z0, max_iter).tobytes()


@st.composite
def orbit_tables(draw):
    """k in 2..12, an explicit table of m <= 4 orbits of k vertices, and
    representatives z in [-3, 3]."""
    k, m = draw(st.integers(2, 12)), draw(st.integers(1, 4))
    vertices = draw(st.permutations(range(k * m)))
    orbits = [list(vertices[j * k: (j + 1) * k]) for j in range(m)]
    z = draw(st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=2 * m, max_size=2 * m))
    return orbits, k, np.array(z)


@settings(max_examples=100, deadline=None)
@given(orbit_tables())
def test_ring_map_rotates_each_representative_onto_its_orbit(problem):
    orbits, k, z = problem
    pos = (_ring_map(orbits, k) @ z).reshape(-1, 2)
    for j, orbit in enumerate(orbits):
        x, y = z[2 * j], z[2 * j + 1]
        slack = 4.0 * np.spacing(math.hypot(x, y))
        for t, v in enumerate(orbit):
            c, s = math.cos(2.0 * math.pi * t / k), math.sin(2.0 * math.pi * t / k)
            assert abs(pos[v, 0] - (c * x - s * y)) <= slack
            assert abs(pos[v, 1] - (s * x + c * y)) <= slack


@settings(max_examples=100, deadline=None)
@given(orbit_tables(), st.integers(0, 2**32))
def test_a_ring_start_lands_where_the_polar_start_does(problem, seed):
    """The start drawn as radii then phases and taken to z sits, under the
    ring map, where the polar oracle puts the same draws: within 8 eps of
    the radius, as the oracle's angle phase + 2*pi*t/k, below 4*pi, rounds
    by up to 4 eps."""
    orbits, k, _ = problem
    m = len(orbits)
    z0 = _ring_start(np.random.default_rng(seed), m)
    rng = np.random.default_rng(seed)
    x0 = np.empty(2 * m)
    x0[0::2] = rng.uniform(0.25, 2.2, size=m)
    x0[1::2] = rng.uniform(0.0, 2.0 * math.pi, size=m)
    assert z0.tobytes() == oracles.ring_start(x0[0::2], x0[1::2]).tobytes()
    got = (_ring_map(orbits, k) @ z0.ravel()).reshape(-1, 2)
    want = oracles._orbit_positions(x0, orbits, k, k * m)
    for j, orbit in enumerate(orbits):
        assert np.all(np.abs(got[orbit] - want[orbit]) <= 8.0 * np.finfo(float).eps * x0[2 * j])


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize(
    "family,params,symmetry",
    [("petersen", (), None), ("prism", (5,), None), ("complete", (4,), None), ("petersen", (), 5)],
)
def test_lm_matches_rebuilding_oracle(monkeypatch, family, params, symmetry, seed):
    """Keeping the Jacobian across rejected steps moves no bit of a solve or
    of the circle fits on its layout."""
    g = build_family(family, *params)

    def run():
        try:
            lay, residual = solve_unit_distance(g, seed=seed, symmetry=symmetry, restarts=4)
        except ConvergenceError as exc:
            return exc.residual, exc.restarts
        circles = [(c.cx, c.cy, c.r) for c in circles_from_layout(lay).circles]
        return lay.pos.tobytes(), list(lay.meta.items()), residual, circles

    new = run()
    monkeypatch.setattr(realization, "lm_least_squares", oracles.lm_least_squares)
    assert run() == new


@pytest.mark.parametrize("family,params,k", SYMMETRIC)
def test_edge_residual_matches_per_edge_loop(family, params, k):
    g = build_family(family, *params)
    rng = np.random.default_rng(k)
    for scale in (1e-3, 0.5, 1.0, 30.0):
        lay = Layout(g, scale * rng.normal(size=(g.order, 2)))
        assert unit_edge_residual(lay) == oracles.unit_edge_residual(lay)
    lay, _ = solve_unit_distance(g, seed=0, symmetry=k)
    assert unit_edge_residual(lay) == oracles.unit_edge_residual(lay)


# ---------------------------------------------------------------------------
# the polish that an exact start skips


def _edge_lm(g, pos0):
    """oracles.lm_least_squares over the edge residuals and Jacobian that
    realization._solve polishes with, from pos0."""
    eu, ev = np.array(g.edges).T

    def resid(x):
        d = x.reshape(-1, 2)[eu] - x.reshape(-1, 2)[ev]
        return np.hypot(d[:, 0], d[:, 1]) - 1.0

    def jacobian(x):
        d = x.reshape(-1, 2)[eu] - x.reshape(-1, 2)[ev]
        dist = np.hypot(d[:, 0], d[:, 1])
        dist = np.where(dist < 1e-300, 1.0, dist)
        j = np.zeros((len(eu), x.size))
        for row, (u, v) in enumerate(zip(eu, ev)):
            j[row, 2 * u: 2 * u + 2] = d[row] / dist[row]
            j[row, 2 * v: 2 * v + 2] = -d[row] / dist[row]
        return j

    return resid(pos0.ravel()), oracles.lm_least_squares(resid, jacobian, pos0.ravel()).reshape(-1, 2)


def _polished_starts(monkeypatch, g, **kwargs):
    """The starts a solve of g hands to its polish, in order."""
    starts = []
    solve = realization._solve

    def spy(edges, x0, P=None):
        if P is None:  # a polish, not a ring solve
            starts.append(x0.copy())
        return solve(edges, x0, P)

    monkeypatch.setattr(realization, "_solve", spy)
    solve_unit_distance(g, **kwargs)
    monkeypatch.undo()
    return starts


def _check_polish_skip(g, starts, seed):
    """Wherever the skip's bound holds, the rebuilding LM returns the start
    bit for bit, and so does the polish; elsewhere they agree bit for bit.
    Returns how often the bound held and failed."""
    rng = np.random.default_rng(seed)
    maxdeg = max(map(len, g.adjacency))
    sides = [0, 0]
    for start in starts:
        for eps in (0.0, 1e-13, 1e-12, 1e-11, 1e-10, 1e-9):
            pos = start + eps * rng.standard_normal(start.shape)
            r, want = _edge_lm(g, pos)
            got = realization._solve(_edge_arrays(g), pos)
            skips = bool(maxdeg * np.max(np.abs(r)) < 0.25e-12)
            sides[skips] += 1
            if skips:
                assert want.tobytes() == pos.tobytes()
            assert got.tobytes() == want.tobytes()
    return sides


PRODUCT_STARTS = [("prism", (n,)) for n in (3, 4, 5, 8, 11, 15, 18)]
PRODUCT_STARTS += [("gen_petersen", (n, 1)) for n in (6, 12, 16)]
PRODUCT_STARTS += [("hypercube", (d,)) for d in range(3, 9)]


@pytest.mark.parametrize("family,params", PRODUCT_STARTS)
def test_exact_product_starts_skip_the_polish(monkeypatch, family, params):
    g = build_family(family, *params)
    starts = _polished_starts(monkeypatch, g, seed=1, restarts=2)
    assert starts  # the product start comes first
    skipped, ran = _check_polish_skip(g, starts, seed=g.order)
    assert skipped and ran


@pytest.mark.parametrize("n", range(10, 51))
def test_exact_ring_solutions_skip_the_polish(monkeypatch, n):
    g = build_family("gen_petersen", n, 2)
    starts = _polished_starts(monkeypatch, g, seed=0, symmetry=n)
    skipped, ran = _check_polish_skip(g, starts, seed=n)
    assert skipped and ran


# ---------------------------------------------------------------------------
# the shared residual and Jacobian pass against the rebuilding LM


@st.composite
def plain_problems(draw):
    """A connected graph of 2 to 12 vertices, a random spanning tree and up
    to 2n more edges, with a normal start at a scale from 0.3 to 3."""
    n = draw(st.integers(2, 12))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    g = Graph(n, tree + draw(st.lists(pair, max_size=2 * n)))
    scale, seed = draw(st.floats(0.3, 3.0)), draw(st.integers(0, 2**32 - 1))
    return g, scale * np.random.default_rng(seed).standard_normal((n, 2))


@settings(max_examples=60, deadline=None)
@given(plain_problems())
def test_plain_solve_matches_the_rebuilding_lm(problem):
    g, pos0 = problem
    assert _solve(_edge_arrays(g), pos0).tobytes() == _edge_lm(g, pos0)[1].tobytes()


@st.composite
def circulant_rings(draw):
    """A circulant C_n(S), n from 3 to 16 and S of up to three steps, the
    orbits of its rotation by n/k steps (a free order-k automorphism, k > 1
    dividing n), a start z0 and an iteration budget."""
    n = draw(st.integers(3, 16))
    steps = draw(st.sets(st.integers(1, n // 2), min_size=1, max_size=3))
    g = Graph(n, [(v, (v + s) % n) for v in range(n) for s in steps])
    k = draw(st.sampled_from([k for k in range(2, n + 1) if n % k == 0]))
    orbits = [[j + t * (n // k) for t in range(k)] for j in range(n // k)]
    z0 = np.array(draw(st.lists(st.floats(-2.2, 2.2), min_size=2 * len(orbits), max_size=2 * len(orbits))))
    return g, orbits, k, z0, draw(st.sampled_from([1, 5, 40, 500]))


@settings(max_examples=40, deadline=None)
@given(circulant_rings())
def test_circulant_ring_solve_matches_the_rebuilding_lm(problem):
    g, orbits, k, z0, max_iter = problem
    P = _ring_map(orbits, k)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(realization, "_LM_MAX_ITER", max_iter)
        got = _solve(_edge_arrays(g), z0, P)
    assert got.tobytes() == oracles._solve_ring(g, P, z0, max_iter).tobytes()


# ---------------------------------------------------------------------------
# the separation sweep that a product start, tested by its fold, skips


def _solve_sweeps(g):
    """solve_unit_distance(g)'s layout and the _near_pairs sweeps it made."""
    with mock.patch.object(realization, "_near_pairs", wraps=realization._near_pairs) as sweeps:
        lay, _ = solve_unit_distance(g, seed=1, restarts=2)
    return lay, sweeps.call_count


@pytest.mark.parametrize("family,params", PRODUCT_STARTS)
def test_a_product_start_that_passes_takes_no_sweep(monkeypatch, family, params):
    g = build_family(family, *params)
    for h in (g, Graph(g.order, g.edges, g.labels)):
        lay, sweeps = _solve_sweeps(h)
        assert lay.meta["method"] == "product" and sweeps == 0
        (start, _, separated), = realization._product_start(h, 1, 2)
        assert separated and lay.pos.tobytes() == start.tobytes()
        # the all-pairs oracle finds every pair of the fold's drawing apart
        assert oracles._min_separation(start) > TOL_SEPARATION
    # a polish that moves the start voids the fold's test
    solve = realization._solve
    monkeypatch.setattr(realization, "_solve", lambda edges, x0, P=None: solve(edges, x0, P) + 1e-13)
    lay, sweeps = _solve_sweeps(g)
    assert lay.meta["method"] == "product" and sweeps == 1
