"""The ring-table ansatz solve against the per-vertex, per-edge loops it replaced."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confviz import (
    ConvergenceError,
    Layout,
    build_family,
    circles_from_layout,
    iso,
    realization,
    solve_unit_distance,
    unit_edge_residual,
)
from confviz.graphs import complete_graph, cycle_graph
from confviz.realization import _ring_positions, _ring_table, _solve_orbits

import oracles

SYMMETRIC = [("petersen", (), 5), ("desargues", (), 10), ("pappus", (), 3), ("dodecahedron", (), 5)]
SYMMETRIC += [("gen_petersen", (n, 2), n) for n in (10, 11, 12)]
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
    assert_same_solve(
        lambda: solve_unit_distance(g, seed=seed, symmetry=C8_ORBITS),
        lambda: oracles.solve_unit_distance(g, seed=seed, symmetry=C8_ORBITS),
    )
    for g, restarts in ((cycle_graph(5), 40), (complete_graph(4), 4)):
        assert_same_solve(
            lambda: solve_unit_distance(g, seed=seed, restarts=restarts),
            lambda: oracles.solve_unit_distance(g, seed=seed, restarts=restarts),
        )


def _orbits(family, params, k):
    return iso.orbits_of(iso.find_free_cyclic_action(build_family(family, *params), k)[0])


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
    radius = st.floats(0.25, 2.2, allow_nan=False)
    phase = st.floats(-4.0 * math.pi, 4.0 * math.pi, allow_nan=False)
    x0 = np.empty(2 * m)
    x0[0::2] = draw(st.lists(radius, min_size=m, max_size=m))
    x0[1::2] = draw(st.lists(phase, min_size=m, max_size=m))
    return g, orbits, k, x0, draw(st.integers(1, 40))


@settings(max_examples=60, deadline=None)
@given(ring_problems())
def test_ring_solve_matches_per_edge_loop(problem):
    g, orbits, k, x0, max_iter = problem
    ring, offset = _ring_table(orbits, k)
    want = oracles._orbit_positions(x0, orbits, k, g.order)
    assert _ring_positions(x0, ring, offset).tobytes() == want.tobytes()
    got = _solve_orbits(g, ring, offset, x0, max_iter)
    want = oracles._solve_orbits(g, orbits, k, x0, max_iter)
    assert got.tobytes() == want.tobytes()


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
