"""circles_from_layout's unit route and circumcircle pass against the
per-vertex least-squares fit they replaced (oracles.circles_from_layout)."""

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from confviz import (
    TOL_INCIDENCE,
    realization,
    TOL_SEPARATION,
    ConcyclicityError,
    DegeneracyError,
    DistinctnessError,
    Layout,
    ParameterError,
    PointCircleConfig,
    check_flags,
    circles_from_layout,
    layout_gen_cuboctahedron,
    layout_hypercube,
    layout_polygon,
    solve_unit_distance,
)
from confviz.graphs import Graph, build_family, petersen_graph

REFUSALS = (ConcyclicityError, DegeneracyError, DistinctnessError, ParameterError)


@lru_cache(maxsize=None)
def _petersen(seed):
    return solve_unit_distance(petersen_graph(), symmetry=5, seed=seed)[0]


@st.composite
def similar_layouts(draw):
    """(layout, scale, allow_degree_two): a hypercube(3..5), CO(5..16),
    polygon or symmetric Petersen solve under a random similarity with
    scale 0.1..10."""
    kind = draw(st.sampled_from(["hypercube", "CO", "polygon", "petersen"]))
    if kind == "hypercube":
        layout = layout_hypercube(draw(st.integers(3, 5)), seed=draw(st.integers(0, 50)))
    elif kind == "CO":
        layout = layout_gen_cuboctahedron(draw(st.integers(5, 16)))
    elif kind == "polygon":
        layout = layout_polygon(draw(st.integers(5, 24)))
    else:
        layout = _petersen(draw(st.integers(0, 2)))
    angle = draw(st.floats(0.0, 2.0 * math.pi))
    scale = draw(st.floats(0.1, 10.0))
    shift = np.array([draw(st.floats(-5.0, 5.0)), draw(st.floats(-5.0, 5.0))])
    c, s = math.cos(angle), math.sin(angle)
    pos = scale * (layout.pos @ np.array([[c, -s], [s, c]]).T + shift)
    return Layout(layout.graph, pos, {"generator": kind}), scale, kind == "polygon"


def _table(cfg):
    return cfg.circles.view(float).reshape(-1, 3)


def _gap(cfg, want):
    """Largest centre or radius difference per circle, over want's radius."""
    got, ref = _table(cfg), _table(want)
    return np.max(np.abs(got - ref).max(axis=1) / ref[:, 2])


LADDER = {
    **{f"hypercube({d})": lambda d=d: layout_hypercube(d, seed=0) for d in range(3, 7)},
    **{f"CO({n})": lambda n=n: layout_gen_cuboctahedron(n) for n in range(5, 41)},
    **{f"polygon({n})": lambda n=n: layout_polygon(n) for n in range(5, 65)},
}


@pytest.mark.parametrize("name", list(LADDER))
def test_circles_match_least_squares_fit_on_ladder(name):
    layout = LADDER[name]()
    degree_two = name.startswith("polygon")
    cfg = circles_from_layout(layout, allow_degree_two=degree_two)
    want = oracles.circles_from_layout(layout, allow_degree_two=degree_two)
    assert _gap(cfg, want) <= 1e-12
    if degree_two:
        assert np.array_equal(_table(cfg), _table(want))
    assert cfg.incidence == want.incidence


@settings(max_examples=60, deadline=None)
@given(similar_layouts())
def test_circles_match_least_squares_fit(case):
    layout, scale, degree_two = case
    cfg = circles_from_layout(layout, allow_degree_two=degree_two)
    want = oracles.circles_from_layout(layout, allow_degree_two=degree_two)
    # Moved off the origin, the fit's last iterate strays up to about
    # 1.2e-12 of the radius from the exact circle, and the circumcircle up
    # to 4e-13; the unit circles about hypercube vertices are known exactly.
    assert _gap(cfg, want) <= 4e-12
    if layout.meta.get("generator") == "hypercube":
        exact = np.column_stack([layout.pos, np.full(layout.graph.order, scale)])
        assert np.max(np.abs(_table(cfg) - exact)) <= 1e-12 * scale
    if degree_two:
        assert np.array_equal(_table(cfg), _table(want))
    assert cfg.incidence == want.incidence
    assert check_flags(cfg).flags == check_flags(want).flags


def _fit_residuals(layout):
    """Each vertex's residual under the least-squares fit (or, at degree
    two, the difference of its neighbours' distances)."""
    out = []
    for v, nbrs in enumerate(layout.graph.adjacency):
        pts = layout.pos[list(nbrs)]
        if len(nbrs) == 2:
            d = np.linalg.norm(pts - layout.pos[v], axis=1)
            out.append(abs(d[0] - d[1]))
        else:
            out.append(oracles.fit_circle(pts)[1])
    return out


@st.composite
def moved_layouts(draw):
    """(layout, allow_degree_two) with one vertex w moved: either off the
    circle of a neighbour v, along its radius, by 10 tol to 1e-4, or in
    any direction by at most tol / 10."""
    layout, _, degree_two = draw(similar_layouts())
    g = layout.graph
    v = draw(st.integers(0, g.order - 1))
    w = draw(st.sampled_from(g.adjacency[v]))
    pos = layout.pos.copy()
    if draw(st.booleans()):
        circle = oracles.circles_from_layout(layout, allow_degree_two=degree_two).circles[v]
        radial = pos[w] - (circle.cx, circle.cy)
        step = draw(st.floats(10.0 * TOL_INCIDENCE, 1e-4)) * draw(st.sampled_from([1.0, -1.0]))
        pos[w] += step * radial / np.linalg.norm(radial)
    else:
        angle = draw(st.floats(0.0, 2.0 * math.pi))
        pos[w] += draw(st.floats(0.0, TOL_INCIDENCE / 10.0)) * np.array([math.cos(angle), math.sin(angle)])
    return Layout(g, pos, {}), degree_two


def _outcome(build, layout, degree_two):
    try:
        build(layout, allow_degree_two=degree_two)
    except REFUSALS as exc:
        return type(exc), getattr(exc, "vertex", None)
    return None


@settings(max_examples=80, deadline=None)
@given(moved_layouts())
def test_accept_and_refuse_as_least_squares_fit(case):
    layout, degree_two = case
    # a circumcircle's largest residual and the least-squares fit's differ by
    # a factor set by how the neighbours spread, so the decision is compared
    # only where no vertex's residual sits near the tolerance
    assume(all(not TOL_INCIDENCE / 10.0 <= res <= 10.0 * TOL_INCIDENCE for res in _fit_residuals(layout)))
    assert _outcome(circles_from_layout, layout, degree_two) == _outcome(
        oracles.circles_from_layout, layout, degree_two
    )


# Two stars, centres 0 and 1 with their leaves listed after both, so each
# case also has degree-one vertices after the failing centre; the leaves
# are given as offsets from their centre.
_CONCYCLIC = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]
_SKEW = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.2, -1.3)]
_COLLINEAR = [(0.0, 1.0), (1.0, 1.0), (2.0, 1.0)]


def _two_stars(first, second):
    edges = [(0, 2 + i) for i in range(len(first))]
    edges += [(1, 2 + len(first) + i) for i in range(len(second))]
    pos = np.array([(0.0, 0.0), (5.0, 5.0), *first, *(np.array(second) + 5.0)])
    return Layout(Graph(len(pos), tuple(edges)), pos, {})


@pytest.mark.parametrize(
    "first, second, error, vertex",
    [
        (_COLLINEAR, _SKEW, DegeneracyError, 0),
        (_SKEW, _COLLINEAR, ConcyclicityError, 0),
        (_CONCYCLIC, _COLLINEAR, DegeneracyError, 1),
        (_CONCYCLIC, _SKEW, ConcyclicityError, 1),
        (_CONCYCLIC, _CONCYCLIC, ParameterError, 2),
    ],
)
def test_first_failing_vertex_raises(first, second, error, vertex):
    layout = _two_stars(first, second)
    for build in (circles_from_layout, oracles.circles_from_layout):
        with pytest.raises(error) as exc:
            build(layout)
        if error is ConcyclicityError:
            assert exc.value.vertex == vertex
    # the oracle's collinearity message names no vertex
    with pytest.raises(error, match=f"vertex {vertex} "):
        circles_from_layout(layout)


def test_degree_one_vertex_before_a_bad_one():
    layout = _two_stars(_SKEW, _COLLINEAR)
    order = [2, 0, 1, *range(3, layout.graph.order)]  # a leaf becomes vertex 0
    g = Graph(layout.graph.order, tuple((order.index(u), order.index(v)) for u, v in layout.graph.edges))
    moved = Layout(g, layout.pos[order], {})
    for build in (circles_from_layout, oracles.circles_from_layout):
        with pytest.raises(ParameterError, match="vertex 0 has degree 1"):
            build(moved)


def _shifted_copies(shifts, seed):
    """Copies of a seeded cube drawing, one per shift, as one layout whose
    vertex numbers interleave the copies in a seeded order; circle k of a
    copy moves with its shift, so two copies' circles coincide when their
    shifts differ by at most TOL_SEPARATION."""
    cube = layout_hypercube(3, seed=seed)
    n = cube.graph.order
    rng = np.random.default_rng(seed)
    label = rng.permutation(n * len(shifts))
    edges = tuple((label[c * n + u], label[c * n + v]) for c in range(len(shifts)) for u, v in cube.graph.edges)
    pos = np.empty((n * len(shifts), 2))
    for c, shift in enumerate(shifts):
        pos[label[c * n:(c + 1) * n]] = cube.pos + shift
    return Layout(Graph(len(pos), edges), pos + rng.uniform(-3.0, 3.0, size=2), {})


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("apart", [0.0, 0.3, 0.9, 1.1, 3.0])
def test_coinciding_circles_named_as_by_all_pairs(apart, seed):
    angle = 2.0 * math.pi * (seed + 0.5) / 7.0
    step = apart * TOL_SEPARATION * np.array([math.cos(angle), math.sin(angle)])
    layout = _shifted_copies([np.zeros(2), step, 2.5 * step], seed)
    outcome = []
    for build in (circles_from_layout, oracles.circles_from_layout):
        try:
            build(layout)
            outcome.append(None)
        except DistinctnessError as exc:
            outcome.append(str(exc))
    assert outcome[0] == outcome[1]
    assert (outcome[0] is None) == (apart > 1.0)


def test_empty_layout_has_no_circles():
    cfg = circles_from_layout(Layout(Graph(0, ()), np.zeros((0, 2)), {}))
    assert cfg.circles.shape == (0,) and cfg.incidence == ()


# ---------------------------------------------------------------------------
# the unit route: unit-distance drawings take the unit circles about their
# vertices, and no circle is fitted


@lru_cache(maxsize=None)
def _solved(family, params, symmetry, seed=0):
    return solve_unit_distance(build_family(family, *params), symmetry=symmetry, seed=seed)[0]


UNIT_LADDER = {
    "petersen symmetric": lambda: _solved("petersen", (), 5),
    "desargues symmetric": lambda: _solved("desargues", (), 10),
    **{f"GP({n},2) symmetric": lambda n=n: _solved("gen_petersen", (n, 2), n) for n in range(10, 51)},
    **{f"prism({n}) product": lambda n=n: _solved("prism", (n,), None) for n in range(11, 19)},
    **{f"GP({n},1) product": lambda n=n: _solved("gen_petersen", (n, 1), None) for n in range(11, 19)},
    **{f"hypercube({d})": lambda d=d: layout_hypercube(d, seed=0) for d in range(3, 9)},
}


def _no_fit(*args, **kwargs):
    raise AssertionError("a unit-distance drawing fitted a circumcircle")


@pytest.mark.parametrize("name", list(UNIT_LADDER))
def test_unit_drawings_fit_no_circle(name, monkeypatch):
    layout = UNIT_LADDER[name]()
    monkeypatch.setattr(realization, "_circumcircles", _no_fit)
    cfg = circles_from_layout(layout)
    assert np.array_equal(_table(cfg), np.column_stack([layout.pos, np.ones(layout.graph.order)]))


@pytest.mark.parametrize("name", list(UNIT_LADDER))
def test_unit_circles_match_least_squares_fit(name):
    layout = UNIT_LADDER[name]()
    cfg = check_flags(circles_from_layout(layout))
    want = oracles.circles_from_layout(layout)
    r = cfg.circles["r"]
    assert np.all(r == 1.0) and r.max() - r.min() == 0.0
    assert cfg.flags["isometric"]
    assert _gap(cfg, want) <= 1e-12
    assert cfg.incidence == want.incidence
    assert cfg.flags == check_flags(want).flags


@st.composite
def placed_unit_drawings(draw):
    """A unit drawing from a hypercube, symmetric or product solve, turned
    by a random angle and moved by a random shift, at scale 1."""
    kind = draw(st.sampled_from(["hypercube", "petersen", "GP(n,2)", "prism", "GP(n,1)"]))
    if kind == "hypercube":
        layout = layout_hypercube(draw(st.integers(3, 6)), seed=draw(st.integers(0, 50)))
    elif kind == "petersen":
        layout = _petersen(draw(st.integers(0, 2)))
    elif kind == "GP(n,2)":
        n = draw(st.integers(10, 20))
        layout = _solved("gen_petersen", (n, 2), n)
    else:
        family, params = ("prism", ()) if kind == "prism" else ("gen_petersen", (1,))
        layout = _solved(family, (draw(st.integers(11, 18)), *params), None)
    angle = draw(st.floats(0.0, 2.0 * math.pi))
    shift = np.array([draw(st.floats(-5.0, 5.0)), draw(st.floats(-5.0, 5.0))])
    c, s = math.cos(angle), math.sin(angle)
    return Layout(layout.graph, layout.pos @ np.array([[c, -s], [s, c]]).T + shift, {"generator": kind})


@settings(max_examples=60, deadline=None)
@given(placed_unit_drawings())
def test_placed_unit_drawings_take_the_unit_route(layout):
    cfg = circles_from_layout(layout)
    assert np.array_equal(_table(cfg), np.column_stack([layout.pos, np.ones(layout.graph.order)]))
    want = oracles.circles_from_layout(layout)
    assert cfg.incidence == want.incidence
    assert check_flags(cfg).flags == check_flags(want).flags


def _fit_calls(monkeypatch):
    """A list that grows by one with every _circumcircles call."""
    calls = []
    fit = realization._circumcircles

    def counted(*args, **kwargs):
        calls.append(1)
        return fit(*args, **kwargs)

    monkeypatch.setattr(realization, "_circumcircles", counted)
    return calls


EDGE_TOL = 1e-12
EDGE_CASES = ["petersen symmetric", "GP(14,2) symmetric", "prism(12) product", "hypercube(4)", "hypercube(5)"]


def _moved(layout, w, step):
    """layout with vertex w moved by step."""
    pos = layout.pos.copy()
    pos[w] += step
    return Layout(layout.graph, pos, {})


@pytest.mark.parametrize("name", EDGE_CASES)
@pytest.mark.parametrize("w", [0, 3, 7])
def test_an_edge_off_by_ten_tol_falls_to_the_fit(name, w, monkeypatch):
    # w moves by 10 tol along its edge to its least neighbour v; only w's
    # neighbours see their neighbourhoods change, so v fails first if any
    layout = UNIT_LADDER[name]()
    v = min(layout.graph.adjacency[w])
    along = layout.pos[w] - layout.pos[v]
    moved = _moved(layout, w, 10.0 * EDGE_TOL * along / np.linalg.norm(along))
    calls = _fit_calls(monkeypatch)
    got = _outcome(lambda lay, **kw: circles_from_layout(lay, EDGE_TOL, **kw), moved, False)
    assert calls
    want = _outcome(lambda lay, **kw: oracles.circles_from_layout(lay, EDGE_TOL, **kw), moved, False)
    assert got == want
    if got is not None:
        assert got == (ConcyclicityError, v)


@pytest.mark.parametrize("name", EDGE_CASES)
@pytest.mark.parametrize("angle", [0.0, 1.0, 2.5, 4.0])
def test_a_move_within_a_tenth_of_tol_keeps_the_unit_route(name, angle, monkeypatch):
    layout = UNIT_LADDER[name]()
    moved = _moved(layout, 1, EDGE_TOL / 10.0 * np.array([math.cos(angle), math.sin(angle)]))
    monkeypatch.setattr(realization, "_circumcircles", _no_fit)
    cfg = circles_from_layout(moved, EDGE_TOL)
    assert np.array_equal(_table(cfg), np.column_stack([moved.pos, np.ones(moved.graph.order)]))


def test_degree_two_vertices_with_unit_edges_keep_the_fit(monkeypatch):
    # a cube drawing with one more vertex x on unit edges to the ends a and
    # b of a cube edge: x has degree two, and every edge has length 1
    cube = layout_hypercube(3, seed=0)
    a, b = 0, 1
    mid = (cube.pos[a] + cube.pos[b]) / 2.0
    half = np.linalg.norm(cube.pos[b] - cube.pos[a]) / 2.0
    normal = np.array([[0.0, -1.0], [1.0, 0.0]]) @ (cube.pos[b] - cube.pos[a]) / (2.0 * half)
    x = mid + math.sqrt(1.0 - half * half) * normal
    g = Graph(9, cube.graph.edges + ((a, 8), (b, 8)))
    layout = Layout(g, np.vstack([cube.pos, x]), {})
    calls = _fit_calls(monkeypatch)
    cfg = circles_from_layout(layout, allow_degree_two=True)
    want = oracles.circles_from_layout(layout, allow_degree_two=True)
    assert calls
    assert np.array_equal(_table(cfg)[8], _table(want)[8])
    assert _gap(cfg, want) <= 1e-12


@pytest.mark.parametrize("scale", [0.5, 1.0 + 1e-6, 2.0])
def test_scaled_unit_drawings_fit_their_circles(scale, monkeypatch):
    layout = UNIT_LADDER["hypercube(4)"]()
    calls = _fit_calls(monkeypatch)
    cfg = circles_from_layout(Layout(layout.graph, scale * layout.pos, {}))
    assert calls
    assert np.max(np.abs(cfg.circles["r"] - scale)) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# the configuration circles_from_layout sets up unchecked


def _rebuilt(layout, cfg):
    """cfg's fields through the public constructor, from fresh copies and
    with the incidences reversed, so that the constructor must sort them."""
    return PointCircleConfig(
        layout.pos.tolist(), cfg.circles.view(float).reshape(-1, 3).tolist(), cfg.incidence[::-1],
        flags={}, tols=dict(cfg.tols),
    )


CANONICAL_ROUTES = [
    (lambda: solve_unit_distance(build_family("prism", 9), seed=0)[0], {}),
    (lambda: _petersen(0), {"tol": 1e-10}),
    (lambda: layout_hypercube(4, seed=2), {}),
    (lambda: layout_gen_cuboctahedron(7), {}),
    (lambda: layout_gen_cuboctahedron(12), {"tol": 1e-8}),
    (lambda: Layout(build_family("hypercube", 3), 1.3 * layout_hypercube(3, seed=1).pos), {}),
    (lambda: layout_polygon(3), {"allow_degree_two": True}),
    (lambda: layout_polygon(8), {"allow_degree_two": True}),
]


@pytest.mark.parametrize("make,kwargs", CANONICAL_ROUTES)
def test_built_configuration_equals_its_public_rebuild(make, kwargs):
    layout = make()
    cfg = circles_from_layout(layout, **kwargs)
    want = _rebuilt(layout, cfg)
    assert cfg.points.tobytes() == want.points.tobytes() and cfg.points.shape == want.points.shape
    assert cfg.circles.dtype == want.circles.dtype and cfg.circles.tobytes() == want.circles.tobytes()
    assert not cfg.circles.flags.writeable
    assert cfg.incidence == want.incidence
    assert all(type(x) is int for pair in cfg.incidence for x in pair)
    assert (cfg.flags, cfg.tols) == (want.flags, want.tols)
    assert check_flags(cfg).flags == check_flags(want).flags
