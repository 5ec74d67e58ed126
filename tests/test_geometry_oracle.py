"""The circumcircle kernel and spatial's array passes against the loops they
replaced (tests/oracles.py), bit for bit: arrays, circles, planes, poles and
residuals, and for a failure the same exception type and message."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from confviz import build_family, fano_plane, pappus_structure, v_construct
from confviz.errors import DegeneracyError
from confviz.graphs import Graph, generalized_petersen_graph
from confviz.incidence import IncidenceStructure
from confviz.pappus import derive_pappus_points
from confviz.realization import _circumcircles, check_flags, invert_pointline, realize_n3
from confviz.spatial import (
    POLYTOPE_NAMES,
    PolytopeSkeleton,
    _circle_cuts,
    _edges_by_min_distance,
    _fit_planes,
    _neighbourhood_planes,
    _orthobasis,
    _pole_clearance,
    point_plane_vconstruct,
    polytope_data,
    reference_coordinates,
    sphere_circles,
    stereographic_project,
)

ADMISSIBLE = tuple(name for name in POLYTOPE_NAMES if name != "octahedron")


def bits(values) -> bytes:
    """The exact doubles, so that -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=float).tobytes()


def circle_bits(circles) -> bytes:
    return bits([(c.cx, c.cy, c.r) for c in circles])


def outcome(fn, *args, **kwargs):
    """fn's result, or the type, message and counters of what it raised."""
    try:
        return "ok", fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the failure itself is compared
        return "raised", (type(exc), str(exc), getattr(exc, "rejections", None), getattr(exc, "pair", None))


def assert_same_pcc(a, b):
    assert bits(a.points) == bits(b.points)
    assert circle_bits(a.circles) == circle_bits(b.circles)
    assert a.incidence == b.incidence
    assert a.flags == b.flags and a.tols == b.tols


def assert_same_outcome(new, old, compare):
    assert new[0] == old[0], (new, old)
    if new[0] == "raised":
        assert new[1] == old[1]
    else:
        compare(new[1], old[1])


# ---------------------------------------------------------------------------
# the kernel


coordinate = st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False)
point = st.tuples(coordinate, coordinate)


@st.composite
def triples(draw):
    """A triple at scale 1e-3..1e3: general, or within about 1e-12 of
    collinear (the refusal threshold), or with a repeated point."""
    scale = 10.0 ** draw(st.integers(-3, 3))
    p, q = (np.array(draw(point)) * scale for _ in range(2))
    kind = draw(st.sampled_from(["general", "near", "repeat"]))
    if kind == "general":
        s = np.array(draw(point)) * scale
    elif kind == "near":
        t = draw(st.floats(-2.0, 3.0))
        off = draw(st.floats(-4e-12, 4e-12)) * scale
        d = q - p
        s = p + t * d + off * np.array([-d[1], d[0]])
    else:
        s = p.copy()
    return p, q, s


@settings(max_examples=200, deadline=None)
@given(st.lists(triples(), min_size=1, max_size=12))
def test_circumcircles_match_scalar_circumcircle(rows):
    expected = [outcome(oracles.circumcircle, *row) for row in rows]
    for row, (status, value) in zip(rows, expected):
        got = outcome(_circumcircles, *row)
        assert got[0] == status
        if status == "raised":
            assert got[1] == value
    kept = [row for row, (status, _) in zip(rows, expected) if status == "ok"]
    p, q, s = (np.array([row[k] for row in kept]).reshape(-1, 2) for k in range(3))
    cx, cy, r = _circumcircles(p, q, s)
    assert bits(np.column_stack([cx, cy, r])) == circle_bits([v for status, v in expected if status == "ok"])
    if len(kept) < len(rows):
        p, q, s = (np.array([row[k] for row in rows]) for k in range(3))
        with pytest.raises(DegeneracyError, match=r"^circumcircle of \(nearly\) collinear points$"):
            _circumcircles(p, q, s)


def test_circumcircles_broadcast_a_shared_point():
    rng = np.random.default_rng(0)
    p, q = rng.uniform(-1.0, 1.0, size=(2, 50, 2))
    s = np.array([0.3, -0.2])
    cx, cy, r = _circumcircles(p, q, s)
    assert bits(np.column_stack([cx, cy, r])) == circle_bits(map(oracles.circumcircle, p, q, [s] * 50))


# ---------------------------------------------------------------------------
# producers


N3_STRUCTURES = {
    "fano": fano_plane,
    "pappus": pappus_structure,
    "v_construct(petersen)": lambda: v_construct(build_family("petersen")),
    "v_construct(desargues)": lambda: v_construct(build_family("desargues")),
    "v_construct(pappus)": lambda: v_construct(build_family("pappus")),
    "v_construct(dodecahedron)": lambda: v_construct(build_family("dodecahedron")),
    "v_construct(GP(25,2))": lambda: v_construct(generalized_petersen_graph(25, 2)),
}


@pytest.mark.parametrize("name", N3_STRUCTURES)
def test_realize_n3_matches_per_block_loop(name):
    c = N3_STRUCTURES[name]()
    for seed in range(8):
        assert_same_outcome(
            outcome(realize_n3, c, seed=seed), outcome(oracles.realize_n3, c, seed=seed), assert_same_pcc
        )


def test_realize_n3_edge_cases_match_per_block_loop():
    # wrong block size, too few points, and no blocks at all
    for c in (IncidenceStructure(4, ((0, 1, 2, 3),)), IncidenceStructure(2, ()), IncidenceStructure(5, ())):
        assert_same_outcome(outcome(realize_n3, c), outcome(oracles.realize_n3, c), assert_same_pcc)


PAPPUS_POINTS = np.array(derive_pappus_points())
PAPPUS_LINES = pappus_structure().blocks
CONCURRENT = (
    np.array([[-1.0, 1.0], [1.0, 3.0], [1.0, 1.0], [-1.0, 3.0], [-2.0, 2.0], [2.0, 2.0]]),
    ((0, 1), (2, 3), (4, 5)),
)


@pytest.mark.parametrize(
    "points, lines, center, radius",
    [
        (PAPPUS_POINTS, PAPPUS_LINES, (0.4, 0.37), 1.0),
        (PAPPUS_POINTS, PAPPUS_LINES, (0.4, 0.37), 2.5),
        (PAPPUS_POINTS, PAPPUS_LINES, (-1.0, 2.0), 1.0),
        (PAPPUS_POINTS, PAPPUS_LINES, (3.0, -0.5), 0.25),
        (PAPPUS_POINTS, PAPPUS_LINES, (0.123, 0.987), 7.0),
        (PAPPUS_POINTS, PAPPUS_LINES, (1e-3, 2e-3), 1.0),
        (*CONCURRENT, (0.0, 0.0), 1.0),
        # refusals: a center on a carrier line, on a point, bad lines and tables
        (PAPPUS_POINTS, PAPPUS_LINES, (0.5, 0.0), 1.0),
        (PAPPUS_POINTS, PAPPUS_LINES, tuple(PAPPUS_POINTS[4]), 1.0),
        (PAPPUS_POINTS, PAPPUS_LINES, (0.4, 0.37), 0.0),
        (PAPPUS_POINTS, ((0, 1, 2), (0, 0)), (0.4, 0.37), 1.0),
        (PAPPUS_POINTS, ((0, 1, 2), (3, 99)), (0.4, 0.37), 1.0),
        (PAPPUS_POINTS, ((0, 1, 5),), (0.4, 0.37), 1.0),
        (np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]]), ((0, 1),), (3.0, 0.0), 1.0),
        (PAPPUS_POINTS[:, :1], PAPPUS_LINES, (0.4, 0.37), 1.0),
        (PAPPUS_POINTS, PAPPUS_LINES, (0.4, 0.37, 0.0), 1.0),
    ],
)
def test_invert_pointline_matches_per_line_loop(points, lines, center, radius):
    assert_same_outcome(
        outcome(invert_pointline, points, lines, center, radius),
        outcome(oracles.invert_pointline, points, lines, center, radius),
        assert_same_pcc,
    )


# ---------------------------------------------------------------------------
# spatial passes


def test_edges_by_min_distance_matches_pair_loop():
    rng = np.random.default_rng(1)
    clouds = [reference_coordinates(name) for name in POLYTOPE_NAMES]
    clouds += [rng.normal(size=(n, 3)) for n in (2, 3, 9, 30)]
    clouds += [np.array([(x, y, 0.0) for x in range(4) for y in range(3)]) * 0.7]
    for coords in clouds:
        edges, lengths = _edges_by_min_distance(coords)
        assert edges == oracles._edges_by_min_distance(coords)
        assert bits(lengths) == bits([np.linalg.norm(coords[u] - coords[v]) for u, v in edges])


def star(centres, coords):
    """A hand-built skeleton whose vertices 0..k-1 are joined to the given
    leaves; the leaves themselves have too few neighbours, so only a failure
    at a centre can come first."""
    edges = tuple((v, leaf) for v, leaves in enumerate(centres) for leaf in leaves)
    return PolytopeSkeleton("star", Graph(len(coords), edges), coords)


def star_coords(rng, kinds):
    """Coordinates for star centres with leaf sets of the given kinds:
    "general" (4 points off any plane), "flat" (4 coplanar), "line" (3
    collinear), "near" (3 points within about 1e-12 of collinear, the
    refusal threshold), "pair" (2 points) or "three" (3 points)."""
    size = {"general": 4, "flat": 4, "line": 3, "near": 3, "pair": 2, "three": 3}
    rows, centres = list(rng.normal(size=(len(kinds), 3))), []
    for kind in kinds:
        base, u, v = rng.normal(size=(3, 3))
        t = rng.normal(size=(size[kind], 2))
        if kind in ("line", "near"):
            t[:, 1] = 0.0 if kind == "line" else 10.0 ** rng.uniform(-12.5, -11.0, size=3)
        pts = base + t[:, :1] * u + t[:, 1:] * v
        if kind == "general":
            pts[0] += np.cross(u, v)
        centres.append(range(len(rows), len(rows) + len(pts)))
        rows.extend(pts)
    return centres, np.array(rows)


def skeletons():
    out = [polytope_data(name) for name in POLYTOPE_NAMES]
    cube = polytope_data("cube")
    for v, shift in ((0, 1e-3), (5, 1e-8), (7, -2e-12)):
        coords = cube.coords.copy()
        coords[v] += shift
        out.append(PolytopeSkeleton(f"cube moved at {v}", cube.graph, coords))
    # an admissible pentagonal pyramid (degrees 3 and 5), then stars with
    # mixed degrees and each failure behind the others in vertex order
    ring = [(math.cos(0.4 * math.pi * k), math.sin(0.4 * math.pi * k), 0.0) for k in range(5)]
    edges = [(k, (k + 1) % 5) for k in range(5)] + [(k, 5) for k in range(5)]
    out.append(PolytopeSkeleton("pyramid", Graph(6, tuple(edges)), np.array(ring + [(0.1, 0.2, 1.0)])))
    rng = np.random.default_rng(7)
    for kinds in (
        ("flat", "three", "flat"),
        ("general", "line", "pair"),
        ("general", "pair"),
        ("line", "general"),
        ("pair", "general"),
        ("three", "flat", "general", "line"),
        ("three",) + ("near",) * 12,
    ):
        out.append(star(*star_coords(rng, kinds)))
    return out


def rotation(q) -> np.ndarray:
    w, x, y, z = np.asarray(q) / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


@st.composite
def moved_skeletons(draw):
    """A polytope rotated, scaled, shifted and with one vertex perturbed by
    1e-15..1e-2 of the scale, or a star with mixed degrees and failures."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        kind = st.sampled_from(["general", "flat", "line", "near", "pair", "three"])
        return star(*star_coords(rng, draw(st.lists(kind, min_size=1, max_size=5))))
    sk = polytope_data(draw(st.sampled_from(POLYTOPE_NAMES)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    coords = scale * sk.coords @ rotation(rng.normal(size=4)).T + rng.normal(size=3) * scale
    if draw(st.booleans()):
        coords[rng.integers(len(coords))] += 10.0 ** draw(st.integers(-15, -2)) * scale * rng.normal(size=3)
    return PolytopeSkeleton(sk.name, sk.graph, coords)


def assert_same_planes(rows, planes):
    """Plane rows against the oracle's Plane objects."""
    assert bits(rows[:, :3]) == bits(np.array([pl.normal for pl in planes]).reshape(-1, 3))
    assert bits(rows[:, 3]) == bits([pl.offset for pl in planes])


def assert_planes_match_per_vertex_fits(sk):
    """_fit_planes over each degree's stacked neighbourhoods, and
    _neighbourhood_planes, against the per-vertex coplanarity loop."""
    adj = sk.graph.adjacency
    for d in {len(a) for a in adj if len(a) >= 3}:
        vs = [v for v in range(sk.graph.order) if len(adj[v]) == d]
        rows, residual, collinear = _fit_planes(sk.coords[np.array([adj[v] for v in vs])])
        for k, v in enumerate(vs):
            status, value = outcome(oracles.coplanarity, sk.coords[list(adj[v])])
            assert collinear[k] == (status == "raised")
            if status == "ok":
                assert_same_planes(rows[k : k + 1], [value[0]])
                assert bits(residual[k]) == bits(value[1])
                assert bits(oracles.plane_row(sk.coords[list(adj[v])])[0]) == bits(rows[k])
    # a refusal by type, text and pair, the non-coplanar residual in the text
    assert_same_outcome(outcome(_neighbourhood_planes, sk), outcome(oracles._neighbourhood_planes, sk),
                        assert_same_planes)


def same_ppc(a, b):
    assert bits(a.points) == bits(b.points)
    assert_same_planes(a.planes, b.planes)
    assert a.incidence == b.incidence
    assert bits(a.max_residual) == bits(b.max_residual)


def assert_same_spherical(a, b):
    assert bits(a.center) == bits(b.center) and bits(a.radius) == bits(b.radius)
    assert bits(a.points) == bits(b.points)
    assert_same_planes(a.circles, [sc.plane for sc in b.circles])
    centers, radii = _circle_cuts(a)
    assert bits(centers) == bits(np.array([sc.center for sc in b.circles]).reshape(-1, 3))
    assert bits(radii) == bits([sc.radius for sc in b.circles])
    assert a.incidence == b.incidence


def assert_same_plane_outcomes(sk):
    assert_planes_match_per_vertex_fits(sk)
    assert_same_outcome(outcome(point_plane_vconstruct, sk), outcome(oracles.point_plane_vconstruct, sk), same_ppc)


def assert_same_sphere_outcome(sk):
    new = outcome(sphere_circles, sk)
    if new[0] == "raised" and "misses the circumsphere (" in new[1][1]:
        # the common-sphere check the per-circle loop lacked
        dist = np.linalg.norm(sk.coords - sk.coords.mean(axis=0), axis=1)
        assert np.ptp(dist) > 1e-9 * np.mean(dist)
    elif new[0] == "ok" and bits(new[1].center) != bits(sk.coords.mean(axis=0)):
        # a sphere not centred at the vertex mean must hold every vertex,
        # and the per-circle loop about its centre must give the same circles
        sc = new[1]
        dist = np.linalg.norm(sk.coords - sc.center, axis=1)
        assert np.max(np.abs(dist - sc.radius)) <= 1e-9 * sc.radius
        assert_same_outcome(new, outcome(oracles.sphere_circles, sk, center=sc.center), assert_same_spherical)
    else:
        assert_same_outcome(new, outcome(oracles.sphere_circles, sk), assert_same_spherical)


def test_admissibility_and_point_planes_match_per_plane_loops():
    for sk in skeletons():
        assert_same_plane_outcomes(sk)


def test_sphere_circles_match_per_circle_loop():
    for sk in skeletons():
        assert_same_sphere_outcome(sk)


@settings(max_examples=150, deadline=None)
@given(moved_skeletons())
def test_moved_skeletons_match_per_vertex_loops(sk):
    assert_same_plane_outcomes(sk)
    assert_same_sphere_outcome(sk)


def circle_rows(circles) -> np.ndarray:
    return np.array([(c.cx, c.cy, c.r) for c in circles], dtype=float)


def circle_gap(a, b) -> float:
    """The largest difference of two (C, 3) circle tables, relative to each
    circle's size, the largest of |cx|, |cy| and r in b."""
    return float(np.max(np.max(np.abs(a - b), axis=1) / np.max(np.abs(b), axis=1), initial=0.0))


def assert_close_projection(new, old, rel):
    """The same pole and point bits, circles within rel of the oracle's."""
    (a, pole), (b, old_pole) = new, old
    assert bits(pole) == bits(old_pole) and bits(a.points) == bits(b.points)
    assert circle_gap(circle_rows(a.circles), circle_rows(b.circles)) <= rel
    assert a.incidence == b.incidence and a.flags == b.flags and a.tols == b.tols


@pytest.mark.parametrize("name", ADMISSIBLE)
def test_stereographic_project_matches_per_circle_loop(name):
    sk = polytope_data(name)
    sc, old_sc = sphere_circles(sk), oracles.sphere_circles(sk)
    for seed in range(32):
        new = stereographic_project(sc, seed=seed)
        old = oracles.stereographic_project(old_sc, seed=seed)
        assert_close_projection(new, old, 1e-13)
        assert check_flags(new[0]).flags == check_flags(old[0]).flags


# the angles at which the oracle samples each circle
SAMPLE_ANGLES = [2.0 * math.pi * j / 3.0 for j in range(3)] + [math.pi / 6.0 + j * math.pi / 4.0 for j in range(8)]


def near_circle_poles(sc, count):
    """Poles on the sphere tilted off a point of a circle of the oracle's
    configuration sc by 1e-6..1e-4 of the radius, or by 1.2e-6 off one of
    its sample points: they clear the circle, but image circles are huge and
    the oracle may project a sample onto the pole."""
    rng = np.random.default_rng(len(sc.circles))
    poles = []
    for k in range(count):
        circle = sc.circles[k % len(sc.circles)]
        f1, f2 = oracles._orthobasis(np.asarray(circle.plane.normal))
        if k % 2:
            a, tilt = SAMPLE_ANGLES[k % 11], 1.2e-6
        else:
            a, tilt = rng.uniform(0.0, 2.0 * math.pi), 10.0 ** rng.uniform(-6.0, -4.0)
        on = circle.center + circle.radius * (math.cos(a) * f1 + math.sin(a) * f2)
        v = on + tilt * sc.radius * np.asarray(circle.plane.normal) - sc.center
        poles.append(sc.center + sc.radius * v / np.linalg.norm(v))
    return poles


def closed_form(sc, pole) -> np.ndarray:
    """The image circles (C, 3) of sc's plane rows through pole, evaluated in
    np.longdouble in the frame the projection uses."""
    q = np.longdouble
    rows = sc.circles.astype(q)
    n, d = rows[:, :3], rows[:, 3]
    e1, e2 = (e.astype(q) for e in _orthobasis((pole - sc.center) / sc.radius))
    c, r = sc.center.astype(q), q(sc.radius)
    h = (n @ pole.astype(q) - d) / r
    gap = d - n @ c
    return np.column_stack([-r * (n @ e1) / h, -r * (n @ e2) / h, np.sqrt(r * r - gap * gap) / np.abs(h)])


POLE_REFUSALS = ("explicit pole must lie on the sphere", "pole touches a configuration point or circle")


@pytest.mark.parametrize("name", ADMISSIBLE)
def test_stereographic_explicit_poles_match_per_circle_loop(name):
    sk = polytope_data(name)
    sc, old_sc = sphere_circles(sk), oracles.sphere_circles(sk)
    r = sc.radius
    poles = [(r, 0.0, 0.0), (0.0, 0.0, -r), (2.0 * r, 0.0, 0.0), tuple(sc.points[0])]
    poles += near_circle_poles(old_sc, 24)
    seen = set()
    for pole in poles:
        new = outcome(stereographic_project, sc, pole=pole)
        old = outcome(oracles.stereographic_project, old_sc, pole=pole)
        if old[0] == "raised" and old[1][1] in POLE_REFUSALS:
            assert new == old
        else:
            # the drift check scales with the image radius and the
            # projection's magnification, so no pole that clears refuses
            assert new[0] == "ok"
            assert circle_gap(circle_rows(new[1][0].circles), closed_form(sc, new[1][1])) <= 1e-9
            if old[0] == "ok":
                assert_close_projection(new[1], old[1], 1e-9)
        seen.add((old[0] if old[0] == "ok" else old[1][1].split(" (")[0], new[0]))
    assert {("ok", "ok"), (POLE_REFUSALS[0], "raised"), (POLE_REFUSALS[1], "raised")} <= seen
    if name != "dodecahedron":
        # a sample of the oracle's landed on the pole; the closed form has no samples
        assert ("projected point coincides with the pole", "ok") in seen


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ADMISSIBLE), st.integers(0, 2**32 - 1), st.floats(0.0, 2.0 * math.pi))
def test_projected_circle_points_lie_on_the_image_circles(name, seed, phase):
    """256 points of each sphere circle, projected by the definition (where
    the line from the pole through a point meets the plane through the
    centre orthogonal to the pole), lie on its image circle."""
    sc = sphere_circles(polytope_data(name))
    pcc, pole = stereographic_project(sc, seed=seed)
    centers, radii = _circle_cuts(sc)
    f1, f2 = _orthobasis(sc.circles[:, :3])
    a = (phase + np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False))[:, None]
    on = centers[:, None] + radii[:, None, None] * (np.cos(a) * f1[:, None] + np.sin(a) * f2[:, None])
    u = (pole - sc.center) / sc.radius
    e1, e2 = _orthobasis(u)
    image = pole + (sc.radius / ((pole - on) @ u))[..., None] * (on - pole) - sc.center
    rows = circle_rows(pcc.circles)
    off = np.hypot(image @ e1 - rows[:, :1], image @ e2 - rows[:, 1:2]) - rows[:, 2:]
    assert np.max(np.abs(off) / np.max(np.abs(rows), axis=1)[:, None]) <= 1e-12


@pytest.mark.parametrize("name", ADMISSIBLE)
def test_pole_clearance_and_frames_match_per_circle_loops(name):
    sk = polytope_data(name)
    sc, old_sc = sphere_circles(sk), oracles.sphere_circles(sk)
    rng = np.random.default_rng(5)
    draws = rng.normal(size=(64, 3))
    poles = [sc.center + sc.radius * v / np.linalg.norm(v) for v in draws]
    poles += near_circle_poles(old_sc, 16) + list(sc.points[:3])
    arrays = (sc.circles[:, :3], *_circle_cuts(sc))
    for pole in poles:
        assert bits(_pole_clearance(sc, arrays, pole)) == bits(oracles._pole_clearance(old_sc, pole))
    e1, e2 = _orthobasis(arrays[0])
    expected = [oracles._orthobasis(n) for n in arrays[0]]
    assert bits(e1) == bits([f for f, _ in expected]) and bits(e2) == bits([f for _, f in expected])
    f1, f2 = _orthobasis(draws[0] / np.linalg.norm(draws[0]))
    g1, g2 = oracles._orthobasis(draws[0] / np.linalg.norm(draws[0]))
    assert bits(f1) == bits(g1) and bits(f2) == bits(g2)
