import hashlib
import math
import re
from unittest import mock

import numpy as np
import pytest

import oracles

from confviz import (
    AdmissibilityError,
    DegeneracyError,
    POLYTOPE_NAMES,
    ParameterError,
    PolePlacementError,
    SphericalCircleConfig,
    TOL_INCIDENCE,
    check_flags,
    classify,
    decompose,
    incidence_of,
    isomorphic,
    jsonio,
    line_graph,
    point_plane_vconstruct,
    polytope_data,
    sphere_circles,
    stereographic_project,
    v_construct,
)
from confviz import spatial
from confviz.graphs import Graph, complete_graph, gen_cuboctahedron_graph, generalized_petersen_graph
from confviz.realization import _row_norms
from confviz.spatial import PolytopeSkeleton, _circle_cuts, _neighbourhood_planes, _plane_rows, reference_coordinates

SHAPES = {
    "tetrahedron": (4, 6),
    "cube": (8, 12),
    "octahedron": (6, 12),
    "dodecahedron": (20, 30),
    "icosahedron": (12, 30),
    "cuboctahedron": (12, 24),
}


def test_reference_coordinates_on_a_common_sphere():
    for name in POLYTOPE_NAMES:
        pts = reference_coordinates(name)
        assert pts.shape == (SHAPES[name][0], 3)
        norms = np.linalg.norm(pts, axis=1)
        assert np.ptp(norms) < 1e-12
        assert [tuple(r) for r in pts] == sorted(tuple(r) for r in pts)


@pytest.mark.parametrize("name", POLYTOPE_NAMES)
def test_polytope_data_shapes(name):
    p = polytope_data(name)
    nv, ne = SHAPES[name]
    assert p.graph.order == nv
    assert len(p.graph.edges) == ne
    assert p.coords.shape == (nv, 3)


def test_polytope_data_unknown_name():
    with pytest.raises(ParameterError):
        polytope_data("rhombicuboctahedron")


def test_dodecahedron_skeleton_matches_generalized_petersen():
    p = polytope_data("dodecahedron")
    assert isomorphic(p.graph, generalized_petersen_graph(10, 2)) is not None


def test_cuboctahedron_skeleton_matches_ring_family():
    p = polytope_data("cuboctahedron")
    assert isomorphic(p.graph, gen_cuboctahedron_graph(4)) is not None


def test_octahedron_skeleton_is_line_graph_of_k4():
    p = polytope_data("octahedron")
    assert isomorphic(p.graph, line_graph(complete_graph(4))) is not None


def test_plane_orientation_normalized():
    rows = _plane_rows(np.array([[0.0, 0.0, 2.0], [0.0, 0.0, -1.0], [1e-13, -3.0, 4.0]]), np.array([4.0, -2.0, 5.0]))
    assert rows[0].tolist() == rows[1].tolist() == [0.0, 0.0, 1.0, 2.0]
    assert rows[2].tolist() == [-2e-14, 0.6, -0.8, -1.0]
    # the leading component decides from 1e-12 on, as for the scalar Plane
    normals = np.array([[lead, -0.6, 0.8] for lead in (-1e-12, -1.0000001e-12, 1e-11, -1e-11, -0.0, 1e-300)])
    rows = _plane_rows(normals, np.full(len(normals), -1.5))
    planes = [oracles.Plane(tuple(n), -1.5) for n in normals]
    assert rows.tobytes() == np.array([(*pl.normal, pl.offset) for pl in planes]).tobytes()
    assert (rows[:2, 1] > 0).all() and (rows[2:4, 0] > 0).all()
    for normal in ([0.0, 0.0, 0.0], [np.nan, 0.0, 1.0], [np.inf, 0.0, 0.0]):
        with pytest.raises(ParameterError, match="^plane normal must be a nonzero vector$"):
            _plane_rows(np.array([normal]), np.array([1.0]))


def test_coplanarity_square():
    pts = np.array([[0, 0, 1.0], [1, 0, 1.0], [1, 1, 1.0], [0, 1, 1.0]])
    row, resid = oracles.plane_row(pts)
    assert resid < 1e-12
    assert np.allclose(row, (0, 0, 1, 1))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_coplanarity_refuses_a_non_finite_point(bad):
    pts = np.array([[0, 0, 1.0], [1, 0, 1.0], [1, 1, 1.0], [0, 1, 1.0]])
    pts[2, 0] = bad
    with pytest.raises(ParameterError, match="^plane fit needs finite points$"):
        oracles.plane_row(pts)


def test_coplanarity_tetrahedron_vertices_far_from_flat():
    _, resid = oracles.plane_row(reference_coordinates("tetrahedron"))
    assert resid > 0.1


def test_coplanarity_rejects_collinear():
    pts = np.array([[0, 0, 0], [1, 1, 1], [2, 2, 2.0]])
    with pytest.raises(DegeneracyError):
        oracles.plane_row(pts)


def test_admissibility_reports():
    """The octahedron's neighbourhoods are coplanar but two span one plane,
    which the refusal names; every other polytope gives one plane row per
    vertex, its neighbourhood on it."""
    text = "octahedron: not admissible: vertices 0 and 5 span the same plane"
    with pytest.raises(AdmissibilityError, match=f"^{text}$") as exc:
        _neighbourhood_planes(polytope_data("octahedron"))
    assert exc.value.pair == (0, 5)

    for name in ("tetrahedron", "cube", "dodecahedron", "icosahedron", "cuboctahedron"):
        p = polytope_data(name)
        assert _neighbourhood_planes(p).shape == (p.graph.order, 4), name
        assert point_plane_vconstruct(p).max_residual < 1e-9


def test_point_plane_vconstruct_dodecahedron():
    p = polytope_data("dodecahedron")
    ppc = point_plane_vconstruct(p)
    assert len(ppc.planes) == 20
    assert ppc.max_residual < 1e-12
    blocks = tuple(
        tuple(sorted(u for (u, b) in ppc.incidence if b == j))
        for j in range(len(ppc.planes))
    )
    assert sorted(blocks) == sorted(v_construct(p.graph).blocks)
    for i in range(len(ppc.planes)):
        for j in range(i + 1, len(ppc.planes)):
            assert np.max(np.abs(ppc.planes[i] - ppc.planes[j])) > 1e-7


def test_point_plane_vconstruct_octahedron_rejected():
    with pytest.raises(AdmissibilityError) as exc:
        point_plane_vconstruct(polytope_data("octahedron"))
    assert exc.value.pair == (0, 5)


def test_sphere_circles_cube():
    sc = sphere_circles(polytope_data("cube"))
    assert len(sc.circles) == 8
    assert sc.radius == pytest.approx(np.sqrt(3.0))
    assert sc.circles.shape == (8, 4)
    centers, radii = _circle_cuts(sc)
    for (u, j) in sc.incidence:
        pt = sc.points[u]
        assert abs(pt @ sc.circles[j, :3] - sc.circles[j, 3]) < 1e-12
        assert abs(np.linalg.norm(pt - centers[j]) - radii[j]) < 1e-12


def test_sphere_circles_refuse_a_vertex_off_the_sphere():
    # every neighbourhood of the dodecahedron is three points, so moving a
    # vertex outward keeps the planes and leaves only the sphere to catch it
    p = polytope_data("dodecahedron")
    coords = p.coords.copy()
    coords[0] *= 1.05
    moved = PolytopeSkeleton("dodecahedron", p.graph, coords)
    assert point_plane_vconstruct(moved).max_residual < 1e-12
    text = r"^vertex 0 misses the circumsphere \(1.81\d* from the centre, radius 1.7"
    with pytest.raises(DegeneracyError, match=text):
        sphere_circles(moved)
    # polytope_data's bound: 1e-9 of the radius
    coords[0] = p.coords[0] * (1 + 2e-9)
    with pytest.raises(DegeneracyError, match="^vertex 0 misses the circumsphere"):
        sphere_circles(PolytopeSkeleton("dodecahedron", p.graph, coords))
    coords[0] = p.coords[0] * (1 + 5e-10)
    assert sphere_circles(PolytopeSkeleton("dodecahedron", p.graph, coords)).radius > 1.7


def test_sphere_circles_on_a_sphere_not_centred_at_the_vertex_mean():
    # a pentagonal pyramid on the unit sphere: its apex pulls the vertex mean
    # off the centre, so only the least-squares sphere holds every vertex
    h = -0.3
    ring = [(np.sqrt(1 - h * h) * np.cos(0.4 * np.pi * k), np.sqrt(1 - h * h) * np.sin(0.4 * np.pi * k), h)
            for k in range(5)]
    edges = [(k, (k + 1) % 5) for k in range(5)] + [(k, 5) for k in range(5)]
    sk = PolytopeSkeleton("pyramid", Graph(6, tuple(edges)), np.array(ring + [(0.0, 0.0, 1.0)]))
    assert np.allclose(np.linalg.norm(sk.coords, axis=1), 1.0)
    assert np.linalg.norm(sk.coords.mean(axis=0)) > 0.05
    sc = sphere_circles(sk)
    assert np.linalg.norm(sc.center) < 1e-12 and sc.radius == pytest.approx(1.0, abs=1e-12)
    centers, radii = _circle_cuts(sc)
    assert len(sc.incidence) == 2 * sk.graph.size
    for u, j in sc.incidence:
        pt = sc.points[u]
        assert abs(pt @ sc.circles[j, :3] - sc.circles[j, 3]) < 1e-12
        assert abs(np.linalg.norm(pt - centers[j]) - radii[j]) < 1e-12
    # a base vertex moved outward in the base plane fits no sphere and is refused
    coords = sk.coords.copy()
    coords[0, :2] *= 1 + 1e-6
    with pytest.raises(DegeneracyError, match="^vertex 0 misses the circumsphere"):
        sphere_circles(PolytopeSkeleton("pyramid", sk.graph, coords))


def test_skeleton_coordinates_must_be_finite():
    p = polytope_data("cube")
    coords = p.coords.copy()
    coords[3, 1] = np.nan
    with pytest.raises(ParameterError, match=r"^coordinate table must be a finite \(order, 3\) array$"):
        PolytopeSkeleton("cube", p.graph, coords)


def test_projection_preserves_cube_incidences():
    sc = sphere_circles(polytope_data("cube"))
    pcc, pole = stereographic_project(sc, seed=0)
    assert pcc.max_incidence_residual() < 1e-9
    c = incidence_of(pcc)
    assert classify(c).balanced_type == (8, 3)
    parts = decompose(c)
    assert [classify(q).balanced_type for q in parts] == [(4, 3), (4, 3)]


def test_projection_dodecahedron_classifies_self_polar():
    sc = sphere_circles(polytope_data("dodecahedron"))
    pcc, pole = stereographic_project(sc, seed=0)
    assert pcc.max_incidence_residual() < 1e-9
    text = classify(incidence_of(pcc), with_self_polar=True).describe()
    assert text == "(20_3), lineal, connected, self-polar"


def test_projection_pole_determinism():
    sc = sphere_circles(polytope_data("cube"))
    _, p0 = stereographic_project(sc, seed=0)
    _, p1 = stereographic_project(sc, seed=0)
    assert np.array_equal(p0, p1)


ADMISSIBLE = [name for name in POLYTOPE_NAMES if name != "octahedron"]


@pytest.mark.parametrize("seed", [0, 9])
@pytest.mark.parametrize("name", ADMISSIBLE)
def test_random_poles_are_drawn_only_past_a_blocked_antipode(monkeypatch, name, seed):
    """The antipode clears every admissible polytope, so no normal is drawn;
    with the antipode blocked, the lazy draw picks the pole that the eager
    draw of all 256 seeded normals, made before any candidate, picks."""
    sc = sphere_circles(polytope_data(name))
    with mock.patch.object(np.random, "default_rng", wraps=np.random.default_rng) as rngs:
        _, antipode = stereographic_project(sc, seed=seed)
    assert rngs.call_count == 0
    with pytest.raises(ParameterError):  # read before any candidate, though none is drawn
        stereographic_project(sc, seed=-1)
    clearance = spatial._pole_clearance

    def blocked(cfg, circles, pole):
        return 0.0 if np.array_equal(pole, antipode) else clearance(cfg, circles, pole)

    monkeypatch.setattr(spatial, "_pole_clearance", blocked)
    _, pole = stereographic_project(sc, seed=seed)
    draws = np.random.default_rng(seed).normal(size=(256, 3))
    eager = sc.center + sc.radius * draws / _row_norms(draws)[:, None]
    circles = (sc.circles[:, :3], *_circle_cuts(sc))
    want = next(c for c in eager if clearance(sc, circles, c) > 1e-3 * sc.radius)
    assert pole.tobytes() == want.tobytes()


def test_explicit_pole_validation():
    sc = sphere_circles(polytope_data("cube"))
    with pytest.raises(ParameterError):
        stereographic_project(sc, pole=(2.0, 0.0, 0.0))  # off the sphere
    with pytest.raises(PolePlacementError):
        stereographic_project(sc, pole=(1.0, 1.0, 1.0))  # sits on a vertex
    r = np.sqrt(3.0)
    pcc, pole = stereographic_project(sc, pole=(r, 0.0, 0.0))
    assert pcc.max_incidence_residual() < 1e-9
    assert np.allclose(pole, (r, 0.0, 0.0))


@pytest.mark.parametrize("pole", [(1.0, 0.0), (np.nan, 0.0, 0.0), (np.inf, 0.0, 0.0), 5])
def test_explicit_pole_must_be_a_finite_3_vector(pole):
    sc = sphere_circles(polytope_data("cube"))
    with pytest.raises(ParameterError, match=r"^explicit pole must be a finite 3-vector$"):
        stereographic_project(sc, pole=pole)


@pytest.mark.parametrize(
    "pole, entry",
    [
        (((1.0, 0.0, 0.0),), "(1.0, 0.0, 0.0) must be a number, not tuple"),
        ("pole", "'p' must be a number, not str"),
        ((1.0, "x", 0.0), "'x' must be a number, not str"),
        # points of the cube's sphere, spelled by entries no table takes
        (("1.7320508075688772", 0, 0), "'1.7320508075688772' must be a number, not str"),
        ((math.sqrt(3), False, 0), "False must be a number, not bool"),
        ((10**400, 0, 0), f"1{'0' * 400} is too large for a float"),
    ],
    ids=["row", "str", "str entry", "numeric str entry", "bool entry", "huge int entry"],
)
def test_explicit_pole_entries_are_read_by_the_table_rule(pole, entry):
    """An explicit pole is read as the sphere's centre is, so the first
    entry that is no number is named."""
    sc = sphere_circles(polytope_data("cube"))
    with pytest.raises(ParameterError, match=rf"^pole entry {re.escape(entry)}$"):
        stereographic_project(sc, pole=pole)


@pytest.mark.parametrize(
    "turn, refused",
    [(1e-8, True), (1e-10, False), (1e-6, True), (1e-9, True), (5e-10, False), (0.0, False)],
)
def test_projection_holds_incidences_to_the_incidence_tolerance(turn, refused):
    """A hand-built cube with vertex 0 turned off its circles about the z
    axis, still on the sphere: the drift reads about 1.225 times the turn,
    so against TOL_INCIDENCE = 1e-9 a turn of 1e-9 or more is refused and
    one of 5e-10 or less is kept."""
    sc = sphere_circles(polytope_data("cube"))
    c, s = math.cos(turn), math.sin(turn)
    points = sc.points.copy()
    points[0] = points[0] @ np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
    moved = SphericalCircleConfig(sc.center, sc.radius, points, sc.circles, sc.incidence)
    if refused:
        with pytest.raises(DegeneracyError, match=r"^projected incidences drift \(\S+\)$") as exc:
            stereographic_project(moved, seed=0)
        drift = float(str(exc.value)[len("projected incidences drift ("):-1])
        assert 1.2 * turn < drift < 1.25 * turn
    else:
        assert stereographic_project(moved, seed=0)[0].tols["incidence"] == TOL_INCIDENCE


# SHA-256 of the canonical JSON of each polytope's point-plane artifact, its
# spherical artifact and its flag-checked projections at seeds 0, 1 and 2; the
# octahedron's neighbourhood planes coincide, so its refusal text is pinned
SPATIAL_DIGESTS = {
    "tetrahedron": (
        "6b26f44c985f79197b8b0ed031e8e746d72bce87a15166098446ee5491ebf7ba",
        "999bcd6e0a1ec2fc227b01705a8ea4a57c6f7fd05b335e4dd49f40ce2a771979",
        ("5cf5e84e600258768b9d4b81b85699fd3d5ef3b7700aee9ee41c0a6cbed0a5ce",) * 3,
    ),
    "cube": (
        "ec6e3fd2082729f8618c5263d55403541deae5200b2e7e1f2b5ab07a11e5d3b7",
        "75aef7a3f84070ad7b5f293abaa287d7c31a6d77d58557c040ecfaf1d85d8d24",
        ("39cff2daf75e55b49a92d41a7d84fca11abe49516ff28777a45efbd9a02a8378",) * 3,
    ),
    "octahedron": "octahedron: not admissible: vertices 0 and 5 span the same plane",
    "dodecahedron": (
        "df6f3994dee0e893eed43d349f05a4df40e9cb6179259414998e09e8b14e74f6",
        "16e9ed1c74f149b07b652f02894575ec07c7f7d446e92de3b9e1f3be4c4dd841",
        ("04908efa5401a8cd086b73bcce59b5008b154ea2ecb6d5c708aad62496c9ca79",) * 3,
    ),
    "icosahedron": (
        "2ecdb2fc802aec208ba447d4bc0b649a24167d0629ce8e7d63066f2c432ce02c",
        "5e5ba636b79d00fc4deed50333074b77d4ec05ba8f1e4bc88b02f9852f076a49",
        ("428954667374554808d1ff9ba5a5d65580d9d350bc31c085e1adc9924bb710ef",) * 3,
    ),
    "cuboctahedron": (
        "d32e55d18e4ac94ab7a9cfcc10918831f0369bd57069d18739f53a33e1cacee4",
        "980a0ef92f9c0912a53f4b12887c8f41bab633319a367b3da7e8f2f0c762a603",
        ("d4f42e86d916845fccfa23f3383c665b8964a1dd38c6f1ea7e7720a813b338b5",) * 3,
    ),
}


@pytest.mark.parametrize("name", POLYTOPE_NAMES)
def test_spatial_artifact_bytes_pinned(name):
    def digest(obj):
        return hashlib.sha256(jsonio.dumps(obj).encode()).hexdigest()

    p = polytope_data(name)
    if isinstance(SPATIAL_DIGESTS[name], str):
        with pytest.raises(AdmissibilityError) as exc:
            point_plane_vconstruct(p)
        assert str(exc.value) == SPATIAL_DIGESTS[name]
        return
    sc = sphere_circles(p)
    projections = tuple(
        digest(jsonio.pcc_to_obj(check_flags(stereographic_project(sc, seed=seed)[0]))) for seed in range(3)
    )
    planes = digest(jsonio.pointplane_to_obj(point_plane_vconstruct(p)))
    assert (planes, digest(jsonio.spherical_to_obj(sc)), projections) == SPATIAL_DIGESTS[name]
