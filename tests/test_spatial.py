import numpy as np
import pytest

from confviz import (
    AdmissibilityError,
    DegeneracyError,
    POLYTOPE_NAMES,
    ParameterError,
    Plane,
    PolePlacementError,
    admissible_polytope,
    classify,
    coplanarity,
    decompose,
    incidence_of,
    isomorphic,
    line_graph,
    point_plane_vconstruct,
    polytope_data,
    sphere_circles,
    stereographic_project,
    v_construct,
)
from confviz.graphs import complete_graph, gen_cuboctahedron_graph, generalized_petersen_graph
from confviz.spatial import reference_coordinates

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
    a = Plane((0.0, 0.0, 2.0), 4.0)
    b = Plane((0.0, 0.0, -1.0), -2.0)
    assert a.close_to(b, 1e-12)
    assert np.allclose(a.normal, (0.0, 0.0, 1.0))
    assert a.offset == pytest.approx(2.0)


def test_coplanarity_square():
    pts = np.array([[0, 0, 1.0], [1, 0, 1.0], [1, 1, 1.0], [0, 1, 1.0]])
    plane, resid = coplanarity(pts)
    assert resid < 1e-12
    assert np.allclose(np.abs(plane.normal), (0, 0, 1))


def test_coplanarity_tetrahedron_vertices_far_from_flat():
    _, resid = coplanarity(reference_coordinates("tetrahedron"))
    assert resid > 0.1


def test_coplanarity_rejects_collinear():
    pts = np.array([[0, 0, 0], [1, 1, 1], [2, 2, 2.0]])
    with pytest.raises(DegeneracyError):
        coplanarity(pts)


def test_admissibility_reports():
    rep = admissible_polytope(polytope_data("octahedron"))
    assert not rep.admissible
    assert rep.coplanar
    assert not rep.planes_distinct
    assert rep.coincident_pair == (0, 5)
    assert "span the same plane" in rep.describe()

    for name in ("tetrahedron", "cube", "dodecahedron", "icosahedron", "cuboctahedron"):
        rep = admissible_polytope(polytope_data(name))
        assert rep.admissible, name
        assert rep.max_residual < 1e-9


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
            assert not ppc.planes[i].close_to(ppc.planes[j], 1e-7)


def test_point_plane_vconstruct_octahedron_rejected():
    with pytest.raises(AdmissibilityError) as exc:
        point_plane_vconstruct(polytope_data("octahedron"))
    assert exc.value.pair == (0, 5)


def test_sphere_circles_cube():
    sc = sphere_circles(polytope_data("cube"))
    assert len(sc.circles) == 8
    assert sc.radius == pytest.approx(np.sqrt(3.0))
    for (u, j) in sc.incidence:
        pt = sc.points[u]
        circ = sc.circles[j]
        assert abs(circ.plane.signed_distance(pt[None, :])[0]) < 1e-12
        assert abs(np.linalg.norm(pt - np.asarray(circ.center)) - circ.radius) < 1e-12


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


@pytest.mark.parametrize(
    "pole", [(1.0, 0.0), (np.nan, 0.0, 0.0), (np.inf, 0.0, 0.0), ((1.0, 0.0, 0.0),), "pole", (1.0, "x", 0.0)]
)
def test_explicit_pole_must_be_a_finite_3_vector(pole):
    sc = sphere_circles(polytope_data("cube"))
    with pytest.raises(ParameterError, match=r"^explicit pole must be a finite 3-vector$"):
        stereographic_project(sc, pole=pole)
