import math

import numpy as np
import pytest

from confviz import (
    Circle,
    DegeneracyError,
    ParameterError,
    PointCircleConfig,
    SamplingError,
    TOL_INCIDENCE,
    check_flags,
    circles_from_layout,
    fano_plane,
    incidence_of,
    invert_pointline,
    layout_gen_cuboctahedron,
    layout_hypercube,
    pappus_structure,
    realize_n3,
    solve_unit_distance,
)
from confviz.graphs import petersen_graph
from confviz.incidence import IncidenceStructure
from confviz.pappus import derive_pappus_points
from confviz.realization import _meet_points, sorted_center_distances

from oracles import circle_pair_intersections


def petersen_config():
    lay, _ = solve_unit_distance(petersen_graph(), symmetry=5, seed=0)
    return circles_from_layout(lay, TOL_INCIDENCE)


def test_petersen_config_is_perfect():
    cfg = check_flags(petersen_config())
    assert cfg.flags == {
        "proper": True,
        "isometric": True,
        "lineal": True,
        "determining": True,
        "perfect": True,
        "degenerate": False,
    }


def test_hypercube7_is_proper_and_determining():
    flags = check_flags(circles_from_layout(layout_hypercube(7, seed=0))).flags
    assert flags["proper"] and flags["determining"]


def test_co6_is_not_determining():
    # the six inner-vertex circles all pass through the centre, a meet
    # point that is not a configuration point
    flags = check_flags(circles_from_layout(layout_gen_cuboctahedron(6))).flags
    assert flags["proper"] and not flags["determining"]


def test_single_circle_is_improper():
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    cfg = PointCircleConfig(
        points=pts,
        circles=(Circle(0.0, 0.0, 1.0),),
        incidence=((0, 0), (1, 0), (2, 0)),
        flags={},
        tols={},
    )
    assert not check_flags(cfg).flags["proper"]


def test_isometric_spread():
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [4.5, 3.0], [3.0, 4.5], [1.5, 3.0]])
    cfg = PointCircleConfig(
        points=pts,
        circles=(Circle(0, 0, 1.0), Circle(3.0, 3.0, 1.5)),
        incidence=((0, 0), (1, 0), (2, 0), (3, 1), (4, 1), (5, 1)),
        flags={},
        tols={},
    )
    assert not check_flags(cfg).flags["isometric"]


def test_lineal_fails_when_circles_share_two_points():
    # two unit circles through both (0.5, +-h)
    h = math.sqrt(3) / 2
    pts = np.array([[0.5, h], [0.5, -h], [-1.0, 0.0], [2.0, 0.0]])
    cfg = PointCircleConfig(
        points=pts,
        circles=(Circle(0, 0, 1.0), Circle(1.0, 0.0, 1.0)),
        incidence=((0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (3, 1)),
        flags={},
        tols={},
    )
    assert not check_flags(cfg).flags["lineal"]


def test_degenerate_coincident_points():
    pts = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
    cfg = PointCircleConfig(
        points=pts,
        circles=(Circle(0.0, 0.0, 1.0),),
        incidence=((0, 0), (1, 0), (2, 0)),
        flags={},
        tols={},
    )
    out = check_flags(cfg)
    assert out.flags["degenerate"]
    assert not out.flags["determining"]
    assert not out.flags["perfect"]


@pytest.mark.parametrize(
    "b,count",
    [
        (Circle(1.0, 0.0, 1.0), 2),
        (Circle(0.3, -0.7, 0.9), 2),
        (Circle(2.0, 0.0, 1.0), 1),  # tangent
        (Circle(5.0, 0.0, 1.0), 0),  # disjoint
        (Circle(0.0, 0.0, 0.3), 0),  # concentric
    ],
)
def test_meet_points_of_one_pair(b, count):
    a = Circle(0.0, 0.0, 1.0)
    x, y = _meet_points(np.array([a.cx, b.cx]), np.array([a.cy, b.cy]), np.array([a.r, b.r]), 1e-7)
    assert len(x) == count
    scalar = circle_pair_intersections(a, b, 1e-7)
    assert np.column_stack([x, y]).tobytes() == np.array(scalar).reshape(-1, 2).tobytes()
    if count == 1:
        assert (x[0], y[0]) == (1.0, 0.0)


def test_realize_n3_fano():
    cfg = realize_n3(fano_plane(), seed=0)
    assert len(cfg.circles) == 7
    assert cfg.max_incidence_residual() < 1e-9


def test_realize_n3_pappus():
    cfg = realize_n3(pappus_structure(), seed=0)
    assert len(cfg.circles) == 9
    assert cfg.max_incidence_residual() < 1e-9


def test_realize_n3_seed_changes_points():
    a = realize_n3(fano_plane(), seed=0)
    b = realize_n3(fano_plane(), seed=1)
    assert not np.allclose(a.points, b.points)


def test_realize_n3_rejects_other_block_sizes():
    with pytest.raises(ParameterError):
        realize_n3(IncidenceStructure(4, ((0, 1, 2, 3),)), seed=0)


def test_invert_pappus_pointline():
    pts = np.array(derive_pappus_points())
    lines = pappus_structure().blocks
    cfg = check_flags(invert_pointline(pts, lines, center=(0.4, 0.37)))
    assert cfg.max_incidence_residual() < 1e-9
    assert not cfg.flags["proper"]
    assert not cfg.flags["determining"]
    assert cfg.flags["lineal"]


def test_invert_center_on_line_rejected():
    pts = np.array(derive_pappus_points())
    lines = pappus_structure().blocks
    with pytest.raises(ParameterError):
        invert_pointline(pts, lines, center=(0.5, 0.0))  # on the first carrier line
    with pytest.raises(ParameterError):
        invert_pointline(pts, lines, center=tuple(pts[4]))


def test_invert_radius_rescales_but_flags_agree():
    pts = np.array(derive_pappus_points())
    lines = pappus_structure().blocks
    a = check_flags(invert_pointline(pts, lines, center=(0.4, 0.37), radius=1.0))
    b = check_flags(invert_pointline(pts, lines, center=(0.4, 0.37), radius=2.5))
    assert a.flags == b.flags
    ra = sorted(c.r for c in a.circles)
    rb = sorted(c.r for c in b.circles)
    assert np.allclose(np.array(rb) / np.array(ra), 2.5**2)


def test_invert_concurrent_lines_share_image_point():
    # three lines through (0, 2), inverted about the origin
    pts = np.array([
        [-1.0, 1.0], [1.0, 3.0],
        [1.0, 1.0], [-1.0, 3.0],
        [-2.0, 2.0], [2.0, 2.0],
    ])
    lines = ((0, 1), (2, 3), (4, 5))
    cfg = check_flags(invert_pointline(pts, lines, center=(0.0, 0.0)))
    assert not cfg.flags["proper"]
    common = np.array([0.0, 2.0]) / 4.0  # image of the concurrence point
    for c in cfg.circles:
        assert abs(np.linalg.norm(np.asarray(c.center) - common) - c.r) < 1e-9


def test_sorted_center_distances_shape():
    cfg = petersen_config()
    d = sorted_center_distances(cfg)
    assert len(d) == 45
    assert all(d[i] <= d[i + 1] for i in range(len(d) - 1))


def test_incidence_residual_reflects_bad_record():
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    cfg = PointCircleConfig(
        points=pts,
        circles=(Circle(0.0, 0.0, 1.0),),
        incidence=((0, 0), (1, 0), (2, 0)),
        flags={},
        tols={},
    )
    assert cfg.max_incidence_residual() > 0.29
