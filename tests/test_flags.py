import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confviz import (
    DegeneracyError,
    ParameterError,
    PointCircleConfig,
    SamplingError,
    TOL_INCIDENCE,
    build_family,
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
    v_construct,
)
from confviz import realization
from confviz.graphs import petersen_graph
from confviz.incidence import IncidenceStructure
from confviz.pappus import derive_pappus_points
from confviz.realization import _meet_points

from oracles import Circle, circle_pair_intersections


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


@pytest.mark.parametrize("scale", [1e160, 1e300])
def test_flags_of_a_picture_too_large_to_square_are_those_at_scale_one(scale):
    # a distance past about 1e154 overflows when squared; check_flags scales
    # such a picture down exactly, so it reads the flags of the unit picture
    cfg = circles_from_layout(layout_hypercube(3), TOL_INCIDENCE)
    large = PointCircleConfig(cfg.points * scale, cfg.circles.view(float).reshape(-1, 3) * scale, cfg.incidence,
                              tols={k: v * scale for k, v in cfg.tols.items()})
    assert check_flags(cfg).flags["determining"]
    assert check_flags(large).flags == check_flags(cfg).flags


def test_co6_is_not_determining():
    # the six inner-vertex circles all pass through the centre, a meet
    # point that is not a configuration point
    flags = check_flags(circles_from_layout(layout_gen_cuboctahedron(6))).flags
    assert flags["proper"] and not flags["determining"]


def test_single_circle_is_improper():
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    cfg = PointCircleConfig(
        points=pts,
        circles=((0.0, 0.0, 1.0),),
        incidence=((0, 0), (1, 0), (2, 0)),
        flags={},
        tols={},
    )
    assert not check_flags(cfg).flags["proper"]


def test_isometric_spread():
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [4.5, 3.0], [3.0, 4.5], [1.5, 3.0]])
    cfg = PointCircleConfig(
        points=pts,
        circles=((0, 0, 1.0), (3.0, 3.0, 1.5)),
        incidence=((0, 0), (1, 0), (2, 0), (3, 1), (4, 1), (5, 1)),
        flags={},
        tols={},
    )
    assert not check_flags(cfg).flags["isometric"]


def test_isometric_reads_only_the_incidence_tolerance():
    # radii 1 and 1 + 1e-6: equal within a loose incidence tolerance only;
    # a radius_spread entry in tols is carried along but not read
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [4.000001, 3.0], [3.0, 4.000001], [1.999999, 3.0]])
    circles = ((0, 0, 1.0), (3.0, 3.0, 1.000001))
    incidence = ((0, 0), (1, 0), (2, 0), (3, 1), (4, 1), (5, 1))
    for tols, isometric in (
        ({"incidence": 1e-9, "radius_spread": 1.0}, False),
        ({"incidence": 1e-5, "radius_spread": 1e-12}, True),
    ):
        cfg = check_flags(PointCircleConfig(pts, circles, incidence, flags={}, tols=tols))
        assert cfg.flags["isometric"] is isometric
        assert cfg.tols == tols


def test_lineal_fails_when_circles_share_two_points():
    # two unit circles through both (0.5, +-h)
    h = math.sqrt(3) / 2
    pts = np.array([[0.5, h], [0.5, -h], [-1.0, 0.0], [2.0, 0.0]])
    cfg = PointCircleConfig(
        points=pts,
        circles=((0, 0, 1.0), (1.0, 0.0, 1.0)),
        incidence=((0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (3, 1)),
        flags={},
        tols={},
    )
    assert not check_flags(cfg).flags["lineal"]


def test_degenerate_coincident_points():
    pts = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
    cfg = PointCircleConfig(
        points=pts,
        circles=((0.0, 0.0, 1.0),),
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
    x, y, lead = _meet_points(np.array([a.cx, b.cx]), np.array([a.cy, b.cy]), np.array([a.r, b.r]), 1e-7)
    assert len(x) == lead == count
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


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize(
    "family",
    [("pappus",), ("dodecahedron",), ("desargues",), ("gen_petersen", 25, 2)],
    ids=["pappus", "dodecahedron", "desargues", "GP(25,2)"],
)
def test_realize_n3_v_constructions(family, seed):
    c = v_construct(build_family(*family))
    cfg = realize_n3(c, seed=seed)
    assert incidence_of(cfg).blocks == c.blocks
    flags = check_flags(cfg).flags
    assert flags["lineal"] and flags["determining"]
    assert cfg.max_incidence_residual() < 1e-9


@st.composite
def triple_systems(draw):
    """Random sets of distinct 3-point blocks over 5-16 points."""
    n = draw(st.integers(5, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(n, 3 * n))
    blocks = {tuple(sorted(rng.choice(n, 3, replace=False).tolist())) for _ in range(count)}
    return IncidenceStructure(n, tuple(blocks))


@settings(max_examples=40, deadline=None)
@given(triple_systems(), st.integers(0, 2**16))
def test_realize_n3_draws_read_back(c, seed):
    try:
        cfg = realize_n3(c, seed=seed)
    except SamplingError:
        return
    assert incidence_of(cfg).blocks == c.blocks
    # a point on fewer than three circles is no meet point of three, and no
    # meet point of three lies off the configuration
    assert check_flags(cfg).flags["determining"] == (min(c.point_degrees()) >= 3)


def test_realize_n3_sampling_error_counts_rejections(monkeypatch):
    monkeypatch.setattr(realization, "_RESAMPLE_BUDGET", 1)
    with pytest.raises(SamplingError) as info:
        realize_n3(v_construct(build_family("pappus")), seed=2)
    err = info.value
    assert (err.seed, err.attempts) == (2, 1)
    assert err.rejections == {
        "separation": 0,
        "collinear_block": 0,
        "foreign_point": 1,
        "stray_meet_point": 0,
    }
    assert str(err) == "no draw accepted in 1 attempts (foreign_point 1)"


def test_realize_n3_counts_stray_meet_points(monkeypatch):
    # random draws put three circles through a point off the configuration
    # with probability zero, so the meet-point test is made to report one
    monkeypatch.setattr(realization, "_RESAMPLE_BUDGET", 1)
    monkeypatch.setattr(realization, "_meet_census", lambda *args, **tols: (None, None))
    with pytest.raises(SamplingError) as info:
        realize_n3(fano_plane(), seed=0)
    assert info.value.rejections["stray_meet_point"] == 1
    assert str(info.value) == "no draw accepted in 1 attempts (stray_meet_point 1)"


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


def test_pappus_points_keep_their_bits():
    # the construction's exact doubles, which `confviz invert pappus` writes
    assert [list(p) for p in derive_pappus_points()] == [
        [0.0, 0.0],
        [1.0, 0.0],
        [2.7, 0.0],
        [0.15, 1.0],
        [1.3499999999999999, 1.264],
        [2.25, 1.462],
        [0.556838805477644, 0.5213661112027719],
        [1.01620916344658, 0.6603101319817334],
        [1.755831949798801, 0.8840210484846778],
    ]


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
        assert abs(np.linalg.norm((c.cx - common[0], c.cy - common[1])) - c.r) < 1e-9


def test_incidence_residual_reflects_bad_record():
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    cfg = PointCircleConfig(
        points=pts,
        circles=((0.0, 0.0, 1.0),),
        incidence=((0, 0), (1, 0), (2, 0)),
        flags={},
        tols={},
    )
    assert cfg.max_incidence_residual() > 0.29
