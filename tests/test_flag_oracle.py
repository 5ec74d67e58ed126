"""The array flag check against the scalar loops it replaced."""

import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confviz import (
    POLYTOPE_NAMES,
    Layout,
    PointCircleConfig,
    build_family,
    check_flags,
    circles_from_layout,
    fano_plane,
    invert_pointline,
    layout_gen_cuboctahedron,
    layout_hypercube,
    layout_polygon,
    pappus_structure,
    polytope_data,
    realize_n3,
    sphere_circles,
    stereographic_project,
    v_construct,
)
from confviz import realization
from confviz.pappus import derive_pappus_points
from confviz.realization import (
    _cell_width,
    _cluster,
    _meet_points,
    _through_counts,
    _triple_point_hits,
    tol_record,
)

import oracles


def columns(cfg):
    """cx, cy and r of cfg's circle table, as the strided views check_flags reads."""
    return cfg.circles["cx"], cfg.circles["cy"], cfg.circles["r"]


def assert_same_as_oracle(cfg, compare_clusters=False):
    """Equal flags and bit-equal meet points; optionally bit-equal cluster
    centroids too, which costs a second scalar clustering."""
    assert check_flags(cfg).flags == oracles.check_flags(cfg).flags
    tol = cfg.tols.get("cluster", 1e-7)
    x, y = _meet_points(*columns(cfg), tol)
    meets = oracles.meet_points(oracles.circles_of(cfg), tol)
    assert np.array_equal(np.column_stack([x, y]), np.array(meets).reshape(-1, 2))
    if compare_clusters:
        mx, my = _cluster(x, y, tol)
        want = np.array(oracles._cluster(meets, tol)).reshape(-1, 2)
        assert np.array_equal(np.column_stack([mx, my]), want)


def _projection(name):
    cfg, _ = stereographic_project(sphere_circles(polytope_data(name)), seed=0)
    return cfg


def _near_tangent():
    """Unit circles A and B cross at the origin P at angle 0.1. C, centred
    at (0, -1.1) with radius 1.1 + 5e-8, holds A inside it and passes 5e-8
    above P, within max(incidence, cluster) = 1e-7. C crosses B about 5e-7
    from P, outside P's cluster, so no meet point of C lies in that cluster:
    only a count over every circle makes P a triple point."""
    circles = ((0.0, -1.0, 1.0), (math.sin(0.1), -math.cos(0.1), 1.0), (0.0, -1.1, 1.1 + 5e-8))
    return PointCircleConfig(np.zeros((1, 2)), circles, ((0, 0), (0, 1)), {}, tol_record())


FIXTURES = {
    **{f"hypercube({d})": lambda d=d: circles_from_layout(layout_hypercube(d, seed=0)) for d in range(3, 7)},
    **{f"CO({n})": lambda n=n: circles_from_layout(layout_gen_cuboctahedron(n)) for n in range(5, 41)},
    **{
        f"polygon({n})": lambda n=n: circles_from_layout(layout_polygon(n), allow_degree_two=True)
        for n in range(5, 65)
    },
    # the octahedron's antipodal vertices share a neighbourhood plane: no circles
    **{
        f"project({name})": lambda name=name: _projection(name)
        for name in POLYTOPE_NAMES
        if name != "octahedron"
    },
    "near_tangent": _near_tangent,
    "invert(pappus)": lambda: invert_pointline(
        np.array(derive_pappus_points()), pappus_structure().blocks, center=(0.4, 0.37)
    ),
    **{
        f"realize_n3({name}, seed={seed})": lambda c=c, seed=seed: realize_n3(c, seed=seed)
        for name, c in (
            ("fano", fano_plane()),
            ("pappus", pappus_structure()),
            ("v_construct(petersen)", v_construct(build_family("petersen"))),
        )
        for seed in range(3)
    },
}


_CUBE_FLAGS = {
    "proper": True,
    "isometric": True,
    "lineal": False,
    "determining": True,
    "perfect": False,
    "degenerate": False,
}
_CO_FLAGS = {**_CUBE_FLAGS, "isometric": False}
# The scalar oracle's flags and the SHA-256 of its meet-point bytes and of
# its cluster centroids' bytes on the largest fixtures, captured from
# oracles.check_flags, oracles.meet_points and oracles._cluster: the live
# oracle takes 1-3 s on each of these, and the array path matched it bit for
# bit on them before they were frozen.
FROZEN = {
    "hypercube(6)": (
        _CUBE_FLAGS,
        "5fa3aab6dda283768648bf9f2b6f115fee4a97167a0a521e1b0b145f82994017",
        "6286e0be914a384960695275d02b8c8405c551cc943f84d7c7a33e5c054bf463",
    ),
    "CO(27)": (
        _CO_FLAGS,
        "08b7b9ea3e22cbc5bc72b5f5cf37b94c5408fafd484010c85974ba960e4bf7c8",
        "2e39a55b4404838aff86141096a98742229e65cd95acdab4e1466d89ef03fed6",
    ),
    "CO(28)": (
        _CO_FLAGS,
        "c37a9c7bb1371550f4498fc87e193aec4d448d6b18a0c69bbfa227a2b78706d8",
        "f0d6afc95af153d427e0f2ad303925b9da7af97bb7aa37bce2296add99fec56c",
    ),
    "CO(29)": (
        _CO_FLAGS,
        "2d33474988769c4ed42f21b7057727d93370e280c59aae4667244a88574aa07c",
        "d3b477c47c90b754b817743b2ed4e2a3f49e97b44738d5fde2100567c8b9b7d2",
    ),
    "CO(30)": (
        _CO_FLAGS,
        "9cec8e9dbaf34da6f3f2383ed9048493bd378ba32216958a511ef299eeaba04e",
        "017f3840644dfcbc7d9e5a4c26e15380424bf7c9459d9742936a1a80667a6ae3",
    ),
    "CO(31)": (
        _CO_FLAGS,
        "a14bb00b4940d674b054cb6a2196b43e3ad22ba22e07a6867cb180b54791122f",
        "f8e009cac461faa47450721620f8d63e0e2aeb2d37f62eff5d70fb505b0ed049",
    ),
    "CO(32)": (
        _CO_FLAGS,
        "826ff748f275e947037cb892327e12018bc46c04c876bed4ea6810e5b0e67021",
        "90a4a9013b93b4f90b90c34d48cdd8ef71b3eb7ea0e374f7a4c630253adbfe14",
    ),
    "CO(33)": (
        _CO_FLAGS,
        "5bd6951772bb68d1d694ae0dfa3288a0d5a8c9dda19e8245d93c465949df608d",
        "297e9e1c8279288ec2fe73c56d7045489cf89d5c1e1cd5d2fd61587deea26389",
    ),
    "CO(34)": (
        _CO_FLAGS,
        "d4892a3e84e16985d267b68ce6acbea1a0ba9c349f56f5f3934bc5354661fe6c",
        "5a932e061cc162b1edbbda1f18ce59f4cc1b4f427e65562093f63e2f97767066",
    ),
    "CO(35)": (
        _CO_FLAGS,
        "8b6fea7a4b8754d3bad74679cfc00430692b2e935c6d21903de0e93cd5d7ea74",
        "3f7c21a127fca642b5398ad2d308ef8b2f41c51a75d6921d0d4c396dc4ea3226",
    ),
    "CO(36)": (
        _CO_FLAGS,
        "5e3be3cf6760e053c85e7e65d1b231b55438a827be0bd806c8f4140b4a81a259",
        "172e06dff4f7790c83d85534693e6509edb3052db607347db41b4dc72b932e18",
    ),
    "CO(37)": (
        _CO_FLAGS,
        "61c42aa4b3ec6913ece0de6ac67c4b15460460ef9a128e13711d5c2d4d17e547",
        "afea0c6e4a6bd6b4cf6d8d562de3212002aec6bb42af60672beb5089c8ecfee2",
    ),
    "CO(38)": (
        _CO_FLAGS,
        "71b97cc66f90bd907074babcd983cb0532085022d11ca5ac04d277a199267b6e",
        "f1e38c939da0091e6b58589f2a78cca7ab85c905d8dcd0dcde89028a87c0aa7b",
    ),
    "CO(39)": (
        _CO_FLAGS,
        "16b3f318c2544474840b4c2ddd3668f239438ac014cf07f96a709058a34f99ac",
        "d001e887f39692c0e30ff185a262372f9616d2d9e8ee34fc1315c022774e4cf5",
    ),
    "CO(40)": (
        _CO_FLAGS,
        "03aa6dfd8cf6e989c80bd2efbfff6d5f22cbdb3b9bf2505ef73fbc37457b56f0",
        "094436a1bf72e39e3d4b1d935b286a65ae974ef74560a19a054112bb95068199",
    ),
}


# The digests were taken on the circles of the per-vertex least-squares fit,
# so the frozen fixtures take their circles from the oracle that keeps it;
# the circumcircle pass's own circles must give the same flags.
FROZEN_LAYOUTS = {
    "hypercube(6)": lambda: layout_hypercube(6, seed=0),
    **{f"CO({n})": lambda n=n: layout_gen_cuboctahedron(n) for n in range(27, 41)},
}


def _sha256(x, y):
    return hashlib.sha256(np.column_stack([x, y]).tobytes()).hexdigest()


@pytest.mark.parametrize("name", list(FIXTURES))
def test_flags_match_scalar_oracle(name):
    if name not in FROZEN:
        assert_same_as_oracle(FIXTURES[name](), compare_clusters=True)
        return
    flags, meet_digest, cluster_digest = FROZEN[name]
    cfg = oracles.circles_from_layout(FROZEN_LAYOUTS[name]())
    assert check_flags(cfg).flags == flags
    tol = cfg.tols.get("cluster", 1e-7)
    x, y = _meet_points(*columns(cfg), tol)
    assert _sha256(x, y) == meet_digest
    assert _sha256(*_cluster(x, y, tol)) == cluster_digest
    assert check_flags(FIXTURES[name]()).flags == flags


def test_near_tangent_circle_counts_through_a_meet_point():
    cfg = _near_tangent()
    cx, cy, r = columns(cfg)
    circles = oracles.circles_of(cfg)
    tols = tol_record()
    t = max(tols["incidence"], tols["cluster"])
    # C passes within t of P but meets neither A nor B within the cluster
    # tolerance of it
    assert abs(math.hypot(cx[2], cy[2]) - r[2]) <= t
    for other in circles[:2]:
        for meet in oracles.circle_pair_intersections(circles[2], other):
            assert math.hypot(*meet) > 4.0 * tols["cluster"]
    got = _triple_point_hits(cx, cy, r, cfg.points, **tols)
    assert got is not None and got.tolist() == [True]
    assert np.array_equal(got, oracles.triple_point_hits(cx, cy, r, cfg.points, **tols))
    assert check_flags(cfg).flags["determining"]


def _similar(layout, angle, scale, shift):
    c, s = math.cos(angle), math.sin(angle)
    pos = scale * layout.pos @ np.array([[c, -s], [s, c]]).T + np.asarray(shift)
    return Layout(layout.graph, pos, {})


@st.composite
def perturbed_configs(draw):
    """Seeded hypercube, CO or polygon layouts under a random similarity,
    with CO radii and some circle radii moved by at least 1e-5, a hundred
    times the cluster tolerance."""
    kind = draw(st.sampled_from(["hypercube", "CO", "polygon"]))
    nudge = st.floats(1e-5, 1e-2).flatmap(lambda v: st.sampled_from([v, -v]))
    if kind == "hypercube":
        layout = layout_hypercube(draw(st.integers(3, 4)), seed=draw(st.integers(0, 2**16)))
    elif kind == "CO":
        layout = layout_gen_cuboctahedron(draw(st.integers(5, 12)), 2.0 + draw(nudge), 1.0 + draw(nudge))
    else:
        layout = layout_polygon(draw(st.integers(5, 24)))
    layout = _similar(
        layout,
        draw(st.floats(0.0, 2.0 * math.pi)),
        draw(st.floats(0.1, 10.0)),
        (draw(st.floats(-5.0, 5.0)), draw(st.floats(-5.0, 5.0))),
    )
    cfg = circles_from_layout(layout, allow_degree_two=kind == "polygon")
    moved = draw(st.lists(st.integers(0, len(cfg.circles) - 1), max_size=3, unique=True))
    circles = tuple(
        (c.cx, c.cy, c.r + draw(nudge)) if k in moved else c for k, c in enumerate(cfg.circles)
    )
    return PointCircleConfig(cfg.points, circles, cfg.incidence, {}, cfg.tols)


@settings(max_examples=40, deadline=None)
@given(perturbed_configs())
def test_perturbed_layouts_match_scalar_oracle(cfg):
    assert_same_as_oracle(cfg, compare_clusters=True)


@st.composite
def crowded_points(draw):
    """Bunches of points with a spread from 1e-9 tol to 3 tol, so that
    merges happen at, just inside and just outside the tolerance; with lone
    points, and points just inside and just outside R of a bunch, R being
    the reach within which _cluster looks for other points before it settles
    a bunch by array passes."""
    tol = draw(st.sampled_from([1e-7, 1e-3, 0.5]))
    # at 1e9 the cells widen past tol, to keep cell numbers below 2**30
    scale = draw(st.sampled_from([1.0, 1e3, 1e9]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centers = rng.uniform(-scale, scale, size=(draw(st.integers(1, 20)), 2))
    spread = tol * draw(st.one_of(st.floats(0.2, 3.0), st.floats(-9.0, 0.0).map(lambda e: 10.0**e)))
    pts = np.repeat(centers, draw(st.integers(1, 6)), axis=0)
    pts = pts + rng.uniform(-spread, spread, size=pts.shape)
    lone = rng.uniform(-scale, scale, size=(draw(st.integers(0, 8)), 2))
    near = draw(st.integers(0, 8))
    m = len(pts) + len(lone) + near
    reach = scale * 1.01  # an upper bound, as R grows with it
    R = 2.0 * max(_cell_width(tol, reach), tol * (2.0 + math.log(m)))
    angle = rng.uniform(0.0, 2.0 * math.pi, size=near)
    rim = R * (1.0 + rng.choice([-1e-3, 1e-3], size=near))
    beside = centers[rng.integers(0, len(centers), size=near)] + rim[:, None] * np.column_stack(
        [np.cos(angle), np.sin(angle)]
    )
    return rng.permutation(np.concatenate([pts, lone, beside])), tol


@settings(max_examples=150, deadline=None)
@given(crowded_points())
def test_grid_cluster_matches_scalar_cluster(data):
    pts, tol = data
    mx, my = _cluster(pts[:, 0], pts[:, 1], tol)
    assert np.array_equal(np.column_stack([mx, my]), np.array(oracles._cluster(list(pts), tol)))


@pytest.mark.parametrize("tol", [0.0, 1e-7])
def test_copies_at_large_scale_cluster_as_the_loop(tol):
    """At 1e9 the last bit of a coordinate is about 1.2e-7, so the running
    sum of a few copies of one point rounds: the centroid can move by more
    than tol, and the next copy then starts a cluster of its own."""
    rng = np.random.default_rng(0)
    pts = np.repeat(rng.uniform(-1e9, 1e9, size=(40, 2)), rng.integers(1, 7, size=40), axis=0)
    want = np.array(oracles._cluster(list(pts), tol))
    assert len(want) > 40
    mx, my = _cluster(pts[:, 0], pts[:, 1], tol)
    assert np.array_equal(np.column_stack([mx, my]), want)


@st.composite
def points_by_circles(draw):
    """(points, circles, t, block): circles with radii from 1e-8 to 2 times
    the scale, some below t, and points r + u t from a circle's centre with
    u at, or a relative 1e-12 to 1e-6 off, -1, 0 and 1, where the exact test
    decides; block is the residual block size to count them in."""
    t = draw(st.sampled_from([0.0, 1e-9, 1e-7, 1e-3, 0.5]))
    # squared distances of 1e-157 fall to subnormal numbers
    scale = draw(st.sampled_from([1e-157, 1e-6, 1.0, 1e3, 1e9]))
    t *= min(scale, 1.0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = draw(st.integers(1, 30))
    cx, cy = rng.uniform(-scale, scale, size=(2, c))
    r = scale * 10.0 ** rng.uniform(-8.0, 0.3, size=c)
    n = draw(st.integers(1, 60))
    k = rng.integers(0, c, size=n)
    off = rng.choice([0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6], size=n)
    u = rng.choice([-1.0, 0.0, 1.0], size=n) + off
    angle = rng.uniform(0.0, 2.0 * math.pi, size=n)
    rim = r[k] + u * t
    px = cx[k] + rim * np.cos(angle)
    py = cy[k] + rim * np.sin(angle)
    return (px, py), (cx, cy, r), t, draw(st.sampled_from([7, 64, realization._RESIDUAL_BLOCK]))


@settings(max_examples=150, deadline=None)
@given(points_by_circles())
def test_through_counts_match_all_pairs(case):
    (px, py), (cx, cy, r), t, block = case
    with mock.patch.object(realization, "_RESIDUAL_BLOCK", block):
        got = _through_counts(px, py, cx, cy, r, t)
    assert np.array_equal(got, oracles.through_counts(px, py, cx, cy, r, t))


def _meets(a, b, tol):
    return bool(oracles.circle_pair_intersections(a, b, tol))


@st.composite
def pairs_at_the_meeting_edge(draw):
    """(circles, tol): circle A and copies of circle B moved along one
    direction to the last float distance at which the scalar test still
    finds a meet point, the first at which it finds none, one ulp beyond
    each and a relative 1e-9 on either side. Radii run from 1e-4 to 2 times
    the scale and tol from 0 to 10 times it, so the edge lies anywhere from
    a few ulps past r_A + r_B (radii far above tol) to about 2 tol past it
    (radii far below tol)."""
    scale = draw(st.sampled_from([1e-6, 1.0, 1e3, 1e9]))
    tol = scale * draw(st.sampled_from([0.0, 1e-12, 1e-7, 1e-3, 1.0, 10.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ra, rb = scale * 10.0 ** rng.uniform(-4.0, 0.3, size=2)
    x0, y0 = rng.uniform(-scale, scale, size=2)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    a = oracles.Circle(x0, y0, ra)

    def at(d):
        return oracles.Circle(x0 + d * math.cos(angle), y0 + d * math.sin(angle), rb)

    s = ra + rb
    lo, hi = 0.5 * (abs(ra - rb) + s), (s + 4.0 * tol) * 1.001
    assert not _meets(a, at(hi), tol)
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if _meets(a, at(mid), tol):
            lo = mid
        else:
            hi = mid
    ds = [lo, hi, math.nextafter(lo, 0.0), math.nextafter(hi, math.inf), lo * (1 - 1e-9), hi * (1 + 1e-9)]
    order = rng.permutation(len(ds))
    return (a, *(at(ds[k]) for k in order)), tol


@settings(max_examples=150, deadline=None)
@given(pairs_at_the_meeting_edge())
def test_meet_points_keep_every_pair_at_the_meeting_edge(case):
    circles, tol = case
    x, y = _meet_points(*oracles.circle_arrays(circles), tol)
    meets = oracles.meet_points(circles, tol)
    assert np.array_equal(np.column_stack([x, y]), np.array(meets).reshape(-1, 2))


def test_incidence_residual_reads_the_matrix_entries():
    """max_incidence_residual computes only the incident pairs, with the
    element-wise arithmetic of the full (C, n) residual matrix."""
    for name, make in FIXTURES.items():
        cfg = make()
        p, k = np.array(cfg.incidence).T
        full = realization._circle_residuals(*columns(cfg), cfg.points)
        assert np.float64(cfg.max_incidence_residual()).tobytes() == np.max(full[k, p]).tobytes(), name
