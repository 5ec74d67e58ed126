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
    _meet_points,
    _on_circles,
    _meet_census,
    _thin,
    TOL_CLUSTER,
    TOL_INCIDENCE,
    tol_record,
)

import oracles


def columns(cfg):
    """cx, cy and r of cfg's circle table, as the strided views check_flags reads."""
    return cfg.circles["cx"], cfg.circles["cy"], cfg.circles["r"]


def assert_same_as_oracle(cfg):
    """Equal flags and bit-equal meet points."""
    assert check_flags(cfg).flags == oracles.check_flags(cfg).flags
    tol = cfg.tols.get("cluster", 1e-7)
    x, y, _ = _meet_points(*columns(cfg), tol)
    meets = oracles.meet_points(oracles.circles_of(cfg), tol)
    assert np.array_equal(np.column_stack([x, y]), np.array(meets).reshape(-1, 2))


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
# The scalar oracle's flags and the SHA-256 of its meet-point bytes on the
# largest fixtures, captured from oracles.check_flags and
# oracles.meet_points: the live oracle takes 1-3 s on each of these, and the
# array path matched it on them before they were frozen.
FROZEN = {
    "hypercube(6)": (
        _CUBE_FLAGS,
        "5fa3aab6dda283768648bf9f2b6f115fee4a97167a0a521e1b0b145f82994017",
    ),
    "CO(27)": (
        _CO_FLAGS,
        "08b7b9ea3e22cbc5bc72b5f5cf37b94c5408fafd484010c85974ba960e4bf7c8",
    ),
    "CO(28)": (
        _CO_FLAGS,
        "c37a9c7bb1371550f4498fc87e193aec4d448d6b18a0c69bbfa227a2b78706d8",
    ),
    "CO(29)": (
        _CO_FLAGS,
        "2d33474988769c4ed42f21b7057727d93370e280c59aae4667244a88574aa07c",
    ),
    "CO(30)": (
        _CO_FLAGS,
        "9cec8e9dbaf34da6f3f2383ed9048493bd378ba32216958a511ef299eeaba04e",
    ),
    "CO(31)": (
        _CO_FLAGS,
        "a14bb00b4940d674b054cb6a2196b43e3ad22ba22e07a6867cb180b54791122f",
    ),
    "CO(32)": (
        _CO_FLAGS,
        "826ff748f275e947037cb892327e12018bc46c04c876bed4ea6810e5b0e67021",
    ),
    "CO(33)": (
        _CO_FLAGS,
        "5bd6951772bb68d1d694ae0dfa3288a0d5a8c9dda19e8245d93c465949df608d",
    ),
    "CO(34)": (
        _CO_FLAGS,
        "d4892a3e84e16985d267b68ce6acbea1a0ba9c349f56f5f3934bc5354661fe6c",
    ),
    "CO(35)": (
        _CO_FLAGS,
        "8b6fea7a4b8754d3bad74679cfc00430692b2e935c6d21903de0e93cd5d7ea74",
    ),
    "CO(36)": (
        _CO_FLAGS,
        "5e3be3cf6760e053c85e7e65d1b231b55438a827be0bd806c8f4140b4a81a259",
    ),
    "CO(37)": (
        _CO_FLAGS,
        "61c42aa4b3ec6913ece0de6ac67c4b15460460ef9a128e13711d5c2d4d17e547",
    ),
    "CO(38)": (
        _CO_FLAGS,
        "71b97cc66f90bd907074babcd983cb0532085022d11ca5ac04d277a199267b6e",
    ),
    "CO(39)": (
        _CO_FLAGS,
        "16b3f318c2544474840b4c2ddd3668f239438ac014cf07f96a709058a34f99ac",
    ),
    "CO(40)": (
        _CO_FLAGS,
        "03aa6dfd8cf6e989c80bd2efbfff6d5f22cbdb3b9bf2505ef73fbc37457b56f0",
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
        assert_same_as_oracle(FIXTURES[name]())
        return
    flags, meet_digest = FROZEN[name]
    cfg = oracles.circles_from_layout(FROZEN_LAYOUTS[name]())
    assert check_flags(cfg).flags == flags
    tol = cfg.tols.get("cluster", 1e-7)
    x, y, _ = _meet_points(*columns(cfg), tol)
    assert _sha256(x, y) == meet_digest
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
    got = _meet_census(cx, cy, r, cfg.points, **tols)[1]
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
    assert_same_as_oracle(cfg)


def nearly_meeting(rng, bunches, lone, spread, scale):
    """(cx, cy, r, pts): bunches of 3 to 6 circles, of radius 0.5 to 2 times
    the scale, that nearly meet at a point P drawn in a square of that
    scale, with lone circles and points besides. The circles of a bunch
    cross P at normal angles at least pi/(2k) apart. With spread > 0, circle
    j passes a uniform distance from -spread to spread off P; with
    spread < 0, each passes |spread| off P, so that the bunch's lines are
    tangent to one small circle about P and no three of them meet. Most
    points P are configuration points."""
    rows, pts = [], []
    for _ in range(bunches):
        p = rng.uniform(-scale, scale, size=2)
        k = int(rng.integers(3, 7))
        theta = rng.uniform(0.0, 2.0 * math.pi) + math.pi * (np.arange(k) + rng.uniform(-0.25, 0.25, k)) / k
        off = rng.uniform(-spread, spread, size=k) if spread > 0 else np.full(k, -spread)
        rad = scale * rng.uniform(0.5, 2.0, size=k)
        side = rad * rng.choice([-1.0, 1.0], size=k)
        n = np.column_stack([np.cos(theta), np.sin(theta)])
        rows.append(np.column_stack([p + (off + side)[:, None] * n, rad]))
        if rng.uniform() < 0.8:
            pts.append(p)
    rows.append(np.column_stack([rng.uniform(-scale, scale, size=(lone, 2)), scale * rng.uniform(0.5, 2.0, lone)]))
    pts.extend(rng.uniform(-scale, scale, size=(int(rng.integers(1, 3)), 2)))
    cx, cy, r = np.concatenate(rows).T.copy()
    return cx, cy, r, np.array(pts).reshape(-1, 2)


@st.composite
def crowded_near_meets(draw):
    """nearly_meeting circles with the spread at most a tenth of the cluster
    tolerance, where each bunch is one triple point, or at least ten times
    it, where the bunch makes none; at scales where grid cells are as wide
    as the tolerance and where they widen past it."""
    tol = TOL_CLUSTER
    small = draw(st.booleans())
    spread = tol * 10.0 ** draw(st.floats(-6.0, -1.0) if small else st.floats(1.0, 4.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return nearly_meeting(
        rng, draw(st.integers(1, 5)), draw(st.integers(0, 4)), spread if small else -spread,
        draw(st.sampled_from([1.0, 1e2, 1e4])),
    )


@settings(max_examples=150, deadline=None)
@given(crowded_near_meets())
def test_triple_points_match_the_clustering_oracle(case):
    cx, cy, r, pts = case
    tols = tol_record()
    got = _meet_census(cx, cy, r, pts, **tols)[1]
    want = oracles.triple_point_hits(cx, cy, r, pts, **tols)
    assert (got is None) == (want is None)
    assert want is None or np.array_equal(got, want)


def test_thin_keeps_every_point_of_a_loose_cell():
    """Three cells one tol wide: one spans 0.6 tol in x and one 0.7 tol in
    y, so each keeps all of its points; the third spans 0.4 tol and keeps
    only its first point."""
    tol = 1e-7
    x = np.array([0.3, 0.0, 0.6, 4.2, 4.6, 4.4, 7.1, 7.1]) * tol
    y = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 7.1, 7.8]) * tol
    assert np.flatnonzero(_thin(x, y, tol)).tolist() == [0, 1, 2, 3, 6, 7]


@pytest.mark.parametrize("scale", [1e-3, 1e2, 1e4])
@pytest.mark.parametrize("layout", [lambda: layout_hypercube(5, seed=0), lambda: layout_gen_cuboctahedron(9)],
                         ids=["hypercube(5)", "CO(9)"])
def test_scaled_layouts_match_scalar_oracle(layout, scale):
    """At 1e4 the picture is wider than 2**30 cluster tolerances, so grid
    cells widen past the tolerance."""
    lay = layout()
    cfg = circles_from_layout(Layout(lay.graph, scale * lay.pos, {}))
    assert check_flags(cfg).flags == oracles.check_flags(cfg).flags


@st.composite
def points_by_circles(draw):
    """(points, circles, t, block): circles with radii from 1e-8 to 2 times
    the scale, some below t, and points r + u t from a circle's centre with
    u at, or a relative 1e-12 to 1e-6 off, -1, 0 and 1, where the exact test
    decides; block is the residual block size to find them in."""
    t = draw(st.sampled_from([0.0, 1e-9, 1e-7, 1e-3, 0.5]))
    # squared distances of 1e-157 fall to subnormal numbers, and those of
    # 1e160 overflow to inf
    scale = draw(st.sampled_from([1e-157, 1e-6, 1.0, 1e3, 1e9, 1e160]))
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
def test_on_circle_pairs_match_all_pairs(case):
    """The pairs come point-major, as nonzero reads the (n, C) matrix, so
    the through counts of the flag check follow from them."""
    (px, py), (cx, cy, r), t, block = case
    with mock.patch.object(realization, "_RESIDUAL_BLOCK", block), np.errstate(over="ignore", invalid="ignore"):
        p, k = _on_circles(px, py, cx, cy, r, t)
    want = np.nonzero(oracles.residual_matrix(cx, cy, r, np.column_stack([px, py])).T <= t)
    assert np.array_equal(p, want[0]) and np.array_equal(k, want[1])
    assert np.array_equal(np.bincount(p, minlength=len(px)), oracles.through_counts(px, py, cx, cy, r, t))


def _two_circles_through(q):
    """Circles A, centre (0, 0), and B, centre (-1, 7), both of radius 5,
    cross at right angles at P = (3, 4) and (-4, 3); the points are P and q,
    and the incidence puts q on A only."""
    return PointCircleConfig([(3.0, 4.0), q], [(0.0, 0.0, 5.0), (-1.0, 7.0, 5.0)],
                             ((0, 0), (0, 1), (1, 0)), {}, tol_record())


@pytest.mark.parametrize("off, lineal", [(0.0, False), (2.0, True)])
def test_lineal_reads_points_off_the_incidence(off, lineal):
    """At (-4, 3) the second point lies on B though the incidence leaves it
    off, so A and B share two points. Moved off * tol_inc along A's tangent
    there, which is B's radius, it stays on A and leaves B."""
    step = off * TOL_INCIDENCE / 5.0
    cfg = _two_circles_through((-4.0 + 3.0 * step, 3.0 + 4.0 * step))
    flags = check_flags(cfg).flags
    assert flags["lineal"] is lineal
    assert flags == oracles.check_flags(cfg).flags


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
    x, y, _ = _meet_points(*oracles.circle_arrays(circles), tol)
    meets = oracles.meet_points(circles, tol)
    assert np.array_equal(np.column_stack([x, y]), np.array(meets).reshape(-1, 2))


def test_incidence_residual_reads_the_matrix_entries():
    """max_incidence_residual computes only the incident pairs, with the
    element-wise arithmetic of the full (C, n) residual matrix."""
    for name, make in FIXTURES.items():
        cfg = make()
        p, k = np.array(cfg.incidence).T
        full = oracles.residual_matrix(*columns(cfg), cfg.points)
        assert np.float64(cfg.max_incidence_residual()).tobytes() == np.max(full[k, p]).tobytes(), name


def test_check_flags_makes_one_meet_point_census():
    """One _meet_points pass over every circle, and two point-on-circle
    queries: the census's and lineal's. realize_n3 decides its draws by the
    same census."""
    cfg = FIXTURES["hypercube(3)"]()
    with mock.patch.object(realization, "_meet_points", wraps=realization._meet_points) as meets, \
            mock.patch.object(realization, "_on_circles", wraps=realization._on_circles) as queries:
        check_flags(cfg)
    assert meets.call_count == 1 and len(meets.call_args.args[0]) == len(cfg.circles)
    assert queries.call_count == 2
    with mock.patch.object(realization, "_meet_census", wraps=realization._meet_census) as census:
        check_flags(realize_n3(fano_plane(), seed=0))
    assert census.call_count >= 2


def _recording(name, calls):
    """Patch realization's name with a wrapper that appends (args, result)
    of each call to calls[name]."""
    real = getattr(realization, name)

    def record(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.setdefault(name, []).append((args, out))
        return out

    return mock.patch.object(realization, name, record)


@st.composite
def rounded_meets(draw):
    """(cx, cy, r, pts) with circles 0 and 1 centred at (X, -1) and (X + k
    ulps, 1), meeting h either side of x = X, where h < ulp(X)/2: their two
    meet points round to one float when k = 0, and for k > 0 often differ
    in y alone by less than cluster/2, so that _thin drops the second.
    Circle 2 passes about max(incidence, cluster) from both points, and
    lone circles lie about them."""
    x = draw(st.sampled_from([1e10, 3e10, 1e11]))
    ulp = math.ulp(x)
    cx = [x, x + draw(st.integers(0, 4)) * ulp]
    d = math.hypot(cx[1] - cx[0], 2.0)
    h = draw(st.floats(1.5 * TOL_CLUSTER, 0.45 * ulp))
    rows = [(cx[0], -1.0, math.hypot(d / 2.0, h)), (cx[1], 1.0, math.hypot(d / 2.0, h))]
    side = draw(st.sampled_from([-1.0, 1.0]))
    rows.append((x, 5.0 * side, 5.0 - TOL_CLUSTER * (1.0 + draw(st.floats(-1e-4, 1e-4)))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for _ in range(draw(st.integers(0, 3))):
        rows.append((x + rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0), rng.uniform(0.5, 3.0)))
    cx, cy, r = np.array(rows).T.copy()
    return cx, cy, r, np.array([[x, 0.0], [x + 3.0, 7.0]])


@st.composite
def census_cases(draw):
    """A fixture, a crowded near-meet case or a rounded_meets case as a
    configuration with no incidences, scaled with its tolerances by 10**e
    for e from -6 to 160 (check_flags scales pictures past 2**100 back)."""
    kind = draw(st.sampled_from(["fixture", "crowded", "rounded"]))
    if kind == "fixture":
        cfg = FIXTURES[draw(st.sampled_from(sorted(FIXTURES)))]()
        cx, cy, r, pts = (*columns(cfg), cfg.points)
    else:
        cx, cy, r, pts = draw(crowded_near_meets() if kind == "crowded" else rounded_meets())
    scale = 10.0 ** draw(st.one_of(st.just(0), st.integers(-6, 160)))
    circles = np.column_stack([cx, cy, r]) * scale
    tols = {name: tol * scale for name, tol in tol_record().items()}
    return PointCircleConfig(pts * scale, circles, (), {}, tols)


@settings(max_examples=150, deadline=None)
@given(census_cases())
def test_census_counts_both_meet_points_of_the_first_two_circles(cfg):
    """The points the census attributes to circles 0 and 1 are their own
    meet points bit for bit, even where _thin drops one as a duplicate, and
    proper reads their through-counts as the all-pairs count does."""
    calls = {}
    with _recording("_meet_census", calls), _recording("_on_circles", calls):
        proper = check_flags(cfg).flags["proper"]
    (cx, cy, r, _, incidence, _, cluster), (lead, _) = calls["_meet_census"][0]
    px, py = calls["_on_circles"][0][0][:2]
    qx, qy, count = _meet_points(cx[:2], cy[:2], r[:2], cluster)
    assert len(lead) == count == len(qx)
    assert np.column_stack([px[:count], py[:count]]).tobytes() == np.column_stack([qx, qy]).tobytes()
    through = oracles.through_counts(qx, qy, cx, cy, r, max(incidence, cluster))
    assert lead.tolist() == through.tolist()
    assert proper == (len(cx) > 1 and not np.any(through == len(cx)))


def test_proper_counts_the_second_meet_point_where_thin_drops_it():
    """An ulp at x = 1e10 is 1.9e-6, so the meet points of circles 0 and 1,
    3e-7 either side of x = 1e10 + 4e-6, round to one x and lie 1.7e-12
    apart in y: _thin keeps only the first. Circle 2 passes within
    max(incidence, cluster) = 1e-7 of the second alone, which so lies on
    every circle. Read off the first alone, proper came out True."""
    x1, r01 = 10000000000.000006, 1.0000000000041376
    circles = ((1e10, -1.0, r01), (x1, 1.0, r01), (10000000000.000004, -5.000000000000857, 4.9999999000000015))
    cx, cy, r = np.array(circles).T.copy()
    qx, qy, count = _meet_points(cx[:2], cy[:2], r[:2], TOL_CLUSTER)
    assert count == 2 and qx[0] == qx[1] and qy[0] != qy[1]
    assert _thin(*_meet_points(cx, cy, r, TOL_CLUSTER)[:2], TOL_CLUSTER).tolist()[:2] == [True, False]
    assert oracles.through_counts(qx, qy, cx, cy, r, 1e-7).tolist() == [2, 3]
    cfg = PointCircleConfig(np.array([[qx[0], qy[0]], [1e10 + 3.0, 7.0]]), circles, ((0, 0), (0, 1)), {}, tol_record())
    assert check_flags(cfg).flags == oracles.check_flags(cfg).flags
    assert not check_flags(cfg).flags["proper"]


@pytest.mark.parametrize("name", ["hypercube(3)", "invert(pappus)", "realize_n3(fano, seed=0)"])
def test_a_degenerate_configuration_reads_proper_as_the_oracle_does(name):
    """A point 1e-8 from another makes the configuration degenerate; the
    census still runs for proper, which is True on two of these and False
    on the inversion."""
    cfg = FIXTURES[name]()
    pts = np.vstack([cfg.points, cfg.points[:1] + 1e-8])
    cfg = PointCircleConfig(pts, cfg.circles, cfg.incidence, {}, cfg.tols)
    flags = check_flags(cfg).flags
    assert flags["degenerate"] and not flags["determining"]
    assert flags == oracles.check_flags(cfg).flags
