"""The array flag check against the scalar loops it replaced."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confviz import (
    POLYTOPE_NAMES,
    Circle,
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
from confviz.pappus import derive_pappus_points
from confviz.realization import _circle_arrays, _cluster, _meet_points

import oracles


def assert_same_as_oracle(cfg, compare_clusters=False):
    """Equal flags and bit-equal meet points; optionally bit-equal cluster
    centroids too, which costs a second scalar clustering."""
    assert check_flags(cfg).flags == oracles.check_flags(cfg).flags
    tol = cfg.tols.get("cluster", 1e-7)
    x, y = _meet_points(*_circle_arrays(cfg.circles), tol)
    meets = oracles.meet_points(cfg.circles, tol)
    assert np.array_equal(np.column_stack([x, y]), np.array(meets).reshape(-1, 2))
    if compare_clusters:
        mx, my = _cluster(x, y, tol)
        want = np.array(oracles._cluster(meets, tol)).reshape(-1, 2)
        assert np.array_equal(np.column_stack([mx, my]), want)


def _projection(name):
    cfg, _ = stereographic_project(sphere_circles(polytope_data(name)), seed=0)
    return cfg


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
# largest fixtures, captured from oracles.check_flags and oracles.meet_points:
# the live oracle takes 1-3 s on each of these, and the array path matched it
# bit for bit on them before they were frozen.
FROZEN = {
    "hypercube(6)": (_CUBE_FLAGS, "5fa3aab6dda283768648bf9f2b6f115fee4a97167a0a521e1b0b145f82994017"),
    "CO(27)": (_CO_FLAGS, "08b7b9ea3e22cbc5bc72b5f5cf37b94c5408fafd484010c85974ba960e4bf7c8"),
    "CO(28)": (_CO_FLAGS, "c37a9c7bb1371550f4498fc87e193aec4d448d6b18a0c69bbfa227a2b78706d8"),
    "CO(29)": (_CO_FLAGS, "2d33474988769c4ed42f21b7057727d93370e280c59aae4667244a88574aa07c"),
    "CO(30)": (_CO_FLAGS, "9cec8e9dbaf34da6f3f2383ed9048493bd378ba32216958a511ef299eeaba04e"),
    "CO(31)": (_CO_FLAGS, "a14bb00b4940d674b054cb6a2196b43e3ad22ba22e07a6867cb180b54791122f"),
    "CO(32)": (_CO_FLAGS, "826ff748f275e947037cb892327e12018bc46c04c876bed4ea6810e5b0e67021"),
    "CO(33)": (_CO_FLAGS, "5bd6951772bb68d1d694ae0dfa3288a0d5a8c9dda19e8245d93c465949df608d"),
    "CO(34)": (_CO_FLAGS, "d4892a3e84e16985d267b68ce6acbea1a0ba9c349f56f5f3934bc5354661fe6c"),
    "CO(35)": (_CO_FLAGS, "8b6fea7a4b8754d3bad74679cfc00430692b2e935c6d21903de0e93cd5d7ea74"),
    "CO(36)": (_CO_FLAGS, "5e3be3cf6760e053c85e7e65d1b231b55438a827be0bd806c8f4140b4a81a259"),
    "CO(37)": (_CO_FLAGS, "61c42aa4b3ec6913ece0de6ac67c4b15460460ef9a128e13711d5c2d4d17e547"),
    "CO(38)": (_CO_FLAGS, "71b97cc66f90bd907074babcd983cb0532085022d11ca5ac04d277a199267b6e"),
    "CO(39)": (_CO_FLAGS, "16b3f318c2544474840b4c2ddd3668f239438ac014cf07f96a709058a34f99ac"),
    "CO(40)": (_CO_FLAGS, "03aa6dfd8cf6e989c80bd2efbfff6d5f22cbdb3b9bf2505ef73fbc37457b56f0"),
}


# The digests were taken on the circles of the per-vertex least-squares fit,
# so the frozen fixtures take their circles from the oracle that keeps it;
# the circumcircle pass's own circles must give the same flags.
FROZEN_LAYOUTS = {
    "hypercube(6)": lambda: layout_hypercube(6, seed=0),
    **{f"CO({n})": lambda n=n: layout_gen_cuboctahedron(n) for n in range(27, 41)},
}


@pytest.mark.parametrize("name", list(FIXTURES))
def test_flags_match_scalar_oracle(name):
    if name not in FROZEN:
        assert_same_as_oracle(FIXTURES[name]())
        return
    flags, digest = FROZEN[name]
    cfg = oracles.circles_from_layout(FROZEN_LAYOUTS[name]())
    assert check_flags(cfg).flags == flags
    x, y = _meet_points(*_circle_arrays(cfg.circles), cfg.tols.get("cluster", 1e-7))
    assert hashlib.sha256(np.column_stack([x, y]).tobytes()).hexdigest() == digest
    assert check_flags(FIXTURES[name]()).flags == flags


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
        Circle(c.cx, c.cy, c.r + draw(nudge)) if k in moved else c for k, c in enumerate(cfg.circles)
    )
    return PointCircleConfig(cfg.points, circles, cfg.incidence, {}, cfg.tols)


@settings(max_examples=40, deadline=None)
@given(perturbed_configs())
def test_perturbed_layouts_match_scalar_oracle(cfg):
    assert_same_as_oracle(cfg, compare_clusters=True)


@st.composite
def crowded_points(draw):
    """Points in small bunches whose spread is comparable to tol, so that
    merges happen at, just inside and just outside the tolerance."""
    tol = draw(st.sampled_from([1e-7, 1e-3, 0.5]))
    # at 1e9 the cells widen past tol, to keep cell numbers below 2**30
    scale = draw(st.sampled_from([1.0, 1e3, 1e9]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centers = rng.uniform(-scale, scale, size=(draw(st.integers(1, 20)), 2))
    spread = draw(st.floats(0.2, 3.0)) * tol
    pts = np.repeat(centers, draw(st.integers(1, 6)), axis=0)
    return pts + rng.uniform(-spread, spread, size=pts.shape), tol


@settings(max_examples=60, deadline=None)
@given(crowded_points())
def test_grid_cluster_matches_scalar_cluster(data):
    pts, tol = data
    mx, my = _cluster(pts[:, 0], pts[:, 1], tol)
    assert np.array_equal(np.column_stack([mx, my]), np.array(oracles._cluster(list(pts), tol)))
