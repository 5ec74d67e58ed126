"""The SVG renderer's array passes against the renderer that grew its
viewBox one element at a time: the same bytes, labels on and off."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confviz import Graph, Layout, PointCircleConfig, layout_gen_cuboctahedron, layout_hypercube, layout_polygon, render
from confviz.errors import ParameterError

import oracles
from test_circles_oracle import UNIT_LADDER
from test_flag_oracle import FIXTURES


def outcome(render_fn, art, labels):
    """The SVG text, or the ParameterError's message."""
    try:
        return render_fn(art, labels)
    except ParameterError as exc:
        return f"ParameterError: {exc}"


def assert_same_config(cfg):
    for labels in (False, True):
        assert outcome(render.render_config, cfg, labels) == outcome(oracles.render_config, cfg, labels)


def assert_same_layout(layout):
    for labels in (False, True):
        assert outcome(render.render_layout, layout, labels) == outcome(oracles.render_layout, layout, labels)


@pytest.mark.parametrize("name", list(FIXTURES))
def test_configs_match_the_oracle(name):
    assert_same_config(FIXTURES[name]())


LAYOUTS = {
    **{f"hypercube({d})": lambda d=d: layout_hypercube(d, seed=d) for d in range(1, 7)},
    **{f"CO({n})": lambda n=n: layout_gen_cuboctahedron(n) for n in (3, 5, 6, 12, 24, 40)},
    **{f"polygon({n})": lambda n=n: layout_polygon(n) for n in (3, 5, 64)},
    **{name: UNIT_LADDER[name] for name in (
        "petersen symmetric", "desargues symmetric", "GP(10,2) symmetric", "prism(11) product",
        "GP(12,1) product")},
}


@pytest.mark.parametrize("name", list(LAYOUTS))
def test_layouts_match_the_oracle(name):
    assert_same_layout(LAYOUTS[name]())


# coordinates in [-1, 1] with both zeros, times a scale from 1e-6 to 1e6
coords = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1.0, 1.0))
scales = st.integers(-6, 6).map(lambda k: 10.0**k)
# labels that need escaping, and one that looks like a coordinate
texts = st.one_of(st.text(alphabet='&<>"-0.1x ', max_size=8), st.just('"-0.000000"'))


@st.composite
def layouts(draw, max_order=8):
    """(scale, layout)"""
    n = draw(st.integers(1, max_order))
    scale = draw(scales)
    pos = np.array(draw(st.lists(st.tuples(coords, coords), min_size=n, max_size=n))) * scale
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    labels = draw(st.none() | st.lists(texts, min_size=n, max_size=n))
    return scale, Layout(Graph(n, tuple(p for p, keep in zip(pairs, mask) if keep), labels), pos)


@st.composite
def configs(draw, max_points=6, max_circles=4):
    """(scale, configuration)"""
    n = draw(st.integers(1, max_points))
    scale = draw(scales)
    points = np.array(draw(st.lists(st.tuples(coords, coords), min_size=n, max_size=n))) * scale
    rows = draw(st.lists(st.tuples(coords, coords, st.floats(1e-3, 2.0)), min_size=1, max_size=max_circles))
    incidence = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, len(rows) - 1)), max_size=6))
    return scale, PointCircleConfig(points, (np.array(rows) * scale).tolist(), tuple(incidence))


@settings(max_examples=300, deadline=None)
@given(layouts())
def test_random_layouts_match_the_oracle(case):
    assert_same_layout(case[1])


@settings(max_examples=300, deadline=None)
@given(configs())
def test_random_configs_match_the_oracle(case):
    assert_same_config(case[1])


def test_random_inputs_reach_every_case():
    seen = set()

    def note(scale, pts):
        seen.add({1e-6: "scale 1e-6", 1e6: "scale 1e6"}.get(scale, "other scale"))
        if np.any(np.signbit(pts) & (pts == 0)):
            seen.add("-0.0")
        if len(pts) == 1:
            seen.add("one point")

    @settings(max_examples=300, database=None, derandomize=True)
    @given(layouts())
    def collect_layouts(case):
        note(case[0], case[1].pos)
        if any('"-0.000000"' in s for s in case[1].graph.labels or ()):
            seen.add("label like a coordinate")

    @settings(max_examples=300, database=None, derandomize=True)
    @given(configs())
    def collect_configs(case):
        note(case[0], case[1].points)

    collect_layouts()
    collect_configs()
    assert seen == {"scale 1e-6", "scale 1e6", "other scale", "-0.0", "one point", "label like a coordinate"}


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("big", [1e12, 1e300, 1e308])
def test_huge_drawings_match_the_oracle(big):
    # every digit of a huge viewBox is written, so a text box one ulp off
    # shows; spans past the largest float are refused alike
    layout = Layout(Graph(2, ((0, 1),), ("d&e<f", "abc")), [[-big, 0.0], [big, 1.0]])
    assert_same_layout(layout)
    assert_same_config(PointCircleConfig([[0.0, 0.0]], [(0.0, 0.0, big)], ()))


def test_empty_point_sets_are_nothing_to_render():
    with pytest.raises(ParameterError, match="^nothing to render$"):
        render.render_layout(Layout(Graph(0, ()), np.empty((0, 2))))
    with pytest.raises(ParameterError, match="^nothing to render$"):
        render.render_config(PointCircleConfig(np.empty((0, 2)), [(0.0, 0.0, 1.0)], ()))
