"""The projection sweep realization._near_pairs against the all-pairs passes
it replaced: oracles._min_separation for the separation tests and
oracles.refuse_coinciding for coinciding circles."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from confviz import TOL_SEPARATION, DistinctnessError, realization


@st.composite
def planted_points(draw, t=None):
    """(x, y, t, plants): up to 40 points in [-1, 1]^2, in half of the cases
    on rows of equal x, scaled by 1e-6..1e6 and translated by up to 1e9,
    then pairs (a, b) planted at 0.5, 1 or 1.5 times t. A pair at t lies on
    an axis, where every hypot gives |dx| or |dy| exactly. Without t, t is
    1e-6, 1e-4 or 0.3 times the scale."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 40))
    scale = draw(st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e6]))
    shift = draw(st.sampled_from([0.0, 1e6, -1e6, 1e9, -1e9]))
    x, y = rng.uniform(-1.0, 1.0, size=(2, n))
    if draw(st.booleans()):
        x = np.round(x, 1)
    x, y = scale * x + shift, scale * y - shift
    if t is None:
        t = draw(st.sampled_from([1e-6, 1e-4, 0.3])) * scale
    plants = []
    for _ in range(draw(st.integers(0, 4)) if n >= 2 else 0):
        a, b = rng.choice(n, 2, replace=False).tolist()
        f = draw(st.sampled_from([0.5, 1.0, 1.5]))
        if f == 1.0:
            dx, dy = rng.permutation([rng.choice([-t, t]), 0.0])
        else:
            angle = rng.uniform(0.0, 2.0 * math.pi)
            dx, dy = f * t * math.cos(angle), f * t * math.sin(angle)
        x[b], y[b] = x[a] + dx, y[a] + dy
        plants.append((a, b))
    return x, y, t, plants


@settings(max_examples=300, deadline=None)
@given(planted_points())
def test_sweep_matches_the_all_pairs_separation(case):
    x, y, t, _ = case
    a, b = realization._near_pairs(x, y, t)
    assert (a.size > 0) == (oracles._min_separation(np.column_stack([x, y])) <= t)
    want = [(i, j) for i, j in combinations(range(len(x)), 2) if np.hypot(x[j] - x[i], y[j] - y[i]) <= t]
    assert list(zip(a.tolist(), b.tolist())) == want


def _refusal(refuse):
    try:
        refuse()
    except DistinctnessError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(planted_points(TOL_SEPARATION), st.data())
def test_coinciding_circles_match_the_all_pairs_loop(case, data):
    """Planted pairs of centres also get radii 0, 0.5, 1 or 1.5 times
    TOL_SEPARATION apart."""
    x, y, t, plants = case
    r = np.random.default_rng(len(x)).uniform(0.5, 2.0, size=len(x))
    for a, b in plants:
        r[b] = r[a] + data.draw(st.sampled_from([0.0, 0.5, -1.0, 1.0, 1.5])) * t
    circles = [oracles.Circle(*row) for row in zip(x.tolist(), y.tolist(), r.tolist())]
    got = _refusal(lambda: realization._refuse_coinciding(x, y, r))
    assert got == _refusal(lambda: oracles.refuse_coinciding(circles))


@pytest.mark.parametrize("shift", [0.0, 1e6, 1e9])
def test_first_coinciding_pair_in_combinations_order(shift):
    """Pairs (1, 4) and (0, 3) coincide; the sweep meets (1, 4) first in x
    order, and (0, 3) is named all the same."""
    x = np.array([5.0, 0.0, 2.0, 5.0 + 0.5 * TOL_SEPARATION, 0.0]) + shift
    y = np.array([0.0, 3.0, 0.0, 0.0, 3.0 + 0.5 * TOL_SEPARATION])
    r = np.ones(5)
    with pytest.raises(DistinctnessError, match="^circles of vertices 0 and 3 coincide$"):
        realization._refuse_coinciding(x, y, r)
    r[3] += 2.0 * TOL_SEPARATION
    with pytest.raises(DistinctnessError, match="^circles of vertices 1 and 4 coincide$"):
        realization._refuse_coinciding(x, y, r)
