"""Planar realizations: unit-distance layouts and point-circle configurations.

Distances are Euclidean, a configuration's circles are one read-only table
of (cx, cy, r) rows, and all randomness flows through numpy Generators
seeded by the caller, so every construction replays byte-identically from
its recorded parameters.
"""

from __future__ import annotations

import json
import math
import reprlib
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, combinations, islice

import numpy as np

from .errors import (
    ConcyclicityError,
    ConvergenceError,
    DegeneracyError,
    DistinctnessError,
    ParameterError,
    SamplingError,
)
from .graphs import Graph, VertexMap, _count, _int_rows, _integer, _real, _real_rows, _shown, _unchecked, build_family
from .graphs import _connected, cartesian_factors, pair_in_two, prism_graph
from .incidence import IncidenceStructure
from .jsonio import dumps

TOL_INCIDENCE = 1e-9
TOL_SEPARATION = 1e-6
TOL_CLUSTER = 1e-7

_RESAMPLE_BUDGET = 64
# Levenberg-Marquardt iterations per solve
_LM_MAX_ITER = 500
# how far realize_n3 keeps a draw from each of its rejection reasons
_SAMPLE_MARGIN = 1e-4
# residual entries per block when testing many points against all circles
_RESIDUAL_BLOCK = 1 << 14
# relative slack when _rings_rule_out compares ring radii
_RADIUS_SLACK = 1e-9
# one row of PointCircleConfig.circles
_CIRCLE_ROW = np.dtype((np.record, [("cx", float), ("cy", float), ("r", float)]))


@dataclass(eq=False)
class Layout:
    """Vertex positions for a graph; the mapping meta records how they were produced.

    solve_unit_distance builds its result through graphs._unchecked, with
    what it verified recorded for circles_from_layout."""

    graph: Graph
    pos: np.ndarray
    meta: dict = field(default_factory=dict)
    # (graph, pos.tobytes()) of a solve's result, whose edges it found unit
    # and vertices apart; only _unchecked sets it, and it is no field
    _verified = None

    def __post_init__(self):
        if not isinstance(self.graph, Graph):
            raise ParameterError(f"graph must be a Graph, not {type(self.graph).__name__}")
        _round_trip(self.meta, "meta")
        shape = "position table must be (order, 2)"
        self.pos = _float_table(self.pos, "position entry", shape, 2, "positions must be finite")
        if len(self.pos) != self.graph.order:
            raise ParameterError(shape)


@dataclass(eq=False)
class PointCircleConfig:
    """Points, circles and the (point, circle) incidences between them.

    circles is one read-only (C,) table of finite (cx, cy, r) rows, r > 0:
    circles["r"] is a column, circles[k].cx a field of one row and
    circles.view(float).reshape(-1, 3) the (C, 3) float table. It is built
    from such a table, from a (C, 3) table or from a sequence of rows.
    incidence is a sequence of (point, circle) pairs of integers, kept
    sorted and distinct.

    The constructor checks and normalises every field, for files and
    hand-built configurations alike. circles_from_layout, whose fields come
    out canonical already, sets them through graphs._unchecked without
    checking them again.
    """

    points: np.ndarray
    circles: np.ndarray
    incidence: tuple[tuple[int, int], ...]
    flags: dict = field(default_factory=dict)
    tols: dict = field(default_factory=dict)

    def __post_init__(self):
        rows = self.circles
        if getattr(rows, "dtype", None) == _CIRCLE_ROW:  # a record table, as its float (C, 3) table
            rows = np.ascontiguousarray(rows).view(float).reshape(*rows.shape, 3)
        table = _circle_table(*_float_table(rows, "circle entry", "circles must be (cx, cy, r) rows", 3).T)
        _refuse_bad_circles(table)
        table.flags.writeable = False  # shared by the copies check_flags makes
        _round_trip(self.flags, "flags")
        _round_trip(self.tols, "tols")
        self.circles = table
        shape, finite = "points must be an (n, 2) table", "points must be finite"
        self.points = _float_table(self.points, "point entry", shape, 2, finite)
        c = len(self.circles)
        p, k = _incidence_pairs(self.incidence, len(self.points), c)
        # sorted, distinct pairs as sorted, distinct keys p * c + k >= 0
        key = np.sort(p * c + k)
        p, k = np.divmod(key[np.diff(key, prepend=-1) != 0], c)
        self.incidence = tuple(zip(p.tolist(), k.tolist()))

    def max_incidence_residual(self) -> float:
        if not self.incidence:
            return 0.0
        p, k = np.array(self.incidence).T
        cx, cy, r = self.circles["cx"], self.circles["cy"], self.circles["r"]
        # the residual _on_circles tests, element for element, on the incident pairs alone
        return float(np.max(np.abs(np.hypot(self.points[p, 0] - cx[k], self.points[p, 1] - cy[k]) - r[k])))


def _float_table(rows, what: str, shape: str, width: int, finite: str | None = None) -> np.ndarray:
    """rows, checked by _real_rows, as a float (n, width) array, the array
    itself when it is one; another shape raises ParameterError(shape), and
    an entry that is not finite ParameterError(finite) when finite is given."""
    table = np.asarray(_real_rows(rows, what, shape), dtype=float)
    table = table.reshape(0, width) if table.shape == (0,) else table
    if table.ndim != 2 or table.shape[1] != width:
        raise ParameterError(shape)
    if finite is not None and not np.all(np.isfinite(table)):
        raise ParameterError(finite)
    return table


def _round_trip(value, name: str) -> None:
    """Refuse value unless it is a mapping that a file gives back: its text,
    written by jsonio.dumps and read back by json.loads, compares equal to
    it. So a tuple, a non-string key, a NaN, a table that holds itself or a
    Fraction is refused, each with what a file would do to it."""
    if not isinstance(value, Mapping):
        raise ParameterError(f"{name} must be a mapping, not {type(value).__name__}")
    try:
        back = json.loads(dumps(value))
    except ParameterError as exc:
        raise ParameterError(f"{name} cannot be written to a file: {exc}") from None
    try:
        same = back == value
    except ValueError:  # a numpy array of several entries, compared with its list
        same = False
    if not same:
        raise ParameterError(f"{name} {reprlib.repr(value)} reads back from a file as {reprlib.repr(back)}")


def _incidence_pairs(incidence, points: int, circles: int) -> tuple[np.ndarray, np.ndarray]:
    """The columns of incidence, a table of (point, circle) pairs, as two arrays
    in its order; ParameterError names a row not a pair or the first out of range."""
    pairs = _int_rows(incidence, "incidence entry", "incidence")
    if not {2}.issuperset(map(len, pairs)):
        bad = next(pair for pair in pairs if len(pair) != 2)
        raise ParameterError(f"incidence {_shown(tuple(bad))} is not a (point, circle) pair")
    try:
        pk = np.fromiter(chain.from_iterable(pairs), dtype=np.intp)
    except OverflowError:  # an index past intp is out of range; the check below names it
        pk = np.array(list(chain.from_iterable(pairs)), dtype=object)
    p, k = pk.reshape(-1, 2).T
    out = np.flatnonzero((p < 0) | (p >= points) | (k < 0) | (k >= circles))
    if len(out):
        bad = int(p[out[0]]), int(k[out[0]])
        raise ParameterError(f"incidence {_shown(bad)} outside {points} points and {circles} circles")
    return p, k


def _refuse_bad_circles(table: np.ndarray) -> None:
    """Raise ParameterError when a row of the circle table is not finite or
    has r <= 0; the first such row names the failure."""
    finite = np.all(np.isfinite(table.view(float).reshape(-1, 3)), axis=1)
    ok = finite & (table["r"] > 0)
    if not ok.all():
        raise ParameterError(
            "circle radius must be positive" if finite[np.argmin(ok)] else "circle parameters must be finite"
        )


def _finite(value, what: str) -> float:
    """value as a float when it is a finite number, by the rule of _real."""
    x = _real(value, what)
    if not math.isfinite(x):
        raise ParameterError(f"{what} must be finite")
    return x


def _radius(value, what: str) -> float:
    """value as a float, when it is a finite number > 0 (see _real)."""
    x = _real(value, what)
    if not 0 < x < math.inf:
        raise ParameterError(f"{what} must be finite and positive, not {x!r}")
    return x


def _tolerance(name: str, value) -> float:
    """value as a float, when it is a finite number >= 0 (see _real)."""
    x = _real(value, f"{name} tolerance")
    if not 0 <= x < math.inf:
        raise ParameterError(f"{name} tolerance must be a finite number >= 0, got {x!r}")
    return x


def _seed(value) -> int:
    """value as an int, when it is an integer >= 0 (see _count) that a file
    can record: one past the interpreter's digit limit for int text is
    refused before any work. None reads as 0."""
    if value is None:
        return 0
    seed = _count(value, "seed")
    try:
        repr(seed)
    except ValueError:
        raise ParameterError(f"seed {_shown(seed)} has too many digits to record") from None
    return seed


def tol_record(incidence: float = TOL_INCIDENCE) -> dict:
    """The tolerances a constructed configuration records in its tols."""
    return {"incidence": incidence, "separation": TOL_SEPARATION, "cluster": TOL_CLUSTER}


@lru_cache(maxsize=None)
def _small_pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    i, j = np.triu_indices(n, k=1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) over all pairs i < j of range(n), in combinations order.

    Read-only arrays, kept per n up to 64, where np.triu_indices' fixed
    cost (about 20 us) outweighs the work.
    """
    return _small_pair_indices(n) if n <= 64 else np.triu_indices(n, k=1)


def _near_pairs(x: np.ndarray, y: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) over every pair a < b with hypot(x[b] - x[a], y[b] - y[a]) <= t,
    in combinations order: the projection sweep of Friedman, Baskett and
    Shustek (IEEE Trans. Computers C-24, 1975), O(n log n) plus the pairs
    within t in x. Candidates reach x + t widened by a relative 2**-20; as
    rounding is monotone and hypot(dx, dy) >= |dx|, none is missed."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    count = xs.searchsorted(xs + t * (1.0 + 2.0**-20), side="right") - np.arange(1, len(xs) + 1)
    # candidate k of sorted point i is sorted point i + 1 + k
    i = np.repeat(np.arange(len(xs)), count)
    a, b = order[i], order[i + np.arange(1, len(i) + 1) - np.repeat(np.cumsum(count) - count, count)]
    near = np.hypot(x[b] - x[a], y[b] - y[a]) <= t
    return np.divmod(np.sort(np.minimum(a, b)[near] * len(x) + np.maximum(a, b)[near]), len(x))


# ---------------------------------------------------------------------------
# damped least squares


def lm_least_squares(fun, jac, x0) -> np.ndarray:
    """Levenberg-Marquardt with the fixed x10 / /10 damping schedule from
    1e-3; stops when the gradient falls below 1e-12, the step below 1e-14,
    or after _LM_MAX_ITER iterations.

    The damping term keeps rank-deficient Jacobians (translation and rotation
    gauge freedom) solvable, so the routine never crashes on those inputs.
    The Jacobian, gradient and J^T J are built only when x moves; a rejected
    step only raises the damping. Each array jac is asked for is the one fun
    was last called on: x0's copy, then each accepted x + step, formed once
    and measured before it is taken. So a jac may reuse what fun computed
    at that same array object.
    """
    x = np.asarray(x0, dtype=float).copy()
    r = fun(x)
    cost = float(r @ r)
    lam = 1e-3
    eye = np.eye(len(x))

    def linearize(x, r):
        j = jac(x)
        return j.T @ r, j.T @ j

    grad, a = linearize(x, r)
    for _ in range(_LM_MAX_ITER):
        if np.max(np.abs(grad)) < 1e-12:
            break
        try:
            step = np.linalg.solve(a + lam * eye, -grad)
        except np.linalg.LinAlgError:
            lam *= 10.0
            continue
        if np.linalg.norm(step) < 1e-14:
            break
        x_new = x + step
        r_new = fun(x_new)
        cost_new = float(r_new @ r_new)
        if cost_new < cost:
            x, r, cost = x_new, r_new, cost_new
            lam = max(lam / 10.0, 1e-15)
            grad, a = linearize(x, r)
        else:
            lam *= 10.0
            if lam > 1e18:
                break
    return x


# ---------------------------------------------------------------------------
# circles through points


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[k] . b[k], one BLAS dot per row: rounds as `@` and np.linalg.norm do."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _row_norms(a: np.ndarray) -> np.ndarray:
    return np.sqrt(_row_dots(a, a))


def _collinear(p: np.ndarray, q: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Mask of the stacked planar triples p[k], q[k], s[k] that are collinear
    within 1e-12 of their longest side squared."""
    qp, sp = q - p, s - p
    scale = np.maximum(np.maximum(_row_norms(qp), _row_norms(sp)), _row_norms(s - q))
    cross = qp[:, 0] * sp[:, 1] - qp[:, 1] * sp[:, 0]
    return (scale == 0.0) | (np.abs(cross) <= 1e-12 * scale * scale)


def _circumcircles(p, q, s, screened: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cx, cy, r) of the circles through the stacked planar triples p[k],
    q[k], s[k] (a lone point broadcasts), each row with the arithmetic of a
    single one. Raises DegeneracyError when _collinear flags a triple,
    unless the caller has screened the triples with _collinear already."""
    p, q, s = (v.reshape(-1, 2) for v in np.broadcast_arrays(*(np.asarray(v, float) for v in (p, q, s))))
    if not screened and np.any(_collinear(p, q, s)):
        raise DegeneracyError("circumcircle of (nearly) collinear points")
    qp, sp = q - p, s - p
    pp = _row_dots(p, p)
    b = np.column_stack([_row_dots(q, q) - pp, _row_dots(s, s) - pp])
    center = np.linalg.solve(2.0 * np.stack([qp, sp], axis=1), b[:, :, None])[:, :, 0]
    return center[:, 0], center[:, 1], _row_norms(p - center)


def _circle_table(cx: np.ndarray, cy: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The (C,) circle table of PointCircleConfig from its three columns."""
    table = np.empty(len(r), _CIRCLE_ROW)
    table["cx"], table["cy"], table["r"] = cx, cy, r
    return table


# ---------------------------------------------------------------------------
# parametric layouts


def unit_edge_residual(layout: Layout) -> float:
    """Largest deviation of an edge length from 1; 0.0 without edges."""
    return _edge_residual(layout.pos, *_edge_arrays(layout.graph))


def _edge_residual(pos: np.ndarray, eu: np.ndarray, ev: np.ndarray) -> float:
    """unit_edge_residual of positions pos on the edges (eu[i], ev[i]);
    take gathers the edges' ends several times faster than pos[eu]."""
    length = _row_norms(pos.take(eu, axis=0) - pos.take(ev, axis=0))
    return float(np.max(np.abs(length - 1.0), initial=0.0))


def _polygon_positions(n: int) -> np.ndarray:
    """The regular n-gon with unit sides, vertex t at angle 2*pi*t/n."""
    radius = 0.5 / math.sin(math.pi / n)
    ang = 2.0 * math.pi * np.arange(n) / n
    return radius * np.column_stack([np.cos(ang), np.sin(ang)])


def layout_polygon(n: int) -> Layout:
    """Regular n-gon with unit sides."""
    n = _integer(n, "n")
    if n < 3:
        raise ParameterError("polygon layout needs n >= 3")
    return Layout(build_family("cycle", n), _polygon_positions(n), {"generator": "polygon", "n": n})


def layout_hypercube(d: int, seed: int | None = None) -> Layout:
    """Unit-vector sum drawing of the d-cube.

    Vertex S (a bitmask) sits at the sum of the unit vectors of the angles
    whose bit is set; every edge then has length exactly 1. The positions
    fold _product_positions, one unit segment per bit as the major factor.
    Seeded angle draws resample up to the budget while two vertices collapse.
    A seed is an integer >= 0, and None reads as 0.
    """
    d = _integer(d, "d")
    if d < 1:
        raise ParameterError("hypercube layout needs d >= 1")
    seed = _seed(seed)
    g = build_family("hypercube", d)
    rng = np.random.default_rng(seed)
    for attempt in range(_RESAMPLE_BUDGET):
        table = rng.uniform(0.0, 2.0 * math.pi, size=d)
        pos = np.zeros((1, 2))
        for u in np.column_stack([np.cos(table), np.sin(table)]):
            pos = _product_positions(np.stack([np.zeros(2), u]), pos)
        if not _near_pairs(*pos.T, TOL_SEPARATION)[0].size:
            return Layout(
                g,
                pos,
                {
                    "generator": "hypercube",
                    "d": d,
                    "angles": table.tolist(),
                    "seed": seed,
                    "attempt": attempt,
                },
            )
    raise SamplingError("no generic angle set found within budget", seed=seed)


def _rotated(p: np.ndarray, theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return p @ np.array([[c, -s], [s, c]]).T


def _product_positions(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """pb translated to every point of pa, in pa-major order."""
    return (pa[:, None, :] + pb[None, :, :]).reshape(-1, 2)


def layout_gen_cuboctahedron(n: int, r_outer: float = 2.0, r_inner: float = 1.0) -> Layout:
    """Midpoint (medial) drawing of the n-prism: CO(n) on three rings.

    Vertices are prism edge midpoints: outer-edge midpoints at radius
    r_outer*cos(pi/n), spoke midpoints at (r_outer+r_inner)/2, inner-edge
    midpoints at r_inner*cos(pi/n). Every CO(n) neighbourhood is mirror
    symmetric about a ray, hence concyclic for any valid radius pair.
    """
    n = _integer(n, "n")
    if n < 3:
        raise ParameterError("gen_cuboctahedron layout needs n >= 3")
    g = build_family("gen_cuboctahedron", n)  # its size bound comes before any float of n
    r_outer, r_inner = _finite(r_outer, "r_outer"), _finite(r_inner, "r_inner")
    if not (r_outer > r_inner > 0.0):
        raise ParameterError("need r_outer > r_inner > 0")
    rings = [r_outer * math.cos(math.pi / n), (r_outer + r_inner) / 2.0, r_inner * math.cos(math.pi / n)]
    for a, b in combinations(rings, 2):
        if abs(a - b) <= TOL_SEPARATION:
            raise ParameterError("ring radii collide; circles would coincide")
    base = prism_graph(n)
    ang = 2.0 * math.pi * np.arange(n) / n
    outer = r_outer * np.column_stack([np.cos(ang), np.sin(ang)])
    inner = r_inner * np.column_stack([np.cos(ang), np.sin(ang)])
    vpos = np.vstack([outer, inner])
    u, v = _edge_arrays(base)
    pos = (vpos.take(u, axis=0) + vpos.take(v, axis=0)) / 2.0
    return Layout(
        g,
        pos,
        {"generator": "gen_cuboctahedron", "n": n, "r_outer": r_outer, "r_inner": r_inner},
    )


# ---------------------------------------------------------------------------
# unit-distance solving


def _edge_arrays(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    e = np.fromiter(chain.from_iterable(g.edges), dtype=int, count=2 * g.size).reshape(-1, 2)
    return e[:, 0], e[:, 1]


def _solve(edges: tuple[np.ndarray, np.ndarray], x0: np.ndarray, P: np.ndarray | None = None) -> np.ndarray:
    """Positions polished by LM towards unit edges (eu, ev) = edges, from the
    start x0: a (V, 2) float array of positions, or with a map P the
    variables z whose positions are P @ z. The residual is the plain one at
    those positions, and the Jacobian the plain one times P.

    The residual pass keeps the edge differences and lengths of the array
    it measured last, and the Jacobian reads them when it is asked for at
    that same array object, as lm_least_squares asks for it. The Jacobian's
    nonzero cells are fixed, so its buffer is allocated once per call. A
    plain start exact enough that LM would return it unchanged comes back
    as the object x0 itself: the caller can tell that no position moved.
    """
    eu, ev = edges
    # the array the residual pass measured last, its edge differences and lengths
    seen = [None, None, None]

    def positions(x):
        return (x if P is None else P @ x).reshape(-1, 2)

    def measured(x):
        if seen[0] is not x:
            p = positions(x)
            d = p.take(eu, axis=0) - p.take(ev, axis=0)
            seen[:] = x, d, np.hypot(d[:, 0], d[:, 1])
        return seen[1], seen[2]

    def resid(x):
        return measured(x)[1] - 1.0

    def jacobian(x):
        d, dist = measured(x)
        unit = d / np.where(dist < 1e-300, 1.0, dist)[:, None]
        np.put(j, u_cells, unit)
        np.put(j, v_cells, np.negative(unit, out=unit))
        return j if P is None else j @ P

    x = np.asarray(x0, dtype=float).ravel()
    width = x.size if P is None else len(P)
    # each Jacobian entry of a plain solve is a component of a unit
    # direction, so no gradient entry exceeds the largest degree times
    # max|r|; under a quarter of LM's 1e-12 gradient stop, LM would return
    # the start as it is
    if P is None and np.bincount(np.concatenate(edges)).max() * np.max(np.abs(resid(x))) < 0.25e-12:
        return x0
    # each edge row's cells for u's x and y, and for v's, in the flat plain Jacobian
    row = width * np.arange(len(eu))[:, None]
    u_cells, v_cells = row + 2 * eu[:, None] + [0, 1], row + 2 * ev[:, None] + [0, 1]
    j = np.zeros((len(eu), width))
    return positions(lm_least_squares(resid, jacobian, x))


def _ring_map(orbits: list[list[int]], k: int) -> np.ndarray:
    """The (2V, 2m) map P of the ring ansatz: P @ z, with z = (x_0, y_0,
    x_1, y_1, ...), puts vertex orbits[j][t] at R(2*pi*t/k) (x_j, y_j)."""
    ring, t = np.divmod(np.argsort(np.array(orbits).ravel()), k)
    offset = 2.0 * math.pi * t / k
    c, s = np.cos(offset), np.sin(offset)
    P = np.zeros((len(ring), 2, len(orbits), 2))
    # vertex v's rows and ring[v]'s columns hold the rotation block
    P[np.arange(len(ring)), :, ring, :] = np.stack([c, -s, s, c], axis=1).reshape(-1, 2, 2)
    return P.reshape(2 * len(ring), 2 * len(orbits))


def _ring_start(rng: np.random.Generator, m: int) -> np.ndarray:
    """m ring representatives drawn as radii, then phases, as (x, y) pairs."""
    r = rng.uniform(0.25, 2.2, size=m)
    phi = rng.uniform(0.0, 2.0 * math.pi, size=m)
    return np.column_stack([r * np.cos(phi), r * np.sin(phi)])


def _rings_rule_out(g: Graph, orbits: list[list[int]], k: int) -> bool:
    """True when no unit-distance drawing puts each orbit on a ring, vertex
    orbit[t] at angle phase + 2*pi*t/k.

    An edge between two vertices of one orbit, s steps apart, is a chord of
    that ring and forces its radius to 1 / (2 sin(pi s / k)), at least 1/2.
    The orbits are ruled out when one orbit's chords force two radii, or
    when an edge joins rings of forced radii r_a and r_b that no unit
    segment joins: |r_a - r_b| > 1 (r_a + r_b < 1 cannot happen).
    Comparisons allow _RADIUS_SLACK relative, so boundary cases such as
    GP(10,3), whose rings differ by exactly 1, are kept. A necessary
    condition only: orbits that pass may still have no drawing.
    """
    where = {v: (j, t) for j, orbit in enumerate(orbits) for t, v in enumerate(orbit)}
    forced = {}
    for u, v in g.edges:
        (a, s), (b, t) = where[u], where[v]
        if a == b:
            r = 0.5 / math.sin(math.pi * ((t - s) % k) / k)
            if abs(forced.setdefault(a, r) - r) > _RADIUS_SLACK * r:
                return True
    for u, v in g.edges:
        ra, rb = forced.get(where[u][0]), forced.get(where[v][0])
        if ra is not None and rb is not None and abs(ra - rb) > 1.0 + _RADIUS_SLACK * (ra + rb):
            return True
    return False


# Angles tried, in order, for the factor each product start composes in:
# multiples of the golden angle, so no two are equal or opposite.
_PRODUCT_ANGLES = tuple(math.pi * (3.0 - math.sqrt(5.0)) * t for t in range(1, 13))


def _factor_positions(f: Graph, seed: int, restarts: int) -> np.ndarray:
    """Unit-distance positions of a Cartesian factor: K_2 as a unit segment,
    a cycle as the unit-sided polygon in its vertex order, and any other
    factor by the plain solve."""
    if f.order == 2:
        return np.array([[0.0, 0.0], [1.0, 0.0]])
    if all(len(a) == 2 for a in f.adjacency):  # connected and 2-regular: a cycle
        walk = [0, f.adjacency[0][0]]
        while len(walk) < f.order:
            a, b = f.adjacency[walk[-1]]
            walk.append(b if a == walk[-2] else a)
        pos = np.empty((f.order, 2))
        pos[walk] = _polygon_positions(f.order)
        return pos
    return solve_unit_distance(f, seed=seed, restarts=restarts)[0].pos


def _product_start(g: Graph, seed: int, restarts: int):
    """Yield the drawing of g as the product of its factors' drawings, with
    its meta and True, when g factors and the drawing is clean; else yield
    nothing.

    Each factor joins at the first of _PRODUCT_ANGLES that keeps every two
    vertices apart and puts no non-adjacent pair within 1e-6 of unit
    distance, so that no circle of the drawing carries a foreign point.
    The True says that the drawing is separated: the last fold tested every
    pair with the hypot that _near_pairs applies, and the drawing is a row
    permutation of that fold, so a sweep would find no pair either.
    """
    factors, witness = cartesian_factors(g)
    if len(factors) < 2:
        return
    try:
        pos, *rest = (_factor_positions(f, seed, restarts) for f in factors)
    except ConvergenceError:
        return
    order, size = factors[0].order, factors[0].size
    for f, fpos in zip(factors[1:], rest):
        size = size * f.order + order * f.size
        order *= f.order
        i, j = _pair_indices(order)
        for angle in _PRODUCT_ANGLES:
            folded = _product_positions(pos, _rotated(fpos, angle))
            dist = np.hypot(folded[j, 0] - folded[i, 0], folded[j, 1] - folded[i, 1])
            # the edges alone at unit distance
            if dist.min() > TOL_SEPARATION and np.count_nonzero(np.abs(dist - 1.0) <= 1e-6) == size:
                break
        else:
            return
        pos = folded
    yield pos[list(witness.image)], {"method": "product", "factors": [f.order for f in factors]}, True


def solve_unit_distance(
    g: Graph,
    *,
    seed: int | None = None,
    symmetry: int | None = None,
    restarts: int = 40,
) -> tuple[Layout, float]:
    """Minimize edge-length deviation from 1; returns (layout, max deviation).

    One loop polishes start layouts until the residual clears TOL_INCIDENCE
    with no two vertices collapsed. g's edge table is built once, and every
    start is measured on it; only the start returned becomes a Layout. A
    plain solve draws `restarts` seeded random starts; when g is a Cartesian
    product (graphs.cartesian_factors: in closed form for a family-built
    prism, GP(n,1) or hypercube, recognized otherwise, with the same
    result), the product of its factors' drawings goes first, as one more
    start, and the generator is seeded only when a random start is due. `symmetry`, an
    integer k, asks for a rotational ansatz: free order-k automorphisms are
    taken from iso.find_free_cyclic_action one at a time, up to six, and
    each one's orbits become ring variables (for a family-built GP(n,r),
    the rotations, with no search: see iso).
    The ring variables are one Cartesian representative z_j per orbit, and
    vertex orbits[j][t] sits at R(2*pi*t/k) z_j, so the positions are P @ z
    for a fixed map P (_ring_map). A ring solve is the plain LM at P @ z,
    its Jacobian the plain one times P, and `restarts` of them, each from
    radii and then phases drawn at random, are the starts.
    An orbit set whose ring radii, forced by edges within an orbit, rule
    out unit edges (_rings_rule_out) runs no solve: one draw of as many
    doubles as its starts would take advances the generator past them, so
    later sets keep theirs. Only a ring solution within
    TOL_INCIDENCE goes on to the polish, so a symmetric result is a
    rotational drawing. A start exact enough that LM would return it
    unchanged, as product starts and ring solutions mostly are, skips the
    polish: _solve hands back the start object itself. A product start that
    comes back so also skips the _near_pairs sweep, as its last fold tested
    every pair already; a polish that moves it voids that test, and a start
    of any other kind is swept. Raises ConvergenceError, carrying the best
    residual, the starts run and the orbit sets ruled out, when no start
    passes; with no residual when no start ran ("ran 0 restarts"). seed and
    restarts are integers >= 0, and seed None reads as 0. The result records
    in Layout._verified the graph and the position bytes it was verified on.
    """
    if g.size == 0:
        raise ParameterError("unit-distance solve needs at least one edge")
    if not _connected(g):
        raise ParameterError("unit-distance solve expects a connected graph")
    base_seed = _seed(seed)
    restarts = _count(restarts, "restarts")
    edges = _edge_arrays(g)
    # a symmetric solve counts its orbit sets, and those ruled out, as they pass
    sets = skipped = None

    if symmetry is None:

        def drawn():
            rng = np.random.default_rng(base_seed)
            span = 1.0 + 0.25 * math.sqrt(g.order)
            for _ in range(restarts):
                yield rng.uniform(-span, span, size=(g.order, 2)), {"method": "lm"}, False

        starts = chain(_product_start(g, base_seed, restarts), drawn())
        what = "unit-distance solve"
    else:
        from . import iso

        k = _integer(symmetry, "symmetry")
        orbit_sets = map(VertexMap.cycles, islice(iso.find_free_cyclic_action(g, k), 6))
        sets = skipped = 0

        def ring_starts():
            nonlocal sets, skipped
            rng = np.random.default_rng(base_seed)
            for orbits in orbit_sets:
                m = len(orbits)
                sets += 1
                if _rings_rule_out(g, orbits, k):
                    skipped += 1
                    # the doubles its restarts' uniform draws would take, so
                    # later sets keep their starts
                    rng.random(2 * m * restarts)
                    continue
                P = _ring_map(orbits, k)
                for _ in range(restarts):
                    pos = _solve(edges, _ring_start(rng, m), P)
                    # a ring solution above tolerance fails here: a polish
                    # from it would leave the rotational drawing
                    ok = _edge_residual(pos, *edges) <= TOL_INCIDENCE
                    yield pos, {"method": "orbit-lm", "symmetry": k} if ok else None, False

        starts = ring_starts()
        what = "symmetric solve"

    best = math.inf
    runs = 0
    # a start with meta None has failed already and is counted as it stands;
    # a separated one has passed the separation test, which holds while the
    # polish returns the start itself
    for runs, (start, meta, separated) in enumerate(starts, 1):
        pos = start if meta is None else _solve(edges, start)
        separated = separated and pos is start
        residual = _edge_residual(pos, *edges)
        best = min(best, residual)
        if residual <= TOL_INCIDENCE and (separated or not _near_pairs(*pos.T, TOL_SEPARATION)[0].size):
            # pos is a finite (V, 2) float array that only this solve holds,
            # and meta JSON-safe
            meta = dict(meta, seed=base_seed, residual=residual)
            return _unchecked(Layout, graph=g, pos=pos, meta=meta, _verified=(g, pos.tobytes())), residual
    summary = f"exhausted {runs} restart{'s' * (runs != 1)}" if runs else "ran 0 restarts"
    if not runs:  # no start ran, so there is no residual
        best = None
    if sets is not None:
        if not sets:
            raise ParameterError(f"no free order-{_shown(k)} symmetry available")
        over = f"{sets} orbit set" + "s" * (sets != 1)
        if skipped == sets:
            summary = f"ran 0 restarts: ring radii rule out {skipped} of {over}"
        else:
            summary += f" over {over}" + f", {skipped} ruled out by ring radii" * (skipped > 0)
    if best is not None:
        summary += f" (best residual {best:.1e})"
    raise ConvergenceError(f"{what} {summary}", residual=best, restarts=runs, skipped=skipped)


# ---------------------------------------------------------------------------
# geometric V-construction


def circles_from_layout(
    layout: Layout, tol: float = TOL_INCIDENCE, allow_degree_two: bool = False
) -> PointCircleConfig:
    """One circle per vertex through its neighbours (geometric V-construction).

    A unit-distance drawing takes the unit route: when every vertex has
    degree three or more and every edge length is within tol of 1 (one pass
    over the incidences), circle v is the unit circle about v. Block N(v)
    then lies on it within tol by construction, and all radii are exactly
    1.0, so the configuration is isometric. No circle is fitted.

    Any other layout fits its circles. A vertex of degree three or more
    takes the circumcircle (one call for all) of three spread neighbours:
    the first, the farthest from it, and the one spanning the largest
    triangle with those two. One residual pass then gives each vertex its
    neighbours' largest distance from its circle. With allow_degree_two, a
    degree-two vertex takes the circle about itself, and its residual is the
    difference of its neighbours' distances. The first failing vertex
    raises: ParameterError for another degree, DegeneracyError for collinear
    neighbours, and ConcyclicityError (with vertex and residual) above tol.

    On either route, circles whose centres and radii both lie within
    TOL_SEPARATION coincide and are refused, found by one O(n log n) sweep
    (_near_pairs). A tol that is not a finite number >= 0 is a ParameterError.
    A solve's result at tol >= TOL_INCIDENCE skips the length pass and the
    sweep, which it passed already, while it holds the graph object and
    position bytes of its Layout._verified record.
    The result is built through graphs._unchecked; only fitted circles are
    checked, as the constructor would, for finite rows and r > 0.
    """
    tol = _tolerance("incidence", tol)
    g = layout.graph
    pos = layout.pos
    deg = np.fromiter(map(len, g.adjacency), dtype=np.intp, count=g.order)
    nbr = np.fromiter(chain.from_iterable(g.adjacency), dtype=np.intp, count=int(deg.sum()))
    owner = np.repeat(np.arange(g.order), deg)
    unit = g.order > 0 and deg.min() >= 3
    record = layout._verified
    proved = unit and tol >= TOL_INCIDENCE and record is not None and record[0] is g
    proved = proved and pos.shape == (g.order, 2) and pos.dtype == float and pos.tobytes() == record[1]
    if unit and not proved:
        # edge lengths as unit_edge_residual measures them; take and repeat
        # gather the incidences' ends several times faster than pos[nbr]
        length = _row_norms(pos.take(nbr, axis=0) - np.repeat(pos, deg, axis=0))
        unit = np.all(np.abs(length - 1.0) <= tol)
    if unit:
        cx, cy, r = pos[:, 0], pos[:, 1], np.ones(g.order)
    else:
        cx, cy, r = _fitted_circles(pos, deg, nbr, owner, tol, allow_degree_two)
    if not proved:
        _refuse_coinciding(cx, cy, r)
    table = _circle_table(cx, cy, r)
    if not unit:  # unit circles are about validated positions
        _refuse_bad_circles(table)
    table.flags.writeable = False
    # point v lies on circle w exactly when w is a neighbour of v, so the
    # pairs (v, w) of the adjacency lists are the incidences in order
    incidence = tuple(zip(owner.tolist(), nbr.tolist()))
    return _unchecked(
        PointCircleConfig, points=pos.copy(), circles=table, incidence=incidence, flags={}, tols=tol_record(tol)
    )


def _fitted_circles(
    pos: np.ndarray, deg: np.ndarray, nbr: np.ndarray, owner: np.ndarray, tol: float, allow_degree_two: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cx, cy, r) fitted through each vertex's neighbours, as
    circles_from_layout describes for layouts off its unit route."""
    n = len(pos)
    start = np.cumsum(deg) - deg
    # a circle about each vertex until it has its own, and its residual
    cx, cy, r, residual = pos[:, 0].copy(), pos[:, 1].copy(), np.zeros(n), np.zeros(n)
    two = np.flatnonzero((deg == 2) & allow_degree_two)
    d = _row_norms(pos.take(nbr[start[two, None] + np.arange(2)], axis=0) - pos.take(two, axis=0)[:, None])
    r[two] = (d[:, 0] + d[:, 1]) / 2.0
    residual[two] = np.abs(d[:, 0] - d[:, 1])
    fit = np.flatnonzero(deg >= 3)
    triples = np.empty((len(fit), 3), dtype=np.intp)
    for k in set(deg[fit].tolist()):
        at = np.flatnonzero(deg[fit] == k)
        ring = nbr[start[fit[at], None] + np.arange(k)]
        around = pos.take(ring, axis=0)
        off = around - around[:, :1]
        rows = np.arange(len(at))
        far = np.argmax(_row_dots(off, off), axis=1)
        u = off[rows, far]
        area = np.abs(u[:, None, 0] * off[:, :, 1] - u[:, None, 1] * off[:, :, 0])
        triples[at] = np.column_stack([ring[:, 0], ring[rows, far], ring[rows, np.argmax(area, axis=1)]])
    p, q, s = pos.take(triples, axis=0).transpose(1, 0, 2)
    flat = _collinear(p, q, s)
    cx[fit[~flat]], cy[fit[~flat]], r[fit[~flat]] = _circumcircles(p[~flat], q[~flat], s[~flat], screened=True)
    on = deg[owner] >= 3  # a collinear vertex's residual is moot: it fails first
    o, w = owner[on], nbr[on]
    pw = pos.take(w, axis=0)
    np.maximum.at(residual, o, np.abs(np.hypot(pw[:, 0] - cx[o], pw[:, 1] - cy[o]) - r[o]))

    refused = (deg < 3) & ((deg != 2) | (not allow_degree_two))
    failed = refused | (residual > tol)
    failed[fit[flat]] = True
    if failed.any():
        v = int(np.argmax(failed))
        if refused[v]:
            raise ParameterError(f"vertex {v} has degree {deg[v]}; need >= 3 (or 2 with allow_degree_two)")
        if v in fit[flat]:
            raise DegeneracyError(f"neighbours of vertex {v} are (nearly) collinear")
        res = float(residual[v])
        why = f"neighbourhood of vertex {v} not concyclic (residual {res:.3e})"
        if deg[v] == 2:
            why = f"vertex {v} neighbours not equidistant; no canonical circle"
        raise ConcyclicityError(why, vertex=v, residual=res)
    return cx, cy, r


def _refuse_coinciding(cx: np.ndarray, cy: np.ndarray, r: np.ndarray) -> None:
    """Raise DistinctnessError for the first pair of circles, in combinations
    order, whose centres and radii both lie within TOL_SEPARATION."""
    v, w = _near_pairs(cx, cy, TOL_SEPARATION)
    same = np.flatnonzero(np.abs(r[v] - r[w]) <= TOL_SEPARATION)
    if len(same):
        raise DistinctnessError(f"circles of vertices {v[same[0]]} and {w[same[0]]} coincide")


def incidence_of(cfg: PointCircleConfig) -> IncidenceStructure:
    """Combinatorial structure read off a configuration's incidence list."""
    blocks: dict[int, list[int]] = {k: [] for k in range(len(cfg.circles))}
    for p, k in cfg.incidence:
        blocks[k].append(p)
    return IncidenceStructure(
        points=len(cfg.points),
        blocks=tuple(tuple(sorted(b)) for b in blocks.values()),
        provenance="read off point-circle configuration",
    )


# ---------------------------------------------------------------------------
# (n_3) realization by sampling


def realize_n3(c: IncidenceStructure, seed: int = 0) -> PointCircleConfig:
    """Realize a structure with 3-point blocks as random points and the
    blocks' circumcircles.

    Points are drawn uniformly in the unit square, up to _RESAMPLE_BUDGET
    times. A draw is accepted when, with margin 1e-4:
    1. every two points are more than the margin apart;
    2. no block's three points are within the margin of collinear;
    3. no point outside a block lies within the margin of its circle;
    4. every point where three or more circles meet is a configuration
       point (check_flags' determining test, at the tol_record() tolerances).
    Each circle then passes through its own three points and no other, and
    circles meet three at a time only at configuration points: check_flags
    reads the blocks back, and finds the result determining when every
    point lies on three blocks or more. Raises SamplingError, with the
    attempts made and the rejections per condition, when no draw passes.
    The seed is an integer >= 0.
    """
    if any(len(b) != 3 for b in c.blocks):
        raise ParameterError("realize_n3 needs every block to have exactly 3 points")
    if c.points < 3:
        raise ParameterError("realize_n3 needs at least 3 points")
    seed = _seed(seed)
    blocks = np.array(c.blocks, dtype=np.intp).reshape(-1, 3)
    incidence = tuple((p, k) for k, blk in enumerate(c.blocks) for p in blk)
    tols = tol_record()
    rejections = dict.fromkeys(("separation", "collinear_block", "foreign_point", "stray_meet_point"), 0)
    rng = np.random.default_rng(seed)
    for _ in range(_RESAMPLE_BUDGET):
        pts = rng.uniform(0.0, 1.0, size=(c.points, 2))
        if _near_pairs(*pts.T, _SAMPLE_MARGIN)[0].size:
            rejections["separation"] += 1
            continue
        p, q, s = pts[blocks].transpose(1, 0, 2)
        cross = (q[:, 0] - p[:, 0]) * (s[:, 1] - p[:, 1]) - (q[:, 1] - p[:, 1]) * (s[:, 0] - p[:, 0])
        if np.any(np.abs(cross) <= _SAMPLE_MARGIN):
            rejections["collinear_block"] += 1
            continue
        # the same cross product as _collinear's, whose bound, 1e-12 times the
        # longest side squared, is at most 2e-12 in the unit square: every
        # triple it would flag was rejected just above
        cx, cy, r = _circumcircles(p, q, s, screened=True)
        # each circle has its own three points on it, so a fourth is foreign
        if np.any(np.bincount(_on_circles(*pts.T, cx, cy, r, _SAMPLE_MARGIN)[1], minlength=len(cx)) > 3):
            rejections["foreign_point"] += 1
            continue
        if _meet_census(cx, cy, r, pts, **tols)[1] is None:
            rejections["stray_meet_point"] += 1
            continue
        return PointCircleConfig(pts, _circle_table(cx, cy, r), incidence, flags={}, tols=tols)
    counts = ", ".join(f"{k} {v}" for k, v in sorted(rejections.items(), key=lambda kv: -kv[1]) if v)
    raise SamplingError(
        f"no draw accepted in {_RESAMPLE_BUDGET} attempts ({counts})",
        seed=seed, attempts=_RESAMPLE_BUDGET, rejections=rejections,
    )


# ---------------------------------------------------------------------------
# flags


def _meet_points(
    cx: np.ndarray, cy: np.ndarray, r: np.ndarray, cluster_tol: float
) -> tuple[np.ndarray, np.ndarray, int]:
    """(x, y, lead): every pairwise circle intersection in one array pass.

    Pairs come in combinations(range(C), 2) order: per pair base+off, then
    base-off, and the base alone for a pair tangent within cluster_tol; a
    concentric or disjoint pair gives nothing. So the first lead points are
    circles 0 and 1's.

    The exact test below keeps a pair when h2 >= -cluster_tol**2, and
    -h2 >= (d - r_i - r_j)**2 / 4 once d > r_i + r_j, so no pair farther
    apart than r_i + r_j + 2*cluster_tol meets. Rounding in h2 is worth a
    few ulps of d**2, which moves that edge by well under 1e-6 d, so a
    squared-distance screen with a relative margin of 1e-6 keeps every pair
    the exact test keeps; the survivors give the same bits.
    """
    i, j = _pair_indices(len(cx))
    dx, dy = cx[j] - cx[i], cy[j] - cy[i]
    ri, rj = r[i], r[j]
    reach = (ri + rj + 2.0 * cluster_tol) * (1.0 + 1e-6)
    near = dx * dx + dy * dy <= reach * reach
    i, j, dx, dy, ri, rj = i[near], j[near], dx[near], dy[near], ri[near], rj[near]
    # math.hypot as in the scalar per-pair oracle: np.hypot differs from it
    # in the last bit on some inputs
    d = np.fromiter(map(math.hypot, dx.tolist(), dy.tolist()), dtype=float, count=len(dx))
    apart = d > 1e-15
    d = np.where(apart, d, 1.0)  # no division by zero; the pair is dropped below
    ri2 = ri * ri
    alpha = (d * d + ri2 - rj * rj) / (2.0 * d)
    h2 = ri2 - alpha * alpha
    eps = cluster_tol * cluster_tol
    meet = apart & (h2 >= -eps)
    i, j, dx, dy, d, alpha, h2 = i[meet], j[meet], dx[meet], dy[meet], d[meet], alpha[meet], h2[meet]
    ux, uy = dx / d, dy / d
    bx, by = cx[i] + alpha * ux, cy[i] + alpha * uy
    two = h2 > eps
    h = np.sqrt(np.where(two, h2, 0.0))
    offx, offy = uy * h, ux * h
    x, y = np.empty((2, len(h), 2))
    x[:, 0] = np.where(two, bx - offx, bx)
    x[:, 1] = bx + offx
    y[:, 0] = np.where(two, by + offy, by)
    y[:, 1] = by - offy
    keep = np.ones((len(h), 2), dtype=bool)
    keep[:, 1] = two
    return x[keep], y[keep], int(np.count_nonzero(keep[j == 1]))  # j == 1 on (0, 1) alone


# grid cell (a, b) hashes to a * _GRID_STRIDE + b; cell numbers stay within 2**30 + 1
_GRID_STRIDE = 1 << 32


def _thin(x: np.ndarray, y: np.ndarray, tol: float) -> np.ndarray:
    """Mask of the points (x, y) kept when each tight grid cell is taken
    once: the points are binned into square cells at least tol wide,
    counted from the lowest x and y (the fixed-radius near-neighbour grid of
    Bentley, Stanat and Williams, Inf. Process. Lett. 6, 1977), and a cell
    whose points span at most tol/2 in x and in y keeps only its first
    point, while any other cell keeps all of its points."""
    if len(x) == 0:
        return np.ones(0, dtype=bool)
    gx, gy = x - x.min(), y - y.min()
    # a hair wider than tol, against rounding in the division, and wide
    # enough for cell numbers below 2**30: cells widen on pictures past 2**30
    # tols across
    cell = max(tol * (1.0 + 2.0**-20), float(max(gx.max(), gy.max())) * 2.0**-30) or 1.0
    key = (gx // cell).astype(np.int64) * _GRID_STRIDE + (gy // cell).astype(np.int64)
    # the point indices grouped by cell, ascending within a cell, and each
    # occupied cell's run from bounds[c] to bounds[c + 1]
    members = key.argsort(kind="stable")
    key = key[members]
    bounds = np.concatenate(([True], key[1:] != key[:-1], [True])).nonzero()[0]
    starts = bounds[:-1]
    xm, ym = x[members], y[members]
    span = np.maximum(
        np.maximum.reduceat(xm, starts) - np.minimum.reduceat(xm, starts),
        np.maximum.reduceat(ym, starts) - np.minimum.reduceat(ym, starts),
    )
    drop = np.repeat(span <= tol / 2.0, np.diff(bounds))
    drop[starts] = False
    keep = np.ones(len(x), dtype=bool)
    keep[members[drop]] = False
    return keep


def _offset_blocks(px: np.ndarray, py: np.ndarray, qx: np.ndarray, qy: np.ndarray):
    """Yield (rows, p[rows].x - q.x, p[rows].y - q.y) in row blocks of about
    _RESIDUAL_BLOCK entries.

    Every block reuses two buffers, which the caller may overwrite."""
    step = max(1, _RESIDUAL_BLOCK // max(1, len(qx)))
    dx = np.empty((min(step, len(px)), len(qx)))
    dy = np.empty_like(dx)
    for start in range(0, len(px), step):
        rows = slice(start, start + step)
        m = min(step, len(px) - start)
        np.subtract.outer(px[rows], qx, out=dx[:m])
        np.subtract.outer(py[rows], qy, out=dy[:m])
        yield rows, dx[:m], dy[:m]


def _on_circles(
    px: np.ndarray, py: np.ndarray, cx: np.ndarray, cy: np.ndarray, r: np.ndarray, t: float
) -> tuple[np.ndarray, np.ndarray]:
    """The (point, circle) pairs (i, k) with |hypot(p_i - c_k) - r_k| <= t,
    as two index arrays in increasing point order and, per point, in
    increasing circle order.

    A squared-distance screen, wider than any rounding by a relative 1e-9
    (and by the smallest normal float), keeps the pairs that can pass, and
    only those take that exact test.
    """
    wide = 1e-9 * (r + t)
    lo = np.maximum(r - t - wide, 0.0) ** 2 - 2.0**-1022
    hi = (r + t + wide) ** 2 + 2.0**-1022
    found = [(np.empty(0, dtype=np.intp),) * 2]
    for rows, dx, dy in _offset_blocks(px, py, cx, cy):
        dx *= dx
        dx += np.multiply(dy, dy, out=dy)
        # (d2 - lo) * (hi - d2) keeps its sign, or underflows to a zero, or
        # overflows to a nan (inf - inf past 1e154): the screen keeps those pairs
        np.subtract(hi, dx, out=dy)
        dx -= lo
        row, k = np.logical_not(np.multiply(dx, dy, out=dx) < 0.0).nonzero()
        row += rows.start
        on = np.abs(np.hypot(px[row] - cx[k], py[row] - cy[k]) - r[k]) <= t
        found.append((row[on], k[on]))
    return tuple(map(np.concatenate, zip(*found)))


def _meet_census(
    cx: np.ndarray, cy: np.ndarray, r: np.ndarray, pts: np.ndarray,
    incidence: float, separation: float, cluster: float,
) -> tuple[np.ndarray, np.ndarray | None]:
    """(lead, hits): the through-counts of circles 0 and 1's meet points,
    and the mask of the points where three or more circles meet, or None
    when one lies off the points. The tolerances are tol_record()'s.

    A meet point counts when more than two circles pass within
    max(incidence, cluster) of it: every circle, as a near-tangent one can
    pass that close without a meet point of its own there. The k circles
    through a point make C(k, 2) meet points a few ulps apart, so _thin
    first takes each tight bunch of them once. No test depends on cell width.
    """
    mx, my, lead = _meet_points(cx, cy, r, cluster)
    keep = _thin(mx, my, cluster)
    # both of circles 0 and 1's points are counted, also where _thin drops one
    counted = keep | (np.arange(len(mx)) < lead)
    mx, my, keep = mx[counted], my[counted], keep[counted]
    through = np.bincount(_on_circles(mx, my, cx, cy, r, max(incidence, cluster))[0], minlength=len(mx))
    tx, ty = mx[keep & (through > 2)], my[keep & (through > 2)]
    matched = np.zeros(len(pts), dtype=bool)
    for _, dx, dy in _offset_blocks(tx, ty, pts[:, 0], pts[:, 1]):
        dist = np.hypot(dx, dy, out=dx)
        hit = np.argmin(dist, axis=1)
        if np.any(dist[np.arange(len(hit)), hit] > max(cluster, separation)):
            return through[:lead], None  # a triple point off the configuration
        matched[hit] = True
    return through[:lead], matched


def check_flags(cfg: PointCircleConfig) -> PointCircleConfig:
    """Evaluate proper / isometric / lineal / determining / perfect.

    determining follows the meet-point definition: keep the pairwise circle
    intersections where more than two circles pass, and demand that set to
    coincide with the configuration points.

    Cost, for C circles, n points and M <= C(C-1) meet points: one
    O(n log n) sweep for degenerate (_near_pairs), and one meet-point census
    (_meet_census) that proper and determining both read: array passes over
    the C(C-1)/2 circle pairs, one grid pass over the meet points,
    O(M log M), that takes each tight bunch once, and one point-on-circle
    query (_on_circles) for the meet points left. lineal makes the only
    other query, for the n points. The two queries cost O((n + M) C) in row
    blocks of _RESIDUAL_BLOCK = 16384 entries, so that no (M, C) or (C, n)
    matrix is held, where a squared-distance screen leaves the exact test to
    the pairs near a circle. lineal then costs one pass over the m_k points
    on each circle k and sum(m_k**2) set updates in pair_in_two.
    Hypercube(7), 128 circles and 11,082 meet points, takes about 0.013 s
    on a 2-CPU container.

    Raises ParameterError for an empty configuration, or when the
    incidence, separation or cluster tolerance in tols is not a finite
    number >= 0.
    """
    if len(cfg.circles) == 0 or len(cfg.points) == 0:
        raise ParameterError("flag check needs a non-empty configuration")
    t = dict(cfg.tols)
    tol_inc, tol_sep, tol_clu = (_tolerance(name, t.get(name, d)) for name, d in tol_record().items())
    cx, cy, r = cfg.circles["cx"], cfg.circles["cy"], cfg.circles["r"]
    pts = cfg.points
    # past about 1e77 a product of squared distances overflows: a picture past
    # 2**100 is decided on a copy scaled by a power of two, which moves no bit
    big = max(np.abs(pts).max(), np.abs(cfg.circles.view(float)).max())
    if big > 2.0**100:
        e = -math.frexp(big)[1]
        cx, cy, r, pts = (np.ldexp(a, e) for a in (cx, cy, r, pts))
        tol_inc, tol_sep, tol_clu = (math.ldexp(x, e) for x in (tol_inc, tol_sep, tol_clu))

    degenerate = bool(_near_pairs(*pts.T, tol_sep)[0].size)

    isometric = bool(r.max() - r.min() <= tol_inc)

    # proper: some point on every circle exists iff it lies on the first two
    lead, hits = _meet_census(cx, cy, r, pts, tol_inc, tol_sep, tol_clu)
    proper = len(cfg.circles) > 1 and not np.any(lead == len(cfg.circles))
    determining = not degenerate and hits is not None and bool(hits.all())

    # lineal: no two circles share two points, by the rule classify applies
    # to blocks, the blocks here being the points on each circle
    p, k = _on_circles(*pts.T, cx, cy, r, tol_inc)
    members = iter(p[np.argsort(k, kind="stable")].tolist())
    lineal = not pair_in_two(tuple(islice(members, m)) for m in np.bincount(k, minlength=len(cx)).tolist())

    flags = {
        "proper": proper,
        "isometric": isometric,
        "lineal": lineal,
        "determining": determining,
        "perfect": bool(lineal and isometric and determining and not degenerate),
        "degenerate": degenerate,
    }
    # cfg was validated when it was built: copy it rather than build it anew
    return _unchecked(
        PointCircleConfig, points=cfg.points.copy(), circles=cfg.circles, incidence=cfg.incidence, flags=flags, tols=t
    )


# ---------------------------------------------------------------------------
# inversion


def invert_pointline(points, lines, center, radius: float = 1.0) -> PointCircleConfig:
    """Circle inversion of a point-line configuration.

    Every line misses the center, so its image is a circle through the
    center; the output is therefore never proper, which is the point of the
    construction. Incidences carry over verbatim. Each line is a sequence
    of at least two distinct integer point indices.
    """
    pts = _float_table(points, "point entry", "points must be an (n, 2) table", 2)
    bad = np.flatnonzero(~np.all(np.isfinite(pts), axis=1))
    if len(bad):
        raise ParameterError(f"point {bad[0]} of the point-line input is not finite")
    shape, finite = "center must be a planar point", "inversion center must be finite"
    ctr = _float_table((center,), "center entry", shape, 2, finite)[0]
    radius = _radius(radius, "inversion radius")
    scale = max(1.0, float(np.max(np.abs(pts))))
    lines_norm: list[tuple[int, ...]] = []
    for idx in map(tuple, _int_rows(lines, "line entry", "lines")):
        if len(idx) < 2 or len(set(idx)) != len(idx):
            raise ParameterError(f"line {_shown(idx)} needs at least two distinct points")
        if any(p < 0 or p >= len(pts) for p in idx):
            raise ParameterError(f"line {_shown(idx)} outside point range")
        a, b = pts[idx[0]], pts[idx[1]]
        direction = b - a
        norm = np.linalg.norm(direction)
        if norm <= TOL_SEPARATION:
            raise DegeneracyError(f"line {idx} anchors coincide")
        for p in idx[2:]:
            off = pts[p] - a
            area2 = abs(direction[0] * off[1] - direction[1] * off[0])
            if area2 > 1e-9 * scale * scale:
                raise DegeneracyError(f"points of line {idx} are not collinear")
        # distance from the inversion center to the carrier line
        off = ctr - a
        dist_line = abs(direction[0] * off[1] - direction[1] * off[0]) / norm
        if dist_line <= TOL_SEPARATION:
            raise ParameterError("inversion center lies on a configuration line")
        lines_norm.append(idx)
    d = pts - ctr
    dd = _row_dots(d, d)
    near = np.flatnonzero(np.sqrt(dd) <= TOL_SEPARATION)
    if len(near):
        raise ParameterError(f"inversion center coincides with point {near[0]}")
    images = ctr + (radius * radius / dd)[:, None] * d
    anchors = np.array([idx[:2] for idx in lines_norm], dtype=np.intp).reshape(-1, 2)
    circles = _circle_table(*_circumcircles(images[anchors[:, 0]], images[anchors[:, 1]], ctr))
    incidence = tuple((p, k) for k, idx in enumerate(lines_norm) for p in idx)
    cfg = PointCircleConfig(images, circles, incidence, flags={}, tols=tol_record())
    worst = cfg.max_incidence_residual()
    if worst > 1e-9 * scale:
        raise DegeneracyError(f"inverted incidences drift ({worst:.3e}); input too degenerate")
    return cfg
