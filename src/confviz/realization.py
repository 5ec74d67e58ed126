"""Planar realizations: unit-distance layouts and point-circle configurations.

Distances are Euclidean, circles live as (center, radius) records, and all
randomness flows through numpy Generators seeded by the caller, so every
construction replays byte-identically from its recorded parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import chain, combinations, islice

import numpy as np

from . import iso
from .errors import (
    ConcyclicityError,
    ConvergenceError,
    DegeneracyError,
    DistinctnessError,
    ParameterError,
    SamplingError,
)
from .graphs import Graph, build_family, cartesian_product
from .incidence import IncidenceStructure

TOL_INCIDENCE = 1e-9
TOL_SEPARATION = 1e-6
TOL_CLUSTER = 1e-7

_RESAMPLE_BUDGET = 64
# index tuples per chunk in _generic_position: small first chunks refuse most
# degenerate draws early, the cap bounds memory at C(100, 4) ~ 3.9M quads
_FIRST_CHUNK = 64
_MAX_CHUNK = 1 << 11
# residual entries per block when testing many points against all circles
_RESIDUAL_BLOCK = 1 << 14


@dataclass(frozen=True)
class Circle:
    cx: float
    cy: float
    r: float

    def __post_init__(self):
        if not (math.isfinite(self.cx) and math.isfinite(self.cy) and math.isfinite(self.r)):
            raise ParameterError("circle parameters must be finite")
        if self.r <= 0:
            raise ParameterError("circle radius must be positive")

    @property
    def center(self) -> np.ndarray:
        return np.array([self.cx, self.cy])

    def residual(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        return np.hypot(pts[:, 0] - self.cx, pts[:, 1] - self.cy) - self.r


@dataclass(eq=False)
class Layout:
    """Vertex positions for a graph; meta records how they were produced."""

    graph: Graph
    pos: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.pos = np.asarray(self.pos, dtype=float)
        if self.pos.shape != (self.graph.order, 2):
            raise ParameterError("position table must be (order, 2)")
        if not np.all(np.isfinite(self.pos)):
            raise ParameterError("positions must be finite")


@dataclass(eq=False)
class PointCircleConfig:
    points: np.ndarray
    circles: tuple[Circle, ...]
    incidence: tuple[tuple[int, int], ...]
    flags: dict = field(default_factory=dict)
    tols: dict = field(default_factory=dict)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 2 or self.points.shape[1] != 2:
            raise ParameterError("points must be an (n, 2) table")
        if not np.all(np.isfinite(self.points)):
            raise ParameterError("points must be finite")
        self.circles = tuple(self.circles)
        norm = []
        for p, k in self.incidence:
            if not (0 <= p < len(self.points) and 0 <= k < len(self.circles)):
                raise ParameterError(f"incidence ({p},{k}) out of range")
            norm.append((int(p), int(k)))
        self.incidence = tuple(sorted(set(norm)))

    def max_incidence_residual(self) -> float:
        if not self.incidence:
            return 0.0
        p, k = np.array(self.incidence).T
        cx, cy, r = _circle_arrays(self.circles)
        dist = np.hypot(self.points[p, 0] - cx[k], self.points[p, 1] - cy[k])
        return float(np.max(np.abs(dist - r[k])))


def tol_record(incidence: float = TOL_INCIDENCE) -> dict:
    """The tolerances a constructed configuration records in its tols."""
    return {"incidence": incidence, "separation": TOL_SEPARATION, "cluster": TOL_CLUSTER}


def _circle_arrays(circles) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Centers and radii of the circles as three float arrays."""
    table = np.array([(c.cx, c.cy, c.r) for c in circles], dtype=float).reshape(-1, 3)
    return table[:, 0], table[:, 1], table[:, 2]


def _pair_distances(xy: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, j, |xy[i] - xy[j]|) over all pairs i < j, in combinations order."""
    i, j = np.triu_indices(len(xy), k=1)
    return i, j, np.hypot(xy[j, 0] - xy[i, 0], xy[j, 1] - xy[i, 1])


# ---------------------------------------------------------------------------
# damped least squares


def lm_least_squares(
    fun,
    jac,
    x0,
    *,
    max_iter: int = 500,
    lam0: float = 1e-3,
    grad_tol: float = 1e-12,
    step_tol: float = 1e-14,
) -> np.ndarray:
    """Levenberg-Marquardt with the fixed x10 / /10 damping schedule.

    The damping term keeps rank-deficient Jacobians (translation and rotation
    gauge freedom) solvable, so the routine never crashes on those inputs.
    The Jacobian, gradient and J^T J are built only when x moves; a rejected
    step only raises the damping.
    """
    x = np.asarray(x0, dtype=float).copy()
    r = fun(x)
    cost = float(r @ r)
    lam = lam0
    eye = np.eye(len(x))

    def linearize(x, r):
        j = jac(x)
        return j.T @ r, j.T @ j

    grad, a = linearize(x, r)
    for _ in range(max_iter):
        if np.max(np.abs(grad)) < grad_tol:
            break
        try:
            step = np.linalg.solve(a + lam * eye, -grad)
        except np.linalg.LinAlgError:
            lam *= 10.0
            continue
        if np.linalg.norm(step) < step_tol:
            break
        r_new = fun(x + step)
        cost_new = float(r_new @ r_new)
        if cost_new < cost:
            x = x + step
            r, cost = r_new, cost_new
            lam = max(lam / 10.0, 1e-15)
            grad, a = linearize(x, r)
        else:
            lam *= 10.0
            if lam > 1e18:
                break
    return x


# ---------------------------------------------------------------------------
# circles through points


def circumcircle(p, q, s) -> Circle:
    """Circle through three non-collinear points (exact linear solve)."""
    p, q, s = (np.asarray(v, dtype=float) for v in (p, q, s))
    scale = max(np.linalg.norm(q - p), np.linalg.norm(s - p), np.linalg.norm(s - q))
    cross = (q[0] - p[0]) * (s[1] - p[1]) - (q[1] - p[1]) * (s[0] - p[0])
    if scale == 0.0 or abs(cross) <= 1e-12 * scale * scale:
        raise DegeneracyError("circumcircle of (nearly) collinear points")
    a = 2.0 * np.array([[q[0] - p[0], q[1] - p[1]], [s[0] - p[0], s[1] - p[1]]])
    b = np.array([q @ q - p @ p, s @ s - p @ p])
    center = np.linalg.solve(a, b)
    return Circle(float(center[0]), float(center[1]), float(np.linalg.norm(p - center)))


def fit_circle(pts) -> tuple[Circle, float]:
    """Least-squares circle: algebraic seed, then geometric refinement.

    Returns the circle and the max absolute distance residual over pts.
    """
    pts = np.asarray(pts, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 3:
        raise ParameterError("circle fit needs at least three planar points")
    centered = pts - pts.mean(axis=0)
    svals = np.linalg.svd(centered, compute_uv=False)
    if svals[1] <= 1e-12 * max(svals[0], 1.0):
        raise DegeneracyError("circle fit of (nearly) collinear points")
    # algebraic (Kasa) seed: minimize |x^2+y^2 + D x + E y + F|
    a = np.column_stack([pts[:, 0], pts[:, 1], np.ones(len(pts))])
    b = -(pts[:, 0] ** 2 + pts[:, 1] ** 2)
    (d, e, f), *_ = np.linalg.lstsq(a, b, rcond=None)
    cx, cy = -d / 2.0, -e / 2.0
    r2 = cx * cx + cy * cy - f
    if r2 <= 0:
        raise DegeneracyError("algebraic circle fit collapsed")
    x0 = np.array([cx, cy, math.sqrt(r2)])

    def resid(x):
        return np.hypot(pts[:, 0] - x[0], pts[:, 1] - x[1]) - x[2]

    def jacobian(x):
        dx = pts[:, 0] - x[0]
        dy = pts[:, 1] - x[1]
        dist = np.hypot(dx, dy)
        dist = np.where(dist < 1e-300, 1.0, dist)
        return np.column_stack([-dx / dist, -dy / dist, -np.ones(len(pts))])

    x = lm_least_squares(resid, jacobian, x0)
    circle = Circle(float(x[0]), float(x[1]), float(abs(x[2])))
    return circle, float(np.max(np.abs(circle.residual(pts))))


# ---------------------------------------------------------------------------
# parametric layouts


def unit_edge_residual(layout: Layout) -> float:
    """Largest deviation of an edge length from 1; 0.0 without edges."""
    eu, ev = _edge_arrays(layout.graph)
    d = layout.pos[eu] - layout.pos[ev]
    # the per-row dot product rounds as per-vector np.linalg.norm does
    length = np.sqrt((d[:, None, :] @ d[:, :, None]).ravel())
    return float(np.max(np.abs(length - 1.0), initial=0.0))


def _min_separation(pos: np.ndarray) -> float:
    if len(pos) < 2:
        return math.inf
    return float(np.min(_pair_distances(pos)[2]))


def layout_polygon(n: int) -> Layout:
    """Regular n-gon with unit sides."""
    if n < 3:
        raise ParameterError("polygon layout needs n >= 3")
    g = build_family("cycle", n)
    radius = 0.5 / math.sin(math.pi / n)
    ang = 2.0 * math.pi * np.arange(n) / n
    pos = radius * np.column_stack([np.cos(ang), np.sin(ang)])
    return Layout(g, pos, {"generator": "polygon", "n": n})


def layout_hypercube(d: int, angles=None, seed: int | None = None) -> Layout:
    """Unit-vector sum drawing of the d-cube.

    Vertex S (a bitmask) sits at sum of the unit vectors of the angles whose
    bit is set; every edge then has length exactly 1. Explicit angles that
    collapse two vertices raise; seeded draws resample up to the budget.
    """
    if d < 1:
        raise ParameterError("hypercube layout needs d >= 1")
    g = build_family("hypercube", d)
    if angles is not None:
        table = np.asarray(angles, dtype=float)
        if table.shape != (d,):
            raise ParameterError("need one angle per coordinate direction")
        pos = _hypercube_positions(d, table)
        if _min_separation(pos) <= TOL_SEPARATION:
            raise DegeneracyError("angle choice collapses two vertices")
        return Layout(g, pos, {"generator": "hypercube", "d": d, "angles": table.tolist()})
    rng = np.random.default_rng(0 if seed is None else seed)
    for attempt in range(_RESAMPLE_BUDGET):
        table = rng.uniform(0.0, 2.0 * math.pi, size=d)
        pos = _hypercube_positions(d, table)
        if _min_separation(pos) > TOL_SEPARATION:
            return Layout(
                g,
                pos,
                {
                    "generator": "hypercube",
                    "d": d,
                    "angles": table.tolist(),
                    "seed": 0 if seed is None else seed,
                    "attempt": attempt,
                },
            )
    raise SamplingError("no generic angle set found within budget", seed=seed)


def _hypercube_positions(d: int, angles: np.ndarray) -> np.ndarray:
    units = np.column_stack([np.cos(angles), np.sin(angles)])
    pos = np.zeros((1 << d, 2))
    for v in range(1 << d):
        for b in range(d):
            if v >> b & 1:
                pos[v] += units[b]
    return pos


def layout_product(la: Layout, lb: Layout, angle: float | None = None, seed: int | None = None) -> Layout:
    """Cartesian-product layout: copy of lb rotated by angle at every la vertex.

    Unit distances in both factors survive, since each product edge is a
    translate of a factor edge. Vertex (a, x) lands at index a * |H| + x.
    """
    g = cartesian_product(la.graph, lb.graph)

    def build(theta: float) -> np.ndarray:
        c, s = math.cos(theta), math.sin(theta)
        rot = np.array([[c, -s], [s, c]])
        rotated = lb.pos @ rot.T
        return (la.pos[:, None, :] + rotated[None, :, :]).reshape(-1, 2)

    if angle is not None:
        pos = build(float(angle))
        if _min_separation(pos) <= TOL_SEPARATION:
            raise DegeneracyError("product angle collapses two vertices")
        return Layout(g, pos, {"generator": "product", "angle": float(angle)})
    rng = np.random.default_rng(0 if seed is None else seed)
    for attempt in range(_RESAMPLE_BUDGET):
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        pos = build(theta)
        if _min_separation(pos) > TOL_SEPARATION:
            return Layout(
                g,
                pos,
                {
                    "generator": "product",
                    "angle": theta,
                    "seed": 0 if seed is None else seed,
                    "attempt": attempt,
                },
            )
    raise SamplingError("no generic product angle found within budget", seed=seed)


def layout_gen_cuboctahedron(n: int, r_outer: float = 2.0, r_inner: float = 1.0) -> Layout:
    """Midpoint (medial) drawing of the n-prism: CO(n) on three rings.

    Vertices are prism edge midpoints: outer-edge midpoints at radius
    r_outer*cos(pi/n), spoke midpoints at (r_outer+r_inner)/2, inner-edge
    midpoints at r_inner*cos(pi/n). Every CO(n) neighbourhood is mirror
    symmetric about a ray, hence concyclic for any valid radius pair.
    """
    if n < 3:
        raise ParameterError("gen_cuboctahedron layout needs n >= 3")
    if not (r_outer > r_inner > 0.0):
        raise ParameterError("need r_outer > r_inner > 0")
    rings = [r_outer * math.cos(math.pi / n), (r_outer + r_inner) / 2.0, r_inner * math.cos(math.pi / n)]
    for a, b in combinations(rings, 2):
        if abs(a - b) <= TOL_SEPARATION:
            raise ParameterError("ring radii collide; circles would coincide")
    from .graphs import prism_graph  # local: only this layout needs the base graph

    base = prism_graph(n)
    g = build_family("gen_cuboctahedron", n)
    ang = 2.0 * math.pi * np.arange(n) / n
    outer = r_outer * np.column_stack([np.cos(ang), np.sin(ang)])
    inner = r_inner * np.column_stack([np.cos(ang), np.sin(ang)])
    vpos = np.vstack([outer, inner])
    pos = np.array([(vpos[u] + vpos[v]) / 2.0 for u, v in base.edges])
    return Layout(
        g,
        pos,
        {"generator": "gen_cuboctahedron", "n": n, "r_outer": r_outer, "r_inner": r_inner},
    )


# ---------------------------------------------------------------------------
# unit-distance solving


def _edge_arrays(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    e = np.array(g.edges, dtype=int).reshape(-1, 2)
    return e[:, 0], e[:, 1]


def _solve_coordinates(g: Graph, pos0: np.ndarray, max_iter: int) -> np.ndarray:
    eu, ev = _edge_arrays(g)

    def resid(x):
        p = x.reshape(-1, 2)
        d = p[eu] - p[ev]
        return np.hypot(d[:, 0], d[:, 1]) - 1.0

    def jacobian(x):
        p = x.reshape(-1, 2)
        d = p[eu] - p[ev]
        dist = np.hypot(d[:, 0], d[:, 1])
        dist = np.where(dist < 1e-300, 1.0, dist)
        j = np.zeros((len(eu), x.size))
        rows = np.arange(len(eu))
        j[rows, 2 * eu] = d[:, 0] / dist
        j[rows, 2 * eu + 1] = d[:, 1] / dist
        j[rows, 2 * ev] = -d[:, 0] / dist
        j[rows, 2 * ev + 1] = -d[:, 1] / dist
        return j

    x = lm_least_squares(resid, jacobian, pos0.ravel(), max_iter=max_iter)
    return x.reshape(-1, 2)


def _ring_table(orbits: list[list[int]], k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each vertex's ring j and angular offset 2*pi*t/k, where it is orbits[j][t]."""
    ring, t = np.divmod(np.argsort(np.array(orbits).ravel()), k)
    return ring, 2.0 * math.pi * t / k


def _ring_polar(x: np.ndarray, ring: np.ndarray, offset: np.ndarray):
    """Each vertex's radius and the cosine and sine of its angle, from the
    ring variables x = (r_0, phi_0, r_1, phi_1, ...)."""
    a = x[1::2][ring] + offset
    return x[0::2][ring], np.cos(a), np.sin(a)


def _ring_positions(x: np.ndarray, ring: np.ndarray, offset: np.ndarray) -> np.ndarray:
    r, cos, sin = _ring_polar(x, ring, offset)
    return np.column_stack([r * cos, r * sin])


def _solve_orbits(
    g: Graph, ring: np.ndarray, offset: np.ndarray, x0: np.ndarray, max_iter: int
) -> np.ndarray:
    eu, ev = _edge_arrays(g)
    rows = np.arange(len(eu))

    def resid(x):
        p = _ring_positions(x, ring, offset)
        d = p[eu] - p[ev]
        return np.hypot(d[:, 0], d[:, 1]) - 1.0

    def jacobian(x):
        r, cos, sin = _ring_polar(x, ring, offset)
        p = np.column_stack([r * cos, r * sin])
        d = p[eu] - p[ev]
        # math.hypot keeps the solve bit-equal to the per-edge loop it
        # replaced: np.hypot differs from it in the last bit on some inputs
        dist = np.fromiter(map(math.hypot, d[:, 0], d[:, 1]), dtype=float, count=len(d))
        gx, gy = (d / np.where(dist < 1e-300, 1.0, dist)[:, None]).T
        j = np.zeros((len(eu), x.size))
        for ends, sign in ((eu, 1.0), (ev, -1.0)):
            col = 2 * ring[ends]
            c, s = cos[ends], sin[ends]
            j[rows, col] += sign * (gx * c + gy * s)
            j[rows, col + 1] += sign * r[ends] * (-gx * s + gy * c)
        return j

    return lm_least_squares(resid, jacobian, x0, max_iter=max_iter)


def solve_unit_distance(
    g: Graph,
    init: Layout | None = None,
    *,
    seed: int | None = None,
    symmetry: int | list[list[int]] | None = None,
    tol: float = TOL_INCIDENCE,
    max_iter: int = 500,
    restarts: int = 40,
) -> tuple[Layout, float]:
    """Minimize edge-length deviation from 1; returns (layout, max deviation).

    With `init` the solve polishes the given positions. Otherwise one loop
    polishes seeded start layouts until the residual clears tol with no two
    vertices collapsed. A plain solve draws `restarts` random starts. An
    integer `symmetry` k asks for a rotational ansatz: up to six free
    order-k automorphisms are searched, and each one's orbits become
    (radius, phase) ring variables; explicit orbit lists are also accepted.
    Each orbit set's ring table (every vertex's orbit and offset 2*pi*t/k)
    gives positions, residual and Jacobian as array passes, and `restarts`
    ring solves from random ring variables are the starts. Raises
    ConvergenceError, carrying the best residual and the restarts run, when
    no start clears tol.
    """
    from .graphs import structure_report

    if g.size == 0:
        raise ParameterError("unit-distance solve needs at least one edge")
    if not structure_report(g).connected:
        raise ParameterError("unit-distance solve expects a connected graph")
    base_seed = 0 if seed is None else int(seed)

    if init is not None:
        if init.graph.edges != g.edges or init.graph.order != g.order:
            raise ParameterError("init layout belongs to a different graph")
        pos = _solve_coordinates(g, init.pos, max_iter)
        layout = Layout(g, pos, {"method": "polish", "seed": base_seed})
        residual = unit_edge_residual(layout)
        if residual > tol:
            raise ConvergenceError("polish stalled above tolerance", residual=residual)
        layout.meta["residual"] = residual
        return layout, residual

    rng = np.random.default_rng(base_seed)

    if symmetry is None:
        span = 1.0 + 0.25 * math.sqrt(g.order)
        starts = (rng.uniform(-span, span, size=(g.order, 2)) for _ in range(restarts))
        meta, what, over = {"method": "lm"}, "unit-distance solve", ""
    else:
        if isinstance(symmetry, int):
            actions = iso.find_free_cyclic_action(g, symmetry, limit=6)
            if not actions:
                raise ParameterError(f"no free order-{symmetry} symmetry available")
            orbit_sets = [iso.orbits_of(a) for a in actions]
            k = symmetry
        else:
            orbit_sets = [[list(o) for o in symmetry]]
            lengths = {len(o) for o in orbit_sets[0]}
            if len(lengths) != 1:
                raise ParameterError("explicit orbits must share one length")
            k = lengths.pop()
            covered = sorted(v for o in orbit_sets[0] for v in o)
            if covered != list(range(g.order)):
                raise ParameterError("orbits must partition the vertex set")

        def ring_starts():
            for orbits in orbit_sets:
                ring, offset = _ring_table(orbits, k)
                for _ in range(restarts):
                    x0 = np.empty(2 * len(orbits))
                    x0[0::2] = rng.uniform(0.25, 2.2, size=len(orbits))
                    x0[1::2] = rng.uniform(0.0, 2.0 * math.pi, size=len(orbits))
                    yield _ring_positions(_solve_orbits(g, ring, offset, x0, max_iter), ring, offset)

        starts = ring_starts()
        meta, what = {"method": "orbit-lm", "symmetry": k}, "symmetric solve"
        over = f" over {len(orbit_sets)} orbit set" + "s" * (len(orbit_sets) != 1)

    best = math.inf
    runs = 0
    for runs, pos0 in enumerate(starts, 1):
        pos = _solve_coordinates(g, pos0, max_iter)
        layout = Layout(g, pos, {})
        residual = unit_edge_residual(layout)
        best = min(best, residual)
        if residual <= tol and _min_separation(pos) > TOL_SEPARATION:
            layout.meta.update(meta, seed=base_seed, residual=residual)
            return layout, residual
    raise ConvergenceError(
        f"{what} exhausted {runs} restarts{over} (best residual {best:.1e})", residual=best, restarts=runs
    )


# ---------------------------------------------------------------------------
# geometric V-construction


def circles_from_layout(
    layout: Layout, tol: float = TOL_INCIDENCE, allow_degree_two: bool = False
) -> PointCircleConfig:
    """One circle per vertex through its neighbours (geometric V-construction).

    Neighbourhoods must be concyclic within tol; the offending vertex is
    named otherwise. Coinciding circles are refused.
    """
    g = layout.graph
    circles: list[Circle] = []
    for v in range(g.order):
        nbrs = g.adjacency[v]
        if len(nbrs) >= 3:
            circle, res = fit_circle(layout.pos[list(nbrs)])
            if res > tol:
                raise ConcyclicityError(
                    f"neighbourhood of vertex {v} not concyclic (residual {res:.3e})",
                    vertex=v,
                    residual=res,
                )
            circles.append(circle)
        elif len(nbrs) == 2 and allow_degree_two:
            d = [float(np.linalg.norm(layout.pos[w] - layout.pos[v])) for w in nbrs]
            if abs(d[0] - d[1]) > tol:
                raise ConcyclicityError(
                    f"vertex {v} neighbours not equidistant; no canonical circle",
                    vertex=v,
                    residual=abs(d[0] - d[1]),
                )
            circles.append(Circle(float(layout.pos[v][0]), float(layout.pos[v][1]), sum(d) / 2.0))
        else:
            raise ParameterError(
                f"vertex {v} has degree {len(nbrs)}; need >= 3 (or 2 with allow_degree_two)"
            )
    cx, cy, r = _circle_arrays(circles)
    i, j, dist = _pair_distances(np.column_stack([cx, cy]))
    clash = np.flatnonzero((dist <= TOL_SEPARATION) & (np.abs(r[i] - r[j]) <= TOL_SEPARATION))
    if len(clash):
        first = clash[0]
        raise DistinctnessError(f"circles of vertices {i[first]} and {j[first]} coincide")
    incidence = tuple((p, v) for v in range(g.order) for p in g.adjacency[v])
    return PointCircleConfig(
        points=layout.pos.copy(),
        circles=tuple(circles),
        incidence=incidence,
        flags={},
        tols=tol_record(tol),
    )


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


def sorted_center_distances(cfg: PointCircleConfig) -> np.ndarray:
    """Sorted multiset of circle-center distances; a similarity fingerprint."""
    cx, cy, _ = _circle_arrays(cfg.circles)
    return np.sort(_pair_distances(np.column_stack([cx, cy]))[2])


# ---------------------------------------------------------------------------
# (n_3) realization by sampling


def realize_n3(c: IncidenceStructure, seed: int = 0) -> PointCircleConfig:
    """Realize a structure with 3-point blocks via generic points + circumcircles.

    Points are drawn uniformly; a draw is rejected if any two points nearly
    coincide, any three are nearly collinear, or any four nearly concyclic,
    so each block's circumcircle meets exactly its own points.
    """
    if any(len(b) != 3 for b in c.blocks):
        raise ParameterError("realize_n3 needs every block to have exactly 3 points")
    if c.points < 3:
        raise ParameterError("realize_n3 needs at least 3 points")
    rng = np.random.default_rng(seed)
    for _ in range(_RESAMPLE_BUDGET):
        pts = rng.uniform(0.0, 1.0, size=(c.points, 2))
        if not _generic_position(pts):
            continue
        circles = tuple(circumcircle(pts[b[0]], pts[b[1]], pts[b[2]]) for b in c.blocks)
        incidence = tuple((p, k) for k, blk in enumerate(c.blocks) for p in blk)
        return PointCircleConfig(
            points=pts,
            circles=circles,
            incidence=incidence,
            flags={},
            tols=tol_record(),
        )
    raise SamplingError("no generic point set found within budget", seed=seed)


def _index_chunks(n: int, k: int):
    """combinations(range(n), k) as (m, k) index arrays, m doubling up to _MAX_CHUNK."""
    tuples = combinations(range(n), k)
    size = _FIRST_CHUNK
    while True:
        flat = np.fromiter(chain.from_iterable(islice(tuples, size)), dtype=np.intp)
        if len(flat) == 0:
            return
        yield flat.reshape(-1, k)
        size = min(2 * size, _MAX_CHUNK)


def _generic_position(pts: np.ndarray, margin: float = 1e-4) -> bool:
    """No two points within margin, no three nearly collinear, no four nearly concyclic.

    Pairs, then triples, then quads are tested chunk by chunk, so most
    degenerate draws are refused within the first small chunks, and memory
    stays bounded where C(n, 4) runs into millions.
    """
    x, y = pts[:, 0], pts[:, 1]
    # float_power and the per-row dot product round as the scalar ** 2 and
    # np.linalg.norm of a per-tuple loop do, so every decision matches it
    lifted = np.column_stack([np.float_power(x, 2) + np.float_power(y, 2), x, y, np.ones(len(pts))])
    for i, j in map(np.transpose, _index_chunks(len(pts), 2)):
        d = pts[i] - pts[j]
        if np.any(np.sqrt((d[:, None, :] @ d[:, :, None]).ravel()) <= margin):
            return False
    for i, j, k in map(np.transpose, _index_chunks(len(pts), 3)):
        if np.any(np.abs((x[j] - x[i]) * (y[k] - y[i]) - (y[j] - y[i]) * (x[k] - x[i])) <= margin):
            return False
    # four concyclic iff the lifted 4x4 determinant vanishes
    for quad in _index_chunks(len(pts), 4):
        if np.any(np.abs(np.linalg.det(lifted[quad])) <= margin):
            return False
    return True


# ---------------------------------------------------------------------------
# flags


def _meet_points(
    cx: np.ndarray, cy: np.ndarray, r: np.ndarray, cluster_tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Every pairwise circle intersection in one array pass.

    Pairs come in combinations(range(C), 2) order: per pair base+off, then
    base-off, and the base alone for a pair tangent within cluster_tol; a
    concentric or disjoint pair gives nothing.
    """
    i, j = np.triu_indices(len(cx), k=1)
    dx, dy = cx[j] - cx[i], cy[j] - cy[i]
    # math.hypot as in the scalar per-pair oracle: np.hypot differs from it
    # in the last bit on some inputs
    d = np.fromiter(map(math.hypot, dx, dy), dtype=float, count=len(dx))
    apart = d > 1e-15
    i, j, dx, dy, d = i[apart], j[apart], dx[apart], dy[apart], d[apart]
    alpha = (d * d + r[i] * r[i] - r[j] * r[j]) / (2.0 * d)
    h2 = r[i] * r[i] - alpha * alpha
    eps = cluster_tol * cluster_tol
    meet = h2 >= -eps
    i, dx, dy, d, alpha, h2 = i[meet], dx[meet], dy[meet], d[meet], alpha[meet], h2[meet]
    ux, uy = dx / d, dy / d
    bx, by = cx[i] + alpha * ux, cy[i] + alpha * uy
    two = h2 > eps
    h = np.sqrt(np.where(two, h2, 0.0))
    offx, offy = -uy * h, ux * h
    keep = np.column_stack([np.ones_like(two), two]).ravel()
    x = np.column_stack([np.where(two, bx + offx, bx), bx - offx]).ravel()[keep]
    y = np.column_stack([np.where(two, by + offy, by), by - offy]).ravel()[keep]
    return x, y


# grid cell (a, b) hashes to a * _GRID_STRIDE + b; cell numbers stay within 2**30 + 1
_GRID_STRIDE = 1 << 32
_AROUND = [a * _GRID_STRIDE + b for a in (-1, 0, 1) for b in (-1, 0, 1)]


def _cluster(x: np.ndarray, y: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Greedy union of the points (x, y) within tol; returns cluster centroids.

    Points are taken in lexicographic order. Each joins the earliest-created
    cluster whose running centroid lies within tol of it, or else starts a
    new cluster; centroids come back in creation order. Clusters are hashed
    by the grid cell of their centroid and move cell when it moves, so a
    point only looks at the 3x3 cells around its own.
    """
    if len(x) == 0:
        return np.empty(0), np.empty(0)
    # Cells a hair wider than tol, and wide enough that cell numbers stay
    # below 2**30, keep anything within tol in a neighbouring cell despite
    # rounding in the division.
    reach = float(max(np.max(np.abs(x)), np.max(np.abs(y))))
    cell = max(tol * (1.0 + 2.0**-20), reach * 2.0**-30) or 1.0
    order = np.lexsort((y, x))
    xs, ys = x[order], y[order]
    gx = np.floor(xs / cell).astype(np.int64).tolist()
    gy = np.floor(ys / cell).astype(np.int64).tolist()
    grid: dict[int, list[int]] = {}
    sx: list[float] = []
    sy: list[float] = []
    count: list[int] = []
    mx: list[float] = []
    my: list[float] = []
    key: list[int] = []
    for px, py, ax, ay in zip(xs.tolist(), ys.tolist(), gx, gy):
        home = ax * _GRID_STRIDE + ay
        best = -1
        for off in _AROUND:
            for k in grid.get(home + off, ()):
                if (best < 0 or k < best) and math.hypot(px - mx[k], py - my[k]) <= tol:
                    best = k
        if best < 0:
            grid.setdefault(home, []).append(len(sx))
            sx.append(px)
            sy.append(py)
            count.append(1)
            mx.append(px)
            my.append(py)
            key.append(home)
            continue
        sx[best] += px
        sy[best] += py
        count[best] += 1
        mx[best] = sx[best] / count[best]
        my[best] = sy[best] / count[best]
        moved = math.floor(mx[best] / cell) * _GRID_STRIDE + math.floor(my[best] / cell)
        if moved != key[best]:
            grid[key[best]].remove(best)
            grid.setdefault(moved, []).append(best)
            key[best] = moved
    return np.array(mx), np.array(my)


def _distance_blocks(px: np.ndarray, py: np.ndarray, qx: np.ndarray, qy: np.ndarray):
    """Yield (rows, |p[rows] - q|) in row blocks of about _RESIDUAL_BLOCK entries.

    Every block reuses one buffer, which the caller may overwrite."""
    step = max(1, _RESIDUAL_BLOCK // max(1, len(qx)))
    dx = np.empty((min(step, len(px)), len(qx)))
    dy = np.empty_like(dx)
    for start in range(0, len(px), step):
        rows = slice(start, start + step)
        m = min(step, len(px) - start)
        np.subtract.outer(px[rows], qx, out=dx[:m])
        np.subtract.outer(py[rows], qy, out=dy[:m])
        yield rows, np.hypot(dx[:m], dy[:m], out=dx[:m])


def check_flags(cfg: PointCircleConfig, tols: dict | None = None) -> PointCircleConfig:
    """Evaluate proper / isometric / lineal / determining / perfect.

    determining follows the meet-point definition: cluster all pairwise
    circle intersections, keep the clusters where more than two circles
    pass, and demand that set to coincide with the configuration points.

    Cost, for C circles, n points and M <= C(C-1) meet points: array
    passes over the C(C-1)/2 circle pairs and the (C, n) incidence matrix;
    one Python pass over the meet points to cluster them; and numpy
    residuals of every cluster centroid against every circle, O(M C),
    taken in row blocks of _RESIDUAL_BLOCK = 16384 entries, so that no
    (M, C) matrix is held. The clustering is greedy: meet points are taken
    in lexicographic order, and each joins the earliest-created cluster
    whose running centroid lies within the cluster tolerance. A grid of
    cells one tolerance wide finds those clusters, so a meet point costs
    O(1) unless many clusters crowd its 3x3 cells. Hypercube(7), 128
    circles, takes about 0.1 s on a 2-CPU container.
    """
    if len(cfg.circles) == 0 or len(cfg.points) == 0:
        raise ParameterError("flag check needs a non-empty configuration")
    t = dict(cfg.tols)
    if tols:
        t.update(tols)
    tol_inc = float(t.get("incidence", TOL_INCIDENCE))
    tol_sep = float(t.get("separation", TOL_SEPARATION))
    tol_clu = float(t.get("cluster", TOL_CLUSTER))
    tol_rad = float(t.get("radius_spread", tol_inc))
    tol_through = max(tol_inc, tol_clu)
    cx, cy, r = _circle_arrays(cfg.circles)
    pts = cfg.points

    degenerate = _min_separation(pts) <= tol_sep

    isometric = bool(r.max() - r.min() <= tol_rad)

    # proper: some point on every circle exists iff it lies on the first two
    qx, qy = _meet_points(cx[:2], cy[:2], r[:2], tol_clu)
    on_all = np.abs(np.hypot(qx[:, None] - cx, qy[:, None] - cy) - r) <= tol_through
    proper = len(cfg.circles) > 1 and not np.any(np.all(on_all, axis=1))

    # geometric incidence of config points on circles
    on_circle = np.abs(np.hypot(pts[:, 0] - cx[:, None], pts[:, 1] - cy[:, None]) - r[:, None]) <= tol_inc
    shared = on_circle.astype(np.int64) @ on_circle.T.astype(np.int64)
    np.fill_diagonal(shared, 0)
    lineal = bool(shared.max() <= 1)

    determining = False
    if not degenerate:
        mx, my = _cluster(*_meet_points(cx, cy, r, tol_clu), tol_clu)
        through = np.empty(len(mx), dtype=np.int64)
        for rows, dist in _distance_blocks(mx, my, cx, cy):
            residual = np.abs(np.subtract(dist, r, out=dist), out=dist)
            through[rows] = np.count_nonzero(residual <= tol_through, axis=1)
        tx, ty = mx[through > 2], my[through > 2]
        matched = np.zeros(len(pts), dtype=bool)
        for rows, dist in _distance_blocks(tx, ty, pts[:, 0], pts[:, 1]):
            hit = np.argmin(dist, axis=1)
            if np.any(dist[np.arange(len(hit)), hit] > max(tol_clu, tol_sep)):
                break  # a triple point off the configuration
            matched[hit] = True
        else:
            determining = bool(matched.all())

    flags = {
        "proper": proper,
        "isometric": isometric,
        "lineal": lineal,
        "determining": determining,
        "perfect": bool(lineal and isometric and determining and not degenerate),
        "degenerate": degenerate,
    }
    return PointCircleConfig(
        points=cfg.points.copy(),
        circles=cfg.circles,
        incidence=cfg.incidence,
        flags=flags,
        tols=t,
    )


# ---------------------------------------------------------------------------
# inversion


def invert_pointline(points, lines, center, radius: float = 1.0) -> PointCircleConfig:
    """Circle inversion of a point-line configuration.

    Every line misses the center, so its image is a circle through the
    center; the output is therefore never proper, which is the point of the
    construction. Incidences carry over verbatim.
    """
    pts = np.asarray(points, dtype=float)
    ctr = np.asarray(center, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ParameterError("points must be an (n, 2) table")
    if ctr.shape != (2,):
        raise ParameterError("center must be a planar point")
    if radius <= 0:
        raise ParameterError("inversion radius must be positive")
    scale = max(1.0, float(np.max(np.abs(pts))))
    lines_norm: list[tuple[int, ...]] = []
    for line in lines:
        idx = tuple(int(p) for p in line)
        if len(idx) < 2 or len(set(idx)) != len(idx):
            raise ParameterError(f"line {idx} needs at least two distinct points")
        if any(p < 0 or p >= len(pts) for p in idx):
            raise ParameterError(f"line {idx} outside point range")
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
    for i, p in enumerate(pts):
        if np.linalg.norm(p - ctr) <= TOL_SEPARATION:
            raise ParameterError(f"inversion center coincides with point {i}")

    def invert(p: np.ndarray) -> np.ndarray:
        d = p - ctr
        return ctr + (radius * radius / float(d @ d)) * d

    images = np.array([invert(p) for p in pts])
    circles = []
    for idx in lines_norm:
        circles.append(circumcircle(images[idx[0]], images[idx[1]], ctr))
    incidence = tuple((p, k) for k, idx in enumerate(lines_norm) for p in idx)
    cfg = PointCircleConfig(
        points=images,
        circles=tuple(circles),
        incidence=incidence,
        flags={},
        tols=tol_record(),
    )
    worst = cfg.max_incidence_residual()
    if worst > 1e-9 * scale:
        raise DegeneracyError(f"inverted incidences drift ({worst:.3e}); input too degenerate")
    return cfg
