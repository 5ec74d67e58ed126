"""Layouts, the first stage of a planar realization: vertex positions from
which realization reads a point-circle configuration, one circle per vertex
through its neighbours.

The polygon and hypercube drawings have unit edges in closed form, and the
gen_cuboctahedron midpoint drawing has concyclic neighbourhoods.
solve_unit_distance draws any connected graph with unit edges, from seeded
starts that one Levenberg-Marquardt loop (_solve) polishes. Of the CLI
commands only realize loads this module.
"""

from __future__ import annotations

import math
from itertools import chain, combinations, islice

from .errors import ConvergenceError, ParameterError, SamplingError
from .graphs import Graph, VertexMap, _connected, _count, _integer, _shown, _unchecked, build_family
from .graphs import cartesian_factors, prism_graph

# realization before numpy, for the reason spatial gives
from .realization import TOL_INCIDENCE, TOL_SEPARATION, Layout, _RESAMPLE_BUDGET, _finite, _near_pairs
from .realization import _pair_indices, _row_norms, _seed

import numpy as np

# Levenberg-Marquardt iterations per solve
_LM_MAX_ITER = 500
# relative slack when _rings_rule_out compares ring radii
_RADIUS_SLACK = 1e-9


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
    """Positions polished by Levenberg-Marquardt towards unit edges (eu, ev)
    = edges, from the start x0: a (V, 2) float array of positions, or with a
    map P the variables z whose positions are P @ z. The residual is the
    plain one at those positions, and the Jacobian the plain one times P.

    The damping follows the fixed x10 / /10 schedule from 1e-3, and keeps
    rank-deficient Jacobians (translation and rotation gauge freedom)
    solvable; the loop stops when the gradient falls below 1e-12, the step
    below 1e-14, or after _LM_MAX_ITER iterations. Each point is measured
    once, as edge differences, lengths and residual, and the Jacobian,
    gradient and J^T J are built from that measurement only when the point
    is accepted; a rejected step only raises the damping. The Jacobian's
    nonzero cells are fixed, so its buffer is allocated once per call. A
    plain start exact enough that LM would return it unchanged comes back
    as the object x0 itself: the caller can tell that no position moved.
    """
    eu, ev = edges

    def measure(x):
        p = (x if P is None else P @ x).reshape(-1, 2)
        d = p.take(eu, axis=0) - p.take(ev, axis=0)
        dist = np.hypot(d[:, 0], d[:, 1])
        return d, dist, dist - 1.0

    def linearize(d, dist, r):
        unit = d / np.where(dist < 1e-300, 1.0, dist)[:, None]
        np.put(j, u_cells, unit)
        np.put(j, v_cells, np.negative(unit, out=unit))
        jp = j if P is None else j @ P
        return jp.T @ r, jp.T @ jp

    x = np.array(x0, dtype=float).ravel()
    d, dist, r = measure(x)
    # each Jacobian entry of a plain solve is a component of a unit
    # direction, so no gradient entry exceeds the largest degree times
    # max|r|; under a quarter of the 1e-12 gradient stop, LM would return
    # the start as it is
    if P is None and np.bincount(np.concatenate(edges)).max() * np.max(np.abs(r)) < 0.25e-12:
        return x0
    width = x.size if P is None else len(P)
    # each edge row's cells for u's x and y, and for v's, in the flat plain Jacobian
    row = width * np.arange(len(eu))[:, None]
    u_cells, v_cells = row + 2 * eu[:, None] + [0, 1], row + 2 * ev[:, None] + [0, 1]
    j = np.zeros((len(eu), width))
    cost = float(r @ r)
    lam = 1e-3
    eye = np.eye(x.size)
    grad, a = linearize(d, dist, r)
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
        d, dist, r = measure(x_new)
        cost_new = float(r @ r)
        if cost_new < cost:
            x, cost = x_new, cost_new
            lam = max(lam / 10.0, 1e-15)
            grad, a = linearize(d, dist, r)
        else:
            lam *= 10.0
            if lam > 1e18:
                break
    return (x if P is None else P @ x).reshape(-1, 2)


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

    One loop hands start layouts to _solve, the one Levenberg-Marquardt
    loop for plain positions and ring variables alike, until a result
    clears TOL_INCIDENCE with no two vertices collapsed. g's edge table is built once, and every
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
    for a fixed map P (_ring_map). A ring solve is _solve at P @ z, its
    Jacobian the plain one times P, and `restarts` of them, each from
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
