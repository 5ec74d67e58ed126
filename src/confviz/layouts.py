"""Layouts, the first stage of a planar realization: vertex positions from
which realization reads a point-circle configuration, one circle per vertex
through its neighbours.

The polygon and hypercube drawings have unit edges in closed form, and the
gen_cuboctahedron midpoint drawing has concyclic neighbourhoods.
solve_unit_distance draws any connected graph with unit edges, from seeded
starts that one Levenberg-Marquardt loop (_solve) polishes: on the edges, or
for a rotational ansatz on one weighted row per edge orbit (_quotient). Of
the CLI commands only realize loads this module.
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
            meta = {"generator": "hypercube", "d": d, "angles": table.tolist(), "seed": seed, "attempt": attempt}
            return Layout(g, pos, meta)
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
    unit = np.column_stack([np.cos(ang), np.sin(ang)])
    vpos = np.vstack([r_outer * unit, r_inner * unit])
    u, v = _edge_arrays(base)
    pos = (vpos.take(u, axis=0) + vpos.take(v, axis=0)) / 2.0
    return Layout(g, pos, {"generator": "gen_cuboctahedron", "n": n, "r_outer": r_outer, "r_inner": r_inner})


# ---------------------------------------------------------------------------
# unit-distance solving


def _edge_arrays(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    e = np.fromiter(chain.from_iterable(g.edges), dtype=int, count=2 * g.size).reshape(-1, 2)
    return e[:, 0], e[:, 1]


def _quotient(edges: tuple[np.ndarray, np.ndarray], orbits, k: int) -> tuple[np.ndarray, ...]:
    """The rows (a, b, s, w) of the ring ansatz that puts vertex orbits[j][t]
    at R(2*pi*t/k) z_j: the voltage graph of the orbits with Z_k offsets
    (Gross and Tucker, Topological Graph Theory, 1987). Row i is the edge
    from orbits[a][0] to orbits[b][s], which the rotation turns into w edges
    of one length: k of them, or k/2 for a chord (a = b) of k/2 steps. Of
    each edge orbit the row keeps the edge whose lower-ring end sits at step
    0, and of a chord's the one whose other end sits at step 1..k/2, so the
    edges need no grouping.
    """
    slot = np.argsort(np.ravel(orbits))  # vertex v is step slot[v] % k of orbit slot[v] // k
    fu, fv = slot.take(edges[0]), slot.take(edges[1])
    (a, ta), (b, s) = np.divmod(np.minimum(fu, fv), k), np.divmod(np.maximum(fu, fv), k)
    keep = (ta == 0) & ((a < b) | (2 * s <= k))
    a, b, s = a[keep], b[keep], s[keep]
    return a, b, s, np.where((a == b) & (2 * s == k), k // 2, k)


def _solve(rows: tuple[np.ndarray, ...], k: int, x0: np.ndarray) -> np.ndarray:
    """Variables polished by Levenberg-Marquardt towards unit edges, from
    the start x0, an (m, 2) float array: the ring representatives z_j of
    the rows (a, b, s, w) of _quotient, or with k = 1 and the edges as rows
    (s = 0, w = 1) the positions. Row i's residual is sqrt(w) (|z_a -
    R(2*pi*s/k) z_b| - 1), so the cost, gradient and J^T J are those of
    every edge at the positions the rings give. With k = 1 the turn is
    1 + 0j and the weight 1, which keeps every bit of the plain solve.

    The damping follows the fixed x10 / /10 schedule from 1e-3, and keeps
    rank-deficient Jacobians (translation and rotation gauge freedom)
    solvable; the loop stops when the gradient falls below 1e-12, the step
    below 1e-14, or after _LM_MAX_ITER iterations. Each point is measured
    once, and the Jacobian, gradient and J^T J are built from that
    measurement only when the point is accepted. The Jacobian's nonzero
    cells are fixed, so its buffer is allocated once per call.
    """
    a, b, s, w = rows
    turn = np.exp(2j * math.pi / k * s)
    root = np.sqrt(w)
    # row i's gradient in z_a and in z_b, as complex numbers, is the unit
    # direction u times these; a chord's two ends share one cell
    back = root * turn.conj()
    at_a, at_b = np.where(a == b, root - back, root), -back
    x = np.array(x0, dtype=float).ravel()
    row = x.size // 2 * np.arange(len(a))
    a_cells, b_cells = row + a, row + b
    j = np.zeros((len(a), x.size))
    cells = j.view(complex)

    def measure(x):
        z = x.view(complex)
        d = (z.take(a) - turn * z.take(b)).view(float).reshape(-1, 2)
        dist = np.hypot(d[:, 0], d[:, 1])
        return d, dist, root * (dist - 1.0)

    def linearize(d, dist, r):
        unit = (d / np.where(dist < 1e-300, 1.0, dist)[:, None]).view(complex).ravel()
        # b first, so that a chord's a cell holds both ends' sum
        np.put(cells, b_cells, at_b * unit)
        np.put(cells, a_cells, at_a * unit)
        return j.T @ r, j.T @ j

    d, dist, r = measure(x)
    cost = float(r @ r)
    lam = 1e-3
    eye = np.eye(x.size)
    grad, h = linearize(d, dist, r)
    for _ in range(_LM_MAX_ITER):
        if np.max(np.abs(grad)) < 1e-12:
            break
        try:
            step = np.linalg.solve(h + lam * eye, -grad)
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
            grad, h = linearize(d, dist, r)
        else:
            lam *= 10.0
            if lam > 1e18:
                break
    return x.reshape(-1, 2)


def _ring_start(rng: np.random.Generator, m: int) -> np.ndarray:
    """m ring representatives drawn as radii, then phases, as (x, y) pairs."""
    r = rng.uniform(0.25, 2.2, size=m)
    phi = rng.uniform(0.0, 2.0 * math.pi, size=m)
    return np.column_stack([r * np.cos(phi), r * np.sin(phi)])


def _rings_rule_out(rows: tuple[np.ndarray, ...], k: int) -> bool:
    """True when no unit-distance drawing puts each orbit on a ring, read off
    the rows (a, b, s, w) of _quotient. A chord row (a = b) forces ring a's
    radius to 1 / (2 sin(pi s / k)), at least 1/2. The orbits are ruled out
    when one ring's chords force two radii, or when a row joins rings of
    forced radii r_a and r_b with |r_a - r_b| > 1 (r_a + r_b < 1 cannot
    happen). Comparisons allow _RADIUS_SLACK relative, so boundary cases
    such as GP(10,3), whose rings differ by exactly 1, are kept. A necessary
    condition only: orbits that pass may still have no drawing.
    """
    a, b, s, _ = rows
    forced = {}
    for ring, steps in zip(a[a == b].tolist(), s[a == b].tolist()):
        r = 0.5 / math.sin(math.pi * steps / k)
        if abs(forced.setdefault(ring, r) - r) > _RADIUS_SLACK * r:
            return True
    return any(
        abs(forced[u] - forced[v]) > 1.0 + _RADIUS_SLACK * (forced[u] + forced[v])
        for u, v in zip(a.tolist(), b.tolist())
        if u in forced and v in forced
    )


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


def _product_start(g: Graph, edges: tuple[np.ndarray, np.ndarray], seed: int, restarts: int):
    """Yield the drawing of g as the product of its factors' drawings, with
    its meta, True and its residual on g's edges, when g factors and the
    drawing is clean; else yield nothing.

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
    pos = pos[list(witness.image)]
    yield pos, {"method": "product", "factors": [f.order for f in factors]}, True, _edge_residual(pos, *edges)


def solve_unit_distance(
    g: Graph,
    *,
    seed: int | None = None,
    symmetry: int | None = None,
    restarts: int = 40,
) -> tuple[Layout, float]:
    """Minimize edge-length deviation from 1; returns (layout, max deviation).

    One loop hands starts to _solve until a result clears TOL_INCIDENCE with
    no two vertices collapsed. Each drawing is measured once, by
    _edge_residual on g's edge table, and only the one returned becomes a
    Layout. A plain solve draws `restarts` seeded random starts, after the
    product of its factors' drawings when g is a Cartesian product
    (graphs.cartesian_factors); the generator is seeded only when a random
    start is due. `symmetry`, an integer k, asks for a rotational ansatz:
    for each of up to six free order-k automorphisms, taken one at a time
    from iso.find_free_cyclic_action, `restarts` ring solves run _solve on
    the rows of _quotient, from radii and then phases drawn at random. An
    orbit set that _rings_rule_out refuses runs no solve, but draws as many
    doubles as its starts would take, so later sets keep theirs. Only a
    ring solution within TOL_INCIDENCE is polished, so a symmetric result is
    a rotational drawing. A start exact enough that LM would return it
    unchanged, as product starts and ring solutions mostly are, skips the
    polish, and a product start that does also skips the _near_pairs sweep,
    as its last fold tested every pair already.
    Raises ConvergenceError when no start passes, carrying the best residual
    (None when no start ran), the starts run, the orbit sets ruled out and
    the failed starts by class: collapsed (two vertices within
    TOL_SEPARATION), above tolerance, or a ring solution above tolerance.
    Its message names the classes and the best residual of the starts that
    did not collapse. seed and restarts are integers >= 0, and seed None
    reads as 0. The result records in Layout._verified the graph and the
    position bytes it was verified on.
    """
    if g.size == 0:
        raise ParameterError("unit-distance solve needs at least one edge")
    if not _connected(g):
        raise ParameterError("unit-distance solve expects a connected graph")
    base_seed = _seed(seed)
    restarts = _count(restarts, "restarts")
    edges = _edge_arrays(g)
    plain = (*edges, 0, 1)  # the edges as rows, with no turn and weight 1
    # a symmetric solve counts its orbit sets, and those ruled out, as they pass
    sets = skipped = None

    if symmetry is None:

        def drawn():
            rng = np.random.default_rng(base_seed)
            span = 1.0 + 0.25 * math.sqrt(g.order)
            for _ in range(restarts):
                # a random start is no exact one: its residual reads as inf
                yield rng.uniform(-span, span, size=(g.order, 2)), {"method": "lm"}, False, math.inf

        starts = chain(_product_start(g, edges, base_seed, restarts), drawn())
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
                rows = _quotient(edges, orbits, k)
                if _rings_rule_out(rows, k):
                    skipped += 1
                    # the doubles its restarts' uniform draws would take, so
                    # later sets keep their starts
                    rng.random(2 * m * restarts)
                    continue
                # per set, as only a k with an action is sure to fit a float
                turns = np.exp(2j * math.pi / k * np.arange(k))
                for _ in range(restarts):
                    z = _solve(rows, k, _ring_start(rng, m))
                    pos = np.empty((g.order, 2))
                    pos[np.ravel(orbits)] = (z.view(complex) * turns).view(float).reshape(-1, 2)
                    # a ring solution above tolerance fails here: a polish
                    # from it would leave the rotational drawing
                    residual = _edge_residual(pos, *edges)
                    meta = {"method": "orbit-lm", "symmetry": k} if residual <= TOL_INCIDENCE else None
                    yield pos, meta, False, residual

        starts = ring_starts()
        what = "symmetric solve"

    # LM's first gradient entry is at most the largest degree times the
    # largest residual, which _edge_residual gives within two ulps: under a
    # quarter of the 1e-12 gradient stop, LM would return the start as it is
    degree = np.bincount(np.concatenate(edges)).max()
    failed = dict.fromkeys(("collapsed", "above tolerance", "above tolerance on the rings"), 0)
    best = best_open = math.inf
    runs = 0
    # a start with meta None has failed already and is counted as it stands;
    # a separated one has passed the separation test, which holds while no
    # polish moves it
    for runs, (pos, meta, separated, residual) in enumerate(starts, 1):
        if meta is not None and degree * residual >= 0.25e-12:
            pos = _solve(plain, 1, pos)
            residual, separated = _edge_residual(pos, *edges), False
        best = min(best, residual)
        if residual > TOL_INCIDENCE:
            failed["above tolerance" if meta is not None else "above tolerance on the rings"] += 1
            best_open = min(best_open, residual)
        elif separated or not _near_pairs(*pos.T, TOL_SEPARATION)[0].size:
            # pos is a finite (V, 2) float array that only this solve holds,
            # and meta JSON-safe
            meta = dict(meta, seed=base_seed, residual=residual)
            return _unchecked(Layout, graph=g, pos=pos, meta=meta, _verified=(g, pos.tobytes())), residual
        else:
            failed["collapsed"] += 1
    summary = f"exhausted {runs} restart{'s' * (runs != 1)}" if runs else "ran 0 restarts"
    if sets is not None:
        if not sets:
            raise ParameterError(f"no free order-{_shown(k)} symmetry available")
        over = f"{sets} orbit set" + "s" * (sets != 1)
        if skipped == sets:
            summary = f"ran 0 restarts: ring radii rule out {skipped} of {over}"
        else:
            summary += f" over {over}" + f", {skipped} ruled out by ring radii" * (skipped > 0)
    if runs:
        summary += ": " + ", ".join(f"{count} {name}" for name, count in failed.items() if count)
    if best_open < math.inf:
        summary += f" (best residual {best_open:.1e})"
    best = best if runs else None  # with no start run there is no residual
    raise ConvergenceError(f"{what} {summary}", residual=best, restarts=runs, skipped=skipped, failed=failed)
