"""Independent reference implementations used to freeze expected values.

The graph helpers work on plain (order, edges) data and deliberately avoid
the library's own algorithms, so tests compare two separately written
computations instead of a function against itself. The scalar circle
intersection and flag check, the least-squares loop, the edge residual,
the rotational-ansatz solve and the hypercube position loop are the loops
that the library's array passes replaced; so are, after the JSON emitter
that branched on numpy types, the scalar circumcircle with its per-block,
per-line and per-circle callers and the Circle objects that every circle
set was held as, spatial's per-pair, per-plane and
per-circle loops with the per-vertex coplanarity fit and the Plane and
SphereCircle objects they built, and the per-vertex least-squares circle
fit that circles_from_layout ran before its circumcircle pass. The Cartesian factor
split with a component walk per edge class is the version that its vertex
union-find replaced, and the line graph that looked up each incident edge by
its endpoints and sorted twice is the version that one pairing pass replaced.
The incidence stages that built the Levi graph are kept
as they were: its components by breadth-first walk, the pairing point i <->
block i checked as a Levi automorphism before the involution search, and the
identity witness checked as an isomorphism onto the cover. The Kronecker
report that counted the cover's components by union-find over its edges, and
the lineality test that checked point pairs one at a time, are the versions
that one BFS over the graph and one set update per block replaced. The free cyclic action search that scanned every vertex for each
orbit step is the version that the scan of one distance layer replaced. The 1-WL refinement with
individualisation that isomorphic and find_swap_involution ran is the engine
that their search as free order-2 actions replaced. The ring solve in polar
(radius, phase) variables is the version that the ring map in orbit
representatives replaced; tests hold it to the same outcomes, not bits. The SVG
renderer that grew its viewBox one element at a time, and the CO(n) layout
that took one prism edge midpoint at a time, are the versions that array
passes replaced. The dense (C, n) residual matrix is the version that one
sparse point-on-circle query replaced in the flag check and the sampler.
Tests hold each pair to the same answers.
"""

import json
import math
from dataclasses import dataclass
from functools import reduce
from itertools import combinations, islice, permutations
from typing import Any

import numpy as np

from confviz import iso, realization
from confviz.errors import (
    AdmissibilityError,
    CapacityError,
    ConcyclicityError,
    ConvergenceError,
    DegeneracyError,
    DistinctnessError,
    ParameterError,
    PolePlacementError,
    SamplingError,
)
from confviz.graphs import (
    Bipartition,
    Graph,
    VertexMap,
    _class_roots,
    cartesian_product,
    is_admissible,
    kronecker_cover,
    prism_graph,
    structure_report,
)
from confviz.incidence import IncidenceStructure, KroneckerReport, levi_graph, v_construct
from confviz.realization import (
    _RESAMPLE_BUDGET,
    _SAMPLE_MARGIN,
    TOL_CLUSTER,
    TOL_INCIDENCE,
    TOL_SEPARATION,
    Layout,
    PointCircleConfig,
    _edge_arrays,
    _float_table,
)
from confviz.spatial import _COLLINEAR_FIT, PointPlaneConfig, PolytopeSkeleton, _fit_planes


@dataclass(frozen=True)
class Circle:
    """One circle, as the scalar loops below read it. It iterates as the
    (cx, cy, r) row that PointCircleConfig takes."""

    cx: float
    cy: float
    r: float

    def __post_init__(self):
        if not (math.isfinite(self.cx) and math.isfinite(self.cy) and math.isfinite(self.r)):
            raise ParameterError("circle parameters must be finite")
        if self.r <= 0:
            raise ParameterError("circle radius must be positive")

    def __iter__(self):
        return iter((self.cx, self.cy, self.r))

    @property
    def center(self) -> np.ndarray:
        return np.array([self.cx, self.cy])

    def residual(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        return np.hypot(pts[:, 0] - self.cx, pts[:, 1] - self.cy) - self.r


def circles_of(cfg: PointCircleConfig) -> list[Circle]:
    """A configuration's circle table as Circle objects."""
    return [Circle(*row) for row in cfg.circles.view(float).reshape(-1, 3).tolist()]


def circle_arrays(circles) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """cx, cy and r of Circle objects or circle-table rows, as three float arrays."""
    table = np.array([tuple(c) for c in circles], dtype=float).reshape(-1, 3)
    return table[:, 0], table[:, 1], table[:, 2]


def adjacency(order, edges):
    adj = [set() for _ in range(order)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def brute_girth(order, edges):
    """Shortest cycle via edge removal + BFS between the endpoints."""
    adj = adjacency(order, edges)
    best = None
    for u, v in edges:
        seen = {u: 0}
        queue = [u]
        while queue:
            nxt = []
            for x in queue:
                for y in adj[x]:
                    if (x, y) in ((u, v), (v, u)):
                        continue
                    if y not in seen:
                        seen[y] = seen[x] + 1
                        nxt.append(y)
            queue = nxt
        if v in seen:
            cyc = seen[v] + 1
            if best is None or cyc < best:
                best = cyc
    return math.inf if best is None else best


def tensor_double_cover(order, edges):
    """Tensor product with a single edge, vertex (v, i) encoded as i*order + v."""
    out = set()
    for u, v in edges:
        out.add(tuple(sorted((u, order + v))))
        out.add(tuple(sorted((v, order + u))))
    return tuple(sorted(out))


def is_automorphism(order, edges, perm):
    es = {tuple(sorted(e)) for e in edges}
    return all(tuple(sorted((perm[u], perm[v]))) in es for u, v in es)


def brute_swap_involutions(order, edges, sides):
    """All order-2 automorphisms exchanging the two sides; factorial cost."""
    out = []
    for perm in permutations(range(order)):
        if any(sides[v] == sides[perm[v]] for v in range(order)):
            continue
        if any(perm[perm[v]] != v for v in range(order)):
            continue
        if is_automorphism(order, edges, perm):
            out.append(perm)
    return out


# ---------------------------------------------------------------------------
# test-only helpers: a bipartition's checks and classes, the side swap with
# the fibre candidate tried first, a map's inverse and order, and the common
# degree of a regular graph. No library stage calls them.


def bipartition_valid_for(parts: Bipartition, g: Graph) -> bool:
    if len(parts.sides) != g.order:
        return False
    return all(parts.sides[u] != parts.sides[v] for u, v in g.edges)


def bipartition_classes(parts: Bipartition) -> tuple[tuple[int, ...], tuple[int, ...]]:
    zero = tuple(v for v, s in enumerate(parts.sides) if s == 0)
    one = tuple(v for v, s in enumerate(parts.sides) if s == 1)
    return zero, one


def bipartite_swap_involution(g: Graph, parts: Bipartition) -> VertexMap | None:
    """Order-two automorphism exchanging the two sides of parts, if any.

    The fiber candidate i <-> i + n/2 is tried first since covers are built
    with that layout; otherwise iso.find_swap_involution runs.
    """
    if not bipartition_valid_for(parts, g):
        raise ParameterError("parts is not a valid bipartition of g")
    zero, one = bipartition_classes(parts)
    if len(zero) != len(one):
        return None
    half = g.order // 2
    if g.order % 2 == 0 and zero == tuple(range(half)):
        candidate = VertexMap(tuple((v + half) % g.order for v in range(g.order)))
        if candidate.is_automorphism(g):
            return candidate
    return iso.find_swap_involution(g, parts.sides)


def inverse(vm: VertexMap) -> VertexMap:
    inv = [0] * len(vm.image)
    for v, w in enumerate(vm.image):
        inv[w] = v
    return VertexMap(tuple(inv))


def permutation_order(vm: VertexMap) -> int:
    return math.lcm(*map(len, vm.cycles()))


def regular_degree(g: Graph) -> int | None:
    degrees = {len(a) for a in g.adjacency}
    return degrees.pop() if len(degrees) == 1 else None


def has_four_cycle_brute(order, edges):
    es = {tuple(sorted(e)) for e in edges}

    def adj(a, b):
        return tuple(sorted((a, b))) in es

    for quad in combinations(range(order), 4):
        for mid in permutations(quad[1:]):
            a, b, c, d = quad[0], *mid
            if adj(a, b) and adj(b, c) and adj(c, d) and adj(d, a):
                return True
    return False


def circle_residuals(cx, cy, r, pts):
    return [abs(((x - cx) ** 2 + (y - cy) ** 2) ** 0.5 - r) for x, y in pts]


# ---------------------------------------------------------------------------
# scalar flag check, kept as a differential oracle for the array version in
# confviz.realization


def _min_separation(pos: np.ndarray) -> float:
    if len(pos) < 2:
        return math.inf
    diffs = pos[:, None, :] - pos[None, :, :]
    dist = np.hypot(diffs[..., 0], diffs[..., 1])
    return float(np.min(dist[np.triu_indices(len(pos), k=1)]))


def circle_pair_intersections(a: Circle, b: Circle, cluster_tol: float = TOL_CLUSTER) -> list[np.ndarray]:
    """0, 1 (tangent within tolerance), or 2 intersection points."""
    dx, dy = b.cx - a.cx, b.cy - a.cy
    d = math.hypot(dx, dy)
    if d <= 1e-15:
        return []
    alpha = (d * d + a.r * a.r - b.r * b.r) / (2.0 * d)
    h2 = a.r * a.r - alpha * alpha
    eps = cluster_tol * cluster_tol
    if h2 < -eps:
        return []
    ux, uy = dx / d, dy / d
    base = np.array([a.cx + alpha * ux, a.cy + alpha * uy])
    if h2 <= eps:
        return [base]
    h = math.sqrt(h2)
    off = np.array([-uy * h, ux * h])
    return [base + off, base - off]


def meet_points(circles, cluster_tol=TOL_CLUSTER):
    """Every pairwise circle intersection, pair by pair in combinations order."""
    meets = []
    for i, j in combinations(range(len(circles)), 2):
        meets.extend(circle_pair_intersections(circles[i], circles[j], cluster_tol))
    return meets


def _cluster(points: list[np.ndarray], tol: float) -> list[np.ndarray]:
    """Greedy union of points within tol; returns cluster centroids."""
    reps: list[list] = []  # [sum_x, sum_y, count]
    order = sorted(range(len(points)), key=lambda i: (points[i][0], points[i][1]))
    for idx in order:
        p = points[idx]
        merged = False
        for rep in reps:
            cx, cy = rep[0] / rep[2], rep[1] / rep[2]
            if math.hypot(p[0] - cx, p[1] - cy) <= tol:
                rep[0] += p[0]
                rep[1] += p[1]
                rep[2] += 1
                merged = True
                break
        if not merged:
            reps.append([p[0], p[1], 1])
    return [np.array([r[0] / r[2], r[1] / r[2]]) for r in reps]


def residual_matrix(cx, cy, r, pts):
    """(C, n) matrix of |distance from circle k's center to point p - r_k|:
    the dense matrix that check_flags and realize_n3 read before one sparse
    point-on-circle query replaced it."""
    return np.abs(np.hypot(pts[:, 0] - cx[:, None], pts[:, 1] - cy[:, None]) - r[:, None])


def through_counts(mx, my, cx, cy, r, t):
    """How many circles pass within t of each point, from the whole
    residual matrix."""
    return np.count_nonzero(residual_matrix(cx, cy, r, np.column_stack([mx, my])) <= t, axis=0)


def triple_point_hits(cx, cy, r, pts, *, incidence, separation, cluster):
    """realization._meet_census's hits with every cluster's through-count
    taken against every circle in one (clusters, C) matrix: the plain
    all-pairs count."""
    circles = [Circle(*c) for c in zip(cx.tolist(), cy.tolist(), r.tolist())]
    reps = np.array(_cluster(meet_points(circles, cluster), cluster)).reshape(-1, 2)
    through = through_counts(reps[:, 0], reps[:, 1], cx, cy, r, max(incidence, cluster))
    matched = np.zeros(len(pts), dtype=bool)
    for x, y in reps[through > 2]:
        dist = np.hypot(pts[:, 0] - x, pts[:, 1] - y)
        hit = int(np.argmin(dist))
        if dist[hit] > max(cluster, separation):
            return None
        matched[hit] = True
    return matched


def check_flags(cfg: PointCircleConfig, tols: dict | None = None) -> PointCircleConfig:
    """Evaluate proper / isometric / lineal / determining / perfect.

    determining follows the meet-point definition: cluster all pairwise
    circle intersections, keep the clusters where more than two circles
    pass, and demand that set to coincide with the configuration points.
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
    circles = circles_of(cfg)

    degenerate = _min_separation(cfg.points) <= tol_sep

    radii = [c.r for c in circles]
    isometric = (max(radii) - min(radii)) <= tol_rad

    # proper: some point on every circle exists iff it lies on the first two
    if len(circles) == 1:
        proper = False
    else:
        proper = True
        for cand in circle_pair_intersections(circles[0], circles[1], tol_clu):
            if all(abs(float(c.residual(cand)[0])) <= max(tol_inc, tol_clu) for c in circles):
                proper = False
                break

    # geometric incidence of config points on circles
    on_circle = np.abs(np.array([c.residual(cfg.points) for c in circles])) <= tol_inc

    lineal = True
    for i, j in combinations(range(len(circles)), 2):
        if int(np.sum(on_circle[i] & on_circle[j])) > 1:
            lineal = False
            break

    meets = meet_points(circles, tol_clu)
    determining = False
    if not degenerate:
        triple_points = []
        for rep in _cluster(meets, tol_clu):
            through = sum(
                1 for c in circles if abs(float(c.residual(rep)[0])) <= max(tol_inc, tol_clu)
            )
            if through > 2:
                triple_points.append(rep)
        matched_cfg = [False] * len(cfg.points)
        determining = True
        for rep in triple_points:
            dist = np.hypot(cfg.points[:, 0] - rep[0], cfg.points[:, 1] - rep[1])
            hit = int(np.argmin(dist)) if len(dist) else -1
            if hit < 0 or dist[hit] > max(tol_clu, tol_sep):
                determining = False
                break
            matched_cfg[hit] = True
        if determining and not all(matched_cfg):
            determining = False

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
# Levenberg-Marquardt that rebuilds the Jacobian on every iteration, and the
# per-edge residual loop: the versions that lm_least_squares and
# unit_edge_residual in confviz.realization replaced


def lm_least_squares(fun, jac, x0, *, max_iter=500, lam0=1e-3, grad_tol=1e-12, step_tol=1e-14):
    x = np.asarray(x0, dtype=float).copy()
    r = fun(x)
    cost = float(r @ r)
    lam = lam0
    eye = np.eye(len(x))
    for _ in range(max_iter):
        j = jac(x)
        grad = j.T @ r
        if np.max(np.abs(grad)) < grad_tol:
            break
        a = j.T @ j
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
        else:
            lam *= 10.0
            if lam > 1e18:
                break
    return x


def unit_edge_residual(layout: Layout) -> float:
    worst = 0.0
    for u, v in layout.graph.edges:
        worst = max(worst, abs(float(np.linalg.norm(layout.pos[u] - layout.pos[v])) - 1.0))
    return worst


# ---------------------------------------------------------------------------
# Cartesian factors with one Graph and one component walk per edge class and
# side, kept as the oracle for the vertex union-find of graphs.cartesian_factors


def cartesian_factors(g: Graph) -> tuple[tuple[Graph, ...], VertexMap]:
    prime = ((g,), VertexMap(tuple(range(g.order))))
    index = {e: i for i, e in enumerate(g.edges)}
    index.update({(v, u): i for (u, v), i in list(index.items())})
    parent = list(range(g.size))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(e: tuple[int, int], f: tuple[int, int]) -> None:
        a, b = find(index[e]), find(index[f])
        parent[max(a, b)] = min(a, b)

    nbrs = g.neighbor_sets
    for u in range(g.order):
        for v, w in combinations(g.adjacency[u], 2):
            corners = (nbrs[v] & nbrs[w]) - {u}
            chordless = [] if w in nbrs[v] else [x for x in corners if x not in nbrs[u]]
            if len(corners) != 1 or len(chordless) != 1:
                union((u, v), (u, w))
            for x in chordless:
                if u < v and u < x:
                    union((u, v), (w, x))
                    union((u, w), (v, x))
    roots = sorted({find(i) for i in range(g.size)})
    if len(roots) < 2:
        return prime
    cls = {r: c for c, r in enumerate(roots)}
    colour = [cls[find(i)] for i in range(g.size)]
    coords = [[0] * len(roots) for _ in range(g.order)]
    factors = []
    for c in range(len(roots)):
        mine = Graph(g.order, tuple(e for e, k in zip(g.edges, colour) if k == c))
        rest = Graph(g.order, tuple(e for e, k in zip(g.edges, colour) if k != c))
        layer = structure_report(mine).components[0]
        at = {v: i for i, v in enumerate(layer)}
        edges = tuple((at[u], at[v]) for u, v in mine.edges if u in at)
        factors.append(Graph(len(layer), edges, tuple(g.label(v) for v in layer)))
        for comp in structure_report(rest).components:
            hits = [at[v] for v in comp if v in at]
            if len(hits) != 1:
                return prime
            for v in comp:
                coords[v][c] = hits[0]
    image = []
    for xs in coords:
        i = 0
        for f, x in zip(factors, xs):
            i = i * f.order + x
        image.append(i)
    witness = VertexMap(tuple(image))
    if not witness.is_isomorphism(g, reduce(cartesian_product, factors)):
        return prime
    return tuple(factors), witness


def line_graph(g: Graph) -> Graph:
    """L(g) with each incident edge's index looked up by its endpoints, the
    pairs sorted per vertex and again by the checking constructor."""
    if g.size == 0:
        raise ParameterError("line graph of an edgeless graph is empty")
    index = {e: i for i, e in enumerate(g.edges)}
    edges = set()
    for v in range(g.order):
        inc = [index[(min(v, w), max(v, w))] for w in g.adjacency[v]]
        for i, j in combinations(sorted(inc), 2):
            edges.add((i, j))
    labels = tuple(f"{g.label(u)}~{g.label(v)}" for u, v in g.edges)
    return Graph(g.size, tuple(sorted(edges)), labels)


# ---------------------------------------------------------------------------
# free cyclic actions with every vertex scanned for each orbit step, kept as
# the differential oracle for the one-layer scan of iso._free_cyclic_actions


def free_cyclic_actions(g: Graph, k: int):
    """The actions of iso.find_free_cyclic_action(g, k), in its order, with
    the same node count read from iso._NODE_BUDGET."""
    if k < 2 or g.order % k != 0:
        return
    dist = [[-1] * g.order for _ in range(g.order)]
    base = iso._seed_tokens(g, dist, [[] for _ in range(g.order)])
    ids = {t: i for i, t in enumerate(sorted(set(base)))}
    color = [ids[t] for t in base]
    sigma: list[int] = [-1] * g.order
    assigned: list[int] = []
    nodes = 0

    def consistent(a: int, b: int) -> bool:
        if color[a] != color[b]:
            return False
        da, db = dist[a], dist[b]
        return all(da[x] == db[sigma[x]] for x in assigned)

    def extend():
        nonlocal nodes
        nodes += 1
        if nodes > iso._NODE_BUDGET:
            raise CapacityError("cyclic action search budget exceeded")
        if len(assigned) == g.order:
            yield VertexMap(tuple(sigma))
            return
        start = next(v for v in range(g.order) if sigma[v] == -1)
        yield from place(start, [start])

    def place(start: int, orbit: list[int]):
        cur = orbit[-1]
        if len(orbit) == k:
            if consistent(cur, start):
                sigma[cur] = start
                assigned.append(cur)
                yield from extend()
                assigned.pop()
                sigma[cur] = -1
            return
        for cand in range(g.order):
            if sigma[cand] != -1 or cand in orbit or cand == start:
                continue
            if not consistent(cur, cand):
                continue
            sigma[cur] = cand
            assigned.append(cur)
            orbit.append(cand)
            yield from place(start, orbit)
            orbit.pop()
            assigned.pop()
            sigma[cur] = -1

    for vm in extend():
        if vm.is_automorphism(g) and permutation_order(vm) == k:
            yield vm


# ---------------------------------------------------------------------------
# 1-WL colour refinement with individualisation backtracking: the engine
# that isomorphic and find_swap_involution ran before both became free
# order-2 actions of iso._free_cyclic_actions, kept as their differential
# oracle


def _seed_tokens(g: Graph) -> list[tuple]:
    n = g.order
    return iso._seed_tokens(g, [[-1] * n for _ in range(n)], [[] for _ in range(n)])


def _assign_ids(tokens_g: list, tokens_h: list) -> tuple[list[int], list[int]] | None:
    """Map arbitrary hashable tokens to joint integer ids; None on mismatch."""
    universe = sorted(set(tokens_g) | set(tokens_h))
    ids = {t: i for i, t in enumerate(universe)}
    cg = [ids[t] for t in tokens_g]
    ch = [ids[t] for t in tokens_h]
    if sorted(cg) != sorted(ch):
        return None
    return cg, ch


def _refine(adj_g, adj_h, cg: list[int], ch: list[int]) -> tuple[list[int], list[int]] | None:
    """Joint 1-WL refinement until stable; None when class sizes diverge."""
    while True:
        tg = [(cg[v], tuple(sorted(cg[w] for w in adj_g[v]))) for v in range(len(cg))]
        th = [(ch[v], tuple(sorted(ch[w] for w in adj_h[v]))) for v in range(len(ch))]
        assigned = _assign_ids(tg, th)
        if assigned is None:
            return None
        ng, nh = assigned
        if ng == cg and nh == ch:
            return cg, ch
        cg, ch = ng, nh


class _Search:
    """Backtracking core shared by isomorphism and swap-involution search."""

    def __init__(self, adj_g, adj_h, cg, ch, pairing: bool):
        self.adj_g = adj_g
        self.adj_h = adj_h
        self.cg0 = cg
        self.ch0 = ch
        self.pairing = pairing  # h is g; assignments come in symmetric pairs
        self.nodes = 0

    def run(self) -> list[int] | None:
        return self._rec(self.cg0, self.ch0)

    def _rec(self, cg, ch) -> list[int] | None:
        self.nodes += 1
        if self.nodes > iso._NODE_BUDGET:
            raise CapacityError("isomorphism search budget exceeded")
        refined = _refine(self.adj_g, self.adj_h, cg, ch)
        if refined is None:
            return None
        cg, ch = refined
        target = self._first_split_class(cg)
        if target is None:
            return self._extract(cg, ch)
        u = next(v for v in range(len(cg)) if cg[v] == target)
        fresh = max(max(cg), max(ch)) + 1
        for v in range(len(ch)):
            if ch[v] != target:
                continue
            if self.pairing:
                if v == u or ch[u] != cg[v]:
                    continue
                ng, nh = list(cg), list(ch)
                ng[u] = fresh
                nh[v] = fresh
                ng[v] = fresh + 1
                nh[u] = fresh + 1
            else:
                ng, nh = list(cg), list(ch)
                ng[u] = fresh
                nh[v] = fresh
            result = self._rec(ng, nh)
            if result is not None:
                return result
        return None

    @staticmethod
    def _first_split_class(cg) -> int | None:
        counts: dict[int, int] = {}
        for c in cg:
            counts[c] = counts.get(c, 0) + 1
        for c in sorted(counts):
            if counts[c] > 1:
                return c
        return None

    def _extract(self, cg, ch) -> list[int] | None:
        where = {c: v for v, c in enumerate(ch)}
        image = [where[c] for c in cg]
        if sorted(image) != list(range(len(image))):
            return None
        for u in range(len(cg)):
            nu = {image[w] for w in self.adj_g[u]}
            if nu != set(self.adj_h[image[u]]):
                return None
        if self.pairing:
            for u in range(len(image)):
                if image[image[u]] != u:
                    return None
        return image


def refinement_isomorphic(g: Graph, h: Graph) -> VertexMap | None:
    """Isomorphism witness from g to h, or None. Deterministic."""
    if g.order > iso.MAX_VERTICES or h.order > iso.MAX_VERTICES:
        raise CapacityError(f"isomorphism limited to {iso.MAX_VERTICES} vertices")
    if g.order != h.order or g.size != h.size:
        return None
    seeded = _assign_ids(_seed_tokens(g), _seed_tokens(h))
    if seeded is None:
        return None
    image = _Search(g.adjacency, h.adjacency, *seeded, pairing=False).run()
    return VertexMap(tuple(image)) if image is not None else None


def refinement_swap_involution(g: Graph, sides: tuple[int, ...]) -> VertexMap | None:
    """Order-two automorphism of g mapping side 0 onto side 1, or None."""
    if g.order > iso.MAX_VERTICES:
        raise CapacityError(f"involution search limited to {iso.MAX_VERTICES} vertices")
    zero = sum(1 for s in sides if s == 0)
    if 2 * zero != g.order:
        return None
    base = _seed_tokens(g)
    tokens_g = [(base[v], sides[v]) for v in range(g.order)]
    tokens_h = [(base[v], 1 - sides[v]) for v in range(g.order)]
    seeded = _assign_ids(tokens_g, tokens_h)
    if seeded is None:
        return None
    image = _Search(g.adjacency, g.adjacency, *seeded, pairing=True).run()
    return VertexMap(tuple(image)) if image is not None else None


# ---------------------------------------------------------------------------
# rotational ansatz, per vertex and per edge: in Cartesian orbit
# representatives z, the differential oracle for realization._solve with a
# ring map; and in polar ring variables (r, phi), the solve that the map
# replaced, kept as the reference whose outcomes the new variables must keep


def ring_map(orbits: list[list[int]], k: int, n: int) -> np.ndarray:
    """The ring map one vertex at a time: rows 2v and 2v + 1 of vertex
    v = orbits[j][t] hold R(2*pi*t/k) in columns 2j and 2j + 1."""
    P = np.zeros((2 * n, 2 * len(orbits)))
    for j, orbit in enumerate(orbits):
        for t, v in enumerate(orbit):
            a = 2.0 * math.pi * t / k
            c, s = math.cos(a), math.sin(a)
            P[2 * v: 2 * v + 2, 2 * j: 2 * j + 2] = [[c, -s], [s, c]]
    return P


def ring_start(r: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Orbit representatives z from radii and phases, one orbit at a time."""
    z = np.empty(2 * len(r))
    for j in range(len(r)):
        z[2 * j], z[2 * j + 1] = r[j] * math.cos(phi[j]), r[j] * math.sin(phi[j])
    return z


def _solve_ring(g, P: np.ndarray, z0: np.ndarray, max_iter: int) -> np.ndarray:
    """LM over z towards unit edges, with residual and plain Jacobian one
    edge at a time; positions and the Jacobian take P through the same `@`
    as the library, so no BLAS summation order comes between them."""

    def positions(z):
        return (P @ z).reshape(-1, 2)

    def resid(z):
        p = positions(z)
        return np.array([np.hypot(*(p[u] - p[v])) - 1.0 for u, v in g.edges])

    def jacobian(z):
        p = positions(z)
        j = np.zeros((g.size, len(P)))
        for row, (u, v) in enumerate(g.edges):
            d = p[u] - p[v]
            dist = np.hypot(d[0], d[1])
            if dist < 1e-300:
                dist = 1.0
            j[row, 2 * u: 2 * u + 2] = d / dist
            j[row, 2 * v: 2 * v + 2] = -d / dist
        return j @ P

    return positions(lm_least_squares(resid, jacobian, z0, max_iter=max_iter))


def _orbit_positions(x: np.ndarray, orbits: list[list[int]], k: int, n: int) -> np.ndarray:
    pos = np.zeros((n, 2))
    for j, orbit in enumerate(orbits):
        r, phi = x[2 * j], x[2 * j + 1]
        for t, v in enumerate(orbit):
            a = phi + 2.0 * math.pi * t / k
            pos[v] = (r * math.cos(a), r * math.sin(a))
    return pos


def _solve_orbits(g, orbits: list[list[int]], k: int, x0: np.ndarray, max_iter: int) -> np.ndarray:
    """LM over the polar ring variables x = (r_0, phi_0, r_1, phi_1, ...)."""
    eu, ev = _edge_arrays(g)
    slot = {}
    for j, orbit in enumerate(orbits):
        for t, v in enumerate(orbit):
            slot[v] = (j, t)

    def positions(x):
        return _orbit_positions(x, orbits, k, g.order)

    def resid(x):
        p = positions(x)
        d = p[eu] - p[ev]
        return np.hypot(d[:, 0], d[:, 1]) - 1.0

    def jacobian(x):
        p = positions(x)
        j = np.zeros((len(eu), x.size))
        for row, (u, v) in enumerate(zip(eu, ev)):
            d = p[u] - p[v]
            dist = math.hypot(d[0], d[1])
            if dist < 1e-300:
                dist = 1.0
            gu = d / dist
            for vertex, sign in ((u, 1.0), (v, -1.0)):
                jj, t = slot[vertex]
                r, phi = x[2 * jj], x[2 * jj + 1]
                a = phi + 2.0 * math.pi * t / k
                j[row, 2 * jj] += sign * (gu[0] * math.cos(a) + gu[1] * math.sin(a))
                j[row, 2 * jj + 1] += sign * r * (-gu[0] * math.sin(a) + gu[1] * math.cos(a))
        return j

    return lm_least_squares(resid, jacobian, x0, max_iter=max_iter)


def solve_unit_distance(
    g, *, seed=None, symmetry=None, tol=TOL_INCIDENCE, max_iter=500, restarts=40, polar=False
):
    """The seeded restart loops of solve_unit_distance (no polish path and
    no product start). The symmetric one runs each orbit set's ring solves
    over the per-edge solve in z above, or with polar over the one in (r,
    phi); a set that realization._rings_rule_out refuses draws its starts'
    doubles in one go, and only a ring solution within tol is polished."""
    base_seed = 0 if seed is None else int(seed)
    rng = np.random.default_rng(base_seed)
    edges = _edge_arrays(g)
    best = math.inf

    def measured(pos):
        return unit_edge_residual(Layout(g, pos, {}))

    if symmetry is not None:
        if isinstance(symmetry, int):
            actions = list(islice(iso.find_free_cyclic_action(g, symmetry), 6))
            if not actions:
                raise ParameterError(f"no free order-{symmetry} symmetry available")
            orbit_sets = [a.cycles() for a in actions]
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
        runs = skipped = 0
        for orbits in orbit_sets:
            m = len(orbits)
            if realization._rings_rule_out(g, orbits, k):
                skipped += 1
                rng.random(2 * m * restarts)
                continue
            P = None if polar else ring_map(orbits, k, g.order)
            for _ in range(restarts):
                runs += 1
                r = rng.uniform(0.25, 2.2, size=m)
                phi = rng.uniform(0.0, 2.0 * math.pi, size=m)
                if polar:
                    x0 = np.empty(2 * m)
                    x0[0::2], x0[1::2] = r, phi
                    pos = _orbit_positions(_solve_orbits(g, orbits, k, x0, max_iter), orbits, k, g.order)
                else:
                    pos = _solve_ring(g, P, ring_start(r, phi), max_iter)
                residual = measured(pos)
                if residual <= tol:  # only a ring solution goes on to the polish
                    pos = realization._solve(edges, pos)
                    residual = measured(pos)
                best = min(best, residual)
                if residual <= tol and _min_separation(pos) > TOL_SEPARATION:
                    meta = {"method": "orbit-lm", "symmetry": k, "seed": base_seed, "residual": residual}
                    return Layout(g, pos, meta), residual
        raise ConvergenceError(
            "symmetric solve exhausted restarts", residual=best if runs else None, restarts=runs, skipped=skipped
        )

    span = 1.0 + 0.25 * math.sqrt(g.order)
    for _ in range(restarts):
        pos = realization._solve(edges, rng.uniform(-span, span, size=(g.order, 2)))
        residual = measured(pos)
        best = min(best, residual)
        if residual <= tol and _min_separation(pos) > TOL_SEPARATION:
            return Layout(g, pos, {"method": "lm", "seed": base_seed, "residual": residual}), residual
    raise ConvergenceError("unit-distance solve exhausted restarts", residual=best)


def hypercube_positions(d: int, angles: np.ndarray) -> np.ndarray:
    units = np.column_stack([np.cos(angles), np.sin(angles)])
    pos = np.zeros((1 << d, 2))
    for v in range(1 << d):
        for b in range(d):
            if v >> b & 1:
                pos[v] += units[b]
    return pos


def gen_cuboctahedron_positions(n: int, r_outer: float, r_inner: float) -> np.ndarray:
    """The prism's edge midpoints, one edge at a time."""
    ang = 2.0 * math.pi * np.arange(n) / n
    outer = r_outer * np.column_stack([np.cos(ang), np.sin(ang)])
    inner = r_inner * np.column_stack([np.cos(ang), np.sin(ang)])
    vpos = np.vstack([outer, inner])
    return np.array([(vpos[u] + vpos[v]) / 2.0 for u, v in prism_graph(n).edges])


# ---------------------------------------------------------------------------
# the least-squares circle fit and the per-vertex loop over it: the versions
# that the circumcircle and residual passes of circles_from_layout replaced


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


def refuse_coinciding(circles) -> None:
    """The first pair of circles, in combinations order, whose centres and
    radii both lie within TOL_SEPARATION raises DistinctnessError."""
    for i, j in combinations(range(len(circles)), 2):
        a, b = circles[i], circles[j]
        if math.hypot(a.cx - b.cx, a.cy - b.cy) <= TOL_SEPARATION and abs(a.r - b.r) <= TOL_SEPARATION:
            raise DistinctnessError(f"circles of vertices {i} and {j} coincide")


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
    refuse_coinciding(circles)
    incidence = tuple((p, v) for v in range(g.order) for p in g.adjacency[v])
    return PointCircleConfig(
        points=layout.pos.copy(),
        circles=tuple(circles),
        incidence=incidence,
        flags={},
        tols=realization.tol_record(tol),
    )


# ---------------------------------------------------------------------------
# canonical JSON emitter with numpy branches, kept as the reference for the
# format confviz.jsonio wrote before it used json's own encoder: floats with
# 17 significant digits, integral floats as ints and -0.0 as -0


def _emit(value: Any, out: list[str]) -> None:
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        v = float(value)
        if not math.isfinite(v):
            raise ParameterError("non-finite number in artifact")
        out.append(format(v, ".17g"))
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, dict):
        out.append("{")
        for i, (k, v) in enumerate(value.items()):
            if not isinstance(k, str):
                raise ParameterError("artifact keys must be strings")
            if i:
                out.append(", ")
            out.append(json.dumps(k))
            out.append(": ")
            _emit(v, out)
        out.append("}")
    elif isinstance(value, (list, tuple)) or isinstance(value, np.ndarray):
        seq = value.tolist() if isinstance(value, np.ndarray) else value
        out.append("[")
        for i, v in enumerate(seq):
            if i:
                out.append(", ")
            _emit(v, out)
        out.append("]")
    else:
        raise ParameterError(f"cannot serialize {type(value).__name__}")


def dumps(obj: Any) -> str:
    out: list[str] = []
    _emit(obj, out)
    return "".join(out)


# ---------------------------------------------------------------------------
# the scalar circumcircle and its per-block, per-line and per-circle callers,
# and spatial's per-pair, per-plane and per-circle loops: the versions that
# _circumcircles and the array passes in confviz.spatial replaced


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


def realize_n3(c: IncidenceStructure, seed: int = 0) -> PointCircleConfig:
    """Realize a structure with 3-point blocks as random points and the
    blocks' circumcircles.

    Points are drawn uniformly in the unit square, up to _RESAMPLE_BUDGET
    times. A draw is accepted when, with margin 1e-4:
    1. every two points are more than the margin apart;
    2. no block's three points are within the margin of collinear;
    3. no point outside a block lies within the margin of its circle;
    4. every point where three or more circles meet is a configuration
       point (check_flags' determining test, at the realization.tol_record() tolerances).
    Each circle then passes through its own three points and no other, and
    circles meet three at a time only at configuration points: check_flags
    reads the blocks back, and finds the result determining when every
    point lies on three blocks or more. Raises SamplingError, with the
    attempts made and the rejections per condition, when no draw passes.
    """
    if any(len(b) != 3 for b in c.blocks):
        raise ParameterError("realize_n3 needs every block to have exactly 3 points")
    if c.points < 3:
        raise ParameterError("realize_n3 needs at least 3 points")
    blocks = np.array(c.blocks, dtype=np.intp).reshape(-1, 3)
    incidence = tuple((p, k) for k, blk in enumerate(c.blocks) for p in blk)
    tols = realization.tol_record()
    rejections = dict.fromkeys(("separation", "collinear_block", "foreign_point", "stray_meet_point"), 0)
    rng = np.random.default_rng(seed)
    for _ in range(_RESAMPLE_BUDGET):
        pts = rng.uniform(0.0, 1.0, size=(c.points, 2))
        if _min_separation(pts) <= _SAMPLE_MARGIN:
            rejections["separation"] += 1
            continue
        p, q, s = pts[blocks].transpose(1, 0, 2)
        cross = (q[:, 0] - p[:, 0]) * (s[:, 1] - p[:, 1]) - (q[:, 1] - p[:, 1]) * (s[:, 0] - p[:, 0])
        if np.any(np.abs(cross) <= _SAMPLE_MARGIN):
            rejections["collinear_block"] += 1
            continue
        circles = tuple(circumcircle(pts[b[0]], pts[b[1]], pts[b[2]]) for b in c.blocks)
        cx, cy, r = circle_arrays(circles)
        # each circle has its own three points on it, so a fourth is foreign
        if np.any(np.count_nonzero(residual_matrix(cx, cy, r, pts) <= _SAMPLE_MARGIN, axis=1) > 3):
            rejections["foreign_point"] += 1
            continue
        if realization._meet_census(cx, cy, r, pts, **tols)[1] is None:
            rejections["stray_meet_point"] += 1
            continue
        return PointCircleConfig(points=pts, circles=circles, incidence=incidence, flags={}, tols=tols)
    counts = ", ".join(f"{k} {v}" for k, v in sorted(rejections.items(), key=lambda kv: -kv[1]) if v)
    raise SamplingError(
        f"no draw accepted in {_RESAMPLE_BUDGET} attempts ({counts})",
        seed=seed, attempts=_RESAMPLE_BUDGET, rejections=rejections,
    )


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
        raise ParameterError(f"inversion radius must be finite and positive, not {float(radius)!r}")
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
        tols=realization.tol_record(),
    )
    worst = cfg.max_incidence_residual()
    if worst > 1e-9 * scale:
        raise DegeneracyError(f"inverted incidences drift ({worst:.3e}); input too degenerate")
    return cfg


@dataclass(frozen=True)
class Plane:
    """Oriented plane normal . x = offset with unit normal.

    Orientation is canonical: the first component of the normal that exceeds
    1e-12 in magnitude is positive, so equal planes compare equal.
    """

    normal: tuple[float, float, float]
    offset: float

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float)
        length = float(np.linalg.norm(n))
        if not math.isfinite(length) or length < 1e-12:
            raise ParameterError("plane normal must be a nonzero vector")
        n = n / length
        d = float(self.offset) / length
        for comp in n:
            if abs(comp) > 1e-12:
                if comp < 0:
                    n = -n
                    d = -d
                break
        object.__setattr__(self, "normal", (float(n[0]), float(n[1]), float(n[2])))
        object.__setattr__(self, "offset", d)

    def signed_distance(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return pts @ np.asarray(self.normal) - self.offset

    def close_to(self, other: "Plane", tol: float = 1e-7) -> bool:
        dn = max(abs(a - b) for a, b in zip(self.normal, other.normal))
        return dn <= tol and abs(self.offset - other.offset) <= tol


@dataclass(eq=False)
class SphereCircle:
    plane: Plane
    center: np.ndarray
    radius: float


@dataclass(eq=False)
class SphereCircles:
    """Points on a sphere and its circles, one SphereCircle each, with the
    fields of spatial.SphericalCircleConfig, which holds plane rows instead."""

    center: np.ndarray
    radius: float
    points: np.ndarray
    circles: tuple[SphereCircle, ...]
    incidence: tuple[tuple[int, int], ...]


def coplanarity(pts) -> tuple[Plane, float]:
    """Best-fit plane via the smallest singular direction + max residual."""
    pts = np.asarray(pts, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) < 3:
        raise ParameterError("plane fit needs at least three spatial points")
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    _, svals, vt = np.linalg.svd(centered)
    scale = max(float(svals[0]), 1e-30)
    if svals[1] <= 1e-12 * scale:
        raise DegeneracyError("plane fit of (nearly) collinear points")
    normal = vt[-1]
    plane = Plane(tuple(normal), float(normal @ centroid))
    residual = float(np.max(np.abs(plane.signed_distance(pts))))
    return plane, residual


def plane_row(pts) -> tuple[np.ndarray, float]:
    """Best-fit plane row (nx, ny, nz, d) via the smallest singular direction,
    and the largest distance of a point from it: the one-set call of
    spatial._fit_planes with its input checks. Fewer than three points, or a
    point that is not finite, raise ParameterError."""
    shape = "plane fit needs at least three spatial points"
    pts = _float_table(pts, "point entry", shape, 3, "plane fit needs finite points")
    if len(pts) < 3:
        raise ParameterError(shape)
    rows, residual, collinear = _fit_planes(pts[None])
    if collinear[0]:
        raise DegeneracyError(_COLLINEAR_FIT)
    return rows[0], float(residual[0])


def _edges_by_min_distance(coords: np.ndarray) -> tuple[tuple[int, int], ...]:
    n = len(coords)
    dists = {}
    for i, j in combinations(range(n), 2):
        dists[(i, j)] = float(np.linalg.norm(coords[i] - coords[j]))
    shortest = min(dists.values())
    return tuple(sorted(e for e, d in dists.items() if d <= shortest * (1.0 + 1e-9)))


def _neighbourhood_planes(p: PolytopeSkeleton, tol: float = TOL_INCIDENCE) -> list[Plane]:
    """The neighbourhood planes, one vertex at a time; neighbourhoods must
    be coplanar and span pairwise distinct planes."""
    planes = []
    for v in range(p.graph.order):
        nbrs = list(p.graph.adjacency[v])
        if len(nbrs) < 3:
            raise ParameterError(f"vertex {v} has fewer than 3 neighbours")
        plane, res = coplanarity(p.coords[nbrs])
        if res > tol:
            raise AdmissibilityError(
                f"{p.name}: not admissible: neighbourhood of vertex {v} is not coplanar (residual {res:.3e})"
            )
        planes.append(plane)
    for u, v in combinations(range(len(planes)), 2):
        if planes[u].close_to(planes[v]):
            raise AdmissibilityError(f"{p.name}: not admissible: vertices {u} and {v} span the same plane", pair=(u, v))
    return planes


def point_plane_vconstruct(p: PolytopeSkeleton, tol: float = TOL_INCIDENCE) -> PointPlaneConfig:
    """Spatial V-construction: one neighbourhood plane per vertex."""
    planes = _neighbourhood_planes(p, tol)
    incidence = []
    worst = 0.0
    for v in range(p.graph.order):
        for u in p.graph.adjacency[v]:
            incidence.append((u, v))
            worst = max(worst, abs(float(planes[v].signed_distance(p.coords[u])[0])))
    return PointPlaneConfig(
        points=p.coords.copy(),
        planes=tuple(planes),
        incidence=tuple(sorted(incidence)),
        max_residual=worst,
    )


def sphere_circles(p: PolytopeSkeleton, tol: float = TOL_INCIDENCE, center=None) -> SphereCircles:
    """Cut each neighbourhood plane with the circumsphere about center, the
    vertex mean unless given.

    Vertices sit on the sphere by the load-time validation, so each
    neighbourhood lies on the circle its plane cuts out of the sphere.
    """
    planes = _neighbourhood_planes(p, tol)
    center = p.coords.mean(axis=0) if center is None else center
    radius = float(np.mean(np.linalg.norm(p.coords - center, axis=1)))
    circles = []
    for v, plane in enumerate(planes):
        n = np.asarray(plane.normal)
        gap = float(plane.offset - n @ center)
        if abs(gap) >= radius:
            raise DegeneracyError(
                f"neighbourhood plane of vertex {v} misses the circumsphere"
            )
        circles.append(
            SphereCircle(
                plane=plane,
                center=center + gap * n,
                radius=math.sqrt(radius * radius - gap * gap),
            )
        )
    incidence = tuple(
        sorted((u, v) for v in range(p.graph.order) for u in p.graph.adjacency[v])
    )
    return SphereCircles(
        center=center,
        radius=radius,
        points=p.coords.copy(),
        circles=tuple(circles),
        incidence=incidence,
    )


def _orthobasis(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    axis = np.zeros(3)
    axis[int(np.argmin(np.abs(u)))] = 1.0
    e1 = np.cross(u, axis)
    e1 = e1 / np.linalg.norm(e1)
    return e1, np.cross(u, e1)


def _pole_clearance(cfg: SphereCircles, pole: np.ndarray) -> float:
    """Distance from the pole to the nearest configuration point or circle."""
    clearance = float(np.min(np.linalg.norm(cfg.points - pole, axis=1)))
    for sc in cfg.circles:
        n = np.asarray(sc.plane.normal)
        v = pole - sc.center
        axial = float(n @ v)
        planar = float(np.linalg.norm(v - axial * n))
        clearance = min(clearance, math.hypot(planar - sc.radius, axial))
    return clearance


def stereographic_project(
    cfg: SphereCircles,
    pole=None,
    seed: int = 0,
    tol: float = TOL_INCIDENCE,
) -> tuple[PointCircleConfig, np.ndarray]:
    """Project sphere circles to plane circles through a clear pole.

    The image plane passes through the sphere center orthogonal to the pole
    direction. Each image circle is the circumcircle of three projected
    samples, cross-checked on eight more samples within tol. With pole=None
    the antipode of the mean oriented plane pole is tried first, then up to
    256 seeded random poles; explicit poles only need to clear points and
    circles by the separation tolerance.
    """
    r = cfg.radius
    if pole is not None:
        pole = np.asarray(pole, dtype=float)
        if abs(float(np.linalg.norm(pole - cfg.center)) - r) > TOL_SEPARATION * r:
            raise ParameterError("explicit pole must lie on the sphere")
        if _pole_clearance(cfg, pole) <= TOL_SEPARATION * r:
            raise PolePlacementError("pole touches a configuration point or circle")
    else:
        margin = 1e-3 * r
        candidates = []
        oriented = np.array(
            [cfg.center + r * np.asarray(sc.plane.normal) for sc in cfg.circles]
        )
        mean = oriented.mean(axis=0) - cfg.center
        if np.linalg.norm(mean) > 1e-9 * r:
            candidates.append(cfg.center - r * mean / np.linalg.norm(mean))
        rng = np.random.default_rng(seed)
        for _ in range(256):
            v = rng.normal(size=3)
            candidates.append(cfg.center + r * v / np.linalg.norm(v))
        pole = None
        for cand in candidates:
            if _pole_clearance(cfg, cand) > margin:
                pole = cand
                break
        if pole is None:
            raise PolePlacementError("no pole cleared all points and circles")

    u = (pole - cfg.center) / r
    e1, e2 = _orthobasis(u)

    def project(pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        denom = (pts - pole) @ u
        if np.any(np.abs(denom) < 1e-12 * r):
            raise DegeneracyError("projected point coincides with the pole")
        t = -r / denom
        images = pole + t[:, None] * (pts - pole)
        rel = images - cfg.center
        return np.column_stack([rel @ e1, rel @ e2])

    points2 = project(cfg.points)
    anchors = [2.0 * math.pi * j / 3.0 for j in range(3)]
    angles = anchors + [math.pi / 6.0 + j * math.pi / 4.0 for j in range(8)]
    cos = np.array([math.cos(a) for a in angles])[:, None]
    sin = np.array([math.sin(a) for a in angles])[:, None]
    circles2 = []
    for v, sc in enumerate(cfg.circles):
        f1, f2 = _orthobasis(np.asarray(sc.plane.normal))
        samples = sc.center + sc.radius * (cos * f1 + sin * f2)
        tri = project(samples[:3])
        image = circumcircle(tri[0], tri[1], tri[2])
        checks = project(samples[3:])
        drift = float(np.max(np.abs(image.residual(checks))))
        if drift > tol:
            raise DegeneracyError(
                f"image of circle {v} fails the sample check (drift {drift:.3e})"
            )
        circles2.append(image)
    out = PointCircleConfig(
        points=points2,
        circles=tuple(circles2),
        incidence=cfg.incidence,
        flags={},
        tols=realization.tol_record(tol),
    )
    worst = out.max_incidence_residual()
    if worst > tol:
        raise DegeneracyError(f"projected incidences drift ({worst:.3e})")
    return out, pole


# ---------------------------------------------------------------------------
# incidence stages on the Levi graph, before union-find and the block checks


def levi_components(c: IncidenceStructure) -> tuple[tuple[int, ...], ...]:
    return structure_report(levi_graph(c)[0]).components


def decompose(c: IncidenceStructure) -> list[IncidenceStructure]:
    out = []
    for idx, comp in enumerate(levi_components(c)):
        pts = [v for v in comp if v < c.points]
        blks = [v - c.points for v in comp if v >= c.points]
        remap = {p: i for i, p in enumerate(pts)}
        blocks = tuple(tuple(remap[p] for p in c.blocks[j]) for j in blks)
        out.append(
            IncidenceStructure(
                points=len(pts),
                blocks=blocks,
                provenance=(
                    f"{c.provenance} | component {idx}: points {pts}, "
                    f"blocks {sorted(blks)}"
                ),
            )
        )
    return out


def self_polar(c: IncidenceStructure) -> VertexMap | None:
    levi, parts = levi_graph(c)
    n = c.points
    if n == c.block_count:
        candidate = VertexMap(tuple(range(n, 2 * n)) + tuple(range(n)))
        if candidate.is_automorphism(levi):
            return candidate
    return bipartite_swap_involution(levi, parts)


def verify_kronecker_theorem(g: Graph) -> KroneckerReport:
    cover, _ = kronecker_cover(g)
    cover_components = len(structure_report(cover).components)
    ok, pair = is_admissible(g)
    if not ok:
        c = v_construct(g, collapse=True)
        return KroneckerReport(
            admissible=False,
            offending_pair=pair,
            verified=False,
            witness=None,
            levi_order=c.points + c.block_count,
            cover_order=cover.order,
            cover_components=cover_components,
            collapsed_block_count=c.block_count,
        )
    c = v_construct(g)
    levi, _ = levi_graph(c)
    witness = VertexMap(tuple(range(2 * g.order)))
    verified = witness.is_isomorphism(levi, cover)
    return KroneckerReport(
        admissible=True,
        offending_pair=None,
        verified=verified,
        witness=witness if verified else None,
        levi_order=levi.order,
        cover_order=cover.order,
        cover_components=cover_components,
        collapsed_block_count=None,
    )


def verify_kronecker_by_union_find(g: Graph) -> KroneckerReport:
    """The O(E) report with the cover's components from union-find over its
    2E edges (u,0)(v,1), instead of one BFS over g."""
    n = g.order
    cover_edges = [(u, n + v) for u, v in g.edges] + [(v, n + u) for u, v in g.edges]
    cover_components = len(set(_class_roots(2 * n, cover_edges)))
    try:
        c = v_construct(g)
    except AdmissibilityError as exc:
        c = v_construct(g, collapse=True)
        return KroneckerReport(
            admissible=False,
            offending_pair=exc.pair,
            verified=False,
            witness=None,
            levi_order=c.points + c.block_count,
            cover_order=2 * n,
            cover_components=cover_components,
            collapsed_block_count=c.block_count,
        )
    verified = (
        c.points == c.block_count == n
        and sum(map(len, c.blocks)) == 2 * g.size
        and all(map(frozenset.issuperset, g.neighbor_sets, c.blocks))
    )
    return KroneckerReport(
        admissible=True,
        offending_pair=None,
        verified=verified,
        witness=VertexMap(tuple(range(2 * n))) if verified else None,
        levi_order=c.points + c.block_count,
        cover_order=2 * n,
        cover_components=cover_components,
        collapsed_block_count=None,
    )


def pair_in_two(sets) -> bool:
    """Whether some pair lies together in two of the sorted tuples, checked
    pair by pair."""
    seen = set()
    for s in sets:
        for pair in combinations(s, 2):
            if pair in seen:
                return True
            seen.add(pair)
    return False


# ---------------------------------------------------------------------------
# SVG: the renderer that grew its viewBox one element at a time


def _fmt(v: float) -> str:
    if not math.isfinite(v):
        raise ParameterError("cannot render non-finite coordinate")
    out = format(v, ".6f")
    return "0.000000" if out == "-0.000000" else out


class _Canvas:
    def __init__(self):
        self.parts: list[str] = []
        self.lo = [math.inf, math.inf]
        self.hi = [-math.inf, -math.inf]

    def grow(self, x: float, y: float, pad: float = 0.0):
        self.lo[0] = min(self.lo[0], x - pad)
        self.lo[1] = min(self.lo[1], y - pad)
        self.hi[0] = max(self.hi[0], x + pad)
        self.hi[1] = max(self.hi[1], y + pad)

    def finish(self) -> str:
        if not self.parts or self.lo[0] > self.hi[0]:
            raise ParameterError("nothing to render")
        w = max(self.hi[0] - self.lo[0], 1e-9)
        h = max(self.hi[1] - self.lo[1], 1e-9)
        margin = 0.05 * max(w, h)
        box = (self.lo[0] - margin, self.lo[1] - margin, w + 2 * margin, h + 2 * margin)
        head = (
            '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'viewBox="{_fmt(box[0])} {_fmt(box[1])} {_fmt(box[2])} {_fmt(box[3])}">'
        )
        return "\n".join([head, *self.parts, "</svg>"]) + "\n"


def _scale_of(points) -> float:
    # reference length for strokes and dot radii
    xs = [p[0] for p in points]
    ys = [-p[1] for p in points]
    return max(max(xs) - min(xs), max(ys) - min(ys), 1e-9)


def render_layout(layout, labels: bool = False) -> str:
    """Graph drawing: line per edge, dot per vertex, optional vertex labels."""
    pts = [(float(x), -float(y)) for x, y in layout.pos]
    ref = _scale_of(layout.pos)
    lw = 0.004 * ref
    dot = 0.012 * ref
    cv = _Canvas()
    cv.parts.append(f'<g stroke="#555555" stroke-width="{_fmt(lw)}">')
    for u, v in layout.graph.edges:
        (x1, y1), (x2, y2) = pts[u], pts[v]
        cv.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" />'
        )
    cv.parts.append("</g>")
    _draw_points(cv, pts, dot)
    if labels:
        _draw_labels(cv, pts, [layout.graph.label(v) for v in range(layout.graph.order)], ref)
    for x, y in pts:
        cv.grow(x, y, dot)
    return cv.finish()


def render_config(cfg, labels: bool = False) -> str:
    """Point-circle drawing: stroked circles plus configuration points."""
    if len(cfg.circles) == 0:
        raise ParameterError("nothing to render")
    circles = cfg.circles.view(float).reshape(-1, 3).tolist()
    pts = [(float(x), -float(y)) for x, y in cfg.points]
    ref = _scale_of(cfg.points)
    ref = max(ref, 2.0 * max(r for _, _, r in circles))
    lw = 0.004 * ref
    dot = 0.012 * ref
    cv = _Canvas()
    cv.parts.append(f'<g fill="none" stroke="#1f77b4" stroke-width="{_fmt(lw)}">')
    for cx, cy, r in circles:
        cv.parts.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(-cy)}" r="{_fmt(r)}" />')
        cv.grow(cx, -cy, r + lw)
    cv.parts.append("</g>")
    _draw_points(cv, pts, dot)
    if labels:
        _draw_labels(cv, pts, [str(i) for i in range(len(pts))], ref)
    for x, y in pts:
        cv.grow(x, y, dot)
    return cv.finish()


def _draw_points(cv: _Canvas, pts, dot: float):
    cv.parts.append('<g fill="#d62728">')
    for x, y in pts:
        cv.parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(dot)}" />')
    cv.parts.append("</g>")


def _draw_labels(cv: _Canvas, pts, texts, ref: float):
    size = 0.03 * ref
    off = 0.018 * ref
    cv.parts.append(
        f'<g fill="#222222" font-family="sans-serif" font-size="{_fmt(size)}">'
    )
    for (x, y), text in zip(pts, texts):
        safe = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        cv.parts.append(f'<text x="{_fmt(x + off)}" y="{_fmt(y - off)}">{safe}</text>')
        cv.grow(x + off + size * len(text) * 0.6, y - off, size)
    cv.parts.append("</g>")
