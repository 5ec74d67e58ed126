"""Independent reference implementations used to freeze expected values.

The graph helpers work on plain (order, edges) data and deliberately avoid
the library's own algorithms, so tests compare two separately written
computations instead of a function against itself. The scalar circle
intersection and flag check, the least-squares loop, the edge residual,
the rotational-ansatz solve and the hypercube position loop are the loops
that the library's array passes replaced; the JSON emitter at the end is
the one that branched on numpy types. Tests hold each pair to the same
answers.
"""

import json
import math
from itertools import combinations, permutations
from typing import Any

import numpy as np

from confviz import iso
from confviz.errors import ConvergenceError, ParameterError
from confviz.realization import (
    TOL_CLUSTER,
    TOL_INCIDENCE,
    TOL_SEPARATION,
    Circle,
    Layout,
    PointCircleConfig,
    _edge_arrays,
    _solve_coordinates,
)


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


def four_subsets(n):
    return list(combinations(range(n), 4))


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

    degenerate = _min_separation(cfg.points) <= tol_sep

    radii = [c.r for c in cfg.circles]
    isometric = (max(radii) - min(radii)) <= tol_rad

    # proper: some point on every circle exists iff it lies on the first two
    if len(cfg.circles) == 1:
        proper = False
    else:
        proper = True
        for cand in circle_pair_intersections(cfg.circles[0], cfg.circles[1], tol_clu):
            if all(abs(float(c.residual(cand)[0])) <= max(tol_inc, tol_clu) for c in cfg.circles):
                proper = False
                break

    # geometric incidence of config points on circles
    on_circle = np.abs(np.array([c.residual(cfg.points) for c in cfg.circles])) <= tol_inc

    lineal = True
    for i, j in combinations(range(len(cfg.circles)), 2):
        if int(np.sum(on_circle[i] & on_circle[j])) > 1:
            lineal = False
            break

    meets = meet_points(cfg.circles, tol_clu)
    determining = False
    if not degenerate:
        triple_points = []
        for rep in _cluster(meets, tol_clu):
            through = sum(
                1 for c in cfg.circles if abs(float(c.residual(rep)[0])) <= max(tol_inc, tol_clu)
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
# rotational ansatz, per vertex and per edge, kept as the differential oracle
# for the ring-table passes in confviz.realization


def _orbit_positions(x: np.ndarray, orbits: list[list[int]], k: int, n: int) -> np.ndarray:
    pos = np.zeros((n, 2))
    for j, orbit in enumerate(orbits):
        r, phi = x[2 * j], x[2 * j + 1]
        for t, v in enumerate(orbit):
            a = phi + 2.0 * math.pi * t / k
            pos[v] = (r * math.cos(a), r * math.sin(a))
    return pos


def _solve_orbits(g, orbits: list[list[int]], k: int, x0: np.ndarray, max_iter: int) -> np.ndarray:
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


def solve_unit_distance(g, *, seed=None, symmetry=None, tol=TOL_INCIDENCE, max_iter=500, restarts=40):
    """The seeded restart loops of solve_unit_distance (no polish path), the
    symmetric one over the per-vertex ansatz above."""
    base_seed = 0 if seed is None else int(seed)
    rng = np.random.default_rng(base_seed)
    best = math.inf

    if symmetry is not None:
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
        for orbits in orbit_sets:
            m = len(orbits)
            for _ in range(restarts):
                x0 = np.empty(2 * m)
                x0[0::2] = rng.uniform(0.25, 2.2, size=m)
                x0[1::2] = rng.uniform(0.0, 2.0 * math.pi, size=m)
                x = _solve_orbits(g, orbits, k, x0, max_iter)
                pos = _orbit_positions(x, orbits, k, g.order)
                pos = _solve_coordinates(g, pos, max_iter)  # polish off the ansatz
                layout = Layout(g, pos, {})
                residual = unit_edge_residual(layout)
                best = min(best, residual)
                if residual <= tol and _min_separation(pos) > TOL_SEPARATION:
                    layout.meta.update(
                        {
                            "method": "orbit-lm",
                            "symmetry": k,
                            "seed": base_seed,
                            "residual": residual,
                        }
                    )
                    return layout, residual
        raise ConvergenceError("symmetric solve exhausted restarts", residual=best)

    span = 1.0 + 0.25 * math.sqrt(g.order)
    for _ in range(restarts):
        pos0 = rng.uniform(-span, span, size=(g.order, 2))
        pos = _solve_coordinates(g, pos0, max_iter)
        layout = Layout(g, pos, {})
        residual = unit_edge_residual(layout)
        best = min(best, residual)
        if residual <= tol and _min_separation(pos) > TOL_SEPARATION:
            layout.meta.update({"method": "lm", "seed": base_seed, "residual": residual})
            return layout, residual
    raise ConvergenceError("unit-distance solve exhausted restarts", residual=best)


def hypercube_positions(d: int, angles: np.ndarray) -> np.ndarray:
    units = np.column_stack([np.cos(angles), np.sin(angles)])
    pos = np.zeros((1 << d, 2))
    for v in range(1 << d):
        for b in range(d):
            if v >> b & 1:
                pos[v] += units[b]
    return pos


# ---------------------------------------------------------------------------
# canonical JSON emitter with numpy branches, kept as an oracle for
# confviz.jsonio.dumps


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
