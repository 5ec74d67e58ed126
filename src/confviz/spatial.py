"""Polytope skeletons, neighbourhood planes, sphere circles, stereography.

Coordinates come from closed-form constructions and are validated on every
call: vertex and edge counts, regularity, equal edge lengths, and a common
circumsphere. Edges are derived from the coordinates by the minimum-distance
rule rather than stored. A set of planes is one (k, 4) table of rows
(nx, ny, nz, d), the plane n . x = d with unit n oriented by _plane_rows;
all neighbourhood planes are fitted in one pass per vertex degree, and the
sphere circles are such rows too, their centres and radii derived on use.
Stereographic projection takes each row to its image circle in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import AdmissibilityError, DegeneracyError, ParameterError, PolePlacementError
from .graphs import POLYTOPE_NAMES, Graph, _connected, _unchecked

# realization before numpy, which it imports itself: compiling realization.py
# from source after numpy has loaded leaves a process about 2 MB larger in
# RSS, as numpy's import no longer reuses the compiler's freed memory. With
# cached bytecode the order makes no difference.
from .realization import TOL_INCIDENCE, TOL_SEPARATION, PointCircleConfig, _radius, _seed, tol_record
from .realization import _circle_table, _float_table, _incidence_pairs, _pair_indices, _row_dots, _row_norms

import numpy as np

_EXPECTED = {
    # name: (vertices, edges, degree)
    "tetrahedron": (4, 6, 3),
    "cube": (8, 12, 3),
    "octahedron": (6, 12, 4),
    "dodecahedron": (20, 30, 3),
    "icosahedron": (12, 30, 5),
    "cuboctahedron": (12, 24, 4),
}

_PLANE_MATCH_TOL = 1e-7
_COLLINEAR_FIT = "plane fit of (nearly) collinear points"


@dataclass(eq=False)
class PolytopeSkeleton:
    name: str
    graph: Graph
    coords: np.ndarray

    def __post_init__(self):
        if not isinstance(self.graph, Graph):
            raise ParameterError(f"graph must be a Graph, not {type(self.graph).__name__}")
        shape = "coordinate table must be a finite (order, 3) array"
        self.coords = _float_table(self.coords, "coordinate entry", shape, 3, shape)
        if len(self.coords) != self.graph.order:
            raise ParameterError(shape)


@dataclass(eq=False)
class PointPlaneConfig:
    """Points and one plane per vertex neighbourhood: planes is a (k, 4)
    table of rows (nx, ny, nz, d), the plane n . x = d, as _plane_rows
    gives them; incidence holds (point, plane) pairs."""

    points: np.ndarray
    planes: np.ndarray
    incidence: tuple[tuple[int, int], ...]
    max_residual: float


@dataclass(eq=False)
class SphericalCircleConfig:
    """Points on the sphere (center, radius) and the circles the plane rows
    of circles, a (C, 4) table as in PointPlaneConfig, cut out of it;
    _circle_cuts gives their centres and radii. The constructor checks every
    field, for files and hand-built configurations alike, and passes the
    circles through _plane_rows. A second pass can move a bit, so a row that
    it moves by rounding alone, as it does a row it gave, is kept as given:
    a file reads back bit for bit. A plane as far from the centre as the
    radius, or farther, cuts no circle and is refused by its circle's index.
    sphere_circles, whose rows come out of _plane_rows already, skips the
    check through graphs._unchecked."""

    center: np.ndarray
    radius: float
    points: np.ndarray
    circles: np.ndarray
    incidence: tuple[tuple[int, int], ...]

    def __post_init__(self):
        shape = "points must be a finite (n, 3) table"
        points = _float_table(self.points, "point entry", shape, 3, shape)
        shape = "sphere centre must be a finite 3-vector"
        center = _float_table((self.center,), "sphere centre entry", shape, 3, shape)[0]
        radius = _radius(self.radius, "sphere radius")
        shape = "circles must be finite (nx, ny, nz, d) rows"
        table = _float_table(self.circles, "plane entry", shape, 4, shape)
        # pairs keep their given order, and with it the artifact's bytes
        p, k = _incidence_pairs(self.incidence, len(points), len(table))
        incidence = tuple(zip(p.tolist(), k.tolist()))
        self.points, self.center, self.radius, self.incidence = points, center, radius, incidence
        rows = _plane_rows(table[:, :3], table[:, 3])
        kept = np.all(np.abs(rows - table) <= 4.0 * np.finfo(float).eps * np.abs(table), axis=1)
        self.circles = np.where(kept[:, None], table, rows)
        gap = np.abs(self.circles[:, 3] - _row_dots(self.circles[:, :3], center))
        missed = np.flatnonzero(gap >= radius).tolist()
        if missed:
            c = missed[0]
            raise ParameterError(f"circle {c} misses the sphere ({gap[c]:.6g} from the centre, radius {radius:.6g})")


# ---------------------------------------------------------------------------
# coordinates


def reference_coordinates(name: str) -> np.ndarray:
    """Closed-form vertex coordinates, sorted lexicographically."""
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    if name == "tetrahedron":
        rows = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
    elif name == "cube":
        rows = [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
    elif name == "octahedron":
        rows = [
            (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
        ]
    elif name == "dodecahedron":
        rows = [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
        for a in (-1 / phi, 1 / phi):
            for b in (-phi, phi):
                rows.extend([(0, a, b), (a, b, 0), (b, 0, a)])
    elif name == "icosahedron":
        rows = []
        for a in (-1, 1):
            for b in (-phi, phi):
                rows.extend([(0, a, b), (a, b, 0), (b, 0, a)])
    elif name == "cuboctahedron":
        rows = []
        for a in (-1, 1):
            for b in (-1, 1):
                rows.extend([(a, b, 0), (a, 0, b), (0, a, b)])
    else:
        raise ParameterError(f"unknown polytope {name!r}; known: {', '.join(POLYTOPE_NAMES)}")
    return np.array(sorted(rows), dtype=float)


def _edges_by_min_distance(coords: np.ndarray) -> tuple[tuple[tuple[int, int], ...], np.ndarray]:
    """The vertex pairs within 1e-9 relative of the shortest distance, and their lengths."""
    i, j = _pair_indices(len(coords))
    dist = _row_norms(coords[i] - coords[j])
    near = dist <= dist.min() * (1.0 + 1e-9)
    return tuple(zip(i[near].tolist(), j[near].tolist())), dist[near]


def polytope_data(name: str) -> PolytopeSkeleton:
    """One skeleton from reference_coordinates; validates counts, regularity,
    edge lengths (within 1e-9 relative) and the common circumsphere before
    returning."""
    coords = reference_coordinates(name)
    nv, ne, degree = _EXPECTED[name]
    if coords.shape != (nv, 3):
        raise DegeneracyError(f"{name}: construction has wrong vertex count")
    edges, lengths = _edges_by_min_distance(coords)
    if len(edges) != ne:
        raise DegeneracyError(f"{name}: expected {ne} edges, derived {len(edges)}")
    g = Graph(nv, edges)
    if any(len(a) != degree for a in g.adjacency):
        raise DegeneracyError(f"{name}: skeleton is not {degree}-regular")
    span = float(lengths.max())
    if span - float(lengths.min()) > 1e-9 * span:
        raise DegeneracyError(f"{name}: edge lengths not equal within tolerance")
    center = coords.mean(axis=0)
    radii = np.linalg.norm(coords - center, axis=1)
    if float(radii.max() - radii.min()) > 1e-9 * float(radii.max()):
        raise DegeneracyError(f"{name}: vertices miss a common circumsphere")
    if not _connected(g):
        raise DegeneracyError(f"{name}: skeleton is disconnected")
    return PolytopeSkeleton(name=name, graph=g, coords=coords)


# ---------------------------------------------------------------------------
# planes


def _plane_rows(normals: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """(k, 4) rows (nx, ny, nz, d) of the planes normals[k] . x = offsets[k],
    scaled to unit normals and oriented so that the first normal component
    beyond 1e-12 in magnitude is positive: equal planes give equal rows."""
    length = _row_norms(normals)
    if not np.all(np.isfinite(length) & (length >= 1e-12)):
        raise ParameterError("plane normal must be a nonzero vector")
    rows = np.column_stack([normals / length[:, None], offsets / length])
    lead = np.take_along_axis(rows, np.argmax(np.abs(rows[:, :3]) > 1e-12, axis=1)[:, None], axis=1)
    return np.where(lead < 0, -rows, rows)


def _fit_planes(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best-fit plane rows (m, 4) of the stacked point sets pts (m, deg, 3)
    along their smallest singular directions, each set's largest distance
    from its plane (m,), and which sets are (nearly) collinear (m,)."""
    centroids = pts.mean(axis=1)
    _, svals, vt = np.linalg.svd(pts - centroids[:, None])
    collinear = svals[:, 1] <= 1e-12 * np.maximum(svals[:, 0], 1e-30)
    rows = _plane_rows(vt[:, -1], _row_dots(vt[:, -1], centroids))
    # one matrix-vector product per set, as a single set's pts @ normal
    residual = np.max(np.abs((pts @ rows[:, :3, None])[..., 0] - rows[:, 3:]), axis=1)
    return rows, residual, collinear


def _neighbourhood_planes(p: PolytopeSkeleton) -> np.ndarray:
    """All neighbourhood plane rows, fitted in one pass per degree.

    Neighbourhoods must be coplanar within TOL_INCIDENCE and span pairwise
    distinct planes. The first vertex that fails names the refusal: too few
    neighbours raise ParameterError, collinear ones DegeneracyError, and a
    neighbourhood off its plane AdmissibilityError with its residual. With
    every neighbourhood coplanar, the first two equal planes raise
    AdmissibilityError with their vertices as its pair."""
    adjacency, n = p.graph.adjacency, p.graph.order
    degree = np.array([len(a) for a in adjacency], dtype=np.intp)
    rows, residual, collinear = np.zeros((n, 4)), np.zeros(n), np.zeros(n, dtype=bool)
    for d in sorted(set(degree[degree >= 3].tolist())):
        vs = np.flatnonzero(degree == d)
        nbrs = np.array([adjacency[v] for v in vs.tolist()], dtype=np.intp)
        rows[vs], residual[vs], collinear[vs] = _fit_planes(p.coords[nbrs])
    bad = np.flatnonzero((degree < 3) | collinear | (residual > TOL_INCIDENCE)).tolist()
    if bad:
        v = bad[0]
        if degree[v] < 3:
            raise ParameterError(f"vertex {v} has fewer than 3 neighbours")
        if collinear[v]:
            raise DegeneracyError(_COLLINEAR_FIT)
        raise AdmissibilityError(
            f"{p.name}: not admissible: neighbourhood of vertex {v} is not coplanar (residual {residual[v]:.3e})"
        )
    i, j = _pair_indices(n)
    close = np.flatnonzero(np.max(np.abs(rows[i] - rows[j]), axis=1, initial=0.0) <= _PLANE_MATCH_TOL)
    if len(close):
        u, v = int(i[close[0]]), int(j[close[0]])
        raise AdmissibilityError(f"{p.name}: not admissible: vertices {u} and {v} span the same plane", pair=(u, v))
    return rows


def point_plane_vconstruct(p: PolytopeSkeleton) -> PointPlaneConfig:
    """Spatial V-construction: one neighbourhood plane row per vertex."""
    planes = _neighbourhood_planes(p)
    incidence = sorted((u, v) for v in range(p.graph.order) for u in p.graph.adjacency[v])
    u, v = np.array(incidence, dtype=np.intp).reshape(-1, 2).T
    residual = np.abs(_row_dots(p.coords[u], planes[v, :3]) - planes[v, 3])
    return PointPlaneConfig(
        points=p.coords.copy(),
        planes=planes,
        incidence=tuple(incidence),
        max_residual=float(np.max(residual, initial=0.0)),
    )


def _sphere_about(coords: np.ndarray, center: np.ndarray) -> tuple[np.ndarray, float, list[int]]:
    """Distances of coords from center, their mean, and the vertices off
    that mean by more than 1e-9 relative, polytope_data's bound."""
    dist = np.linalg.norm(coords - center, axis=1)
    radius = float(np.mean(dist))
    return dist, radius, np.flatnonzero(np.abs(dist - radius) > 1e-9 * radius).tolist()


def sphere_circles(p: PolytopeSkeleton) -> SphericalCircleConfig:
    """Cut each neighbourhood plane with the circumsphere.

    Its centre is the vertex mean when every vertex lies within 1e-9
    relative of the mean distance from it, polytope_data's bound; otherwise
    the least-squares solution c of |x|^2 = 2 c . x + (rho^2 - |c|^2), held
    to the same bound. The radius is the mean vertex distance from the
    centre. A hand-built skeleton skips polytope_data's check, so one that
    fits neither sphere is refused here, with its figures about the vertex
    mean. The circles are point_plane_vconstruct's plane rows, and each
    neighbourhood lies on the circle its plane cuts out of the sphere.
    """
    ppc = point_plane_vconstruct(p)
    coords = p.coords
    center = coords.mean(axis=0)
    dist, radius, off = _sphere_about(coords, center)
    if off:
        design = np.column_stack([2.0 * coords, np.ones(len(coords))])
        fit = np.linalg.lstsq(design, _row_dots(coords, coords), rcond=None)[0][:3]
        fit_dist, fit_radius, fit_off = _sphere_about(coords, fit)
        if not fit_off:
            center, dist, radius, off = fit, fit_dist, fit_radius, fit_off
    if off:
        v, d = off[0], dist[off[0]]
        raise DegeneracyError(f"vertex {v} misses the circumsphere ({d:.6g} from the centre, radius {radius:.6g})")
    fields = dict(center=center, radius=radius, points=ppc.points, circles=ppc.planes, incidence=ppc.incidence)
    cfg = _unchecked(SphericalCircleConfig, **fields)
    _circle_cuts(cfg)  # refuses a plane that misses the sphere
    return cfg


def _circle_cuts(cfg: SphericalCircleConfig) -> tuple[np.ndarray, np.ndarray]:
    """Centres (C, 3) and radii (C,) of the circles cfg's plane rows cut out of its sphere."""
    normals = cfg.circles[:, :3]
    gap = cfg.circles[:, 3] - _row_dots(normals, cfg.center)
    missed = np.flatnonzero(np.abs(gap) >= cfg.radius)
    if len(missed):
        raise DegeneracyError(f"neighbourhood plane of vertex {missed[0]} misses the circumsphere")
    return cfg.center + gap[:, None] * normals, np.sqrt(cfg.radius * cfg.radius - gap * gap)


# ---------------------------------------------------------------------------
# stereographic projection


def _orthobasis(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit vectors e1, e2 completing each unit row of u to a right-handed frame."""
    axis = np.zeros_like(u)
    np.put_along_axis(axis, np.argmin(np.abs(u), axis=-1)[..., None], 1.0, axis=-1)
    e1 = np.cross(u, axis)
    e1 = e1 / _row_norms(e1)[..., None]
    return e1, np.cross(u, e1)


def _pole_clearance(cfg: SphericalCircleConfig, circles, pole: np.ndarray) -> float:
    """Distance from the pole to the nearest configuration point or circle;
    circles are cfg's normals, centres and radii."""
    normals, centers, radii = circles
    v = pole - centers
    axial = _row_dots(normals, v)
    planar = _row_norms(v - axial[:, None] * normals)
    # math.hypot as in the per-circle loop: np.hypot differs from it in the
    # last bit on some inputs
    ring = min(map(math.hypot, (planar - radii).tolist(), axial.tolist()), default=math.inf)
    return min(float(np.min(np.linalg.norm(cfg.points - pole, axis=1))), ring)


def stereographic_project(cfg: SphericalCircleConfig, pole=None, seed: int = 0) -> tuple[PointCircleConfig, np.ndarray]:
    """Project sphere points and circles through a clear pole to the plane.

    The image plane passes through the sphere centre orthogonal to the pole
    direction u, in the frame (e1, e2) of _orthobasis(u). A circle that
    misses the pole maps to a circle (Needham, Visual Complex Analysis,
    1997). For the plane row n . x = d of a circle of radius rho, let
    h = (n . pole - d) / R, the pole's height over the plane in units of the
    sphere radius R: the image has centre -R (n . e1, n . e2) / h and radius
    rho / |h|. With pole=None the antipode of the mean oriented plane pole is
    tried first, then up to 256 seeded random poles, drawn only when the
    antipode fails; an explicit pole must be a finite 3-vector on the sphere
    that clears points and circles by the separation tolerance. Each projected incidence (q, k) must hold within
    TOL_INCIDENCE times the largest of 1, the image radius of circle k and
    the projection's scale factor (R^2 + |q|^2) / (2 R^2) at q. The seed is
    an integer >= 0.
    """
    seed = _seed(seed)
    r = cfg.radius
    circles = (cfg.circles[:, :3], *_circle_cuts(cfg))
    normals, _, radii = circles
    if pole is not None:
        shape = "explicit pole must be a finite 3-vector"
        pole = _float_table((pole,), "pole entry", shape, 3, shape)[0]
        if abs(float(np.linalg.norm(pole - cfg.center)) - r) > TOL_SEPARATION * r:
            raise ParameterError("explicit pole must lie on the sphere")
        if _pole_clearance(cfg, circles, pole) <= TOL_SEPARATION * r:
            raise PolePlacementError("pole touches a configuration point or circle")
    else:

        def candidates():
            mean = (cfg.center + r * normals).mean(axis=0) - cfg.center
            if np.linalg.norm(mean) > 1e-9 * r:
                yield cfg.center - r * mean / np.linalg.norm(mean)
            draws = np.random.default_rng(seed).normal(size=(256, 3))
            yield from cfg.center + r * draws / _row_norms(draws)[:, None]

        # the search stops at the first clear candidate, so it stays a loop
        pole = next((c for c in candidates() if _pole_clearance(cfg, circles, c) > 1e-3 * r), None)
        if pole is None:
            raise PolePlacementError("no pole cleared all points and circles")

    u = (pole - cfg.center) / r
    e1, e2 = _orthobasis(u)
    denom = (cfg.points - pole) @ u
    if np.any(np.abs(denom) < 1e-12 * r):
        raise DegeneracyError("projected point coincides with the pole")
    rel = pole + (-r / denom)[:, None] * (cfg.points - pole) - cfg.center
    h = (normals @ pole - cfg.circles[:, 3]) / r
    table = _circle_table(-r * (normals @ e1) / h, -r * (normals @ e2) / h, radii / np.abs(h))
    out = PointCircleConfig(np.stack([rel @ e1, rel @ e2], axis=-1), table, cfg.incidence, tols=tol_record())
    p, k = np.array(out.incidence, dtype=np.intp).reshape(-1, 2).T
    at, on = out.points[p], out.circles[k]
    # a residual counts against its image's own scale: rounding grows with
    # the circle's radius, and the input's own residual with the
    # projection's scale factor (R^2 + |q|^2) / (2 R^2) at the point, so a
    # pole near a circle is not refused for either
    scale = np.maximum(np.maximum(1.0, on["r"]), (r * r + _row_dots(at, at)) / (2.0 * r * r))
    off = np.abs(np.hypot(at[:, 0] - on["cx"], at[:, 1] - on["cy"]) - on["r"])
    worst = float(np.max(off / scale, initial=0.0))
    if worst > TOL_INCIDENCE:
        raise DegeneracyError(f"projected incidences drift ({worst:.3e})")
    return out, pole
