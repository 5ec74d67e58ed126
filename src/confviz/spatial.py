"""Polytope skeletons, neighbourhood planes, sphere circles, stereography.

Coordinates come from closed-form constructions and are validated on every
call: vertex and edge counts, regularity, equal edge lengths, and a common
circumsphere. Edges are derived from the coordinates by the minimum-distance
rule rather than stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (
    AdmissibilityError,
    DegeneracyError,
    ParameterError,
    PolePlacementError,
)
from .graphs import Graph, structure_report
from .realization import PointCircleConfig, circumcircle, tol_record
from .realization import TOL_INCIDENCE, TOL_SEPARATION

POLYTOPE_NAMES = (
    "tetrahedron",
    "cube",
    "octahedron",
    "dodecahedron",
    "icosahedron",
    "cuboctahedron",
)

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

    def close_to(self, other: "Plane", tol: float = _PLANE_MATCH_TOL) -> bool:
        dn = max(abs(a - b) for a, b in zip(self.normal, other.normal))
        return dn <= tol and abs(self.offset - other.offset) <= tol


@dataclass(eq=False)
class PolytopeSkeleton:
    name: str
    graph: Graph
    coords: np.ndarray

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=float)
        if self.coords.shape != (self.graph.order, 3):
            raise ParameterError("coordinate table must be (order, 3)")


@dataclass(eq=False)
class PointPlaneConfig:
    points: np.ndarray
    planes: tuple[Plane, ...]
    incidence: tuple[tuple[int, int], ...]
    max_residual: float


@dataclass(eq=False)
class SphereCircle:
    plane: Plane
    center: np.ndarray
    radius: float


@dataclass(eq=False)
class SphericalCircleConfig:
    center: np.ndarray
    radius: float
    points: np.ndarray
    circles: tuple[SphereCircle, ...]
    incidence: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class AdmissibilityReport:
    admissible: bool
    coplanar: bool
    max_residual: float
    failing_vertex: int | None
    planes_distinct: bool
    coincident_pair: tuple[int, int] | None

    def describe(self) -> str:
        if self.admissible:
            return f"admissible (max coplanarity residual {self.max_residual:.3e})"
        if not self.coplanar:
            return (
                f"not admissible: neighbourhood of vertex {self.failing_vertex} "
                f"is not coplanar (residual {self.max_residual:.3e})"
            )
        u, v = self.coincident_pair
        return f"not admissible: vertices {u} and {v} span the same plane"


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


def _edges_by_min_distance(coords: np.ndarray) -> tuple[tuple[int, int], ...]:
    n = len(coords)
    dists = {}
    for i, j in combinations(range(n), 2):
        dists[(i, j)] = float(np.linalg.norm(coords[i] - coords[j]))
    shortest = min(dists.values())
    return tuple(sorted(e for e, d in dists.items() if d <= shortest * (1.0 + 1e-9)))


def polytope_data(name: str) -> PolytopeSkeleton:
    """One skeleton from reference_coordinates; validates counts, regularity,
    edge lengths (within 1e-9 relative) and the common circumsphere before
    returning."""
    coords = reference_coordinates(name)
    nv, ne, degree = _EXPECTED[name]
    if coords.shape != (nv, 3):
        raise DegeneracyError(f"{name}: construction has wrong vertex count")
    edges = _edges_by_min_distance(coords)
    if len(edges) != ne:
        raise DegeneracyError(f"{name}: expected {ne} edges, derived {len(edges)}")
    g = Graph(nv, edges)
    if any(len(a) != degree for a in g.adjacency):
        raise DegeneracyError(f"{name}: skeleton is not {degree}-regular")
    lengths = [float(np.linalg.norm(coords[u] - coords[v])) for u, v in edges]
    span = max(lengths)
    if span - min(lengths) > 1e-9 * span:
        raise DegeneracyError(f"{name}: edge lengths not equal within tolerance")
    center = coords.mean(axis=0)
    radii = np.linalg.norm(coords - center, axis=1)
    if float(radii.max() - radii.min()) > 1e-9 * float(radii.max()):
        raise DegeneracyError(f"{name}: vertices miss a common circumsphere")
    if not structure_report(g).connected:
        raise DegeneracyError(f"{name}: skeleton is disconnected")
    return PolytopeSkeleton(name=name, graph=g, coords=coords)


# ---------------------------------------------------------------------------
# planes


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


def _fit_neighbourhood_planes(
    p: PolytopeSkeleton, tol: float
) -> tuple[AdmissibilityReport, list[Plane]]:
    """admissible_polytope's report, plus the neighbourhood planes it fitted."""
    planes = []
    worst = 0.0
    for v in range(p.graph.order):
        nbrs = list(p.graph.adjacency[v])
        if len(nbrs) < 3:
            raise ParameterError(f"vertex {v} has fewer than 3 neighbours")
        plane, res = coplanarity(p.coords[nbrs])
        worst = max(worst, res)
        if res > tol:
            report = AdmissibilityReport(
                admissible=False,
                coplanar=False,
                max_residual=res,
                failing_vertex=v,
                planes_distinct=True,
                coincident_pair=None,
            )
            return report, planes
        planes.append(plane)
    pairs = combinations(range(len(planes)), 2)
    pair = next(((i, j) for i, j in pairs if planes[i].close_to(planes[j])), None)
    report = AdmissibilityReport(
        admissible=pair is None,
        coplanar=True,
        max_residual=worst,
        failing_vertex=None,
        planes_distinct=pair is None,
        coincident_pair=pair,
    )
    return report, planes


def admissible_polytope(p: PolytopeSkeleton, tol: float = TOL_INCIDENCE) -> AdmissibilityReport:
    """Neighbourhoods must be coplanar and span pairwise distinct planes."""
    return _fit_neighbourhood_planes(p, tol)[0]


def _neighbourhood_planes(p: PolytopeSkeleton, tol: float) -> list[Plane]:
    report, planes = _fit_neighbourhood_planes(p, tol)
    if not report.admissible:
        raise AdmissibilityError(
            f"{p.name}: {report.describe()}",
            pair=report.coincident_pair,
        )
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


def sphere_circles(p: PolytopeSkeleton, tol: float = TOL_INCIDENCE) -> SphericalCircleConfig:
    """Cut each neighbourhood plane with the circumsphere.

    Vertices sit on the sphere by the load-time validation, so each
    neighbourhood lies on the circle its plane cuts out of the sphere.
    """
    planes = _neighbourhood_planes(p, tol)
    center = p.coords.mean(axis=0)
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
    return SphericalCircleConfig(
        center=center,
        radius=radius,
        points=p.coords.copy(),
        circles=tuple(circles),
        incidence=incidence,
    )


# ---------------------------------------------------------------------------
# stereographic projection


def _orthobasis(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    axis = np.zeros(3)
    axis[int(np.argmin(np.abs(u)))] = 1.0
    e1 = np.cross(u, axis)
    e1 = e1 / np.linalg.norm(e1)
    return e1, np.cross(u, e1)


def _circle_samples(sc: SphereCircle, angles) -> np.ndarray:
    n = np.asarray(sc.plane.normal)
    f1, f2 = _orthobasis(n)
    return np.array(
        [sc.center + sc.radius * (math.cos(a) * f1 + math.sin(a) * f2) for a in angles]
    )


def _pole_clearance(cfg: SphericalCircleConfig, pole: np.ndarray) -> float:
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
    cfg: SphericalCircleConfig,
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
    circles2 = []
    for v, sc in enumerate(cfg.circles):
        tri = project(_circle_samples(sc, (0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0)))
        image = circumcircle(tri[0], tri[1], tri[2])
        checks = project(
            _circle_samples(sc, [math.pi / 6.0 + j * math.pi / 4.0 for j in range(8)])
        )
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
        tols=tol_record(tol),
    )
    worst = out.max_incidence_residual()
    if worst > tol:
        raise DegeneracyError(f"projected incidences drift ({worst:.3e})")
    return out, pole
