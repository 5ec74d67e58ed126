"""confviz: neighbourhood-derived incidence structures and their realizations.

The pipeline runs graph -> incidence structure (V-construction) -> planar or
spatial realization -> verification and rendering. See README.md for the CLI
walk-through.
"""

from importlib import import_module

from .errors import (
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
from .graphs import (
    Bipartition,
    Graph,
    POLYTOPE_NAMES,
    StructureReport,
    VertexMap,
    bipartite_swap_involution,
    build_family,
    cartesian_factors,
    cartesian_product,
    family_names,
    is_admissible,
    kronecker_cover,
    line_graph,
    structure_report,
)
from .incidence import (
    ConfigClass,
    IncidenceStructure,
    KroneckerReport,
    classify,
    decompose,
    fano_plane,
    is_self_polar,
    levi_graph,
    pappus_structure,
    v_construct,
    verify_kronecker_theorem,
)

# The numeric names and `iso` load on first access (PEP 562): importing the
# package, or a CLI command that needs none of them, loads neither.
_LAZY = {
    "Layout": "realization",
    "PointCircleConfig": "realization",
    "TOL_CLUSTER": "realization",
    "TOL_INCIDENCE": "realization",
    "TOL_SEPARATION": "realization",
    "check_flags": "realization",
    "circles_from_layout": "realization",
    "incidence_of": "realization",
    "invert_pointline": "realization",
    "layout_gen_cuboctahedron": "realization",
    "layout_hypercube": "realization",
    "layout_polygon": "realization",
    "realize_n3": "realization",
    "solve_unit_distance": "realization",
    "unit_edge_residual": "realization",
    "find_free_cyclic_action": "iso",
    "find_swap_involution": "iso",
    "isomorphic": "iso",
    "PointPlaneConfig": "spatial",
    "PolytopeSkeleton": "spatial",
    "SphericalCircleConfig": "spatial",
    "admissible_polytope": "spatial",
    "coplanarity": "spatial",
    "point_plane_vconstruct": "spatial",
    "polytope_data": "spatial",
    "sphere_circles": "spatial",
    "stereographic_project": "spatial",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups bypass this hook
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"

__all__ = [
    "AdmissibilityError",
    "Bipartition",
    "CapacityError",
    "ConcyclicityError",
    "ConfigClass",
    "ConvergenceError",
    "DegeneracyError",
    "DistinctnessError",
    "Graph",
    "IncidenceStructure",
    "KroneckerReport",
    "Layout",
    "POLYTOPE_NAMES",
    "ParameterError",
    "PointCircleConfig",
    "PointPlaneConfig",
    "PolePlacementError",
    "PolytopeSkeleton",
    "SamplingError",
    "SphericalCircleConfig",
    "StructureReport",
    "TOL_CLUSTER",
    "TOL_INCIDENCE",
    "TOL_SEPARATION",
    "VertexMap",
    "admissible_polytope",
    "bipartite_swap_involution",
    "build_family",
    "cartesian_factors",
    "cartesian_product",
    "check_flags",
    "circles_from_layout",
    "classify",
    "coplanarity",
    "decompose",
    "family_names",
    "fano_plane",
    "find_free_cyclic_action",
    "find_swap_involution",
    "incidence_of",
    "invert_pointline",
    "is_admissible",
    "is_self_polar",
    "isomorphic",
    "kronecker_cover",
    "layout_gen_cuboctahedron",
    "layout_hypercube",
    "layout_polygon",
    "levi_graph",
    "line_graph",
    "pappus_structure",
    "point_plane_vconstruct",
    "polytope_data",
    "realize_n3",
    "solve_unit_distance",
    "sphere_circles",
    "stereographic_project",
    "structure_report",
    "unit_edge_residual",
    "v_construct",
    "verify_kronecker_theorem",
]
