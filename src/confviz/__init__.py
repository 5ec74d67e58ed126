"""confviz: neighbourhood-derived incidence structures and their realizations.

The pipeline runs graph -> incidence structure (V-construction) -> planar or
spatial realization -> verification and rendering. See README.md for the CLI
walk-through.
"""

from importlib import import_module

from . import errors, graphs, incidence

# Every public name, once, under the module that defines it. A name resolves
# on first access (PEP 562) and is then cached in the module globals, so the
# numeric modules and `iso` load only when one of their names is read:
# importing the package, or a CLI command that needs none of them, loads
# neither.
_PUBLIC = {
    "errors": (
        "AdmissibilityError", "CapacityError", "ConcyclicityError", "ConvergenceError", "DegeneracyError",
        "DistinctnessError", "ParameterError", "PolePlacementError", "SamplingError",
    ),
    "graphs": (
        "Bipartition", "Graph", "POLYTOPE_NAMES", "StructureReport", "VertexMap", "build_family",
        "cartesian_factors", "cartesian_product", "family_names", "is_admissible", "kronecker_cover", "line_graph",
        "structure_report",
    ),
    "incidence": (
        "ConfigClass", "IncidenceStructure", "KroneckerReport", "classify", "decompose", "fano_plane",
        "is_self_polar", "levi_graph", "pappus_structure", "v_construct", "verify_kronecker_theorem",
    ),
    "realization": (
        "Layout", "PointCircleConfig", "TOL_CLUSTER", "TOL_INCIDENCE", "TOL_SEPARATION", "check_flags",
        "circles_from_layout", "incidence_of", "invert_pointline", "layout_gen_cuboctahedron",
        "layout_hypercube", "layout_polygon", "realize_n3", "solve_unit_distance", "unit_edge_residual",
    ),
    "iso": ("find_free_cyclic_action", "find_swap_involution", "isomorphic"),
    "spatial": (
        "PointPlaneConfig", "PolytopeSkeleton", "SphericalCircleConfig", "point_plane_vconstruct", "polytope_data",
        "sphere_circles", "stereographic_project",
    ),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups bypass this hook
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})


__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)
