import ast
import importlib
import pathlib

import pytest

import confviz

# the public surface, named in full: a name joins or leaves it only on
# purpose, with README.md moving with it
PUBLIC_NAMES = [
    "AdmissibilityError", "Bipartition", "CapacityError", "ConcyclicityError", "ConfigClass",
    "ConvergenceError", "DegeneracyError", "DistinctnessError", "Graph", "IncidenceStructure",
    "KroneckerReport", "Layout", "POLYTOPE_NAMES", "ParameterError", "PointCircleConfig",
    "PointPlaneConfig", "PolePlacementError", "PolytopeSkeleton", "SamplingError",
    "SphericalCircleConfig", "TOL_CLUSTER", "TOL_INCIDENCE", "TOL_SEPARATION", "VertexMap",
    "build_family", "cartesian_factors", "cartesian_product", "check_flags", "circles_from_layout",
    "classify", "decompose", "family_names", "fano_plane", "find_free_cyclic_action",
    "find_swap_involution", "girth", "incidence_of", "invert_pointline", "is_admissible",
    "is_self_polar", "isomorphic", "kronecker_cover", "layout_gen_cuboctahedron", "layout_hypercube",
    "layout_polygon", "levi_graph", "line_graph", "pappus_structure", "point_plane_vconstruct",
    "polytope_data", "realize_n3", "solve_unit_distance", "sphere_circles", "stereographic_project",
    "unit_edge_residual", "v_construct", "verify_kronecker_theorem",
]


def test_the_public_names_are_the_listed_57():
    assert len(PUBLIC_NAMES) == 57
    assert confviz.__all__ == PUBLIC_NAMES


def test_every_public_name_resolves_from_the_table_and_is_cached():
    for name in confviz.__all__:
        vars(confviz).pop(name, None)  # an earlier lookup's cache would hide the table
        value = getattr(confviz, name)
        module = importlib.import_module(f"confviz.{confviz._MODULE_OF[name]}")
        assert value is getattr(module, name), name
        assert vars(confviz)[name] is value, name  # cached after its first lookup


def test_public_names_are_sorted_and_listed_once():
    assert confviz.__all__ == sorted(set(confviz.__all__))
    # a name the table listed twice would keep only its last module
    assert len(confviz.__all__) == sum(map(len, confviz._PUBLIC.values()))


def test_dir_and_star_import_cover_the_public_names():
    listed = dir(confviz)
    assert "__all__" in listed
    assert set(confviz.__all__) <= set(listed)
    namespace = {}
    exec("from confviz import *", namespace)
    assert set(confviz.__all__) <= set(namespace)
    assert namespace["TOL_INCIDENCE"] is confviz.TOL_INCIDENCE


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        confviz.no_such_name


def test_readme_library_block_runs(capsys):
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[0] == "(10_3), lineal, connected, self-polar"


def test_only_the_cli_imports_the_layouts():
    """The unit-distance layouts stay a stage of their own: no module of the
    package but cli.py imports them (the lazy name table in __init__ names
    the module as a string)."""
    package = pathlib.Path(confviz.__file__).resolve().parent
    importers = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module or ''}.{alias.name}" for alias in node.names] + [node.module or ""]
            else:
                continue
            if any("layouts" in name.split(".") for name in names):
                importers.add(path.name)
    assert importers == {"cli.py"}
