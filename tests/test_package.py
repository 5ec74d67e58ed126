import importlib
import pathlib

import pytest

import confviz

EAGER = ("errors", "graphs", "incidence")


def test_every_public_name_resolves_to_its_module():
    for name in confviz.__all__:
        value = getattr(confviz, name)
        module = confviz._LAZY.get(name)
        if module is None:
            module = next(m for m in EAGER if hasattr(getattr(confviz, m), name))
        assert value is getattr(importlib.import_module(f"confviz.{module}"), name), name
        assert vars(confviz)[name] is value, name  # a lazy name is cached after its first lookup


def test_lazy_table_names_are_public_once():
    assert len(set(confviz.__all__)) == len(confviz.__all__)
    assert set(confviz._LAZY) <= set(confviz.__all__)


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
