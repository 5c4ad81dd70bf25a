"""The package exports only names that the program itself uses."""

import ast
import sys
from pathlib import Path

import pytest

import cobias

ROOT = Path(__file__).resolve().parents[1]


def _loaded_names(paths) -> set[str]:
    """Every name read as a variable or as an attribute in the files; the
    names bound by definitions and imports are not reads."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def test_every_export_has_a_user_outside_the_tests():
    modules = [p for p in (ROOT / "src" / "cobias").glob("*.py") if p.name != "__init__.py"]
    used = _loaded_names(modules + sorted((ROOT / "perfbench").glob("*.py")))
    assert sorted(set(cobias.__all__) - used) == []


def test_every_export_is_its_home_modules_object():
    for name in cobias.__all__:
        value = getattr(cobias, name)
        assert value.__module__.startswith("cobias.")
        assert getattr(sys.modules[value.__module__], name) is value


def test_star_import_binds_every_export():
    namespace = {}
    exec("from cobias import *", namespace)
    assert {name: namespace[name] for name in cobias.__all__} == {
        name: getattr(cobias, name) for name in cobias.__all__}


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'cobias' has no attribute 'no_such_name'"):
        cobias.no_such_name
    assert not hasattr(cobias, "no_such_name")


def test_dir_lists_every_export():
    assert set(cobias.__all__) <= set(dir(cobias))
