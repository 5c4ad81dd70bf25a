"""The package exports only names that the program itself uses, its
modules import one another in one direction, and every import is used."""

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


# Each module may import only the modules before it. ``from . import name``
# of a name that is not a module, such as ``__version__``, reads the package
# itself, which every module may import.
LAYERS = ("defaults", "errors", "data", "metrics", "objective", "annealer", "oracle",
          "baselines", "cli")


def _package_imports(path: Path) -> set[str]:
    """The package's modules that a module imports anywhere in its body,
    function-level imports included; "" stands for the package itself."""
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                imported.add(node.module)
            else:
                imported |= {a.name if a.name in LAYERS else "" for a in node.names}
    return imported


def test_modules_import_only_earlier_layers():
    paths = [p for p in (ROOT / "src" / "cobias").glob("*.py") if p.name != "__init__.py"]
    assert sorted(p.stem for p in paths) == sorted(LAYERS)
    backward = {p.stem: sorted(m for m in _package_imports(p)
                               if m and LAYERS.index(m) >= LAYERS.index(p.stem)) for p in paths}
    assert {name: later for name, later in backward.items() if later} == {}


def _unused_imports(path: Path) -> list[str]:
    """The names a module imports and never reads. A name counts as read
    where it appears as a name, or inside a string that parses as an
    expression, such as a forward reference."""
    imported, used = {}, set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                used.update(n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                            if isinstance(n, ast.Name))
            except SyntaxError:  # prose, such as a docstring
                pass
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_every_import_in_the_package_is_used():
    paths = sorted((ROOT / "src" / "cobias").glob("*.py"))
    assert [unused for path in paths for unused in _unused_imports(path)] == []
