"""The package exports only names that the program itself uses."""

import ast
from pathlib import Path

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
