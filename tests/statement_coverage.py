"""Statement coverage of ``src/cobias`` over the whole test suite.

A pytest plugin, not a test module, so the default run does not load it:

    PYTHONPATH=src:tests python -m pytest -q -p statement_coverage

A ``sys.settrace`` line tracer, started before the conftest files load and
so before any ``cobias`` module is imported, records the lines of the
package that run.
A statement ran when a line event fell on one of its own lines: a simple
statement owns all of its lines, a compound one its header, decorators
included, up to its first nested statement. Docstrings are not statements.

``statement_coverage.json`` lists the statements that never run, each keyed
by its file and its text (whitespace collapsed; a compound statement's
header only), not by its line number, and each with a reason. The run fails
on an unrun statement that is not listed and on a listed statement that no
longer exists or that now runs. Statements sharing one file and text share
one entry, which holds while any of them is unrun. Only a run of the whole
suite is meaningful: a subset leaves more unrun.
"""

from __future__ import annotations

import ast
import json
import pathlib
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "cobias"
ALLOWED = pathlib.Path(__file__).with_name("statement_coverage.json")

_ran: dict[str, set[int]] = {}  # file name relative to PACKAGE -> lines with a line event
_tracers: dict[str, object] = {}  # co_filename -> local tracer, or None outside PACKAGE
_problems: list[str] = []


def _tracer_for(co_filename: str):
    path = pathlib.Path(co_filename).resolve()
    if path.parent != PACKAGE:
        return None
    lines = _ran.setdefault(path.name, set())

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    return local


def _trace(frame, event, arg):
    filename = frame.f_code.co_filename
    try:
        return _tracers[filename]
    except KeyError:
        tracer = _tracers[filename] = _tracer_for(filename)
        return tracer


def _nested(node: ast.AST) -> list[ast.AST]:
    """The statements and except clauses directly inside a node."""
    return [child for field in ("body", "orelse", "finalbody", "handlers")
            if isinstance(getattr(node, field, None), list) for child in getattr(node, field)]


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and parent.body[0] is node and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str))


def statements(source: str) -> list[tuple[set[int], str, int]]:
    """(own lines, text, first line) of each statement in a module's source."""
    lines = source.splitlines()
    found = []
    for parent in ast.walk(ast.parse(source)):
        for node in _nested(parent):
            # an except clause is no statement; its body is walked from it
            if not isinstance(node, ast.stmt) or _is_docstring(node, parent):
                continue
            children = _nested(node)
            first = min([d.lineno for d in getattr(node, "decorator_list", ())] + [node.lineno])
            if children:
                end = min(child.lineno for child in children)
                header = lines[node.lineno - 1:max(end - 1, node.lineno)]
                if end == node.lineno:  # "if x: return", the header is the line's head
                    header = [header[0][:children[0].col_offset]]
                own = set(range(first, max(end, node.lineno + 1)))
            else:
                header = [ast.get_source_segment(source, node)]
                own = set(range(first, node.end_lineno + 1))
            found.append((own, " ".join(" ".join(header).split()), node.lineno))
    return found


def check(ran: dict[str, set[int]], allowed: list[dict]) -> list[str]:
    """The problems of one run against the allow-list: unrun statements it
    does not list, and entries that match no unrun statement."""
    problems = []
    unrun = {}  # (file, text) -> first line of each unrun statement with that key
    for path in sorted(PACKAGE.glob("*.py")):
        hit = ran.get(path.name, set())
        for own, text, line in statements(path.read_text()):
            if not own & hit:
                unrun.setdefault((path.name, text), []).append(line)
    listed = set()
    for entry in allowed:
        key = (entry["file"], entry["statement"])
        if not entry.get("reason", "").strip():
            problems.append(f"{key[0]}: listed without a reason: {key[1]}")
        if key not in unrun:
            problems.append(f"{key[0]}: listed but runs or does not exist: {key[1]}")
        listed.add(key)
    for (name, text), first_lines in sorted(unrun.items()):
        if (name, text) not in listed:
            problems += [f"{name}:{line}: not run and not listed: {text}" for line in first_lines]
    return problems


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests():
    sys.settrace(_trace)  # the package runs in the main thread only


def pytest_sessionfinish(session):
    sys.settrace(None)
    _problems[:] = check(_ran, json.loads(ALLOWED.read_text()))
    if _problems and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    terminalreporter.section("statement coverage of src/cobias")
    for problem in _problems:
        terminalreporter.write_line(problem)
    if not _problems:
        terminalreporter.write_line(f"every statement runs or is listed in {ALLOWED.name}")
