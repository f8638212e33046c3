"""Opt-in pytest plugin: the statements of ccr_lab that a run never executed.

No coverage tool is needed.  The plugin is not a test module and is not
loaded by default; load it by name:

    PYTHONPATH=src:tests python -m pytest -p stmt_coverage

It installs a line tracer before ccr_lab is imported, and at the end of the
run prints every statement of the package's modules that never ran, as
path:line and the statement's first source line.  A statement counts as run
when a line event fires on one of its header lines: a simple statement's
own lines, or a compound statement's lines (decorators included) before its
body.  Docstrings compile to no code and are not listed.  Tracing slows the
run several times over; the tier-1 suite takes about 2 minutes under it.
"""

from __future__ import annotations

import ast
import importlib.util
import pathlib
import sys
import threading

_PACKAGE = pathlib.Path(importlib.util.find_spec("ccr_lab").origin).parent
_FILES = {str(path): path for path in sorted(_PACKAGE.glob("*.py"))}
_seen = {name: set() for name in _FILES}
_previous = None


def _local(frame, event, arg):
    if event == "line":
        _seen[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    return _local if frame.f_code.co_filename in _seen else None


def _statements(source):
    """(header lines, first line) for every statement that compiles to
    code, in source order."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # a docstring (or a bare constant), which compiles to nothing
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        out.append((range(first, max(first, last) + 1), node.lineno))
    return sorted(out, key=lambda s: s[1])


def never_executed():
    """[(path, line, source text)] of the statements no line event reached."""
    out = []
    for name, path in _FILES.items():
        source = path.read_text()
        text = source.splitlines()
        seen = _seen[name]
        for lines, line in _statements(source):
            if seen.isdisjoint(lines):
                out.append((path, line, text[line - 1].strip()))
    return out


def pytest_configure(config):
    global _previous
    _previous = sys.gettrace()
    threading.settrace(_global)
    sys.settrace(_global)


def pytest_unconfigure(config):
    sys.settrace(_previous)
    threading.settrace(_previous)


def pytest_terminal_summary(terminalreporter):
    missed = never_executed()
    terminalreporter.section(f"ccr_lab statements never executed: {len(missed)}")
    root = _PACKAGE.parent
    for path, line, text in missed:
        terminalreporter.write_line(f"{path.relative_to(root)}:{line}: {text}")
