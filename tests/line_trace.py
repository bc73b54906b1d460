"""Opt-in pytest plugin: the statements of ``src/stabsim`` that no test runs.

Load it by name; tier-1 does not load it otherwise:

    PYTHONPATH=src python -m pytest -q -p tests.line_trace --hypothesis-seed=0

A ``sys.settrace`` line trace follows only frames whose code lives under
``src/stabsim``.  A statement inside a function (a docstring excepted) is
reached when the trace sees its first line.  The terminal summary lists
every unreached statement, one ``path:line: source`` line each, marking
those in `ALLOWED`; the session fails when one of them is not in it.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "stabsim"

# ``"<file>: <the statement's first line, stripped>"`` -> the reason no
# tier-1 test reaches it.
ALLOWED: dict[str, str] = {}


def function_statements(tree: ast.AST) -> set[int]:
    """The first line of every statement inside a function of ``tree``,
    docstrings excepted.  A decorated definition starts at its first
    decorator, where the trace sees it."""
    lines = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = fn.body
        if (
            isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            body = body[1:]
        stack = list(body)
        while stack:
            node = stack.pop()
            decorators = getattr(node, "decorator_list", [])
            lines.add(min([node.lineno] + [d.lineno for d in decorators]))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue  # a nested function is walked as its own function
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.stmt):
                    stack.append(child)
                elif isinstance(child, ast.excepthandler | ast.match_case):
                    stack.extend(child.body)
    return lines


class LineTrace:
    def __init__(self):
        self.hits: dict[str, set[int]] = {}

    def _call(self, frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(self.prefix):
            return None
        seen = self.hits.setdefault(path, set())

        def local(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return local

        return local

    def pytest_sessionstart(self, session):
        self.prefix = str(SRC) + "/"
        sys.settrace(self._call)

    def unreached(self) -> list[tuple[str, int, str]]:
        missed = []
        for path in sorted(SRC.glob("*.py")):
            text = path.read_text()
            source = text.splitlines()
            seen = self.hits.get(str(path), set())
            for line in sorted(function_statements(ast.parse(text)) - seen):
                missed.append((path.name, line, source[line - 1].strip()))
        return missed

    def pytest_sessionfinish(self, session, exitstatus):
        sys.settrace(None)
        self.missed = [
            (f"{name}:{line}: {text}", f"{name}: {text}" in ALLOWED)
            for name, line, text in self.unreached()
        ]
        failing = any(not allowed for _, allowed in self.missed)
        if failing and session.exitstatus == 0:
            session.exitstatus = pytest.ExitCode.TESTS_FAILED

    def pytest_terminal_summary(self, terminalreporter):
        tr = terminalreporter
        tr.section("line trace of src/stabsim")
        tr.write_line(f"{len(self.missed)} unreached statements")
        for entry, allowed in self.missed:
            tr.write_line(f"{'allowed' if allowed else 'not allowed'}: {entry}")


def pytest_configure(config):
    config.pluginmanager.register(LineTrace(), "line-trace")
