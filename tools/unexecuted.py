"""List the statements of ``src/plcc`` that no test executes.

Usage::

    python tools/unexecuted.py [PYTEST_ARGS ...]

Runs pytest in this process (by default on the ``tests`` directory of this
checkout, quietly and without its cache) with a line tracer installed by
``sys.settrace`` and ``threading.settrace``, so that Monte Carlo worker
threads are traced too. The tracer only follows frames of modules under
``src/plcc``; the package is imported from this checkout's ``src``. It then
prints each statement that never ran as ``<path>:<line>: <source line>``, in
file order, and a count last. The exit code is pytest's.

A statement counts as executed when any line of its own ran; a compound
statement (``if``, ``for``, ``try``, ``def``, ...) owns its header lines,
and an ``except`` clause counts as a statement of its own. Statements that
compile to no code (``else:``, a function's docstring) are never listed.

Only the standard library is used, so this works where ``coverage`` is not
installed. Tracing makes the suite take about one and a half times as long.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "plcc") + os.sep

executed: dict[str, set[int]] = defaultdict(set)


def _trace(frame, event, arg):
    """Global tracer: a line tracer for frames of the package, else none."""
    filename = frame.f_code.co_filename
    if not filename.startswith(PACKAGE):
        return None
    lines = executed[filename]

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    return local


def _code_lines(code) -> set[int]:
    """Every line that some instruction of ``code`` or its nested code maps to."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, type(code)):
            lines |= _code_lines(const)
    return lines


def _own_lines(node) -> range:
    """The lines of a statement that are not lines of the statements it holds."""
    children = [
        child
        for name in ("body", "orelse", "finalbody", "handlers")
        for child in getattr(node, name, [])
    ]
    end = min((c.lineno for c in children), default=node.end_lineno + 1) - 1
    return range(node.lineno, max(end, node.lineno) + 1)


def unexecuted(path: str) -> list[tuple[int, str]]:
    """The (line, source line) of each statement in ``path`` that never ran."""
    with open(path) as fh:
        source = fh.read()
    code_lines = _code_lines(compile(source, path, "exec"))
    ran = executed.get(path, set())
    text = source.splitlines()
    found = []
    for node in ast.walk(ast.parse(source, path)):
        if isinstance(node, (ast.stmt, ast.ExceptHandler)):
            own = set(_own_lines(node)) & code_lines
            if own and not own & ran:
                found.append((node.lineno, text[node.lineno - 1].strip()))
    return sorted(found)


def main(argv: list[str]) -> int:
    import pytest

    args = argv or ["-q", "-p", "no:cacheprovider", os.path.join(ROOT, "tests")]
    sys.path.insert(0, SRC)
    threading.settrace(_trace)
    sys.settrace(_trace)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = 0
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            for line, text in unexecuted(os.path.join(PACKAGE, name)):
                print(f"{os.path.relpath(os.path.join(PACKAGE, name), ROOT)}:{line}: {text}")
                total += 1
    print(f"{total} statement(s) under src/plcc never executed")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
