"""Layering lint: no package module imports another module's private names.

A name with a leading underscore is an implementation detail of the module
that defines it. Another module that needs it gets a public name instead, so
each statistic keeps one code path. Dunder names such as ``__version__`` are
public by convention and exempt.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "plcc"


def _private_imports(path: pathlib.Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.level > 0):
            continue
        for alias in node.names:
            name = alias.name
            dunder = name.startswith("__") and name.endswith("__")
            if name.startswith("_") and not dunder:
                source = "." * node.level + (node.module or "")
                found.append(f"{path.name}:{node.lineno}: from {source} import {name}")
    return found


def test_no_module_imports_another_modules_private_names():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules, f"no modules found under {PACKAGE}"
    found = [hit for path in modules for hit in _private_imports(path)]
    assert not found, "private cross-module imports:\n" + "\n".join(found)
