"""Import lints over the package modules, read from their syntax trees.

No module imports another module's private names: a name with a leading
underscore is an implementation detail of the module that defines it.
Another module that needs it gets a public name instead, so each statistic
keeps one code path. Dunder names such as ``__version__`` are public by
convention and exempt.

No module imports a name it never uses, unless it re-exports it.

The package's public names are the union of the layer modules' ``__all__``
lists. Each name appears once, and each module lists only names it defines,
so no star import can shadow one module's name with another's. The list of
public names is written out below, so that adding or removing one is an
edit to this file, and README names each of them.

Importing the command line leaves the thread pool out: only a Monte Carlo
run with more than one job needs it. It leaves the analysis and Monte Carlo
layers out too, and ``generate`` and its replay never load them: the
package loads those layers on first use, and still resolves every public
name.

What an integer or a number parameter is, is decided in ``core`` alone: no
other module imports ``numbers``, and no module tests a value by comparing
``int(v)`` with ``v``, a test that accepts ``3.0`` and ``True``.
"""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import plcc

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


def _unused_imports(path: pathlib.Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"{path.name}:{line}: {name}"
        for name, line in sorted(imported.items())
        if name not in used and name not in exported
    ]


def test_no_module_imports_a_name_it_does_not_use():
    # ``__init__.py`` exists to re-export, and so does a name in ``__all__``
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules, f"no modules found under {PACKAGE}"
    found = [hit for path in modules for hit in _unused_imports(path)]
    assert not found, "unused imports:\n" + "\n".join(found)


def _foreign_exports(path: pathlib.Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    defined = set()
    exported = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            defined |= names
            if "__all__" in names:
                exported = ast.literal_eval(node.value)
    return [f"{path.name}: {name}" for name in exported if name not in defined]


def test_public_names_are_unique_and_defined_where_listed():
    names = plcc.__all__
    duplicates = sorted({n for n in names if names.count(n) > 1})
    assert not duplicates, f"listed more than once in plcc.__all__: {duplicates}"
    assert all(hasattr(plcc, n) for n in names)
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    found = [hit for path in modules for hit in _foreign_exports(path)]
    assert not found, "names exported but not defined by the listing module:\n" + "\n".join(found)


PUBLIC_NAMES = [
    "CellStats", "CoherencyReport", "DegenerateInput", "DetrendConfig", "ESTIMATORS",
    "EstimationFailed", "ExperimentConfig", "ExperimentResult", "GAUSSIAN", "InvalidInput",
    "InvalidParameter", "JointFluctuations", "McArfimaSpec", "PlccError",
    "REGIME_ANTI_COINTEGRATION", "REGIME_INFEASIBLE", "REGIME_STANDARD", "STUDENT_T",
    "ScalingFit", "SeriesTooShort", "TruncationWarning", "__version__", "arfima_weights",
    "classify", "coherency", "coherency_report", "correlated_innovations", "cross_periodogram",
    "default_scale_grid", "estimate_h_logperiodogram", "estimate_hxy_logcross",
    "feasibility_sweep", "filter_mc_arfima", "fit_loglog", "generate_arfima",
    "generate_mc_arfima", "h_rho_frequency", "periodogram", "rho_decay", "run_experiment",
    "split_seed", "standard_regimes", "theoretical_exponents",
]

# module names that the package does not export
UNEXPORTED = {"core": ["profile", "series_values"], "detrended": ["min_scale_for_order"]}


def test_public_names_are_the_pinned_list():
    assert sorted(plcc.__all__) == PUBLIC_NAMES
    for module, names in UNEXPORTED.items():
        for name in names:
            assert not hasattr(plcc, name), name
            assert callable(getattr(importlib.import_module(f"plcc.{module}"), name)), name
    assert not any(hasattr(m, "NonPositiveOrdinate") for m in (plcc, plcc.errors))


def test_readme_names_every_public_name():
    readme = (PACKAGE.parents[1] / "README.md").read_text()
    missing = [name for name in plcc.__all__ if f"`{name}`" not in readme]
    assert not missing, f"public names README does not name: {missing}"


def _int_comparisons(path: pathlib.Path) -> list[str]:
    """Comparisons of ``int(v)``, or of a name assigned from it, with ``v``."""
    tree = ast.parse(path.read_text(), filename=str(path))

    def int_args(node) -> set[str]:
        return {
            ast.dump(call.args[0])
            for call in ast.walk(node)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
            and call.func.id == "int" and len(call.args) == 1
        }

    assigned: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    assigned.setdefault(target.id, set()).update(int_args(node.value))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for a in operands:
            sources = int_args(a) if isinstance(a, ast.Call) else set()
            if isinstance(a, ast.Name):
                sources = assigned.get(a.id, set())
            if any(ast.dump(b) in sources for b in operands if b is not a):
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
                break
    return found


def test_parameter_rules_live_in_core():
    modules = sorted(PACKAGE.glob("*.py"))
    numbers_users = [
        f"{path.name}:{node.lineno}"
        for path in modules if path.name != "core.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Import) and any(a.name == "numbers" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "numbers"
    ]
    assert not numbers_users, "numbers imported outside core:\n" + "\n".join(numbers_users)
    found = [hit for path in modules for hit in _int_comparisons(path)]
    assert not found, "integer tests by int(v) == v:\n" + "\n".join(found)


def _fresh(code: str, cwd=None) -> str:
    """The standard output of ``code`` run by a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=cwd, capture_output=True, text=True, check=True
    )
    return run.stdout


def test_cli_import_leaves_the_thread_pool_out():
    assert _fresh("import sys, plcc.cli; print('concurrent.futures' in sys.modules)") == "False\n"


_DEFERRED = ["plcc.detrended", "plcc.montecarlo", "plcc.powerlaw", "plcc.spectral"]
_LOADED = "print(sorted(m for m in sys.modules if m in %r))" % _DEFERRED


def test_cli_import_generate_and_replay_leave_the_analysis_layers_out(tmp_path):
    (tmp_path / "g.cfg").write_text("length = 512\nseed = 3\noutput = x\nspec.d1 = 0.3\n")
    code = (
        "import sys, plcc.cli\n"
        f"{_LOADED}\n"
        "assert plcc.cli.main(['generate', 'g.cfg', '--out', 'g.csv']) == 0\n"
        "assert plcc.cli.main(['replay', 'g.csv.manifest.json']) == 0\n"
        f"{_LOADED}\n"
        "assert plcc.cli.main(['dfa', 'g.csv']) == 0\n"
        f"{_LOADED}\n"
    )
    loaded = [line for line in _fresh(code, cwd=tmp_path).splitlines() if line.startswith("[")]
    assert loaded == ["[]", "[]", "['plcc.detrended']"]


def test_every_public_name_resolves_from_a_fresh_package():
    code = (
        "import sys, plcc\n"
        f"{_LOADED}\n"
        "star = {}\n"
        "exec('from plcc import *', star)\n"
        "star.pop('__builtins__')\n"
        "print(sorted(star) == sorted(plcc.__all__), set(plcc.__all__) <= set(dir(plcc)))\n"
        "print(plcc.run_experiment is sys.modules['plcc.montecarlo'].run_experiment)\n"
        f"{_LOADED}\n"
    )
    assert _fresh(code).splitlines() == ["[]", "True True", "True", str(_DEFERRED)]
    assert {"detrended", "montecarlo", "powerlaw", "spectral"} <= set(dir(plcc))
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        plcc.no_such_name  # noqa: B018


def test_deferred_names_are_their_modules_exports():
    for module, names in plcc._LAZY.items():
        assert names == tuple(importlib.import_module(f"plcc.{module}").__all__), module
