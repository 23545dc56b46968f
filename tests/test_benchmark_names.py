"""The benchmark reaches into the package by name; every name it uses must exist.

``perfbench/tracing.py`` wraps library functions by ``(module, attribute)``
and ``perfbench/workloads.py`` calls them.  A rename or deletion in the
package would surface only when the benchmark runs, so these tests read both
files as syntax trees, without importing or running them.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import torickahler

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SCRIPTS = ("tracing.py", "workloads.py")


def _package_modules(tree: ast.Module, known: dict[str, str]) -> dict[str, str]:
    """Local name -> torickahler submodule, for each module a script imports from the package.

    ``known`` maps the names another script exports, so ``from workloads
    import jets`` resolves to ``torickahler.jets`` too.
    """
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module == "torickahler":
                    modules[local] = f"torickahler.{alias.name}"
                elif node.module in known and alias.name in known[node.module]:
                    modules[local] = known[node.module][alias.name]
    return modules


def _used_names(tree: ast.Module, modules: dict[str, str]) -> set[tuple[str, str]]:
    """Every (module, attribute) a script wraps with ``_wrap(module, "attr", ...)`` or reads as ``module.attr``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            used.add((modules[node.value.id], node.attr))
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "_wrap"
            and len(node.args) >= 2
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id in modules
            and isinstance(node.args[1], ast.Constant)
        ):
            used.add((modules[node.args[0].id], node.args[1].value))
    return used


def _benchmark_names() -> set[tuple[str, str]]:
    trees = {name: ast.parse((PERFBENCH / name).read_text()) for name in SCRIPTS}
    workload_modules = _package_modules(trees["workloads.py"], {})
    tracing_modules = _package_modules(trees["tracing.py"], {"workloads": workload_modules})
    return _used_names(trees["workloads.py"], workload_modules) | _used_names(trees["tracing.py"], tracing_modules)


def test_every_name_the_benchmark_uses_exists():
    used = _benchmark_names()
    # The parse must see the names it is meant to guard, or it guards nothing.
    assert ("torickahler.asymptotics", "hessian_t_family") in used
    assert ("torickahler.jets", "arith") in used
    assert ("torickahler.potentials", "scalar_flat_family") in used
    assert len(used) >= 30
    missing = sorted(
        (module, attr) for module, attr in used if not hasattr(importlib.import_module(module), attr)
    )
    assert missing == []


@pytest.mark.parametrize(
    "module", sorted(info.name for info in pkgutil.iter_modules(torickahler.__path__, "torickahler."))
)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    unresolved = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert unresolved == []
