"""Every module of ``repro`` is reachable from an entry point.

The test builds the import graph of ``src/repro`` from the source, without
importing it.  Its roots are the CLI, ``repro.cli``, and every module that
registers into a registry at import time (a module-level ``*.register(...)``
or ``@register_*(...)`` call): such a module is live once its registry is
read.  An edge is an import anywhere in a module, lazy imports inside
functions included.  A name imported from a package resolves through the
package's ``__init__`` re-exports to the module that defines it, and a
package's own re-export imports do not count as uses: a module that only its
package re-exports is dead code that ``import repro`` still loads.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _modules() -> dict:
    """Module name -> (syntax tree, is a package) for every module of repro."""
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        is_package = parts[-1] == "__init__"
        name = ".".join(parts[:-1] if is_package else parts)
        modules[name] = (ast.parse(path.read_text(encoding="utf-8")), is_package)
    return modules


def _registers(tree: ast.Module) -> bool:
    """True when the module calls a registry's ``register*`` at import time."""
    for statement in tree.body:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            nodes = statement.decorator_list
        else:
            nodes = [statement]
        for node in nodes:
            for call in ast.walk(node):
                if isinstance(call, ast.Call):
                    func = call.func
                    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                    if name.startswith("register"):
                        return True
    return False


def _import_graph(modules: dict) -> dict:
    """Module name -> names of the modules it uses."""
    re_exports = {
        package: {
            alias.asname or alias.name: (node.module, alias.name)
            for node in tree.body
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        for package, (tree, is_package) in modules.items()
        if is_package
    }

    def resolve(module: str, name: str):
        if f"{module}.{name}" in modules:
            return f"{module}.{name}"
        if module in re_exports and name in re_exports[module]:
            return resolve(*re_exports[module][name])
        return module if module in modules else None

    graph = {}
    for module, (tree, is_package) in modules.items():
        used = set()
        if not is_package:
            for node in ast.walk(tree):
                assert not (isinstance(node, ast.ImportFrom) and node.level), module
                if isinstance(node, ast.Import):
                    used.update(alias.name for alias in node.names if alias.name in modules)
                elif isinstance(node, ast.ImportFrom):
                    used.update(resolve(node.module, alias.name) for alias in node.names)
        graph[module] = used - {None}
    return graph


def test_every_module_is_reachable_from_an_entry_point():
    modules = _modules()
    roots = {"repro.cli"} | {name for name, (tree, _) in modules.items() if _registers(tree)}
    assert {"repro.rtm.policies", "repro.workloads.chaos", "repro.workloads.scenarios"} <= roots
    graph = _import_graph(modules)
    reached, frontier = set(), list(roots)
    while frontier:
        module = frontier.pop()
        if module not in reached:
            reached.add(module)
            frontier.extend(graph[module])
    unreachable = sorted(
        name for name, (_, is_package) in modules.items() if not is_package and name not in reached
    )
    assert unreachable == []
