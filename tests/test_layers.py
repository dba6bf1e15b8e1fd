"""The package's modules import top-down, in one layer order."""
from __future__ import annotations

import ast
import os

import realpos

PACKAGE = os.path.dirname(realpos.__file__)

# Each module imports, at module level, only from modules before it.
ORDER = ("matrices", "algebra", "cones", "transforms", "powers", "projections", "interp",
         "generators", "suites", "cli")


def _relative_imports(module: str):
    """(enclosing function or None, imported module) for every ``from .x import``."""
    with open(os.path.join(PACKAGE, module + ".py")) as fh:
        tree = ast.parse(fh.read())
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ImportFrom) and child.level:
                targets = [child.module] if child.module else [a.name for a in child.names]
                found.extend((function, target) for target in targets)
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
            visit(child, function or inner)

    visit(tree, None)
    return found


def test_module_level_imports_point_down():
    modules = {name[:-3] for name in os.listdir(PACKAGE) if name.endswith(".py")}
    assert modules - {"__init__"} == set(ORDER)
    for rank, module in enumerate(ORDER):
        for function, target in _relative_imports(module):
            if function is None:
                assert target in ORDER[:rank], f"{module} imports {target}"


def test_one_function_local_import_remains():
    # vav_identity_check needs support projections, and projections imports powers
    local = [(module, function, target) for module in ORDER
             for function, target in _relative_imports(module) if function is not None]
    assert local == [("powers", "vav_identity_check", "projections")]


def test_algebra_imports_nothing_from_projections():
    assert "projections" not in {target for _, target in _relative_imports("algebra")}
