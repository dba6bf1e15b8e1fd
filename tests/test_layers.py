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
    # the last one, in powers.vav_identity_check, left with the function for
    # projections, beside the support_projection it calls; none remains
    local = [(module, function, target) for module in ORDER
             for function, target in _relative_imports(module) if function is not None]
    assert local == []


def test_algebra_imports_nothing_from_projections():
    assert "projections" not in {target for _, target in _relative_imports("algebra")}


def _scipy_imports(module: str) -> set:
    """The scipy modules (and names from them) a module imports, anywhere in it."""
    with open(os.path.join(PACKAGE, module + ".py")) as fh:
        tree = ast.parse(fh.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names if a.name.split(".")[0] == "scipy")
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module.split(".")[0] == "scipy":
            names.update(f"{node.module}.{a.name}" for a in node.names)
    return names


def test_matrices_owns_scipys_linear_algebra():
    # scipy's LAPACK is bound in one place: powers takes its Schur form from
    # matrices._schur and the transforms their LU from matrices.solve
    users = {module for module in ORDER
             if any(name.startswith("scipy.linalg") for name in _scipy_imports(module))}
    assert users == {"matrices"}


# numpy.linalg's dense kernels, which matrices._linalg binds to their gufuncs.
DENSE_KERNELS = {"svd", "eigvalsh", "eigh", "eig", "inv"}


def _numpy_dense_kernels(module: str) -> set:
    """The numpy.linalg dense kernels a module names (``np.linalg.svd``,
    ``from numpy.linalg import svd``), anywhere in it."""
    with open(os.path.join(PACKAGE, module + ".py")) as fh:
        tree = ast.parse(fh.read())
    names = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in DENSE_KERNELS
                and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"
                and isinstance(node.value.value, ast.Name) and node.value.value.id in ("np", "numpy")):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module == "numpy.linalg":
            names.update(a.name for a in node.names if a.name in DENSE_KERNELS)
    return names


def test_matrices_owns_numpys_dense_kernels():
    # every eigen-, singular-value and inverse solve goes through
    # matrices._linalg, the one place bound to numpy's gufuncs
    users = {module for module in ORDER if _numpy_dense_kernels(module)}
    assert users == {"matrices"}
