"""Every name a module of src/activeflow imports is used in that module.

A simplification that deletes the last use of a name often leaves its
import behind. The package's __init__.py is left out: its imports are the
public names it re-exports. A name counts as used when the module loads it
anywhere, a string annotation included.
"""

import ast
import os

import pytest

import activeflow

PACKAGE = os.path.dirname(os.path.realpath(activeflow.__file__))
MODULES = sorted(
    name for name in os.listdir(PACKAGE)
    if name.endswith(".py") and name != "__init__.py"
)


def imported_names(tree):
    """name -> line of every name an import binds, __future__ ones left out."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def used_names(tree):
    """Every name the module loads, names in string annotations included."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                inner = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(inner) if isinstance(n, ast.Name)}
    return used


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    with open(os.path.join(PACKAGE, module), "r", encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=module)
    used = used_names(tree)
    unused = sorted(
        f"{module}:{line} {name}"
        for name, line in imported_names(tree).items() if name not in used
    )
    assert not unused, f"imported but never used: {unused}"


def test_catches_an_unused_import():
    # a docstring naming the import is not a use; a string annotation is
    tree = ast.parse(
        "from .dynamics import Trajectory\n"
        "from .spectral import forward, synthesize\n"
        "def f(c: 'Trajectory'):\n"
        "    'Inverts c, the half spectrum forward gave.'\n"
        "    return synthesize(c)\n"
    )
    assert set(imported_names(tree)) - used_names(tree) == {"forward"}
