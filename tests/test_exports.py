"""Every exported name resolves, in the package and in each submodule, and
no module imports a name it never uses.

The benchmark's tracer wraps functions by their `__all__` entries, so a
stale export would otherwise surface only there. The import check is a
small `ast` walk, so it needs no linter: a name counts as used when the
module reads it, lists it in `__all__`, or names it in a string annotation.
"""
import ast
import importlib
import pathlib
import pkgutil

import pytest

import sparsefft

MODULES = ["sparsefft"] + [
    f"sparsefft.{info.name}" for info in pkgutil.iter_modules(sparsefft.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    assert isinstance(module.__all__, list)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def unused_imports(source: str) -> list[str]:
    """Names a module's import statements bind but its code never uses."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs
            every += [a for a in (args.vararg, args.kwarg) if a is not None]
            annotations = [a.annotation for a in every] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for ann in annotations:
            for sub in ast.walk(ann) if ann is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    parsed = ast.parse(sub.value, mode="eval")
                    used |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return sorted(set(imported) - used)


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    source = pathlib.Path(importlib.import_module(name).__file__).read_text()
    assert unused_imports(source) == []


def test_unused_import_check_sees_every_use():
    source = (
        "from __future__ import annotations\n"
        "import os, numpy as np\n"
        "from typing import TYPE_CHECKING\n"
        "from .core import A, B, C, D\n"
        "if TYPE_CHECKING:\n"
        "    from .m import E\n"
        "__all__ = ['A']\n"
        "def f(x: 'E') -> B:\n"
        "    return np.zeros(1)\n"
    )
    assert unused_imports(source) == ["C", "D", "os"]
