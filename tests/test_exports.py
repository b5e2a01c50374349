"""Every exported name resolves, in the package and in each submodule, no
module imports a name it never uses, no module but `location` imports the
digit walk's private names, and no field of the recovery plan is
write-only: no field of a plan record is read nowhere in the package, and
no `Tunables` field is read nowhere on the recovery path.

The benchmark's tracer wraps functions by their `__all__` entries, so a
stale export would otherwise surface only there. The import check is a
small `ast` walk, so it needs no linter: a name counts as used when the
module reads it, lists it in `__all__`, or names it in a string annotation.
The plan check is another: a field counts as read when some attribute load
of its name appears in the package outside its own class body.
"""
import ast
import importlib
import pathlib
import pkgutil
from dataclasses import fields

import pytest

import sparsefft
from sparsefft import RecoveryParams, StagePlan, Tunables

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


# The digit walk and its vote primitives: location's own, so that the one
# decoder has one home.
WALK_NAMES = {
    "_decode_digit",
    "_inverse_reference",
    "_quorum",
    "_silent",
    "_Walk",
    "_walks",
    "_walk_digits",
}


def names_imported(source: str) -> set[str]:
    """Names a module's `from ... import` statements bring in."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_only_location_imports_the_digit_walk():
    offenders = {}
    for name in MODULES:
        source = pathlib.Path(importlib.import_module(name).__file__).read_text()
        walk_names = names_imported(source) & WALK_NAMES
        if walk_names and name != "sparsefft.location":
            offenders[name] = walk_names
    assert offenders == {}


def attributes_read(source: str, outside: str) -> set[str]:
    """Attribute names the module loads, except inside class `outside`."""
    tree = ast.parse(source)
    own = {
        id(node)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name == outside
        for node in ast.walk(cls)
    }
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and id(node) not in own
    }


# A Tunables field is a recovery knob, so only a read on the recovery path
# counts: one that the diagnostics, the harness or the CLI alone read tunes
# no run.
READERS = {
    Tunables: [
        "core",
        "filters",
        "permutation",
        "hashing_measurements",
        "location",
        "estimation",
        "recovery",
    ]
}


@pytest.mark.parametrize("cls", [RecoveryParams, StagePlan, Tunables])
def test_every_plan_field_is_read(cls):
    package = pathlib.Path(sparsefft.__file__).parent
    paths = package.glob("*.py")
    if cls in READERS:
        paths = [package / f"{name}.py" for name in READERS[cls]]
    read = set()
    for path in paths:
        read |= attributes_read(path.read_text(), cls.__name__)
    assert [f.name for f in fields(cls) if f.name not in read] == []


def test_field_read_check_skips_the_class_body():
    source = (
        "class Plan:\n"
        "    def total(self):\n"
        "        return self.a + self.b\n"
        "def use(plan):\n"
        "    plan.b = 1\n"
        "    return plan.c\n"
    )
    assert attributes_read(source, "Plan") == {"c"}
