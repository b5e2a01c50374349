"""Every exported name resolves, in the package and in each submodule.

The benchmark's tracer wraps functions by their `__all__` entries, so a
stale export would otherwise surface only there.
"""
import importlib
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
