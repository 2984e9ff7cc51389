"""Every name a module exports exists, so a deleted helper cannot linger
in an `__all__` list."""

import importlib
import pkgutil

import pytest

import rblie

MODULES = ["rblie"] + ["rblie." + m.name for m in pkgutil.iter_modules(rblie.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, missing
    assert len(set(module.__all__)) == len(module.__all__)
