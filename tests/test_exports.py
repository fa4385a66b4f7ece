"""Every exported name resolves, so no deletion leaves a stale export behind."""

import importlib
import pkgutil

import pytest

import it2fuzz

MODULES = ["it2fuzz"] + [f"it2fuzz.{m.name}" for m in pkgutil.iter_modules(it2fuzz.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
