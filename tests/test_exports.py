"""Every name a module exports in __all__ exists."""

import importlib
import pkgutil

import pytest

import qminority

MODULES = ["qminority"] + [
    f"qminority.{m.name}" for m in pkgutil.iter_modules(qminority.__path__)
    if not m.name.startswith("_")
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
