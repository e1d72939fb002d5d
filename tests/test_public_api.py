"""Every name a ``repro`` module lists in ``__all__`` resolves on it."""

import importlib
import pkgutil

import pytest

import repro

MODULES = sorted(
    ["repro"]
    + [info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")]
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []
