"""Every exported name resolves, and no export list repeats a name."""

import importlib
import pkgutil

import pytest

import vdslab

MODULES = ["vdslab"] + sorted(f"vdslab.{info.name}" for info in pkgutil.iter_modules(vdslab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_without_duplicates(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
