"""Every name that conekop and its modules export through __all__ resolves.

A deleted function whose name stays in an __all__ list breaks
``from conekop.<module> import *`` without failing any other test.
"""

import importlib
import pkgutil

import pytest

import conekop

# __main__ runs the command line when imported
MODULES = ["conekop"] + [f"conekop.{m.name}" for m in pkgutil.iter_modules(conekop.__path__)
                         if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(name)
    assert mod.__all__
    missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
    assert not missing, f"{name}.__all__ names {missing}"
