import importlib
import pkgutil

import pytest

import serrinlab

MODULES = ["serrinlab"] + [f"serrinlab.{m.name}" for m in pkgutil.iter_modules(serrinlab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a name left in __all__ after its definition is deleted breaks `import *`
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, missing
