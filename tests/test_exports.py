import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import serrinlab

MODULES = ["serrinlab"] + [f"serrinlab.{m.name}" for m in pkgutil.iter_modules(serrinlab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a name left in __all__ after its definition is deleted breaks `import *`
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, missing


@pytest.mark.parametrize("name", MODULES)
def test_exported_signatures_name_no_private_type(name):
    # a caller of the public API never has to reach a private name to build an argument
    module = importlib.import_module(name)
    private = {}
    for export in getattr(module, "__all__", ()):
        obj = getattr(module, export)
        for fn in (obj.__init__,) if inspect.isclass(obj) else (obj,) if callable(obj) else ():
            for key, annotation in getattr(fn, "__annotations__", {}).items():
                if re.search(r"(?<!\w)_\w+", str(annotation)):  # postponed: the annotation's source text
                    private[f"{export}.{key}"] = str(annotation)
    assert not private, private


def test_acceptance_criteria_import_no_private_name():
    # the acceptance criteria exercise only the public API of serrinlab
    tree = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text(encoding="utf-8"))
    modules, private = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "serrinlab":
                    modules.add(alias.asname or alias.name)
                    private += [part for part in alias.name.split(".") if part.startswith("_")]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "serrinlab":
            private += [alias.name for alias in node.names if alias.name.startswith("_")]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            private += [node.attr] if node.attr.startswith("_") else []
    assert modules and not private, private
