"""Module boundaries inside the package."""

import ast
import importlib
from pathlib import Path

import pathkl

PACKAGE = Path(pathkl.__file__).parent


def test_no_private_name_crosses_a_module_boundary():
    # a name with a leading underscore is private to the module defining it
    crossings = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom) and node.level > 0
                    and node.module is not None):
                crossings += [f"{path.name}: from .{node.module} import "
                              f"{alias.name}" for alias in node.names
                              if alias.name.startswith("_")]
    assert crossings == []


def test_every_exported_name_is_defined():
    # a deleted function must not stay listed in an __all__
    undefined = []
    for path in sorted(PACKAGE.glob("*.py")):
        name = "pathkl" if path.stem == "__init__" else f"pathkl.{path.stem}"
        module = importlib.import_module(name)
        undefined += [f"{name}.{export}"
                      for export in getattr(module, "__all__", ())
                      if not hasattr(module, export)]
    assert undefined == []
