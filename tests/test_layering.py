"""Module boundaries inside the package."""

import ast
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
