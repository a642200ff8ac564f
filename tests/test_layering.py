"""Module boundaries inside the package."""

import ast
import importlib
import json
import os
import subprocess
import sys
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


def _import_time_nodes(tree):
    """The nodes a module runs when imported: all but function bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def test_no_module_imports_scipy_at_import_time():
    # scipy.special takes longer to import than numpy, so only the routes
    # that use scipy load it
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _import_time_nodes(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert found == []


def _calls_by_function(is_call):
    """The path:function names of the functions that hold a call is_call
    accepts."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found |= {f"{path.name}:{func.name}"
                          for node in ast.walk(func)
                          if isinstance(node, ast.Call) and is_call(node)}
    return found


def test_one_positive_definiteness_rule():
    # every diffusion-matrix and KL-reference check asks
    # diffusion.positive_definite, through check_positive_definite
    named = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Name) and node.id == "EPS_PD"
             or isinstance(node, ast.Attribute) and node.attr == "EPS_PD"]
    assert named == []
    assert _calls_by_function(
        lambda call: isinstance(call.func, ast.Name)
        and call.func.id == "PositiveDefinitenessError") == {
            "diffusion.py:check_positive_definite"}


def test_one_reader_of_the_diffusion_matrix():
    # the routes read a(t, x) through DiffusionSpec.matrix_at, which checks
    # it in _factored_at (the sampler's d >= 2 step also takes the factor
    # from there); only the match check compares the raw matrices
    assert _calls_by_function(
        lambda call: isinstance(call.func, ast.Attribute)
        and call.func.attr == "diffusion_matrix") == {
            "diffusion.py:diffusion_match_check", "diffusion.py:_factored_at"}
    readers = {path.name for path in PACKAGE.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Attribute)
               and node.attr == "constant_matrix"}
    assert readers == {"diffusion.py"}


_CONSTANT_PAIR = {
    "model_mu": {"id": "constant_drift", "params": {"theta": 1.0}},
    "model_P": {"id": "brownian", "params": {}},
    "initial_mu": {"kind": "gaussian", "mean": [0.5], "covariance": [[2.0]]},
    "initial_P": {"kind": "gaussian", "mean": [0.0], "covariance": [[1.0]]},
    "grid": {"horizon": 1.0, "steps": 16},
    "n_paths": 64,
    "seed": 0,
}

_RUNS = {
    "girsanov": {"estimator": "girsanov"},
    "chain": {"estimator": "chain", "estimator_params": {"levels": 3}},
    "sanov": {"model_mu": _CONSTANT_PAIR["model_P"],
              "initial_mu": {"kind": "point", "point": [0.0]},
              "initial_P": {"kind": "point", "point": [0.0]},
              "estimator": "sanov",
              "estimator_params": {"observable": "terminal",
                                   "threshold": 1.0, "n_list": [2, 5],
                                   "trials": 200}},
}

_FRESH_RUN = """
import sys
from pathkl import cli
for path in sys.argv[1:]:
    cli.resolve_config(cli.load_config(path))
for path in sys.argv[1:]:
    code = cli.main(["run", "--config", path, "--out", path + ".out"])
    assert code == 0, (path, code)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_constant_pair_runs_never_load_scipy(tmp_path):
    paths = []
    for name, over in _RUNS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**_CONSTANT_PAIR, **over}))
        paths.append(str(path))
    search = filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(search)}
    proc = subprocess.run([sys.executable, "-c", _FRESH_RUN, *paths],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    for path in paths:
        report = json.loads(Path(path + ".out").read_text())
        assert report["command"] == "run"
