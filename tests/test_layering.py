"""Module boundaries inside the package."""

import ast
import importlib
import inspect
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


def test_no_module_imports_scipy():
    # the package needs numpy only: no module imports scipy, at import time
    # or in a function body
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
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
    def readers(attr):
        return {path.name for path in PACKAGE.glob("*.py")
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Attribute) and node.attr == attr}
    assert readers("constant_matrix") == {"diffusion.py"}
    # the constant-pair variance part is forked inside
    # PairCoefficients.interval_parts, not by the routes
    assert readers("fixed") == {"diffusion.py"}



def _called(name):
    return lambda call: (isinstance(call.func, ast.Name)
                         and call.func.id == name
                         or isinstance(call.func, ast.Attribute)
                         and call.func.attr == name)


def test_sampling_and_the_match_check_are_called_where_the_trace_wraps():
    # the benchmark trace wraps sample_paths where cli.py looks it up and
    # diffusion_match_check where girsanov.py does: a call from anywhere
    # else would do work the trace does not count
    def modules(name):
        return {site.split(":")[0] for site in _calls_by_function(
            _called(name))}
    assert modules("sample_paths") == {"cli.py"}
    assert modules("diffusion_match_check") == {"girsanov.py"}
    # every route's paths, probe and blocks, are sampled by
    # _SampledPaths.block, so they are timed and counted like a whole
    # ensemble; the self-test's checks sample their own small ensembles
    assert {site for site in _calls_by_function(_called("sample_paths"))
            if site.startswith("cli.py")} == {
                "cli.py:block", "cli.py:_selftest_checks",
                "cli.py:check_mismatch_step", "cli.py:check_constant_drift",
                "cli.py:check_chain_identity"}


def test_every_path_space_route_takes_its_paths():
    # each route reads mu's paths from one argument, a PathEnsemble or a
    # path source, and none samples them from settings of its own
    for route in (pathkl.girsanov_entropy, pathkl.chain_estimate,
                  pathkl.refinement_sweep, pathkl.residual_energy_profile):
        params = inspect.signature(route).parameters
        assert not {"n_paths", "seed", "threads", "grid"} & set(params), \
            route.__name__


def test_the_probe_is_chosen_by_the_library():
    # girsanov_entropy picks and reads its own probe: only the match check
    # and girsanov call probe_stride, cli.py does not import it, and the
    # second entry point that took a probe's report is gone
    assert {site.split(":")[0] for site in _calls_by_function(
        _called("probe_stride"))} == {"diffusion.py", "girsanov.py"}
    imported = {alias.name for node in ast.walk(ast.parse(
                    (PACKAGE / "cli.py").read_text()))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "probe_stride" not in imported
    defined = [f"{path.name}:{node.name}"
               for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.name == "girsanov_match"]
    assert defined == []


def test_one_block_rule_and_one_fault_rescan():
    # every blocked reduction over paths takes its blocks from path_blocks
    # through read_blocks, and only diffusion.py sizes them
    assert _calls_by_function(_called("path_blocks")) == {
        "diffusion.py:read_blocks"}
    named = {path.name for path in PACKAGE.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text()))
             if "WORKING_SET_ELEMENTS" in (getattr(node, "id", None),
                                           getattr(node, "attr", None),
                                           getattr(node, "name", None))}
    assert named == {"diffusion.py"}
    assert not hasattr(pathkl.variational, "_block_rows")
    # on a fault, read_blocks alone reads all paths again; girsanov's block
    # integral catches a coefficient error only to report it non-finite
    errors = {"ModelEvaluationError", "PositiveDefinitenessError"}
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found |= {f"{path.name}:{func.name}"
                          for node in ast.walk(func)
                          if isinstance(node, ast.ExceptHandler)
                          and node.type is not None
                          and errors & {name.id for name in ast.walk(node.type)
                                        if isinstance(name, ast.Name)}}
    assert found == {"diffusion.py:read_blocks", "girsanov.py:_block_energy"}


def test_one_rule_joins_the_initial_term_to_the_path_terms():
    # every path-space route clamps through path_space_estimate; only the
    # marginal estimators clamp on their own
    assert _calls_by_function(
        lambda call: isinstance(call.func, ast.Name)
        and call.func.id == "clamp_at_zero") == {
            "estimates.py:path_space_estimate", "marginal.py:gaussian_kl",
            "marginal.py:histogram_report", "marginal.py:dv_estimate"}

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
    # a plateau_rtol of 1e9 ends the ascent at max_iter as a plateau, so
    # the run exits 0
    "dv-marginal": {"estimator": "dv-marginal",
                    "estimator_params": {"plateau_rtol": 1e9}},
    "sanov": {"model_mu": _CONSTANT_PAIR["model_P"],
              "initial_mu": {"kind": "point", "point": [0.0]},
              "initial_P": {"kind": "point", "point": [0.0]},
              "estimator": "sanov",
              "estimator_params": {"observable": "terminal",
                                   "threshold": 1.0, "n_list": [2, 5],
                                   "trials": 200}},
}

# the mismatch-sine workload's models
_SINE_PAIR = {
    **_CONSTANT_PAIR,
    "model_mu": {"id": "sine_diffusion",
                 "params": {"a": 2.0, "amplitude": 0.5}},
    "model_P": {"id": "sine_diffusion",
                "params": {"a": 1.0, "amplitude": 0.5}},
}

_FRESH_RUN = """
import sys
from pathkl import cli
for path in sys.argv[1:]:
    cli.resolve_config(cli.load_config(path))
for path in sys.argv[1:]:
    code = cli.main(["run", "--config", path, "--out", path + ".out"])
    assert code == 0, (path, code)
"""


def _scipy_after_fresh_runs(tmp_path, pair, runs, then=""):
    """The scipy modules a fresh interpreter has loaded after a `pathkl
    run` of pair with each of runs' overrides, then the statements then."""
    paths = []
    for name, over in runs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**pair, **over}))
        paths.append(str(path))
    script = _FRESH_RUN + then + """
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""
    search = filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(search)}
    proc = subprocess.run([sys.executable, "-c", script, *paths],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    for path in paths:
        report = json.loads(Path(path + ".out").read_text())
        assert report["command"] == "run"
    return proc.stdout.strip()


def test_constant_pair_runs_never_load_scipy(tmp_path):
    assert _scipy_after_fresh_runs(tmp_path, _CONSTANT_PAIR, _RUNS) == "[]"


def test_state_dependent_runs_and_the_histogram_never_load_scipy(tmp_path):
    # the per-column log of a 1-d state-dependent pair is np.log's, and the
    # Gaussian histogram provider takes its normal masses from math.erfc
    histogram = """
import numpy as np
from pathkl import GaussianLaw, SpacePartition, gaussian_cell_probabilities
law = GaussianLaw(np.zeros(1), np.eye(1))
gaussian_cell_probabilities(law)(SpacePartition.regular(-3.0, 3.0, 8))
"""
    runs = {name: _RUNS[name] for name in ("girsanov", "chain")}
    assert _scipy_after_fresh_runs(tmp_path, _SINE_PAIR, runs,
                                   histogram) == "[]"
