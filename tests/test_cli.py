"""Command-line surface: configs, reports, exit codes, determinism."""

import csv
import dataclasses
import gc
import io
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pathkl import (DiffusionSpec, InitialLaw, ModelEvaluationError,
                    PositiveDefinitenessError, TimeGrid, girsanov_entropy,
                    make_model, mixed_basis, refinement_sweep,
                    register_model, residual_energy_profile, sample_paths)
from pathkl.cli import ESTIMATORS, main, run_config
from pathkl.diffusion import model_ids, model_params

README = Path(__file__).resolve().parents[1] / "README.md"

pytestmark = pytest.mark.usefixtures("capsys")


def _write(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _girsanov_cfg(**over):
    cfg = {
        "model_mu": {"id": "constant_drift", "params": {"theta": 1.0}},
        "model_P": {"id": "brownian", "params": {}},
        "initial_mu": {"kind": "point", "point": [0.0]},
        "initial_P": {"kind": "point", "point": [0.0]},
        "grid": {"horizon": 1.0, "steps": 50},
        "estimator": "girsanov",
        "n_paths": 200,
        "seed": 0,
    }
    cfg.update(over)
    return cfg


def _report(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# run


def test_run_girsanov_report(tmp_path):
    cfg_path = _write(tmp_path, "g.json", _girsanov_cfg())
    out = tmp_path / "report.json"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
    report = _report(out)
    assert report["command"] == "run"
    assert report["results"]["estimate"]["value"] == pytest.approx(
        0.5, abs=1e-12)
    assert report["config"]["estimator"] == "girsanov"
    assert report["config"]["n_paths"] == 200
    assert "version" in report
    assert report["wall_clock_s"] > 0


def test_run_report_roundtrips(tmp_path):
    cfg_path = _write(tmp_path, "g.json", _girsanov_cfg())
    out = tmp_path / "report.json"
    main(["run", "--config", cfg_path, "--out", str(out)])
    report = _report(out)
    assert json.loads(json.dumps(report)) == report


def test_run_unknown_model_exits_2(tmp_path, capsys):
    cfg = _girsanov_cfg(model_mu={"id": "levy", "params": {}})
    cfg_path = _write(tmp_path, "bad.json", cfg)
    out = tmp_path / "report.json"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 2
    assert not out.exists()
    assert "error" in capsys.readouterr().err


def test_run_unknown_top_key_exits_2(tmp_path):
    cfg = _girsanov_cfg()
    cfg["paths"] = 100
    assert main(["run", "--config", _write(tmp_path, "k.json", cfg)]) == 2


def test_run_unknown_estimator_param_exits_2(tmp_path):
    cfg = _girsanov_cfg(estimator_params={"tol": 1e-6})
    assert main(["run", "--config", _write(tmp_path, "p.json", cfg)]) == 2


def test_run_unknown_model_param_exits_2(tmp_path):
    cfg = _girsanov_cfg(
        model_mu={"id": "constant_drift", "params": {"thota": 1.0}})
    assert main(["run", "--config", _write(tmp_path, "m.json", cfg)]) == 2


def test_run_rejects_non_numeric_model_param(tmp_path, capsys):
    # a list used to end in a TypeError traceback with exit code 1
    cfg = _girsanov_cfg(model_mu={"id": "ou", "params": {"gamma": [1.0]}})
    assert main(["run", "--config", _write(tmp_path, "m.json", cfg)]) == 2
    err = capsys.readouterr().err
    assert "model 'ou' param 'gamma'" in err


@pytest.mark.parametrize("span", [[-1, 1, 7], [1]], ids=["three", "one"])
def test_run_rejects_bump_span_not_two_numbers(tmp_path, capsys, span):
    # three used to build on [-1, 1] and drop the 7; one ended in an
    # IndexError traceback with exit code 1
    basis = {"box": [-3, 3], "count": 4, "bump_span": span}
    cfg = _girsanov_cfg(estimator="dv-marginal",
                        estimator_params={"basis": basis})
    assert main(["run", "--config", _write(tmp_path, "b.json", cfg)]) == 2
    assert "basis.bump_span" in capsys.readouterr().err


@pytest.mark.parametrize("side,record,field", [
    ("initial_mu", {"kind": "point", "point": [True]}, "point"),
    ("initial_P", {"kind": "point", "point": "abc"}, "point"),
    ("initial_mu", {"kind": "gaussian", "mean": [0.0],
                    "covariance": [[True]]}, "covariance"),
    ("initial_P", {"kind": "gaussian", "mean": [math.inf],
                   "covariance": [[1.0]]}, "mean"),
    ("initial_mu", {"kind": "empirical",
                    "samples": [[0.0]] * 1999 + [[math.nan]]}, "samples"),
], ids=["point-bool", "point-string", "covariance-bool", "mean-inf",
        "samples-nan"])
def test_run_rejects_initial_entries_that_are_not_finite_numbers(
        tmp_path, capsys, side, record, field):
    # [true] on both sides used to run from x0 = 1; "abc" exited 1 with
    # numpy's message; an undrawn NaN sample gave a NaN initial term
    cfg = _girsanov_cfg(**{side: record})
    out = tmp_path / "r.json"
    assert main(["run", "--config", _write(tmp_path, "i.json", cfg),
                 "--out", str(out)]) == 2
    assert not out.exists()
    assert f"{side}.{field} must be a finite number" in \
        capsys.readouterr().err


def test_run_rejects_negative_basis_count(tmp_path, capsys):
    # a basis with monomials used to build them only
    basis = {"box": [-3, 3], "count": -1, "degrees": [0, 1, 2]}
    cfg = _girsanov_cfg(estimator="dv-marginal",
                        estimator_params={"basis": basis})
    assert main(["run", "--config", _write(tmp_path, "n.json", cfg)]) == 2
    assert "nonnegative bump count" in capsys.readouterr().err


def test_run_chain_requires_dyadic_steps(tmp_path, capsys):
    cfg = _girsanov_cfg(estimator="chain",
                        estimator_params={"levels": 4},
                        grid={"horizon": 1.0, "steps": 100})
    assert main(["run", "--config", _write(tmp_path, "c.json", cfg)]) == 2
    assert "grid with 100 steps cannot host 4 dyadic levels" in \
        capsys.readouterr().err


def test_run_chain_sweep_needs_only_divisible_steps(tmp_path):
    # 768 = 3 * 2^8 hosts 9 dyadic levels; the CLI used to refuse every
    # step count that is not a power of two
    cfg = _girsanov_cfg(estimator="chain", estimator_params={"levels": 9},
                        grid={"horizon": 1.0, "steps": 768}, n_paths=50)
    out = tmp_path / "r.json"
    assert main(["run", "--config", _write(tmp_path, "c.json", cfg),
                 "--out", str(out)]) == 0
    init = InitialLaw.point_mass([0.0])
    sweep = refinement_sweep(make_model("constant_drift", {"theta": 1.0}),
                             make_model("brownian", {}), init, init,
                             TimeGrid.uniform(1.0, 768), 9, 50, 0)
    got = _report(out)["results"]["sweep"]
    assert [(r["intervals"], r["value"], r["std_error"]) for r in got] == [
        (e.partition.n_intervals, e.total.value, e.total.std_error)
        for e in sweep.estimates]


def test_run_chain_sweep_csv(tmp_path, capsys):
    cfg = _girsanov_cfg(estimator="chain",
                        estimator_params={"levels": 3},
                        grid={"horizon": 1.0, "steps": 64},
                        n_paths=300)
    cfg_path = _write(tmp_path, "c.json", cfg)
    assert main(["run", "--config", cfg_path, "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["level", "mesh", "value", "std_error", "slope"]
    assert len(rows) == 4
    values = [float(r[2]) for r in rows[1:]]
    assert values[-1] == pytest.approx(0.5, rel=0.2)


def test_run_sanov_csv(tmp_path, capsys):
    cfg = _girsanov_cfg(
        model_mu={"id": "brownian", "params": {}},
        estimator="sanov",
        estimator_params={"observable": "terminal", "threshold": 1.0,
                          "n_list": [2, 5], "trials": 500},
        grid={"horizon": 1.0, "steps": 16})
    cfg_path = _write(tmp_path, "s.json", cfg)
    assert main(["run", "--config", cfg_path, "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0][:5] == ["n", "count", "p_hat", "rate", "std_error"]
    assert len(rows) == 3


def test_run_sanov_missing_params_exits_2(tmp_path):
    cfg = _girsanov_cfg(estimator="sanov",
                        estimator_params={"observable": "terminal"})
    assert main(["run", "--config", _write(tmp_path, "s.json", cfg)]) == 2


@pytest.mark.parametrize("estimator,params", [
    ("dv-marginal", {"t": 3 * 0.1 / 10, "n_samples": 300}),
    ("chain", {"partition_times": [0.0, 3 * 0.1 / 10, 1.0]}),
], ids=["dv-marginal", "chain"])
def test_run_accepts_time_just_above_grid_point(tmp_path, estimator, params):
    # 3 * 0.1 / 10 = 0.030000000000000006 lies 7e-18 above a grid point
    cfg = _girsanov_cfg(estimator=estimator, estimator_params=params,
                        grid={"horizon": 1.0, "steps": 100})
    out = tmp_path / "r.json"
    assert main(["run", "--config", _write(tmp_path, "t.json", cfg),
                 "--out", str(out)]) == 0
    assert _report(out)["results"]


def test_run_residual_energy_basis_dimension_mismatch_exits_2(tmp_path,
                                                              capsys):
    # a 1-d basis config on a 2-d model is refused, not broadcast
    cfg = _girsanov_cfg(
        model_mu={"id": "ou", "params": {"gamma": 1.0}},
        initial_mu={"kind": "point", "point": [0.0, 0.0]},
        initial_P={"kind": "point", "point": [0.0, 0.0]},
        estimator="residual-energy", n_paths=200,
        estimator_params={"basis": {"box": [-3.0, 3.0], "count": 4}},
        grid={"horizon": 1.0, "steps": 32})
    out = tmp_path / "r.json"
    assert main(["run", "--config", _write(tmp_path, "cfg.json", cfg),
                 "--out", str(out)]) == 2
    assert not out.exists()
    assert "dimension" in capsys.readouterr().err


def test_run_convergence_failure_writes_partial_report(tmp_path, capsys):
    cfg = {
        "model_mu": {"id": "constant_drift", "params": {"theta": 1.0}},
        "model_P": {"id": "brownian", "params": {}},
        "initial_mu": {"kind": "point", "point": [0.0]},
        "initial_P": {"kind": "point", "point": [0.0]},
        "grid": {"horizon": 1.0, "steps": 32},
        "estimator": "dv-marginal",
        "estimator_params": {"t": 1.0, "n_samples": 2000, "max_iter": 4,
                             "plateau_rtol": 1e-9},
        "seed": 0,
    }
    cfg_path = _write(tmp_path, "dv.json", cfg)
    out = tmp_path / "partial.json"
    code = main(["run", "--config", cfg_path, "--out", str(out)])
    assert code == 3
    partial = _report(out)
    assert partial["results"]["status"] == "ConvergenceError"
    assert partial["results"]["best_value"] is not None
    assert partial["results"]["best_value"] > 0


def _residual_cfg(**params):
    return _girsanov_cfg(estimator="residual-energy", estimator_params=params,
                         grid={"horizon": 1.0, "steps": 64}, n_paths=300)


def _sanov_cfg(**params):
    return _girsanov_cfg(
        model_mu={"id": "brownian", "params": {}}, estimator="sanov",
        estimator_params={"observable": "terminal", "threshold": 1.0,
                          "n_list": [2, 5], **params},
        grid={"horizon": 1.0, "steps": 16})


@pytest.mark.parametrize("cfg,key", [
    (_girsanov_cfg(grid={"horizon": 1.0, "steps": 64.7}), "steps"),
    (_girsanov_cfg(n_paths=300.9), "n_paths"),
    (_residual_cfg(window=4.9), "window"),
    (_residual_cfg(stride=True), "stride"),
    (_sanov_cfg(trials=1e4), "trials"),
], ids=["steps", "n_paths", "window", "stride", "trials"])
def test_run_rejects_wrong_typed_values(tmp_path, capsys, cfg, key):
    # each used to run, cast or defaulted to 64, 300, 4, 1 or 10000
    out = tmp_path / "r.json"
    assert main(["run", "--config", _write(tmp_path, "t.json", cfg),
                 "--out", str(out)]) == 2
    assert not out.exists()
    assert f".{key} must be of type" in capsys.readouterr().err


@pytest.mark.parametrize("field,value", [
    ("count", 4.7), ("count", True), ("box", ["-3", 3]),
    ("degrees", [0.5, 1]), ("margin", "0.3"),
], ids=["count-float", "count-bool", "box", "degrees", "margin"])
def test_run_rejects_wrong_typed_basis_fields(tmp_path, capsys, field,
                                              value):
    # each used to run cast: 4 bumps, 1 bump, box -3, degree 0, margin 0.3
    basis = {"box": [-3.0, 3.0], "count": 4, field: value}
    out = tmp_path / "r.json"
    assert main(["run", "--config",
                 _write(tmp_path, "t.json", _residual_cfg(basis=basis)),
                 "--out", str(out)]) == 2
    assert not out.exists()
    assert f"basis.{field} must be of type" in capsys.readouterr().err


def _ou_cfg(estimator, **params):
    return _girsanov_cfg(model_mu={"id": "ou", "params": {"gamma": 1.0}},
                         estimator=estimator, estimator_params=params,
                         grid={"horizon": 1.0, "steps": 16}, n_paths=300)


@pytest.mark.parametrize("cfg,key", [
    (_ou_cfg("girsanov", tol_match=math.nan), "estimator_params.tol_match"),
    (_ou_cfg("chain", partition_times=[0.0, -math.inf, 1.0]),
     "estimator_params.partition_times"),
    (_ou_cfg("sanov", observable="terminal", threshold=math.nan,
             n_list=[2, 5]), "estimator_params.threshold"),
    (_ou_cfg("dv-marginal", basis={"box": [math.nan, 3.0]}), "basis.box"),
    (_ou_cfg("dv-marginal", basis={"box": [-3.0, 3.0], "scale": math.inf}),
     "basis.scale"),
    (_girsanov_cfg(grid={"horizon": math.inf, "steps": 16}), "grid.horizon"),
], ids=["tol-match", "partition-times",
        "sanov-threshold", "basis-box", "basis-scale", "horizon"])
def test_run_rejects_numbers_that_are_not_finite(tmp_path, capsys, cfg,
                                                 key):
    # json.load takes NaN and +-Infinity: tol_match NaN reported +inf as a
    # diffusion mismatch, a NaN sanov threshold exited 3 and a NaN box gave
    # a NaN dv value
    out = tmp_path / "r.json"
    assert main(["run", "--config", _write(tmp_path, "f.json", cfg),
                 "--out", str(out)]) == 2
    assert not out.exists()
    assert f"{key} must be of type" in capsys.readouterr().err


@pytest.mark.parametrize("span", [[5, 6], [1, 0]],
                         ids=["outside", "reversed"])
def test_run_rejects_bump_span_outside_the_box(tmp_path, capsys, span):
    # outside used to give a plausible DV zero for a KL of 1.39, reversed
    # failed as "bump scale must be positive"
    basis = {"box": [-1, 1], "count": 3, "bump_span": span}
    cfg = _ou_cfg("dv-marginal", basis=basis)
    assert main(["run", "--config", _write(tmp_path, "s.json", cfg)]) == 2
    assert "basis.bump_span must be an increasing pair inside the box" in \
        capsys.readouterr().err


@pytest.mark.parametrize("params,key", [
    ({"levels": 2, "partition_times": [0.0, 0.25, 1.0]}, "partition_times"),
], ids=["partition-times-with-levels"])
def test_run_chain_refuses_keys_its_run_would_ignore(tmp_path, capsys,
                                                     params, key):
    # it used to run the dyadic sweep
    cfg = _girsanov_cfg(estimator="chain", estimator_params=params,
                        grid={"horizon": 1.0, "steps": 64})
    assert main(["run", "--config", _write(tmp_path, "c.json", cfg)]) == 2
    assert f"estimator_params.{key}" in capsys.readouterr().err


@pytest.mark.parametrize("cfg,where", [
    (_girsanov_cfg(estimator="chain", estimator_params={"method": "gauss"},
                   grid={"horizon": 1.0, "steps": 64}), "estimator_params"),
    (_residual_cfg(include_initial=True), "estimator_params"),
    (_residual_cfg(debias=True), "estimator_params"),
    (_ou_cfg("chain", levels=2, divergence_threshold=1e3),
     "estimator_params"),
    (_residual_cfg(basis={"family": "bumps", "box": [-3.0, 3.0]}), "basis"),
], ids=["chain-method", "include-initial", "debias", "divergence-threshold",
        "basis-family"])
def test_run_refuses_removed_keys(tmp_path, capsys, cfg, where):
    assert main(["run", "--config", _write(tmp_path, "t.json", cfg)]) == 2
    assert f"unknown keys in {where}" in capsys.readouterr().err


@pytest.mark.parametrize("cfg,key", [
    (_ou_cfg("dv-marginal", max_iter=0), "max_iter"),
    (_ou_cfg("dv-marginal", max_iter=-3), "max_iter"),
    (_ou_cfg("dv-marginal", gtol=-1.0), "gtol"),
    (_ou_cfg("dv-marginal", plateau_rtol=-0.5), "plateau_rtol"),
    (_ou_cfg("girsanov", tol_match=-1.0), "tol_match"),
], ids=["max-iter-0", "max-iter-negative", "gtol", "plateau-rtol",
        "tol-match"])
def test_run_refuses_estimator_params_out_of_range(tmp_path, capsys, cfg,
                                                   key):
    # max_iter 0 or -3 reported 0.0 with "convergence": "plateau" for an
    # ascent that never ran; a negative tol_match made every pair a
    # mismatch
    out = tmp_path / "r.json"
    assert main(["run", "--config", _write(tmp_path, "o.json", cfg),
                 "--out", str(out)]) == 2
    assert not out.exists()
    assert f"{key} must be" in capsys.readouterr().err


def _readme_table(header: str) -> list[list[str]]:
    """The README table under header, as rows of stripped cells."""
    lines = README.read_text(encoding="utf-8").splitlines()
    rows = []
    for line in lines[lines.index(header) + 2:]:
        if not line.startswith("|"):
            break
        rows.append([c.strip() for c in line[1:-1].split("|")])
    return rows


def test_readme_lists_every_estimator_parameter():
    # the README's table of estimator parameters is the CLI's schema
    listed, estimator = {}, None
    for name, key, json_type, _ in _readme_table(
            "| estimator | key | JSON type | when unset |"):
        estimator = name.strip("`") or estimator
        listed.setdefault(estimator, {})[key.strip("`")] = \
            json_type.split(",")[0]
    assert listed == {name: types
                      for name, (_, types) in ESTIMATORS.items()}


def test_readme_lists_every_catalogue_model():
    # the README's model table is the catalogue, each id with its params
    listed = {model_id.strip("`"): set(re.findall(r"`(\w+)`", params))
              for model_id, _, params in _readme_table(
                  "| id | drift | params |")}
    assert listed == {model_id: set(model_params(model_id))
                      for model_id in model_ids()}


def test_run_rejects_unknown_model_record_key(tmp_path, capsys):
    # a misspelled "params" used to be dropped, running the model's defaults
    cfg = _girsanov_cfg(model_mu={"id": "ou", "parms": {"gamma": 5.0}})
    assert main(["run", "--config", _write(tmp_path, "m.json", cfg)]) == 2
    assert "parms" in capsys.readouterr().err


def test_run_forwards_only_set_keys(tmp_path, monkeypatch):
    # the library applies its own defaults: the runner passes no other key
    from pathkl import cli

    seen = {}

    def profile(ensemble, spec_p, basis=None, **kwargs):
        seen.update(kwargs)
        return real(ensemble, spec_p, basis, **kwargs)

    real = cli.residual_energy_profile
    monkeypatch.setattr(cli, "residual_energy_profile", profile)
    cfg = _residual_cfg(stride=8, t_min_frac=0)
    out = tmp_path / "r.json"
    assert main(["run", "--config", _write(tmp_path, "r.json", cfg),
                 "--out", str(out)]) == 0
    assert seen == {"stride": 8, "t_min_frac": 0.0}
    assert type(seen["t_min_frac"]) is float
    diagnostics = _report(out)["results"]["diagnostics"]
    assert (diagnostics["window"], diagnostics["debias"]) == (8, True)


# ---------------------------------------------------------------------------
# girsanov on a state-dependent pair: the probe is sampled first

SINE_P = {"id": "sine_diffusion", "params": {"a": 1.0, "amplitude": 0.5}}
SINE_MU = {"id": "sine_diffusion", "params": {"a": 2.0, "amplitude": 0.5}}


def _spy(monkeypatch, module, name, record):
    """Replace module.name by a wrapper that appends record(*args, **kw)
    to the returned list before each call."""
    calls, real = [], getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(record(*args, **kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


# pair -> (model_mu, model_P, n_paths, the (first, n, stride) of the
# sample_paths calls expected, the paths of the ensemble the match check
# reads); 2000 paths x 257 grid times is above twice MATCH_POINTS, so the
# check reads every second path, and 500 x 257 is below it; 2000 paths are
# one block
PROBE_RUNS = {
    "mismatch": (SINE_MU, SINE_P, 2000, [(0, 2000, 2)], 1000),
    "match": (SINE_P, SINE_P, 2000, [(0, 2000, 2), (0, 2000, 1)], 1000),
    "constant": ({"id": "ou", "params": {}}, {"id": "brownian", "params": {}},
                 2000, [(0, 2000, 1)], 0),
    "stride-one": (SINE_MU, SINE_P, 500, [(0, 500, 1)], 500),
}


@pytest.mark.parametrize("pair", PROBE_RUNS)
def test_girsanov_run_samples_the_checked_paths_first(pair, monkeypatch):
    # a mismatched state-dependent pair never samples all n paths; a
    # constant pair's check reads no path, and it samples once, after the
    # check; a check that reads every path samples once; the match check
    # runs once, on the probe where there is one; the estimate is the
    # library's on the full ensemble, from one girsanov_entropy call on
    # the sampled paths, which samples its own probe
    from pathkl import cli, girsanov

    model_mu, model_p, n, expected, checked = PROBE_RUNS[pair]
    cfg = _girsanov_cfg(model_mu=model_mu, model_P=model_p, n_paths=n,
                        grid={"horizon": 1.0, "steps": 256}, seed=3)
    sampled = _spy(monkeypatch, cli, "sample_paths",
                   lambda spec, init, grid, n, seed, threads=1, stride=1,
                   first=0, out=None: (first, n, stride))
    matched = _spy(monkeypatch, girsanov, "diffusion_match_check",
                   lambda spec_mu, spec_p, ensemble, **kw: ensemble.n_paths)
    estimated = _spy(monkeypatch, cli, "girsanov_entropy",
                     lambda spec_mu, spec_p, init_mu, init_p, ensemble, **kw:
                     ensemble.n_paths)
    est = run_config(cfg)[1]["estimate"]
    assert (sampled, matched) == (expected, [checked])
    assert estimated == [n]
    spec_mu = make_model(model_mu["id"], model_mu["params"])
    spec_p = make_model(model_p["id"], model_p["params"])
    init, grid = InitialLaw.point_mass([0.0]), TimeGrid.uniform(1.0, 256)
    want = girsanov_entropy(spec_mu, spec_p, init, init,
                            sample_paths(spec_mu, init, grid, n, 3))
    assert (est["value"], est["std_error"]) == (want.value, want.std_error)
    report = want.diagnostics["match_report"]
    assert est["diagnostics"]["match_report"] == dataclasses.asdict(report)


def test_a_constant_mismatch_samples_nothing(monkeypatch):
    # declared behaviour: a constant pair's check compares the two matrices
    # and reads no path, so a mismatch is +inf before any path is sampled,
    # and an infinite drift is never met (sampling first raised on it)
    from pathkl import cli, diffusion

    monkeypatch.setattr(diffusion, "_CATALOG", dict(diffusion._CATALOG))
    register_model("runaway", lambda params, dim: dataclasses.replace(
        make_model("brownian", {"a": 2.0}),
        drift=lambda t, x: np.full(np.shape(x), np.inf)), ())
    sampled = _spy(monkeypatch, cli, "sample_paths", lambda *a, **kw: None)
    est = run_config(_girsanov_cfg(
        model_mu={"id": "runaway", "params": {}}))[1]["estimate"]
    assert (est["value"], sampled) == (math.inf, [])
    assert est["diagnostics"]["match_report"]["n_evaluated"] == 1


def test_a_constant_pair_refuses_mu_matrix_before_its_check():
    # mu's constant matrix is refused before the check, as sampling refuses
    # it, so a mismatch against a matrix that is not positive definite is
    # an error, not +inf
    cfg = _girsanov_cfg(model_mu={"id": "brownian", "params": {"a": -1.0}})
    with pytest.raises(PositiveDefinitenessError, match="constant diffusion"):
        run_config(cfg)


def test_a_bad_tol_match_is_refused_before_any_sampling(tmp_path,
                                                        monkeypatch):
    # a state-dependent pair has a probe to sample, but tol_match is
    # checked before it is
    from pathkl import cli

    sampled = _spy(monkeypatch, cli, "sample_paths", lambda *a, **kw: None)
    cfg = _girsanov_cfg(model_mu=SINE_P, model_P=SINE_P, n_paths=2000,
                        grid={"horizon": 1.0, "steps": 256},
                        estimator_params={"tol_match": -1})
    assert main(["run", "--config", _write(tmp_path, "t.json", cfg)]) == 2
    assert sampled == []


def _masked_sine(drift_above, diffusion_above):
    """A builder of sine_diffusion a = 2 (amplitude 0.5) whose drift or
    diffusion matrix is replaced by the given value where x > bound: below
    the bound its paths are sine_diffusion's, bit for bit."""
    def build(params, dim):
        bound = float(params["bound"])

        def drift(t, x):
            return np.where(x > bound, drift_above, 0.0)

        def diffusion(t, x):
            a = 2.0 * (1.0 + 0.5 * np.sin(np.clip(x[..., 0], -10.0, 10.0)))
            bad = diffusion_above if diffusion_above is not None else a
            return np.where(x[..., 0] > bound, bad, a)[..., None, None]

        return DiffusionSpec(dim=1, drift=drift, diffusion_matrix=diffusion)
    return build


@pytest.fixture
def probe_paths(monkeypatch):
    """Masked sine laws in the catalogue, and the states of the 2000
    unmasked paths of seed 3 split into those the match check reads (even
    rows) and the rest."""
    from pathkl import diffusion

    monkeypatch.setattr(diffusion, "_CATALOG", dict(diffusion._CATALOG))
    register_model("nan_diffusion_above", _masked_sine(0.0, np.nan),
                   ("bound",))
    register_model("inf_drift_above", _masked_sine(np.inf, None), ("bound",))
    states = sample_paths(make_model(SINE_MU["id"], SINE_MU["params"]),
                          InitialLaw.point_mass([0.0]),
                          TimeGrid.uniform(1.0, 256), 2000, 3).states[..., 0]
    return states[::2], states[1::2]


def _masked_cfg(model_id, bound):
    return _girsanov_cfg(
        model_mu={"id": model_id, "params": {"bound": bound}},
        model_P=SINE_P, n_paths=2000, grid={"horizon": 1.0, "steps": 256},
        seed=3)


@pytest.mark.parametrize("model_id", ["nan_diffusion_above",
                                      "inf_drift_above"])
def test_mismatch_on_the_probe_ignores_faults_on_unread_paths(model_id,
                                                              probe_paths):
    # declared behaviour: the probe fails the match check, so the result
    # is +inf "diffusion mismatch", and a NaN diffusion matrix (a model
    # error) or an infinite drift (non-finite states) on a path the check
    # does not read is never met; sampling all paths raised on either
    read, unread = probe_paths
    # a(t, x) is asked at every state but the last
    assert unread[:, :-1].max() > read.max()
    bound = 0.5 * (unread[:, :-1].max() + read.max())
    est = run_config(_masked_cfg(model_id, bound))[1]["estimate"]
    assert est["value"] == math.inf
    assert est["diagnostics"]["reason"] == "diffusion mismatch"
    assert est["diagnostics"]["match_report"]["max_distance"] == 1.0


def test_a_fault_on_the_probe_names_its_earliest_time(probe_paths):
    # an unread path passes 2.2 first (column 47 of seed 3), a read one
    # later (column 55): the error names the read path's time
    read, unread = probe_paths
    bound, times = 2.2, TimeGrid.uniform(1.0, 256).points
    first_read = int(np.argmax((read[:, :-1] > bound).any(axis=0)))
    first_unread = int(np.argmax((unread[:, :-1] > bound).any(axis=0)))
    assert 0 < first_unread < first_read
    when = re.escape(f"at t = {times[first_read]:g}")
    with pytest.raises(ModelEvaluationError, match=when + "( |$)"):
        run_config(_masked_cfg("nan_diffusion_above", bound))


# ---------------------------------------------------------------------------
# girsanov on a match: the paths are sampled, integrated and dropped one
# block at a time


def _sine_ou(params, dim):
    """sine_diffusion a = 1 (amplitude 0.5) with the drift -x: matched with
    sine_diffusion, with a drift gap."""
    spec = make_model("sine_diffusion", {"a": 1.0})
    return dataclasses.replace(spec, drift=lambda t, x: -np.asarray(x))


@pytest.fixture
def sine_ou(monkeypatch):
    from pathkl import diffusion

    monkeypatch.setattr(diffusion, "_CATALOG", dict(diffusion._CATALOG))
    register_model("sine_ou", _sine_ou, ())


A_2D = [[1.0, 0.3], [0.3, 0.5]]

# pair -> (model_mu, model_P, initial law)
BLOCK_PAIRS = {
    "constant": ({"id": "ou", "params": {}}, {"id": "brownian", "params": {}},
                 {"kind": "point", "point": [0.3]}),
    "sine": ({"id": "sine_ou", "params": {}},
             {"id": "sine_diffusion", "params": {"a": 1.0}},
             {"kind": "gaussian", "mean": [0.3], "covariance": [[0.5]]}),
    # matrix products: numpy takes one of a single row through gemv, which
    # rounds otherwise for some rows, so a lone path joins the last block
    "linear-2d": ({"id": "linear", "params": {
        "A": [[-1.0, 0.5], [0.2, -0.3]], "a": A_2D}},
                  {"id": "brownian", "params": {"a": A_2D}},
                  {"kind": "gaussian", "mean": [0.3, 0.3],
                   "covariance": A_2D}),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("blocks", [1, 2, 3.5, "2+1"])
@pytest.mark.parametrize("pair", BLOCK_PAIRS)
def test_girsanov_run_is_the_library_on_the_whole_ensemble(
        pair, blocks, threads, sine_ou, monkeypatch):
    # blocks of BLOCK_PATHS paths, each sampled through cli.sample_paths:
    # the value, the standard error and every per-path energy are those of
    # girsanov_entropy on all n paths sampled at once
    from pathkl import cli, diffusion, girsanov

    monkeypatch.setattr(diffusion, "WORKING_SET_ELEMENTS", 1)
    monkeypatch.setattr(diffusion, "MATCH_POINTS", 1000)
    rows, steps = diffusion.BLOCK_PATHS, 32
    n = 2 * rows + 1 if blocks == "2+1" else int(blocks * rows)
    model_mu, model_p, init = BLOCK_PAIRS[pair]
    cfg = _girsanov_cfg(model_mu=model_mu, model_P=model_p, initial_mu=init,
                        initial_P=init, n_paths=n, seed=5,
                        grid={"horizon": 1.0, "steps": steps})
    energies = _spy(monkeypatch, girsanov, "path_mean_and_se",
                    lambda values: values.copy())
    sampled = _spy(monkeypatch, cli, "sample_paths",
                   lambda spec, init, grid, n, seed, threads=1, stride=1,
                   first=0, out=None: (first, n, stride))
    est = run_config(cfg, threads=threads)[1]["estimate"]
    spec_mu, spec_p, init_mu, init_p, grid = cli._built_objects(
        cli.resolve_config(cfg))
    stride = diffusion.probe_stride(spec_mu, spec_p, n, steps + 1)
    probe = [(0, n, stride)] if stride else []
    bounds = list(range(0, n, rows)) + [n]
    if blocks == "2+1":
        bounds.remove(2 * rows)
    assert sampled == probe + [(lo, hi, 1)
                               for lo, hi in zip(bounds, bounds[1:])]
    want = girsanov_entropy(spec_mu, spec_p, init_mu, init_p,
                            sample_paths(spec_mu, init_mu, grid, n, 5))
    assert (est["value"], est["std_error"]) == (want.value, want.std_error)
    assert len(energies) == 2 and energies[0].shape == (n,)
    assert energies[0].tobytes() == energies[1].tobytes()
    assert est["diagnostics"]["match_report"] == dataclasses.asdict(
        want.diagnostics["match_report"])


def test_girsanov_run_holds_one_block_of_paths():
    # 16384 paths x 257 grid times are two blocks of 7 chunks and one of 2:
    # beside small vectors the run holds one block of states, one of
    # half-sums and the sampler's draw scratch, below the whole ensemble
    # and one block of half-sums
    from pathkl import diffusion

    n, steps = 16 * diffusion.BLOCK_PATHS, 256
    rows = diffusion.path_blocks(n, steps + 1)[0][1]
    assert n == 2 * rows + 2 * diffusion.BLOCK_PATHS
    cfg = _girsanov_cfg(model_mu={"id": "ou", "params": {}}, n_paths=n,
                        grid={"horizon": 1.0, "steps": steps}, seed=4)
    block = 8 * diffusion.WORKING_SET_ELEMENTS
    bound = 2 * block + 8 * diffusion.BLOCK_ELEMENTS + 8 * 16 * rows
    run_config(dict(cfg, n_paths=10))   # what a first run imports
    tracemalloc.start()
    try:
        est = run_config(cfg)[1]["estimate"]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert math.isfinite(est["value"])
    ensemble = 8 * n * (steps + 1)
    assert peak < bound < ensemble + 8 * rows * steps, (peak, bound)


def test_residual_energy_run_holds_one_block_of_paths():
    # with an explicit basis, 16384 paths x 257 grid times are read in a
    # block of 9 chunks and one of 7, sized by the profile's jets: beside
    # small sums the run holds one block of states, one of jets and the
    # sampler's draw scratch, below the whole ensemble and one block of
    # jets
    from pathkl import diffusion

    n, steps, count = 16 * diffusion.BLOCK_PATHS, 256, 12
    per_path = count * 3 * (2 * 8 // 4 + 2)     # d = 1, window 8, stride 4
    rows = diffusion.path_blocks(n, per_path)[0][1]
    assert n == rows + 7 * diffusion.BLOCK_PATHS
    cfg = _girsanov_cfg(model_mu={"id": "ou", "params": {}}, n_paths=n,
                        grid={"horizon": 1.0, "steps": steps}, seed=4,
                        estimator="residual-energy", estimator_params={
                            "basis": {"box": [-3.0, 3.0], "count": count}})
    jets = 8 * rows * per_path
    bound = (8 * rows * (steps + 1) + jets + 8 * diffusion.BLOCK_ELEMENTS
             + 8 * 16 * rows)
    run_config(dict(cfg, n_paths=10))   # what a first run imports
    tracemalloc.start()
    try:
        total = run_config(cfg)[1]["total"]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert math.isfinite(total)
    ensemble = 8 * n * (steps + 1)
    assert peak < bound < ensemble + jets, (peak, bound)


def _first_faults(states, bound, rows):
    """The first grid index at which a path of each block of rows paths
    lies above bound (-1 if none does)."""
    above = states > bound
    return [int(np.argmax(block.any(axis=0))) if block.any() else -1
            for block in (above[lo:lo + rows]
                          for lo in range(0, states.shape[0], rows))]


@pytest.fixture
def fault_bound(monkeypatch):
    """Masked sine laws in the catalogue, blocks of BLOCK_PATHS paths, a
    probe of path 0 alone, and a function of the unmasked states of 3.5
    blocks of paths (seed 3, 64 steps) that gives a bound the first block
    passes later than a later block does, and path 0 never passes."""
    from pathkl import diffusion

    monkeypatch.setattr(diffusion, "_CATALOG", dict(diffusion._CATALOG))
    register_model("zero_diffusion_above", _masked_sine(0.0, 0.0),
                   ("bound",))
    register_model("nan_drift_above", _masked_sine(np.nan, None), ("bound",))
    monkeypatch.setattr(diffusion, "WORKING_SET_ELEMENTS", 1)
    monkeypatch.setattr(diffusion, "MATCH_POINTS", 65)
    rows = diffusion.BLOCK_PATHS
    grid = TimeGrid.uniform(1.0, 64)
    states = sample_paths(make_model(SINE_MU["id"], SINE_MU["params"]),
                          InitialLaw.point_mass([0.0]), grid,
                          7 * rows // 2, 3).states[..., 0]

    def find(read):
        # read: the grid indices at which the faulty coefficient is read
        for bound in np.quantile(states[1:, read].max(axis=1),
                                 np.linspace(0.999, 0.5, 200)):
            first = _first_faults(states[:, read], bound, rows)
            later = [k for k in first[1:] if k >= 0]
            if (states[0].max() < bound and first[0] >= 0 and later
                    and min(later) < first[0]):
                return float(bound), grid.points[read][min(later)]
        raise AssertionError("no bound separates the blocks")

    return grid, rows, find


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("fault", ["sampler", "drift-gap"])
def test_girsanov_block_fault_raises_the_whole_ensemble_error(
        fault, threads, fault_bound):
    # the first block fails at a later time than a later block: the run
    # raises what the whole ensemble raises, the error of sampling all
    # paths at once (a diffusion matrix of 0) or of the whole-column scan
    # (a NaN drift of P), which names the earliest failing time
    grid, rows, find = fault_bound
    n, init = 7 * rows // 2, InitialLaw.point_mass([0.0])
    if fault == "sampler":
        bound, t_early = find(slice(0, -1))
        model_mu = {"id": "zero_diffusion_above", "params": {"bound": bound}}
        model_p = SINE_MU
    else:
        bound, t_early = find(slice(None))
        model_mu = SINE_MU
        model_p = {"id": "nan_drift_above", "params": {"bound": bound}}
    cfg = _girsanov_cfg(model_mu=model_mu, model_P=model_p, n_paths=n,
                        grid={"horizon": 1.0, "steps": 64}, seed=3)
    spec_mu = make_model(model_mu["id"], model_mu["params"])
    spec_p = make_model(model_p["id"], model_p["params"])
    with pytest.raises((ModelEvaluationError,
                        PositiveDefinitenessError)) as whole:
        girsanov_entropy(spec_mu, spec_p, init, init, sample_paths(
            spec_mu, init, grid, n, 3, threads=threads))
    if fault == "drift-gap" or threads == 1:
        # (two sampling threads name the first failing half's earliest time)
        assert f"at t = {t_early:g} " in str(whole.value) + " "
    with pytest.raises(type(whole.value)) as run:
        run_config(cfg, threads=threads)
    assert str(run.value) == str(whole.value)


@pytest.mark.parametrize("threads", [1, 2])
def test_profile_of_sampled_paths_is_the_held_ensembles(threads,
                                                        monkeypatch):
    # blocks of BLOCK_PATHS paths, 2.5 blocks and a lone path that joins
    # the last: with an explicit basis, the profile of paths sampled a
    # block at a time is the one of the held ensemble, bit for bit
    from pathkl import cli, diffusion

    monkeypatch.setattr(diffusion, "WORKING_SET_ELEMENTS", 1)
    rows = diffusion.BLOCK_PATHS
    n, grid = 5 * rows // 2 + 1, TimeGrid.uniform(1.0, 32)
    spec_mu, spec_p = make_model("ou", {}), make_model("brownian", {})
    init = InitialLaw.point_mass([0.3])
    basis = mixed_basis([-2.5], [2.5], 6, 0.7, [], bump_span=(-1.5, 1.5))
    whole = residual_energy_profile(
        sample_paths(spec_mu, init, grid, n, 8, threads=threads), spec_p,
        basis, window=2, stride=2)
    sampled = _spy(monkeypatch, cli, "sample_paths",
                   lambda spec, init, grid, n, seed, threads=1, stride=1,
                   first=0, out=None: (first, n))
    got = residual_energy_profile(
        cli._SampledPaths(spec_mu, init, grid, n, 8, threads), spec_p,
        basis, window=2, stride=2)
    assert sampled == [(0, rows), (rows, 2 * rows), (2 * rows, n)]
    for name in ("times", "values", "std_errors"):
        assert getattr(got, name).tobytes() == \
            getattr(whole, name).tobytes(), name
    assert (got.integral.hex(), got.integral_std_error.hex()) == \
        (whole.integral.hex(), whole.integral_std_error.hex())
    for name in ("counts", "shift", "residual", "moments", "gram"):
        assert getattr(got.chunk_sums, name).tobytes() == \
            getattr(whole.chunk_sums, name).tobytes(), name


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("fault", ["sampler", "generator"])
def test_profile_block_fault_raises_the_whole_ensemble_error(
        fault, threads, fault_bound):
    # the first block fails at a later time than a later block: the
    # profile of sampled paths raises what the held ensemble's raises, the
    # error of sampling all paths at once (a diffusion matrix of 0) or of
    # evaluating all paths at once (a NaN drift of P in the generator term
    # of a slice), which names the earliest failing time
    from pathkl import cli

    grid, rows, find = fault_bound
    n, init = 7 * rows // 2, InitialLaw.point_mass([0.0])
    if fault == "sampler":
        bound, t_early = find(slice(0, -1))
        spec_mu = make_model("zero_diffusion_above", {"bound": bound})
        spec_p = make_model(SINE_MU["id"], SINE_MU["params"])
    else:
        # window 1 and stride 1: P's drift is read at grid indices 1 to 63
        bound, t_early = find(slice(1, -1))
        spec_mu = make_model(SINE_MU["id"], SINE_MU["params"])
        spec_p = make_model("nan_drift_above", {"bound": bound})
    basis = mixed_basis([-3.0], [3.0], 6)

    def profile(paths):
        return residual_energy_profile(paths, spec_p, basis, window=1,
                                       stride=1, t_min_frac=0.0)

    with pytest.raises((ModelEvaluationError,
                        PositiveDefinitenessError)) as whole:
        profile(sample_paths(spec_mu, init, grid, n, 3, threads=threads))
    if fault == "generator" or threads == 1:
        assert f"at t = {t_early:g} " in str(whole.value) + " "
    with pytest.raises(type(whole.value)) as got:
        profile(cli._SampledPaths(spec_mu, init, grid, n, 3, threads))
    assert str(got.value) == str(whole.value)


class _Stop(Exception):
    pass


def _dv_cfg(n, steps, seed):
    return _girsanov_cfg(model_mu={"id": "ou", "params": {}}, n_paths=n,
                         grid={"horizon": 1.0, "steps": steps}, seed=seed,
                         estimator="dv-marginal",
                         estimator_params={"t": 0.5})


@pytest.mark.parametrize("threads", [1, 2])
def test_dv_marginal_samples_keep_one_column(threads, monkeypatch):
    # blocks of BLOCK_PATHS paths, and 3.5 blocks of each law: the samples
    # are the columns at t of the two whole ensembles, bit for bit
    from pathkl import cli, diffusion

    monkeypatch.setattr(diffusion, "WORKING_SET_ELEMENTS", 1)
    rows, steps = diffusion.BLOCK_PATHS, 16
    n = 7 * rows // 2

    def stop(s_mu, s_p, basis, config):
        raise _Stop(s_mu, s_p)

    monkeypatch.setattr(cli, "dv_estimate", stop)
    sampled = _spy(monkeypatch, cli, "sample_paths",
                   lambda spec, init, grid, n, seed, threads=1, stride=1,
                   first=0, out=None: (first, n))
    with pytest.raises(_Stop) as got:
        run_config(_dv_cfg(n, steps, 6), threads=threads)
    bounds = [(lo, min(lo + rows, n)) for lo in range(0, n, rows)]
    assert sampled == bounds + bounds
    spec_mu, spec_p, init_mu, init_p, grid = cli._built_objects(
        cli.resolve_config(_dv_cfg(n, steps, 6)))
    idx = grid.index_of(0.5)
    for samples, spec, init, seed in zip(
            got.value.args, (spec_mu, spec_p), (init_mu, init_p),
            (6, cli.substream_seed(6, 1))):
        whole = sample_paths(spec, init, grid, n, seed).states[:, idx]
        assert samples.tobytes() == np.ascontiguousarray(whole).tobytes()


def test_dv_marginal_samples_one_block_at_a_time(monkeypatch):
    # 16384 paths x 129 grid times are two blocks of each law: sampling
    # holds one block of states and the draw scratch beside the two
    # columns, less than the two ensembles
    from pathkl import cli, diffusion

    n, steps = 16 * diffusion.BLOCK_PATHS, 128
    assert len(diffusion.path_blocks(n, steps + 1)) == 2

    def stop(s_mu, s_p, basis, config):
        raise _Stop(tracemalloc.get_traced_memory()[1])

    monkeypatch.setattr(cli, "dv_estimate", stop)
    with pytest.raises(_Stop):
        run_config(_dv_cfg(10, steps, 2))   # what a first run imports
    bound = 8 * (diffusion.WORKING_SET_ELEMENTS + diffusion.BLOCK_ELEMENTS
                 + 16 * n)
    tracemalloc.start()
    try:
        with pytest.raises(_Stop) as got:
            run_config(_dv_cfg(n, steps, 2))
    finally:
        tracemalloc.stop()
    peak = got.value.args[0]
    assert peak < bound < 2 * 8 * n * (steps + 1), (peak, bound)


def test_run_capability_error_exits_4(tmp_path, capsys):
    cfg = _girsanov_cfg(
        initial_mu={"kind": "empirical", "samples": [[0.0], [0.1]]},
        initial_P={"kind": "point", "point": [0.0]})
    assert main(["run", "--config", _write(tmp_path, "cap.json", cfg)]) == 4


def test_seed_override_changes_monte_carlo(tmp_path):
    cfg = _girsanov_cfg(model_mu={"id": "ou", "params": {"gamma": 1.0}})
    cfg_path = _write(tmp_path, "ou.json", cfg)
    outs = []
    for seed, name in ((None, "a.json"), (123, "b.json")):
        out = tmp_path / name
        argv = ["run", "--config", cfg_path, "--out", str(out)]
        if seed is not None:
            argv += ["--seed", str(seed)]
        assert main(argv) == 0
        outs.append(_report(out))
    assert outs[0]["config"]["seed"] == 0
    assert outs[1]["config"]["seed"] == 123
    assert (outs[0]["results"]["estimate"]["value"]
            != outs[1]["results"]["estimate"]["value"])


@pytest.mark.parametrize("seed", [2 ** 63, 2 ** 63 + 1, 2 ** 64,
                                  -2 ** 63 - 1])
def test_run_rejects_seeds_outside_int64(tmp_path, capsys, seed):
    # 2**63 and 2**63 + 1 used to share every stream; 2**64 crashed
    cfg_path = _write(tmp_path, "g.json", _girsanov_cfg())
    assert main(["run", "--config", cfg_path, "--seed", str(seed)]) == 2
    assert "seed must lie in" in capsys.readouterr().err
    in_config = _write(tmp_path, "s.json", _girsanov_cfg(seed=seed))
    assert main(["run", "--config", in_config]) == 2
    assert main(["compare", "--config", cfg_path, "--config", cfg_path,
                 "--seed", str(seed)]) == 2


@pytest.mark.parametrize("seed", [2 ** 63 - 1, -2 ** 63])
def test_run_accepts_int64_seed_bounds(tmp_path, seed):
    cfg_path = _write(tmp_path, "g.json", _girsanov_cfg())
    out = tmp_path / "r.json"
    assert main(["run", "--config", cfg_path, "--seed", str(seed),
                 "--out", str(out)]) == 0
    assert _report(out)["config"]["seed"] == seed


def test_thread_count_invisible_in_report(tmp_path):
    cfg_path = _write(tmp_path, "g.json",
                      _girsanov_cfg(model_mu={"id": "ou",
                                              "params": {"gamma": 1.0}}))
    bodies = []
    for threads, name in ((1, "t1.json"), (4, "t4.json")):
        out = tmp_path / name
        assert main(["run", "--config", cfg_path, "--out", str(out),
                     "--threads", str(threads)]) == 0
        body = _report(out)
        body.pop("wall_clock_s")
        bodies.append(json.dumps(body, sort_keys=True))
    assert bodies[0] == bodies[1]


def test_rerun_same_seed_byte_identical(tmp_path):
    cfg_path = _write(tmp_path, "g.json",
                      _girsanov_cfg(model_mu={"id": "ou",
                                              "params": {"gamma": 1.0}}))
    bodies = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
        body = _report(out)
        body.pop("wall_clock_s")
        bodies.append(json.dumps(body, sort_keys=True))
    assert bodies[0] == bodies[1]


# ---------------------------------------------------------------------------
# compare


def test_compare_identical_configs_z_zero(tmp_path, capsys):
    cfg_path = _write(tmp_path, "g.json", _girsanov_cfg())
    assert main(["compare", "--config", cfg_path, "--config",
                 cfg_path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["z_scores"][0]["z"] == 0.0
    assert report["flags"] == []


def test_compare_girsanov_vs_chain(tmp_path, capsys):
    g = _write(tmp_path, "g.json", _girsanov_cfg(
        model_mu={"id": "ou", "params": {"gamma": 1.0}},
        grid={"horizon": 1.0, "steps": 128}, n_paths=2000))
    c = _write(tmp_path, "c.json", _girsanov_cfg(
        model_mu={"id": "ou", "params": {"gamma": 1.0}},
        grid={"horizon": 1.0, "steps": 128}, n_paths=2000,
        estimator="chain", estimator_params={}))
    assert main(["compare", "--config", g, "--config", c]) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["z_scores"][0]["z"]) <= 3.0


def test_compare_flags_infinite_row(tmp_path, capsys):
    base = dict(model_mu={"id": "brownian", "params": {"a": 2.0}},
                model_P={"id": "brownian", "params": {"a": 1.0}},
                grid={"horizon": 1.0, "steps": 32}, n_paths=100)
    g = _write(tmp_path, "g.json", _girsanov_cfg(**base))
    c = _write(tmp_path, "c.json",
               _girsanov_cfg(estimator="chain", estimator_params={},
                             **base))
    assert main(["compare", "--config", g, "--config", c]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["flags"] == ["girsanov"]
    assert report["z_scores"][0]["z"] is None


def test_reports_carry_json_booleans(tmp_path, capsys):
    # mismatched state-dependent diffusions: girsanov short-circuits to +inf
    base = dict(model_mu={"id": "sine_diffusion", "params": {"a": 2.0}},
                model_P={"id": "sine_diffusion", "params": {"a": 1.0}},
                grid={"horizon": 1.0, "steps": 32}, n_paths=100)
    g = _write(tmp_path, "g.json", _girsanov_cfg(**base))
    assert main(["run", "--config", g]) == 0
    text = capsys.readouterr().out
    assert '"passed": false' in text
    assert main(["compare", "--config", g, "--config", g]) == 0
    text = capsys.readouterr().out
    assert '"is_infinite": true' in text


def test_compare_headlines_are_each_runs_estimate(tmp_path, capsys):
    # residual-energy's headline is its total, dv-marginal's its estimate
    base = dict(model_mu={"id": "ou", "params": {"gamma": 1.0}},
                grid={"horizon": 1.0, "steps": 64}, n_paths=300)
    paths = [
        _write(tmp_path, "g.json", _girsanov_cfg(**base)),
        _write(tmp_path, "r.json", _girsanov_cfg(
            estimator="residual-energy", estimator_params={}, **base)),
        _write(tmp_path, "d.json", _girsanov_cfg(
            estimator="dv-marginal",
            estimator_params={"max_iter": 20, "plateau_rtol": 1e9}, **base)),
    ]
    assert main(["compare", *[a for p in paths for a in ("--config", p)]]) == 0
    entries = json.loads(capsys.readouterr().out)["entries"]
    results = []
    for path in paths:
        out = tmp_path / "run.json"
        assert main(["run", "--config", path, "--out", str(out)]) == 0
        results.append(_report(out)["results"])
    girsanov, residual, dv = results
    assert [(e["estimator"], e["value"], e["std_error"]) for e in entries] == [
        ("girsanov", girsanov["estimate"]["value"],
         girsanov["estimate"]["std_error"]),
        ("residual-energy", residual["total"], residual["total_std_error"]),
        ("dv-marginal", dv["estimate"]["value"], dv["estimate"]["std_error"]),
    ]


def test_compare_rejects_different_scenarios(tmp_path):
    a = _write(tmp_path, "a.json", _girsanov_cfg())
    b = _write(tmp_path, "b.json",
               _girsanov_cfg(grid={"horizon": 2.0, "steps": 50}))
    assert main(["compare", "--config", a, "--config", b]) == 2


def test_singular_initial_laws_follow_one_rule_on_every_route(tmp_path,
                                                              capsys):
    # a point mu_0 against a Gaussian P_0: the chain used to flag it as
    # "divergent_term" and residual-energy to report +inf with the
    # profile's standard error and no reason
    base = dict(model_mu={"id": "ou", "params": {"gamma": 1.0}},
                initial_P={"kind": "gaussian", "mean": [0.0],
                           "covariance": [[1.0]]},
                grid={"horizon": 1.0, "steps": 64}, n_paths=300)
    paths = [_write(tmp_path, f"{name}.json", _girsanov_cfg(**over, **base))
             for name, over in [
                 ("g", {}),
                 ("c", {"estimator": "chain",
                        "estimator_params": {"levels": 3}}),
                 ("r", {"estimator": "residual-energy",
                        "estimator_params": {}})]]
    headlines = []
    for path in paths:
        out = tmp_path / "run.json"
        assert main(["run", "--config", path, "--out", str(out)]) == 0
        results = _report(out)["results"]
        est = results.get("estimate") or results.get("finest") or {
            "value": results["total"],
            "std_error": results["total_std_error"],
            "diagnostics": results["diagnostics"]}
        headlines.append((est["value"], est["std_error"],
                          est["diagnostics"]["reason"]))
    assert headlines == [(math.inf, 0.0, "singular initial laws")] * 3
    assert main(["compare", *[a for p in paths for a in ("--config", p)]]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["flags"] == ["girsanov", "chain", "residual-energy"]
    assert [e["std_error"] for e in report["entries"]] == [0.0] * 3


def test_compare_rejects_sanov(tmp_path):
    g = _write(tmp_path, "g.json", _girsanov_cfg(
        model_mu={"id": "brownian", "params": {}}))
    s = _write(tmp_path, "s.json", _girsanov_cfg(
        model_mu={"id": "brownian", "params": {}},
        estimator="sanov",
        estimator_params={"observable": "terminal", "threshold": 1.0,
                          "n_list": [2], "trials": 200}))
    assert main(["compare", "--config", g, "--config", s]) == 2


@pytest.mark.parametrize("second", [
    _girsanov_cfg(estimator="sanov",
                  estimator_params={"observable": "terminal",
                                    "threshold": 1.0, "n_list": [2],
                                    "trials": 200}),
    _girsanov_cfg(grid={"horizon": 2.0, "steps": 50}),
    _girsanov_cfg(grid={"horizon": 1.0, "steps": 100}, estimator="chain",
                  estimator_params={"levels": 4}),
], ids=["sanov", "horizon", "sweep-grid"])
def test_compare_checks_every_config_before_running(tmp_path, monkeypatch,
                                                    second):
    # each used to run the first config's route before the refusal, and a
    # sanov config first ran its whole rate table; 2^3 does not divide a
    # sweep's 100 steps
    from pathkl import cli

    sampled = _spy(monkeypatch, cli, "sample_paths", lambda *a, **kw: a[3])
    rated = _spy(monkeypatch, cli, "empirical_rate", lambda *a, **kw: a[3])
    g = _write(tmp_path, "g.json", _girsanov_cfg())
    s = _write(tmp_path, "s.json", second)
    for order in ([g, s], [s, g]):
        assert main(["compare", *[a for p in order
                                  for a in ("--config", p)]]) == 2
    assert (sampled, rated) == ([], [])


def test_compare_needs_two_configs(tmp_path):
    g = _write(tmp_path, "g.json", _girsanov_cfg())
    assert main(["compare", "--config", g]) == 2


# ---------------------------------------------------------------------------
# other commands


def test_list_models(capsys):
    assert main(["list-models"]) == 0
    out = capsys.readouterr().out
    for model_id in ("brownian", "constant_drift", "ou", "double_well",
                     "linear", "sine_diffusion"):
        assert model_id in out
    assert "gamma" in out


def test_list_models_reads_catalogue(capsys, monkeypatch):
    from pathkl import diffusion, make_model, register_model

    monkeypatch.setattr(diffusion, "_CATALOG", dict(diffusion._CATALOG))
    register_model("listed_user_model",
                   lambda params, dim: make_model("brownian", {}, dim),
                   params=("kappa", "a"))
    assert main(["list-models"]) == 0
    out = capsys.readouterr().out
    assert "listed_user_model  params: a, kappa" in out


def test_self_test_passes(capsys):
    assert main(["self-test"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "FAIL" not in out


def test_empirical_initial_config(tmp_path):
    import numpy as np
    rng = np.random.default_rng(0)
    samples = [[float(v)] for v in rng.normal(size=300)]
    cfg = _girsanov_cfg(
        initial_mu={"kind": "empirical", "samples": samples},
        initial_P={"kind": "gaussian", "mean": [0.0],
                   "covariance": [[1.0]]},
        n_paths=300)
    out = tmp_path / "emp.json"
    assert main(["run", "--config", _write(tmp_path, "e.json", cfg),
                 "--out", str(out)]) == 0
    report = _report(out)
    assert report["results"]["estimate"]["value"] >= 0.0


def test_run_rejects_bad_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", "--config", str(path)]) == 2


def test_main_leaves_no_cyclic_garbage(capsys):
    # the parser is built once per process: a parser per call was garbage
    # that only a full collection freed, and its heap blocks kept freed
    # route arrays resident in long-running callers
    main(["list-models"])
    gc.collect()
    gc.disable()
    try:
        main(["list-models"])
        assert gc.collect() == 0
    finally:
        gc.enable()
    capsys.readouterr()
