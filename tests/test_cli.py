"""Command-line surface: configs, reports, exit codes, determinism."""

import csv
import gc
import io
import json
import math
import re
from pathlib import Path

import pytest

from pathkl.cli import ESTIMATORS, main
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
    basis = {"family": "mixed", "box": [-3, 3], "count": 4,
             "bump_span": span}
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
    # mixed used to build its monomials only
    basis = {"family": "mixed", "box": [-3, 3], "count": -1}
    cfg = _girsanov_cfg(estimator="dv-marginal",
                        estimator_params={"basis": basis})
    assert main(["run", "--config", _write(tmp_path, "n.json", cfg)]) == 2
    assert "nonnegative bump count" in capsys.readouterr().err


def test_run_chain_requires_dyadic_steps(tmp_path, capsys):
    cfg = _girsanov_cfg(estimator="chain",
                        estimator_params={"levels": 3},
                        grid={"horizon": 1.0, "steps": 100})
    assert main(["run", "--config", _write(tmp_path, "c.json", cfg)]) == 2
    assert "power of two" in capsys.readouterr().err


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
        estimator_params={"basis": {"family": "mixed", "box": [-3.0, 3.0],
                                    "count": 4}},
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
    (_residual_cfg(debias="no"), "debias"),
    (_sanov_cfg(trials=1e4), "trials"),
], ids=["steps", "n_paths", "window", "stride", "debias", "trials"])
def test_run_rejects_wrong_typed_values(tmp_path, capsys, cfg, key):
    # each used to run, cast or defaulted to 64, 300, 4, 1, False or 10000
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
    basis = {"family": "mixed", "box": [-3.0, 3.0], "count": 4, field: value}
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
    (_ou_cfg("chain", levels=2, divergence_threshold=math.nan),
     "estimator_params.divergence_threshold"),
    (_ou_cfg("chain", partition_times=[0.0, -math.inf, 1.0]),
     "estimator_params.partition_times"),
    (_ou_cfg("sanov", observable="terminal", threshold=math.nan,
             n_list=[2, 5]), "estimator_params.threshold"),
    (_ou_cfg("dv-marginal", basis={"box": [math.nan, 3.0]}), "basis.box"),
    (_ou_cfg("dv-marginal", basis={"box": [-3.0, 3.0], "scale": math.inf}),
     "basis.scale"),
    (_girsanov_cfg(grid={"horizon": math.inf, "steps": 16}), "grid.horizon"),
], ids=["tol-match", "divergence-threshold", "partition-times",
        "sanov-threshold", "basis-box", "basis-scale", "horizon"])
def test_run_rejects_numbers_that_are_not_finite(tmp_path, capsys, cfg,
                                                 key):
    # json.load takes NaN and +-Infinity: tol_match NaN reported +inf as a
    # diffusion mismatch, a NaN divergence threshold never flagged, a NaN
    # sanov threshold exited 3 and a NaN box gave a NaN dv value
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
    basis = {"family": "bumps", "box": [-1, 1], "count": 3, "bump_span": span}
    cfg = _ou_cfg("dv-marginal", basis=basis)
    assert main(["run", "--config", _write(tmp_path, "s.json", cfg)]) == 2
    assert "basis.bump_span must be an increasing pair inside the box" in \
        capsys.readouterr().err


@pytest.mark.parametrize("params,key", [
    ({"levels": 2, "partition_times": [0.0, 0.25, 1.0]}, "partition_times"),
    ({"divergence_threshold": -1.0}, "divergence_threshold"),
], ids=["partition-times-with-levels", "threshold-without-levels"])
def test_run_chain_refuses_keys_its_run_would_ignore(tmp_path, capsys,
                                                     params, key):
    # the first used to run the dyadic sweep, the second one chain
    cfg = _girsanov_cfg(estimator="chain", estimator_params=params,
                        grid={"horizon": 1.0, "steps": 64})
    assert main(["run", "--config", _write(tmp_path, "c.json", cfg)]) == 2
    assert f"estimator_params.{key}" in capsys.readouterr().err


@pytest.mark.parametrize("cfg", [
    _girsanov_cfg(estimator="chain", estimator_params={"method": "gauss"},
                  grid={"horizon": 1.0, "steps": 64}),
    _residual_cfg(include_initial=True),
], ids=["chain-method", "include-initial"])
def test_run_refuses_removed_keys(tmp_path, capsys, cfg):
    assert main(["run", "--config", _write(tmp_path, "t.json", cfg)]) == 2
    assert "unknown keys in estimator_params" in capsys.readouterr().err


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


def test_compare_rejects_sanov(tmp_path):
    g = _write(tmp_path, "g.json", _girsanov_cfg(
        model_mu={"id": "brownian", "params": {}}))
    s = _write(tmp_path, "s.json", _girsanov_cfg(
        model_mu={"id": "brownian", "params": {}},
        estimator="sanov",
        estimator_params={"observable": "terminal", "threshold": 1.0,
                          "n_list": [2], "trials": 200}))
    assert main(["compare", "--config", g, "--config", s]) == 2


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
