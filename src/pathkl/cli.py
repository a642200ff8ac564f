"""Command-line front end: config parsing, dispatch, reports.

One run per invocation. Configs are strict JSON: unknown keys anywhere are
validation errors, because a silently ignored typo corrupts an experiment.
Reports echo the resolved config (see resolve_config) and are
byte-identical for identical config + seed, wall-clock field aside.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import sys
import time

import numpy as np

from .chain import (Partition, chain_estimate, refine_sequence,
                    refinement_sweep, step_kl)
from .diffusion import (
    DiffusionSpec,
    InitialLaw,
    PathEnsemble,
    TimeGrid,
    check_seed,
    make_model,
    model_ids,
    model_params,
    read_blocks,
    sample_paths,
    substream_seed,
)
from .errors import (
    EXIT_OK,
    ArgumentError,
    CapabilityError,
    ConvergenceError,
    InsufficientSamplingError,
    check_json_types,
    check_keys,
    exit_code_for,
)
from .estimates import path_space_estimate
from .girsanov import girsanov_entropy
from .marginal import (OptimizerConfig, dv_estimate, initial_entropy,
                       pooled_dv_basis)
from .sanov import RateExperiment, empirical_rate
from .variational import (basis_from_config, default_energy_basis,
                          residual_energy_profile)

__all__ = ["main", "run_config", "build_report"]

_TOP_KEYS = {"model_mu": "object", "model_P": "object",
             "initial_mu": "object", "initial_P": "object", "grid": "object",
             "estimator": "string", "estimator_params": "object",
             "n_paths": "integer", "seed": "integer"}


# ---------------------------------------------------------------------------
# Config validation and object construction


def _need(record: dict, key: str, where: str):
    if key not in record:
        raise ArgumentError(f"{where} is missing required key {key!r}")
    return record[key]


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ArgumentError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ArgumentError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ArgumentError("config root must be an object")
    return cfg


def _build_model(record: dict, dim: int, where: str) -> DiffusionSpec:
    try:
        return make_model(record["id"], record["params"], dim)
    except ArgumentError as exc:
        raise ArgumentError(f"{where}: {exc}") from exc


# initial law kind -> (its constructor, the record fields it takes)
_INITIAL_KINDS = {
    "point": (InitialLaw.point_mass, ("point",)),
    "gaussian": (InitialLaw.gaussian, ("mean", "covariance")),
    "empirical": (InitialLaw.empirical, ("samples",)),
}


def _build_initial(record: dict, where: str) -> InitialLaw:
    kind = _need(record, "kind", where)
    if kind not in _INITIAL_KINDS:
        raise ArgumentError(
            f"{where}.kind must be point, gaussian, or empirical, "
            f"not {kind!r}")
    build, fields = _INITIAL_KINDS[kind]
    check_keys(record, {"kind", *fields}, where)
    try:
        return build(*(_need(record, key, where) for key in fields))
    except ArgumentError as exc:
        # the law's message starts with the field it names
        raise ArgumentError(f"{where}.{exc}") from exc


def resolve_config(cfg: dict, seed_override: int | None = None) -> dict:
    """Validate the raw config and resolve it for a run.

    Top-level, grid and estimator_params values must have their keys' JSON
    types. n_paths and seed get their defaults (seed_override wins); the
    horizon becomes a float. estimator_params and each model's params are
    echoed as given, and the estimator or model applies its own defaults.
    """
    check_json_types(cfg, _TOP_KEYS, "config")
    for key in ("model_mu", "model_P", "initial_mu", "initial_P", "grid",
                "estimator"):
        _need(cfg, key, "config")
    estimator = cfg["estimator"]
    if estimator not in ESTIMATORS:
        raise ArgumentError(
            f"unknown estimator {estimator!r}; known: {', '.join(ESTIMATORS)}")
    params = check_json_types(cfg.get("estimator_params", {}),
                              ESTIMATORS[estimator][1], "estimator_params")
    grid = check_json_types(cfg["grid"],
                            {"horizon": "number", "steps": "integer"}, "grid")

    resolved = {}
    for key in ("model_mu", "model_P"):
        model = check_json_types(cfg[key],
                                 {"id": "string", "params": "object"}, key)
        resolved[key] = {"id": _need(model, "id", key),
                         "params": model.get("params", {})}
    resolved.update({
        "initial_mu": dict(cfg["initial_mu"]),
        "initial_P": dict(cfg["initial_P"]),
        "grid": {"horizon": float(_need(grid, "horizon", "grid")),
                 "steps": _need(grid, "steps", "grid")},
        "estimator": estimator,
        "estimator_params": dict(params),
        "n_paths": cfg.get("n_paths", 10_000),
        "seed": cfg.get("seed", 0),
    })
    if seed_override is not None:
        resolved["seed"] = int(seed_override)
    check_seed(resolved["seed"])
    if resolved["n_paths"] < 1:
        raise ArgumentError("n_paths must be positive")

    # a chain config runs a refinement sweep (levels) or one chain
    # (partition_times), so the two keys are not set together
    if estimator == "chain" and {"levels", "partition_times"} <= set(params):
        raise ArgumentError(
            "estimator_params.partition_times cannot be set with levels: "
            "a refinement sweep runs the dyadic partitions")
    if estimator == "sanov":
        for key in ("observable", "threshold", "n_list"):
            _need(params, key, "estimator_params (sanov)")
    return resolved


def _built_objects(resolved: dict):
    init_mu = _build_initial(resolved["initial_mu"], "initial_mu")
    init_p = _build_initial(resolved["initial_P"], "initial_P")
    if init_mu.dim != init_p.dim:
        raise ArgumentError("initial laws must share a dimension")
    dim = init_mu.dim
    spec_mu = _build_model(resolved["model_mu"], dim, "model_mu")
    spec_p = _build_model(resolved["model_P"], dim, "model_P")
    grid = TimeGrid.uniform(**resolved["grid"])
    return spec_mu, spec_p, init_mu, init_p, grid


# ---------------------------------------------------------------------------
# Serialization


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    # bool before int: isinstance(True, int) holds
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set)):
        return [_jsonable(v) for v in obj]
    return obj


# ---------------------------------------------------------------------------
# Estimator dispatch


def _set_params(resolved: dict, *keys: str) -> dict:
    """The estimator_params among keys that the config sets, numbers as
    floats: the keyword arguments that override the library's defaults."""
    types = ESTIMATORS[resolved["estimator"]][1]
    params = resolved["estimator_params"]
    return {key: float(params[key]) if types[key] == "number"
            else params[key] for key in keys if key in params}


class _SampledPaths:
    """Paths 0 to n_paths - 1 of one law's run, sampled through sample_paths
    a block at a time and never held whole: a path source, with the grid,
    n_paths and block(lo, hi, stride=1) of a PathEnsemble. block gives
    states[lo:hi:stride] of the whole ensemble bit for bit, as
    PathEnsemble.block does. Read through read_blocks, a sampler's error
    is the one sampling all n_paths paths raises, which names the earliest
    failing time over them all."""

    # a plain class: a dataclass would add about 1 ms to every import
    def __init__(self, spec: DiffusionSpec, init: InitialLaw, grid: TimeGrid,
                 n_paths: int, seed: int, threads: int):
        self.spec, self.init, self.grid = spec, init, grid
        self.n_paths, self.seed, self.threads = n_paths, seed, threads
        self.buffer = np.empty(0)

    def block(self, lo: int, hi: int, stride: int = 1) -> PathEnsemble:
        """Paths lo, lo + stride, ... < hi, valid until the next block is
        sampled: the blocks share one buffer, which grows to the largest,
        so a run allocates its states once (and the heap is not left
        holding the freed blocks). An empty block samples nothing, but
        refuses mu's constant matrix, as sampling refuses it."""
        shape = (len(range(lo, hi, stride)), self.grid.points.shape[0],
                 self.spec.dim)
        if not shape[0]:
            self.spec.constant_factor
            return PathEnsemble(self.grid, np.empty(shape), self.seed,
                                self.spec.model_id)
        if self.buffer.size < math.prod(shape):
            self.buffer = np.empty(0)       # the old one goes first
            self.buffer = np.empty(math.prod(shape))
        return sample_paths(self.spec, self.init, self.grid, hi, self.seed,
                            threads=self.threads, stride=stride, first=lo,
                            out=self.buffer)

    def column(self, k: int) -> np.ndarray:
        """The states of all paths at grid index k, an (n_paths, d) array,
        sampled in the blocks of read_blocks."""
        out = np.empty((self.n_paths, self.spec.dim))

        def keep(block: PathEnsemble, lo: int, hi: int) -> None:
            out[lo:hi] = block.states[:, k]

        read_blocks(self, self.grid.points.shape[0], keep)
        return out


def _run_girsanov(resolved, objs, threads):
    spec_mu, spec_p, init_mu, init_p, grid = objs
    # the match check's probe is sampled first: on a mismatch the estimate
    # is +inf, and the rest of the paths are never sampled
    est = girsanov_entropy(
        spec_mu, spec_p, init_mu, init_p,
        _SampledPaths(spec_mu, init_mu, grid, resolved["n_paths"],
                      resolved["seed"], threads),
        **_set_params(resolved, "tol_match"))
    rows = [{"estimator": "girsanov", "value": est.value,
             "std_error": est.std_error, "is_infinite": est.is_infinite}]
    return {"estimate": _jsonable(est)}, rows, est


def _run_chain(resolved, objs, threads):
    spec_mu, spec_p, init_mu, init_p, grid = objs
    params = resolved["estimator_params"]
    paths = _SampledPaths(spec_mu, init_mu, grid, resolved["n_paths"],
                          resolved["seed"], threads)
    if "levels" in params:
        sweep = refinement_sweep(spec_mu, spec_p, init_mu, init_p, paths,
                                 params["levels"])
        rows = []
        for level, est in enumerate(sweep.estimates, start=1):
            rows.append({
                "level": level,
                "mesh": est.partition.mesh,
                "value": est.total.value,
                "std_error": est.total.std_error,
                "slope": sweep.slope_per_interval,
            })
        results = {
            "sweep": [{
                "level": r["level"], "mesh": r["mesh"],
                "value": r["value"], "std_error": r["std_error"],
                "intervals": est.partition.n_intervals,
            } for r, est in zip(rows, sweep.estimates)],
            "finest": _jsonable(sweep.estimates[-1].total),
            "diverged": sweep.diverged,
            "slope_per_interval": sweep.slope_per_interval,
            "richardson_gap": sweep.richardson_gap,
            "monotonicity_violations": _jsonable(
                sweep.monotonicity_violations),
        }
        return results, rows, sweep.estimates[-1].total

    partition = Partition.from_times(
        grid, params.get("partition_times", grid.points))
    est = chain_estimate(spec_mu, spec_p, init_mu, init_p, paths, partition)
    rows = [{"t_lo": c.t_lo, "t_hi": c.t_hi, "value": c.value,
             "std_error": c.std_error} for c in est.contributions]
    rows.append({"t_lo": 0.0, "t_hi": grid.horizon,
                 "value": est.total.value,
                 "std_error": est.total.std_error})
    results = {
        "total": _jsonable(est.total),
        "initial_term": est.initial_term,
        "contributions": _jsonable(est.contributions),
        "n_intervals": partition.n_intervals,
    }
    return results, rows, est.total


def _run_dv_marginal(resolved, objs, threads):
    spec_mu, spec_p, init_mu, init_p, grid = objs
    params = resolved["estimator_params"]
    opt = _set_params(resolved, "t", "n_samples", "gtol", "max_iter",
                      "plateau_rtol")
    t = opt.pop("t", grid.horizon)
    n = opt.pop("n_samples", resolved["n_paths"])
    config = OptimizerConfig(**opt)
    seed = resolved["seed"]
    idx = grid.index_of(t)
    # only the column at t of each ensemble is kept
    s_mu = _SampledPaths(spec_mu, init_mu, grid, n, seed,
                         threads).column(idx)
    s_p = _SampledPaths(spec_p, init_p, grid, n, substream_seed(seed, 1),
                        threads).column(idx)

    basis = basis_from_config(params["basis"]) if "basis" in params \
        else pooled_dv_basis(s_mu, s_p)
    est = dv_estimate(s_mu, s_p, basis, config)
    rows = [{"estimator": "dv-marginal", "t": t, "value": est.value,
             "std_error": est.std_error}]
    return {"estimate": _jsonable(est), "t": t, "n_samples": n,
            "basis": basis.describe()}, rows, est


def _run_residual_energy(resolved, objs, threads):
    spec_mu, spec_p, init_mu, init_p, grid = objs
    params = resolved["estimator_params"]
    paths = _SampledPaths(spec_mu, init_mu, grid, resolved["n_paths"],
                          resolved["seed"], threads)
    if "basis" in params:
        # the profile reads the paths a block at a time
        basis = basis_from_config(params["basis"])
    else:
        # the default basis reads the whole ensemble
        paths = paths.block(0, paths.n_paths)
        basis = default_energy_basis(paths)
    profile = residual_energy_profile(
        paths, spec_p, basis,
        **_set_params(resolved, "window", "stride", "t_min_frac"))
    initial = initial_entropy(init_mu, init_p)
    total = path_space_estimate(initial, [profile.integral],
                                profile.integral_std_error, "residual-energy",
                                _jsonable(profile.diagnostics))
    rows = [{"t": float(t), "energy": float(v), "std_error": float(s)}
            for t, v, s in zip(profile.times, profile.values,
                               profile.std_errors)]
    results = {
        "integral": profile.integral,
        "integral_std_error": profile.integral_std_error,
        "initial_term": _jsonable(initial),
        "total": total.value,
        "total_std_error": total.std_error,
        "profile": rows,
        "basis": basis.describe(),
        "diagnostics": total.diagnostics,
    }
    return results, rows, total


def _run_sanov(resolved, objs, threads):
    spec_mu, spec_p, init_mu, init_p, grid = objs
    experiment = RateExperiment(
        seed=resolved["seed"],
        **_set_params(resolved, "observable", "threshold", "n_list",
                      "trials"))
    table = empirical_rate(spec_p, init_p, grid, experiment,
                           threads=threads,
                           **_set_params(resolved, "with_oracle"))
    rows = [{"n": r.n, "count": r.count, "p_hat": r.p_hat, "rate": r.rate,
             "std_error": r.std_error, "oracle": r.oracle,
             "zero_count": r.zero_count} for r in table.rows]
    return {"table": rows, "diagnostics": _jsonable(table.diagnostics)}, \
        rows, None


# estimator -> (runner, JSON type of each estimator_params key); a runner
# passes on only the keys a config sets, so every default is the library's,
# and returns results, csv rows (the header is the first row's keys) and its
# headline EntropyEstimate (None for sanov, whose rate is not a path-space
# entropy)
ESTIMATORS = {
    "girsanov": (_run_girsanov, {"tol_match": "number"}),
    "chain": (_run_chain, {
        "levels": "integer", "partition_times": "array of numbers"}),
    "dv-marginal": (_run_dv_marginal, {
        "t": "number", "n_samples": "integer", "basis": "object",
        "max_iter": "integer", "gtol": "number", "plateau_rtol": "number"}),
    "residual-energy": (_run_residual_energy, {
        "basis": "object", "window": "integer", "stride": "integer",
        "t_min_frac": "number"}),
    "sanov": (_run_sanov, {
        "observable": "string", "threshold": "number",
        "n_list": "array of integers", "trials": "integer",
        "with_oracle": "boolean"}),
}


def _run_resolved(resolved: dict, objs, threads: int):
    """Results, (csv rows, csv header) and the headline EntropyEstimate of
    a resolved config's run on its built objects."""
    results, rows, headline = ESTIMATORS[resolved["estimator"]][0](
        resolved, objs, threads)
    return results, (rows, list(rows[0])), headline


def run_config(cfg: dict, *, seed_override: int | None = None,
               threads: int = 1) -> tuple[dict, dict, tuple[list, list]]:
    """Validate and dispatch cfg.

    Returns:
        (resolved config, results, (csv rows, csv header)).
    """
    resolved = resolve_config(cfg, seed_override)
    results, rows_header, _ = _run_resolved(
        resolved, _built_objects(resolved), threads)
    return resolved, results, rows_header


def build_report(resolved: dict, results: dict, *, command: str,
                 wall_clock_s: float) -> dict:
    from . import __version__
    return {
        "command": command,
        "config": resolved,
        "results": results,
        "version": __version__,
        "wall_clock_s": wall_clock_s,
    }


def _emit(report: dict, rows_header, fmt: str, out: str | None) -> None:
    if fmt == "json":
        text = json.dumps(_jsonable(report), sort_keys=True, indent=2)
        text += "\n"
    else:
        rows, header = rows_header
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=header, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k) for k in header})
        text = buf.getvalue()
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    t0 = time.perf_counter()
    try:
        resolved, results, rows_header = run_config(
            cfg, seed_override=args.seed, threads=args.threads)
    except (ConvergenceError, InsufficientSamplingError) as exc:
        # partial report: the failure is a result, not a crash
        partial = {
            "command": "run",
            "config": cfg,
            "results": {"status": type(exc).__name__,
                        "message": str(exc),
                        "best_value": getattr(exc, "best_value", None),
                        "diagnostics": _jsonable(
                            getattr(exc, "diagnostics", {}))},
            "wall_clock_s": time.perf_counter() - t0,
        }
        _emit(partial, ([], ["status"]), "json", args.out)
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    report = build_report(resolved, results, command="run",
                          wall_clock_s=time.perf_counter() - t0)
    _emit(report, rows_header, args.format, args.out)
    return EXIT_OK


def _scenario_fingerprint(resolved: dict) -> dict:
    return {
        "model_mu": resolved["model_mu"],
        "model_P": resolved["model_P"],
        "initial_mu": resolved["initial_mu"],
        "initial_P": resolved["initial_P"],
        "horizon": resolved["grid"]["horizon"],
    }


def _cmd_compare(args) -> int:
    if len(args.config) < 2:
        raise ArgumentError("compare needs at least two --config files")
    t0 = time.perf_counter()
    # every config is checked before any route runs
    runs = []
    for path in args.config:
        resolved = resolve_config(load_config(path), args.seed)
        fingerprint = _scenario_fingerprint(resolved)
        if runs and fingerprint != _scenario_fingerprint(runs[0][1]):
            raise ArgumentError(
                f"config {path} runs a different scenario; compare needs a "
                f"shared model pair, initial laws, and horizon")
        if resolved["estimator"] == "sanov":
            raise ArgumentError(
                "sanov runs estimate a decay rate, not a path-space entropy; "
                "they cannot join a compare table")
        objs = _built_objects(resolved)
        if "levels" in resolved["estimator_params"]:    # a chain sweep
            refine_sequence(objs[-1], resolved["estimator_params"]["levels"])
        runs.append((path, resolved, objs))
    entries = []
    for path, resolved, objs in runs:
        headline = _run_resolved(resolved, objs, args.threads)[2]
        entries.append({"config": path, "estimator": resolved["estimator"],
                        "value": float(headline.value),
                        "std_error": float(headline.std_error),
                        "is_infinite": headline.is_infinite})

    z_scores = []
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            a, b = entries[i], entries[j]
            if a["is_infinite"] or b["is_infinite"]:
                z = None
            else:
                spread = math.hypot(a["std_error"], b["std_error"])
                gap = a["value"] - b["value"]
                z = 0.0 if gap == 0 else (gap / spread if spread > 0
                                          else math.inf)
            z_scores.append({"i": i, "j": j, "z": z})

    report = {
        "command": "compare",
        "scenario": fingerprint,
        "entries": entries,
        "z_scores": z_scores,
        "flags": [e["estimator"] for e in entries if e["is_infinite"]],
        "wall_clock_s": time.perf_counter() - t0,
    }
    _emit(report, (entries, list(entries[0])), args.format, args.out)
    return EXIT_OK


def _cmd_list_models(args) -> int:
    for model_id in model_ids():
        params = sorted(model_params(model_id))
        print(f"{model_id}  params: {', '.join(params) if params else '-'}")
    return EXIT_OK


def _selftest_checks():
    from .diffusion import GaussianLaw
    from .marginal import gaussian_kl

    def check_gaussian_kl():
        value = gaussian_kl(GaussianLaw(np.zeros(1), 4 * np.eye(1)),
                            GaussianLaw(np.zeros(1), np.eye(1)))
        want = 0.5 * (4 - 1 - math.log(4.0))
        return abs(value - want) < 1e-12, f"value={value:.12f}"

    def check_mismatch_step():
        grid = TimeGrid.uniform(1.0, 4)
        spec_mu = make_model("brownian", {"a": 2.0})
        spec_p = make_model("brownian", {"a": 1.0})
        init = InitialLaw.point_mass([0.0])
        ens = sample_paths(spec_mu, init, grid, 16, 0)
        value, _ = step_kl(spec_mu, spec_p, ens, (0.0, 0.25))
        want = 0.5 * (2 - 1 - math.log(2.0))
        return abs(value - want) < 1e-12, f"value={value:.12f}"

    def check_constant_drift():
        grid = TimeGrid.uniform(1.0, 400)
        spec_mu = make_model("constant_drift", {"theta": 1.0})
        spec_p = make_model("brownian", {})
        init = InitialLaw.point_mass([0.0])
        ens = sample_paths(spec_mu, init, grid, 4000, 7)
        est = girsanov_entropy(spec_mu, spec_p, init, init, ens)
        return abs(est.value - 0.5) < 0.02, f"value={est.value:.4f}"

    def check_chain_identity():
        grid = TimeGrid.uniform(1.0, 16)
        spec_mu = make_model("ou", {"gamma": 1.0})
        spec_p = make_model("brownian", {})
        init = InitialLaw.point_mass([0.0])
        part = Partition.from_times(grid, grid.points)
        est = chain_estimate(spec_mu, spec_p, init, init,
                             sample_paths(spec_mu, init, grid, 500, 3), part)
        total = est.initial_term
        for term in est.contributions:
            total = total + term.value
        return est.total.value == max(total, 0.0), f"gap={est.total.value - total}"

    def check_determinism():
        cfg = {
            "model_mu": {"id": "constant_drift", "params": {"theta": 1.0}},
            "model_P": {"id": "brownian", "params": {}},
            "initial_mu": {"kind": "point", "point": [0.0]},
            "initial_P": {"kind": "point", "point": [0.0]},
            "grid": {"horizon": 1.0, "steps": 50},
            "estimator": "girsanov",
            "n_paths": 200,
            "seed": 11,
        }
        out = []
        for threads in (1, 4):
            resolved, results, _ = run_config(dict(cfg), threads=threads)
            out.append(json.dumps(_jsonable(results), sort_keys=True))
        return out[0] == out[1], "reports differ" if out[0] != out[1] else ""

    return [
        ("gaussian-kl-closed-form", check_gaussian_kl),
        ("mismatched-diffusion-step", check_mismatch_step),
        ("constant-drift-oracle", check_constant_drift),
        ("chain-sum-identity", check_chain_identity),
        ("thread-determinism", check_determinism),
    ]


def _cmd_self_test(args) -> int:
    failures = 0
    for name, check in _selftest_checks():
        try:
            ok, detail = check()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        status = "PASS" if ok else "FAIL"
        suffix = f"  ({detail})" if detail and not ok else ""
        print(f"{status}  {name}{suffix}")
        failures += 0 if ok else 1
    return EXIT_OK if failures == 0 else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: a parser is a web of reference cycles, so a
    # parser per call is garbage until a full collection, and a block of it
    # that malloc placed above a route's freed arrays keeps the heap from
    # shrinking below it (repeated ou-routes runs then peaked 43 MiB higher)
    parser = argparse.ArgumentParser(
        prog="pathkl",
        description="Path-space relative entropy estimators for diffusions")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_run = sub.add_parser("run", help="run one configured estimator")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--format", choices=("json", "csv"), default="json")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    p_run.add_argument("--threads", type=int, default=1)
    p_run.set_defaults(fn=_cmd_run)

    p_cmp = sub.add_parser("compare",
                           help="run several configs on one scenario")
    p_cmp.add_argument("--config", action="append", required=True,
                       help="repeat for each run")
    p_cmp.add_argument("--out", default=None)
    p_cmp.add_argument("--format", choices=("json", "csv"), default="json")
    p_cmp.add_argument("--seed", type=int, default=None)
    p_cmp.add_argument("--threads", type=int, default=1)
    p_cmp.set_defaults(fn=_cmd_compare)

    p_list = sub.add_parser("list-models", help="print the model catalog")
    p_list.set_defaults(fn=_cmd_list_models)

    p_self = sub.add_parser("self-test", help="run the fast check battery")
    p_self.set_defaults(fn=_cmd_self_test)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ArgumentError, CapabilityError, ConvergenceError,
            InsufficientSamplingError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
