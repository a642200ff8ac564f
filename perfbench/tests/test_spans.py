"""The traced run: spans nest, self times add up, wrappers come off."""

import json

import pytest

import run
import spans
import workloads
from pathkl import cli, variational


def tiny_configs():
    """Every estimator the workloads use, at a few hundred paths."""
    sizes = {("ou-routes", "girsanov"): (64, 300),
             ("ou-routes", "chain"): (16, 300),
             ("ou-routes", "residual-energy"): (64, 2000),
             ("ou-routes", "dv-marginal"): (64, 500),
             ("rate-table", "sanov"): (4, 300)}
    out = {}
    for (workload, op), (steps, n) in sizes.items():
        cfg = workloads.configs(workload, seed=3)[op]
        cfg["grid"] = dict(cfg["grid"], steps=steps)
        cfg["n_paths"] = n
        params = dict(cfg["estimator_params"])
        if op == "chain":
            params["levels"] = 3
        if op == "dv-marginal":
            params["n_samples"] = n
        if op == "sanov":
            params.update(trials=200, n_list=[1, 2])
        cfg["estimator_params"] = params
        out[op] = cfg
    return out


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("bench")
    paths = {}
    for op, cfg in tiny_configs().items():
        paths[op] = workdir / f"{op}.json"
        paths[op].write_text(json.dumps(cfg))
    tracer = spans.Tracer()
    with spans.instrumented(tracer):
        results = run.run_round(cli.main, paths, workdir)
    return tracer.spans, results


def test_wrappers_are_removed_after_the_block(traced):
    assert not hasattr(cli.main, "__wrapped__")
    assert not hasattr(cli.sample_paths, "__wrapped__")
    assert not hasattr(variational.FunctionBasis.value_matrix, "__wrapped__")


def test_every_config_runs_under_tracing(traced):
    recorded, results = traced
    codes = {r["op"]: r["code"] for r in results}
    # the DV ascent may stop short at these sizes too (exit 3)
    assert codes == {"girsanov": 0, "chain": 0, "residual-energy": 0,
                     "dv-marginal": codes["dv-marginal"], "sanov": 0}
    assert codes["dv-marginal"] in (0, 3)
    roots = [s for s in recorded if s.parent < 0]
    assert [s.name for s in roots] == ["cli.main"] * len(results)


def test_self_times_add_up_to_each_parent_span(traced):
    recorded, _ = traced
    own = spans.self_times(recorded)
    assert all(t >= 0 for t in own)
    for index, span in enumerate(recorded):
        subtree, frontier = [index], [index]
        while frontier:
            children = [i for i, s in enumerate(recorded)
                        if s.parent in frontier]
            subtree += children
            frontier = children
        total = sum(own[i] for i in subtree)
        assert total == pytest.approx(span.end - span.start, abs=1e-9)


def test_layer_metrics_count_the_work(traced):
    recorded, _ = traced
    metrics = spans.layer_metrics(recorded)
    path_steps = (300 * 64 + 300 * 16 + 2000 * 64 + 2 * 500 * 64)
    assert metrics["diffusion.path_steps"] == path_steps
    assert metrics["chain.interval_kls"] == 300 * (1 + 2 + 4)
    assert metrics["sanov.trial_steps"] == 200 * (1 + 2) * 4
    assert metrics["marginal.dv_iterations"] > 0
    assert metrics["variational.slices"] > 0
    assert metrics["variational.basis_evals"] > 0
    assert metrics["chain.match_points"] > 0
    for name in spans.SELF_TIME_METRICS:
        assert metrics[name] > 0, name


def test_self_times_with_a_stepping_clock():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("root"):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
    # root 0..7, a 1..4, b 2..3, c 5..6
    assert spans.self_times(tracer.spans) == [3.0, 2.0, 1.0, 1.0]
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 0]


def test_body_digest_ignores_wall_clock_only():
    report = {"results": {"value": 1.0}, "wall_clock_s": 3.0}
    same = dict(report, wall_clock_s=4.0)
    other = {"results": {"value": 1.0 + 1e-15}, "wall_clock_s": 3.0}
    assert run.body_digest(report) == run.body_digest(same)
    assert run.body_digest(report) != run.body_digest(other)
