"""Each correctness check accepts a right report and rejects a wrong one."""

import math

import pytest

import checks
import workloads

SE = 0.0015


def config(workload, op):
    return workloads.configs(workload, seed=0)[op]


def ou_target():
    return checks.ou_path_kl(1.0, 1.0)


def estimate(value, se=SE, **diagnostics):
    return {"estimate": {"value": value, "std_error": se,
                         "diagnostics": diagnostics}}


def ou_sweep(levels=9, se=SE):
    k = ou_target()
    values = [0.0] + [k * (1 - 2.0 ** -j) for j in range(1, levels)]
    values[-1] = k
    return {"sweep": [{"level": i + 1, "intervals": 2 ** i, "value": v,
                       "std_error": se} for i, v in enumerate(values)]}


def mismatch_sweep(levels=9):
    h = 0.5 * (1.0 - math.log(2.0))
    return {"sweep": [{"level": i + 1, "intervals": 2 ** i,
                       "value": 2 ** i * h, "std_error": 0.0}
                      for i in range(levels)],
            "slope_per_interval": h}


def rate_table(counts):
    cfg = config("rate-table", "sanov")
    return {"table": [{"n": n, "count": c, "zero_count": c == 0,
                       "oracle": 0.5}
                      for n, c in zip(cfg["estimator_params"]["n_list"],
                                      counts)]}


def assess(workload, op, results, code=0):
    return checks.assess(workload, op, config(workload, op), code,
                         {"results": results})


def test_closed_forms():
    assert ou_target() == pytest.approx(0.14191691, abs=1e-8)
    v = (1.0 - math.exp(-2.0)) / 2.0
    assert checks.ou_marginal_kl(1.0, 1.0) == pytest.approx(
        0.5 * (v - 1.0 - math.log(v)))
    assert checks.normal_sf(0.0) == 0.5


def test_binomial_interval_holds_the_central_mass():
    trials, p = 400, checks.normal_sf(math.sqrt(2.0))
    lo, hi = checks.binomial_interval(trials, p)
    assert lo < trials * p < hi

    def cdf(k):
        return sum(math.comb(trials, j) * p ** j * (1 - p) ** (trials - j)
                   for j in range(k + 1))
    assert cdf(lo - 1) < 0.0005 <= cdf(lo)
    assert cdf(hi - 1) < 0.9995 <= cdf(hi)


def test_estimate_moved_by_ten_se_is_rejected():
    assert not assess("ou-routes", "girsanov",
                      estimate(ou_target() + SE)).problems
    for shift in (10 * SE, -10 * SE):
        outcome = assess("ou-routes", "girsanov",
                         estimate(ou_target() + shift))
        assert outcome.problems and outcome.failed == 1


def test_finest_chain_level_moved_by_ten_se_is_rejected():
    good = ou_sweep()
    assert not assess("ou-routes", "chain", good).problems
    bad = ou_sweep()
    bad["sweep"][-1]["value"] += 10 * SE
    assert assess("ou-routes", "chain", bad).problems


def test_chain_level_one_must_be_zero_and_levels_nondecreasing():
    bad = ou_sweep()
    bad["sweep"][0]["value"] = 1e-17
    assert assess("ou-routes", "chain", bad).problems
    bad = ou_sweep()
    bad["sweep"][4]["value"] = bad["sweep"][3]["value"] - 5 * SE
    assert assess("ou-routes", "chain", bad).problems


def test_residual_energy_band():
    k = ou_target()
    assert not assess("ou-routes", "residual-energy",
                      {"total": 1.09 * k}).problems
    assert assess("ou-routes", "residual-energy",
                  {"total": 1.11 * k}).problems


def test_dv_marginal_convergence_error_is_a_failed_operation_only():
    outcome = assess("ou-routes", "dv-marginal",
                     {"status": "ConvergenceError"}, code=3)
    assert (outcome.attempted, outcome.failed, outcome.problems) == (1, 1, [])


def test_dv_marginal_success_is_checked():
    want = checks.ou_marginal_kl(1.0, 1.0)
    good = dict(estimate(want - 0.004, se=0.006), t=1.0)
    assert not assess("ou-routes", "dv-marginal", good).problems
    above_path = dict(estimate(ou_target() + 10 * SE), t=1.0)
    assert assess("ou-routes", "dv-marginal", above_path).problems


def test_mismatch_girsanov_must_be_infinite_with_failed_match():
    match = {"passed": 0, "max_distance": 1.0}
    assert not assess("mismatch-sine", "girsanov",
                      estimate(math.inf, 0.0, match_report=match)).problems
    assert assess("mismatch-sine", "girsanov",
                  estimate(0.3, 0.0, match_report=match)).problems
    passed = {"passed": 1, "max_distance": 1.0}
    assert assess("mismatch-sine", "girsanov",
                  estimate(math.inf, 0.0, match_report=passed)).problems


def test_level_total_off_by_one_interval_is_rejected():
    assert not assess("mismatch-sine", "chain", mismatch_sweep()).problems
    h = 0.5 * (1.0 - math.log(2.0))
    for level in range(9):
        bad = mismatch_sweep()
        bad["sweep"][level]["value"] += h
        assert assess("mismatch-sine", "chain", bad).problems
    bad = mismatch_sweep()
    bad["slope_per_interval"] = None
    assert assess("mismatch-sine", "chain", bad).problems


def test_rate_table_rows_are_counted_unless_undecided():
    outcome = assess("rate-table", "sanov", rate_table([127, 8, 0, 0]))
    # n=20 expects 0.04 exceedances: zero on most seeds, so not counted
    assert (outcome.attempted, outcome.failed, outcome.problems) == (3, 1, [])
    assert assess("rate-table", "sanov",
                  rate_table([127, 8, 1, 0])).failed == 1


def test_count_outside_binomial_interval_is_rejected():
    for counts in ([60, 8, 0, 0], [200, 8, 0, 0], [127, 40, 0, 0],
                   [127, 8, 9, 0], [127, 8, 0, 3]):
        outcome = assess("rate-table", "sanov", rate_table(counts))
        assert outcome.problems and outcome.failed >= 1


def test_wrong_oracle_is_rejected():
    results = rate_table([127, 8, 0, 0])
    results["table"][0]["oracle"] = 0.5 + 1e-9
    assert assess("rate-table", "sanov", results).problems


def test_crashed_run_fails_every_operation_it_stands_for():
    outcome = assess("rate-table", "sanov", {}, code=2)
    assert outcome.attempted == outcome.failed == 3 and outcome.problems
    outcome = assess("ou-routes", "girsanov", {}, code=1)
    assert outcome.attempted == outcome.failed == 1 and outcome.problems
