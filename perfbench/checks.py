"""Correctness checks on `pathkl run` reports.

Every expected value is computed here from the workload's own parameters
with the standard library; nothing here imports pathkl, so the checks do
not share code with the estimators they judge.

`assess` turns one report into an operation count: how many operations
the report stands for, how many failed, and which checks it broke. A broken
check is a failed operation and makes the run incorrect. Two faults of the
program are failed operations that leave the run correct: the DV ascent
that stops before its plateau (exit 3, ConvergenceError) and rate-table
rows with zero exceedances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

Z_SE = 5.0            # an estimate must lie this many SE from its closed form
MONOTONE_SE = 3.0     # refinement levels may drop by this many combined SE
RELATIVE_BAND = 0.10  # acceptance criterion 07's band for residual-energy
EXACT_RTOL = 1e-12    # identities that hold to rounding
BINOMIAL_MASS = 0.999 # central mass of the rate-table count interval
# A rate-table row whose zero-count chance lies between these bounds is
# zero on some seeds and not on others: it is checked, but not counted as
# an operation, so that the failed share of a run does not depend on --seed.
ZERO_COUNT_DECIDED = (1e-3, 1.0 - 1e-3)
EXIT_CONVERGENCE = 3


@dataclass
class Outcome:
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Closed forms


def ou_path_kl(gamma: float, horizon: float) -> float:
    """KL between OU(gamma) and Brownian paths with a shared constant a."""
    g, t = gamma, horizon
    return g / 4.0 * (t - (1.0 - math.exp(-2.0 * g * t)) / (2.0 * g))


def ou_marginal_kl(gamma: float, horizon: float) -> float:
    """KL between the time-T marginals N(0, a v) and N(0, a T)."""
    v = (1.0 - math.exp(-2.0 * gamma * horizon)) / (2.0 * gamma)
    return variance_ratio_kl(v / horizon)


def variance_ratio_kl(ratio: float) -> float:
    """KL(N(0, r s) || N(0, s)) for a variance ratio r."""
    return 0.5 * (ratio - 1.0 - math.log(ratio))


def normal_sf(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def binomial_interval(trials: int, p: float,
                      mass: float = BINOMIAL_MASS) -> tuple[int, int]:
    """Central interval [lo, hi] holding `mass` of Binomial(trials, p)."""
    if p <= 0.0:
        return 0, 0
    tail = 0.5 * (1.0 - mass)
    log_p, log_q = math.log(p), math.log1p(-p)
    log_n = math.lgamma(trials + 1)
    cdf, lo = 0.0, None
    for k in range(trials + 1):
        cdf += math.exp(log_n - math.lgamma(k + 1)
                        - math.lgamma(trials - k + 1)
                        + k * log_p + (trials - k) * log_q)
        if lo is None and cdf >= tail:
            lo = k
        if cdf >= 1.0 - tail:
            return lo, k
    return lo, trials


def _close(value: float, want: float, rtol: float = EXACT_RTOL) -> bool:
    return abs(value - want) <= rtol * abs(want)


# ---------------------------------------------------------------------------
# Per-operation checks; each returns the list of broken checks


def _within_se(name: str, value: float, se: float, want: float) -> list[str]:
    if not (math.isfinite(value) and se > 0.0
            and abs(value - want) <= Z_SE * se):
        return [f"{name}={value!r} (se {se!r}) is not within {Z_SE} SE "
                f"of {want!r}"]
    return []


def _check_levels(sweep: list[dict]) -> list[str]:
    problems = []
    for i, level in enumerate(sweep):
        if level["intervals"] != 2 ** i:
            problems.append(f"level {i + 1} has {level['intervals']} "
                            f"intervals, not {2 ** i}")
    return problems


def check_ou_girsanov(config: dict, results: dict) -> list[str]:
    want = ou_path_kl(config["model_mu"]["params"]["gamma"],
                      config["grid"]["horizon"])
    est = results["estimate"]
    return _within_se("girsanov", est["value"], est["std_error"], want)


def check_ou_chain(config: dict, results: dict) -> list[str]:
    want = ou_path_kl(config["model_mu"]["params"]["gamma"],
                      config["grid"]["horizon"])
    sweep = results["sweep"]
    finest = sweep[-1]
    problems = _check_levels(sweep)
    problems += _within_se("finest chain level", finest["value"],
                           finest["std_error"], want)
    if sweep[0]["value"] != 0.0:
        problems.append(f"level 1 total is {sweep[0]['value']!r}, not 0")
    for prev, curr in zip(sweep, sweep[1:]):
        allowed = MONOTONE_SE * math.hypot(prev["std_error"],
                                           curr["std_error"])
        if prev["value"] - curr["value"] > allowed:
            problems.append(
                f"level {curr['level']} drops {prev['value'] - curr['value']!r}"
                f" below level {prev['level']}, more than {allowed!r}")
    return problems


def check_ou_residual_energy(config: dict, results: dict) -> list[str]:
    want = ou_path_kl(config["model_mu"]["params"]["gamma"],
                      config["grid"]["horizon"])
    value = results["total"]
    if not abs(value - want) <= RELATIVE_BAND * want:
        return [f"residual-energy={value!r} is not within "
                f"{RELATIVE_BAND:.0%} of {want!r}"]
    return []


def check_ou_dv_marginal(config: dict, results: dict) -> list[str]:
    params = config["model_mu"]["params"]
    path_kl = ou_path_kl(params["gamma"], config["grid"]["horizon"])
    want = ou_marginal_kl(params["gamma"], results["t"])
    est = results["estimate"]
    value, se = est["value"], est["std_error"]
    problems = []
    if not value <= path_kl + MONOTONE_SE * se:
        problems.append(f"dv-marginal={value!r} exceeds the path KL "
                        f"{path_kl!r} by more than {MONOTONE_SE} SE")
    if not abs(value - want) <= max(RELATIVE_BAND * want, Z_SE * se):
        problems.append(f"dv-marginal={value!r} is not close to the "
                        f"marginal KL {want!r}")
    return problems


def check_mismatch_girsanov(config: dict, results: dict) -> list[str]:
    est = results["estimate"]
    match = est["diagnostics"]["match_report"]
    problems = []
    if est["value"] != math.inf:
        problems.append(f"girsanov={est['value']!r} on mismatched "
                        f"diffusions, not +inf")
    if match["passed"] or not _close(match["max_distance"], 1.0):
        problems.append(f"match report {match!r} should fail with "
                        f"max_distance 1")
    return problems


def check_mismatch_chain(config: dict, results: dict) -> list[str]:
    ratio = (config["model_mu"]["params"]["a"]
             / config["model_P"]["params"]["a"])
    per_interval = variance_ratio_kl(ratio)
    sweep = results["sweep"]
    problems = _check_levels(sweep)
    for level in sweep:
        want = level["intervals"] * per_interval
        if not _close(level["value"], want):
            problems.append(f"level {level['level']} total "
                            f"{level['value']!r} is not {want!r}")
    slope = results["slope_per_interval"]
    if slope is None or not _close(slope, per_interval):
        problems.append(f"slope_per_interval {slope!r} is not "
                        f"{per_interval!r}")
    return problems


def _rate_setup(config: dict):
    params = config["estimator_params"]
    scale = config["model_P"]["params"]["a"] * config["grid"]["horizon"]
    return params["threshold"], params["trials"], scale


def exceedance_probability(config: dict, n: int) -> float:
    """P(mean of n terminal values > z) for driftless Brownian paths."""
    z, _, scale = _rate_setup(config)
    return normal_sf(z * math.sqrt(n / scale))


def counted_rows(config: dict) -> list[int]:
    """Sample sizes whose rows count as operations."""
    _, trials, _ = _rate_setup(config)
    counted = []
    for n in config["estimator_params"]["n_list"]:
        p_zero = math.exp(trials * math.log1p(-exceedance_probability(
            config, n)))
        if not ZERO_COUNT_DECIDED[0] < p_zero < ZERO_COUNT_DECIDED[1]:
            counted.append(n)
    return counted


def check_rate_table(config: dict, results: dict) -> Outcome:
    """Check every row; a counted row fails on zero count or a broken check."""
    z, trials, scale = _rate_setup(config)
    oracle = z * z / (2.0 * scale)
    rows = results["table"]
    counted = counted_rows(config)
    out = Outcome(attempted=len(counted), failed=0)
    ns = [row["n"] for row in rows]
    if ns != config["estimator_params"]["n_list"]:
        out.problems.append(f"rows {ns} do not match n_list "
                            f"{config['estimator_params']['n_list']}")
        out.failed = out.attempted
        return out
    for row in rows:
        p = exceedance_probability(config, row["n"])
        lo, hi = binomial_interval(trials, p)
        problems = []
        if not lo <= row["count"] <= hi:
            problems.append(
                f"n={row['n']}: count {row['count']} is outside the "
                f"{BINOMIAL_MASS:.1%} interval [{lo}, {hi}] of "
                f"Binomial({trials}, {p!r})")
        if row["oracle"] is None or not _close(row["oracle"], oracle):
            problems.append(f"n={row['n']}: oracle {row['oracle']!r} "
                            f"is not {oracle!r}")
        out.problems += problems
        if row["n"] in counted and (problems or row["zero_count"]):
            out.failed += 1
    return out


_CHECKS = {
    ("ou-routes", "girsanov"): check_ou_girsanov,
    ("ou-routes", "chain"): check_ou_chain,
    ("ou-routes", "residual-energy"): check_ou_residual_energy,
    ("ou-routes", "dv-marginal"): check_ou_dv_marginal,
    ("mismatch-sine", "girsanov"): check_mismatch_girsanov,
    ("mismatch-sine", "chain"): check_mismatch_chain,
}


def assess(workload: str, op: str, config: dict, exit_code: int,
           report: dict) -> Outcome:
    """Operation accounting and broken checks for one `pathkl run`."""
    results = report.get("results", {})
    if (workload, op) == ("ou-routes", "dv-marginal") \
            and exit_code == EXIT_CONVERGENCE \
            and results.get("status") == "ConvergenceError":
        return Outcome(attempted=1, failed=1)
    if exit_code != 0:
        n = len(counted_rows(config)) if workload == "rate-table" else 1
        return Outcome(attempted=n, failed=n,
                       problems=[f"{op} exited with code {exit_code}"])
    if workload == "rate-table":
        return check_rate_table(config, results)
    problems = _CHECKS[(workload, op)](config, results)
    return Outcome(attempted=1, failed=int(bool(problems)),
                   problems=problems)
