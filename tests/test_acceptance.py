"""Acceptance battery: one test and one printed PASS/FAIL line per criterion.

Each test computes its verdict first, prints it to the real stdout (so the
line survives pytest's capture), then asserts. Criteria 1-3 share the
reference scenario value through a session cache so the cross-checks compare
against the value actually produced in this run.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.stats import norm

from pathkl import (
    InitialLaw,
    Partition,
    RateExperiment,
    SpacePartition,
    TimeGrid,
    chain_estimate,
    diffusion_match_check,
    drift_correction,
    dual_energy,
    dv_estimate,
    empirical_cell_probabilities,
    empirical_rate,
    fokker_planck_residual,
    gaussian_cell_probabilities,
    gaussian_kl,
    girsanov_entropy,
    gram_matrix,
    histogram_kl,
    histogram_report,
    make_model,
    mixed_basis,
    refinement_sweep,
    residual_energy_profile,
    sample_paths,
)
from pathkl import GaussianLaw
from pathkl.cli import main
from pathkl.variational import GramData

OU_VS_BM = 0.1419169104045766
MISMATCH_STEP = 0.5 * (1.0 - math.log(2.0))
MEAN_SHIFT_KL = 0.5
VAR_QUAD_KL = 0.8068528194400547

_cache = {}


@pytest.fixture()
def record(capsys):
    """Criterion verdict printer that bypasses pytest's output capture."""

    def _print(num, passed, detail):
        tag = "PASS" if passed else "FAIL"
        with capsys.disabled():
            print(f"criterion {num:02d}: {tag} ({detail})", flush=True)

    return _print


def _reference_drift_run():
    """Criterion-1 scenario: unit constant drift against driftless."""
    if "drift_run" not in _cache:
        grid = TimeGrid.uniform(1.0, 1000)
        spec_mu = make_model("constant_drift", {"theta": 1.0})
        spec_p = make_model("brownian", {})
        init = InitialLaw.point_mass([0.0])
        t0 = time.perf_counter()
        ens = sample_paths(spec_mu, init, grid, 10_000, 0)
        est = girsanov_entropy(spec_mu, spec_p, init, init, ens)
        _cache["drift_run"] = {"estimate": est,
                               "seconds": time.perf_counter() - t0}
    return _cache["drift_run"]


def test_criterion_01_constant_drift_closed_form(record):
    run = _reference_drift_run()
    value, secs = run["estimate"].value, run["seconds"]
    ok = abs(value - 0.5) <= 0.02 * 0.5 and secs < 10.0
    record(1, ok, f"value={value:.6f} target=0.5 within 2%, "
                   f"{secs:.2f}s single-threaded")
    assert abs(value - 0.5) <= 0.01
    assert secs < 10.0


def test_criterion_02_mean_reverting_closed_form(record):
    grid = TimeGrid.uniform(1.0, 1000)
    spec_mu = make_model("ou", {"gamma": 1.0})
    spec_p = make_model("brownian", {})
    init = InitialLaw.point_mass([0.0])
    ens = sample_paths(spec_mu, init, grid, 10_000, 0)
    est = girsanov_entropy(spec_mu, spec_p, init, init, ens)
    ok = abs(est.value - OU_VS_BM) <= 0.02 * OU_VS_BM
    record(2, ok, f"value={est.value:.6f} target={OU_VS_BM:.6f} within 2%")
    assert ok


def test_criterion_03_partition_sweep_converges(record):
    grid = TimeGrid.uniform(1.0, 256)
    init = InitialLaw.point_mass([0.0])
    sweep = refinement_sweep(make_model("constant_drift", {"theta": 1.0}),
                             make_model("brownian", {}), init, init, grid,
                             levels=9, n_paths=10_000, seed=0)
    reference = _reference_drift_run()["estimate"].value
    finest = sweep.estimates[-1].total.value
    mesh = sweep.estimates[-1].partition.mesh
    close = abs(finest - reference) <= 0.05 * reference
    monotone = sweep.monotonicity_violations == ()
    ok = close and monotone and mesh == pytest.approx(1 / 256)
    record(3, ok, f"finest={finest:.6f} vs reference={reference:.6f}, "
                   f"mesh=1/256, monotone={monotone}, "
                   f"richardson_gap={sweep.richardson_gap:.2e}")
    assert close
    assert monotone
    assert mesh == pytest.approx(1 / 256)


def test_criterion_04_diffusion_mismatch_diverges(record):
    spec_mu = make_model("brownian", {"a": 2.0})
    spec_p = make_model("brownian", {"a": 1.0})
    init = InitialLaw.point_mass([0.0])
    grid = TimeGrid.uniform(1.0, 64)
    ens = sample_paths(spec_mu, init, grid, 1000, 0)
    match = diffusion_match_check(spec_mu, spec_p, ens)
    sweep = refinement_sweep(spec_mu, spec_p, init, init, grid, levels=6,
                             n_paths=1000, seed=0)
    gir = girsanov_entropy(spec_mu, spec_p, init, init, ens)
    slope_ok = (sweep.slope_per_interval is not None
                and abs(sweep.slope_per_interval - MISMATCH_STEP)
                <= 0.10 * MISMATCH_STEP)
    ok = (not match.passed) and slope_ok and gir.value == math.inf
    record(4, ok, f"match_passed={match.passed}, "
                   f"slope={sweep.slope_per_interval:.6f} "
                   f"target={MISMATCH_STEP:.6f}, girsanov={gir.value}")
    assert not match.passed
    assert slope_ok
    assert gir.value == math.inf


def test_criterion_05_variational_marginal_bounds(record):
    basis = mixed_basis([-8.0], [8.0], n_bumps=5, bump_scale=5.0,
                        degrees=[0, 1, 2], bump_span=(-3.0, 3.0))
    assert basis.size >= 8
    gen_mu = np.random.Generator(np.random.Philox(key=(42, 0)))
    gen_nu = np.random.Generator(np.random.Philox(key=(42, 1)))
    cases = {
        "mean-shift": (1.0 + gen_mu.standard_normal((10_000, 1)),
                       MEAN_SHIFT_KL),
        "variance": (2.0 * gen_mu.standard_normal((10_000, 1)),
                     VAR_QUAD_KL),
    }
    details, ok = [], True
    for name, (samples_mu, truth) in cases.items():
        samples_nu = gen_nu.standard_normal((10_000, 1))
        est = dv_estimate(samples_mu, samples_nu, basis)
        within = abs(est.value - truth) <= 0.10 * truth
        below = est.value <= truth + 3 * est.std_error
        ok = ok and within and below
        details.append(f"{name}: {est.value:.4f}/{truth:.4f}")
    record(5, ok, "; ".join(details) + " (within 10%, bounded by +3SE)")
    assert ok


def test_criterion_06_dual_energy_maximizer(record):
    rng = np.random.default_rng(0)
    max_gap, identity_ok = 0.0, True
    for _ in range(100):
        m = rng.normal(size=(3, 3))
        q = m @ m.T + 10 ** rng.uniform(-3, 0) * np.eye(3)
        c = rng.normal(size=3)
        gram = GramData(matrix=q, n_samples=1, t=0.0,
                        condition=float(np.linalg.cond(q)))
        sol = dual_energy(c, gram)
        res = minimize(lambda g: 0.5 * g @ q @ g - c @ g, np.zeros(3),
                       jac=lambda g: q @ g - c, method="L-BFGS-B",
                       tol=1e-14)
        max_gap = max(max_gap, abs(sol.value - (-res.fun)))
        g = sol.coefficients
        identity_ok = identity_ok and sol.value == 0.5 * float(g @ (q @ g))
    convex_ok = True
    for _ in range(100):
        m = rng.normal(size=(3, 3))
        q = m @ m.T + 1e-3 * np.eye(3)
        gram = GramData(matrix=q, n_samples=1, t=0.0, condition=1.0)
        c1, c2 = rng.normal(size=3), rng.normal(size=3)
        lam = rng.uniform()
        mix = dual_energy(lam * c1 + (1 - lam) * c2, gram).value
        bound = (lam * dual_energy(c1, gram).value
                 + (1 - lam) * dual_energy(c2, gram).value)
        convex_ok = convex_ok and mix <= bound + 1e-9
    ok = max_gap <= 1e-6 and identity_ok and convex_ok
    record(6, ok, f"max |value - direct max| = {max_gap:.2e} over 100 "
                   f"instances; energy identity exact; convexity 100 probes")
    assert max_gap <= 1e-6
    assert identity_ok
    assert convex_ok


def test_criterion_07_drift_recovery(record):
    grid = TimeGrid.uniform(1.0, 128)
    spec_mu = make_model("constant_drift", {"theta": 1.0})
    spec_p = make_model("brownian", {})
    init = InitialLaw.point_mass([0.0])
    ens = sample_paths(spec_mu, init, grid, 50_000, 0)

    # slice recovery at mid-horizon: marginal is N(0.5, 0.5); the basis box
    # is much wider than the evaluation band so the edge taper stays remote
    idx = 64
    slice_basis = mixed_basis([-4.0], [5.0], 10)
    res = fokker_planck_residual(ens, spec_p, slice_basis, t_index=idx,
                                 window=8)
    gram = gram_matrix(spec_p, res.t, ens.states[:, idx], slice_basis)
    corr = drift_correction(res, gram, slice_basis, spec_p)
    sd = math.sqrt(0.5)
    lo, hi = 0.5 - 1.6449 * sd, 0.5 + 1.6449 * sd
    xs = np.linspace(lo, hi, 101)[:, None]
    sup_err = float(np.max(np.abs(corr.field(xs)[:, 0] - 1.0)))

    profile = residual_energy_profile(
        ens, spec_p, mixed_basis([-4.0], [5.0], 14), window=8, stride=4,
        t_min_frac=0.15)
    reference = _reference_drift_run()["estimate"].value
    integral_ok = abs(profile.integral - reference) <= 0.10 * reference
    slice_ok = sup_err <= 0.05
    ok = slice_ok and integral_ok
    record(7, ok, f"slice sup-error={sup_err:.3f} (<=0.05 on central 90%), "
                   f"integral={profile.integral:.4f} vs {reference:.4f} "
                   f"within 10%")
    assert slice_ok
    assert integral_ok


def test_criterion_08_histogram_monotone_and_bounded(record):
    rng = np.random.Generator(np.random.Philox(key=(8, 0)))
    samples = 1.0 + rng.standard_normal((100_000, 1))
    provider = gaussian_cell_probabilities(
        GaussianLaw(np.zeros(1), np.eye(1)))
    part = SpacePartition.regular(-6.0, 7.0, 16)
    values, reports = [], []
    for _ in range(4):
        values.append(histogram_kl(samples, provider, part))
        reports.append(histogram_report(samples, provider, part))
        part = part.refine()
    monotone = bool(np.all(np.diff(values) >= -1e-9))
    bounded = values[-1] <= MEAN_SHIFT_KL + 3 * reports[-1].std_error
    left = np.linspace(-4, -1, 60)[:, None]
    right = np.linspace(1, 4, 60)[:, None]
    disjoint = histogram_kl(left, empirical_cell_probabilities(right),
                            SpacePartition.regular(-5.0, 5.0, 32))
    ok = monotone and bounded and disjoint == math.inf
    record(8, ok, f"levels={[f'{v:.4f}' for v in values]}, monotone, "
                   f"bounded by 0.5+3SE, disjoint-support={disjoint}")
    assert monotone
    assert bounded
    assert disjoint == math.inf


def test_criterion_09_chain_decomposition_identity(record):
    grid = TimeGrid.uniform(1.0, 128)
    part = Partition.from_times(grid, [0.0, 0.5, 1.0])
    init = InitialLaw.point_mass([0.0])
    est = chain_estimate(make_model("ou", {"gamma": 1.0}),
                         make_model("brownian", {}), init, init, part,
                         n_paths=4000, seed=0, grid=grid)
    total = est.initial_term
    for term in est.contributions:
        total = total + term.value
    identity = est.total.value == total
    nonneg = all(t.value >= -3 * t.std_error for t in est.contributions)
    ok = identity and nonneg and len(est.contributions) == 2
    record(9, ok, f"total={est.total.value:.6f} equals "
                   f"initial+{len(est.contributions)} terms exactly; "
                   f"terms nonnegative within 3SE")
    assert identity
    assert nonneg


def test_criterion_10_rate_trend_to_quadratic(record):
    spec = make_model("brownian", {})
    init = InitialLaw.point_mass([0.0])
    grid = TimeGrid.uniform(1.0, 16)
    exp = RateExperiment("terminal", 1.0, (5, 10, 20, 40), trials=10_000,
                         seed=0)
    t0 = time.perf_counter()
    table = empirical_rate(spec, init, grid, exp)
    secs = time.perf_counter() - t0
    populated = [r for r in table.rows if not r.zero_count]
    decreasing = all(
        lo.rate <= hi.rate + 2 * math.hypot(lo.std_error, hi.std_error)
        for hi, lo in zip(populated, populated[1:]))
    above = all(r.rate >= 0.5 - 2 * r.std_error for r in populated)
    final = table.rows[-1]
    in_band = (not final.zero_count
               and abs(final.rate - 0.5) <= 0.25 * 0.5)
    ok = secs < 60 and decreasing and above and in_band
    rates = [f"n={r.n}:{r.rate if r.zero_count else round(r.rate, 3)}"
             for r in table.rows]
    record(10, ok,
            f"{', '.join(rates)}; {secs:.1f}s; the n=40 row needs "
            f"P~1.3e-10 so 10^4 trials cannot populate it: the empirical "
            f"rate is +inf (flagged zero-count), not within 25% of 0.5")
    assert secs < 60
    assert decreasing
    assert above
    # honest red: at this trial budget the finest row has zero exceedances,
    # so its rate is +inf and the 25% band cannot be met
    assert in_band


def test_criterion_11_determinism_across_threads(record, tmp_path):
    cfg = {
        "model_mu": {"id": "ou", "params": {"gamma": 1.0}},
        "model_P": {"id": "brownian", "params": {}},
        "initial_mu": {"kind": "point", "point": [0.0]},
        "initial_P": {"kind": "point", "point": [0.0]},
        "grid": {"horizon": 1.0, "steps": 128},
        "estimator": "girsanov",
        "n_paths": 2000,
        "seed": 0,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    bodies = []
    for threads in (1, 4, 1):
        out = tmp_path / f"t{len(bodies)}.json"
        code = main(["run", "--config", str(cfg_path), "--out", str(out),
                     "--threads", str(threads)])
        assert code == 0
        with open(out, "r", encoding="utf-8") as fh:
            body = json.load(fh)
        body.pop("wall_clock_s")
        bodies.append(json.dumps(body, sort_keys=True))
    ok = bodies[0] == bodies[1] == bodies[2]
    record(11, ok, "report bodies byte-identical for --threads 1/4 and "
                    "a same-seed rerun (wall clock excluded)")
    assert ok
