"""Closed-form path entropy and the analytic scenario catalogue."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from pathkl import (
    ArgumentError,
    CapabilityError,
    DiffusionSpec,
    InitialLaw,
    ModelEvaluationError,
    PositiveDefinitenessError,
    ScenarioOracle,
    TimeGrid,
    analytic_entropy,
    girsanov_entropy,
    make_model,
    sample_paths,
    scenario_ids,
)
from pathkl import girsanov
from pathkl.diffusion import BLOCK_PATHS, PairCoefficients, PathEnsemble

OU_VS_BM_G1 = 0.1419169104045766    # gamma=1, T=1
OU_VS_BM_G2 = 0.3772894548610918    # gamma=2, T=1


A_FULL = [[1.0, 0.3], [0.3, 0.5]]


def _paths(model_id, params, steps=256, n=2000, seed=0, horizon=1.0,
           init=None):
    grid = TimeGrid.uniform(horizon, steps)
    spec = make_model(model_id, params)
    init = init or InitialLaw.point_mass([0.0])
    return spec, init, sample_paths(spec, init, grid, n, seed)


# ---------------------------------------------------------------------------
# estimator


def test_same_law_is_zero():
    spec, init, ens = _paths("ou", {"gamma": 1.0}, n=300)
    est = girsanov_entropy(spec, spec, init, init, ens)
    assert est.value == 0.0
    assert est.std_error == 0.0


def test_constant_drift_exact_half():
    # constant integrand: the trapezoidal rule and the expectation are exact
    spec, init, ens = _paths("constant_drift", {"theta": 1.0}, n=100)
    est = girsanov_entropy(spec, make_model("brownian", {}), init, init,
                           ens)
    assert est.value == pytest.approx(0.5, abs=1e-12)
    assert est.std_error <= 1e-13


def test_ou_vs_brownian_monte_carlo():
    spec, init, ens = _paths("ou", {"gamma": 1.0}, steps=512, n=4000,
                             seed=1)
    est = girsanov_entropy(spec, make_model("brownian", {}), init, init,
                           ens)
    assert est.value == pytest.approx(OU_VS_BM_G1, rel=0.05)
    assert est.value == pytest.approx(OU_VS_BM_G1,
                                      abs=max(3 * est.std_error, 0.004))


def test_diffusion_mismatch_short_circuits():
    spec, init, ens = _paths("brownian", {"a": 2.0}, n=50)
    est = girsanov_entropy(spec, make_model("brownian", {"a": 1.0}), init,
                           init, ens)
    assert est.value == math.inf
    assert est.diagnostics["reason"] == "diffusion mismatch"
    assert not est.diagnostics["match_report"].passed


def test_singular_initial_pair():
    spec, _, ens = _paths("brownian", {}, n=50)
    est = girsanov_entropy(spec, spec, InitialLaw.point_mass([0.0]),
                           InitialLaw.gaussian([0.0], [[1.0]]), ens)
    assert est.value == math.inf


def test_diagnostics_decompose_value():
    spec, init, ens = _paths("ou", {"gamma": 1.0}, n=500, seed=2)
    est = girsanov_entropy(spec, make_model("brownian", {}), init, init,
                           ens)
    d = est.diagnostics
    assert d["n_paths"] == 500
    assert est.value == pytest.approx(d["initial_term"] + d["drift_term"],
                                      abs=1e-15)


def test_clamp_distance_recorded():
    # the drift term is nonnegative for a positive definite reference, so an
    # estimate needs no clamp; the one way below zero was a constant matrix
    # that is not positive definite (a = -1), which used to come back as 0.0
    # clamped from -0.5 and now raises
    spec, init, ens = _paths("ou", {"gamma": 1.0}, n=50)
    est = girsanov_entropy(spec, make_model("brownian", {}), init, init, ens)
    assert "clamped_from" not in est.diagnostics
    neg = np.array([[-1.0]])

    def flat(theta):
        return DiffusionSpec(
            dim=1, drift=lambda t, x: np.full_like(x, theta),
            diffusion_matrix=lambda t, x: np.broadcast_to(
                neg, x.shape[:-1] + (1, 1)),
            constant_matrix=neg)

    with pytest.raises(PositiveDefinitenessError):
        girsanov_entropy(flat(1.0), flat(0.0), init, init, ens)


def test_drift_scaling_quadruples():
    out = {}
    for theta in (1.0, 2.0):
        spec, init, ens = _paths("constant_drift", {"theta": theta}, n=50,
                                 seed=3)
        out[theta] = girsanov_entropy(spec, make_model("brownian", {}),
                                      init, init, ens).value
    assert out[2.0] == pytest.approx(4 * out[1.0], rel=1e-12)


# ---------------------------------------------------------------------------
# analytic catalogue


def test_scenario_ids_sorted():
    ids = scenario_ids()
    assert ids == sorted(ids)
    assert "constant_drift_vs_brownian" in ids
    assert "ou_vs_brownian" in ids
    assert "linear_vs_linear" in ids


def test_constant_drift_oracle_values():
    assert analytic_entropy(ScenarioOracle(
        "constant_drift_vs_brownian",
        {"theta": 2.0, "horizon": 0.5})) == pytest.approx(1.0, abs=1e-15)
    assert analytic_entropy(ScenarioOracle(
        "constant_drift_vs_brownian", {"theta": 0.0})) == 0.0
    assert analytic_entropy(ScenarioOracle(
        "constant_drift_vs_brownian",
        {"theta": [1.0, 1.0], "a": [[1.0, 0.0], [0.0, 4.0]],
         "horizon": 2.0})) == pytest.approx(1.25, abs=1e-14)


def test_ou_oracle_values():
    assert analytic_entropy(ScenarioOracle(
        "ou_vs_brownian", {"gamma": 1.0})) == pytest.approx(
        OU_VS_BM_G1, abs=1e-16)
    assert analytic_entropy(ScenarioOracle(
        "ou_vs_brownian", {"gamma": 2.0})) == pytest.approx(
        OU_VS_BM_G2, abs=1e-16)


def test_oracle_validation():
    with pytest.raises(CapabilityError):
        analytic_entropy(ScenarioOracle("double_well_vs_brownian", {}))
    with pytest.raises(ArgumentError):
        analytic_entropy(ScenarioOracle("ou_vs_brownian", {"gamma": 0.0}))
    with pytest.raises(ArgumentError):
        analytic_entropy(ScenarioOracle("linear_vs_linear", {"a": -1.0}))


@pytest.mark.parametrize("scenario,params,message", [
    ("ou_vs_brownian", {"gama": 2.0}, r"unknown params .*\['gama'\]"),
    ("ou_vs_brownian", {"gamma": True}, "param 'gamma' must be a number"),
    ("ou_vs_brownian", {"gamma": "2"}, "param 'gamma' must be a number"),
    ("ou_vs_brownian", {"horizon": 0.0}, "horizon must be positive"),
    ("constant_drift_vs_brownian",
     {"a": [[1.0, 0.0], [0.0, -1.0]], "theta": [1.0, 1.0]},
     "a must be positive"),
    ("constant_drift_vs_brownian", {"theta": np.inf}, "must be finite"),
    ("constant_drift_vs_brownian",
     {"theta": [1, 1, 1], "a": [[1, 0], [0, 1]]},
     r"'theta' and 'a' do not fit"),
    ("linear_vs_linear", {"horizon": -1}, "horizon must be positive"),
    ("linear_vs_linear", {"x0": np.nan}, "param 'x0' must be finite"),
], ids=["typo", "bool", "string", "zero-horizon", "indefinite-a",
        "inf-theta", "theta-a-dimensions", "negative-horizon", "nan-x0"])
def test_oracle_params_are_checked(scenario, params, message):
    # each used to return a value: the gamma = 1 one for the typo, gamma 1
    # for True and 2 for "2", -0.5 for a negative horizon
    with pytest.raises(ArgumentError, match=message):
        analytic_entropy(ScenarioOracle(scenario, params))


def test_ou_oracle_is_linear_special_case():
    for gamma, horizon in ((1.0, 1.0), (2.0, 1.0), (0.7, 3.0)):
        ou = analytic_entropy(ScenarioOracle(
            "ou_vs_brownian", {"gamma": gamma, "horizon": horizon}))
        lin = analytic_entropy(ScenarioOracle(
            "linear_vs_linear",
            {"a1": -gamma, "b1": 0.0, "a2": 0.0, "b2": 0.0,
             "horizon": horizon}))
        assert ou == pytest.approx(lin, rel=1e-14)


def _gap_energy_quadrature(a1, b1, a2, b2, a, x0, horizon):
    """Defining integral by direct quadrature of the moment flow."""

    def mean(t):
        if a1 == 0.0:
            return x0 + b1 * t
        return (x0 + b1 / a1) * math.exp(a1 * t) - b1 / a1

    def var(t):
        if a1 == 0.0:
            return a * t
        return a * (math.exp(2 * a1 * t) - 1.0) / (2 * a1)

    d_a, d_b = a1 - a2, b1 - b2

    def integrand(t):
        m, v = mean(t), var(t)
        return ((d_a * m + d_b) ** 2 + d_a ** 2 * v) / (2 * a)

    val, err = quad(integrand, 0.0, horizon, epsabs=1e-12, epsrel=1e-12)
    assert err < 1e-10
    return val


@pytest.mark.parametrize("params", [
    {"a1": -1.0, "b1": 0.0, "a2": 0.0, "b2": 0.0, "a": 1.0, "x0": 0.0,
     "horizon": 1.0},
    {"a1": 0.8, "b1": -0.3, "a2": -0.2, "b2": 0.5, "a": 2.0, "x0": 1.5,
     "horizon": 2.0},
    {"a1": 0.0, "b1": 1.0, "a2": 0.0, "b2": 0.0, "a": 1.0, "x0": 0.0,
     "horizon": 1.0},
    {"a1": 0.0, "b1": 0.7, "a2": 0.0, "b2": -0.4, "a": 0.5, "x0": 2.0,
     "horizon": 3.0},
    {"a1": -2.5, "b1": 1.2, "a2": 1.1, "b2": 0.3, "a": 1.7, "x0": -0.8,
     "horizon": 1.5},
])
def test_linear_oracle_matches_quadrature(params):
    closed = analytic_entropy(ScenarioOracle("linear_vs_linear", params))
    direct = _gap_energy_quadrature(**params)
    assert closed == pytest.approx(direct, abs=1e-8)


def test_ou_oracle_matches_quadrature():
    for gamma, horizon in ((1.0, 1.0), (2.0, 1.0), (0.3, 4.0)):
        closed = analytic_entropy(ScenarioOracle(
            "ou_vs_brownian", {"gamma": gamma, "horizon": horizon}))

        def integrand(t):
            v = (1.0 - math.exp(-2 * gamma * t)) / (2 * gamma)
            return 0.5 * gamma ** 2 * v

        direct, err = quad(integrand, 0.0, horizon, epsabs=1e-12)
        assert closed == pytest.approx(direct, abs=1e-8)


def test_constant_oracle_matches_quadrature():
    theta, a, horizon = 1.3, 2.2, 1.7
    closed = analytic_entropy(ScenarioOracle(
        "constant_drift_vs_brownian",
        {"theta": theta, "a": a, "horizon": horizon}))
    direct, _ = quad(lambda t: theta ** 2 / (2 * a), 0.0, horizon)
    assert closed == pytest.approx(direct, abs=1e-8)


def test_time_additivity():
    def value(horizon):
        return analytic_entropy(ScenarioOracle(
            "constant_drift_vs_brownian",
            {"theta": 1.0, "horizon": horizon}))

    assert value(1.0) == value(0.25) + value(0.75)
    total = analytic_entropy(ScenarioOracle(
        "ou_vs_brownian", {"gamma": 1.0, "horizon": 2.0}))
    # the OU bridge is not time homogeneous from a point start, so only the
    # constant-drift scenario splits exactly; check the drift-energy split
    # via quadrature instead
    first, _ = quad(lambda t: 0.25 * (1 - math.exp(-2 * t)), 0.0, 1.0)
    second, _ = quad(lambda t: 0.25 * (1 - math.exp(-2 * t)), 1.0, 2.0)
    assert total == pytest.approx(first + second, abs=1e-10)


# ---------------------------------------------------------------------------
# constant diffusions: evaluated once per run vs at every (path, slice)


@pytest.mark.parametrize("mu,p,dim,exact", [
    (("ou", {"gamma": 1.0, "a": 1.0}), ("brownian", {"a": 1.0}), 1, True),
    (("ou", {"gamma": 2.0, "a": 0.7}), ("brownian", {"a": 0.7}), 1, False),
    (("linear", {"A": [[-1.0, 0.4], [0.0, -0.5]], "b0": [0.2, 0.0],
                 "a": A_FULL}),
     ("brownian", {"a": A_FULL}), 2, False),
])
def test_constant_diffusion_matches_per_path(mu, p, dim, exact):
    spec_mu = make_model(*mu, dim=dim)
    spec_p = make_model(*p, dim=dim)
    init = InitialLaw.point_mass([0.3] * dim)
    ens = sample_paths(spec_mu, init, TimeGrid.uniform(1.0, 32), 300, 2)
    hoisted = girsanov_entropy(spec_mu, spec_p, init, init, ens)
    generic = girsanov_entropy(
        dataclasses.replace(spec_mu, constant_matrix=None),
        dataclasses.replace(spec_p, constant_matrix=None),
        init, init, ens)
    for key in ("value", "std_error"):
        got, want = getattr(hoisted, key), getattr(generic, key)
        if exact:
            assert got == want
        else:
            assert math.isclose(got, want, rel_tol=1e-14, abs_tol=0.0)


def test_nan_reference_diffusion_fails_loudly():
    # a NaN diffusion matrix must not pass the match check and turn into a
    # NaN entropy
    spec, init, ens = _paths("brownian", {}, steps=32, n=200, seed=5)

    def diffusion(t, x):
        return np.where(x[..., 0] > 0.5, np.nan, 1.0)[..., None, None]

    spec_p = DiffusionSpec(dim=1, drift=lambda t, x: np.zeros_like(x),
                           diffusion_matrix=diffusion)
    with pytest.raises(ModelEvaluationError):
        girsanov_entropy(spec, spec_p, init, init, ens)


def test_state_dependent_1d_pair_makes_no_lapack_call(linalg_calls):
    spec_p = make_model("sine_diffusion", {"a": 1.0, "amplitude": 0.5})
    spec_mu = dataclasses.replace(spec_p, drift=lambda t, x: -x)
    init = InitialLaw.point_mass([0.0])
    ens = sample_paths(spec_mu, init, TimeGrid.uniform(1.0, 64), 50, 3)
    est = girsanov_entropy(spec_mu, spec_p, init, init, ens)
    assert est.diagnostics["match_report"].passed
    assert math.isfinite(est.value) and est.value > 0.0
    assert linalg_calls == {"solve": 0, "slogdet": 0, "cholesky": 0}


# ---------------------------------------------------------------------------
# row blocks of the drift-gap integrand


def _whole_integrand_energy(spec_mu, spec_p, ens):
    """The drift-gap energy from the whole (n, m + 1) integrand at once."""
    pair = PairCoefficients(spec_mu, spec_p, ens)
    integrand = np.stack([pair.drift_term(k)
                          for k in range(ens.states.shape[1])], axis=1)
    return np.trapezoid(integrand, ens.grid.points, axis=1)


@pytest.mark.parametrize("pair", ["ou-bm", "linear-2d", "sine"])
def test_drift_gap_energy_rows_do_not_depend_on_blocks(pair, monkeypatch):
    # rows of 1500 paths: block boundaries at 1500 and 3000, and trapezoid
    # sub-blocks of 400 rows inside them (at 400, 800, 1200, then 1900, ...)
    if pair == "ou-bm":
        spec_mu, spec_p = make_model("ou", {}), make_model("brownian", {})
    elif pair == "linear-2d":
        spec_mu = make_model("linear", {"A": [[-1.0, 0.5], [0.2, -0.3]],
                                        "a": A_FULL}, dim=2)
        spec_p = make_model("brownian", {"a": A_FULL}, dim=2)
    else:
        spec_p = make_model("sine_diffusion", {"a": 1.0, "amplitude": 0.5})
        spec_mu = dataclasses.replace(spec_p, drift=lambda t, x: -x)
    steps, rows, sub = 15, 1500, 400
    monkeypatch.setattr(girsanov, "GAP_BLOCK_ELEMENTS", rows * (steps + 1),
                        raising=False)
    monkeypatch.setattr(girsanov, "TRAPEZOID_ELEMENTS", sub * (steps + 1),
                        raising=False)
    init = InitialLaw.point_mass([0.3] * spec_mu.dim)
    ens = sample_paths(spec_mu, init, TimeGrid.uniform(1.0, steps),
                       2 * rows + 7, 11)
    full = girsanov._drift_gap_energy(spec_mu, spec_p, ens)
    assert full.tobytes() == _whole_integrand_energy(
        spec_mu, spec_p, ens).tobytes()
    for k in (1, BLOCK_PATHS - 1, BLOCK_PATHS, BLOCK_PATHS + 1, rows - 1,
              rows, rows + 1, rows + BLOCK_PATHS + 1, 2 * rows,
              2 * rows + 1, sub - 1, sub, sub + 1, 3 * sub, 3 * sub + 1,
              rows + sub - 1, rows + sub, rows + sub + 1, 2 * rows + 5):
        head = PathEnsemble(grid=ens.grid, states=ens.states[:k], seed=11)
        got = girsanov._drift_gap_energy(spec_mu, spec_p, head)
        assert got.tobytes() == full[:k].tobytes(), k
    # and the default budgets give the same bits
    monkeypatch.undo()
    assert girsanov._drift_gap_energy(
        spec_mu, spec_p, ens).tobytes() == full.tobytes()


@pytest.mark.parametrize("late,early,kind", [
    ("nan", np.nan, "NaN"),
    ("nan", np.inf, "infinite"),
    ("inf", np.nan, "NaN"),
    ("singular", np.nan, "NaN"),
    ("singular", np.inf, "infinite"),
    ("nan-diffusion", np.inf, "infinite"),
])
def test_drift_gap_error_names_earliest_time_over_blocks(late, early, kind,
                                                        monkeypatch):
    # a fault at t = 0.75 on a path of the first row block and a non-finite
    # drift at t = 0.25 on a path of the last: the error names t = 0.25, as
    # a scan of whole columns does. A zero or NaN diffusion matrix is
    # refused where it is read; it sits on an odd path, which the match
    # check (every second path here) does not evaluate.
    monkeypatch.setattr(girsanov, "GAP_BLOCK_ELEMENTS", 1, raising=False)
    n, grid = 2 * BLOCK_PATHS + 5, TimeGrid.uniform(1.0, 200)
    t_late, t_early = float(grid.points[150]), float(grid.points[50])
    # state i of every path is its index, so the coefficients can single
    # it out
    states = np.broadcast_to(np.arange(float(n))[:, None, None],
                             (n, grid.points.shape[0], 1))
    ens = PathEnsemble(grid=grid, states=states, seed=0)

    def drift(t, x):
        gap = np.zeros_like(x)
        if late in ("nan", "inf"):
            gap[(t == t_late) & (x == 5.0)] = float(late)
        gap[(t == t_early) & (x == n - 3.0)] = early
        return gap

    def diffusion(t, x):
        bad = {"singular": 0.0, "nan-diffusion": np.nan}.get(late, 1.0)
        return np.where((t == t_late) & (x[..., 0] == 5.0), bad,
                        1.0)[..., None, None]

    spec_p = DiffusionSpec(dim=1, drift=lambda t, x: np.zeros_like(x),
                           diffusion_matrix=diffusion)
    spec_mu = dataclasses.replace(spec_p, drift=drift)
    init = InitialLaw.point_mass([0.0])
    with pytest.raises(ModelEvaluationError,
                       match=rf"is {kind} on some path at t = 0\.25$"):
        girsanov_entropy(spec_mu, spec_p, init, init, ens)


def test_girsanov_never_holds_the_whole_integrand(monkeypatch):
    # with blocks of BLOCK_PATHS rows, what girsanov_entropy allocates
    # beyond the ensemble is one block and its trapezoid temporaries, a
    # fraction of the (n, m + 1) integrand
    monkeypatch.setattr(girsanov, "GAP_BLOCK_ELEMENTS", 1, raising=False)
    spec_mu, init, ens = _paths("ou", {}, steps=256, n=16 * BLOCK_PATHS,
                                seed=4)
    spec_p = make_model("brownian", {})
    integrand_bytes = ens.states.shape[0] * ens.states.shape[1] * 8
    tracemalloc.start()
    try:
        est = girsanov_entropy(spec_mu, spec_p, init, init, ens)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert math.isfinite(est.value)
    assert peak < integrand_bytes / 3, (peak, integrand_bytes)


def test_girsanov_holds_one_block_at_the_default_budget():
    # 16384 paths x 257 grid times is twice GAP_BLOCK_ELEMENTS: what
    # girsanov_entropy allocates beyond the ensemble is one block of
    # GAP_BLOCK_ELEMENTS entries, np.trapezoid's temporaries on one
    # TRAPEZOID_ELEMENTS sub-block (about three times its input) and
    # per-column vectors of one block's rows
    spec_mu, init, ens = _paths("ou", {}, steps=256, n=16 * BLOCK_PATHS,
                                seed=4)
    spec_p = make_model("brownian", {})
    rows = girsanov.GAP_BLOCK_ELEMENTS // ens.states.shape[1]
    bound = 8 * (girsanov.GAP_BLOCK_ELEMENTS
                 + 4 * girsanov.TRAPEZOID_ELEMENTS + 8 * rows)
    tracemalloc.start()
    try:
        est = girsanov_entropy(spec_mu, spec_p, init, init, ens)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert math.isfinite(est.value)
    assert peak < bound, (peak, bound)
