"""Closed-form path entropy and the analytic scenario catalogue."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from pathkl import (
    ArgumentError,
    CapabilityError,
    InitialLaw,
    ScenarioOracle,
    TimeGrid,
    analytic_entropy,
    girsanov_entropy,
    make_model,
    sample_paths,
    scenario_ids,
)

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
    import dataclasses
    spec_mu = make_model(*mu, dim=dim)
    spec_p = make_model(*p, dim=dim)
    init = InitialLaw.point_mass([0.3] * dim)
    ens = sample_paths(spec_mu, init, TimeGrid.uniform(1.0, 32), 300, 2)
    hoisted = girsanov_entropy(spec_mu, spec_p, init, init, ens)
    generic = girsanov_entropy(
        dataclasses.replace(spec_mu, constant_diffusion=False),
        dataclasses.replace(spec_p, constant_diffusion=False),
        init, init, ens)
    for key in ("value", "std_error"):
        got, want = getattr(hoisted, key), getattr(generic, key)
        if exact:
            assert got == want
        else:
            assert math.isclose(got, want, rel_tol=1e-14, abs_tol=0.0)
