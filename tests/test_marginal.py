"""Fixed-time marginal comparisons: closed form, histogram, variational."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathkl import (
    ArgumentError,
    CapabilityError,
    ConvergenceError,
    GaussianLaw,
    InitialLaw,
    OptimizerConfig,
    PositiveDefinitenessError,
    SpacePartition,
    dv_estimate,
    empirical_cell_probabilities,
    euler_step_law,
    gaussian_cell_probabilities,
    gaussian_kl,
    histogram_kl,
    histogram_report,
    initial_entropy,
    make_model,
    mixed_basis,
)
from pathkl.cli import main
from pathkl.diffusion import path_generator
from pathkl.marginal import _kl_cells, default_dv_basis
from pathkl.variational import FunctionBasis

MEAN_SHIFT_KL = 0.5                            # N(1,1) vs N(0,1)
VAR_DOUBLE_KL = 0.15342640972002733            # N(0,2) vs N(0,1)
VAR_QUAD_KL = 0.8068528194400547               # N(0,4) vs N(0,1)


def _g(mean, var):
    return GaussianLaw(np.atleast_1d(np.asarray(mean, dtype=float)),
                       np.atleast_2d(np.asarray(var, dtype=float)))


# ---------------------------------------------------------------------------
# Gaussian closed form


def test_gaussian_kl_identical_laws():
    assert gaussian_kl(_g(0.3, 1.7), _g(0.3, 1.7)) == 0.0


def test_gaussian_kl_mean_shift():
    assert gaussian_kl(_g(1.0, 1.0), _g(0.0, 1.0)) == pytest.approx(
        MEAN_SHIFT_KL, abs=1e-15)


def test_gaussian_kl_variance_mismatch():
    assert gaussian_kl(_g(0.0, 2.0), _g(0.0, 1.0)) == pytest.approx(
        VAR_DOUBLE_KL, abs=1e-15)
    assert gaussian_kl(_g(0.0, 4.0), _g(0.0, 1.0)) == pytest.approx(
        VAR_QUAD_KL, abs=1e-15)


def test_gaussian_kl_singular_reference():
    with pytest.raises(PositiveDefinitenessError):
        gaussian_kl(_g(0.0, 1.0), _g(0.0, 0.0))


def test_gaussian_kl_degenerate_argument():
    assert gaussian_kl(_g(0.0, 0.0), _g(0.0, 1.0)) == math.inf


def test_gaussian_kl_dimension_mismatch():
    p = GaussianLaw(np.zeros(2), np.eye(2))
    with pytest.raises(ArgumentError):
        gaussian_kl(p, _g(0.0, 1.0))


def test_gaussian_kl_multivariate():
    p = GaussianLaw(np.array([1.0, 0.0]), np.diag([1.0, 4.0]))
    q = GaussianLaw(np.zeros(2), np.eye(2))
    expect = MEAN_SHIFT_KL + VAR_QUAD_KL
    assert gaussian_kl(p, q) == pytest.approx(expect, abs=1e-12)


@settings(max_examples=50)
@given(st.floats(-3, 3), st.floats(0.1, 5), st.floats(-3, 3),
       st.floats(0.1, 5))
def test_gaussian_kl_nonnegative(m1, v1, m2, v2):
    assert gaussian_kl(_g(m1, v1), _g(m2, v2)) >= 0.0


PSD = "^covariance must be PSD"


@pytest.mark.parametrize("use,message", [
    (lambda: gaussian_kl(GaussianLaw(np.zeros(2), -np.eye(2)),
                         GaussianLaw(np.zeros(2), np.eye(2))), PSD),
    (lambda: gaussian_kl(_g(0.0, -1.0), _g(0.0, 1.0)), PSD),
    (lambda: histogram_report(np.zeros(10),
                              gaussian_cell_probabilities(_g(0.0, -1.0)),
                              SpacePartition.regular(-4, 4, 16)), PSD),
    (lambda: _g(0.0, -1.0).draw(np.random.default_rng(0), 3), PSD),
    (lambda: _g(0.0, np.nan), "^covariance must be a finite number"),
    (lambda: GaussianLaw(np.zeros((1, 2)), np.eye(1)), "^mean must be"),
], ids=["kl-2d", "kl-1d", "cells", "draw", "nan", "matrix-mean"])
def test_gaussian_law_refuses_what_initial_laws_refuse(use, message):
    # these returned a KL of 0 (clamped from -2), +inf, a NaN histogram
    # value, three zeros and "covariance must be symmetric"; a (1, 2) mean
    # with a 1 x 1 covariance was a law
    with pytest.raises(ArgumentError, match=message):
        use()


def test_gaussian_kl_zero_only_at_equality():
    base = _g(0.0, 1.0)
    assert gaussian_kl(_g(1e-4, 1.0), base) > 0.0
    assert gaussian_kl(_g(0.0, 1.0 + 1e-4), base) > 0.0


# ---------------------------------------------------------------------------
# cell-sum convention


@settings(max_examples=50)
@given(st.integers(0, 2 ** 32 - 1))
def test_cell_sum_nonnegative(seed):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(6))
    q = rng.dirichlet(np.ones(6))
    assert _kl_cells(p, q) >= 0.0


def test_cell_sum_conventions():
    assert _kl_cells(np.array([0.0, 1.0]), np.array([0.0, 1.0])) == 0.0
    assert _kl_cells(np.array([0.5, 0.5]),
                     np.array([0.0, 1.0])) == math.inf
    # reference mass on a mu-null cell costs nothing
    assert _kl_cells(np.array([1.0, 0.0]),
                     np.array([0.5, 0.5])) == pytest.approx(math.log(2))


# ---------------------------------------------------------------------------
# space partitions


def test_partition_assign_and_remainder():
    part = SpacePartition.regular(0.0, 1.0, 4)
    idx = part.assign(np.array([[0.1], [0.3], [0.99], [1.0], [-0.2], [1.5]]))
    assert list(idx) == [0, 1, 3, 3, 4, 4]


def test_partition_refine_doubles_cells():
    part = SpacePartition.regular(-1.0, 1.0, 8)
    fine = part.refine()
    assert fine.n_cells == 16
    assert fine.level == part.level + 1
    # refinement preserves the original edges
    assert set(np.round(part.axis_edges[0], 12)) <= set(
        np.round(fine.axis_edges[0], 12))


def test_partition_2d_product():
    part = SpacePartition.regular([-1.0, 0.0], [1.0, 2.0], 2, dim=2)
    assert part.n_cells == 4
    idx = part.assign(np.array([[-0.5, 0.5], [0.5, 1.5], [3.0, 0.5]]))
    assert list(idx) == [0, 3, 4]


def test_partition_validation():
    with pytest.raises(ArgumentError):
        SpacePartition.regular(0.0, 1.0, 0)
    with pytest.raises(ArgumentError):
        SpacePartition((np.array([1.0, 0.0]),))
    part = SpacePartition.regular(0.0, 1.0, 4)
    with pytest.raises(ArgumentError):
        part.assign(np.zeros((3, 2)))


def test_gaussian_provider_sums_to_one():
    part = SpacePartition.regular(-3.0, 3.0, 10)
    probs = gaussian_cell_probabilities(_g(0.0, 1.0))(part)
    assert probs.shape == (11,)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert probs[-1] == pytest.approx(2 * (1 - 0.9986501019683699), rel=1e-6)


def test_gaussian_provider_rejects_coupled_covariance():
    law = GaussianLaw(np.zeros(2), np.array([[1.0, 0.5], [0.5, 1.0]]))
    with pytest.raises(CapabilityError):
        gaussian_cell_probabilities(law)


@pytest.mark.parametrize("scale", [1.0, 1e-9])
def test_gaussian_provider_diagonal_test_is_relative(scale):
    # an absolute 1e-8 on the off-diagonal passed this coupled law as
    # diagonal at scale 1e-9, and its cells were factored over the axes
    law = GaussianLaw(np.zeros(2), scale * np.array([[1.0, 0.9],
                                                     [0.9, 1.0]]))
    with pytest.raises(CapabilityError):
        gaussian_cell_probabilities(law)
    diagonal = GaussianLaw(np.zeros(2), scale * np.diag([1.0, 0.5]))
    part = SpacePartition.regular(-1.0, 1.0, 4, dim=2)
    probs = gaussian_cell_probabilities(diagonal)(part)
    assert probs.sum() == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# histogram estimator


def test_histogram_same_samples_zero():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(500, 1))
    part = SpacePartition.regular(-5.0, 5.0, 32)
    assert histogram_kl(x, empirical_cell_probabilities(x), part) == 0.0


def test_histogram_disjoint_support_infinite():
    part = SpacePartition.regular(-5.0, 5.0, 32)
    left = np.linspace(-4, -1, 50)[:, None]
    right = np.linspace(1, 4, 50)[:, None]
    val = histogram_kl(left, empirical_cell_probabilities(right), part)
    assert val == math.inf
    rep = histogram_report(left, empirical_cell_probabilities(right), part)
    assert rep.value == math.inf


def test_histogram_underestimates_gaussian_pair():
    rng = np.random.default_rng(42)
    x = 1.0 + rng.normal(size=(100_000, 1))
    part = SpacePartition.regular(-6.0, 7.0, 64)
    rep = histogram_report(x, gaussian_cell_probabilities(_g(0.0, 1.0)),
                           part)
    assert 0.0 < rep.value <= MEAN_SHIFT_KL + 3 * rep.std_error
    assert rep.value == pytest.approx(MEAN_SHIFT_KL, abs=0.05)


def test_histogram_clamp_distance_recorded():
    # a reference provider whose cell masses sum above one puts the plug-in
    # sum below zero: clamped, with the distance kept
    x = np.random.default_rng(3).normal(size=(1000, 1))
    part = SpacePartition.regular(-4.0, 4.0, 16)
    rep = histogram_report(x, lambda p: p.mu_probabilities(x) * (1 + 1e-9),
                           part)
    assert rep.value == 0.0
    assert rep.diagnostics["clamped_from"] == pytest.approx(-1e-9, rel=1e-6)
    same = histogram_report(x, empirical_cell_probabilities(x), part)
    assert same.value == 0.0
    assert "clamped_from" not in same.diagnostics


@pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
def test_histogram_rejects_wrong_cell_count(extra):
    # the report used to fail with an IndexError on a short provider
    x = np.random.default_rng(3).normal(size=(100, 1))
    part = SpacePartition.regular(-4.0, 4.0, 16)
    cells = part.mu_probabilities(x).shape[0]

    def provider(partition):
        return np.full(cells + extra, 1.0 / (cells + extra))

    with pytest.raises(ArgumentError, match="wrong cell count"):
        histogram_kl(x, provider, part)
    with pytest.raises(ArgumentError, match="wrong cell count"):
        histogram_report(x, provider, part)


def test_histogram_monotone_under_refinement():
    rng = np.random.default_rng(7)
    x = 1.0 + rng.normal(size=(100_000, 1))
    provider = gaussian_cell_probabilities(_g(0.0, 1.0))
    part = SpacePartition.regular(-6.0, 7.0, 16)
    values = []
    for _ in range(4):
        values.append(histogram_kl(x, provider, part))
        part = part.refine()
    diffs = np.diff(values)
    assert np.all(diffs >= -1e-9)
    assert values[-1] <= MEAN_SHIFT_KL + 0.02


def test_histogram_provider_shape_check():
    part = SpacePartition.regular(-1.0, 1.0, 4)
    with pytest.raises(ArgumentError):
        histogram_kl(np.zeros((5, 1)), lambda p: np.ones(3), part)


# ---------------------------------------------------------------------------
# variational estimator


def _wide_basis():
    return mixed_basis([-8.0], [8.0], n_bumps=5, bump_scale=5.0,
                       degrees=[0, 1, 2], bump_span=(-3.0, 3.0))


def test_dv_identical_samples_zero():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(400, 1))
    est = dv_estimate(x, x, _wide_basis())
    assert abs(est.value) <= 1e-12
    assert est.diagnostics["convergence"] == "gradient"


def test_dv_mean_shift():
    rng = np.random.default_rng(42)
    mu = 1.0 + rng.normal(size=(10_000, 1))
    nu = rng.normal(size=(10_000, 1))
    est = dv_estimate(mu, nu, _wide_basis())
    assert est.value == pytest.approx(MEAN_SHIFT_KL, abs=0.05)
    assert est.value <= MEAN_SHIFT_KL + 3 * est.std_error


def test_dv_variance_mismatch():
    rng = np.random.default_rng(42)
    mu = 2.0 * rng.normal(size=(10_000, 1))
    nu = rng.normal(size=(10_000, 1))
    est = dv_estimate(mu, nu, _wide_basis())
    assert est.value == pytest.approx(VAR_QUAD_KL, rel=0.10)
    assert est.value <= VAR_QUAD_KL + 3 * est.std_error


def test_dv_is_lower_bound():
    # restricted supremum can only undershoot the true divergence
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        mu = 1.0 + rng.normal(size=(4000, 1))
        nu = rng.normal(size=(4000, 1))
        est = dv_estimate(mu, nu, _wide_basis())
        assert est.value <= MEAN_SHIFT_KL + 3 * est.std_error


def test_dv_empty_samples():
    with pytest.raises(ArgumentError):
        dv_estimate(np.zeros((0, 1)), np.zeros((5, 1)), _wide_basis())
    with pytest.raises(ArgumentError):
        dv_estimate(np.zeros((5, 1)), np.zeros((0, 1)), _wide_basis())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("side", ["samples_mu", "samples_nu"])
def test_dv_refuses_nonfinite_samples(side, bad):
    # one such draw among 500 used to give value nan, convergence "stalled"
    rng = np.random.default_rng(3)
    samples = {"samples_mu": rng.normal(size=(500, 1)),
               "samples_nu": rng.normal(size=(500, 1))}
    samples[side][17, 0] = bad
    for basis in (None, _wide_basis()):
        with pytest.raises(ArgumentError, match=side):
            dv_estimate(**samples, basis=basis)


def test_dv_convergence_error_carries_best_value():
    rng = np.random.default_rng(0)
    mu = 2.0 * rng.normal(size=(4000, 1))
    nu = rng.normal(size=(4000, 1))
    opt = OptimizerConfig(max_iter=5, plateau_rtol=1e-6)
    with pytest.raises(ConvergenceError) as exc:
        dv_estimate(mu, nu, _wide_basis(), opt)
    assert exc.value.best_value is not None
    assert 0.0 < exc.value.best_value < VAR_QUAD_KL
    assert exc.value.diagnostics["iterations"] == 5


def test_dv_tracks_gaussian_kl_of_euler_step_laws():
    # the two one-step Euler laws from x = 0.3 over dt = 0.5, drift 1
    # against none: N(0.8, 0.5) vs N(0.3, 0.5), KL 0.25 in closed form
    law_mu = euler_step_law(make_model("constant_drift", {"theta": 1.0}),
                            0.0, [0.3], 0.5)
    law_p = euler_step_law(make_model("brownian", {}), 0.0, [0.3], 0.5)
    exact = gaussian_kl(law_mu, law_p)
    assert exact == pytest.approx(0.25, abs=1e-15)
    gen = path_generator(0, 0)
    est = dv_estimate(law_mu.draw(gen, 10_000), law_p.draw(gen, 10_000))
    assert est.value == pytest.approx(exact, abs=max(0.08, 4 * est.std_error))


def test_dv_default_basis_needs_one_dimension():
    x = np.zeros((10, 2))
    with pytest.raises(ArgumentError, match="one-dimensional"):
        dv_estimate(x, x)


def test_dv_default_basis_needs_a_pooled_range():
    # used to fail with "domain box must have positive extent", about a box
    # the caller never set
    x = np.zeros((100, 1))
    with pytest.raises(ArgumentError,
                       match="samples_mu and samples_nu have zero extent"
                             r".*pass a basis"):
        dv_estimate(x, x)
    assert dv_estimate(x, x, _wide_basis()).value == 0.0


@pytest.fixture
def dv_evaluations(monkeypatch):
    """(basis, points) of every basis evaluation, in call order."""
    calls = []
    original = FunctionBasis.value_matrix

    def record(self, x):
        calls.append((self, np.asarray(x)))
        return original(self, x)

    monkeypatch.setattr(FunctionBasis, "value_matrix", record)
    return calls


def _assert_pooled_default(calls):
    """Each dv_estimate call evaluates one basis on mu's, then nu's samples;
    that basis is default_dv_basis over the two together."""
    assert calls and len(calls) % 2 == 0
    for (basis, x_mu), (same, x_nu) in zip(calls[0::2], calls[1::2]):
        assert same is basis
        pooled = np.concatenate([x_mu, x_nu])
        want = default_dv_basis(float(pooled.min()), float(pooled.max()))
        assert basis.describe() == want.describe()
        assert np.array_equal(basis.lo, want.lo)
        assert np.array_equal(basis.hi, want.hi)


def test_every_dv_route_sizes_the_default_basis_alike(tmp_path,
                                                      dv_evaluations):
    # the dv-marginal CLI and the initial term
    cfg = {
        "model_mu": {"id": "ou", "params": {"gamma": 1.0}},
        "model_P": {"id": "brownian", "params": {}},
        "initial_mu": {"kind": "point", "point": [0.0]},
        "initial_P": {"kind": "point", "point": [0.0]},
        "grid": {"horizon": 1.0, "steps": 16},
        "estimator": "dv-marginal",
        "estimator_params": {"n_samples": 300, "max_iter": 3,
                             "plateau_rtol": 1e9},
        "seed": 3,
    }
    path = tmp_path / "dv.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "report.json"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    _assert_pooled_default(dv_evaluations)
    reported = json.loads(out.read_text())["results"]["basis"]
    assert reported == dv_evaluations[0][0].describe()

    dv_evaluations.clear()
    samples = 1.0 + np.random.default_rng(5).normal(size=(500, 1))
    initial_entropy(InitialLaw.empirical(samples),
                    InitialLaw.gaussian([0.0], [[1.0]]))
    assert len(dv_evaluations) == 2
    _assert_pooled_default(dv_evaluations)


# ---------------------------------------------------------------------------
# initial-law dispatch


def test_initial_gaussian_pair_closed_form():
    est = initial_entropy(InitialLaw.gaussian([1.0], [[1.0]]),
                          InitialLaw.gaussian([0.0], [[1.0]]))
    assert est.value == pytest.approx(MEAN_SHIFT_KL, abs=1e-15)
    assert est.std_error == 0.0
    assert est.method == "gaussian-closed-form"


def test_initial_gaussian_clamp_distance_recorded():
    # equal 3-d laws whose variance part rounds to -2.2e-16
    a = np.random.default_rng(0).normal(size=(3, 3))
    cov = a @ a.T + 0.1 * np.eye(3)
    mean = np.random.default_rng(0).normal(size=3)
    law = InitialLaw.gaussian(mean, cov)
    est = initial_entropy(law, law)
    assert est.value == 0.0
    assert -1e-15 < est.diagnostics["clamped_from"] < 0.0
    diagnostics = {}
    assert gaussian_kl(law.gaussian_law, law.gaussian_law,
                       diagnostics=diagnostics) == 0.0
    assert diagnostics == est.diagnostics
    shifted = initial_entropy(InitialLaw.gaussian(mean + 0.1, cov), law)
    assert shifted.value > 0.0
    assert "clamped_from" not in shifted.diagnostics


def test_initial_point_pairs():
    same = initial_entropy(InitialLaw.point_mass([0.5]),
                           InitialLaw.point_mass([0.5]))
    assert same.value == 0.0
    diff = initial_entropy(InitialLaw.point_mass([0.5]),
                           InitialLaw.point_mass([0.6]))
    assert diff.value == math.inf


def test_initial_point_vs_gaussian_singular():
    est = initial_entropy(InitialLaw.point_mass([0.0]),
                          InitialLaw.gaussian([0.0], [[1.0]]))
    assert est.value == math.inf


def test_initial_empirical_vs_gaussian_dv():
    rng = np.random.default_rng(5)
    samples = 1.0 + rng.normal(size=(4000, 1))
    est = initial_entropy(InitialLaw.empirical(samples),
                          InitialLaw.gaussian([0.0], [[1.0]]))
    assert est.diagnostics["initial_route"] == "empirical-vs-gaussian-dv"
    assert est.value == pytest.approx(MEAN_SHIFT_KL, abs=0.1)


def test_initial_unsupported_pairs():
    emp = InitialLaw.empirical(np.zeros((10, 1)))
    gau = InitialLaw.gaussian([0.0], [[1.0]])
    pt = InitialLaw.point_mass([0.0])
    for mu, P in ((gau, pt), (emp, pt), (gau, emp), (emp, emp)):
        with pytest.raises(CapabilityError):
            initial_entropy(mu, P)


def test_initial_dimension_mismatch():
    with pytest.raises(ArgumentError):
        initial_entropy(InitialLaw.point_mass([0.0]),
                        InitialLaw.point_mass([0.0, 0.0]))
