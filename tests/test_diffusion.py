"""Model evaluation, weighted geometry, and path sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathkl import (
    ArgumentError,
    BasisFunction,
    DiffusionSpec,
    InitialLaw,
    ModelEvaluationError,
    PositiveDefinitenessError,
    TimeGrid,
    apply_generator,
    euler_step_law,
    gaussian_bump,
    make_model,
    register_model,
    sample_paths,
    weighted_inner,
)
from pathkl.diffusion import diffusion_eval, drift_eval, path_generator

OU_VAR_T1 = (1.0 - math.exp(-2.0)) / 2.0  # 0.43233235838169365


# ---------------------------------------------------------------------------
# coefficient evaluation


def test_drift_brownian_zero():
    spec = make_model("brownian", {})
    np.testing.assert_array_equal(drift_eval(spec, 0.3, np.array([1.7])),
                                  np.array([0.0]))


def test_drift_ou():
    spec = make_model("ou", {"gamma": 1.0})
    np.testing.assert_allclose(drift_eval(spec, 0.0, np.array([2.0])),
                               np.array([-2.0]))


def test_drift_double_well():
    spec = make_model("double_well", {})
    np.testing.assert_allclose(drift_eval(spec, 0.0, np.array([0.5])),
                               np.array([0.375]))


def test_drift_nonfinite_rejected():
    bad = DiffusionSpec(
        dim=1,
        drift=lambda t, x: np.full_like(np.asarray(x, dtype=float), np.nan),
        diffusion_matrix=lambda t, x: np.ones(
            np.asarray(x).shape[:-1] + (1, 1)))
    with pytest.raises(ModelEvaluationError):
        drift_eval(bad, 0.0, np.array([0.0]))


def test_diffusion_eval_identity():
    spec = make_model("brownian", {})
    a, a_inv = diffusion_eval(spec, 0.0, np.array([0.0]))
    np.testing.assert_allclose(a, np.eye(1))
    np.testing.assert_allclose(a_inv, np.eye(1))


def test_diffusion_eval_scalar():
    spec = make_model("brownian", {"a": 2.0})
    a, a_inv = diffusion_eval(spec, 0.0, np.array([0.0]))
    assert a[0, 0] == 2.0
    assert a_inv[0, 0] == pytest.approx(0.5, abs=1e-12)


def test_diffusion_eval_diagonal():
    spec = make_model("brownian", {"a": [[1.0, 0.0], [0.0, 4.0]]}, dim=2)
    a, a_inv = diffusion_eval(spec, 0.0, np.zeros(2))
    np.testing.assert_allclose(a, np.diag([1.0, 4.0]))
    np.testing.assert_allclose(a_inv, np.diag([1.0, 0.25]), atol=1e-12)
    np.testing.assert_allclose(a_inv @ a, np.eye(2), atol=1e-9)


def test_diffusion_eval_pd_error():
    bad = DiffusionSpec(
        dim=1,
        drift=lambda t, x: np.zeros_like(np.asarray(x, dtype=float)),
        diffusion_matrix=lambda t, x: np.full(
            np.asarray(x).shape[:-1] + (1, 1), -1.0))
    with pytest.raises(PositiveDefinitenessError):
        diffusion_eval(bad, 0.0, np.array([0.0]))


def test_weighted_inner_euclidean():
    spec = make_model("brownian", {"a": [[1.0, 0.0], [0.0, 1.0]]}, dim=2)
    u = np.array([3.0, 4.0])
    assert weighted_inner(spec, 0.0, np.zeros(2), u, u) == pytest.approx(25.0)


def test_weighted_inner_scalar():
    spec = make_model("brownian", {"a": 2.0})
    u = np.array([2.0])
    assert weighted_inner(spec, 0.0, np.zeros(1), u, u) == pytest.approx(2.0)


def test_weighted_inner_diagonal():
    spec = make_model("brownian", {"a": [[1.0, 0.0], [0.0, 4.0]]}, dim=2)
    u = np.array([1.0, 2.0])
    assert weighted_inner(spec, 0.0, np.zeros(2), u, u) == pytest.approx(2.0)


@given(st.lists(st.floats(-5, 5), min_size=2, max_size=2),
       st.floats(-3, 3))
def test_weighted_inner_positive(u, x1):
    # a^{-1} inherits positive definiteness from a
    u = np.asarray(u)
    if np.linalg.norm(u) < 1e-6:
        return
    spec = make_model("brownian", {"a": [[2.0, 0.5], [0.5, 1.0]]}, dim=2)
    x = np.array([x1, 0.0])
    assert weighted_inner(spec, 0.1, x, u, u) > 0


# ---------------------------------------------------------------------------
# generator


def _bare_function(value, gradient, hessian):
    return BasisFunction(value=value, gradient=gradient, hessian=hessian,
                         family="test", meta={})


def test_generator_quadratic():
    f = _bare_function(
        lambda x: 0.5 * float(np.sum(np.asarray(x) ** 2)),
        lambda x: np.asarray(x, dtype=float),
        lambda x: np.eye(np.asarray(x).shape[-1]))
    spec = make_model("brownian", {})
    assert apply_generator(spec, 0.0, f, np.array([0.7])) == pytest.approx(0.5)


def test_generator_linear_drift():
    f = _bare_function(
        lambda x: float(np.asarray(x)[..., 0]),
        lambda x: np.array([1.0, 0.0]),
        lambda x: np.zeros((2, 2)))
    spec = make_model("constant_drift", {"theta": [3.0, 0.0]}, dim=2)
    assert apply_generator(spec, 0.0, f, np.zeros(2)) == pytest.approx(3.0)


def test_generator_gaussian_bump():
    # exp(-x^2) has second derivative -2 at the origin
    f = gaussian_bump([0.0], math.sqrt(0.5), [-10.0], [10.0])
    spec = make_model("brownian", {})
    assert apply_generator(spec, 0.0, f, np.zeros(1)) == pytest.approx(
        -1.0, abs=1e-9)


def test_generator_needs_hessian():
    f = BasisFunction(value=lambda x: 0.0, gradient=lambda x: np.zeros(1),
                      hessian=None, family="test", meta={})
    spec = make_model("brownian", {})
    with pytest.raises(Exception) as err:
        apply_generator(spec, 0.0, f, np.zeros(1))
    assert "hessian" in str(err.value).lower() or "Capability" in type(
        err.value).__name__


@settings(max_examples=25)
@given(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2.5, 2.5))
def test_generator_linear_in_f(alpha, beta, x0):
    spec = make_model("ou", {"gamma": 0.7, "a": 1.3})
    f = gaussian_bump([0.3], 0.8, [-4.0], [4.0])
    g = gaussian_bump([-0.5], 1.1, [-4.0], [4.0])
    combo = _bare_function(
        lambda x: alpha * f.value(x) + beta * g.value(x),
        lambda x: alpha * f.gradient(x) + beta * g.gradient(x),
        lambda x: alpha * f.hessian(x) + beta * g.hessian(x))
    x = np.array([x0])
    lhs = apply_generator(spec, 0.2, combo, x)
    rhs = alpha * apply_generator(spec, 0.2, f, x) \
        + beta * apply_generator(spec, 0.2, g, x)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# initial laws and the time grid


def _single_draws(init, gen, size):
    """size draws by the one-draw-at-a-time formulas of each law."""
    rows = []
    for _ in range(size):
        if init.kind == "point":
            rows.append(init.point.copy())
        elif init.kind == "gaussian":
            rows.append(init.mean + init.root @ gen.standard_normal(init.dim))
        else:
            rows.append(
                init.samples[gen.integers(init.samples.shape[0])].copy())
    return np.array(rows)


@pytest.mark.parametrize("init", [
    InitialLaw.point_mass([0.5, -2.0]),
    InitialLaw.gaussian([0.3], [[2.5]]),
    InitialLaw.gaussian([0.5, -1.0], [[1.0, 0.3], [0.3, 0.5]]),
    InitialLaw.gaussian([0.0, 1.0], [[1.0, 2.0], [2.0, 4.0]]),
    InitialLaw.empirical([[-1.0], [0.0], [0.25], [2.0], [3.5]]),
    InitialLaw.empirical([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
], ids=["point", "gaussian-1d", "gaussian-2d", "gaussian-singular-2d",
        "empirical-1d", "empirical-2d"])
def test_block_draw_matches_single_draws(init):
    for key in range(40):
        for size in (1, 7, 40):
            block_gen = path_generator(key, size)
            single_gen = path_generator(key, size)
            block = init.draw(block_gen, size)
            assert block.shape == (size, init.dim)
            assert np.array_equal(block, _single_draws(init, single_gen, size))
            # both leave the stream at the same position
            assert np.array_equal(block_gen.standard_normal(3),
                                  single_gen.standard_normal(3))


def test_grid_index_of_nearest_point():
    grid = TimeGrid.uniform(1.0, 100)
    above = 3 * 0.1 / 10  # 0.030000000000000006, 7e-18 above points[3]
    assert above > grid.points[3]
    assert grid.index_of(above) == 3
    assert grid.index_of(0.03 - 5e-13) == 3
    assert grid.index_of(0.0) == 0
    assert grid.index_of(1.0) == 100
    for bad in (0.03 + 1e-9, -1e-9, 1.0 + 1e-9, math.nan):
        with pytest.raises(ArgumentError):
            grid.index_of(bad)


# ---------------------------------------------------------------------------
# sampling


def test_sample_paths_rejects_empty():
    grid = TimeGrid.uniform(1.0, 10)
    with pytest.raises(ArgumentError):
        sample_paths(make_model("brownian", {}),
                     InitialLaw.point_mass([0.0]), grid, 0, 0)


def test_bm_mean_clt_bound():
    grid = TimeGrid.uniform(1.0, 100)
    ens = sample_paths(make_model("brownian", {}),
                       InitialLaw.point_mass([0.0]), grid, 10_000, 0)
    assert abs(ens.states[:, -1, 0].mean()) < 4.0 / math.sqrt(10_000)


def test_ou_terminal_variance():
    grid = TimeGrid.uniform(1.0, 400)
    ens = sample_paths(make_model("ou", {"gamma": 1.0}),
                       InitialLaw.point_mass([0.0]), grid, 8000, 1)
    v = ens.states[:, -1, 0].var(ddof=1)
    se = OU_VAR_T1 * math.sqrt(2.0 / 7999)
    assert abs(v - OU_VAR_T1) < 5 * se


def test_bm_marginal_moments():
    # Euler is exact for constant coefficients; only MC error remains
    grid = TimeGrid.uniform(2.0, 64)
    x0 = np.array([1.5, -0.5])
    ens = sample_paths(make_model("brownian",
                                  {"a": [[1.0, 0.0], [0.0, 1.0]]}, dim=2),
                       InitialLaw.point_mass(x0), grid, 6000, 2)
    xt = ens.states[:, -1]
    se_mean = math.sqrt(2.0 / 6000)
    assert np.all(np.abs(xt.mean(axis=0) - x0) < 5 * se_mean)
    cov = np.cov(xt.T)
    se_var = 2.0 * math.sqrt(2.0 / 5999)
    assert np.all(np.abs(np.diag(cov) - 2.0) < 5 * se_var)


def test_reproducible_across_threads():
    grid = TimeGrid.uniform(1.0, 50)
    spec = make_model("ou", {"gamma": 1.0})
    init = InitialLaw.gaussian([0.0], [[1.0]])
    a = sample_paths(spec, init, grid, 64, 9, threads=1)
    b = sample_paths(spec, init, grid, 64, 9, threads=4)
    assert np.array_equal(a.states, b.states)


def test_seed_changes_paths():
    grid = TimeGrid.uniform(1.0, 20)
    spec = make_model("brownian", {})
    init = InitialLaw.point_mass([0.0])
    a = sample_paths(spec, init, grid, 8, 0)
    b = sample_paths(spec, init, grid, 8, 1)
    assert not np.array_equal(a.states, b.states)


@pytest.mark.parametrize("init", [
    InitialLaw.point_mass([0.0]),
    InitialLaw.gaussian([0.5, -1.0], [[1.0, 0.3], [0.3, 0.5]]),
    InitialLaw.empirical([[-1.0], [0.0], [0.25], [2.0]]),
], ids=["point", "gaussian-2d", "empirical"])
def test_path_count_independence(init):
    # path i depends only on (seed, i), not on how many paths were asked for
    grid = TimeGrid.uniform(1.0, 20)
    spec = make_model("brownian", {}, dim=init.dim)
    small = sample_paths(spec, init, grid, 4, 5)
    large = sample_paths(spec, init, grid, 16, 5)
    assert np.array_equal(small.states, large.states[:4])


def test_state_dependent_diffusion_paths():
    grid = TimeGrid.uniform(1.0, 50)
    spec = make_model("sine_diffusion", {"a": 1.0, "amplitude": 0.5})
    ens = sample_paths(spec, InitialLaw.point_mass([0.0]), grid, 32, 0)
    assert np.isfinite(ens.states).all()


# ---------------------------------------------------------------------------
# one-step law


def test_euler_step_brownian():
    law = euler_step_law(make_model("brownian", {}), 0.0,
                         np.array([0.0]), 0.1)
    np.testing.assert_allclose(law.mean, [0.0])
    np.testing.assert_allclose(law.covariance, [[0.1]])


def test_euler_step_ou():
    law = euler_step_law(make_model("ou", {"gamma": 1.0}), 0.0,
                         np.array([1.0]), 0.1)
    np.testing.assert_allclose(law.mean, [0.9])
    np.testing.assert_allclose(law.covariance, [[0.1]])


def test_euler_step_scaled():
    law = euler_step_law(make_model("brownian", {"a": 2.0}), 0.0,
                         np.array([0.3]), 0.5)
    np.testing.assert_allclose(law.mean, [0.3])
    np.testing.assert_allclose(law.covariance, [[1.0]])


def test_euler_step_rejects_nonpositive_dt():
    with pytest.raises(ArgumentError):
        euler_step_law(make_model("brownian", {}), 0.0, np.array([0.0]), 0.0)


# ---------------------------------------------------------------------------
# catalog


def test_unknown_model():
    with pytest.raises(ArgumentError) as err:
        make_model("levy", {})
    assert "catalog" in str(err.value)


def test_register_model_duplicate():
    with pytest.raises(ArgumentError):
        register_model("brownian", lambda params, dim: None)


def test_make_model_rejects_unknown_params():
    with pytest.raises(ArgumentError, match="gama"):
        make_model("ou", {"gama": 2})
    assert make_model("ou", {"gamma": 2}).params == {"gamma": 2}


def test_sine_diffusion_validation():
    with pytest.raises(ArgumentError):
        make_model("sine_diffusion", {"amplitude": 1.0})
    with pytest.raises(ArgumentError):
        make_model("sine_diffusion", {}, dim=2)


def test_linear_model_drift():
    spec = make_model("linear", {"A": [[-1.0]], "b0": [0.5]})
    np.testing.assert_allclose(drift_eval(spec, 0.0, np.array([2.0])),
                               np.array([-1.5]))
