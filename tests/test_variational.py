"""Test-function families, Gram geometry, residual action, dual energy."""

import json
import math
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathkl import (
    ArgumentError,
    BasisFunction,
    DiffusionSpec,
    FunctionBasis,
    InitialLaw,
    ModelEvaluationError,
    PathEnsemble,
    PositiveDefinitenessError,
    TimeGrid,
    basis_from_config,
    drift_correction,
    dual_energy,
    dv_estimate,
    fokker_planck_residual,
    gaussian_bump,
    girsanov_entropy,
    gram_matrix,
    make_model,
    mixed_basis,
    residual_energy_profile,
    sample_paths,
    windowed_monomial,
)
from pathkl import diffusion, variational

README = Path(__file__).resolve().parents[1] / "README.md"


def _fd_gradient(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for i in range(x.shape[0]):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        out[i] = (f.value(xp) - f.value(xm)) / (2 * h)
    return out


def _fd_hessian(f, x, h=1e-5):
    x = np.asarray(x, dtype=float)
    d = x.shape[0]
    out = np.zeros((d, d))
    for i in range(d):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        out[i] = (f.gradient(xp) - f.gradient(xm)) / (2 * h)
    return 0.5 * (out + out.T)


# ---------------------------------------------------------------------------
# basis functions: derivatives, support, seams


@pytest.mark.parametrize("maker", [
    lambda: gaussian_bump([0.4], 0.7, [-2.0], [3.0]),
    lambda: gaussian_bump([-1.0], 2.0, [-4.0], [4.0], margin=0.4),
    lambda: windowed_monomial(1, [-2.0], [2.0]),
    lambda: windowed_monomial(2, [-1.0], [3.0], margin=0.3),
    lambda: windowed_monomial(0, [-2.0], [2.0]),
    lambda: windowed_monomial(3, [-1.5], [2.5]),
    lambda: windowed_monomial(4, [-2.0], [2.0], margin=0.3),
])
def test_derivatives_match_finite_differences(maker):
    f = maker()
    # probe the core, the smoothing band, and just inside the edge
    lo, hi = -1.9, 1.9
    for u in np.linspace(0.02, 0.98, 13):
        x = np.array([lo + u * (hi - lo)])
        np.testing.assert_allclose(f.gradient(x), _fd_gradient(f, x),
                                   rtol=2e-4, atol=2e-5)
        np.testing.assert_allclose(f.hessian(x), _fd_hessian(f, x),
                                   rtol=2e-3, atol=2e-4)


@pytest.mark.parametrize("degree", [[3], [4], [3, 1], [2, 2], [0, 4]])
def test_high_degree_monomials_match_their_analytic_jets(degree):
    # on the window's flat core a monomial is prod_i u_i^e_i exactly, with
    # u = (x - center) / half; its powers above 2 are products of u
    e = np.array(degree)
    lo, hi = -1.0 - 0.5 * np.arange(e.size), 2.0 + np.arange(e.size)
    center, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    u = np.random.default_rng(3).uniform(-0.7, 0.7, size=(200, e.size))
    value, grad, hess = FunctionBasis(
        (windowed_monomial(degree, lo, hi),), lo, hi).jet(center + half * u, 2)

    def power(k):
        return np.where(k >= 0, u ** np.maximum(k, 0), 0.0)

    want_grad = np.empty_like(u)
    want_hess = np.empty(u.shape + (e.size,))
    for i in range(e.size):
        di = np.eye(e.size, dtype=int)[i]
        want_grad[:, i] = e[i] * np.prod(power(e - di), axis=-1) / half[i]
        for j in range(e.size):
            dj = np.eye(e.size, dtype=int)[j]
            coef = e[i] * (e[j] - (i == j))
            want_hess[:, i, j] = coef * np.prod(power(e - di - dj),
                                                axis=-1) / (half[i] * half[j])
    np.testing.assert_allclose(value[:, 0], np.prod(u ** e, axis=-1),
                               rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(grad[:, 0], want_grad, rtol=1e-13,
                               atol=1e-15)
    np.testing.assert_allclose(hess[:, 0], want_hess, rtol=1e-13,
                               atol=1e-15)


def test_compact_support_exact():
    f = gaussian_bump([0.0], 1.0, [-1.0], [1.0])
    for x in ([-1.0], [1.0], [-1.5], [2.0]):
        x = np.array(x)
        assert f.value(x) == 0.0
        assert np.all(f.gradient(x) == 0.0)
        assert np.all(f.hessian(x) == 0.0)


def test_seam_smoothness():
    # value, gradient, hessian all approach 0 at the box edge
    f = windowed_monomial(1, [-1.0], [1.0], margin=0.25)
    eps = 1e-5
    x = np.array([1.0 - eps])
    assert abs(f.value(x)) < 1e-10
    assert abs(f.gradient(x)[0]) < 1e-5
    assert abs(f.hessian(x)[0, 0]) < 1e-1


def test_batched_evaluation_matches_scalar():
    f = gaussian_bump([0.2], 0.8, [-2.0], [2.0])
    xs = np.linspace(-2.5, 2.5, 41)[:, None]
    vals = f.value(xs)
    for i, x in enumerate(xs):
        assert vals[i] == pytest.approx(f.value(x), abs=1e-14)


def test_basis_builders_validate():
    with pytest.raises(ArgumentError):
        mixed_basis([-1.0], [1.0], 0)
    with pytest.raises(ArgumentError):
        gaussian_bump([0.0], -1.0, [-1.0], [1.0])
    with pytest.raises(ArgumentError):
        windowed_monomial(-1, [-1.0], [1.0])


def test_basis_from_config_strict():
    with pytest.raises(ArgumentError):
        basis_from_config({"box": [-1, 1], "typo": 3})
    with pytest.raises(ArgumentError):
        basis_from_config({"count": 3})
    basis = basis_from_config({"box": [-3, 3], "count": 4,
                               "degrees": [0, 1]})
    assert basis.size == 6


def _readme_basis_examples():
    """(config, documented bumps, degrees) for each README basis example:
    a JSON record, then a comment line stating its bumps and monomials."""
    text = README.read_text(encoding="utf-8")
    block = text[text.index("Basis configs"):]
    block = block[block.index("```jsonc\n") + 9:]
    block = block[:block.index("```")]
    examples = []
    for record, note in re.findall(r"(\{.*?\})\s*// ([^\n]*)", block,
                                   re.S):
        count, first, last, scale = re.match(
            r"(\d+) bumps from (\S+) to (\S+), scale ([\d.]+);",
            note).groups()
        degrees = re.search(r"monomials of degree ([\d, ]+)$", note)
        examples.append((json.loads(record),
                         (int(count), float(first), float(last),
                          float(scale)),
                         [] if degrees is None
                         else [int(d) for d in degrees[1].split(",")]))
    return examples


def test_readme_basis_examples_build_as_documented():
    # each README example builds the bumps and monomials its comment states
    examples = _readme_basis_examples()
    assert len(examples) == 2
    for cfg, (count, first, last, scale), degrees in examples:
        described = basis_from_config(cfg).describe()
        bumps = [f for f in described if f["family"] == "bump"]
        centers = [f["center"][0] for f in bumps]
        assert len(bumps) == count
        assert centers[0] == pytest.approx(first, abs=1e-12)
        assert centers[-1] == pytest.approx(last, abs=1e-12)
        assert np.allclose(np.diff(centers), (last - first) / (count - 1),
                           rtol=1e-12)
        assert {f["scale"] for f in bumps} == {bumps[0]["scale"]}
        assert bumps[0]["scale"] == pytest.approx(scale, abs=5e-6)
        assert [f["degree"][0] for f in described
                if f["family"] == "poly"] == degrees
        assert described[:count] == bumps


def test_mixed_basis_rules():
    # a single bump sits at the span's midpoint, scale 1.5x its half-width
    assert mixed_basis([-1.0], [1.0], 1).describe() == [
        {"family": "bump", "center": [0.0], "scale": 1.125}]
    assert mixed_basis([-1.0], [1.0], 1, bump_span=(0.0, 1.0)).describe() \
        == [{"family": "bump", "center": [0.5], "scale": 0.75}]
    assert mixed_basis([-1.0], [1.0], 0, degrees=[1]).size == 1
    with pytest.raises(ArgumentError, match="one dimension"):
        mixed_basis([-1.0, -1.0], [1.0, 1.0], 3)
    with pytest.raises(ArgumentError, match="nonnegative"):
        mixed_basis([-1.0], [1.0], -1, degrees=[0])
    with pytest.raises(ArgumentError, match="nonnegative"):
        basis_from_config({"box": [-1, 1], "count": -1})


def test_basis_builders_refuse_what_they_cannot_build():
    # a span off the box built bumps that read 0 on it, a reversed span
    # failed as a bad scale, a NaN box or scale built NaN functions
    for span in ((5.0, 6.0), (1.0, 0.0), (0.5, 0.5), (-2.0, 0.0)):
        with pytest.raises(ArgumentError, match="^bump_span must be"):
            mixed_basis([-1.0], [1.0], 3, bump_span=span)
    # no bump, no span to place: the monomials alone build
    assert mixed_basis([-1.0], [1.0], 0, degrees=[1],
                       bump_span=(5.0, 6.0)).size == 1
    for lo, hi in ((np.nan, 1.0), (-1.0, np.inf)):
        with pytest.raises(ArgumentError, match="domain box must be finite"):
            mixed_basis([lo], [hi], 3)
        with pytest.raises(ArgumentError, match="domain box must be finite"):
            windowed_monomial(1, [lo], [hi])
    for scale in (np.nan, np.inf, 0.0):
        with pytest.raises(ArgumentError, match="bump scale must be"):
            gaussian_bump([0.0], scale, [-1.0], [1.0])


# ---------------------------------------------------------------------------
# Gram matrix


def _linear_fn():
    return BasisFunction(value=lambda x: float(np.asarray(x)[..., 0])
                         if np.asarray(x).ndim == 1
                         else np.asarray(x)[..., 0],
                         gradient=lambda x: np.ones_like(
                             np.asarray(x, dtype=float)),
                         hessian=lambda x: np.zeros(
                             np.asarray(x).shape + (1,)),
                         family="test", meta={})


def _bare_basis(fns):
    return FunctionBasis(functions=tuple(fns), lo=np.array([-1e9]),
                         hi=np.array([1e9]))


def test_gram_linear_unit():
    basis = _bare_basis([_linear_fn()])
    samples = np.random.default_rng(0).normal(size=(50, 1))
    gram = gram_matrix(make_model("brownian", {}), 0.0, samples, basis)
    np.testing.assert_allclose(gram.matrix, [[1.0]], atol=1e-12)


def test_gram_scalar_a2():
    basis = _bare_basis([_linear_fn()])
    samples = np.zeros((10, 1))
    gram = gram_matrix(make_model("brownian", {"a": 2.0}), 0.0, samples,
                       basis)
    np.testing.assert_allclose(gram.matrix, [[2.0]], atol=1e-12)


def test_gram_duplicate_functions_rank_one():
    basis = _bare_basis([_linear_fn(), _linear_fn()])
    samples = np.random.default_rng(1).normal(size=(30, 1))
    gram = gram_matrix(make_model("brownian", {}), 0.0, samples, basis)
    assert np.linalg.matrix_rank(gram.matrix, tol=1e-10) == 1
    # pseudo-inverse path: duplicated span gives the same supremum
    sol_dup = dual_energy(np.array([1.0, 1.0]), gram)
    gram1 = gram_matrix(make_model("brownian", {}), 0.0, samples,
                        _bare_basis([_linear_fn()]))
    sol_one = dual_energy(np.array([1.0]), gram1)
    assert sol_dup.value == pytest.approx(sol_one.value, abs=1e-12)


def test_gram_empty_samples():
    with pytest.raises(ArgumentError):
        gram_matrix(make_model("brownian", {}), 0.0, np.zeros((0, 1)),
                    _bare_basis([_linear_fn()]))


# ---------------------------------------------------------------------------
# residual action


def test_residual_zero_under_reference():
    # sampled under P itself, the residual pairing vanishes
    grid = TimeGrid.uniform(1.0, 64)
    spec = make_model("brownian", {})
    ens = sample_paths(spec, InitialLaw.point_mass([0.0]), grid, 4000, 0)
    basis = mixed_basis([-3.5], [3.5], 6)
    res = fokker_planck_residual(ens, spec, basis, t_index=32, window=4)
    se = np.sqrt(np.diag(res.cov_mean))
    assert np.all(np.abs(res.values) <= 3 * se)


def test_residual_detects_constant_drift():
    grid = TimeGrid.uniform(1.0, 64)
    mu = make_model("constant_drift", {"theta": 1.0})
    P = make_model("brownian", {})
    ens = sample_paths(mu, InitialLaw.point_mass([0.0]), grid, 6000, 3)
    basis = _bare_basis([_linear_fn()])
    res = fokker_planck_residual(ens, P, basis, t_index=32, window=4)
    se = math.sqrt(res.cov_mean[0, 0])
    # d/dt E[x] = theta while E[L x] = 0 under driftless reference
    assert abs(res.values[0] - 1.0) <= 3 * se


def test_residual_flat_function_is_silent():
    grid = TimeGrid.uniform(1.0, 64)
    mu = make_model("constant_drift", {"theta": 1.0})
    ens = sample_paths(mu, InitialLaw.point_mass([0.0]), grid, 2000, 4)
    # bump so wide its gradient is ~0 where the mass lives
    basis = _bare_basis([gaussian_bump([0.0], 400.0, [-1e3], [1e3])])
    res = fokker_planck_residual(ens, make_model("brownian", {}), basis,
                                 t_index=32, window=4)
    assert abs(res.values[0]) < 1e-4


def test_residual_window_validation():
    grid = TimeGrid.uniform(1.0, 16)
    spec = make_model("brownian", {})
    ens = sample_paths(spec, InitialLaw.point_mass([0.0]), grid, 8, 0)
    basis = mixed_basis([-2.0], [2.0], 3)
    with pytest.raises(ArgumentError):
        fokker_planck_residual(ens, spec, basis, t_index=0, window=1)
    with pytest.raises(ArgumentError):
        fokker_planck_residual(ens, spec, basis, t_index=16, window=1)
    with pytest.raises(ArgumentError):
        fokker_planck_residual(ens, spec, basis, t_index=8, window=0)


# ---------------------------------------------------------------------------
# dual energy


def _gram_from_matrix(q):
    from pathkl.variational import GramData
    q = np.asarray(q, dtype=float)
    return GramData(matrix=q, n_samples=1, t=0.0,
                    condition=float(np.linalg.cond(q)))


def test_dual_energy_unit():
    sol = dual_energy(np.array([1.0]), _gram_from_matrix([[1.0]]))
    assert sol.value == pytest.approx(0.5, abs=1e-15)


def test_dual_energy_zero_action():
    sol = dual_energy(np.zeros(3), _gram_from_matrix(np.eye(3)))
    assert sol.value == 0.0


def test_dual_energy_matches_direct_maximization():
    from scipy.optimize import minimize
    rng = np.random.default_rng(7)
    for _ in range(10):
        m = rng.normal(size=(3, 3))
        q = m @ m.T + 1e-3 * np.eye(3)
        c = rng.normal(size=3)
        sol = dual_energy(c, _gram_from_matrix(q))
        res = minimize(lambda g: 0.5 * g @ q @ g - c @ g,
                       np.zeros(3), jac=lambda g: q @ g - c,
                       method="L-BFGS-B", tol=1e-14)
        assert sol.value == pytest.approx(-res.fun, abs=1e-6)


def test_energy_identity_exact():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(4, 4))
    q = m @ m.T
    c = rng.normal(size=4)
    gram = _gram_from_matrix(q)
    sol = dual_energy(c, gram)
    g = sol.coefficients
    assert sol.value == 0.5 * float(g @ (q @ g))


@settings(max_examples=40)
@given(st.integers(0, 2 ** 32 - 1), st.floats(0.0, 1.0))
@example(seed=155209873, lam=1e-15)  # value 3789.93, rounding gap 1.0e-9
def test_dual_energy_convex_in_action(seed, lam):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(3, 3))
    q = m @ m.T + 1e-6 * np.eye(3)
    gram = _gram_from_matrix(q)
    c1, c2 = rng.normal(size=3), rng.normal(size=3)
    mix = dual_energy(lam * c1 + (1 - lam) * c2, gram).value
    bound = lam * dual_energy(c1, gram).value \
        + (1 - lam) * dual_energy(c2, gram).value
    # the slack scales with the values: rounding is relative, not absolute
    assert mix <= bound + 1e-9 * max(1.0, abs(bound))


def test_dual_energy_monotone_in_basis():
    # a larger span can only raise the restricted supremum
    grid = TimeGrid.uniform(1.0, 64)
    mu = make_model("constant_drift", {"theta": 1.0})
    P = make_model("brownian", {})
    ens = sample_paths(mu, InitialLaw.point_mass([0.0]), grid, 3000, 5)
    small = mixed_basis([-2.5], [3.5], 4)
    large = FunctionBasis(
        functions=small.functions + (gaussian_bump([0.5], 0.6, [-2.5],
                                                   [3.5]),),
        lo=small.lo, hi=small.hi)
    vals = {}
    for tag, basis in (("small", small), ("large", large)):
        res = fokker_planck_residual(ens, P, basis, t_index=32, window=4)
        gram = gram_matrix(P, res.t, ens.states[:, 32], basis)
        vals[tag] = dual_energy(res.values, gram).value
    assert vals["large"] >= vals["small"] - 1e-9


def test_dual_energy_scale_invariant():
    grid = TimeGrid.uniform(1.0, 64)
    mu = make_model("constant_drift", {"theta": 1.0})
    P = make_model("brownian", {})
    ens = sample_paths(mu, InitialLaw.point_mass([0.0]), grid, 2000, 6)
    base = mixed_basis([-2.5], [3.5], 5)
    alpha = 3.7

    def scaled(f):
        return BasisFunction(
            value=lambda x, f=f: alpha * f.value(x),
            gradient=lambda x, f=f: alpha * f.gradient(x),
            hessian=lambda x, f=f: alpha * f.hessian(x),
            family=f.family, meta=f.meta)

    scaled_basis = FunctionBasis(
        functions=tuple(scaled(f) for f in base.functions),
        lo=base.lo, hi=base.hi)
    out = []
    for basis in (base, scaled_basis):
        res = fokker_planck_residual(ens, P, basis, t_index=32, window=4)
        gram = gram_matrix(P, res.t, ens.states[:, 32], basis)
        out.append(dual_energy(res.values, gram).value)
    assert out[0] == pytest.approx(out[1], rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# drift-field recovery


def test_recovered_field_zero_action():
    basis = mixed_basis([-2.0], [2.0], 3)
    samples = np.random.default_rng(0).normal(size=(100, 1))
    P = make_model("brownian", {})
    gram = gram_matrix(P, 0.5, samples, basis)
    from pathkl.variational import FokkerPlanckResidual
    res = FokkerPlanckResidual(values=np.zeros(basis.size),
                               cov_mean=np.zeros((basis.size, basis.size)),
                               t=0.5, n_paths=100)
    corr = drift_correction(res, gram, basis, P)
    assert corr.energy == 0.0
    pts = np.linspace(-1.5, 1.5, 7)[:, None]
    assert np.all(corr.field(pts) == 0.0)


def test_recovered_field_ou_shape():
    # drift gap between OU and BM is -gamma*y; check sign and magnitude
    grid = TimeGrid.uniform(1.0, 128)
    gamma = 1.0
    mu = make_model("ou", {"gamma": gamma})
    P = make_model("brownian", {})
    ens = sample_paths(mu, InitialLaw.gaussian([0.0], [[0.5]]), grid,
                       30_000, 8)
    basis = mixed_basis([-3.2], [3.2], n_bumps=8, bump_scale=1.0,
                        degrees=[1])
    idx = 64
    res = fokker_planck_residual(ens, P, basis, t_index=idx, window=8)
    gram = gram_matrix(P, res.t, ens.states[:, idx], basis)
    corr = drift_correction(res, gram, basis, P)
    ys = np.linspace(-0.9, 0.9, 9)[:, None]
    h = corr.field(ys)[:, 0]
    np.testing.assert_allclose(h, -gamma * ys[:, 0], atol=0.12)


# ---------------------------------------------------------------------------
# stacked basis evaluation equals per-function evaluation bit for bit


def _wrapped(f, family):
    # a custom function around a catalog one: same values, no catalog core
    return BasisFunction(value=lambda x: f.value(x),
                         gradient=lambda x: f.gradient(x),
                         hessian=lambda x: f.hessian(x),
                         family=family, meta=dict(f.meta))


def _box2(lo=(-2.0, -1.0), hi=(2.0, 3.0)):
    return list(lo), list(hi)


def _basis_2d():
    lo, hi = _box2()
    fns = (gaussian_bump([0.3, -0.2], 0.8, lo, hi),
           gaussian_bump([-0.5, 0.5], 1.3, lo, hi),
           windowed_monomial([1, 2], lo, hi),
           windowed_monomial([0, 0], lo, hi),
           windowed_monomial([3, 1], lo, hi))
    return FunctionBasis(functions=fns, lo=lo, hi=hi)


def _basis_mixed_with_custom():
    base = mixed_basis([-2.5], [2.5], 4, 0.9, [0, 1, 2])
    fns = list(base.functions)
    fns.insert(1, _linear_fn())
    fns.insert(3, _wrapped(fns[4], "bump"))          # labelled like a bump
    fns.append(_wrapped(gaussian_bump([0.2], 0.5, [-2.5], [2.5]), "custom"))
    # a catalog bump on another box, between the families of the first
    fns.insert(5, gaussian_bump([0.0], 1.1, [-4.0], [4.0], margin=0.3))
    return FunctionBasis(functions=tuple(fns), lo=base.lo, hi=base.hi)


STACK_BASES = pytest.mark.parametrize("make", [
    lambda: mixed_basis([-3.0], [2.0], 12),
    lambda: mixed_basis([-2.5], [2.5], 4, 0.9, [0, 1, 2]),
    lambda: mixed_basis([-2.5], [2.5], 5, 0.9, [0, 1, 2, 3],
                        bump_span=(-1.0, 1.0)),
    _basis_2d,
    _basis_mixed_with_custom,
    lambda: variational.slice_energy_basis(
        np.random.default_rng(1).normal(0.3, 0.5, size=(300, 1))),
    lambda: variational.slice_energy_basis(
        np.random.default_rng(1).normal(0.3, [0.5, 0.4], size=(300, 2))),
], ids=["bumps", "mixed", "mixed-span", "2d", "with-custom", "slice-1d",
        "slice-2d"])


@STACK_BASES
def test_stacks_equal_per_function_evaluation(make):
    basis = make()
    rng = np.random.default_rng(5)
    # points inside the core, in the window margins and outside the box
    x = rng.uniform(-4.5, 4.5, size=(400, basis.dim))
    fns = basis.functions
    assert np.array_equal(basis.value_matrix(x),
                          np.stack([f.value(x) for f in fns], axis=-1))
    assert np.array_equal(basis.gradient_stack(x),
                          np.stack([f.gradient(x) for f in fns], axis=-2))
    assert np.array_equal(basis.hessian_stack(x),
                          np.stack([f.hessian(x) for f in fns], axis=-3))
    # one point of shape (d,), and a batch with two leading axes
    one = x[7]
    assert np.array_equal(basis.hessian_stack(one),
                          np.stack([f.hessian(one) for f in fns], axis=-3))
    grid = x[:12].reshape(3, 4, basis.dim)
    assert np.array_equal(basis.gradient_stack(grid),
                          np.stack([f.gradient(grid) for f in fns], axis=-2))


def test_custom_bump_label_keeps_its_own_callables():
    # a custom function evaluates through its callables whatever its label
    base = mixed_basis([-2.0], [2.0], 3)
    scaled = BasisFunction(value=lambda x: 2.0 * base.functions[0].value(x),
                           gradient=lambda x: 2.0 * base.functions[0]
                           .gradient(x),
                           hessian=lambda x: 2.0 * base.functions[0]
                           .hessian(x),
                           family="bump", meta=base.functions[0].meta)
    basis = FunctionBasis(functions=(scaled,) + base.functions[1:],
                          lo=base.lo, hi=base.hi)
    x = np.linspace(-2.5, 2.5, 21)[:, None]
    np.testing.assert_array_equal(basis.value_matrix(x)[:, 0],
                                  2.0 * base.value_matrix(x)[:, 0])
    np.testing.assert_array_equal(basis.value_matrix(x)[:, 1:],
                                  base.value_matrix(x)[:, 1:])


@STACK_BASES
def test_jet_equals_single_order_stacks(make):
    # every order of a jet carries the bits of the single-order evaluation
    basis = make()
    rng = np.random.default_rng(11)
    x = rng.uniform(-4.5, 4.5, size=(300, basis.dim))
    fns = basis.functions
    single = (np.stack([f.value(x) for f in fns], axis=-1),
              np.stack([f.gradient(x) for f in fns], axis=-2),
              np.stack([f.hessian(x) for f in fns], axis=-3))
    for order in range(3):
        jet = basis.jet(x, order)
        assert len(jet) == 3
        for r in range(3):
            if r <= order:
                assert np.array_equal(jet[r], single[r])
            else:
                assert jet[r] is None
    one = basis.jet(x[3], 2)
    for r in range(3):
        assert np.array_equal(one[r], single[r][3])


# ---------------------------------------------------------------------------
# a basis of another dimension than the samples is refused


def test_basis_dimension_mismatch_raises():
    spec = make_model("ou", {"gamma": 1.0}, dim=2)
    P = make_model("brownian", {}, dim=2)
    ens = sample_paths(spec, InitialLaw.point_mass([0.0, 0.0]),
                       TimeGrid.uniform(1.0, 32), 200, 3)
    basis = mixed_basis([-3.0], [3.0], 4, 0.9, [0, 1])
    x = ens.states[:, 16]
    with pytest.raises(ArgumentError):
        basis.jet(x, 0)
    with pytest.raises(ArgumentError):
        residual_energy_profile(ens, P, basis, window=4, stride=4)
    with pytest.raises(ArgumentError):
        gram_matrix(P, 0.5, x, basis)
    with pytest.raises(ArgumentError):
        fokker_planck_residual(ens, P, basis, 16, 4)
    with pytest.raises(ArgumentError):
        dv_estimate(x, ens.states[:, 8], basis)
    # and a 2-d basis on 1-d samples
    with pytest.raises(ArgumentError):
        gram_matrix(make_model("brownian", {}), 0.5, x[:, 0], _basis_2d())


# ---------------------------------------------------------------------------
# the profile evaluates each grid index once and hoists a constant a


def _profile_by_slice(ens, spec_P, basis, window, stride, t_min_frac=0.15):
    """Debiased slice values and standard errors, one slice at a time
    through the public residual, Gram and dual functions."""
    grid = ens.grid
    idxs = [i for i in range(window, grid.n_steps - window + 1, stride)
            if grid.points[i] >= t_min_frac * grid.horizon]
    values, ses = [], []
    for i in idxs:
        res = fokker_planck_residual(ens, spec_P, basis, i, window)
        gram = gram_matrix(spec_P, res.t, ens.states[:, i], basis)
        sol = dual_energy(res.values, gram)
        values.append(sol.value - 0.5 * float(
            np.trace(gram.pseudo_inverse @ res.cov_mean)))
        ses.append(math.sqrt(max(float(
            sol.coefficients @ res.cov_mean @ sol.coefficients), 0.0)))
    return np.array(values), np.array(ses)


A_FULL = [[1.0, 0.4], [0.4, 0.8]]


def _one_d_case(P):
    ens = sample_paths(make_model("ou", {"gamma": 1.0}),
                       InitialLaw.point_mass([0.0]),
                       TimeGrid.uniform(1.0, 64), 2000, 3)
    basis = mixed_basis([-2.5], [2.5], 4, 0.9, [0, 1, 2],
                        bump_span=(-1.0, 1.0))
    return ens, P, basis


def _two_d_case():
    mu = make_model("linear", {"A": [[-1.0, 0.3], [0.0, -0.5]],
                               "a": A_FULL}, dim=2)
    ens = sample_paths(mu, InitialLaw.point_mass([0.0, 1.0]),
                       TimeGrid.uniform(1.0, 64), 2000, 3)
    return ens, make_model("brownian", {"a": A_FULL}, dim=2), _basis_2d()


@pytest.mark.parametrize("window,stride", [(8, 4), (3, 2), (2, 5)])
@pytest.mark.parametrize("case,exact", [
    (lambda: _one_d_case(make_model("brownian", {})), True),
    (lambda: _one_d_case(make_model("brownian", {"a": 0.7})), True),
    (lambda: _one_d_case(make_model("sine_diffusion", {"a": 1.0})), True),
    (_two_d_case, False),
], ids=["a1", "a0.7", "sine", "2d-full"])
def test_profile_equals_slice_by_slice(case, exact, window, stride):
    ens, P, basis = case()
    prof = residual_energy_profile(ens, P, basis, window=window,
                                   stride=stride)
    # the public functions hoist a constant a the same way: equal bits
    values, ses = _profile_by_slice(ens, P, basis, window, stride)
    assert np.array_equal(prof.values, values)
    assert np.array_equal(prof.std_errors, ses)
    # against a(t, y) evaluated at every sample: equal bits for d = 1; for
    # d >= 2 the hoisted Gram associates (grad · a) · grad
    values, ses = _profile_by_slice(
        ens, replace(P, constant_matrix=None), basis, window, stride)
    if exact:
        assert np.array_equal(prof.values, values)
        assert np.array_equal(prof.std_errors, ses)
    else:
        # a debiased value is a difference of two terms, so its error is
        # relative to the scale of the slice values, not to itself
        for got, want in ((prof.values, values), (prof.std_errors, ses)):
            np.testing.assert_allclose(got, want, rtol=1e-14,
                                       atol=1e-14 * np.abs(want).max())


def test_profile_slices_call_the_public_functions(monkeypatch):
    # Each slice's residual and Gram matrix come from fokker_planck_residual
    # and gram_matrix, fed the jets the profile evaluated (perfbench times
    # them under these names); handing them over changes no bit.
    ens, P, basis = _one_d_case(make_model("brownian", {"a": 0.7}))
    calls = {"residual": [], "gram": []}

    def residual(*args, jets=None, **kwargs):
        calls["residual"].append(jets is not None)
        return fokker_planck_residual(*args, jets=jets, **kwargs)

    def gram(*args, gradients=None, **kwargs):
        calls["gram"].append(gradients is not None)
        return gram_matrix(*args, gradients=gradients, **kwargs)

    monkeypatch.setattr(variational, "fokker_planck_residual", residual)
    monkeypatch.setattr(variational, "gram_matrix", gram)
    prof = residual_energy_profile(ens, P, basis, window=3, stride=2)
    n = prof.diagnostics["n_slices"]
    assert calls == {"residual": [True] * n, "gram": [True] * n}
    monkeypatch.undo()
    values, ses = _profile_by_slice(ens, P, basis, 3, 2)
    assert np.array_equal(prof.values, values)
    assert np.array_equal(prof.std_errors, ses)


def test_profile_evaluates_the_reference_matrix_once_per_slice():
    # the generator term and the Gram matrix of a slice share one
    # evaluation of a state-dependent a(t, ·)
    sine = make_model("sine_diffusion", {"a": 1.0, "amplitude": 0.5})
    times = []

    def diffusion(t, x):
        times.append(t)
        return sine.diffusion_matrix(t, x)

    ens, P, basis = _one_d_case(replace(sine, diffusion_matrix=diffusion))
    prof = residual_energy_profile(ens, P, basis, window=3, stride=2)
    assert times == list(prof.times)


# ---------------------------------------------------------------------------
# the profile in path blocks: fixed chunk sums, memory, earliest errors


def _unblocked_profile(ens, spec_P, basis, window=8, stride=4,
                       t_min_frac=0.15):
    """The profile as it was computed before path blocks: every slice over
    all paths at once, the Gram matrix and the drift term as einsums, the
    residual moments about their mean. Returns values, standard errors,
    the integral and its standard error, and each slice's Gram condition
    on the span its pseudo-inverse keeps."""
    grid = ens.grid
    idxs = [i for i in range(window, grid.n_steps - window + 1, stride)
            if grid.points[i] >= t_min_frac * grid.horizon]
    values, ses, conds = [], [], []
    for i in idxs:
        t = float(grid.points[i])
        x = ens.states[:, i]
        _, grads, hesss = basis.jet(x, 2)
        span = float(grid.points[i + window] - grid.points[i - window])
        diff = (basis.jet(ens.states[:, i + window], 0)[0]
                - basis.jet(ens.states[:, i - window], 0)[0]) / span
        a = spec_P.matrix_at(t, x)
        if a.ndim == 2:
            second = np.einsum("ij,nkji->nk", a, hesss)
            q = np.einsum("nke,nle->kl", grads @ a, grads)
        else:
            second = np.einsum("nij,nkji->nk", a, hesss)
            q = np.einsum("nkd,nde,nle->kl", grads, a, grads)
        b = np.asarray(spec_P.drift(t, x), dtype=float)
        z = diff - (0.5 * second + np.einsum("nd,nkd->nk", b, grads))
        n = z.shape[0]
        c = z.mean(axis=0)
        centered = z - c
        cov = centered.T @ centered / (n * max(n - 1, 1))
        q = q / n
        q = 0.5 * (q + q.T)
        q_plus = np.linalg.pinv(q, rcond=variational.SVD_RCOND,
                                hermitian=True)
        g = q_plus @ c
        values.append(0.5 * float(g @ (q @ g))
                      - 0.5 * float(np.trace(q_plus @ cov)))
        ses.append(math.sqrt(max(float(g @ cov @ g), 0.0)))
        # the condition of what the pseudo-inverse keeps
        svals = np.linalg.svd(q, compute_uv=False)
        conds.append(svals[0] / svals[svals > variational.SVD_RCOND
                                      * svals[0]][-1])
    times = np.concatenate([[0.0], grid.points[idxs], [grid.horizon]])
    ext_v = np.concatenate([values[:1], values, values[-1:]])
    ext_s = np.concatenate([ses[:1], ses, ses[-1:]])
    integral = float(np.trapezoid(ext_v, times))
    integral_se = float(np.sqrt(np.sum((np.gradient(times) * ext_s) ** 2)))
    return (np.array(values), np.array(ses), integral, integral_se,
            np.array(conds))


def _six_bumps():
    return mixed_basis([-2.5], [2.5], 6, 0.7, [], bump_span=(-1.5, 1.5))


_PROFILE_CASES = {
    "1d-constant": lambda: (_one_d_case(None)[0],
                            make_model("brownian", {"a": 0.7}), _six_bumps()),
    "2d-constant": _two_d_case,
    "sine": lambda: (_one_d_case(None)[0],
                     make_model("sine_diffusion", {"a": 1.0}), _six_bumps()),
}


@pytest.mark.parametrize("case", sorted(_PROFILE_CASES))
def test_profile_matches_the_unblocked_einsum_profile(case):
    # the chunk sums and the Gram GEMM reorder sums, which moves the last
    # bits of c, Q and Σ_c; a slice's dual amplifies that by its Gram
    # condition number, so the 1e-12 agreement is checked where the Grams
    # are well conditioned (an ill-conditioned basis, such as the pinned
    # ones, agrees only to about cond · 1e-17)
    ens, P, basis = _PROFILE_CASES[case]()
    prof = residual_energy_profile(ens, P, basis)
    values, ses, integral, integral_se, conds = _unblocked_profile(
        ens, P, basis)
    assert conds.max() < 1e5
    np.testing.assert_allclose(prof.values, values, rtol=1e-12, atol=0)
    np.testing.assert_allclose(prof.std_errors, ses, rtol=1e-12, atol=0)
    np.testing.assert_allclose([prof.integral, prof.integral_std_error],
                               [integral, integral_se], rtol=1e-12, atol=0)


def test_profile_reports_the_largest_gram_condition():
    ens, P, basis = _PROFILE_CASES["sine"]()
    prof = residual_energy_profile(ens, P, basis)
    conds = [gram_matrix(P, t, ens.states[:, ens.grid.index_of(t)],
                         basis).condition for t in prof.times]
    assert prof.diagnostics["gram_condition_max"] == max(conds)
    assert json.loads(json.dumps(prof.diagnostics)) == prof.diagnostics


def _chunks_per_block(monkeypatch, chunks, basis, window, stride):
    """Make the profile read its paths in blocks of `chunks` chunks: the
    working set of that many chunks at the profile's per-path cost."""
    d = basis.dim
    per_path = basis.size * (1 + d + d * d) * (2 * window // stride + 2)
    monkeypatch.setattr(diffusion, "WORKING_SET_ELEMENTS",
                        chunks * diffusion.BLOCK_PATHS * per_path)


@pytest.mark.parametrize("case", sorted(_PROFILE_CASES))
def test_profile_bits_do_not_depend_on_the_memory_block(case, monkeypatch):
    # chunks of 256 paths: 2000 paths are 7 full chunks and one of 208.
    # Blocks of one chunk, and of three (which divide neither the chunk
    # count nor the path count), give the bits of a single block.
    ens, P, basis = _PROFILE_CASES[case]()
    monkeypatch.setattr(diffusion, "BLOCK_PATHS", 256)
    whole = residual_energy_profile(ens, P, basis, window=3, stride=2)
    assert whole.chunk_sums.counts.tolist() == [256] * 7 + [208]
    blocks, real = [], diffusion.path_blocks

    def spy(*args):
        blocks.append(real(*args))
        return blocks[-1]

    monkeypatch.setattr(diffusion, "path_blocks", spy)
    for chunks in (1, 3):
        _chunks_per_block(monkeypatch, chunks, basis, window=3, stride=2)
        got = residual_energy_profile(ens, P, basis, window=3, stride=2)
        assert [lo for lo, _ in blocks.pop()] == list(
            range(0, 2000, 256 * chunks))
        for name in ("values", "std_errors", "times"):
            assert getattr(got, name).tobytes() == \
                getattr(whole, name).tobytes(), (chunks, name)
        assert got.integral.hex() == whole.integral.hex()
        assert got.integral_std_error.hex() == \
            whole.integral_std_error.hex()
        for name in ("shift", "residual", "moments", "gram"):
            assert getattr(got.chunk_sums, name).tobytes() == \
                getattr(whole.chunk_sums, name).tobytes(), (chunks, name)
    # and at the real chunk size, blocks of one chunk
    monkeypatch.undo()
    whole = residual_energy_profile(ens, P, basis)
    monkeypatch.setattr(diffusion, "WORKING_SET_ELEMENTS", 1)
    got = residual_energy_profile(ens, P, basis)
    assert got.values.tobytes() == whole.values.tobytes()
    assert got.std_errors.tobytes() == whole.std_errors.tobytes()


def test_profile_chunk_sums_add_up_to_the_slices():
    # each slice's residual and Gram are the chunk sums added in path
    # order: the profile keeps the per-chunk blocks a jackknife needs
    ens, P, basis = _PROFILE_CASES["sine"]()
    prof = residual_energy_profile(ens, P, basis)
    sums = prof.chunk_sums
    assert sums.residual.shape == (2, prof.times.shape[0], basis.size)
    assert sums.counts.tolist() == [diffusion.BLOCK_PATHS,
                                    2000 - diffusion.BLOCK_PATHS]
    for s, t in enumerate(prof.times):
        i = ens.grid.index_of(t)
        res = fokker_planck_residual(ens, P, basis, i, 8)
        gram = gram_matrix(P, res.t, ens.states[:, i], basis)
        assert res.chunk_sums.tobytes() == sums.residual[:, s].tobytes()
        assert res.chunk_moments.tobytes() == sums.moments[:, s].tobytes()
        assert gram.chunk_sums.tobytes() == sums.gram[:, s].tobytes()


def _profile_extra_peak(n_chunks, monkeypatch):
    """tracemalloc peak of a profile over n_chunks chunks in one-chunk
    blocks, the ensemble sampled beforehand."""
    monkeypatch.setattr(diffusion, "WORKING_SET_ELEMENTS", 1)
    ens = sample_paths(make_model("ou", {"gamma": 1.0}),
                       InitialLaw.point_mass([0.0]), TimeGrid.uniform(1.0, 32),
                       n_chunks * diffusion.BLOCK_PATHS, 6)
    basis = mixed_basis([-2.5], [2.5], 8, 0.7, [], bump_span=(-1.5, 1.5))
    tracemalloc.start()
    try:
        prof = residual_energy_profile(ens, make_model("brownian", {}),
                                       basis, window=4, stride=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(prof.integral)
    return peak


def test_profile_memory_does_not_grow_with_the_paths(monkeypatch):
    # one block's jets (8 functions, 3 entries per path each, about six
    # grid times) are about 1.2 MB; the whole 16-chunk ensemble's would be
    # 16 times that, and the chunk sums are a few kB per chunk
    bound = 3 * 2 ** 20
    small = _profile_extra_peak(4, monkeypatch)
    large = _profile_extra_peak(16, monkeypatch)
    assert small < bound, small
    assert large < bound, large


def _fault_profile(faults, n):
    """A profile over n paths whose state at grid time k on path p is
    p + n·k, with custom coefficients and basis that plant faults at
    (time, path) pairs: faults maps a kind to [(t, path), ...]."""
    grid = TimeGrid.uniform(1.0, 8)
    states = (np.arange(float(n))[:, None]
              + n * np.arange(9.0)[None, :])[..., None]
    ens = PathEnsemble(grid=grid, states=states, seed=0)

    def at(kind, t, x):
        hit = np.zeros(x.shape[:-1], dtype=bool)
        for t_f, path in faults.get(kind, ()):
            if t == t_f:
                hit |= x[..., 0] == path + n * round(t * 8)
        return hit

    def drift(t, x):
        out = np.zeros_like(x)
        out[at("gen-nan", t, x)] = np.nan
        out[at("gen-inf", t, x)] = np.inf
        return out

    def diffusion(t, x):
        a = np.ones(x.shape[:-1])
        a[at("non-pd", t, x)] = 0.0
        a[at("nan-diffusion", t, x)] = np.nan
        return a[..., None, None]

    # two functions whose gradients reach 1e200 where the Gram fault is
    # planted, the second with the sign +, then -: their cross term sums
    # to +inf on one path and -inf on the other, a NaN entry, while the
    # generator term (zero drift, zero Hessian) stays finite
    gram_paths = {path + n * round(t * 8): sign
                  for (t, path), sign in zip(faults.get("gram-nan", ()),
                                             (1.0, -1.0))}

    def gradient(x, signed):
        out = np.ones_like(x)
        for state, sign in gram_paths.items():
            out[x == state] = 1e200 * (sign if signed else 1.0)
        return out

    fns = tuple(BasisFunction(
        value=lambda x: x[..., 0],
        gradient=lambda x, signed=signed: gradient(x, signed),
        hessian=lambda x: np.zeros(x.shape + x.shape[-1:]))
        for signed in (False, True))
    basis = FunctionBasis(functions=fns, lo=[0.0], hi=[1.0])
    spec = DiffusionSpec(dim=1, drift=drift, diffusion_matrix=diffusion)
    return lambda: residual_energy_profile(ens, spec, basis, window=1,
                                           stride=1, t_min_frac=0.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("late,early,error,message", [
    ("gen-nan", "gen-nan", ModelEvaluationError,
     "reference generator term is NaN"),
    ("non-pd", "gen-inf", ModelEvaluationError,
     "reference generator term is infinite"),
    ("gen-nan", "non-pd", PositiveDefinitenessError,
     "diffusion matrix of 'custom' at t = 0.25 is not symmetric positive"),
    ("nan-diffusion", "gram-nan", ModelEvaluationError, "Gram matrix is NaN"),
    ("non-pd", "nan-diffusion", ModelEvaluationError,
     "diffusion matrix of 'custom' is NaN"),
])
def test_profile_error_names_earliest_time_over_blocks(late, early, error,
                                                       message, monkeypatch):
    # blocks of one chunk over 2 chunks and 5 paths: a fault at t = 0.75
    # on a path of the first block and one at t = 0.25 on paths of the
    # last: the error names t = 0.25, as a scan of whole slices does. The
    # Gram's +inf and -inf must come from two chunks (within one chunk's
    # GEMM a fused multiply-add keeps the sum infinite), so its -inf path
    # is in the middle block.
    monkeypatch.setattr(diffusion, "WORKING_SET_ELEMENTS", 1)
    n = 2 * diffusion.BLOCK_PATHS + 5
    last = (n - 3, diffusion.BLOCK_PATHS + 7 if early == "gram-nan"
            else n - 2)
    faults = {late: [(0.75, 5)]}
    faults.setdefault(early, []).extend((0.25, path) for path in last)
    run = _fault_profile(faults, n)
    with pytest.raises(error, match=re.escape(message)) as info:
        run()
    assert "t = 0.25" in str(info.value)


# ---------------------------------------------------------------------------
# defaults and bad reference laws


# a drift gap A x with a symmetric A is the gradient of x'Ax / 2, which the
# marginal flow shows in full; a rotation would be invisible to it
LINEAR_2D = {"A": [[-1.0, 0.5], [0.5, -0.8]]}


def test_profile_defaults_to_the_energy_basis():
    # each slice takes slice_energy_basis of the first chunk's states there
    # and is the slice that a profile on that basis computes, bit for bit,
    # in one dimension and in two (the default used to refuse d = 2)
    grid = TimeGrid.uniform(1.0, 32)
    head = diffusion.BLOCK_PATHS
    for mu, P, k in ((make_model("ou", {"gamma": 1.0}),
                      make_model("brownian", {}), 4),
                     (make_model("linear", LINEAR_2D, dim=2),
                      make_model("brownian", {}, dim=2), 14)):
        ens = sample_paths(mu, InitialLaw.point_mass([0.0] * mu.dim), grid,
                           head + 300, 4)
        prof = residual_energy_profile(ens, P, window=4, stride=4)
        assert len(prof.bases) == prof.times.shape[0] == 6
        for s, (t, basis) in enumerate(zip(prof.times, prof.bases)):
            want = variational.slice_energy_basis(
                ens.states[:head, grid.index_of(t)])
            assert basis.size == k
            assert basis.lo.tobytes() == want.lo.tobytes()
            assert basis.hi.tobytes() == want.hi.tobytes()
            values, ses = _profile_by_slice(ens, P, basis, 4, 4)
            assert values[s] == prof.values[s]
            assert ses[s] == prof.std_errors[s]


def test_default_energy_basis_rule():
    # monomials of total degree 1 to 4, C(d + 4, d) - 1 of them, on the
    # box of the mean +- 6 SDs, and no box for states that do not spread
    rng = np.random.default_rng(2)
    x = rng.normal([0.5, -1.0], [0.2, 3.0], size=(500, 2))
    basis = variational.slice_energy_basis(x)
    assert [f["degree"] for f in basis.describe()] == [
        [1, 0], [0, 1], [2, 0], [1, 1], [0, 2], [3, 0], [2, 1], [1, 2],
        [0, 3], [4, 0], [3, 1], [2, 2], [1, 3], [0, 4]]
    np.testing.assert_array_equal(basis.lo, x.mean(axis=0)
                                  - 6.0 * x.std(axis=0))
    np.testing.assert_array_equal(basis.hi, x.mean(axis=0)
                                  + 6.0 * x.std(axis=0))
    assert variational.slice_energy_basis(x[:, :1]).size == 4
    with pytest.raises(ArgumentError, match="positive SD"):
        variational.slice_energy_basis(np.c_[x[:, 0], np.ones(500)])
    ens = sample_paths(make_model("ou", {}), InitialLaw.point_mass([0.0]),
                       TimeGrid.uniform(1.0, 32), 1, 4)
    with pytest.raises(ArgumentError, match="positive SD"):
        residual_energy_profile(ens, make_model("brownian", {}))


def test_default_profile_bits_do_not_depend_on_the_memory_block(
        monkeypatch):
    # the boxes come from the first chunk, which every first block holds
    ens = _one_d_case(None)[0]
    P = make_model("brownian", {})
    monkeypatch.setattr(diffusion, "BLOCK_PATHS", 256)
    whole = residual_energy_profile(ens, P)
    monkeypatch.setattr(diffusion, "WORKING_SET_ELEMENTS", 1)
    got = residual_energy_profile(ens, P)
    assert got.values.tobytes() == whole.values.tobytes()
    assert got.std_errors.tobytes() == whole.std_errors.tobytes()
    assert [b.lo.tobytes() for b in got.bases] == [
        variational.slice_energy_basis(
            ens.states[:256, ens.grid.index_of(t)]).lo.tobytes()
        for t in got.times]


def test_default_profile_agrees_with_girsanov_in_two_dimensions():
    # the same paths of a 2-d linear pair with a non-diagonal A against
    # Brownian motion; both routes estimate R(mu || P)
    mu = make_model("linear", LINEAR_2D, dim=2)
    P = make_model("brownian", {}, dim=2)
    init = InitialLaw.point_mass([0.0, 0.0])
    for seed in (1, 2, 3):
        ens = sample_paths(mu, init, TimeGrid.uniform(1.0, 64), 2000, seed)
        prof = residual_energy_profile(ens, P)
        est = girsanov_entropy(mu, P, init, init, ens)
        se = math.hypot(prof.integral_std_error, est.std_error)
        assert abs(prof.integral - est.value) <= 4 * se, (seed, prof.integral,
                                                          est.value, se)


def test_default_profile_is_well_conditioned_on_ou():
    # the 12-bump box it replaced read Gram condition numbers of 3e8 to
    # 2e9 on the early, narrow OU marginals
    for seed in (1, 2, 3):
        ens = sample_paths(make_model("ou", {"gamma": 1.0}),
                           InitialLaw.point_mass([0.0]),
                           TimeGrid.uniform(1.0, 128), 4000, seed)
        prof = residual_energy_profile(ens, make_model("brownian", {}))
        assert prof.diagnostics["gram_condition_max"] <= 1e4, seed


def _bump_box_basis(ens):
    """The 12-bump basis the per-slice default replaced: one box over the
    central 99.8% of the states in the second half of the horizon, padded
    by 30% of its width on each side."""
    states = ens.states[:, ens.grid.n_steps // 2:]
    lo, hi = (float(q) for q in np.quantile(states, [0.001, 0.999]))
    pad = 0.3 * (hi - lo)
    return mixed_basis([lo - pad], [hi + pad], 12,
                       bump_scale=1.5 * (hi - lo) / 11)


def test_default_profile_resolves_a_double_well_drift(monkeypatch):
    # the drift gap x - x^3 needs a degree-4 test function: on the same
    # double-well paths the default agrees with the 12 bumps within 2%,
    # and monomials of degree 2 at most miss most of the energy
    bm = make_model("brownian", {})
    runs = [sample_paths(make_model("double_well", {}),
                         InitialLaw.point_mass([0.0]),
                         TimeGrid.uniform(1.0, 128), 8000, seed)
            for seed in (1, 2, 3)]
    for ens in runs:
        bumps = residual_energy_profile(ens, bm, _bump_box_basis(ens))
        default = residual_energy_profile(ens, bm)
        assert abs(default.integral - bumps.integral) <= \
            0.02 * bumps.integral, (default.integral, bumps.integral)
    bumps = residual_energy_profile(runs[0], bm, _bump_box_basis(runs[0]))
    monkeypatch.setattr(variational, "ENERGY_DEGREE", 2)
    quadratic = residual_energy_profile(runs[0], bm)
    assert quadratic.bases[0].size == 2
    assert abs(quadratic.integral - bumps.integral) > 0.02 * bumps.integral


def _nan_above_half(x, on):
    return np.where((x > 0.5) & on, np.nan, 0.0)


@pytest.mark.parametrize("nan_drift", [True, False],
                         ids=["drift", "diffusion"])
def test_nan_reference_coefficient_fails_loudly(nan_drift):
    # the profile used to return integral nan, with no error
    ens = sample_paths(make_model("brownian", {}),
                       InitialLaw.point_mass([0.0]),
                       TimeGrid.uniform(1.0, 64), 200, 5)
    spec = DiffusionSpec(
        dim=1, drift=lambda t, x: _nan_above_half(x, nan_drift),
        diffusion_matrix=lambda t, x: (
            1.0 + _nan_above_half(x, not nan_drift))[..., None],
        constant_matrix=np.eye(1) if nan_drift else None)
    basis = mixed_basis([-3.0], [3.0], 6)
    with pytest.raises(ModelEvaluationError, match=r"NaN on some path at "
                                                   r"t = 0\.\d"):
        residual_energy_profile(ens, spec, basis)
    if not nan_drift:
        with pytest.raises(ModelEvaluationError,
                           match=r"diffusion matrix of 'custom' is NaN "
                                 r".* t = 0\.5"):
            gram_matrix(spec, 0.5, ens.states[:, 32], basis)


def test_gram_matrix_rejects_non_pd_constant_matrix():
    with pytest.raises(PositiveDefinitenessError):
        gram_matrix(make_model("brownian", {"a": -1.0}), 0.5,
                    np.zeros((10, 1)), mixed_basis([-3.0], [3.0], 6))


def test_correction_field_rejects_non_pd_diffusion():
    # the field applied a(t, x) = -1 where the route refuses it
    basis = mixed_basis([-2.0], [2.0], 3)
    spec = replace(make_model("brownian", {"a": -1.0}), constant_matrix=None)
    corr = variational.DriftCorrection(
        coefficients=np.ones(basis.size), energy=0.0, t=0.5, basis=basis,
        spec=spec)
    with pytest.raises(PositiveDefinitenessError, match=r"t = 0\.5"):
        corr.field(np.zeros((3, 1)))
