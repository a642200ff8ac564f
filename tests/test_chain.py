"""Partition chain rule: step terms, totals, refinement, match check."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from pathkl import (
    ArgumentError,
    DiffusionSpec,
    InitialLaw,
    ModelEvaluationError,
    Partition,
    PositiveDefinitenessError,
    TimeGrid,
    chain_estimate,
    diffusion_match_check,
    euler_step_law,
    gaussian_kl,
    girsanov_entropy,
    make_model,
    refine_sequence,
    refinement_sweep,
    sample_paths,
    step_kl,
)
from pathkl import chain
from pathkl.chain import _chain_levels, _interval_kls
from pathkl.diffusion import PairCoefficients

OU_VS_BM = 0.1419169104045766                  # gamma=1, T=1
MISMATCH_STEP = 0.5 * (1.0 - math.log(2.0))    # c = 2a, one interval


def _ensemble(model_id, params, steps, n_paths, seed=0, horizon=1.0,
              init=None):
    grid = TimeGrid.uniform(horizon, steps)
    spec = make_model(model_id, params)
    init = init or InitialLaw.point_mass([0.0])
    return spec, grid, sample_paths(spec, init, grid, n_paths, seed)


# ---------------------------------------------------------------------------
# Partition


def test_partition_from_times():
    grid = TimeGrid.uniform(1.0, 8)
    part = Partition.from_times(grid, [0.0, 0.5, 1.0])
    assert part.n_intervals == 2
    assert list(part.indices) == [0, 4, 8]
    assert part.mesh == pytest.approx(0.5)
    assert part.intervals() == [(0.0, 0.5), (0.5, 1.0)]


def test_partition_validation():
    grid = TimeGrid.uniform(1.0, 8)
    with pytest.raises(ArgumentError):
        Partition.from_times(grid, [0.0])
    with pytest.raises(ArgumentError):
        Partition.from_times(grid, [0.0, 0.3, 1.0])     # off-grid
    with pytest.raises(ArgumentError):
        Partition.from_times(grid, [0.0, 0.5])          # misses horizon
    with pytest.raises(ArgumentError):
        Partition.from_times(grid, [0.125, 0.5, 1.0])   # misses origin
    with pytest.raises(ArgumentError):
        Partition.from_times(grid, [0.0, 0.5, 0.5, 1.0])


# ---------------------------------------------------------------------------
# single-interval terms


def test_step_same_law_zero():
    spec, grid, ens = _ensemble("ou", {"gamma": 1.0}, 64, 500)
    value, se = step_kl(spec, spec, ens, (0.25, 0.75))
    assert abs(value) <= 1e-12
    assert se <= 1e-12


def test_step_constant_drift_exact():
    # frozen-coefficient Gaussians: one interval of length dt contributes
    # dt * theta^2 / 2 for every path
    spec_mu, grid, ens = _ensemble("constant_drift", {"theta": 1.0}, 100,
                                   200)
    spec_p = make_model("brownian", {})
    value, se = step_kl(spec_mu, spec_p, ens, (0.0, 0.01))
    assert value == pytest.approx(0.005, abs=1e-15)
    assert se <= 1e-12


def test_step_diffusion_mismatch_mesh_independent():
    spec_mu, _, ens64 = _ensemble("brownian", {"a": 2.0}, 64, 100)
    spec_p = make_model("brownian", {"a": 1.0})
    for interval in ((0.0, 1.0 / 64), (0.0, 0.5), (0.25, 0.75)):
        value, _ = step_kl(spec_mu, spec_p, ens64, interval)
        assert value == pytest.approx(MISMATCH_STEP, abs=1e-14)


def test_step_interval_validation():
    spec, grid, ens = _ensemble("brownian", {}, 8, 10)
    with pytest.raises(ArgumentError):
        step_kl(spec, spec, ens, (0.3, 0.7))            # off-grid
    with pytest.raises(ArgumentError):
        step_kl(spec, spec, ens, (0.5, 0.5))
    with pytest.raises(ArgumentError):
        step_kl(spec, spec, ens, (0.75, 0.25))


# ---------------------------------------------------------------------------
# chain totals


def test_chain_same_law_zero():
    spec, grid, _ = _ensemble("ou", {"gamma": 1.0}, 64, 300)
    part = Partition.from_times(grid, [0.0, 0.5, 1.0])
    est = chain_estimate(spec, spec, InitialLaw.point_mass([0.0]),
                         InitialLaw.point_mass([0.0]), part,
                         n_paths=300, grid=grid)
    assert est.total.value <= 1e-12


def test_chain_constant_drift_full_grid():
    grid = TimeGrid.uniform(1.0, 256)
    part = Partition.from_times(grid, grid.points)
    est = chain_estimate(make_model("constant_drift", {"theta": 1.0}),
                         make_model("brownian", {}),
                         InitialLaw.point_mass([0.0]),
                         InitialLaw.point_mass([0.0]), part,
                         n_paths=4000, seed=1, grid=grid)
    assert est.total.value == pytest.approx(0.5, rel=0.02)
    assert len(est.contributions) == 256


def test_chain_ou_full_grid():
    grid = TimeGrid.uniform(1.0, 256)
    part = Partition.from_times(grid, grid.points)
    est = chain_estimate(make_model("ou", {"gamma": 1.0}),
                         make_model("brownian", {}),
                         InitialLaw.point_mass([0.0]),
                         InitialLaw.point_mass([0.0]), part,
                         n_paths=8000, seed=2, grid=grid)
    assert est.total.value == pytest.approx(OU_VS_BM, rel=0.03)


def test_chain_total_is_plain_sum():
    grid = TimeGrid.uniform(1.0, 8)
    part = Partition.from_times(grid, [0.0, 0.5, 1.0])
    est = chain_estimate(make_model("ou", {"gamma": 1.0}),
                         make_model("brownian", {}),
                         InitialLaw.point_mass([0.0]),
                         InitialLaw.point_mass([0.0]), part,
                         n_paths=500, seed=3, grid=grid)
    total = est.initial_term
    for term in est.contributions:
        total = total + term.value
    assert est.total.value == total


def test_chain_accepts_prebuilt_ensemble():
    spec_mu, grid, ens = _ensemble("constant_drift", {"theta": 1.0}, 64,
                                   800, seed=4)
    spec_p = make_model("brownian", {})
    part = Partition.from_times(grid, grid.points)
    init = InitialLaw.point_mass([0.0])
    a = chain_estimate(spec_mu, spec_p, init, init, part, ensemble=ens)
    b = chain_estimate(spec_mu, spec_p, init, init, part, n_paths=800,
                       seed=4, grid=grid)
    assert a.total.value == b.total.value


def test_chain_singular_initial_pair():
    grid = TimeGrid.uniform(1.0, 8)
    part = Partition.from_times(grid, [0.0, 1.0])
    est = chain_estimate(make_model("brownian", {}),
                         make_model("brownian", {}),
                         InitialLaw.point_mass([0.0]),
                         InitialLaw.gaussian([0.0], [[1.0]]), part,
                         n_paths=100, grid=grid)
    assert est.total.value == math.inf


# ---------------------------------------------------------------------------
# refinement


def test_refine_sequence_levels():
    grid = TimeGrid.uniform(1.0, 8)
    parts = refine_sequence(grid, 3)
    assert [p.n_intervals for p in parts] == [1, 2, 4]
    np.testing.assert_allclose(parts[0].times, [0.0, 1.0])
    np.testing.assert_allclose(parts[1].times, [0.0, 0.5, 1.0])
    np.testing.assert_allclose(parts[2].times, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_refine_sequence_nested():
    grid = TimeGrid.uniform(2.0, 32)
    parts = refine_sequence(grid, 4)
    for coarse, fine in zip(parts, parts[1:]):
        assert set(coarse.indices) <= set(fine.indices)
        assert fine.mesh == pytest.approx(coarse.mesh / 2)


def test_refine_sequence_divisibility():
    with pytest.raises(ArgumentError):
        refine_sequence(TimeGrid.uniform(1.0, 6), 3)
    parts = refine_sequence(TimeGrid.uniform(1.0, 6), 2)
    assert [p.n_intervals for p in parts] == [1, 2]


def test_sweep_same_law_flat_zero():
    grid = TimeGrid.uniform(1.0, 64)
    spec = make_model("ou", {"gamma": 1.0})
    init = InitialLaw.point_mass([0.0])
    sweep = refinement_sweep(spec, spec, init, init, grid, levels=4,
                             n_paths=400, seed=5)
    for est in sweep.estimates:
        assert est.total.value <= 1e-12
    assert not sweep.diverged
    assert sweep.monotonicity_violations == ()


def test_sweep_matched_case_monotone():
    grid = TimeGrid.uniform(1.0, 256)
    init = InitialLaw.point_mass([0.0])
    sweep = refinement_sweep(make_model("constant_drift", {"theta": 1.0}),
                             make_model("brownian", {}), init, init, grid,
                             levels=6, n_paths=3000, seed=6)
    totals = [e.total.value for e in sweep.estimates]
    assert sweep.monotonicity_violations == ()
    assert np.all(np.diff(totals) >= -1e-9)
    assert not sweep.diverged
    assert totals[-1] == pytest.approx(0.5, rel=0.05)
    assert abs(sweep.richardson_gap) == pytest.approx(
        totals[-1] - totals[-2], abs=1e-15)


def test_sweep_records_monotonicity_violations():
    # drift 2 at t = 0 and 0 after, against Brownian: frozen at the left
    # endpoints, 1, 2 and 4 intervals give 2, 1 and 0.5 on every path, so
    # each refinement is a drop that no standard error allows
    brownian = make_model("brownian", {})

    def kick(t, x):
        return np.full(np.shape(x), 2.0 if t == 0 else 0.0)

    mu = dataclasses.replace(brownian, drift=kick, model_id="custom")
    init = InitialLaw.point_mass([0.0])
    sweep = refinement_sweep(mu, brownian, init, init,
                             TimeGrid.uniform(1.0, 4), levels=3, n_paths=20,
                             seed=0)
    assert [e.total.value for e in sweep.estimates] == [2.0, 1.0, 0.5]
    assert sweep.monotonicity_violations == (
        {"coarse_intervals": 1, "fine_intervals": 2, "drop": 1.0,
         "allowed": 0.0},
        {"coarse_intervals": 2, "fine_intervals": 4, "drop": 0.5,
         "allowed": 0.0},
    )


def test_sweep_mismatch_diverges_linearly(monkeypatch):
    monkeypatch.setattr(chain, "DIVERGENCE_THRESHOLD", 2.0)
    grid = TimeGrid.uniform(1.0, 64)
    init = InitialLaw.point_mass([0.0])
    sweep = refinement_sweep(make_model("brownian", {"a": 2.0}),
                             make_model("brownian", {"a": 1.0}),
                             init, init, grid, levels=5, n_paths=200,
                             seed=7)
    totals = np.array([e.total.value for e in sweep.estimates])
    counts = np.array([e.partition.n_intervals for e in sweep.estimates])
    np.testing.assert_allclose(totals, counts * MISMATCH_STEP, rtol=1e-12)
    assert sweep.diverged
    assert sweep.slope_per_interval == pytest.approx(MISMATCH_STEP,
                                                     rel=0.10)


# ---------------------------------------------------------------------------
# diffusion agreement check


def test_match_check_same_diffusion():
    spec, grid, ens = _ensemble("brownian", {}, 32, 100)
    report = diffusion_match_check(spec, make_model("constant_drift",
                                                    {"theta": 3.0}), ens)
    assert report.passed
    assert report.max_distance == 0.0


def test_match_check_doubled_diffusion():
    spec, grid, ens = _ensemble("brownian", {"a": 2.0}, 32, 100)
    report = diffusion_match_check(spec, make_model("brownian",
                                                    {"a": 1.0}), ens)
    assert not report.passed
    assert report.max_distance == pytest.approx(1.0, abs=1e-12)


def test_match_check_state_dependent_gap():
    # sine diffusion vs flat: relative gap peaks at the amplitude
    spec, grid, ens = _ensemble("sine_diffusion", {"amplitude": 0.5}, 32,
                                400, seed=8)
    report = diffusion_match_check(spec, make_model("brownian", {}), ens,
                                   tol_match=1e-6)
    assert not report.passed
    assert 0.40 <= report.max_distance <= 0.5


def test_match_check_tolerance_band():
    spec, grid, ens = _ensemble("brownian", {"a": 1.0 + 5e-7}, 16, 50)
    report = diffusion_match_check(spec, make_model("brownian", {}), ens,
                                   tol_match=1e-6)
    assert report.passed
    assert report.max_distance <= 1e-6


def _masked_diffusion(matrix, value):
    """A state-dependent custom model whose diffusion matrix is matrix, with
    entry [0, 0] replaced by value where x_0 > 0.5."""
    matrix = np.asarray(matrix, dtype=float)
    d = matrix.shape[0]

    def diffusion(t, x):
        out = np.array(np.broadcast_to(matrix, x.shape[:-1] + (d, d)))
        out[x[..., 0] > 0.5, 0, 0] = value
        return out

    return DiffusionSpec(dim=d, drift=lambda t, x: np.zeros_like(x),
                         diffusion_matrix=diffusion)


@pytest.mark.parametrize("matrix,value,masked", [
    ([[1.0]], np.nan, "P"),
    ([[1.0, 0.3], [0.3, 0.5]], np.nan, "P"),
    ([[1.0]], np.inf, "P"),
    ([[1.0]], 0.0, "both"),    # 0 / 0: no distance at all
], ids=["nan-1d", "nan-2d", "inf-1d", "zero-pair"])
@pytest.mark.filterwarnings("ignore:invalid value encountered in divide")
def test_match_check_fails_on_nonfinite_distance(matrix, value, masked):
    d = len(matrix)
    grid = TimeGrid.uniform(1.0, 32)
    spec = make_model("brownian", {"a": matrix}, dim=d)
    ens = sample_paths(spec, InitialLaw.point_mass([0.0] * d), grid, 200, 5)
    assert (ens.states[..., 0] > 0.5).any()
    spec_p = _masked_diffusion(matrix, value)
    spec_mu = spec_p if masked == "both" else spec
    with pytest.raises(ModelEvaluationError, match="finite distance"):
        diffusion_match_check(spec_mu, spec_p, ens)


def _masked_drift(matrix):
    """A custom model with the constant diffusion matrix and a drift that
    is NaN where x_0 > 0.5, else 0."""
    matrix = np.asarray(matrix, dtype=float)

    def drift(t, x):
        return np.where(x[..., :1] > 0.5, np.nan, 0.0) * np.ones_like(x)

    return DiffusionSpec(
        dim=matrix.shape[0], drift=drift,
        diffusion_matrix=lambda t, x: np.broadcast_to(
            matrix, x.shape[:-1] + matrix.shape),
        constant_matrix=matrix)


@pytest.mark.parametrize("matrix,spec_p", [
    ([[1.0]], _masked_diffusion([[1.0]], np.nan)),
    ([[1.0]], _masked_drift([[1.0]])),
    ([[1.0, 0.3], [0.3, 0.5]], _masked_diffusion([[1.0, 0.3], [0.3, 0.5]],
                                                 np.nan)),
    ([[1.0, 0.3], [0.3, 0.5]], _masked_drift([[1.0, 0.3], [0.3, 0.5]])),
], ids=["diffusion-1d", "drift-1d", "diffusion-2d", "drift-2d"])
def test_nan_coefficients_fail_loudly(matrix, spec_p):
    # a NaN coefficient along the paths must raise, naming the time, and
    # never come back as a NaN estimate
    d = len(matrix)
    grid = TimeGrid.uniform(1.0, 32)
    spec_mu = make_model("brownian", {"a": matrix}, dim=d)
    init = InitialLaw.point_mass([0.0] * d)
    ens = sample_paths(spec_mu, init, grid, 200, 5)
    assert (ens.states[:, 16, 0] > 0.5).any()
    at_time = r"NaN on some path at t = \d"
    part = Partition.from_times(grid, [0.0, 0.5, 1.0])
    with pytest.raises(ModelEvaluationError, match=at_time):
        chain_estimate(spec_mu, spec_p, init, init, part, ensemble=ens)
    with pytest.raises(ModelEvaluationError, match=at_time):
        refinement_sweep(spec_mu, spec_p, init, init, grid, 3, 200, 5)
    with pytest.raises(ModelEvaluationError, match=r"at t = 0\.5"):
        step_kl(spec_mu, spec_p, ens, (0.5, 1.0))
    with pytest.raises(ModelEvaluationError, match=r"at t = \d"):
        girsanov_entropy(spec_mu, spec_p, init, init, ens)


@pytest.mark.parametrize("a", [[[-1.0]], [[-1.0, 0.0], [0.0, -1.0]]],
                         ids=["1d", "2d"])
def test_non_pd_constant_matrix_fails_loudly(a):
    # a = c, so the match check passes; every route that relies on the
    # matrix being positive definite then raises. girsanov used to return
    # 0.0 clamped from -0.5, and in 2-d (a positive determinant) the chain
    # returned a negative total clamped to 0.0
    d = len(a)
    grid = TimeGrid.uniform(1.0, 8)
    init = InitialLaw.point_mass([0.0] * d)
    ens = sample_paths(make_model("brownian", {}, dim=d), init, grid, 50, 1)
    mu = make_model("constant_drift", {"theta": 1.0, "a": a}, dim=d)
    p = make_model("brownian", {"a": a}, dim=d)
    assert diffusion_match_check(mu, p, ens).passed
    part = Partition.from_times(grid, [0.0, 0.5, 1.0])
    with pytest.raises(PositiveDefinitenessError):
        girsanov_entropy(mu, p, init, init, ens)
    with pytest.raises(PositiveDefinitenessError):
        chain_estimate(mu, p, init, init, part, ensemble=ens)
    with pytest.raises(PositiveDefinitenessError):
        step_kl(mu, p, ens, (0.5, 1.0))
    with pytest.raises(PositiveDefinitenessError):
        sample_paths(p, init, grid, 5, 0)


def test_chain_clamp_distance_recorded():
    # variance_part(a, a) is -2.2e-16 for this matrix, so two equal laws
    # sum to a slightly negative total: clamped, with the distance kept
    a = [[1.661080265733307, -1.1002677960029479],
         [-1.1002677960029479, 3.8778131723855447]]
    spec = make_model("brownian", {"a": a}, dim=2)
    init = InitialLaw.point_mass([0.0, 0.0])
    grid = TimeGrid.uniform(1.0, 8)
    ens = sample_paths(spec, init, grid, 20, 1)
    part = Partition.from_times(grid, [0.0, 0.5, 1.0])
    total = chain_estimate(spec, spec, init, init, part, ensemble=ens).total
    assert total.value == 0.0
    assert -1e-15 < total.diagnostics["clamped_from"] < 0.0
    ou = make_model("ou", {"gamma": 1.0, "a": a}, dim=2)
    total = chain_estimate(ou, spec, init, init, part, ensemble=ens).total
    assert total.value > 0.0
    assert "clamped_from" not in total.diagnostics


# ---------------------------------------------------------------------------
# constant diffusions: evaluated once per run vs at every (path, interval)

A_FULL = [[1.0, 0.3], [0.3, 0.5]]
HOIST_PAIRS = [
    # (mu, P, dim, exact): exact where the hoisted and per-path solves
    # must agree bit for bit
    (("ou", {"gamma": 1.0, "a": 1.0}), ("brownian", {"a": 1.0}), 1, True),
    (("ou", {"gamma": 1.0, "a": 0.7}), ("brownian", {"a": 0.7}), 1, False),
    (("ou", {"gamma": 1.0, "a": 0.7}), ("brownian", {"a": 1.4}), 1, False),
    (("linear", {"A": [[-1.0, 0.4], [0.0, -0.5]], "b0": [0.2, 0.0],
                 "a": A_FULL}),
     ("brownian", {"a": A_FULL}), 2, False),
]


def _generic(spec):
    return dataclasses.replace(spec, constant_matrix=None)


def _assert_close(got, want, exact, scale=0.0):
    # scale: the size of the estimate; a term that is pure roundoff (the
    # spread of a column of equal values) is compared against it
    if exact:
        assert got == want
    else:
        assert math.isclose(got, want, rel_tol=1e-14, abs_tol=1e-14 * scale)


@pytest.mark.parametrize("mu,p,dim,exact", HOIST_PAIRS)
def test_chain_constant_diffusion_matches_per_path(mu, p, dim, exact):
    spec_mu = make_model(*mu, dim=dim)
    spec_p = make_model(*p, dim=dim)
    init = InitialLaw.point_mass([0.3] * dim)
    grid = TimeGrid.uniform(1.0, 16)
    ens = sample_paths(spec_mu, init, grid, 200, 4)
    part = Partition.from_times(grid, [0.0, 0.25, 0.3125, 0.75, 1.0])
    hoisted = chain_estimate(spec_mu, spec_p, init, init, part, ensemble=ens)
    generic = chain_estimate(_generic(spec_mu), _generic(spec_p), init, init,
                             part, ensemble=ens)
    scale = generic.total.value
    _assert_close(hoisted.total.value, generic.total.value, exact)
    _assert_close(hoisted.total.std_error, generic.total.std_error, exact)
    for h, g in zip(hoisted.contributions, generic.contributions):
        _assert_close(h.value, g.value, exact, scale)
        _assert_close(h.std_error, g.std_error, exact, scale)
    # only one side constant: hoisted a with per-path c, and the reverse
    for half in (chain_estimate(spec_mu, _generic(spec_p), init, init, part,
                                ensemble=ens),
                 chain_estimate(_generic(spec_mu), spec_p, init, init, part,
                                ensemble=ens)):
        _assert_close(half.total.value, generic.total.value, exact)


@pytest.mark.parametrize("mu,p,dim,exact", HOIST_PAIRS)
def test_step_kl_constant_diffusion_matches_per_path(mu, p, dim, exact):
    spec_mu = make_model(*mu, dim=dim)
    spec_p = make_model(*p, dim=dim)
    init = InitialLaw.point_mass([0.3] * dim)
    grid = TimeGrid.uniform(1.0, 8)
    ens = sample_paths(spec_mu, init, grid, 150, 6)
    hoisted = step_kl(spec_mu, spec_p, ens, (0.25, 0.625))
    generic = step_kl(_generic(spec_mu), _generic(spec_p), ens, (0.25, 0.625))
    for h, g in zip(hoisted, generic):
        _assert_close(h, g, exact)


@pytest.mark.parametrize("mu,p,dim", [pair[:3] for pair in HOIST_PAIRS] + [
    (("brownian", {"a": 2.0}), ("brownian", {"a": 1.0}), 1),
    (("brownian", {"a": A_FULL}), ("brownian", {"a": [[1.0, 0.0],
                                                      [0.0, 0.5]]}), 2),
    (("sine_diffusion", {"a": 1.0, "amplitude": 0.5}),
     ("brownian", {"a": 1.0}), 1),
    # a singular reference is a mismatch, never a failed inversion
    (("brownian", {"a": 1.0}), ("brownian", {"a": 0.0}), 1),
])
@pytest.mark.filterwarnings("ignore:divide by zero")
def test_match_check_constant_pair_compares_once(mu, p, dim):
    spec_mu = make_model(*mu, dim=dim)
    spec_p = make_model(*p, dim=dim)
    grid = TimeGrid.uniform(1.0, 16)
    ens = sample_paths(spec_mu, InitialLaw.point_mass([0.3] * dim), grid,
                       200, 4)
    generic = diffusion_match_check(_generic(spec_mu), _generic(spec_p), ens)
    assert generic.n_evaluated == 17 * 200
    for mu_side, p_side in ((spec_mu, spec_p), (spec_mu, _generic(spec_p)),
                            (_generic(spec_mu), spec_p)):
        report = diffusion_match_check(mu_side, p_side, ens)
        assert report.max_distance == generic.max_distance
        assert report.passed == generic.passed
        assert report.argmax_time == generic.argmax_time
        both = (mu_side.constant_matrix is not None
                and p_side.constant_matrix is not None)
        assert report.n_evaluated == (1 if both else generic.n_evaluated)


@pytest.mark.parametrize("mu,p,dim", [
    (("sine_diffusion", {"a": 2.0, "amplitude": 0.5}),
     ("sine_diffusion", {"a": 1.0, "amplitude": 0.5}), 1),
    HOIST_PAIRS[-1][:3],
])
def test_interval_kl_is_gaussian_kl_of_step_laws(mu, p, dim):
    # the chain's per-path term and gaussian_kl share one variance formula
    spec_mu = make_model(*mu, dim=dim)
    spec_p = make_model(*p, dim=dim)
    grid = TimeGrid.uniform(1.0, 16)
    ens = sample_paths(spec_mu, InitialLaw.point_mass([0.3] * dim), grid,
                       60, 5)
    k, dt = 4, 0.1875
    per_path = _interval_kls(
        PairCoefficients(spec_mu, spec_p, ens).interval_parts(k), dt)
    t, states = float(grid.points[k]), ens.states[:, k]
    for x, got in zip(states, per_path):
        want = gaussian_kl(euler_step_law(spec_mu, t, x, dt),
                           euler_step_law(spec_p, t, x, dt))
        assert math.isclose(got, want, rel_tol=1e-14)


@pytest.mark.parametrize("mu,p", [
    (("ou", {"gamma": 1.0, "a": 0.7}), ("brownian", {"a": 0.7})),
    (("sine_diffusion", {"a": 2.0, "amplitude": 0.5}),
     ("sine_diffusion", {"a": 1.0, "amplitude": 0.5})),
])
def test_sweep_levels_equal_per_level_chain_estimates(mu, p):
    # the sweep shares finest-level left endpoints across its levels; each
    # level must still equal its own chain_estimate exactly
    spec_mu, spec_p = make_model(*mu), make_model(*p)
    init = InitialLaw.point_mass([0.0])
    grid = TimeGrid.uniform(1.0, 32)
    sweep = refinement_sweep(spec_mu, spec_p, init, init, grid, 6,
                             n_paths=120, seed=9)
    ens = sample_paths(spec_mu, init, grid, 120, 9)
    for est, part in zip(sweep.estimates, refine_sequence(grid, 6)):
        alone = chain_estimate(spec_mu, spec_p, init, init, part,
                               ensemble=ens)
        assert est.total.value == alone.total.value
        assert est.total.std_error == alone.total.std_error
        assert [(t.value, t.std_error) for t in est.contributions] \
            == [(t.value, t.std_error) for t in alone.contributions]


def test_times_just_above_a_grid_point_are_on_the_grid():
    # 3 * 0.1 / 10 = 0.030000000000000006 lies 7e-18 above points[3]
    grid = TimeGrid.uniform(1.0, 100)
    t = 3 * 0.1 / 10
    part = Partition.from_times(grid, [0.0, t, 1.0])
    assert list(part.indices) == [0, 3, 100]
    assert part.times[1] == grid.points[3]
    spec_p = make_model("brownian", {})
    ens = sample_paths(spec_p, InitialLaw.point_mass([0.0]), grid, 20, 0)
    value, _ = step_kl(make_model("constant_drift", {"theta": 1.0}), spec_p,
                       ens, (t, 0.04))
    assert value == pytest.approx(0.5 * (0.04 - t), rel=1e-12)


# ---------------------------------------------------------------------------
# d = 1 state-dependent pairs make no LAPACK call per column


def test_sweep_1d_state_dependent_makes_no_lapack_call(linalg_calls):
    init = InitialLaw.point_mass([0.0])
    sweep = refinement_sweep(
        make_model("sine_diffusion", {"a": 2.0, "amplitude": 0.5}),
        make_model("sine_diffusion", {"a": 1.0, "amplitude": 0.5}),
        init, init, TimeGrid.uniform(1.0, 64), levels=7, n_paths=50,
        seed=3)
    assert sweep.estimates[-1].partition.n_intervals == 64
    assert linalg_calls == {"solve": 0, "slogdet": 0, "cholesky": 0}


# ---------------------------------------------------------------------------
# Memory: one walk over the finest columns holds levels x n_paths floats


@pytest.mark.parametrize("mu,p", [
    (("sine_diffusion", {"a": 2.0, "amplitude": 0.5}),
     ("sine_diffusion", {"a": 1.0, "amplitude": 0.5})),
    (("ou", {"gamma": 1.0, "a": 1.0}), ("brownian", {"a": 1.0})),
])
def test_chain_holds_levels_times_paths_floats(mu, p):
    # beyond the ensemble, a chain holds one per-path running total per
    # level and a few per-path rows of the column being read; never an
    # (n_paths, n_columns) array, which here would be 256 rows
    spec_mu, spec_p = make_model(*mu), make_model(*p)
    init = InitialLaw.point_mass([0.0])
    grid = TimeGrid.uniform(1.0, 256)
    n, levels = 4096, 9
    ens = sample_paths(spec_mu, init, grid, n, 11)
    partitions = refine_sequence(grid, levels)
    for run, held in [
            (lambda: chain_estimate(spec_mu, spec_p, init, init,
                                    partitions[-1], ensemble=ens), 1),
            (lambda: _chain_levels(spec_mu, spec_p, init, init, ens,
                                   partitions), levels)]:
        run()
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = 8 * n * (held + 16)
        assert peak < bound, (peak, bound)
