"""Empirical large-deviation rates against the quadratic closed form."""

import math

import numpy as np
import pytest
from scipy.stats import norm

from pathkl import (
    ArgumentError,
    CapabilityError,
    DiffusionSpec,
    InitialLaw,
    InsufficientSamplingError,
    ModelEvaluationError,
    PositiveDefinitenessError,
    RateExperiment,
    TimeGrid,
    cramer_rate,
    empirical_rate,
    make_model,
)


def _bm_setup(steps=16):
    return (make_model("brownian", {}), InitialLaw.point_mass([0.0]),
            TimeGrid.uniform(1.0, steps))


def _finite_n_rate(z, n):
    """Exact exceedance rate for the terminal value of driftless unit
    diffusion: the N-sample mean is Gaussian with variance 1/N."""
    p = norm.sf(z * math.sqrt(n))
    return -math.log(p) / n


# ---------------------------------------------------------------------------
# experiment validation


def test_experiment_validation():
    with pytest.raises(ArgumentError):
        RateExperiment("median", 1.0, (5, 10))
    with pytest.raises(ArgumentError):
        RateExperiment("terminal", 1.0, (10, 5))
    with pytest.raises(ArgumentError):
        RateExperiment("terminal", 1.0, (5, 5))
    with pytest.raises(ArgumentError):
        RateExperiment("terminal", 1.0, (0, 5))
    with pytest.raises(ArgumentError):
        RateExperiment("terminal", 1.0, ())
    with pytest.raises(ArgumentError):
        RateExperiment("terminal", 1.0, (5, 10), trials=50)


@pytest.mark.parametrize("seed", [2 ** 63, 2 ** 63 + 1, 2 ** 64 - 1, 2 ** 64,
                                  -2 ** 63 - 1])
def test_experiment_rejects_seeds_outside_int64(seed):
    # seeds at or above 2**63 would key Philox at float64 precision
    with pytest.raises(ArgumentError, match="seed"):
        RateExperiment("terminal", 1.0, (5, 10), seed=seed)


@pytest.mark.parametrize("seed", [2 ** 63 - 1, -2 ** 63, -1])
def test_experiment_accepts_int64_seeds(seed):
    assert RateExperiment("terminal", 1.0, (5, 10), seed=seed).seed == seed


# ---------------------------------------------------------------------------
# closed-form rate


def test_cramer_zero_threshold():
    spec, _, grid = _bm_setup()
    assert cramer_rate(spec, 0.0, 1.0) == 0.0


def test_cramer_reference_values():
    spec, _, _ = _bm_setup()
    assert cramer_rate(spec, 1.0, 1.0) == pytest.approx(0.5, abs=1e-15)
    assert cramer_rate(spec, 2.0, 4.0) == pytest.approx(0.5, abs=1e-15)
    assert cramer_rate(spec, 2.0, 1.0) == pytest.approx(2.0, abs=1e-15)


def test_cramer_diffusion_scaling():
    spec = make_model("brownian", {"a": 2.0})
    assert cramer_rate(spec, 1.0, 1.0) == pytest.approx(0.25, abs=1e-15)


def test_cramer_capability_limits():
    with pytest.raises(CapabilityError):
        cramer_rate(make_model("ou", {"gamma": 1.0}), 1.0, 1.0)
    with pytest.raises(CapabilityError):
        cramer_rate(make_model("constant_drift", {"theta": 1.0}), 1.0, 1.0)
    with pytest.raises(CapabilityError):
        cramer_rate(make_model("sine_diffusion", {}), 1.0, 1.0)
    with pytest.raises(CapabilityError):
        cramer_rate(make_model("brownian", {}, dim=2), 1.0, 1.0)


# ---------------------------------------------------------------------------
# Monte Carlo table


def test_threshold_below_bulk_gives_tiny_rates():
    spec, init, grid = _bm_setup()
    exp = RateExperiment("terminal", -10.0, (2, 5), trials=500, seed=0)
    table = empirical_rate(spec, init, grid, exp)
    for row in table.rows:
        assert row.p_hat == 1.0
        assert row.rate == 0.0


def test_rates_match_exact_finite_n():
    spec, init, grid = _bm_setup()
    exp = RateExperiment("terminal", 1.0, (2, 5, 10), trials=10_000,
                         seed=0)
    table = empirical_rate(spec, init, grid, exp)
    for row in table.rows:
        exact = _finite_n_rate(1.0, row.n)
        assert not row.zero_count
        assert row.rate == pytest.approx(exact,
                                         abs=max(3 * row.std_error, 0.01))
        assert row.oracle == pytest.approx(0.5, abs=1e-15)


def test_rates_decrease_toward_oracle():
    spec, init, grid = _bm_setup()
    exp = RateExperiment("terminal", 1.0, (2, 5, 10), trials=10_000,
                         seed=1)
    table = empirical_rate(spec, init, grid, exp)
    rows = table.rows
    for lo, hi in zip(rows[1:], rows):
        slack = 2 * math.hypot(lo.std_error, hi.std_error)
        assert lo.rate <= hi.rate + slack
    assert rows[-1].rate >= rows[-1].oracle - 2 * rows[-1].std_error


def test_zero_count_row_flagged():
    spec, init, grid = _bm_setup()
    exp = RateExperiment("terminal", 1.0, (2, 40), trials=1000, seed=0)
    table = empirical_rate(spec, init, grid, exp)
    assert not table.rows[0].zero_count
    # P(mean of 40 > 1) ~ 1e-10: certain zero at this budget
    assert table.rows[1].zero_count
    assert table.rows[1].rate == math.inf
    assert table.rows[1].std_error == math.inf


def test_all_zero_counts_raise():
    spec, init, grid = _bm_setup()
    exp = RateExperiment("terminal", 6.0, (10,), trials=200, seed=0)
    with pytest.raises(InsufficientSamplingError):
        empirical_rate(spec, init, grid, exp)


def test_rate_monotone_in_threshold():
    spec, init, grid = _bm_setup()
    out = {}
    for z in (0.5, 1.0):
        exp = RateExperiment("terminal", z, (5,), trials=5000, seed=2)
        out[z] = empirical_rate(spec, init, grid, exp).rows[0].rate
    assert out[1.0] > out[0.5]


def test_thread_count_does_not_change_counts():
    spec, init, grid = _bm_setup()
    exp = RateExperiment("terminal", 1.0, (2, 5), trials=2000, seed=3)
    t1 = empirical_rate(spec, init, grid, exp, threads=1)
    t4 = empirical_rate(spec, init, grid, exp, threads=4)
    assert [r.count for r in t1.rows] == [r.count for r in t4.rows]
    assert [r.rate for r in t1.rows] == [r.rate for r in t4.rows]


def test_time_average_observable():
    # time average of driftless unit diffusion ~ N(0, T/3)
    spec, init, grid = _bm_setup(steps=64)
    exp = RateExperiment("time_average", 0.5, (2, 4), trials=10_000,
                         seed=4)
    table = empirical_rate(spec, init, grid, exp)
    for row in table.rows:
        sd = math.sqrt(1.0 / 3.0 / row.n)
        exact = -math.log(norm.sf(0.5 / sd)) / row.n
        assert row.rate == pytest.approx(exact,
                                         abs=max(4 * row.std_error, 0.02))
        # the quadratic closed form covers the terminal observable only
        assert row.oracle is None


def test_oracle_column_attached_and_optional():
    spec, init, grid = _bm_setup()
    exp = RateExperiment("terminal", 1.0, (2,), trials=500, seed=5)
    with_o = empirical_rate(spec, init, grid, exp)
    without = empirical_rate(spec, init, grid, exp, with_oracle=False)
    assert with_o.rows[0].oracle == pytest.approx(0.5)
    assert without.rows[0].oracle is None
    assert with_o.rows[0].count == without.rows[0].count


def test_oracle_silently_skipped_when_unavailable():
    grid = TimeGrid.uniform(1.0, 16)
    spec = make_model("ou", {"gamma": 0.2})
    exp = RateExperiment("terminal", 0.5, (2,), trials=2000, seed=6)
    table = empirical_rate(spec, InitialLaw.point_mass([0.0]), grid, exp)
    assert table.rows[0].oracle is None
    assert table.rows[0].rate > 0.0


# ---------------------------------------------------------------------------
# trials share the sampler's path checks


def test_negative_diffusion_raises():
    _, init, grid = _bm_setup()
    spec = make_model("brownian", {"a": -1.0})
    exp = RateExperiment("terminal", 1.0, (2, 5), trials=200, seed=0)
    with pytest.raises(PositiveDefinitenessError):
        empirical_rate(spec, init, grid, exp)


def test_cramer_rate_rejects_non_pd_matrix():
    # a = -1 used to give the negative rate -0.5
    with pytest.raises(PositiveDefinitenessError):
        cramer_rate(make_model("brownian", {"a": -1.0}), 1.0, 1.0)


def test_initial_dimension_mismatch_raises():
    # a 1-d start state would broadcast over both coordinates of a 2-d model
    _, init, grid = _bm_setup()
    spec = make_model("brownian", {}, dim=2)
    exp = RateExperiment("terminal", 0.5, (1, 2), trials=100, seed=0)
    with pytest.raises(ArgumentError):
        empirical_rate(spec, init, grid, exp)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_overflowing_drift_raises():
    _, init, grid = _bm_setup()
    base = make_model("brownian", {})
    spec = DiffusionSpec(
        dim=1, drift=lambda t, x: 1e300 * (1.0 + np.abs(x)),
        diffusion_matrix=base.diffusion_matrix, model_id="blowup",
        constant_matrix=base.constant_matrix)
    exp = RateExperiment("terminal", 1.0, (2, 5), trials=200, seed=0)
    with pytest.raises(ModelEvaluationError):
        empirical_rate(spec, init, grid, exp)


# ---------------------------------------------------------------------------
# pinned counts: trials run through the shared simulator in batches, and
# these counts were recorded from the former per-trial loop. Trial counts
# and sample sizes are chosen so that no batch boundary falls on a trial
# boundary of the previous layout (1000 trials, n = 3 or 7, and so on).
# One row each of seeds 12, 13 and 14 derives a row seed at or above 2**63;
# those counts were re-pinned (170 -> 182, 12 -> 9, 98 -> 96) when Philox
# keys took the full 64 bits of a derived seed.


def _pinned_cases():
    return [
        ("brownian", {}, 1, InitialLaw.point_mass([0.0]), 16,
         RateExperiment("terminal", 0.5, (3, 7), trials=1000, seed=11),
         [175, 121]),
        ("brownian", {}, 1, InitialLaw.point_mass([0.0]), 20,
         RateExperiment("time_average", 0.3, (2, 5), trials=700, seed=12),
         [182, 91]),
        ("brownian", {"a": 2.0}, 1, InitialLaw.point_mass([0.0]), 16,
         RateExperiment("terminal", 0.6, (3, 7), trials=1000, seed=21),
         [251, 127]),
        ("ou", {"gamma": 1.5, "a": 0.5}, 1,
         InitialLaw.gaussian([0.2], [[0.3]]), 10,
         RateExperiment("terminal", 0.4, (3, 6), trials=500, seed=13),
         [43, 9]),
        ("ou", {"gamma": 1.0}, 1, InitialLaw.gaussian([0.0], [[1.0]]), 16,
         RateExperiment("time_average", 0.3, (3, 7), trials=1000, seed=16),
         [226, 143]),
        ("sine_diffusion", {"a": 1.0}, 1,
         InitialLaw.empirical([-0.5, 0.0, 0.3, 1.1]), 12,
         RateExperiment("time_average", 0.4, (5,), trials=300, seed=14),
         [96]),
        ("brownian", {"a": [[2.0, 0.5], [0.5, 1.0]]}, 2,
         InitialLaw.gaussian([0.1, -0.2], [[0.3, 0.1], [0.1, 0.2]]), 8,
         RateExperiment("terminal", 0.5, (3,), trials=400, seed=15),
         [129]),
    ]


@pytest.mark.parametrize("case", _pinned_cases(),
                         ids=lambda c: f"{c[0]}-{c[5].observable}-"
                                       f"{c[3].kind}-seed{c[5].seed}")
def test_pinned_counts(case):
    model_id, params, dim, init, steps, exp, counts = case
    spec = make_model(model_id, params, dim=dim)
    grid = TimeGrid.uniform(1.0, steps)
    table = empirical_rate(spec, init, grid, exp, with_oracle=False)
    assert [r.count for r in table.rows] == counts
    table2 = empirical_rate(spec, init, grid, exp, threads=3,
                            with_oracle=False)
    assert [r.count for r in table2.rows] == counts
