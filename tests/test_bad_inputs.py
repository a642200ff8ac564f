"""Every route fails loudly on every defective law.

Rows are routes, columns are defects. Each cell names the error the route
must raise, so a new route or shortcut cannot skip a check silently: no
bad input may come back as a finite or NaN number, or as +inf.
"""

import numpy as np
import pytest

from pathkl import (
    ArgumentError,
    CapabilityError,
    DiffusionSpec,
    EntropyEstimate,
    GaussianLaw,
    InitialLaw,
    ModelEvaluationError,
    Partition,
    PositiveDefinitenessError,
    RateExperiment,
    ScenarioOracle,
    TimeGrid,
    analytic_entropy,
    chain_estimate,
    cramer_rate,
    dv_estimate,
    empirical_rate,
    girsanov_entropy,
    make_model,
    mixed_basis,
    refinement_sweep,
    residual_energy_profile,
    sample_paths,
)

GRID = TimeGrid.uniform(1.0, 32)
INIT = InitialLaw.point_mass([0.0])


def _masked(drift_value=None, diffusion_value=None):
    """A 1-d custom reference: zero drift and unit diffusion, with the drift
    or the diffusion replaced by the given value where x > 0.3."""
    def drift(t, x):
        out = np.zeros_like(x)
        if drift_value is not None:
            out[x[..., 0] > 0.3] = drift_value
        return out

    def diffusion(t, x):
        out = np.ones(x.shape[:-1] + (1, 1))
        if diffusion_value is not None:
            out[x[..., 0] > 0.3, 0, 0] = diffusion_value
        return out

    return DiffusionSpec(
        dim=1, drift=drift, diffusion_matrix=diffusion,
        constant_matrix=np.eye(1) if diffusion_value is None else None)


# defect -> (mu, P); the routes that take one law get P
DEFECTS = {
    "non-pd-constant": (
        make_model("constant_drift", {"theta": 1.0, "a": -1.0}),
        make_model("brownian", {"a": -1.0})),
    "nan-constant": (
        make_model("constant_drift", {"theta": 1.0, "a": np.nan}),
        make_model("brownian", {"a": np.nan})),
    "nan-drift": (make_model("brownian", {}), _masked(drift_value=np.nan)),
    "nan-diffusion": (make_model("brownian", {}),
                      _masked(diffusion_value=np.nan)),
    "inf-drift": (make_model("brownian", {}), _masked(drift_value=np.inf)),
}


def _ensemble():
    return sample_paths(make_model("brownian", {}), INIT, GRID, 200, 5)


ROUTES = {
    "girsanov": lambda mu, p: girsanov_entropy(mu, p, INIT, INIT,
                                               _ensemble()),
    "chain": lambda mu, p: chain_estimate(
        mu, p, INIT, INIT, Partition.from_times(GRID, [0.0, 0.5, 1.0]),
        ensemble=_ensemble()),
    "sweep": lambda mu, p: refinement_sweep(mu, p, INIT, INIT, GRID, 3,
                                            200, 5),
    "sample_paths": lambda mu, p: sample_paths(p, INIT, GRID, 200, 5),
    "residual-energy": lambda mu, p: residual_energy_profile(
        _ensemble(), p, mixed_basis([-3.0], [3.0], 6)),
    "dv-marginal": lambda mu, p: dv_estimate(
        sample_paths(mu, INIT, GRID, 200, 5).states[:, -1],
        sample_paths(p, INIT, GRID, 200, 6).states[:, -1]),
    "empirical_rate": lambda mu, p: empirical_rate(
        p, INIT, GRID, RateExperiment("terminal", 1.0, (2, 5), trials=200,
                                      seed=0)),
    "cramer_rate": lambda mu, p: cramer_rate(p, 1.0, 1.0),
}

PD = PositiveDefinitenessError
ME = ModelEvaluationError
CAP = CapabilityError

# route -> the error of each defect, in DEFECTS order. cramer_rate has a
# closed form only for a driftless constant-diffusion law, so a defective
# drift or state-dependent diffusion is outside its capability.
EXPECTED = {
    "girsanov":        (PD, ME, ME, ME, ME),
    "chain":           (PD, PD, ME, ME, ME),
    "sweep":           (PD, PD, ME, ME, ME),
    "sample_paths":    (PD, PD, ME, ME, ME),
    "residual-energy": (PD, ME, ME, ME, ME),
    "dv-marginal":     (PD, PD, ME, ME, ME),
    "empirical_rate":  (PD, PD, ME, ME, ME),
    "cramer_rate":     (PD, PD, CAP, CAP, CAP),
}

CELLS = [(route, defect, error)
         for route, errors in EXPECTED.items()
         for defect, error in zip(DEFECTS, errors, strict=True)]


def test_table_covers_every_route():
    assert set(EXPECTED) == set(ROUTES)


@pytest.mark.parametrize("route,defect,error", CELLS,
                         ids=[f"{r}-{d}" for r, d, _ in CELLS])
@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_every_route_raises_on_every_defect(route, defect, error):
    mu, p = DEFECTS[defect]
    with pytest.raises(error):
        ROUTES[route](mu, p)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_nan_and_inf_are_named_apart():
    # a NaN keeps the words the NaN checks have always used
    ens = _ensemble()
    part = Partition.from_times(GRID, [0.0, 0.5, 1.0])
    with pytest.raises(ME, match=r"is NaN on some path at t = 0\.5"):
        chain_estimate(*DEFECTS["nan-drift"], INIT, INIT, part, ensemble=ens)
    with pytest.raises(ME, match=r"is infinite on some path at t = 0\.5"):
        chain_estimate(*DEFECTS["inf-drift"], INIT, INIT, part, ensemble=ens)


# constructor -> a build of one value, and the finite value out of its
# range: a covariance entry that makes it indefinite, a bump_span end
# outside the box, a negative diffusion constant
CONSTRUCTORS = {
    "GaussianLaw": (lambda v: GaussianLaw(np.zeros(2), [[1.0, 0.0],
                                                         [0.0, v]]), -1.0),
    "InitialLaw.gaussian": (lambda v: InitialLaw.gaussian(
        np.zeros(2), [[1.0, 0.0], [0.0, v]]), -1.0),
    "mixed_basis": (lambda v: mixed_basis([-1.0], [1.0], 3,
                                          bump_span=(0.0, v)), 5.0),
    "analytic_entropy": (lambda v: analytic_entropy(ScenarioOracle(
        "constant_drift_vs_brownian", {"a": v})), -1.0),
}


@pytest.mark.parametrize("column", ["nan", "inf", "out-of-range"])
@pytest.mark.parametrize("constructor", CONSTRUCTORS)
def test_every_constructor_refuses_every_bad_value(constructor, column):
    # each used to build: a NaN or negative covariance a law whose KL, cell
    # probabilities or draws were plausible numbers, a span off the box a
    # basis that reads 0 there, a negative a an oracle value of -0.5
    build, bad = CONSTRUCTORS[constructor]
    with pytest.raises(ArgumentError):
        build({"nan": np.nan, "inf": np.inf, "out-of-range": bad}[column])


@pytest.mark.parametrize("value,std_error", [(np.nan, 0.0), (0.5, np.nan)],
                         ids=["value", "std_error"])
def test_no_estimate_is_nan(value, std_error):
    # the net under every route: a NaN that slips past a route's own
    # checks is refused where the estimate is made
    with pytest.raises(ValueError, match="is NaN"):
        EntropyEstimate(value, std_error, "test")
