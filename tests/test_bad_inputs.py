"""Every route fails loudly on every defective law.

Rows are routes, columns are defects. Each cell names the error the route
must raise, with the law as given and as its state-dependent twin, so a
new route or shortcut cannot skip a check silently: no bad input may come
back as a finite or NaN number, or as +inf, unless the route never reads
the defective coefficient. A second table holds the verdicts of the
positive-definiteness rule at each site that asks it.
"""

import dataclasses
import math

import numpy as np
import pytest

from pathkl import (
    ArgumentError,
    CapabilityError,
    DiffusionSpec,
    DriftCorrection,
    EntropyEstimate,
    FunctionBasis,
    GaussianLaw,
    InitialLaw,
    ModelEvaluationError,
    OptimizerConfig,
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
    euler_step_law,
    fokker_planck_residual,
    gaussian_bump,
    gaussian_cell_probabilities,
    gaussian_kl,
    girsanov_entropy,
    gram_matrix,
    make_model,
    mixed_basis,
    refine_sequence,
    refinement_sweep,
    residual_energy_profile,
    sample_paths,
    step_kl,
    windowed_monomial,
)
from pathkl.diffusion import PairCoefficients

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


def _state_dependent(spec):
    """The same law without its constant matrix: every route evaluates
    a(t, x) along the paths instead of reading the hoisted matrix."""
    return dataclasses.replace(spec, constant_matrix=None)


# defect -> (mu, P); the routes that take one law get P
DEFECTS = {
    "non-pd-constant": (
        make_model("constant_drift", {"theta": 1.0, "a": -1.0}),
        make_model("brownian", {"a": -1.0})),
    "non-pd-state": (
        _state_dependent(make_model("constant_drift",
                                    {"theta": 1.0, "a": -1.0})),
        _state_dependent(make_model("brownian", {"a": -1.0}))),
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


BASIS = mixed_basis([-3.0], [3.0], 6)


def _mid_states():
    return _ensemble().states[:, 16]


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
        _ensemble(), p, BASIS),
    "fokker_planck_residual": lambda mu, p: fokker_planck_residual(
        _ensemble(), p, BASIS, 16, 8).values.sum(),
    "gram_matrix": lambda mu, p: gram_matrix(p, 0.5, _mid_states(),
                                             BASIS).matrix.sum(),
    "DriftCorrection.field": lambda mu, p: DriftCorrection(
        np.ones(BASIS.size), 0.0, 0.5, BASIS, p).field(_mid_states()).sum(),
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
OK, INF, NAN, ARG = "ok", "+inf", "nan", ArgumentError

# route -> the outcome of each defect, in DEFECTS order. cramer_rate has a
# closed form only for a driftless constant-diffusion law, so a defective
# drift or state-dependent diffusion is outside its capability. The Gram
# matrix and the correction field read no drift, so a defective drift
# leaves them finite (OK).
EXPECTED = {
    "girsanov":               (PD, PD,  ME, ME,  ME, ME),
    "chain":                  (PD, PD,  ME, ME,  ME, ME),
    "sweep":                  (PD, PD,  ME, ME,  ME, ME),
    "sample_paths":           (PD, PD,  ME, ME,  ME, ME),
    "residual-energy":        (PD, PD,  ME, ME,  ME, ME),
    "fokker_planck_residual": (PD, PD,  ME, ME,  ME, ME),
    "gram_matrix":            (PD, PD,  ME, OK,  ME, OK),
    "DriftCorrection.field":  (PD, PD,  ME, OK,  ME, OK),
    "dv-marginal":            (PD, PD,  ME, ME,  ME, ME),
    "empirical_rate":         (PD, PD,  ME, ME,  ME, ME),
    "cramer_rate":            (PD, CAP, ME, CAP, CAP, CAP),
}

CELLS = [(route, defect, error)
         for route, errors in EXPECTED.items()
         for defect, error in zip(DEFECTS, errors, strict=True)]


def test_table_covers_every_route():
    assert set(EXPECTED) == set(ROUTES)


@pytest.mark.parametrize("route,defect,error", CELLS,
                         ids=[f"{r}-{d}" for r, d, _ in CELLS])
def test_every_route_raises_on_every_defect(route, defect, error):
    # each law also runs as its state-dependent twin, but for cramer_rate,
    # whose closed form needs the constant matrix
    mu, p = DEFECTS[defect]
    laws = [(mu, p)]
    if route != "cramer_rate":
        laws.append((_state_dependent(mu), _state_dependent(p)))
    for mu, p in laws:
        assert _outcome(lambda: ROUTES[route](mu, p)) == error


def test_nan_and_inf_are_named_apart():
    # a NaN keeps the words the NaN checks have always used
    ens = _ensemble()
    part = Partition.from_times(GRID, [0.0, 0.5, 1.0])
    with pytest.raises(ME, match=r"is NaN on some path at t = 0\.5"):
        chain_estimate(*DEFECTS["nan-drift"], INIT, INIT, part, ensemble=ens)
    with pytest.raises(ME, match=r"is infinite on some path at t = 0\.5"):
        chain_estimate(*DEFECTS["inf-drift"], INIT, INIT, part, ensemble=ens)


# The positive-definiteness rule: one verdict per law at every site that
# asks it. Each column is a diffusion matrix A; the 1 x 1 columns take the
# per-path closed forms, the 2 x 2 ones LAPACK. A site that takes models
# runs the law with its constant matrix and as the state-dependent twin,
# and every site runs A, 5e-11 A and 1e-300 A. A cell lists every outcome
# over those runs, so a single outcome means one verdict for them all.
PD_COLUMNS = {
    "1": np.eye(1),
    "0": np.zeros((1, 1)),
    "-1": -np.eye(1),
    "nan": np.full((1, 1), np.nan),
    "I2": np.eye(2),
    "0_2": np.zeros((2, 2)),
    "-I2": -np.eye(2),
    "nan_2": np.array([[1.0, np.nan], [np.nan, 1.0]]),
    # Cholesky reads the lower triangle only: the sampler drew covariance
    # [[1, .5], [.5, 1.25]] while the estimators solved against this
    "asymmetric": np.array([[1.0, 0.0], [0.5, 1.0]]),
    # smallest eigenvalue 5e-7 A: an absolute eigenvalue floor of 1e-10
    # accepted it at scale 1 only
    "near-singular": np.array([[1.0, 1.0], [1.0, 1.0 + 1e-6]]),
}
PD_SCALES = (1.0, 5e-11, 1e-300)
PD_GRID = TimeGrid.uniform(1.0, 32)


def _pd_ensemble(d):
    return sample_paths(make_model("brownian", {}, dim=d),
                        InitialLaw.point_mass([0.0] * d), PD_GRID, 40, 5)


PD_ENSEMBLES = {1: _pd_ensemble(1), 2: _pd_ensemble(2)}


def _pd_basis(d):
    lo, hi = [-3.0] * d, [3.0] * d
    if d == 1:
        return mixed_basis(lo, hi, 6)
    return FunctionBasis((gaussian_bump([0.0, 0.0], 1.0, lo, hi),
                          windowed_monomial([1, 0], lo, hi),
                          windowed_monomial([0, 1], lo, hi)), lo, hi)


def _pd_laws(a, representation):
    """(mu, P): a constant drift against Brownian motion, both with the
    diffusion matrix a."""
    d = a.shape[0]
    laws = (make_model("constant_drift", {"theta": 1.0, "a": a}, dim=d),
            make_model("brownian", {"a": a}, dim=d))
    if representation == "state":
        laws = tuple(_state_dependent(spec) for spec in laws)
    return laws


def _point(d):
    return InitialLaw.point_mass([0.0] * d)


# site -> a run of (mu, P, d) on the sampled paths
PD_MODEL_SITES = {
    "sample_paths": lambda mu, p, d: sample_paths(p, _point(d), PD_GRID, 8,
                                                  0),
    "euler_step_law": lambda mu, p, d: euler_step_law(p, 0.0, np.zeros(d),
                                                      0.1),
    "girsanov": lambda mu, p, d: girsanov_entropy(
        mu, p, _point(d), _point(d), PD_ENSEMBLES[d]).value,
    "chain": lambda mu, p, d: chain_estimate(
        mu, p, _point(d), _point(d),
        Partition.from_times(PD_GRID, [0.0, 0.5, 1.0]),
        ensemble=PD_ENSEMBLES[d]).total.value,
    "step_kl": lambda mu, p, d: step_kl(mu, p, PD_ENSEMBLES[d],
                                        (0.5, 1.0))[0],
    "residual-energy": lambda mu, p, d: residual_energy_profile(
        PD_ENSEMBLES[d], p, _pd_basis(d)).integral,
    "fokker_planck_residual": lambda mu, p, d: fokker_planck_residual(
        PD_ENSEMBLES[d], p, _pd_basis(d), 16, 8).values.sum(),
}


def _law(cov):
    return GaussianLaw(np.zeros(cov.shape[0]), cov)


def _variance_part(a_P, a_mu):
    """The variance part of a constant pair: variance_part of the matrices
    that their constant_factor checked."""
    d = a_P.shape[0]
    return float(PairCoefficients(make_model("brownian", {"a": a_mu}, dim=d),
                                  make_model("brownian", {"a": a_P}, dim=d),
                                  PD_ENSEMBLES[d]).fixed)


# site -> a run of (A, the identity at A's scale)
PD_MATRIX_SITES = {
    "variance_part-ref": lambda a, i: _variance_part(a, i),
    "variance_part-ens": lambda a, i: _variance_part(i, a),
    "gaussian_kl-ref": lambda a, i: gaussian_kl(_law(i), _law(a)),
    "gaussian_kl-p": lambda a, i: gaussian_kl(_law(a), _law(i)),
    "cell-probs": lambda a, i: gaussian_cell_probabilities(_law(a)),
    "oracle": lambda a, i: analytic_entropy(ScenarioOracle(
        "constant_drift_vs_brownian",
        {"theta": [1.0] * a.shape[0], "a": a.tolist()})),
}

# A NaN matrix passes the PD rule and is refused as not finite (ME) by
# matrix_at and constant_factor, in either representation. variance_part
# takes matrices that passed the rule, so its rows read it through a
# constant pair, whose constant_factor checks both sides. GaussianLaw's
# covariance rule refuses an indefinite or asymmetric covariance (ARG) at
# TOL_LINALG · max |entry|, at every scale, and admits a singular one,
# which the PD rule refuses (PD, or +inf for gaussian_kl's p) unless the
# cell rule refuses its near-dependence (CAP). The match check runs first
# in girsanov and finds no distance between two zero matrices (ME).
PD_VERDICTS = {
    #                          1     0      -1     nan    I2    0_2
    #                          -I2    nan_2  asymmetric  near-singular
    "sample_paths":           ({OK}, {PD},  {PD},  {ME},  {OK}, {PD},
                               {PD},  {ME},  {PD},       {OK}),
    "euler_step_law":         ({OK}, {PD},  {PD},  {ME},  {OK}, {PD},
                               {PD},  {ME},  {PD},       {OK}),
    "girsanov":               ({OK}, {ME},  {PD},  {ME},  {OK}, {ME},
                               {PD},  {ME},  {PD},       {OK}),
    "chain":                  ({OK}, {PD},  {PD},  {ME},  {OK}, {PD},
                               {PD},  {ME},  {PD},       {OK}),
    "step_kl":                ({OK}, {PD},  {PD},  {ME},  {OK}, {PD},
                               {PD},  {ME},  {PD},       {OK}),
    "residual-energy":        ({OK}, {PD},  {PD},  {ME},  {OK}, {PD},
                               {PD},  {ME},  {PD},       {OK}),
    "fokker_planck_residual": ({OK}, {PD},  {PD},  {ME},  {OK}, {PD},
                               {PD},  {ME},  {PD},       {OK}),
    "variance_part-ref":      ({OK}, {PD},  {PD},  {ME},  {OK}, {PD},
                               {PD},  {ME},  {PD},       {OK}),
    "variance_part-ens":      ({OK}, {PD},  {PD},  {ME},  {OK}, {PD},
                               {PD},  {ME},  {PD},       {OK}),
    "gaussian_kl-ref":        ({OK}, {PD},  {ARG}, {ARG}, {OK}, {PD},
                               {ARG}, {ARG}, {ARG},      {OK}),
    "gaussian_kl-p":          ({OK}, {INF}, {ARG}, {ARG}, {OK}, {INF},
                               {ARG}, {ARG}, {ARG},      {OK}),
    "cell-probs":             ({OK}, {PD},  {ARG}, {ARG}, {OK}, {PD},
                               {ARG}, {ARG}, {ARG},      {CAP}),
    "oracle":                 ({OK}, {ARG}, {ARG}, {ARG}, {OK}, {ARG},
                               {ARG}, {ARG}, {ARG},      {OK}),
}
PD_CELLS = [(site, column, verdict)
            for site, verdicts in PD_VERDICTS.items()
            for column, verdict in zip(PD_COLUMNS, verdicts, strict=True)]


def _outcome(run):
    """OK, INF, NAN or the class of the error the run raised."""
    try:
        value = run()
    except (ArgumentError, CapabilityError, ME, PD) as exc:
        return type(exc)
    if isinstance(value, float) and not math.isfinite(value):
        return INF if math.isinf(value) else NAN
    return OK


def test_verdict_table_covers_every_site():
    assert set(PD_VERDICTS) == set(PD_MODEL_SITES) | set(PD_MATRIX_SITES)


@pytest.mark.parametrize("site,column,verdict", PD_CELLS,
                         ids=[f"{s}-{c}" for s, c, _ in PD_CELLS])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_one_pd_verdict_per_law(site, column, verdict):
    a = PD_COLUMNS[column]
    d = a.shape[0]
    outcomes = set()
    for scale in PD_SCALES:
        if site in PD_MODEL_SITES:
            for representation in ("constant", "state"):
                mu, p = _pd_laws(scale * a, representation)
                outcomes.add(_outcome(
                    lambda: PD_MODEL_SITES[site](mu, p, d)))
        else:
            outcomes.add(_outcome(lambda: PD_MATRIX_SITES[site](
                scale * a, scale * np.eye(d))))
    assert outcomes == verdict


# constructor -> a build of one value, and the finite value out of its
# range: a covariance entry that makes it indefinite, a bump_span end
# outside the box, a negative diffusion constant or tolerance, no iteration
CONSTRUCTORS = {
    "GaussianLaw": (lambda v: GaussianLaw(np.zeros(2), [[1.0, 0.0],
                                                         [0.0, v]]), -1.0),
    "InitialLaw.gaussian": (lambda v: InitialLaw.gaussian(
        np.zeros(2), [[1.0, 0.0], [0.0, v]]), -1.0),
    "mixed_basis": (lambda v: mixed_basis([-1.0], [1.0], 3,
                                          bump_span=(0.0, v)), 5.0),
    "analytic_entropy": (lambda v: analytic_entropy(ScenarioOracle(
        "constant_drift_vs_brownian", {"a": v})), -1.0),
    "OptimizerConfig.gtol": (lambda v: OptimizerConfig(gtol=v), -1.0),
    "OptimizerConfig.plateau_rtol": (
        lambda v: OptimizerConfig(plateau_rtol=v), -1.0),
    "OptimizerConfig.max_iter": (lambda v: OptimizerConfig(max_iter=v), 0),
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


# argument -> a call with one value of it, and its finite value out of
# range; a key "route.name" is the argument name of that route. z has no
# real value out of range, so its row takes a complex one.
ARGUMENTS = {
    "tol_match": (lambda v: girsanov_entropy(
        make_model("brownian", {}), make_model("brownian", {}), INIT, INIT,
        _ensemble(), tol_match=v), -1.0),
    "window": (lambda v: residual_energy_profile(
        _ensemble(), make_model("brownian", {}), BASIS, window=v), 1.5),
    "stride": (lambda v: residual_energy_profile(
        _ensemble(), make_model("brownian", {}), BASIS, stride=v), 1.5),
    "fokker_planck_residual.t_index": (lambda v: fokker_planck_residual(
        _ensemble(), make_model("brownian", {}), BASIS, v, 8), 16.0),
    "fokker_planck_residual.window": (lambda v: fokker_planck_residual(
        _ensemble(), make_model("brownian", {}), BASIS, 16, v), 1.5),
    "sample_paths.stride": (lambda v: sample_paths(
        make_model("brownian", {}), INIT, GRID, 200, 5, stride=v), 0),
    "sample_paths.first": (lambda v: sample_paths(
        make_model("brownian", {}), INIT, GRID, 200, 5, first=v), 200),
    "sample_paths.out": (lambda v: sample_paths(
        make_model("brownian", {}), INIT, GRID, 200, 5, out=v),
        np.empty(200 * GRID.points.shape[0] - 1)),
    "cramer_rate.z": (lambda v: cramer_rate(make_model("brownian", {}), v,
                                            1.0), 1j),
    "cramer_rate.horizon": (lambda v: cramer_rate(
        make_model("brownian", {}), 1.0, v), 0.0),
    "refine_sequence.levels": (lambda v: refine_sequence(GRID, v), 2.5),
}


@pytest.mark.parametrize("column", ["nan", "inf", "out-of-range", "bool"])
@pytest.mark.parametrize("argument", ARGUMENTS)
def test_every_argument_refuses_every_bad_value(argument, column):
    # a NaN tol_match turned a matched pair into a "diffusion mismatch"
    # +inf, a NaN divergence threshold never flagged, and a window of 1.5
    # raised TypeError; fokker_planck_residual's window of 1.5 and t_index
    # of 16.0 raised IndexError and a t_index of True TypeError, and
    # cramer_rate read a NaN z or horizon as nan, an infinite horizon as 0
    # and a z of True as 1
    call, bad = ARGUMENTS[argument]
    name = argument.split(".")[-1]
    with pytest.raises(ArgumentError, match=rf"\b{name}\b"):
        call({"nan": np.nan, "inf": np.inf, "out-of-range": bad,
              "bool": True}[column])


@pytest.mark.parametrize("value,std_error", [(np.nan, 0.0), (0.5, np.nan)],
                         ids=["value", "std_error"])
def test_no_estimate_is_nan(value, std_error):
    # the net under every route: a NaN that slips past a route's own
    # checks is refused where the estimate is made
    with pytest.raises(ValueError, match="is NaN"):
        EntropyEstimate(value, std_error, "test")
