"""Closed-form path-space relative entropy for matched diffusions.

When the two models share their diffusion matrix along the ensemble, the
path-space relative entropy is the initial-law term plus half the expected
time integral of the squared drift gap in the inverse-diffusion-weighted
norm. A diffusion mismatch makes the laws mutually singular, so the
estimator short-circuits to +inf with the match report attached.

The module also carries closed-form oracle values for the scenarios with
known answers; they exist so every Monte Carlo route can be validated
against an independent expression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .diffusion import (
    DiffusionSpec,
    InitialLaw,
    PairCoefficients,
    PathEnsemble,
    check_number,
    diffusion_match_check,
    param,
    positive_definite,
    probe_stride,
    read_blocks,
)
from .errors import (ArgumentError, CapabilityError, ModelEvaluationError,
                     PositiveDefinitenessError)
from .estimates import EntropyEstimate, path_mean_and_se, path_space_estimate
from .marginal import initial_entropy

__all__ = [
    "girsanov_entropy",
    "ScenarioOracle",
    "analytic_entropy",
    "scenario_ids",
]


def _drift_gap_energy(spec_mu: DiffusionSpec, spec_P: DiffusionSpec,
                      paths) -> np.ndarray:
    """Per-path trapezoidal integral of |b - e|^2 weighted by a^{-1}.

    paths is a PathEnsemble, or any source of one that read_blocks reads
    (pathkl run samples each block as it is read). Each block's m
    trapezoid half-sums are written as its columns are walked, then
    summed per path, the arithmetic of np.trapezoid on the whole
    integrand. A block is dropped before the next is read, so neither the
    (n, m + 1) integrand nor, from a source, the ensemble is held whole.
    Each path's integral does not depend on the block size. A block with a
    non-finite integral has its columns scanned, so that, through
    read_blocks, an error names the earliest grid time where any path
    fails; an integral that overflows with finite columns stays inf.

    Raises:
        ModelEvaluationError: the integrand is NaN or infinite on some path;
            the message says NaN if that time holds a NaN on some path.
        PositiveDefinitenessError, ModelEvaluationError: as matrix_at, for
            a state-dependent reference diffusion on some path.
    """
    dt = np.diff(paths.grid.points)
    out = np.empty(paths.n_paths)

    def work(block: PathEnsemble, lo: int, hi: int) -> None:
        pair = PairCoefficients(spec_mu, spec_P, block)
        if not _block_energy(pair, dt, out[lo:hi]):
            for k in range(dt.size + 1):
                pair.drift_term(k)

    read_blocks(paths, dt.size + 1, work)
    return out


def _block_energy(pair: PairCoefficients, dt: np.ndarray,
                  out: np.ndarray) -> bool:
    """Write each path's drift-gap integral into out, through its half-sums;
    whether all are finite (False if a coefficient raised)."""
    half = np.empty((out.shape[0], dt.size))
    try:
        q = pair.drift_quad(0)
        for k, step in enumerate(dt):
            q_next = pair.drift_quad(k + 1)
            h = q + q_next
            h *= step
            h /= 2.0
            half[:, k] = h
            q = q_next
    except (ModelEvaluationError, PositiveDefinitenessError):
        return False
    # a non-finite half-sum makes its path's sum non-finite
    return bool(np.isfinite(half.sum(axis=1, out=out)).all())


def girsanov_entropy(spec_mu: DiffusionSpec, spec_P: DiffusionSpec,
                     init_mu: InitialLaw, init_P: InitialLaw, paths, *,
                     tol_match: float = 1e-6) -> EntropyEstimate:
    """Initial term plus half the expected weighted drift-gap energy.

    paths is mu's PathEnsemble of n paths on p grid times, or a source
    that gives it a block at a time (read_blocks). The diffusion match
    check runs first, on the probe paths.block(0, n, s): every s-th path,
    s = probe_stride(spec_mu, spec_P, n, p), exactly the paths the check
    reads of the whole ensemble, so its report is the ensemble's, field
    for field. With M = MATCH_POINTS and n' = ceil(n / s) probe paths,
    n p < (s + 1) M: if p <= M then n' p <= (n + s - 1) p / s < 2M, and
    the check's stride on the probe is 1; if p > M then s >= n, and the
    probe is a single path, which any stride reads whole. For a constant
    pair s is 0: the check reads no path, and the probe holds none. A
    mismatch means mutual singularity, and the estimate is +inf with the
    report attached rather than a meaningless finite number; from a
    source, the paths beyond the probe are then never read. Otherwise the
    paths are integrated (the probe itself when s is 1), and
    path_space_estimate adds the two terms.

    Returns:
        EntropyEstimate with the match report, the initial term, and the
        two pieces of the total in diagnostics.

    Raises:
        ArgumentError: tol_match is not a finite number >= 0.
    """
    check_number(tol_match, "tol_match", nonnegative=True)
    n = paths.n_paths
    s = probe_stride(spec_mu, spec_P, n, paths.grid.points.shape[0])
    probe = paths.block(0, n if s else 0, s or 1)
    report = diffusion_match_check(spec_mu, spec_P, probe,
                                   tol_match=tol_match)
    if not report.passed:
        return EntropyEstimate(
            value=math.inf, std_error=0.0, method="girsanov",
            diagnostics={"match_report": report,
                         "reason": "diffusion mismatch"})
    initial = initial_entropy(init_mu, init_P)
    energies = 0.5 * _drift_gap_energy(spec_mu, spec_P,
                                       probe if s == 1 else paths)
    drift_term, drift_se = path_mean_and_se(energies)
    return path_space_estimate(
        initial, [drift_term], drift_se, "girsanov",
        {"match_report": report, "initial_term": initial.value,
         "drift_term": drift_term, "n_paths": energies.shape[0]})


@dataclass(frozen=True)
class ScenarioOracle:
    """A named scenario with a closed-form entropy value."""

    scenario: str
    params: dict = field(default_factory=dict)


def _positive(value: float, name: str) -> float:
    if value <= 0:
        raise ArgumentError(f"{name} must be positive, got {value}")
    return value


def _oracle_constant_drift(read) -> float:
    """Constant-drift model against driftless, shared constant diffusion.

    Both started from the same point mass; value is theta' a^{-1} theta T/2.
    """
    theta = np.atleast_1d(read("theta", 1.0, array=True))
    horizon = _positive(read("horizon", 1.0), "horizon")
    a_mat = read("a", 1.0, array=True)
    d = theta.shape[0]
    if theta.ndim != 1 or a_mat.shape not in ((), (d, d)):
        raise ArgumentError(
            f"params 'theta' and 'a' do not fit: theta must be a vector of "
            f"length d and a a scalar or a d x d matrix, got shapes "
            f"{theta.shape} and {a_mat.shape}")
    if not positive_definite(np.atleast_2d(a_mat)):
        raise ArgumentError(f"a must be positive definite, got "
                            f"{a_mat.tolist()}")
    if a_mat.ndim == 0:
        quad = float(theta @ theta) / float(a_mat)
    else:
        quad = float(theta @ np.linalg.solve(a_mat, theta))
    return 0.5 * quad * horizon


def _oracle_ou_vs_bm(read) -> float:
    """Mean-reverting linear drift against driftless, both from zero.

    The diffusion constant cancels:
    (gamma/4) * (T - (1 - exp(-2 gamma T)) / (2 gamma)).
    """
    gamma = _positive(read("gamma", 1.0), "gamma")
    horizon = _positive(read("horizon", 1.0), "horizon")
    return 0.25 * gamma * (
        horizon - (1.0 - math.exp(-2.0 * gamma * horizon)) / (2.0 * gamma))


def _oracle_linear_vs_linear(read) -> float:
    """Scalar linear drifts a1 x + b1 vs a2 x + b2, shared constant a.

    From a point mass at x0 the first moment and variance are explicit
    exponentials, so the drift-gap integral reduces to exponential
    integrals (polynomial ones when a1 = 0).
    """
    a1, b1, a2, b2 = (read(name, 0.0) for name in ("a1", "b1", "a2", "b2"))
    a = _positive(read("a", 1.0), "diffusion constant a")
    x0 = read("x0", 0.0)
    T = _positive(read("horizon", 1.0), "horizon")
    d_a = a1 - a2
    d_b = b1 - b2

    if a1 != 0.0:
        alpha = x0 + b1 / a1
        beta = -b1 / a1
        i1 = (math.exp(a1 * T) - 1.0) / a1
        i2 = (math.exp(2.0 * a1 * T) - 1.0) / (2.0 * a1)
        # E[X^2] = (a/(2 a1) + alpha^2) e^{2 a1 t} + 2 alpha beta e^{a1 t}
        #          + beta^2 - a/(2 a1)
        c2 = a / (2.0 * a1) + alpha ** 2
        c1 = 2.0 * alpha * beta
        c0 = beta ** 2 - a / (2.0 * a1)
        int_x2 = c2 * i2 + c1 * i1 + c0 * T
        int_x = alpha * i1 + beta * T
    else:
        # m(t) = x0 + b1 t, v(t) = a t
        int_x = x0 * T + 0.5 * b1 * T ** 2
        int_x2 = (a * T ** 2 / 2.0 + x0 ** 2 * T + x0 * b1 * T ** 2
                  + b1 ** 2 * T ** 3 / 3.0)
    integral = d_a ** 2 * int_x2 + 2.0 * d_a * d_b * int_x + d_b ** 2 * T
    return 0.5 * integral / a


# scenario -> (closed form of a param reader, the param names it reads)
_ORACLES = {
    "constant_drift_vs_brownian": (_oracle_constant_drift,
                                   ("theta", "horizon", "a")),
    "ou_vs_brownian": (_oracle_ou_vs_bm, ("gamma", "horizon")),
    "linear_vs_linear": (_oracle_linear_vs_linear,
                         ("a1", "b1", "a2", "b2", "a", "x0", "horizon")),
}


def scenario_ids() -> list[str]:
    return sorted(_ORACLES)


def analytic_entropy(oracle: ScenarioOracle) -> float:
    """Closed-form entropy for a catalogued scenario.

    Raises:
        CapabilityError: the scenario has no closed form here.
        ArgumentError: a param name the scenario does not read, a value
            that is not a finite number (or array of them where the param
            takes one), a horizon, gamma or diffusion constant that is
            not positive, or a theta and an a of different dimensions.
    """
    if oracle.scenario not in _ORACLES:
        raise CapabilityError(
            f"no closed form for scenario {oracle.scenario!r}; "
            f"known: {', '.join(scenario_ids())}")
    fn, names = _ORACLES[oracle.scenario]
    unknown = set(oracle.params) - set(names)
    if unknown:
        raise ArgumentError(
            f"unknown params for scenario {oracle.scenario!r}: "
            f"{sorted(unknown)}; allowed: {sorted(names)}")

    def read(name: str, default, array: bool = False):
        value = param(oracle.scenario, oracle.params, name, default, array,
                      kind="scenario")
        if not np.isfinite(value).all():
            raise ArgumentError(f"scenario {oracle.scenario!r} param "
                                f"{name!r} must be finite, got {value}")
        return value

    return fn(read)
