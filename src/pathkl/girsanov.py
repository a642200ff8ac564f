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
    BLOCK_PATHS,
    DiffusionSpec,
    InitialLaw,
    PairCoefficients,
    PathEnsemble,
    diffusion_match_check,
    param,
    positive_definite,
)
from .errors import (ArgumentError, CapabilityError, ModelEvaluationError,
                     PositiveDefinitenessError)
from .estimates import EntropyEstimate, clamp_at_zero
from .marginal import initial_entropy

__all__ = [
    "girsanov_entropy",
    "ScenarioOracle",
    "analytic_entropy",
    "scenario_ids",
]


# Integrand entries _drift_gap_energy holds at once, 16 MiB: a block holds
# max(BLOCK_PATHS, GAP_BLOCK_ELEMENTS // (m + 1)) paths. Each block costs a
# drift_quad call per grid time, about 10 us for a constant pair, so
# narrower blocks are slower; on 10^4 paths x 1001 times (five blocks) a
# girsanov_entropy call takes 0.155 s, as with 2^22 entries (best of 7 on
# a 2-core x86 machine). No result depends on it.
GAP_BLOCK_ELEMENTS = 2 ** 21

# Integrand entries each np.trapezoid call reads, 2 MiB: it makes
# temporaries of about three times its input. No result depends on it.
TRAPEZOID_ELEMENTS = 2 ** 18


def _drift_gap_energy(spec_mu: DiffusionSpec, spec_P: DiffusionSpec,
                      ensemble: PathEnsemble) -> np.ndarray:
    """Per-path trapezoidal integral of |b - e|^2 weighted by a^{-1}.

    The (n, m + 1) integrand is never held whole: it is built one block of
    paths at a time, column by column, and each block is integrated before
    the next is built. np.trapezoid makes temporaries of about three times
    its input, so it runs on sub-blocks of about TRAPEZOID_ELEMENTS
    entries. Each path's integral does not depend on either block size. As
    for a scan of whole columns, an error names the earliest grid time
    where any path fails.

    Raises:
        ModelEvaluationError: the integrand is NaN or infinite on some path;
            the message says NaN if that time holds a NaN on some path.
        PositiveDefinitenessError, ModelEvaluationError: as matrix_at, for
            a state-dependent reference diffusion on some path.
    """
    pair = PairCoefficients(spec_mu, spec_P, ensemble)
    n, m_plus_1, _ = ensemble.states.shape
    times = ensemble.grid.points
    rows = max(BLOCK_PATHS, GAP_BLOCK_ELEMENTS // m_plus_1)
    sub = max(1, TRAPEZOID_ELEMENTS // m_plus_1)
    block = np.empty((min(rows, n), m_plus_1))
    out = np.empty(n)
    for lo in range(0, n, rows):
        part = block[:min(rows, n - lo)]
        try:
            for k in range(m_plus_1):
                part[:, k] = pair.drift_quad(k, rows=slice(lo, lo + rows))
            failed = not np.isfinite(part).all()
        except (np.linalg.LinAlgError, ModelEvaluationError,
                PositiveDefinitenessError):
            failed = True
        if failed:
            # a later block may fail at an earlier time: scan whole columns
            for k in range(m_plus_1):
                pair.drift_term(k)
        energy = out[lo:lo + part.shape[0]]
        for s in range(0, part.shape[0], sub):
            energy[s:s + sub] = np.trapezoid(part[s:s + sub], times, axis=1)
    return out


def girsanov_entropy(spec_mu: DiffusionSpec, spec_P: DiffusionSpec,
                     init_mu: InitialLaw, init_P: InitialLaw,
                     ensemble_mu: PathEnsemble, *,
                     tol_match: float = 1e-6) -> EntropyEstimate:
    """Initial term plus half the expected weighted drift-gap energy.

    Runs the diffusion match check first: a mismatch means mutual
    singularity, and the estimate is +inf with the report attached rather
    than a meaningless finite number.

    Returns:
        EntropyEstimate with the match report, the initial term, and the
        two pieces of the total in diagnostics.
    """
    report = diffusion_match_check(spec_mu, spec_P, ensemble_mu,
                                   tol_match=tol_match)
    if not report.passed:
        return EntropyEstimate(
            value=math.inf, std_error=0.0, method="girsanov",
            diagnostics={"match_report": report,
                         "reason": "diffusion mismatch"})

    initial = initial_entropy(init_mu, init_P)
    if initial.is_infinite:
        return EntropyEstimate(
            value=math.inf, std_error=0.0, method="girsanov",
            diagnostics={"match_report": report,
                         "reason": "singular initial laws"})

    energies = 0.5 * _drift_gap_energy(spec_mu, spec_P, ensemble_mu)
    n = energies.shape[0]
    drift_term = float(energies.mean())
    drift_se = float(energies.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    diagnostics = {"match_report": report, "initial_term": initial.value,
                   "drift_term": drift_term, "n_paths": n}
    return EntropyEstimate(
        value=clamp_at_zero(initial.value + drift_term, diagnostics),
        std_error=math.hypot(initial.std_error, drift_se),
        method="girsanov", diagnostics=diagnostics)


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
