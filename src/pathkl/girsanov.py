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

from .chain import _PairCoefficients, diffusion_match_check
from .diffusion import DiffusionSpec, InitialLaw, PathEnsemble
from .errors import ArgumentError, CapabilityError
from .estimates import EntropyEstimate
from .marginal import initial_entropy

__all__ = [
    "girsanov_entropy",
    "ScenarioOracle",
    "analytic_entropy",
    "scenario_ids",
]


# Paths integrated at once: np.trapezoid makes temporaries the size of its
# input, so it runs on row blocks of the integrand. Each row's sum does not
# depend on the block.
TRAPEZOID_ROWS = 1024


def _drift_gap_energy(spec_mu: DiffusionSpec, spec_P: DiffusionSpec,
                      ensemble: PathEnsemble) -> np.ndarray:
    """Per-path trapezoidal integral of |b - e|^2 weighted by a^{-1}."""
    pair = _PairCoefficients(spec_mu, spec_P, ensemble)
    n, m_plus_1, _ = ensemble.states.shape
    integrand = np.empty((n, m_plus_1))
    for k in range(m_plus_1):
        integrand[:, k] = pair.drift_quad(k)
    out = np.empty(n)
    for lo in range(0, n, TRAPEZOID_ROWS):
        out[lo:lo + TRAPEZOID_ROWS] = np.trapezoid(
            integrand[lo:lo + TRAPEZOID_ROWS], ensemble.grid.points, axis=1)
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
    return EntropyEstimate(
        value=max(initial.value + drift_term, 0.0),
        std_error=math.hypot(initial.std_error, drift_se),
        method="girsanov",
        diagnostics={"match_report": report,
                     "initial_term": initial.value,
                     "drift_term": drift_term,
                     "n_paths": n})


@dataclass(frozen=True)
class ScenarioOracle:
    """A named scenario with a closed-form entropy value."""

    scenario: str
    params: dict = field(default_factory=dict)


def _oracle_constant_drift(params: dict) -> float:
    """Constant-drift model against driftless, shared constant diffusion.

    Both started from the same point mass; value is theta' a^{-1} theta T/2.
    """
    theta = np.atleast_1d(np.asarray(params.get("theta", 1.0), dtype=float))
    horizon = float(params.get("horizon", 1.0))
    a = params.get("a", 1.0)
    a_mat = np.asarray(a, dtype=float)
    if a_mat.ndim == 0:
        quad = float(theta @ theta) / float(a_mat)
    else:
        quad = float(theta @ np.linalg.solve(a_mat, theta))
    return 0.5 * quad * horizon


def _oracle_ou_vs_bm(params: dict) -> float:
    """Mean-reverting linear drift against driftless, both from zero.

    The diffusion constant cancels:
    (gamma/4) * (T - (1 - exp(-2 gamma T)) / (2 gamma)).
    """
    gamma = float(params.get("gamma", 1.0))
    horizon = float(params.get("horizon", 1.0))
    if gamma <= 0:
        raise ArgumentError("gamma must be positive")
    return 0.25 * gamma * (
        horizon - (1.0 - math.exp(-2.0 * gamma * horizon)) / (2.0 * gamma))


def _oracle_linear_vs_linear(params: dict) -> float:
    """Scalar linear drifts a1 x + b1 vs a2 x + b2, shared constant a.

    From a point mass at x0 the first moment and variance are explicit
    exponentials, so the drift-gap integral reduces to exponential
    integrals (polynomial ones when a1 = 0).
    """
    a1 = float(params.get("a1", 0.0))
    b1 = float(params.get("b1", 0.0))
    a2 = float(params.get("a2", 0.0))
    b2 = float(params.get("b2", 0.0))
    a = float(params.get("a", 1.0))
    x0 = float(params.get("x0", 0.0))
    horizon = float(params.get("horizon", 1.0))
    if a <= 0:
        raise ArgumentError("diffusion constant must be positive")
    d_a = a1 - a2
    d_b = b1 - b2
    T = horizon

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


_ORACLES = {
    "constant_drift_vs_brownian": _oracle_constant_drift,
    "ou_vs_brownian": _oracle_ou_vs_bm,
    "linear_vs_linear": _oracle_linear_vs_linear,
}


def scenario_ids() -> list[str]:
    return sorted(_ORACLES)


def analytic_entropy(oracle: ScenarioOracle) -> float:
    """Closed-form entropy for a catalogued scenario.

    Raises:
        CapabilityError: the scenario has no closed form here.
    """
    fn = _ORACLES.get(oracle.scenario)
    if fn is None:
        raise CapabilityError(
            f"no closed form for scenario {oracle.scenario!r}; "
            f"known: {', '.join(scenario_ids())}")
    return fn(oracle.params)
