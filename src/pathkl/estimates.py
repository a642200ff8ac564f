"""Estimate containers shared by the entropy estimators."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["EntropyEstimate", "TOL_LINALG", "clamp_at_zero",
           "path_mean_and_se", "path_space_estimate"]

# Relative tolerance for linear-algebra identities (double precision headroom).
TOL_LINALG = 1e-9


@dataclass(frozen=True)
class EntropyEstimate:
    """A relative-entropy value with Monte Carlo error and provenance.

    Attributes:
        value: estimate in nats; math.inf when the laws are mutually singular.
        std_error: Monte Carlo standard error (0 for closed forms).
        method: short tag naming the estimator that produced the value.
        diagnostics: free-form record (sample sizes, iterations, condition
            numbers, divergence flags).
    """

    value: float
    std_error: float
    method: str
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if math.isnan(self.value) or math.isnan(self.std_error):
            raise ValueError(f"entropy estimate {self.value} with std_error "
                             f"{self.std_error} is NaN")
        if self.std_error < 0:
            raise ValueError("std_error must be nonnegative")
        if not self.is_infinite and self.value < -TOL_LINALG:
            raise ValueError(f"entropy estimate {self.value} below -{TOL_LINALG}")

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.value)


def clamp_at_zero(value: float, diagnostics: dict) -> float:
    """max(value, 0) for an estimate of a nonnegative quantity; a value
    below 0 is kept as diagnostics["clamped_from"]."""
    if value < 0:
        diagnostics["clamped_from"] = value
    return max(value, 0.0)


def path_mean_and_se(values: np.ndarray):
    """Mean over the paths (axis 0) and its standard error
    std(ddof=1) / sqrt(n), which is 0 for one path: floats, or lists of
    them for one column per term."""
    n = values.shape[0]
    mean = values.mean(axis=0)
    se = values.std(axis=0, ddof=1) / math.sqrt(n) if n > 1 \
        else np.zeros_like(mean)
    return mean.tolist(), se.tolist()


def path_space_estimate(initial: EntropyEstimate, terms, path_se: float,
                        method: str, diagnostics: dict) -> EntropyEstimate:
    """R(mu || P) of a path-space route, the one place where the initial-law
    term joins the route's path terms: +inf with standard error 0 and
    diagnostics["reason"] "singular initial laws" for an infinite initial
    term, else clamp_at_zero(initial.value + terms[0] + terms[1] + ...),
    summed left to right, with standard error
    hypot(initial.std_error, path_se)."""
    if initial.is_infinite:
        diagnostics["reason"] = "singular initial laws"
        return EntropyEstimate(math.inf, 0.0, method, diagnostics)
    total = initial.value
    for term in terms:
        total += term
    return EntropyEstimate(clamp_at_zero(total, diagnostics),
                           math.hypot(initial.std_error, path_se), method,
                           diagnostics)
