"""Partition chain decomposition of path-space relative entropy.

The path-space entropy decomposes over any finite time partition into an
initial-law term plus one conditional term per interval, and refining the
partition never decreases the total. Each interval term is computed from an
ensemble sampled under the first law: per path, the two one-step Gaussian
transition laws over the interval (coefficients frozen at the interval
start) are compared in closed form. Mismatched diffusion matrices make the
refinement totals grow without bound, which is exactly how mutual
singularity manifests at finite resolution.
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
    TimeGrid,
    check_count,
    # unused: perfbench's trace still wraps chain.sample_paths by name
    sample_paths,
)
from .errors import ArgumentError
from .estimates import EntropyEstimate, path_mean_and_se, path_space_estimate
from .marginal import initial_entropy

__all__ = [
    "DIVERGENCE_THRESHOLD",
    "Partition",
    "StepTerm",
    "ChainEstimate",
    "SweepResult",
    "step_kl",
    "chain_estimate",
    "refine_sequence",
    "refinement_sweep",
]

# Totals beyond this many nats are reported as divergence (mutual
# singularity showing through the finite-resolution estimate).
DIVERGENCE_THRESHOLD = 1e3


@dataclass(frozen=True)
class Partition:
    """Ordered times 0 = t_1 < ... < t_m = T on a host grid."""

    times: np.ndarray
    indices: np.ndarray  # positions of the times on the host grid

    @classmethod
    def from_times(cls, grid: TimeGrid, times) -> "Partition":
        times = np.asarray(times, dtype=float)
        if times.ndim != 1 or times.shape[0] < 2:
            raise ArgumentError("partition needs at least two times")
        if times[0] != 0.0 or times[-1] != grid.horizon:
            raise ArgumentError("partition must span [0, T]")
        if not np.all(np.diff(times) > 0):
            raise ArgumentError("partition times must increase")
        idx = np.array([grid.index_of(t) for t in times])
        return cls(times=grid.points[idx], indices=idx)

    @property
    def n_intervals(self) -> int:
        return self.times.shape[0] - 1

    @property
    def mesh(self) -> float:
        return float(np.diff(self.times).max())

    def intervals(self):
        return [(float(self.times[j]), float(self.times[j + 1]))
                for j in range(self.n_intervals)]


@dataclass(frozen=True)
class StepTerm:
    """One interval's conditional entropy contribution."""

    t_lo: float
    t_hi: float
    value: float
    std_error: float


@dataclass(frozen=True)
class ChainEstimate:
    """Initial term plus interval contributions; total is their exact sum."""

    total: EntropyEstimate
    initial_term: float
    contributions: tuple[StepTerm, ...]
    partition: Partition


@dataclass(frozen=True)
class SweepResult:
    """Chain estimates over nested partitions with trend diagnostics."""

    estimates: tuple[ChainEstimate, ...]
    monotonicity_violations: tuple[dict, ...]
    diverged: bool
    slope_per_interval: float | None
    richardson_gap: float
    diagnostics: dict = field(default_factory=dict)


def _interval_kls(parts, dt) -> np.ndarray:
    """Per-path interval KLs ½ (fixed + dt · quad) from the (fixed, quad)
    of PairCoefficients.interval_parts.

    KL(N(x + e dt, c dt) || N(x + b dt, a dt)) per path has a dt-free
    variance part and a drift part that depends on the left endpoint only,
    so nested partitions can share them.
    """
    fixed, quad = parts
    out = quad * dt
    out += fixed
    out *= 0.5
    return out


def step_kl(spec_mu: DiffusionSpec, spec_P: DiffusionSpec,
            ensemble_mu: PathEnsemble,
            interval: tuple[float, float]) -> tuple[float, float]:
    """Conditional entropy contribution of one partition interval.

    Per path, the interval [t_lo, t_hi] is treated as a single Euler step
    from the path's state at t_lo: the two transition laws
    N(x + e dt, c dt) and N(x + b dt, a dt) are compared in closed form.

    Returns:
        (mean, standard error) over the ensemble's paths.

    Raises:
        ArgumentError: interval endpoints off the ensemble grid.
    """
    t_lo, t_hi = float(interval[0]), float(interval[1])
    if t_hi <= t_lo:
        raise ArgumentError("interval must have positive length")
    idx_lo = ensemble_mu.grid.index_of(t_lo)
    ensemble_mu.grid.index_of(t_hi)
    pair = PairCoefficients(spec_mu, spec_P, ensemble_mu)
    return path_mean_and_se(_interval_kls(pair.interval_parts(idx_lo),
                                          t_hi - t_lo))


def _chain_levels(spec_mu: DiffusionSpec, spec_P: DiffusionSpec,
                  init_mu: InitialLaw, init_P: InitialLaw,
                  ensemble: PathEnsemble,
                  partitions: list[Partition]) -> tuple[ChainEstimate, ...]:
    """Chain estimates over nested partitions on one ensemble, finest last.

    One walk over the finest partition's left endpoints, read on the
    ensemble's grid, evaluates the interval parts once per endpoint; each
    partition's left endpoints are every step-th of them. A level's
    interval term is reduced to its mean and standard error where it is
    formed and added to the level's per-path running total, so levels x
    n_paths floats are held. A total is path_space_estimate of the initial
    term and the interval means, a plain left-to-right sum, so the reported
    decomposition is an arithmetic identity; its path standard error comes
    from the per-path totals (which captures the correlation between
    intervals along a path).
    """
    initial = initial_entropy(init_mu, init_P)
    finest = partitions[-1]
    pair = PairCoefficients(spec_mu, spec_P, ensemble)
    per_path_totals = np.zeros((len(partitions), ensemble.states.shape[0]))
    terms = [[] for _ in partitions]
    for j, t_lo in enumerate(finest.times[:-1]):
        parts = pair.interval_parts(ensemble.grid.index_of(t_lo))
        for level, part in enumerate(partitions):
            step = finest.n_intervals // part.n_intervals
            if j % step == 0:
                lo, hi = part.times[j // step], part.times[j // step + 1]
                kls = _interval_kls(parts, hi - lo)
                terms[level].append(StepTerm(float(lo), float(hi),
                                             *path_mean_and_se(kls)))
                per_path_totals[level] += kls
    estimates = []
    for part, level_terms, totals in zip(partitions, terms, per_path_totals):
        total = path_space_estimate(
            initial, [term.value for term in level_terms],
            path_mean_and_se(totals)[1], "chain-gauss",
            {"n_paths": totals.shape[0], "n_intervals": part.n_intervals,
             "initial_method": initial.method})
        estimates.append(ChainEstimate(total=total,
                                       initial_term=initial.value,
                                       contributions=tuple(level_terms),
                                       partition=part))
    return tuple(estimates)


def chain_estimate(spec_mu: DiffusionSpec, spec_P: DiffusionSpec,
                   init_mu: InitialLaw, init_P: InitialLaw, paths,
                   partition: Partition) -> ChainEstimate:
    """Initial term plus closed-form interval terms over one partition.

    The total is the plain left-to-right sum of the initial term and the
    interval means, and its standard error comes from the per-path totals.

    Args:
        paths: mu's PathEnsemble, or a source of it (read_blocks), which
            is read whole, as paths.block(0, n_paths).
        partition: times on the paths' grid.
    """
    return _chain_levels(spec_mu, spec_P, init_mu, init_P,
                         paths.block(0, paths.n_paths), [partition])[0]


def refine_sequence(grid: TimeGrid, levels: int) -> list[Partition]:
    """Nested dyadic partitions; level n has 2^(n-1) intervals.

    Raises:
        ArgumentError: levels is not a positive integer, or the grid's step
            count is not divisible by 2^(levels-1).
    """
    check_count(levels, "levels")
    m = grid.n_steps
    finest = 2 ** (levels - 1)
    if m % finest != 0:
        raise ArgumentError(
            f"grid with {m} steps cannot host {levels} dyadic levels "
            f"(needs divisibility by {finest})")
    out = []
    for level in range(1, levels + 1):
        n_int = 2 ** (level - 1)
        idx = np.arange(n_int + 1) * (m // n_int)
        out.append(Partition(times=grid.points[idx].copy(), indices=idx))
    return out


def refinement_sweep(spec_mu: DiffusionSpec, spec_P: DiffusionSpec,
                     init_mu: InitialLaw, init_P: InitialLaw, paths,
                     levels: int) -> SweepResult:
    """Chain estimates on mu's paths over nested dyadic partitions.

    Reports monotonicity violations beyond 3 combined standard errors (the
    refinement total is nondecreasing in law), a divergence flag when a
    level's total exceeds DIVERGENCE_THRESHOLD, the fitted per-interval
    slope (the signature of a diffusion-matrix mismatch is affine growth in
    the interval count), and the gap between the last two levels as a
    crude extrapolation diagnostic.
    """
    partitions = refine_sequence(paths.grid, levels)
    estimates = _chain_levels(spec_mu, spec_P, init_mu, init_P,
                              paths.block(0, paths.n_paths), partitions)

    violations = []
    for prev, curr in zip(estimates, estimates[1:]):
        if prev.total.is_infinite or curr.total.is_infinite:
            continue
        combined = math.hypot(prev.total.std_error, curr.total.std_error)
        drop = prev.total.value - curr.total.value
        if drop > 3 * combined:
            violations.append({
                "coarse_intervals": prev.partition.n_intervals,
                "fine_intervals": curr.partition.n_intervals,
                "drop": drop, "allowed": 3 * combined,
            })

    # the threshold is finite, so an infinite total exceeds it
    diverged = any(e.total.value > DIVERGENCE_THRESHOLD for e in estimates)
    finite_vals = [e.total.value for e in estimates
                   if not e.total.is_infinite]

    slope = None
    if len(estimates) >= 2:
        xs = np.array([e.partition.n_intervals for e in estimates],
                      dtype=float)
        ys = np.array([e.total.value for e in estimates])
        if np.all(np.isfinite(ys)):
            slope = float(np.polyfit(xs, ys, 1)[0])
    richardson = 0.0
    if len(finite_vals) >= 2:
        richardson = float(finite_vals[-1] - finite_vals[-2])

    return SweepResult(
        estimates=estimates,
        monotonicity_violations=tuple(violations),
        diverged=diverged,
        slope_per_interval=slope,
        richardson_gap=richardson,
        diagnostics={"n_paths": paths.n_paths, "levels": levels})
