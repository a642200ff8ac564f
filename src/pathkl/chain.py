"""Partition chain decomposition of path-space relative entropy.

The path-space entropy decomposes over any finite time partition into an
initial-law term plus one conditional term per interval, and refining the
partition never decreases the total. Each interval term is computed from an
ensemble sampled under the first law: per path, the two one-step Gaussian
transition laws over the interval (coefficients frozen at the interval
start) are compared in closed form. step_kl can also compare them
variationally, from resimulated endpoint clouds, as a check on the DV
estimator. Mismatched diffusion matrices make the refinement totals grow
without bound, which is exactly how mutual singularity manifests at finite
resolution.
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
    euler_step_law,
    path_generator,
    sample_paths,
    substream_seed,
)
from .errors import ArgumentError
from .estimates import EntropyEstimate, clamp_at_zero
from .marginal import OptimizerConfig, dv_estimate, initial_entropy
from .variational import FunctionBasis

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


def _interval_terms(spec_mu, spec_P, ensemble, columns):
    """Parts of the frozen-coefficient Gaussian interval KLs at left endpoints.

    KL(N(x + e dt, c dt) || N(x + b dt, a dt)) per path is
    ½ (fixed + dt · quad): the variance part is dt-free and the drift part
    depends on the left endpoint only, so nested partitions can share them.

    Returns:
        (fixed, quad), each of shape (n_paths, len(columns)); fixed is one
        value of shape (1, 1) when both diffusions are constant.
    """
    pair = PairCoefficients(spec_mu, spec_P, ensemble)
    n = ensemble.states.shape[0]
    quad = np.empty((n, len(columns)))
    if pair.fixed is not None:
        for j, k in enumerate(columns):
            quad[:, j] = pair.drift_term(int(k))
        return np.full((1, 1), pair.fixed), quad
    fixed = np.empty((n, len(columns)))
    for j, k in enumerate(columns):
        fixed[:, j], quad[:, j] = pair.interval_parts(int(k))
    return fixed, quad


def _interval_kls(fixed, quad, dt) -> np.ndarray:
    """Per-path interval KLs ½ (fixed + dt · quad) from _interval_terms."""
    out = quad * dt
    out += fixed
    out *= 0.5
    return out


def _dv_interval_kl(spec_mu, spec_P, x, t_lo, dt, *, seed, n_cloud,
                    basis, opt):
    """Per-path variational KL between resimulated one-step endpoint clouds."""
    values = np.empty(x.shape[0])
    for i in range(x.shape[0]):
        gen = path_generator(substream_seed(seed, i), 3)
        law_mu = euler_step_law(spec_mu, t_lo, x[i], dt)
        law_p = euler_step_law(spec_P, t_lo, x[i], dt)
        values[i] = dv_estimate(law_mu.draw(gen, n_cloud),
                                law_p.draw(gen, n_cloud), basis, opt).value
    return values


def step_kl(spec_mu: DiffusionSpec, spec_P: DiffusionSpec,
            ensemble_mu: PathEnsemble, interval: tuple[float, float],
            method: str = "gauss", *, seed: int | None = None,
            n_cloud: int = 256, basis: FunctionBasis | None = None,
            opt: OptimizerConfig | None = None) -> tuple[float, float]:
    """Conditional entropy contribution of one partition interval.

    Per path, the interval [t_lo, t_hi] is treated as a single Euler step
    from the path's state at t_lo: the two transition laws
    N(x + e dt, c dt) and N(x + b dt, a dt) are compared in closed form
    ("gauss") or by the variational estimator on resimulated endpoint clouds
    ("dv").

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
    dt = t_hi - t_lo
    x = ensemble_mu.states[:, idx_lo]

    if method == "gauss":
        fixed, quad = _interval_terms(spec_mu, spec_P, ensemble_mu, [idx_lo])
        values = _interval_kls(fixed, quad, dt)[:, 0]
    elif method == "dv":
        values = _dv_interval_kl(
            spec_mu, spec_P, x, t_lo, dt,
            seed=ensemble_mu.seed if seed is None else seed,
            n_cloud=n_cloud, basis=basis, opt=opt)
    else:
        raise ArgumentError(f"unknown step method {method!r}")

    n = values.shape[0]
    se = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return float(values.mean()), se


def _chain_levels(spec_mu: DiffusionSpec, spec_P: DiffusionSpec,
                  init_mu: InitialLaw, init_P: InitialLaw,
                  ensemble: PathEnsemble,
                  partitions: list[Partition]) -> tuple[ChainEstimate, ...]:
    """Chain estimates over nested partitions on one ensemble, finest last.

    The interval parts are evaluated once, at the finest partition's left
    endpoints read on the ensemble's grid; each partition's left endpoints
    are every step-th of them, so it reads strided columns. A total is the
    plain left-to-right sum of the initial term and the interval means, so
    the reported decomposition is an arithmetic identity, and its standard
    error comes from the per-path totals (which captures the correlation
    between intervals along a path).
    """
    initial = initial_entropy(init_mu, init_P)
    if initial.is_infinite:
        return tuple(ChainEstimate(
            total=EntropyEstimate(value=math.inf, std_error=0.0,
                                  method="chain-gauss",
                                  diagnostics={"divergent_term": "initial"}),
            initial_term=math.inf, contributions=(), partition=part)
            for part in partitions)

    finest = partitions[-1]
    columns = [ensemble.grid.index_of(t_lo) for t_lo in finest.times[:-1]]
    fixed, quad = _interval_terms(spec_mu, spec_P, ensemble, columns)
    estimates = []
    for part in partitions:
        step = finest.n_intervals // part.n_intervals
        per_path = _interval_kls(fixed[:, ::step], quad[:, ::step],
                                 np.diff(part.times))
        n = per_path.shape[0]
        means = per_path.mean(axis=0)
        ses = per_path.std(axis=0, ddof=1) / math.sqrt(n) if n > 1 \
            else np.zeros(per_path.shape[1])
        path_totals = per_path.sum(axis=1)
        paths_se = float(path_totals.std(ddof=1) / math.sqrt(n)) if n > 1 \
            else 0.0
        terms = tuple(
            StepTerm(t_lo=lo, t_hi=hi, value=float(means[j]),
                     std_error=float(ses[j]))
            for j, (lo, hi) in enumerate(part.intervals()))
        total_value = initial.value
        for term in terms:
            total_value = total_value + term.value
        diagnostics = {"n_paths": n, "n_intervals": part.n_intervals,
                       "initial_method": initial.method}
        total = EntropyEstimate(
            value=clamp_at_zero(total_value, diagnostics),
            std_error=math.sqrt(initial.std_error ** 2 + paths_se ** 2),
            method="chain-gauss", diagnostics=diagnostics)
        estimates.append(ChainEstimate(total=total,
                                       initial_term=initial.value,
                                       contributions=terms, partition=part))
        # free this level's per-path terms before the next, finer level
        # builds its own: both alive at once raise the peak memory
        del per_path
    return tuple(estimates)


def chain_estimate(spec_mu: DiffusionSpec, spec_P: DiffusionSpec,
                   init_mu: InitialLaw, init_P: InitialLaw,
                   partition: Partition, n_paths: int = 10_000,
                   seed: int = 0, *, grid: TimeGrid | None = None,
                   ensemble: PathEnsemble | None = None,
                   threads: int = 1) -> ChainEstimate:
    """Initial term plus closed-form interval terms over one partition.

    The total is the plain left-to-right sum of the initial term and the
    interval means, and its standard error comes from the per-path totals.

    Args:
        partition: times on the sampling grid.
        grid: sampling grid when no ensemble is supplied.
        ensemble: reuse an existing ensemble (its grid must host the
            partition); n_paths/seed are then taken from it.
    """
    if ensemble is None:
        if grid is None:
            raise ArgumentError("chain_estimate needs a grid or an ensemble")
        ensemble = sample_paths(spec_mu, init_mu, grid, n_paths, seed,
                                threads=threads)
    return _chain_levels(spec_mu, spec_P, init_mu, init_P, ensemble,
                         [partition])[0]


def refine_sequence(grid: TimeGrid, levels: int) -> list[Partition]:
    """Nested dyadic partitions; level n has 2^(n-1) intervals.

    Raises:
        ArgumentError: the grid's step count is not divisible by 2^(levels-1).
    """
    if levels < 1:
        raise ArgumentError("levels must be at least 1")
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
                     init_mu: InitialLaw, init_P: InitialLaw,
                     grid: TimeGrid, levels: int, n_paths: int = 10_000,
                     seed: int = 0, *, threads: int = 1,
                     divergence_threshold: float = DIVERGENCE_THRESHOLD
                     ) -> SweepResult:
    """Chain estimates over nested dyadic partitions on one shared ensemble.

    Reports monotonicity violations beyond 3 combined standard errors (the
    refinement total is nondecreasing in law), a divergence flag when a
    level's total exceeds divergence_threshold, the fitted per-interval
    slope (the signature of a diffusion-matrix mismatch is affine growth in
    the interval count), and the gap between the last two levels as a
    crude extrapolation diagnostic.
    """
    partitions = refine_sequence(grid, levels)
    ensemble = sample_paths(spec_mu, init_mu, grid, n_paths, seed,
                            threads=threads)
    estimates = _chain_levels(spec_mu, spec_P, init_mu, init_P, ensemble,
                              partitions)

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

    finite_vals = [e.total.value for e in estimates
                   if not e.total.is_infinite]
    diverged = any(v > divergence_threshold for v in finite_vals) or any(
        e.total.is_infinite for e in estimates)

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
        diagnostics={"n_paths": n_paths, "levels": levels, "seed": seed,
                     "divergence_threshold": divergence_threshold})
