"""Partition chain decomposition of path-space relative entropy.

The path-space entropy decomposes over any finite time partition into an
initial-law term plus one conditional term per interval, and refining the
partition never decreases the total. Each interval term is computed from an
ensemble sampled under the first law: per path, the two one-step Gaussian
transition laws over the interval (coefficients frozen at the interval
start) are compared in closed form, or variationally from resimulated
endpoint clouds. Mismatched diffusion matrices make the refinement totals
grow without bound, which is exactly how mutual singularity manifests at
finite resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .diffusion import (
    DiffusionSpec,
    InitialLaw,
    PathEnsemble,
    TimeGrid,
    path_generator,
    sample_paths,
    substream_seed,
)
from .errors import ArgumentError, PositiveDefinitenessError
from .estimates import EntropyEstimate
from .marginal import OptimizerConfig, dv_estimate, initial_entropy
from .variational import FunctionBasis, mixed_basis

__all__ = [
    "DIVERGENCE_THRESHOLD",
    "Partition",
    "StepTerm",
    "ChainEstimate",
    "SweepResult",
    "MatchReport",
    "step_kl",
    "chain_estimate",
    "refine_sequence",
    "refinement_sweep",
    "diffusion_match_check",
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
    method: str


@dataclass(frozen=True)
class SweepResult:
    """Chain estimates over nested partitions with trend diagnostics."""

    estimates: tuple[ChainEstimate, ...]
    monotonicity_violations: tuple[dict, ...]
    diverged: bool
    slope_per_interval: float | None
    richardson_gap: float
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class MatchReport:
    """Diffusion-matrix agreement over the sampled states."""

    max_distance: float
    passed: bool
    tol_match: float
    n_evaluated: int
    argmax_time: float


class _PairCoefficients:
    """Coefficients of (mu, P) on the columns of an ensemble.

    A model flagged constant_diffusion has its matrix evaluated once per run
    (at the first grid time and state) and inverted once; any other model's
    matrix is evaluated and solved against at every (t, x) of a column.
    """

    def __init__(self, spec_mu: DiffusionSpec, spec_P: DiffusionSpec,
                 ensemble: PathEnsemble):
        self.spec_mu, self.spec_P = spec_mu, spec_P
        self.states = ensemble.states
        self.times = ensemble.grid.points
        self.c = self._constant(spec_mu)
        self.a = self._constant(spec_P)
        self.a_inv = None if self.a is None else np.linalg.inv(self.a)

    def _constant(self, spec: DiffusionSpec) -> np.ndarray | None:
        if not spec.constant_diffusion:
            return None
        return np.atleast_2d(np.asarray(spec.diffusion_matrix(
            float(self.times[0]), self.states[0, 0]), dtype=float))

    @cached_property
    def fixed(self):
        """The dt-free part once per run when both diffusions are constant,
        else None."""
        if self.a is None or self.c is None:
            return None
        return self._variance_part(self.a, self.c)

    def _column(self, k: int):
        return float(self.times[k]), self.states[:, k]

    def _variance_part(self, a, c):
        """tr(a^{-1} c) - d + logdet a - logdet c, the dt-free KL part."""
        sign_a, logdet_a = np.linalg.slogdet(a)
        sign_c, logdet_c = np.linalg.slogdet(c)
        if np.any(sign_a <= 0):
            raise PositiveDefinitenessError(
                "reference diffusion not PD on paths")
        if np.any(sign_c <= 0):
            raise PositiveDefinitenessError(
                "ensemble diffusion not PD on paths")
        trace = np.trace(np.linalg.solve(a, c), axis1=-2, axis2=-1)
        return trace - a.shape[-1] + (logdet_a - logdet_c)

    def drift_quad(self, k: int, a=None) -> np.ndarray:
        """Per-path (e - b)' a^{-1} (e - b) at column k; a as evaluated
        there when P's diffusion is not constant."""
        t, x = self._column(k)
        gap = (np.asarray(self.spec_mu.drift(t, x), dtype=float)
               - np.asarray(self.spec_P.drift(t, x), dtype=float))
        if self.a_inv is not None:
            return np.einsum("nd,nd->n", gap, gap @ self.a_inv.T)
        if a is None:
            a = np.asarray(self.spec_P.diffusion_matrix(t, x), dtype=float)
        return np.einsum("nd,nd->n", gap,
                         np.linalg.solve(a, gap[..., None])[..., 0])

    def interval_parts(self, k: int):
        """Per-path dt-free part and drift quadratic of the interval KL with
        left endpoint at column k."""
        t, x = self._column(k)
        a = self.a if self.a is not None else np.asarray(
            self.spec_P.diffusion_matrix(t, x), dtype=float)
        c = self.c if self.c is not None else np.asarray(
            self.spec_mu.diffusion_matrix(t, x), dtype=float)
        return self._variance_part(a, c), self.drift_quad(k, a)


def _interval_terms(spec_mu, spec_P, ensemble, columns):
    """Parts of the frozen-coefficient Gaussian interval KLs at left endpoints.

    KL(N(x + e dt, c dt) || N(x + b dt, a dt)) per path is
    ½ (fixed + dt · quad): the variance part is dt-free and the drift part
    depends on the left endpoint only, so nested partitions can share them.

    Returns:
        (fixed, quad), each of shape (n_paths, len(columns)); fixed is one
        value of shape (1, 1) when both diffusions are constant.
    """
    pair = _PairCoefficients(spec_mu, spec_P, ensemble)
    n = ensemble.states.shape[0]
    quad = np.empty((n, len(columns)))
    if pair.fixed is not None:
        for j, k in enumerate(columns):
            quad[:, j] = pair.drift_quad(int(k))
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
    from .diffusion import euler_step_law  # local: avoids polluting module API

    values = np.empty(x.shape[0])
    for i in range(x.shape[0]):
        gen = path_generator(substream_seed(seed, i), 3)
        law_mu = euler_step_law(spec_mu, t_lo, x[i], dt)
        law_p = euler_step_law(spec_P, t_lo, x[i], dt)
        root_mu = np.linalg.cholesky(law_mu.covariance)
        root_p = np.linalg.cholesky(law_p.covariance)
        cloud_mu = law_mu.mean + gen.standard_normal(
            (n_cloud, x.shape[1])) @ root_mu.T
        cloud_p = law_p.mean + gen.standard_normal(
            (n_cloud, x.shape[1])) @ root_p.T
        use = basis
        if use is None:
            pooled = np.concatenate([cloud_mu, cloud_p])
            lo = float(pooled.min())
            hi = float(pooled.max())
            pad = 0.5 * (hi - lo) + 1e-9
            use = mixed_basis([lo - pad], [hi + pad], n_bumps=5,
                              bump_scale=(hi - lo + 2 * pad) / 3.2,
                              degrees=[0, 1, 2])
        values[i] = dv_estimate(cloud_mu, cloud_p, use, opt).value
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


def _infinite_chain(partition: Partition, method: str) -> ChainEstimate:
    total = EntropyEstimate(value=math.inf, std_error=0.0,
                            method=f"chain-{method}",
                            diagnostics={"divergent_term": "initial"})
    return ChainEstimate(total=total, initial_term=math.inf,
                         contributions=(), partition=partition,
                         method=method)


def _chain_result(initial: EntropyEstimate, terms, total_se: float,
                  partition: Partition, method: str,
                  n_paths: int) -> ChainEstimate:
    """The total as the plain left-to-right sum of the initial term and the
    interval means, so the reported decomposition is an identity."""
    total_value = initial.value
    for term in terms:
        total_value = total_value + term.value
    combined_se = math.sqrt(initial.std_error ** 2 + total_se ** 2)
    total = EntropyEstimate(
        value=max(total_value, 0.0), std_error=combined_se,
        method=f"chain-{method}",
        diagnostics={"n_paths": n_paths,
                     "n_intervals": partition.n_intervals,
                     "initial_method": initial.method})
    return ChainEstimate(total=total, initial_term=initial.value,
                         contributions=terms, partition=partition,
                         method=method)


def _gauss_chain(initial: EntropyEstimate, fixed, quad,
                 partition: Partition) -> ChainEstimate:
    """Chain estimate from the interval parts at the partition's left
    endpoints (columns of fixed and quad in interval order)."""
    per_path = _interval_kls(fixed, quad, np.diff(partition.times))
    n = per_path.shape[0]
    means = per_path.mean(axis=0)
    ses = per_path.std(axis=0, ddof=1) / math.sqrt(n) if n > 1 \
        else np.zeros(per_path.shape[1])
    path_totals = per_path.sum(axis=1)
    total_se = float(path_totals.std(ddof=1) / math.sqrt(n)) if n > 1 \
        else 0.0
    terms = tuple(
        StepTerm(t_lo=lo, t_hi=hi, value=float(means[j]),
                 std_error=float(ses[j]))
        for j, (lo, hi) in enumerate(partition.intervals()))
    return _chain_result(initial, terms, total_se, partition, "gauss", n)


def chain_estimate(spec_mu: DiffusionSpec, spec_P: DiffusionSpec,
                   init_mu: InitialLaw, init_P: InitialLaw,
                   partition: Partition, n_paths: int = 10_000,
                   seed: int = 0, method: str = "gauss", *,
                   grid: TimeGrid | None = None,
                   ensemble: PathEnsemble | None = None,
                   threads: int = 1) -> ChainEstimate:
    """Initial term plus interval terms over one partition.

    The total is the plain left-to-right sum of the initial term and the
    interval means, so the reported decomposition is an arithmetic identity,
    and its standard error comes from the per-path totals (which captures
    the correlation between intervals along a path).

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
    initial = initial_entropy(init_mu, init_P)
    if initial.is_infinite:
        return _infinite_chain(partition, method)

    if method == "gauss":
        columns = [ensemble.grid.index_of(t_lo)
                   for t_lo, _ in partition.intervals()]
        fixed, quad = _interval_terms(spec_mu, spec_P, ensemble, columns)
        return _gauss_chain(initial, fixed, quad, partition)

    terms = []
    for lo, hi in partition.intervals():
        value, se = step_kl(spec_mu, spec_P, ensemble, (lo, hi), method)
        terms.append(StepTerm(t_lo=lo, t_hi=hi, value=value, std_error=se))
    total_se = math.sqrt(sum(t.std_error ** 2 for t in terms))
    return _chain_result(initial, tuple(terms), total_se, partition, method,
                         ensemble.n_paths)


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
                     seed: int = 0, method: str = "gauss", *,
                     threads: int = 1,
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
    initial = initial_entropy(init_mu, init_P)
    if method == "gauss" and not initial.is_infinite:
        # every level's left endpoints are finest-level left endpoints
        finest = partitions[-1]
        fixed, quad = _interval_terms(spec_mu, spec_P, ensemble,
                                      finest.indices[:-1])
        estimates = []
        for part in partitions:
            step = finest.n_intervals // part.n_intervals
            estimates.append(_gauss_chain(initial, fixed[:, ::step],
                                          quad[:, ::step], part))
        estimates = tuple(estimates)
    else:
        estimates = tuple(
            chain_estimate(spec_mu, spec_P, init_mu, init_P, part,
                           method=method, ensemble=ensemble)
            for part in partitions)

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


def diffusion_match_check(spec_mu: DiffusionSpec, spec_P: DiffusionSpec,
                          ensemble_mu: PathEnsemble,
                          tol_match: float = 1e-6, *,
                          max_points: int = 200_000) -> MatchReport:
    """Relative spectral distance between the two diffusion matrices.

    Finiteness of the path-space entropy forces the diffusion matrices to
    agree along the ensemble; the check reports
    max ||c - a||_2 / ||a||_2 over sampled (t, x_t) and passes iff it is
    within tol_match.
    """
    states = ensemble_mu.states
    n, m_plus_1, d = states.shape
    stride = max(1, (n * m_plus_1) // max_points)
    max_dist = 0.0
    arg_t = 0.0
    count = 0
    for k in range(0, m_plus_1, 1):
        x = states[::stride, k]
        t = float(ensemble_mu.grid.points[k])
        a = np.asarray(spec_P.diffusion_matrix(t, x), dtype=float)
        c = np.asarray(spec_mu.diffusion_matrix(t, x), dtype=float)
        if d == 1:
            dist = np.abs(c[..., 0, 0] - a[..., 0, 0]) / np.abs(a[..., 0, 0])
        else:
            diff_norm = np.linalg.norm(np.abs(
                np.linalg.eigvalsh(c - a)), ord=np.inf, axis=-1)
            a_norm = np.linalg.norm(np.abs(np.linalg.eigvalsh(a)),
                                    ord=np.inf, axis=-1)
            dist = diff_norm / a_norm
        k_max = float(dist.max())
        count += x.shape[0]
        if k_max > max_dist:
            max_dist = k_max
            arg_t = t
    return MatchReport(max_distance=max_dist, passed=max_dist <= tol_match,
                       tol_match=tol_match, n_evaluated=count,
                       argmax_time=arg_t)
