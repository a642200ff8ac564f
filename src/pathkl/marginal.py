"""Relative entropy between marginal (finite-dimensional) laws.

Three estimators: the variational lower-bound estimator over a finite test
basis (maximize mean_mu[f] - log mean_nu[e^f]), the space-partition
(histogram) sum with the standard zero and infinity conventions, and the
Gaussian closed form that serves as both oracle and per-step kernel for the
chain decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diffusion import (GaussianLaw, InitialLaw, check_number,
                        check_positive_definite, is_integer, path_generator,
                        positive_definite, substream_seed, variance_part)
from .errors import ArgumentError, CapabilityError, ConvergenceError
from .estimates import TOL_LINALG, EntropyEstimate, clamp_at_zero
from .variational import FunctionBasis, mixed_basis

__all__ = [
    "OptimizerConfig",
    "SpacePartition",
    "dv_estimate",
    "histogram_kl",
    "histogram_report",
    "gaussian_cell_probabilities",
    "empirical_cell_probabilities",
    "gaussian_kl",
    "initial_entropy",
    "pooled_dv_basis",
]

# Armijo sufficient-increase fraction of the DV ascent's line search.
ARMIJO = 1e-4


@dataclass(frozen=True)
class OptimizerConfig:
    """Ascent controls for the variational estimator.

    The ascent declares success when the gradient norm reaches gtol. The
    empirical objective usually flattens into a plateau whose gradient stays
    orders of magnitude above gtol while the value has stopped moving; a run
    that ends at max_iter with relative improvement below plateau_rtol over
    the trailing fifth of the budget is reported as converged-to-plateau
    rather than failed. Runs still climbing at max_iter raise, with the best
    value attached. max_iter must be an integer >= 1, and gtol and
    plateau_rtol finite numbers >= 0 (ArgumentError otherwise).
    """

    gtol: float = 1e-8
    max_iter: int = 500
    plateau_rtol: float = 0.02

    def __post_init__(self):
        if not (is_integer(self.max_iter) and self.max_iter >= 1):
            raise ArgumentError(f"max_iter must be an integer >= 1, got "
                                f"{self.max_iter!r}")
        check_number(self.gtol, "gtol", nonnegative=True)
        check_number(self.plateau_rtol, "plateau_rtol", nonnegative=True)


@dataclass(frozen=True)
class SpacePartition:
    """Axis-aligned product partition of a box, plus one remainder cell.

    Cells are the Cartesian products of per-axis intervals; every point
    outside the box belongs to the implicit remainder cell, so the partition
    covers all of R^d. The remainder cell's index is n_cells.
    """

    axis_edges: tuple
    level: int = 0

    def __post_init__(self):
        edges = tuple(np.asarray(e, dtype=float) for e in self.axis_edges)
        object.__setattr__(self, "axis_edges", edges)
        for e in edges:
            if e.ndim != 1 or e.shape[0] < 2 or not np.all(np.diff(e) > 0):
                raise ArgumentError("axis edges must be increasing, len >= 2")

    @classmethod
    def regular(cls, lo, hi, cells: int, dim: int = 1) -> "SpacePartition":
        if cells < 1:
            raise ArgumentError("need at least one cell per axis")
        lo_a = np.broadcast_to(np.asarray(lo, dtype=float), (dim,))
        hi_a = np.broadcast_to(np.asarray(hi, dtype=float), (dim,))
        return cls(tuple(np.linspace(lo_a[i], hi_a[i], cells + 1)
                         for i in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.axis_edges)

    @property
    def cells_per_axis(self) -> tuple[int, ...]:
        return tuple(e.shape[0] - 1 for e in self.axis_edges)

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.cells_per_axis))

    def refine(self) -> "SpacePartition":
        """Split every cell at its midpoints (per axis)."""
        new_edges = []
        for e in self.axis_edges:
            mids = 0.5 * (e[:-1] + e[1:])
            merged = np.empty(e.shape[0] + mids.shape[0])
            merged[0::2] = e
            merged[1::2] = mids
            new_edges.append(merged)
        return SpacePartition(tuple(new_edges), level=self.level + 1)

    def assign(self, samples) -> np.ndarray:
        """Cell index per sample; the remainder cell is index n_cells."""
        x = np.asarray(samples, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        if x.shape[1] != self.dim:
            raise ArgumentError("sample dimension does not match partition")
        n = x.shape[0]
        inside = np.ones(n, dtype=bool)
        axis_idx = np.empty((self.dim, n), dtype=int)
        for i, e in enumerate(self.axis_edges):
            idx = np.searchsorted(e, x[:, i], side="right") - 1
            # points exactly on the top edge belong to the last cell
            top = x[:, i] == e[-1]
            idx[top] = e.shape[0] - 2
            ok = (idx >= 0) & (idx <= e.shape[0] - 2)
            inside &= ok
            axis_idx[i] = np.clip(idx, 0, e.shape[0] - 2)
        flat = np.ravel_multi_index(tuple(axis_idx), self.cells_per_axis)
        flat[~inside] = self.n_cells
        return flat

    def mu_probabilities(self, samples) -> np.ndarray:
        """Empirical cell probabilities (length n_cells + 1)."""
        idx = self.assign(samples)
        counts = np.bincount(idx, minlength=self.n_cells + 1)
        return counts / counts.sum()


def gaussian_cell_probabilities(law: GaussianLaw):
    """Cell-probability provider for a Gaussian law.

    Requires a covariance that is diagonal within TOL_LINALG · max |entry|
    (cell probabilities factor over axes) and passes positive_definite.
    A cell's probability on an axis is a difference of math.erfc values:
    of the survival function ½ erfc(z / √2) for a cell above the mean, so
    that upper-tail cells keep their relative precision, else of the
    distribution function ½ erfc(-z / √2).
    """
    cov = law.covariance
    d = law.mean.shape[0]
    off_diagonal = cov - np.diag(np.diag(cov))
    if np.abs(off_diagonal).max() > TOL_LINALG * np.abs(cov).max():
        raise CapabilityError(
            "gaussian cell probabilities need a diagonal covariance")
    check_positive_definite(cov, "gaussian provider covariance")
    sd = np.sqrt(np.diag(cov))

    def provider(partition: SpacePartition) -> np.ndarray:
        if partition.dim != d:
            raise ArgumentError("partition dimension does not match law")
        per_axis = []
        for i, e in enumerate(partition.axis_edges):
            z = ((e - law.mean[i]) / sd[i]).tolist()
            per_axis.append(np.array([_normal_mass(lo, hi)
                                      for lo, hi in zip(z, z[1:])]))
        probs = per_axis[0]
        for arr in per_axis[1:]:
            probs = np.multiply.outer(probs, arr)
        probs = probs.reshape(-1)
        remainder = max(1.0 - probs.sum(), 0.0)
        return np.concatenate([probs, [remainder]])

    return provider


def _normal_mass(lo: float, hi: float) -> float:
    """P(lo < Z < hi) for a standard normal Z, from the side of the mean
    the cell lies on."""
    r = math.sqrt(2.0)
    if lo >= 0.0:
        return 0.5 * (math.erfc(lo / r) - math.erfc(hi / r))
    return 0.5 * (math.erfc(-hi / r) - math.erfc(-lo / r))


def empirical_cell_probabilities(samples):
    """Cell-probability provider backed by a sample list."""
    x = np.asarray(samples, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape[0] == 0:
        raise ArgumentError("empirical provider needs samples")

    def provider(partition: SpacePartition) -> np.ndarray:
        return partition.mu_probabilities(x)

    return provider


def _kl_cells(p: np.ndarray, q: np.ndarray) -> float:
    """Sum p log(p/q): zero summand when p=0, +inf when p>0 and q=0."""
    active = p > 0
    if np.any(q[active] == 0):
        return math.inf
    pa, qa = p[active], q[active]
    return float(np.sum(pa * (np.log(pa) - np.log(qa))))


def _cell_pair(samples_mu, nu_eval, partition: SpacePartition):
    """(mu's, the reference's) cell probabilities over partition.

    Raises:
        ArgumentError: the provider's cell count is not the partition's.
    """
    p = partition.mu_probabilities(samples_mu)
    q = np.asarray(nu_eval(partition), dtype=float)
    if q.shape != p.shape:
        raise ArgumentError("provider returned wrong cell count")
    return p, q


def histogram_kl(samples_mu, nu_eval, partition: SpacePartition) -> float:
    """Space-partition entropy sum over the cells of ``partition``.

    Args:
        samples_mu: points distributed under mu.
        nu_eval: provider mapping a partition to reference cell
            probabilities (length n_cells + 1 including the remainder).
        partition: the space partition.

    Returns:
        The partition sum; math.inf when mu charges a reference-null cell.
    """
    return _kl_cells(*_cell_pair(samples_mu, nu_eval, partition))


def histogram_report(samples_mu, nu_eval,
                     partition: SpacePartition) -> EntropyEstimate:
    """histogram_kl with a plug-in standard error."""
    x = np.asarray(samples_mu, dtype=float)
    n = x.shape[0]
    p, q = _cell_pair(x, nu_eval, partition)
    value = _kl_cells(p, q)
    if math.isinf(value):
        return EntropyEstimate(value=math.inf, std_error=0.0,
                               method="histogram",
                               diagnostics={"cells": partition.n_cells,
                                            "level": partition.level})
    active = p > 0
    logs = np.zeros_like(p)
    logs[active] = np.log(p[active]) - np.log(q[active])
    var = float(np.sum(p * (logs - value) ** 2))
    diagnostics = {"cells": partition.n_cells, "level": partition.level,
                   "n_samples": n}
    return EntropyEstimate(value=clamp_at_zero(value, diagnostics),
                           std_error=math.sqrt(var / n), method="histogram",
                           diagnostics=diagnostics)


def gaussian_kl(p: GaussianLaw, q: GaussianLaw, *,
                diagnostics: dict | None = None) -> float:
    """Closed-form KL divergence between Gaussian laws (nats).

    Returns math.inf when p's covariance fails positive_definite (p is then
    degenerate: it lives on an affine subspace that q does not charge).
    Roundoff can put equal laws slightly below zero: the value is then
    clamped at 0, and the unclamped value is kept as
    diagnostics["clamped_from"] when a diagnostics dict is given.

    Raises:
        PositiveDefinitenessError: q's covariance fails positive_definite.
    """
    d = p.mean.shape[0]
    if q.mean.shape[0] != d:
        raise ArgumentError("dimension mismatch")
    check_positive_definite(q.covariance, "reference covariance")
    if not positive_definite(p.covariance):
        return math.inf
    gap = q.mean - p.mean
    val = 0.5 * (float(variance_part(q.covariance, p.covariance))
                 + float(gap @ np.linalg.solve(q.covariance, gap)))
    return clamp_at_zero(val, {} if diagnostics is None else diagnostics)


# ---------------------------------------------------------------------------
# Variational estimator


def _log_sum_exp(a: np.ndarray) -> float:
    """log(sum(exp(a))) of a 1-d float array with the bits of scipy 1.17.1's
    logsumexp: the m entries equal to the maximum are taken out of the
    shifted sum s, and the result is log1p(s / m) + log(m) + max."""
    top = a.max()
    ties = a == top
    m = np.count_nonzero(ties)
    with np.errstate(all="ignore"):
        shifted = np.exp(a - top)
        shifted[ties] = 0.0
        return float(np.log1p(shifted.sum() / m) + np.log(m) + top)


def dv_estimate(samples_mu, samples_nu, basis: FunctionBasis | None = None,
                opt: OptimizerConfig | None = None) -> EntropyEstimate:
    """Variational lower-bound estimate of KL(mu || nu) on a basis span.

    Maximizes J(g) = mean_mu[f_g] - log mean_nu[exp f_g], f_g = sum g_k f_k,
    by gradient ascent with Armijo backtracking from g = 0 (so every iterate
    is a valid lower bound of the restricted supremum). See OptimizerConfig
    for the convergence/plateau semantics. Without a basis, the span is
    pooled_dv_basis of the two sample lists.

    Returns:
        EntropyEstimate with a delta-method standard error and diagnostics
        (iterations, gradient norm, convergence mode).

    Raises:
        ArgumentError: a sample list is empty or holds a NaN or an
            infinite value, or, with no basis, d != 1 or the pooled
            samples hold one value only.
        ConvergenceError: still climbing at max_iter; carries the best value.
    """
    opt = opt or OptimizerConfig()
    x_mu, x_nu = (np.asarray(s, dtype=float) for s in (samples_mu, samples_nu))
    x_mu, x_nu = (x[:, None] if x.ndim == 1 else x for x in (x_mu, x_nu))
    if x_mu.shape[0] == 0 or x_nu.shape[0] == 0:
        raise ArgumentError("both sample lists must be nonempty")
    for name, x in (("samples_mu", x_mu), ("samples_nu", x_nu)):
        if not np.isfinite(x).all():
            raise ArgumentError(f"{name} holds a NaN or an infinite value")
    if basis is None:
        basis = pooled_dv_basis(x_mu, x_nu)

    values_mu = basis.value_matrix(x_mu)       # (n_mu, K)
    values_nu = basis.value_matrix(x_nu)       # (n_nu, K)
    fbar_mu = values_mu.mean(axis=0)
    n_nu = values_nu.shape[0]
    log_n_nu = math.log(n_nu)

    def evaluate(g):  # J(g), the scores values_nu @ g, their log-sum-exp
        scores = values_nu @ g
        log_z = _log_sum_exp(scores)
        return float(fbar_mu @ g - (log_z - log_n_nu)), scores, log_z

    g = np.zeros(basis.size)
    val, scores, log_z = evaluate(g)
    history = [val]
    grad_norm, mode, iterations = math.inf, "max_iter", opt.max_iter

    for it in range(1, opt.max_iter + 1):
        grad = fbar_mu - np.exp(scores - log_z) @ values_nu
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= opt.gtol:
            mode, iterations = "gradient", it
            break
        step = 1.0
        sufficient = ARMIJO * grad_norm * grad_norm
        while step > 1e-16:
            trial = g + step * grad
            cand = evaluate(trial)
            if cand[0] >= val + step * sufficient:
                break
            step *= 0.5
        if step <= 1e-16:
            # no ascent direction survives backtracking: numerical optimum
            mode, iterations = "stalled", it
            break
        g = trial
        val, scores, log_z = cand
        history.append(val)

    if mode == "max_iter":
        tail = max(1, opt.max_iter // 5)
        baseline = history[-tail - 1] if len(history) > tail else history[0]
        rel = (val - baseline) / max(abs(val), 1e-2)
        if rel < opt.plateau_rtol:
            mode = "plateau"
        else:
            raise ConvergenceError(
                f"ascent still climbing at max_iter={opt.max_iter} "
                f"(trailing improvement {rel:.1%})",
                best_value=val,
                diagnostics={"iterations": opt.max_iter,
                             "gradient_norm": grad_norm,
                             "trailing_improvement": rel})

    # delta-method error: mu side from Var f, nu side from Var e^f
    w = np.exp(scores - scores.max())
    ratio = float(np.mean(w * w) / np.mean(w) ** 2)
    se = math.sqrt(float(np.var(values_mu @ g)) / x_mu.shape[0]
                   + max(ratio - 1.0, 0.0) / n_nu)

    diagnostics = {
        "iterations": iterations, "gradient_norm": grad_norm,
        "convergence": mode, "basis_size": basis.size,
        "n_mu": int(x_mu.shape[0]), "n_nu": int(n_nu),
    }
    value = clamp_at_zero(val, diagnostics)
    if val < -3 * se:
        diagnostics["negative_beyond_3se"] = True
    return EntropyEstimate(value=value, std_error=se, method="dv",
                           diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# Initial-law dispatch


def default_dv_basis(lo: float, hi: float) -> FunctionBasis:
    """Wide-scale one-dimensional basis sized to the data range [lo, hi].

    All features have a length scale comparable to the data range: local
    capacity in regions the reference sample never visits inflates the
    estimate (structurally, not as a bug), so the default basis keeps every
    feature global.
    """
    pad = 0.35 * (hi - lo)
    lo, hi = lo - pad, hi + pad
    width = hi - lo
    span = (lo + 0.3 * width, hi - 0.3 * width)
    return mixed_basis([lo], [hi], n_bumps=5, bump_scale=width / 3.2,
                       degrees=[0, 1, 2], bump_span=span)


def pooled_dv_basis(samples_mu, samples_nu) -> FunctionBasis:
    """default_dv_basis over the range of both sample lists together.
    ArgumentError unless the samples are 1-d and span a positive range."""
    pooled = np.concatenate([samples_mu, samples_nu])
    if pooled.ndim > 1 and pooled.shape[1] != 1:
        raise ArgumentError("the default DV basis is one-dimensional")
    lo, hi = float(pooled.min()), float(pooled.max())
    if lo == hi:
        raise ArgumentError(
            f"the pooled samples_mu and samples_nu have zero extent (every "
            f"value is {lo!r}), so no default DV basis fits them; pass a "
            f"basis")
    return default_dv_basis(lo, hi)


def initial_entropy(init_mu: InitialLaw,
                    init_P: InitialLaw) -> EntropyEstimate:
    """Relative entropy between two time-zero laws.

    Supported pairs: Gaussian/Gaussian (closed form), point/point (0 or
    +inf), empirical/Gaussian (variational), point/Gaussian (+inf: a point
    mass is singular with respect to a nondegenerate Gaussian). Anything
    else raises CapabilityError.

    The variational route runs dv_estimate, on its default basis, on the
    samples and as many draws of the Gaussian under seed 0.
    """
    kinds = (init_mu.kind, init_P.kind)
    if init_mu.dim != init_P.dim:
        raise ArgumentError("initial laws must share a dimension")

    if kinds == ("gaussian", "gaussian"):
        diagnostics = {}
        value = gaussian_kl(init_mu.gaussian_law, init_P.gaussian_law,
                            diagnostics=diagnostics)
        return EntropyEstimate(value=value, std_error=0.0,
                               method="gaussian-closed-form",
                               diagnostics=diagnostics)

    if kinds == ("point", "point"):
        equal = np.array_equal(init_mu.point, init_P.point)
        return EntropyEstimate(value=0.0 if equal else math.inf,
                               std_error=0.0, method="point-point")

    if kinds == ("point", "gaussian"):
        return EntropyEstimate(value=math.inf, std_error=0.0,
                               method="singular-pair",
                               diagnostics={"reason":
                                            "point mass vs nondegenerate "
                                            "gaussian"})

    if kinds == ("empirical", "gaussian"):
        samples = init_mu.samples
        nu = init_P.gaussian_law.draw(path_generator(substream_seed(0, 0), 0),
                                      samples.shape[0])
        est = dv_estimate(samples, nu)
        est.diagnostics["initial_route"] = "empirical-vs-gaussian-dv"
        return est

    raise CapabilityError(
        f"initial-law pair {kinds[0]}/{kinds[1]} is not supported")
