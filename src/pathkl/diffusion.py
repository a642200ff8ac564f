"""Diffusion models: coefficients, generator, weighted geometry, sampling.

A model is a drift b(t, x) and a diffusion matrix a(t, x) (the matrix itself,
not its square root; the generator is ½ Σ a^{jk} ∂²_{jk} + Σ b^j ∂_j). The
same container describes either law of a pair under comparison. Paths are
sampled by Euler-Maruyama with counter-based per-path random substreams so
ensembles are bit-identical for any degree of parallelism.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    ArgumentError,
    CapabilityError,
    ModelEvaluationError,
    PositiveDefinitenessError,
)
from .estimates import TOL_LINALG

__all__ = [
    "EPS_PD",
    "DiffusionSpec",
    "InitialLaw",
    "TimeGrid",
    "PathEnsemble",
    "GaussianLaw",
    "drift_eval",
    "diffusion_eval",
    "weighted_inner",
    "apply_generator",
    "sample_paths",
    "euler_step_law",
    "substream_seed",
    "make_model",
    "register_model",
    "model_ids",
    "model_params",
]

# Smallest admissible eigenvalue of a diffusion matrix.
EPS_PD = 1e-10


@dataclass(frozen=True)
class DiffusionSpec:
    """Coefficients of one diffusion law.

    drift maps (t, x) -> R^d and diffusion_matrix maps (t, x) -> symmetric
    positive definite d x d. Both must broadcast over a leading batch axis of
    x: x of shape (..., d) yields (..., d) and (..., d, d). constant_diffusion
    marks models whose a(t, x) never varies, enabling a single Cholesky
    factorization per sampling run.
    """

    dim: int
    drift: Callable[[float, np.ndarray], np.ndarray]
    diffusion_matrix: Callable[[float, np.ndarray], np.ndarray]
    model_id: str = "custom"
    params: dict = field(default_factory=dict)
    constant_diffusion: bool = False


@dataclass(frozen=True)
class InitialLaw:
    """Time-zero law: point mass, Gaussian, or empirical sample list."""

    kind: str
    dim: int
    point: np.ndarray | None = None
    mean: np.ndarray | None = None
    covariance: np.ndarray | None = None
    samples: np.ndarray | None = None

    @classmethod
    def point_mass(cls, x0) -> "InitialLaw":
        x0 = np.atleast_1d(np.asarray(x0, dtype=float))
        return cls(kind="point", dim=x0.shape[0], point=x0)

    @classmethod
    def gaussian(cls, mean, covariance) -> "InitialLaw":
        mean = np.atleast_1d(np.asarray(mean, dtype=float))
        covariance = np.atleast_2d(np.asarray(covariance, dtype=float))
        if covariance.shape != (mean.shape[0],) * 2:
            raise ArgumentError("covariance shape does not match mean")
        if not np.allclose(covariance, covariance.T, atol=TOL_LINALG):
            raise ArgumentError("initial covariance must be symmetric")
        if np.linalg.eigvalsh(covariance).min() < -TOL_LINALG:
            raise ArgumentError("initial covariance must be PSD")
        return cls(kind="gaussian", dim=mean.shape[0], mean=mean,
                   covariance=covariance)

    @classmethod
    def empirical(cls, samples) -> "InitialLaw":
        samples = np.asarray(samples, dtype=float)
        if samples.ndim == 1:
            samples = samples[:, None]
        if samples.shape[0] == 0:
            raise ArgumentError("empirical initial law needs samples")
        return cls(kind="empirical", dim=samples.shape[1], samples=samples)

    def draw(self, gen: np.random.Generator) -> np.ndarray:
        """One draw using the caller's (per-path) generator."""
        if self.kind == "point":
            return self.point.copy()
        if self.kind == "gaussian":
            root = _psd_root(self.covariance)
            return self.mean + root @ gen.standard_normal(self.dim)
        if self.kind == "empirical":
            return self.samples[gen.integers(self.samples.shape[0])].copy()
        raise CapabilityError(f"unsupported initial law kind {self.kind!r}")


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing times from 0 to T."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1 or pts.shape[0] < 2:
            raise ArgumentError("grid needs at least two points")
        if pts[0] != 0.0:
            raise ArgumentError("grid must start at 0")
        if not np.all(np.diff(pts) > 0):
            raise ArgumentError("grid must be strictly increasing")
        if not np.isfinite(pts).all():
            raise ArgumentError("grid must be finite")

    @classmethod
    def uniform(cls, horizon: float, steps: int) -> "TimeGrid":
        if steps < 1 or horizon <= 0:
            raise ArgumentError("need steps >= 1 and horizon > 0")
        return cls(np.linspace(0.0, horizon, steps + 1))

    @property
    def horizon(self) -> float:
        return float(self.points[-1])

    @property
    def n_steps(self) -> int:
        return self.points.shape[0] - 1


@dataclass(frozen=True)
class PathEnsemble:
    """N trajectories on one grid, reproducible from the recorded seed."""

    grid: TimeGrid
    states: np.ndarray  # (n_paths, n_times, d)
    seed: int
    model_id: str = "custom"

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]

    @property
    def dim(self) -> int:
        return self.states.shape[2]


@dataclass(frozen=True)
class GaussianLaw:
    """Mean and covariance of a Gaussian law (one-step transition, oracle)."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.covariance, dtype=float))
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)
        if cov.shape != (mean.shape[0],) * 2:
            raise ArgumentError("covariance shape does not match mean")
        if not np.allclose(cov, cov.T, atol=1e-8 * (1 + np.abs(cov).max())):
            raise ArgumentError("covariance must be symmetric")


def _psd_root(cov: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root; tolerates semidefinite covariances."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(cov)
        vals = np.clip(vals, 0.0, None)
        return vecs * np.sqrt(vals)


def substream_seed(seed: int, index: int) -> int:
    """Derived 64-bit seed for auxiliary stream #index (splitmix64 mix)."""
    z = (seed * 0x9E3779B97F4A7C15 + index + 1) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def path_generator(seed: int, index: int) -> np.random.Generator:
    # Counter-based: the (seed, index) key fixes the stream regardless of
    # which thread evaluates it.
    return np.random.Generator(np.random.Philox(key=(seed, index)))


def drift_eval(spec: DiffusionSpec, t: float, x) -> np.ndarray:
    """Drift vector at (t, x).

    Raises:
        ModelEvaluationError: on non-finite output.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.asarray(spec.drift(t, x), dtype=float)
    if not np.isfinite(out).all():
        raise ModelEvaluationError(
            f"drift of {spec.model_id!r} non-finite at t={t}, x={x}")
    return out


def diffusion_eval(spec: DiffusionSpec, t: float, x) -> tuple[np.ndarray, np.ndarray]:
    """Diffusion matrix and its inverse at (t, x).

    Returns:
        (a, a_inv) with a symmetric positive definite and a @ a_inv = I
        within linear-algebra tolerance.

    Raises:
        PositiveDefinitenessError: smallest eigenvalue of a is <= EPS_PD.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    a = np.atleast_2d(np.asarray(spec.diffusion_matrix(t, x), dtype=float))
    if not np.isfinite(a).all():
        raise ModelEvaluationError(
            f"diffusion of {spec.model_id!r} non-finite at t={t}, x={x}")
    if not np.allclose(a, a.T, atol=TOL_LINALG * (1 + np.abs(a).max())):
        raise PositiveDefinitenessError("diffusion matrix must be symmetric")
    if np.linalg.eigvalsh(a).min() <= EPS_PD:
        raise PositiveDefinitenessError(
            f"diffusion matrix of {spec.model_id!r} not PD at t={t}, x={x}")
    a_inv = np.linalg.inv(a)
    return a, a_inv


def weighted_inner(spec: DiffusionSpec, t: float, x, u, v) -> float:
    """Inner product u' a(t,x)^{-1} v weighting vectors by the inverse
    diffusion matrix."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    _, a_inv = diffusion_eval(spec, t, x)
    return float(u @ a_inv @ v)


def apply_generator(spec: DiffusionSpec, t: float, f, x) -> float:
    """Generator value ½ tr(a · Hess f) + b · grad f at (t, x).

    f must expose gradient(x) and hessian(x); a basis function without a
    Hessian cannot be pushed through the generator.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    hess_fn = getattr(f, "hessian", None)
    grad_fn = getattr(f, "gradient", None)
    if hess_fn is None or grad_fn is None:
        raise CapabilityError("generator needs gradient and hessian")
    hess = hess_fn(x)
    if hess is None:
        raise CapabilityError("generator needs gradient and hessian")
    a, _ = diffusion_eval(spec, t, x)
    b = drift_eval(spec, t, x)
    return float(0.5 * np.trace(a @ np.atleast_2d(hess))
                 + b @ np.atleast_1d(grad_fn(x)))


def partition_blocks(n: int, threads: int,
                     work: Callable[[int, int], object]) -> list:
    """Run work(lo, hi) on contiguous blocks covering range(n), one per thread.

    The partition only schedules work: callers key every random stream by
    its item index, so results do not depend on the thread count.
    """
    if threads <= 1 or n < 2 * threads:
        return [work(0, n)]
    bounds = np.linspace(0, n, threads + 1).astype(int)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(work, int(bounds[j]), int(bounds[j + 1]))
                   for j in range(threads) if bounds[j] < bounds[j + 1]]
        return [fut.result() for fut in futures]


def euler_maruyama(spec: DiffusionSpec, grid: TimeGrid, x0: np.ndarray,
                   z: np.ndarray, out: np.ndarray) -> None:
    """Step start states x0 (n, d) with standard increments z (n, m, d).

    Writes the n paths into out (n, m + 1, d).

    Raises:
        PositiveDefinitenessError: a diffusion matrix along the paths is
            not positive definite.
        ModelEvaluationError: the paths reach non-finite states.
    """
    d = spec.dim
    times = grid.points
    out[:, 0] = x0
    x = out[:, 0].copy()
    if spec.constant_diffusion:
        a0 = np.atleast_2d(np.asarray(
            spec.diffusion_matrix(times[0], x[0]), dtype=float))
        try:
            chol = np.linalg.cholesky(a0)
        except np.linalg.LinAlgError as exc:
            raise PositiveDefinitenessError(
                f"Cholesky failed for {spec.model_id!r}") from exc

    for k in range(grid.n_steps):
        t = float(times[k])
        dt = float(times[k + 1] - times[k])
        step = spec.drift(t, x) * dt
        if spec.constant_diffusion:
            noise = z[:, k] @ chol.T
        else:
            a = np.asarray(spec.diffusion_matrix(t, x), dtype=float)
            if d == 1:
                av = a.reshape(x.shape[0])
                if np.any(av <= EPS_PD):
                    raise PositiveDefinitenessError(
                        f"diffusion of {spec.model_id!r} not PD along path")
                noise = (np.sqrt(av) * z[:, k, 0])[:, None]
            else:
                try:
                    chols = np.linalg.cholesky(a)
                except np.linalg.LinAlgError as exc:
                    raise PositiveDefinitenessError(
                        f"Cholesky failed for {spec.model_id!r}") from exc
                noise = np.einsum("nij,nj->ni", chols, z[:, k])
        x = x + step + noise * math.sqrt(dt)
        out[:, k + 1] = x

    if not np.isfinite(out).all():
        raise ModelEvaluationError(
            f"simulation of {spec.model_id!r} produced non-finite states")


def sample_paths(spec: DiffusionSpec, init: InitialLaw, grid: TimeGrid,
                 n: int, seed: int, threads: int = 1) -> PathEnsemble:
    """Sample n Euler-Maruyama paths.

    Path i draws its initial state and all its increments from the Philox
    substream keyed by (seed, i), so the ensemble is bit-identical for any
    thread count.

    Args:
        spec: the diffusion law to simulate.
        init: time-zero law.
        grid: simulation grid.
        n: number of paths (>= 1).
        seed: master seed for the substream family.
        threads: worker threads; partitions the path range only.

    Returns:
        PathEnsemble of shape (n, len(grid), d).
    """
    if n < 1:
        raise ArgumentError("need at least one path")
    if init.dim != spec.dim:
        raise ArgumentError("initial law dimension does not match model")
    states = np.empty((n, grid.points.shape[0], spec.dim))

    def simulate(lo: int, hi: int) -> None:
        x0 = np.empty((hi - lo, spec.dim))
        z = np.empty((hi - lo, grid.n_steps, spec.dim))
        for i in range(hi - lo):
            gen = path_generator(seed, lo + i)
            x0[i] = init.draw(gen)
            z[i] = gen.standard_normal((grid.n_steps, spec.dim))
        euler_maruyama(spec, grid, x0, z, states[lo:hi])

    partition_blocks(n, threads, simulate)
    return PathEnsemble(grid=grid, states=states, seed=seed,
                        model_id=spec.model_id)


def euler_step_law(spec: DiffusionSpec, t: float, x, dt: float) -> GaussianLaw:
    """One-step Euler transition law N(x + b(t,x) dt, a(t,x) dt)."""
    if dt <= 0:
        raise ArgumentError("dt must be positive")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    b = drift_eval(spec, t, x)
    a, _ = diffusion_eval(spec, t, x)
    return GaussianLaw(mean=x + b * dt, covariance=a * dt)


# ---------------------------------------------------------------------------
# Model catalog


def _const_matrix(value, dim: int) -> np.ndarray:
    a = np.asarray(value, dtype=float)
    if a.ndim == 0:
        a = float(a) * np.eye(dim)
    a = np.atleast_2d(a)
    if a.shape != (dim, dim):
        raise ArgumentError(f"diffusion matrix must be {dim}x{dim}")
    return a


def _constant_diffusion_fn(a: np.ndarray):
    def diffusion(t, x):
        x = np.asarray(x)
        return np.broadcast_to(a, x.shape[:-1] + a.shape)
    return diffusion


def _build_brownian(params: dict, dim: int) -> DiffusionSpec:
    a = _const_matrix(params.get("a", 1.0), dim)
    zero = np.zeros(dim)

    def drift(t, x):
        x = np.asarray(x)
        return np.broadcast_to(zero, x.shape)

    return DiffusionSpec(dim=dim, drift=drift,
                         diffusion_matrix=_constant_diffusion_fn(a),
                         model_id="brownian", params=dict(params),
                         constant_diffusion=True)


def _build_constant_drift(params: dict, dim: int) -> DiffusionSpec:
    theta = np.broadcast_to(
        np.asarray(params.get("theta", 1.0), dtype=float), (dim,)).copy()
    a = _const_matrix(params.get("a", 1.0), dim)

    def drift(t, x):
        x = np.asarray(x)
        return np.broadcast_to(theta, x.shape)

    return DiffusionSpec(dim=dim, drift=drift,
                         diffusion_matrix=_constant_diffusion_fn(a),
                         model_id="constant_drift", params=dict(params),
                         constant_diffusion=True)


def _build_ou(params: dict, dim: int) -> DiffusionSpec:
    gamma = float(params.get("gamma", 1.0))
    a = _const_matrix(params.get("a", 1.0), dim)

    def drift(t, x):
        return -gamma * np.asarray(x, dtype=float)

    return DiffusionSpec(dim=dim, drift=drift,
                         diffusion_matrix=_constant_diffusion_fn(a),
                         model_id="ou", params=dict(params),
                         constant_diffusion=True)


def _build_double_well(params: dict, dim: int) -> DiffusionSpec:
    a = _const_matrix(params.get("a", 1.0), dim)

    def drift(t, x):
        x = np.asarray(x, dtype=float)
        return x - x ** 3

    return DiffusionSpec(dim=dim, drift=drift,
                         diffusion_matrix=_constant_diffusion_fn(a),
                         model_id="double_well", params=dict(params),
                         constant_diffusion=True)


def _build_linear(params: dict, dim: int) -> DiffusionSpec:
    amat = np.atleast_2d(np.asarray(params.get("A", 0.0), dtype=float))
    if amat.shape != (dim, dim):
        raise ArgumentError(f"A must be {dim}x{dim}")
    b0 = np.broadcast_to(
        np.asarray(params.get("b0", 0.0), dtype=float), (dim,)).copy()
    a = _const_matrix(params.get("a", 1.0), dim)

    def drift(t, x):
        x = np.asarray(x, dtype=float)
        return x @ amat.T + b0

    return DiffusionSpec(dim=dim, drift=drift,
                         diffusion_matrix=_constant_diffusion_fn(a),
                         model_id="linear", params=dict(params),
                         constant_diffusion=True)


def _build_sine_diffusion(params: dict, dim: int) -> DiffusionSpec:
    # State-dependent scalar diffusion a0 (1 + amp sin x); exercises the
    # non-constant code paths and the match check's bulk statistics.
    if dim != 1:
        raise ArgumentError("sine_diffusion is one-dimensional")
    a0 = float(params.get("a", 1.0))
    amp = float(params.get("amplitude", 0.5))
    if not 0 <= amp < 1:
        raise ArgumentError("amplitude must lie in [0, 1)")

    def drift(t, x):
        x = np.asarray(x)
        return np.zeros_like(x)

    def diffusion(t, x):
        x = np.asarray(x, dtype=float)
        return (a0 * (1.0 + amp * np.sin(x[..., 0])))[..., None, None]

    return DiffusionSpec(dim=1, drift=drift, diffusion_matrix=diffusion,
                         model_id="sine_diffusion", params=dict(params),
                         constant_diffusion=False)


Builder = Callable[[dict, int], DiffusionSpec]

# model id -> (builder, accepted parameter names)
_CATALOG: dict[str, tuple[Builder, tuple[str, ...]]] = {
    "brownian": (_build_brownian, ("a",)),
    "constant_drift": (_build_constant_drift, ("theta", "a")),
    "ou": (_build_ou, ("gamma", "a")),
    "double_well": (_build_double_well, ("a",)),
    "linear": (_build_linear, ("A", "b0", "a")),
    "sine_diffusion": (_build_sine_diffusion, ("a", "amplitude")),
}


def make_model(model_id: str, params: dict | None = None, dim: int = 1) -> DiffusionSpec:
    """Instantiate a catalog model.

    Raises:
        ArgumentError: unknown model id, unknown parameter names, or
            invalid parameter values.
    """
    if model_id not in _CATALOG:
        known = ", ".join(sorted(_CATALOG))
        raise ArgumentError(f"unknown model {model_id!r}; catalog: {known}")
    builder, names = _CATALOG[model_id]
    params = params or {}
    unknown = set(params) - set(names)
    if unknown:
        raise ArgumentError(
            f"unknown params for model {model_id!r}: {sorted(unknown)}; "
            f"allowed: {sorted(names)}")
    return builder(params, dim)


def register_model(model_id: str, builder: Builder,
                   params: tuple[str, ...] = ()) -> None:
    """Register a user model builder and its parameter names under a new
    catalog id."""
    if model_id in _CATALOG:
        raise ArgumentError(f"model id {model_id!r} already registered")
    _CATALOG[model_id] = (builder, tuple(params))


def model_ids() -> list[str]:
    return sorted(_CATALOG)


def model_params(model_id: str) -> tuple[str, ...]:
    """Parameter names a catalog model accepts."""
    if model_id not in _CATALOG:
        raise ArgumentError(f"unknown model {model_id!r}")
    return _CATALOG[model_id][1]
