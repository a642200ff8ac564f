"""Diffusion models: coefficients, their evaluation on ensembles, sampling.

A model is a drift b(t, x) and a diffusion matrix a(t, x) (the matrix itself,
not its square root; the generator is ½ Σ a^{jk} ∂²_{jk} + Σ b^j ∂_j). The
same container describes either law of a pair under comparison, and
PairCoefficients evaluates a pair on the time slices of an ensemble. Paths are
sampled by Euler-Maruyama with counter-based per-path random substreams so
ensembles are bit-identical for any degree of parallelism.
"""

from __future__ import annotations

import math
import numbers
import reprlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
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
    "DiffusionSpec",
    "InitialLaw",
    "TimeGrid",
    "PathEnsemble",
    "GaussianLaw",
    "MatchReport",
    "no_nan",
    "positive_definite",
    "check_positive_definite",
    "sample_paths",
    "euler_step_law",
    "diffusion_match_check",
    "substream_seed",
    "make_model",
    "register_model",
    "model_ids",
    "model_params",
    "param",
]

# Paths handled together: sanov batches its trials in blocks of at most
# this many paths, and the sampler's and girsanov's blocks, sized by
# elements, never hold fewer. No result depends on it.
BLOCK_PATHS = 1024

# Increments the sampler draws and steps at once, 8 MiB (twice that while
# stream_inputs copies them time-major): a block holds
# max(BLOCK_PATHS, BLOCK_ELEMENTS // (steps * d)) paths, so short grids step
# wide blocks and long ones stay bounded. No result depends on it.
BLOCK_ELEMENTS = 2 ** 20

# States diffusion_match_check compares, about: it takes every stride-th
# path at every grid time.
MATCH_POINTS = 200_000


def positive_definite(a: np.ndarray) -> bool:
    """Whether every d x d matrix of the (..., d, d) stack a passes the PD
    rule, which every diffusion matrix and KL reference is held to.

    A matrix passes when it is symmetric within TOL_LINALG · max |entry| of
    that matrix and positive definite: a > 0 in d = 1, a Cholesky
    factorization that succeeds in d >= 2. The verdict does not depend on
    scale: c · A gets A's for every c > 0. A NaN entry passes, and so does
    an infinite one (but -inf in d = 1), so that the callers' finiteness
    checks name them.
    """
    return _pd_rule(a)[0]


def _pd_rule(a: np.ndarray) -> tuple[bool, np.ndarray | None]:
    """positive_definite's verdict on a, and the Cholesky factor it computed
    in d >= 2 (of the finite matrices only, where some are not)."""
    if a.shape[-1] == 1:
        return not np.any(a <= 0), None
    mirror = np.swapaxes(a, -1, -2)
    # an exactly symmetric, finite stack (the common case) skips the
    # per-matrix tolerance and the copy, which cost as much as Cholesky
    if not (a == mirror).all():
        scale = np.abs(a).max(axis=(-2, -1), keepdims=True)
        if np.any(np.abs(a - mirror) > TOL_LINALG * scale):
            return False, None
    if not np.isfinite(a).all():
        a = a[np.isfinite(a).all(axis=(-2, -1))]
    try:
        return True, np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False, None


def check_positive_definite(a: np.ndarray, what: str) -> np.ndarray | None:
    """Raise PositiveDefinitenessError, naming what, unless every matrix of
    the stack a passes positive_definite; return _pd_rule's factor."""
    passed, factor = _pd_rule(a)
    if not passed:
        raise PositiveDefinitenessError(
            f"{what} is not symmetric positive definite")
    return factor


@dataclass(frozen=True)
class DiffusionSpec:
    """Coefficients of one diffusion law.

    drift maps (t, x) -> R^d and diffusion_matrix maps (t, x) -> symmetric
    positive definite d x d. Both must broadcast over a leading batch axis of
    x: x of shape (..., d) yields (..., d) and (..., d, d). constant_matrix
    is the d x d matrix of a model whose a(t, x) never varies, or None: where
    it is set, it stands in for diffusion_matrix, and it is trusted to equal
    it. Every route reads a(t, x) through matrix_at.
    """

    dim: int
    drift: Callable[[float, np.ndarray], np.ndarray]
    diffusion_matrix: Callable[[float, np.ndarray], np.ndarray]
    model_id: str = "custom"
    params: dict = field(default_factory=dict)
    constant_matrix: np.ndarray | None = field(default=None, compare=False)

    @cached_property
    def constant_factor(self) -> np.ndarray | None:
        """Cholesky factor of constant_matrix, computed once (by the PD rule
        in d >= 2, the square root in d = 1), or None.

        Raises:
            PositiveDefinitenessError, ModelEvaluationError: as matrix_at,
                naming no time or path.
        """
        if self.constant_matrix is None:
            return None
        a, factor = _checked(self.constant_matrix, f"constant diffusion "
                             f"matrix of {self.model_id!r}", None)
        return np.sqrt(a) if factor is None else factor

    def matrix_at(self, t: float, x: np.ndarray) -> np.ndarray:
        """a(t, x): constant_matrix (d, d) where it is set, else
        diffusion_matrix(t, x) as a (..., d, d) float stack. Raises
        PositiveDefinitenessError if a matrix fails positive_definite (as
        -inf in d = 1 does), then ModelEvaluationError if one is not finite.
        """
        if self.constant_factor is not None:
            return self.constant_matrix
        return self._factored_at(t, x)[0]

    def _factored_at(self, t: float, x: np.ndarray):
        """diffusion_matrix(t, x), checked as matrix_at checks it, and its
        Cholesky factor from the check (None in d = 1)."""
        return _checked(np.asarray(self.diffusion_matrix(t, x), dtype=float),
                        f"diffusion matrix of {self.model_id!r}", t)


def _checked(a: np.ndarray, what: str, t: float | None):
    """a and _pd_rule's factor of it, once a passes the rule and then no_nan
    (t is None for a matrix that does not depend on (t, x))."""
    factor = check_positive_definite(
        a, what if t is None else f"{what} at t = {t:g}")
    return no_nan(a, what, t), factor


@dataclass(frozen=True)
class InitialLaw:
    """Time-zero law: point mass, Gaussian, or empirical sample list."""

    kind: str
    dim: int
    point: np.ndarray | None = None
    gaussian_law: GaussianLaw | None = None
    samples: np.ndarray | None = None

    # Each constructor raises ArgumentError with a message that starts with
    # the name of the offending argument, unless every entry is a finite
    # number (a bool is not one) in an array of one shape.

    @classmethod
    def point_mass(cls, point) -> "InitialLaw":
        point = np.atleast_1d(_finite_array(point, "point"))
        return cls(kind="point", dim=point.shape[0], point=point)

    @classmethod
    def gaussian(cls, mean, covariance) -> "InitialLaw":
        law = GaussianLaw(mean, covariance)
        return cls(kind="gaussian", dim=law.mean.shape[0], gaussian_law=law)

    @classmethod
    def empirical(cls, samples) -> "InitialLaw":
        samples = _finite_array(samples, "samples")
        if samples.ndim == 1:
            samples = samples[:, None]
        if samples.shape[0] == 0:
            raise ArgumentError("samples must hold at least one sample")
        return cls(kind="empirical", dim=samples.shape[1], samples=samples)

    def draw(self, gen: np.random.Generator, size: int) -> np.ndarray:
        """size draws of shape (size, d) from the caller's generator.

        The rows carry the same bits as size single draws in turn, and the
        generator ends at the same position.
        """
        if self.kind == "point":
            return np.tile(self.point, (size, 1))
        if self.kind == "gaussian":
            return self.gaussian_law.draw(gen, size)
        if self.kind == "empirical":
            return self.samples[gen.integers(self.samples.shape[0], size=size)]
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

    def index_of(self, t: float) -> int:
        """Index of the grid point nearest t.

        Raises:
            ArgumentError: no grid point lies within 1e-12 of t.
        """
        pts = self.points
        hi = min(int(np.searchsorted(pts, t)), pts.shape[0] - 1)
        idx = hi - 1 if hi > 0 and t - pts[hi - 1] < pts[hi] - t else hi
        if not abs(float(pts[idx]) - t) <= 1e-12:
            raise ArgumentError(f"time {t} is not on the grid")
        return idx


@dataclass(frozen=True)
class PathEnsemble:
    """N trajectories on one grid, reproducible from the recorded seed.

    sample_paths stores the paths time-major, in one (n_times, n_paths, d)
    buffer, and states is its (n_paths, n_times, d) transpose view: the
    time slice states[:, k] is contiguous.
    """

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
    """Mean and covariance of a Gaussian law (initial law, one-step
    transition, oracle).

    Raises:
        ArgumentError: with a message that starts with mean or covariance,
            unless every entry is a finite number, the mean a d-vector and
            the covariance a d x d symmetric PSD matrix, both within
            TOL_LINALG · max |covariance|, symmetry measured as in
            positive_definite. This covariance rule admits a singular
            covariance, which positive_definite refuses.
    """

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(_finite_array(self.mean, "mean"))
        cov = np.atleast_2d(_finite_array(self.covariance, "covariance"))
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)
        if mean.ndim != 1:
            raise ArgumentError(f"mean must be a vector, got shape "
                                f"{mean.shape}")
        if cov.shape != (mean.shape[0],) * 2:
            raise ArgumentError("covariance shape does not match mean")
        tol = TOL_LINALG * np.abs(cov).max()
        if np.any(np.abs(cov - cov.T) > tol):
            raise ArgumentError("covariance must be symmetric")
        if np.linalg.eigvalsh(cov).min() < -tol:
            raise ArgumentError("covariance must be PSD")

    @cached_property
    def root(self) -> np.ndarray:
        """Cholesky factor, or V sqrt(L) from eigh when only semidefinite."""
        try:
            return np.linalg.cholesky(self.covariance)
        except np.linalg.LinAlgError:
            vals, vecs = np.linalg.eigh(self.covariance)
            return vecs * np.sqrt(np.clip(vals, 0.0, None))

    def draw(self, gen: np.random.Generator, size: int) -> np.ndarray:
        """size draws of shape (size, d), as size single draws in turn."""
        z = gen.standard_normal((size, self.mean.shape[0]))
        # root @ z per row; z @ root.T rounds differently for d >= 2
        return self.mean + (self.root @ z[..., None])[..., 0]


def substream_seed(seed: int, index: int) -> int:
    """Derived 64-bit seed for auxiliary stream #index (splitmix64 mix)."""
    z = (seed * 0x9E3779B97F4A7C15 + index + 1) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def check_seed(seed: int) -> None:
    """Reject a master seed that is not an integer (a bool is not one) or
    lies outside [-2**63, 2**63).

    Keys take a seed modulo 2**64, so a wider seed would share its streams
    with one in that range.
    """
    if not is_integer(seed):
        raise ArgumentError(f"seed must be an integer, got {seed!r}")
    if not -2 ** 63 <= seed < 2 ** 63:
        raise ArgumentError(f"seed must lie in [-2**63, 2**63), got {seed}")


def _philox_key(seed: int, index: int) -> np.ndarray:
    return np.array([seed % 2 ** 64, index], dtype=np.uint64)


def path_generator(seed: int, index: int) -> np.random.Generator:
    # Counter-based: the (seed mod 2**64, index) key fixes the stream
    # regardless of which thread evaluates it.
    return np.random.Generator(np.random.Philox(key=_philox_key(seed, index)))


def _keyed_streams(seed: int, streams: range):
    """Yield a generator equal to path_generator(seed, j) for each j in turn.

    One Philox bit generator per call is re-keyed per stream, to the state
    a fresh one starts in: the key, a zero counter and an empty buffer.
    Each generator is valid until the next is yielded.
    """
    gen = path_generator(seed, 0)
    key = _philox_key(seed, 0)
    state = {"bit_generator": "Philox",
             "state": {"counter": (0, 0, 0, 0), "key": key},
             "buffer": (0, 0, 0, 0), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    for j in streams:
        key[1] = j
        gen.bit_generator.state = state
        yield gen


def stream_inputs(init: InitialLaw, seed: int, streams: range,
                  per_stream: int, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Start states and standard increments for the paths of some streams.

    Stream j is path_generator(seed, j). It draws per_stream initial states,
    then one (steps, per_stream, d) increment block, and its paths are
    consecutive. Each stream's block is drawn into its own contiguous row of
    a stream-major buffer, and the buffer is then copied time-major once.

    Returns:
        x0 of shape (len(streams) * per_stream, d) and time-major z of
        shape (steps, len(streams) * per_stream, d), in the form
        euler_maruyama takes.
    """
    d = init.dim
    x0 = np.empty((len(streams), per_stream, d))
    drawn = np.empty((len(streams), steps, per_stream, d))
    # a point mass draws nothing from the generator: fill it once
    point = init.kind == "point"
    if point:
        x0[...] = init.point
    for i, gen in enumerate(_keyed_streams(seed, streams)):
        if not point:
            x0[i] = init.draw(gen, per_stream)
        gen.standard_normal(out=drawn[i])
    z = np.ascontiguousarray(drawn.transpose(1, 0, 2, 3))
    return x0.reshape(-1, d), z.reshape(steps, -1, d)


def variance_part(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """tr(a^{-1} c) - d + logdet a - logdet c over the leading axes of a
    and c: twice KL(N(0, c) || N(0, a)), the mean-free part of a Gaussian KL.

    a (the reference) and c (the ensemble) must have passed the PD rule, as
    matrix_at, constant_factor and check_positive_definite pass them.

    1 x 1 matrices take a closed form with LAPACK's bits: c / a is the 1 x 1
    solve, and the log is libm's, as slogdet takes it: math.log for a
    single pair, xlogy(1, a) per entry otherwise (np.log's vector loop
    differs from libm in the last bit on some inputs). As with slogdet, a
    NaN entry passes through to the result.
    """
    if a.shape[-1] == 1:
        a1, c1 = a[..., 0, 0], c[..., 0, 0]
        if a1.ndim == 0 and c1.ndim == 0:
            return c1 / a1 - 1 + (math.log(a1) - math.log(c1))
        from scipy.special import xlogy
        return c1 / a1 - 1 + (xlogy(1.0, a1) - xlogy(1.0, c1))
    logdet_a = np.linalg.slogdet(a)[1]
    logdet_c = np.linalg.slogdet(c)[1]
    trace = np.trace(np.linalg.solve(a, c), axis1=-2, axis2=-1)
    return trace - a.shape[-1] + (logdet_a - logdet_c)


def no_nan(values: np.ndarray, what: str, t: float | None) -> np.ndarray:
    """values, unless one is NaN or infinite (a coefficient was non-finite
    on some path at t, or anywhere when t is None: a value that does not
    depend on (t, x), named with no time and no path).

    Raises:
        ModelEvaluationError: naming what is NaN or infinite, and t.
    """
    if not np.isfinite(values).all():
        kind = "NaN" if np.isnan(values).any() else "infinite"
        where = "" if t is None else f" on some path at t = {t:g}"
        raise ModelEvaluationError(f"{what} is {kind}{where}")
    return values


class PairCoefficients:
    """Coefficients of (mu, P) on the time slices of an ensemble.

    A model's constant_matrix is inverted at most once per run; any other
    model's matrix is evaluated and solved against at every (t, x) of a
    slice. In d = 1 that solve is a division with the same bits, so a
    state-dependent pair makes no LAPACK call per slice.
    """

    def __init__(self, spec_mu: DiffusionSpec, spec_P: DiffusionSpec,
                 ensemble: PathEnsemble):
        self.spec_mu, self.spec_P = spec_mu, spec_P
        self.states = ensemble.states
        self.times = ensemble.grid.points

    @cached_property
    def a_inv(self):
        """Inverse of P's hoisted matrix, or None; computed on first use."""
        if self.spec_P.constant_factor is None:
            return None
        return np.linalg.inv(self.spec_P.constant_matrix)

    @cached_property
    def fixed(self):
        """The dt-free part once per run when both diffusions are constant,
        else None."""
        if (self.spec_P.constant_factor is None
                or self.spec_mu.constant_factor is None):
            return None
        return no_nan(variance_part(self.spec_P.constant_matrix,
                                    self.spec_mu.constant_matrix),
                      "variance part of the pair", None)

    def _column(self, k: int, rows: slice = slice(None)):
        return float(self.times[k]), self.states[rows, k]

    def drift_quad(self, k: int, a=None,
                   rows: slice = slice(None)) -> np.ndarray:
        """Per-path (e - b)' a^{-1} (e - b) at column k, on the given rows
        of paths; a is P's matrix_at there, evaluated here unless it is
        passed. Each path's value does not depend on the rows asked for.
        As with variance_part, a NaN in a passed a or in the drifts passes
        through to the result; the estimators check it (drift_term)."""
        t, x = self._column(k, rows)
        gap = (np.asarray(self.spec_mu.drift(t, x), dtype=float)
               - np.asarray(self.spec_P.drift(t, x), dtype=float))
        if self.a_inv is not None:
            return np.einsum("nd,nd->n", gap, _rows_times(gap, self.a_inv))
        if a is None:
            a = self.spec_P.matrix_at(t, x)
        if a.shape[-1] == 1:
            # the 1 x 1 solve is a division
            return np.einsum("nd,nd->n", gap, gap / a[..., 0])
        return np.einsum("nd,nd->n", gap,
                         np.linalg.solve(a, gap[..., None])[..., 0])

    def drift_term(self, k: int, a=None) -> np.ndarray:
        """drift_quad at column k; ModelEvaluationError if one is NaN."""
        return no_nan(self.drift_quad(k, a), "drift quadratic of the pair",
                      float(self.times[k]))

    def interval_parts(self, k: int):
        """Per-path dt-free part and drift quadratic of the interval KL with
        left endpoint at column k; ModelEvaluationError if one is NaN."""
        t, x = self._column(k)
        a, c = self.spec_P.matrix_at(t, x), self.spec_mu.matrix_at(t, x)
        return (no_nan(variance_part(a, c), "variance part of the pair", t),
                self.drift_term(k, a))


@dataclass(frozen=True)
class MatchReport:
    """Diffusion-matrix agreement over the sampled states."""

    max_distance: float
    passed: bool
    tol_match: float
    n_evaluated: int
    argmax_time: float


def _match_distance(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """||c - a||_2 / ||a||_2 over the leading axes of a and c."""
    if a.shape[-1] == 1:
        return np.abs(c[..., 0, 0] - a[..., 0, 0]) / np.abs(a[..., 0, 0])
    diff_norm = np.linalg.norm(np.abs(np.linalg.eigvalsh(c - a)),
                               ord=np.inf, axis=-1)
    a_norm = np.linalg.norm(np.abs(np.linalg.eigvalsh(a)), ord=np.inf,
                            axis=-1)
    return diff_norm / a_norm


def diffusion_match_check(spec_mu: DiffusionSpec, spec_P: DiffusionSpec,
                          ensemble_mu: PathEnsemble,
                          tol_match: float = 1e-6) -> MatchReport:
    """Relative spectral distance between the two diffusion matrices.

    Finiteness of the path-space entropy forces the diffusion matrices to
    agree along the ensemble; the check reports
    max ||c - a||_2 / ||a||_2 over sampled (t, x_t) and passes iff it is
    within tol_match. The states are every stride-th path at every grid
    time, about MATCH_POINTS in all. When both models have a
    constant_matrix, the two are compared once and n_evaluated is 1.

    Raises:
        ModelEvaluationError: a matrix entry is not finite, or a distance
            is NaN (both matrices zero).
    """
    states = ensemble_mu.states
    n, m_plus_1, _ = states.shape
    stride = max(1, (n * m_plus_1) // MATCH_POINTS)
    a0, c0 = spec_P.constant_matrix, spec_mu.constant_matrix
    constant = a0 is not None and c0 is not None
    max_dist = 0.0
    arg_t = 0.0
    count = 0
    for k in range(1 if constant else m_plus_1):
        t, x = float(ensemble_mu.grid.points[k]), states[::stride, k]
        # the raw matrices: a mismatch is reported, not refused
        a = a0 if a0 is not None else np.asarray(
            spec_P.diffusion_matrix(t, x), dtype=float)
        c = c0 if c0 is not None else np.asarray(
            spec_mu.diffusion_matrix(t, x), dtype=float)
        k_max = float(_match_distance(a, c).max())
        # eigvalsh can turn a NaN entry into finite eigenvalues, so the
        # matrices are checked, not only the distance
        if math.isnan(k_max) or not (np.isfinite(a).all()
                                     and np.isfinite(c).all()):
            raise ModelEvaluationError(
                f"diffusion matrices have no finite distance at t = {t:g}")
        count += 1 if constant else x.shape[0]
        if k_max > max_dist:
            max_dist = k_max
            arg_t = t
    return MatchReport(max_distance=max_dist, passed=max_dist <= tol_match,
                       tol_match=tol_match, n_evaluated=count,
                       argmax_time=arg_t)


def _rows_times(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x @ m.T for rows x (n, d) and a constant (d, d) m, with matmul's bits:
    in d = 1 one multiply, without the gemm's fixed cost."""
    if m.shape != (1, 1):
        return x @ m.T
    out = x * m[0, 0]
    out += 0.0  # matmul sums from +0.0, so a -0.0 product is +0.0 there
    return out


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
    """Step start states x0 (n, d) with time-major standard increments
    z (m, n, d).

    Writes the n paths time-major into out (m + 1, n, d): step k reads z[k]
    and writes out[k + 1].

    Raises:
        PositiveDefinitenessError, ModelEvaluationError: as matrix_at, for
            a diffusion matrix along the paths.
        ModelEvaluationError: the paths reach non-finite states.
    """
    d = spec.dim
    times = grid.points
    out[0] = x0
    x = out[0].copy()
    chol = spec.constant_factor

    for k in range(grid.n_steps):
        t = float(times[k])
        dt = float(times[k + 1] - times[k])
        step = spec.drift(t, x) * dt
        if chol is not None:
            noise = _rows_times(z[k], chol)
        elif d == 1:
            noise = np.sqrt(spec.matrix_at(t, x)[..., 0]) * z[k]
        else:
            noise = np.einsum("nij,nj->ni", spec._factored_at(t, x)[1], z[k])
        x = x + step + noise * math.sqrt(dt)
        out[k + 1] = x

    if not np.isfinite(out).all():
        raise ModelEvaluationError(
            f"simulation of {spec.model_id!r} produced non-finite states")


def sample_paths(spec: DiffusionSpec, init: InitialLaw, grid: TimeGrid,
                 n: int, seed: int, threads: int = 1) -> PathEnsemble:
    """Sample n Euler-Maruyama paths.

    Path i is stream i of stream_inputs: it draws its initial state and all
    its increments from the Philox substream keyed by (seed, i), so the
    ensemble is bit-identical for any thread count. Paths are drawn and
    stepped in blocks of max(BLOCK_PATHS, BLOCK_ELEMENTS // (steps * d))
    paths, so only one block's increments are live at once (per thread).

    Args:
        spec: the diffusion law to simulate.
        init: time-zero law.
        grid: simulation grid.
        n: number of paths (>= 1).
        seed: master seed for the substream family.
        threads: worker threads; partitions the path range only.

    Returns:
        PathEnsemble of shape (n, len(grid), d).

    Raises:
        ArgumentError: n is not a positive integer (a bool is not one), or
            the initial law's dimension is not the model's.
    """
    if not is_integer(n) or n < 1:
        raise ArgumentError(f"n must be a positive integer, got {n!r}")
    if init.dim != spec.dim:
        raise ArgumentError("initial law dimension does not match model")
    buf = np.empty((grid.points.shape[0], n, spec.dim))
    block = max(BLOCK_PATHS, BLOCK_ELEMENTS // (grid.n_steps * spec.dim))

    def simulate(lo: int, hi: int) -> None:
        for b_lo in range(lo, hi, block):
            b_hi = min(b_lo + block, hi)
            x0, z = stream_inputs(init, seed, range(b_lo, b_hi), 1,
                                  grid.n_steps)
            euler_maruyama(spec, grid, x0, z, buf[:, b_lo:b_hi])

    partition_blocks(n, threads, simulate)
    return PathEnsemble(grid=grid, states=buf.transpose(1, 0, 2), seed=seed,
                        model_id=spec.model_id)


def euler_step_law(spec: DiffusionSpec, t: float, x, dt: float) -> GaussianLaw:
    """One-step Euler transition law N(x + b(t,x) dt, a(t,x) dt).

    Raises:
        ArgumentError: dt is not positive.
        ModelEvaluationError: the drift is non-finite at (t, x).
        PositiveDefinitenessError, ModelEvaluationError: as matrix_at, for
            the diffusion matrix.
    """
    if dt <= 0:
        raise ArgumentError("dt must be positive")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    b = np.asarray(spec.drift(t, x), dtype=float)
    if not np.isfinite(b).all():
        raise ModelEvaluationError(
            f"drift of {spec.model_id!r} non-finite at t={t}, x={x}")
    return GaussianLaw(mean=x + b * dt, covariance=spec.matrix_at(t, x) * dt)


# ---------------------------------------------------------------------------
# Model catalog


def _numbers(value, nested: bool) -> bool:
    """A real number (a bool is not one), or when nested is set a list,
    tuple or numeric array of such values at any depth."""
    if nested and isinstance(value, np.ndarray):
        return value.dtype.kind in "iuf"
    if nested and isinstance(value, (list, tuple)):
        return all(_numbers(v, True) for v in value)
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_integer(value) -> bool:
    """An integer (a bool is not one)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _finite_array(value, name: str) -> np.ndarray:
    """value as a float array.

    Raises:
        ArgumentError: naming it, unless it is a finite number or a (nested)
            array of finite numbers of one shape.
    """
    if _numbers(value, True):
        try:
            array = np.asarray(value, dtype=float)
        except ValueError:
            array = None
        if array is not None and np.isfinite(array).all():
            return array
    raise ArgumentError(f"{name} must be a finite number or an array of "
                        f"finite numbers of one shape, got "
                        f"{reprlib.repr(value)}")


def param(owner: str, params: dict, name: str, default,
          array: bool = False, kind: str = "model"):
    """params[name] (default when unset) as a float, or as a float array
    when the param takes a vector or matrix (array set). owner is the id of
    the model, or of what kind names (an oracle "scenario"), that reads it.

    Raises:
        ArgumentError: naming the owner and the param, unless the value is
            a number, or for an array param a (nested) array of numbers of
            one shape.
    """
    value = params.get(name, default)
    expected = "a number or an array of numbers" if array else "a number"
    if _numbers(value, array):
        try:
            return np.asarray(value, dtype=float) if array else float(value)
        except ValueError:
            expected = "an array of numbers of one shape"
    raise ArgumentError(f"{kind} {owner!r} param {name!r} must be "
                        f"{expected}, got {value!r}")


def _vector(model_id: str, params: dict, name: str, default,
            dim: int) -> np.ndarray:
    """An array param broadcast to shape (dim,); ArgumentError if it does
    not broadcast."""
    value = param(model_id, params, name, default, array=True)
    try:
        return np.broadcast_to(value, (dim,)).copy()
    except ValueError:
        raise ArgumentError(f"model {model_id!r} param {name!r} must be a "
                            f"number or have shape ({dim},)") from None


def _constant_model(model_id: str, params: dict, dim: int,
                    drift) -> DiffusionSpec:
    """A catalog model with drift and the constant matrix params["a"]
    (a scalar means a multiple of the identity)."""
    a = param(model_id, params, "a", 1.0, array=True)
    if a.ndim == 0:
        a = float(a) * np.eye(dim)
    a = np.atleast_2d(a)
    if a.shape != (dim, dim):
        raise ArgumentError(f"diffusion matrix must be {dim}x{dim}")

    def diffusion(t, x):
        x = np.asarray(x)
        return np.broadcast_to(a, x.shape[:-1] + a.shape)

    return DiffusionSpec(dim=dim, drift=drift, diffusion_matrix=diffusion,
                         model_id=model_id, params=dict(params),
                         constant_matrix=a)


def _build_brownian(params: dict, dim: int) -> DiffusionSpec:
    def drift(t, x):
        # a fresh array is cheaper than np.broadcast_to's view
        return np.zeros(np.shape(x))

    return _constant_model("brownian", params, dim, drift)


def _build_constant_drift(params: dict, dim: int) -> DiffusionSpec:
    theta = _vector("constant_drift", params, "theta", 1.0, dim)

    def drift(t, x):
        out = np.empty(np.shape(x))
        out[...] = theta
        return out

    return _constant_model("constant_drift", params, dim, drift)


def _build_ou(params: dict, dim: int) -> DiffusionSpec:
    gamma = param("ou", params, "gamma", 1.0)

    def drift(t, x):
        return -gamma * np.asarray(x, dtype=float)

    return _constant_model("ou", params, dim, drift)


def _build_double_well(params: dict, dim: int) -> DiffusionSpec:
    def drift(t, x):
        x = np.asarray(x, dtype=float)
        return x - x ** 3

    return _constant_model("double_well", params, dim, drift)


def _build_linear(params: dict, dim: int) -> DiffusionSpec:
    amat = np.atleast_2d(param("linear", params, "A", 0.0, array=True))
    if amat.shape != (dim, dim):
        raise ArgumentError(f"A must be {dim}x{dim}")
    b0 = _vector("linear", params, "b0", 0.0, dim)

    def drift(t, x):
        x = np.asarray(x, dtype=float)
        return x @ amat.T + b0

    return _constant_model("linear", params, dim, drift)


def _build_sine_diffusion(params: dict, dim: int) -> DiffusionSpec:
    # State-dependent scalar diffusion a0 (1 + amp sin x); exercises the
    # non-constant code paths and the match check's bulk statistics.
    if dim != 1:
        raise ArgumentError("sine_diffusion is one-dimensional")
    a0 = param("sine_diffusion", params, "a", 1.0)
    amp = param("sine_diffusion", params, "amplitude", 0.5)
    if not 0 <= amp < 1:
        raise ArgumentError("amplitude must lie in [0, 1)")

    def drift(t, x):
        x = np.asarray(x)
        return np.zeros_like(x)

    def diffusion(t, x):
        x = np.asarray(x, dtype=float)
        return (a0 * (1.0 + amp * np.sin(x[..., 0])))[..., None, None]

    return DiffusionSpec(dim=1, drift=drift, diffusion_matrix=diffusion,
                         model_id="sine_diffusion", params=dict(params))


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
