"""Finite test-function bases and the quadratic residual-energy machinery.

The test-function space is a catalog of compactly supported C² families:
Gaussian bumps and polynomials, each multiplied by a window that is exactly 1
on the core of a domain box, falls to 0 through a quintic smoothstep margin,
and vanishes outside, with continuous first and second derivatives
throughout. On a basis {f_k} the marginal-flow residual of an ensemble
against a reference generator is the vector

    c_k = d/dt <mu_t, f_k> - E^{mu_t}[L f_k]        (central differences)

and the induced quadratic dual value sup_g {c'g - ½ g'Qg} = ½ c'Q⁺c, with
Q the diffusion-weighted Gram matrix, measures the entropy production rate
of the marginal flow relative to the reference law. Its maximizer defines a
drift-correction field a·Σ g_k ∇f_k whose weighted energy equals the dual
value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import diffusion
from .diffusion import (DiffusionSpec, PathEnsemble, is_integer, no_nan,
                        read_blocks)
from .errors import ArgumentError, check_json_types

__all__ = [
    "SVD_RCOND",
    "BasisFunction",
    "FunctionBasis",
    "GramData",
    "ChunkSums",
    "FokkerPlanckResidual",
    "DualSolution",
    "DriftCorrection",
    "EnergyProfile",
    "gaussian_bump",
    "windowed_monomial",
    "mixed_basis",
    "basis_from_config",
    "default_energy_basis",
    "gram_matrix",
    "fokker_planck_residual",
    "dual_energy",
    "drift_correction",
    "residual_energy_profile",
]

# Pseudo-inverse cutoff relative to the largest singular value; duplicated or
# near-collinear basis functions degrade gracefully instead of exploding.
SVD_RCOND = 1e-8


# ---------------------------------------------------------------------------
# Window: flat core, quintic smoothstep margins, exact compact support.


def _smoothstep(s: np.ndarray) -> np.ndarray:
    return s * s * s * (10.0 + s * (6.0 * s - 15.0))


def _smoothstep_d1(s: np.ndarray) -> np.ndarray:
    return 30.0 * s * s * (s - 1.0) ** 2


def _smoothstep_d2(s: np.ndarray) -> np.ndarray:
    return 60.0 * s * (2.0 * s - 1.0) * (s - 1.0)


class _Window:
    """Product of per-axis C² windows on the box [lo, hi]."""

    def __init__(self, lo: np.ndarray, hi: np.ndarray, margin: float):
        if not 0 < margin < 1:
            raise ArgumentError("window margin must lie in (0, 1)")
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        if not (np.isfinite(self.lo).all() and np.isfinite(self.hi).all()):
            raise ArgumentError("domain box must be finite")
        if np.any(self.hi <= self.lo):
            raise ArgumentError("domain box must have positive extent")
        self.center = 0.5 * (self.lo + self.hi)
        self.half = 0.5 * (self.hi - self.lo)
        self.margin = margin
        # windows with equal boxes evaluate identically; the basis groups by it
        self.key = (self.lo.tobytes(), self.hi.tobytes(), margin)

    def _axis_parts(self, x: np.ndarray):
        """Per-axis window value and first two derivatives in x units."""
        u = (x - self.center) / self.half
        r = np.abs(u)
        m = self.margin
        w = np.zeros_like(r)
        w1 = np.zeros_like(r)
        w2 = np.zeros_like(r)
        w[r <= 1.0 - m] = 1.0
        band = (r > 1.0 - m) & (r < 1.0)
        if np.any(band):
            s = (1.0 - r[band]) / m
            sgn = np.sign(u[band])
            w[band] = _smoothstep(s)
            scale = 1.0 / (m * np.broadcast_to(self.half, x.shape)[band])
            w1[band] = -sgn * _smoothstep_d1(s) * scale
            w2[band] = _smoothstep_d2(s) * scale ** 2
        return w, w1, w2

    def parts(self, x: np.ndarray, order: int):
        """Value, gradient and Hessian up to `order` (None above it)."""
        return _axis_product(*self._axis_parts(x), order)


def _axis_product(p: np.ndarray, dp, ddp, order: int):
    """Value, gradient and Hessian up to `order` (None above it) of a product
    over the last axis of per-axis factors p, given each factor's first and
    second derivatives dp and ddp (needed only up to `order`). Products over
    the other axes are taken directly, so a vanishing factor is safe."""
    d = p.shape[-1]
    value = np.prod(p, axis=-1)
    grad = hess = None
    if order >= 1:
        grad = np.empty_like(p)
        for i in range(d):
            grad[..., i] = dp[..., i] * np.prod(
                np.delete(p, i, axis=-1), axis=-1)
    if order >= 2:
        hess = np.empty(p.shape + (d,))
        for i in range(d):
            for j in range(d):
                if i == j:
                    hess[..., i, i] = ddp[..., i] * np.prod(
                        np.delete(p, i, axis=-1), axis=-1)
                else:
                    rest = np.prod(np.delete(p, (i, j), axis=-1),
                                   axis=-1) if d > 2 else 1.0
                    hess[..., i, j] = dp[..., i] * dp[..., j] * rest
    return value, grad, hess


# ---------------------------------------------------------------------------
# Catalog cores: the structure of a windowed catalog function. A basis
# evaluates all cores of one family under one window as a single stack. The
# stacks put the core axis K first, so every elementwise operation runs over
# the long point axes and the product rule reads as for a single function.


def _leading(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-core array (K, *rest) reshaped to broadcast against (K, ...x.shape)."""
    return a.reshape(a.shape[:1] + (1,) * (x.ndim - 1) + a.shape[1:])


@dataclass(frozen=True, eq=False)
class _BumpCore:
    """Gaussian bump exp(-|x - center|² / (2 scale²))."""

    center: np.ndarray
    scale: float
    window: _Window

    @staticmethod
    def stack(cores, x: np.ndarray, order: int):
        """Values (K, ...), gradients (K, ..., d), Hessians (K, ..., d, d)
        of the K cores at x of shape (..., d), up to `order` (None above)."""
        centers = _leading(np.stack([c.center for c in cores]), x)
        s2 = _leading(np.array([c.scale * c.scale for c in cores]), x)
        diff = x - centers
        value = np.exp(-0.5 * np.sum(diff * diff, axis=-1) / s2)
        grad = hess = None
        if order >= 1:
            grad = -(diff / s2[..., None]) * value[..., None]
        if order >= 2:
            d = x.shape[-1]
            outer = diff[..., :, None] * diff[..., None, :] \
                / (s2 * s2)[..., None, None]
            hess = value[..., None, None] * (
                outer - np.eye(d) / s2[..., None, None])
        return value, grad, hess


@dataclass(frozen=True, eq=False)
class _MonomialCore:
    """Monomial prod_i u_i^{degree_i} in the window's box coordinates u."""

    degree: np.ndarray
    window: _Window

    @staticmethod
    def stack(cores, x: np.ndarray, order: int):
        """Same contract as _BumpCore.stack; the cores share one window."""
        window = cores[0].window
        degs = _leading(np.stack([c.degree for c in cores]), x)
        half = window.half
        u = (x - window.center) / half

        def powers(drop):
            # u ** max(degree - drop, 0) per core: numpy's power rounds
            # differently when an exponent is broadcast along its inner
            # loop, so each core keeps the single-function operand shapes.
            return np.stack([u ** np.maximum(c.degree - drop, 0)
                             for c in cores])

        dp = ddp = None
        if order >= 1:
            dp = np.where(degs > 0, degs * powers(1), 0.0) / half
        if order >= 2:
            ddp = np.where(degs > 1, degs * (degs - 1) * powers(2),
                           0.0) / (half * half)
        return _axis_product(powers(0), dp, ddp, order)


def _windowed_jet(cores, x: np.ndarray, order: int, window_parts):
    """Window times each core of one family and its derivatives up to
    `order` by the product rule: values (K, ...), gradients (K, ..., d) and
    Hessians (K, ..., d, d), None above `order`. The window parts (value,
    gradient, Hessian at x) broadcast over the leading core axis."""
    w, wg, wh = window_parts
    cv, cg, ch = type(cores[0]).stack(cores, x, order)
    value = w * cv
    grad = hess = None
    if order >= 1:
        grad = w[..., None] * cg + cv[..., None] * wg
    if order >= 2:
        cross = cg[..., :, None] * wg[..., None, :]
        hess = (w[..., None, None] * ch
                + cross + np.swapaxes(cross, -1, -2)
                + cv[..., None, None] * wh)
    return value, grad, hess


# ---------------------------------------------------------------------------
# Basis functions


@dataclass(frozen=True)
class BasisFunction:
    """A C² test function with exact gradient and Hessian.

    value maps (..., d) -> (...); gradient maps to (..., d); hessian to
    (..., d, d). All catalog members are exactly zero outside their window
    box. core is the catalog structure (window and core parameters) that a
    FunctionBasis evaluates in one stack with its family; it is None for
    custom functions, which are evaluated one at a time through the three
    callables.
    """

    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]
    family: str = "custom"
    meta: dict = field(default_factory=dict)
    core: _BumpCore | _MonomialCore | None = field(default=None,
                                                   compare=False)


def _catalog_function(core, family: str, meta: dict) -> BasisFunction:
    """A catalog function: the one-core stack of its family."""

    def evaluate(x, order):
        x = np.asarray(x, dtype=float)
        return _windowed_jet((core,), x, order,
                             core.window.parts(x, order))[order][0]

    return BasisFunction(value=lambda x: evaluate(x, 0),
                         gradient=lambda x: evaluate(x, 1),
                         hessian=lambda x: evaluate(x, 2),
                         family=family, meta=meta, core=core)


def gaussian_bump(center, scale: float, lo, hi,
                  margin: float = 0.25) -> BasisFunction:
    """Windowed Gaussian bump exp(-|x - center|² / (2 scale²)).

    Args:
        center: bump center in R^d.
        scale: isotropic width (> 0).
        lo, hi: domain box; the function is exactly 0 outside.
        margin: window margin as a fraction of the half-width.
    """
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if not 0 < scale < math.inf:
        raise ArgumentError("bump scale must be finite and positive")
    window = _Window(np.broadcast_to(lo, center.shape),
                     np.broadcast_to(hi, center.shape), margin)
    core = _BumpCore(center=center, scale=float(scale), window=window)
    return _catalog_function(core, "bump", {"center": center.tolist(),
                                            "scale": float(scale)})


def windowed_monomial(degree, lo, hi, margin: float = 0.25) -> BasisFunction:
    """Windowed monomial prod_i u_i^{degree_i} in box-normalized coordinates.

    Degree 0 gives the window itself (the compactly supported stand-in for a
    constant test function).
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    degs = np.atleast_1d(np.asarray(degree, dtype=int))
    if degs.shape != lo.shape:
        if degs.size == 1:
            degs = np.concatenate([degs, np.zeros(lo.size - 1, dtype=int)])
        else:
            raise ArgumentError("degree tuple must match dimension")
    if np.any(degs < 0):
        raise ArgumentError("monomial degrees must be nonnegative")
    core = _MonomialCore(degree=degs, window=_Window(lo, hi, margin))
    return _catalog_function(core, "poly", {"degree": degs.tolist()})


def _positions(idx: list[int]):
    if idx == list(range(idx[0], idx[-1] + 1)):
        return slice(idx[0], idx[-1] + 1)
    return idx


@dataclass(frozen=True)
class FunctionBasis:
    """Ordered test functions sharing a domain box.

    jet evaluates each window once per point set and each family of
    catalog cores under it as one array, up to the highest derivative
    asked for; custom functions are evaluated one at a time. Either way
    the stacks equal the per-function values bit for bit, whatever the
    order of the jet that produced them.
    """

    functions: tuple[BasisFunction, ...]
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        if len(self.functions) < 1:
            raise ArgumentError("basis needs at least one function")
        object.__setattr__(self, "lo",
                           np.atleast_1d(np.asarray(self.lo, dtype=float)))
        object.__setattr__(self, "hi",
                           np.atleast_1d(np.asarray(self.hi, dtype=float)))
        # window key -> (window, {core type -> function indices})
        groups: dict = {}
        custom = []
        for k, f in enumerate(self.functions):
            if f.core is None:
                custom.append(k)
                continue
            window = f.core.window
            families = groups.setdefault(window.key, (window, {}))[1]
            families.setdefault(type(f.core), []).append(k)
        # (window, ((positions, cores), ...)) with one entry per family; a
        # run of positions becomes a slice, which numpy assigns much faster
        object.__setattr__(self, "_groups", tuple(
            (window, tuple((_positions(idx),
                            tuple(self.functions[k].core for k in idx))
                           for idx in families.values()))
            for window, families in groups.values()))
        object.__setattr__(self, "_custom", tuple(custom))

    @property
    def size(self) -> int:
        return len(self.functions)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def jet(self, x, order: int) -> tuple:
        """Values (..., K), gradients (..., K, d) and Hessians (..., K, d, d)
        at points x of shape (..., d), up to `order` (None above it).

        Raises:
            ArgumentError: the last axis of x is not the basis dimension.
        """
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.dim,):
            raise ArgumentError(
                f"points of shape {x.shape} do not match a basis of "
                f"dimension {self.dim}")
        lead = x.shape[:-1] + (self.size,)
        outs = [np.empty(lead + x.shape[-1:] * r) for r in range(order + 1)]
        # views (K, ...) of each output, one row per function
        rows = [np.moveaxis(out, x.ndim - 1, 0) for out in outs]
        for window, families in self._groups:
            parts = window.parts(x, order)
            for positions, cores in families:
                for row, part in zip(rows, _windowed_jet(cores, x, order,
                                                         parts)):
                    row[positions] = part
        for k in self._custom:
            f = self.functions[k]
            for row, fn in zip(rows, (f.value, f.gradient, f.hessian)):
                row[k] = fn(x)
        return tuple(outs) + (None,) * (2 - order)

    def value_matrix(self, x: np.ndarray) -> np.ndarray:
        """Stack of function values, shape (..., K)."""
        return self.jet(x, 0)[0]

    def gradient_stack(self, x: np.ndarray) -> np.ndarray:
        """Gradients, shape (..., K, d).

        The order-1 view of jet: it also builds the values it discards, so
        a caller that needs several orders at x should call jet once.
        """
        return self.jet(x, 1)[1]

    def hessian_stack(self, x: np.ndarray) -> np.ndarray:
        """Hessians, shape (..., K, d, d).

        The order-2 view of jet: it also builds the values and gradients it
        discards, so a caller that needs several orders at x should call
        jet once.
        """
        return self.jet(x, 2)[2]

    def describe(self) -> list[dict]:
        return [dict(family=f.family, **f.meta) for f in self.functions]


def mixed_basis(lo, hi, n_bumps: int, bump_scale: float | None = None,
                degrees: Sequence[int] = (), margin: float = 0.25,
                bump_span: tuple[float, float] | None = None) -> FunctionBasis:
    """Gaussian bumps, then windowed monomials, on one box (d = 1).

    The n_bumps bumps are evenly spaced over bump_span, which defaults to
    the core of the box (the box inset by margin x its half-width on each
    side); a single bump sits at the span's midpoint. bump_scale defaults to
    1.5 x the center spacing (1.5 x half the span's width for one bump),
    wide enough that neighboring bumps overlap and their span resolves
    smooth functions. degrees lists the monomials after the bumps.

    Raises:
        ArgumentError: the box is not one-dimensional, finite and of
            positive extent, the margin is outside (0, 1), n_bumps is
            negative, bumps are placed on a bump_span that is not an
            increasing pair inside the box, or the basis would be empty.
    """
    lo_a = np.atleast_1d(np.asarray(lo, dtype=float))
    hi_a = np.atleast_1d(np.asarray(hi, dtype=float))
    if lo_a.shape != (1,) or hi_a.shape != (1,):
        raise ArgumentError("mixed_basis grids centers in one dimension")
    _Window(lo_a, hi_a, margin)  # the box and margin, before the span
    if n_bumps < 0:
        raise ArgumentError(f"need a nonnegative bump count, got {n_bumps}")
    if bump_span is None:
        inset = margin * 0.5 * (hi_a[0] - lo_a[0])
        bump_span = (lo_a[0] + inset, hi_a[0] - inset)
    span_lo, span_hi = bump_span
    if n_bumps and not lo_a[0] <= span_lo < span_hi <= hi_a[0]:
        raise ArgumentError(
            f"bump_span must be an increasing pair inside the box "
            f"[{lo_a[0]}, {hi_a[0]}], got [{span_lo}, {span_hi}]")
    if n_bumps == 1:
        centers = np.array([0.5 * (span_lo + span_hi)])
        spacing = 0.5 * (span_hi - span_lo)
    else:
        centers = np.linspace(span_lo, span_hi, n_bumps)
        spacing = centers[1] - centers[0] if n_bumps else 0.0  # no bump
    scale = 1.5 * spacing if bump_scale is None else bump_scale
    fns = [gaussian_bump([c], scale, lo_a, hi_a, margin) for c in centers]
    fns.extend(windowed_monomial(d, lo_a, hi_a, margin) for d in degrees)
    return FunctionBasis(functions=tuple(fns), lo=lo_a, hi=hi_a)


# basis config field -> its JSON type
_BASIS_TYPES = {"box": "array of numbers", "count": "integer",
                "scale": "number or null", "degrees": "array of integers",
                "margin": "number", "bump_span": "array of numbers or null"}


def basis_from_config(cfg: dict) -> FunctionBasis:
    """Build a basis from a config record (CLI surface): mixed_basis of the
    record's fields, with no monomials unless degrees are given.

    Each field must have its JSON type in _BASIS_TYPES.

    Raises:
        ArgumentError: an unknown field, a field of the wrong JSON type
            (named basis.<field>), a missing box, a box or bump_span that is
            not two numbers, or what mixed_basis refuses
            (a bump_span outside the box is named basis.bump_span).
    """
    check_json_types(cfg, _BASIS_TYPES, "basis")
    box = cfg.get("box")
    if box is None or len(box) != 2:
        raise ArgumentError("basis config needs box: [lo, hi]")
    span = cfg.get("bump_span")
    if span is not None and len(span) != 2:
        raise ArgumentError(f"basis.bump_span must be two numbers [lo, hi], "
                            f"got {span}")
    scale = cfg.get("scale")
    try:
        return mixed_basis([float(box[0])], [float(box[1])],
                           cfg.get("count", 8),
                           None if scale is None else float(scale),
                           cfg.get("degrees", []),
                           float(cfg.get("margin", 0.25)),
                           None if span is None else (float(span[0]),
                                                      float(span[1])))
    except ArgumentError as exc:
        # mixed_basis names its bump_span argument, which is this field
        if str(exc).startswith("bump_span"):
            raise ArgumentError(f"basis.{exc}") from exc
        raise


# ---------------------------------------------------------------------------
# Gram matrix, residual, dual value


@dataclass(frozen=True)
class GramData:
    """Diffusion-weighted Gram matrix Q_kl = E[grad f_k' a grad f_l].

    chunk_sums (C, K, K) holds the sums of grad f_k' a grad f_l over each
    chunk of BLOCK_PATHS samples in sample order, whose total is n_samples
    times Q before symmetrizing.
    """

    matrix: np.ndarray
    n_samples: int
    t: float
    condition: float
    chunk_sums: np.ndarray | None = field(default=None, repr=False,
                                          compare=False)

    @cached_property
    def pseudo_inverse(self) -> np.ndarray:
        """Q⁺ with relative cutoff SVD_RCOND, computed once per Gram matrix."""
        return np.linalg.pinv(self.matrix, rcond=SVD_RCOND, hermitian=True)


@dataclass(frozen=True)
class FokkerPlanckResidual:
    """Marginal-flow residual c_k = d/dt<mu_t, f_k> - E[L f_k] with noise.

    cov_mean is the covariance of the residual mean (per-path covariance
    divided by the path count); it feeds the debiasing and error bars of the
    dual value. Both come from per-chunk path sums of the per-path residual
    z, over chunks of BLOCK_PATHS paths in path order: chunk_sums (C, K)
    holds Σz and chunk_moments (C, K, K) Σ(z - shift)(z - shift)'.
    """

    values: np.ndarray
    cov_mean: np.ndarray
    t: float
    n_paths: int
    shift: np.ndarray | None = field(default=None, repr=False,
                                     compare=False)
    chunk_sums: np.ndarray | None = field(default=None, repr=False,
                                          compare=False)
    chunk_moments: np.ndarray | None = field(default=None, repr=False,
                                             compare=False)


@dataclass(frozen=True)
class DualSolution:
    """Value and maximizer of sup_g { c'g - ½ g'Q g } on the basis span."""

    value: float
    coefficients: np.ndarray


@dataclass(frozen=True)
class DriftCorrection:
    """Correction field h(y) = a(t, y) · Σ g_k grad f_k(y) with its energy."""

    coefficients: np.ndarray
    energy: float
    t: float
    basis: FunctionBasis
    spec: DiffusionSpec

    def field(self, x: np.ndarray) -> np.ndarray:
        """Evaluate h at points of shape (..., d); the errors of matrix_at
        if a(t, ·) is refused at one of them."""
        x = np.asarray(x, dtype=float)
        grads = self.basis.gradient_stack(x)
        combo = np.einsum("k,...kd->...d", self.coefficients, grads)
        a = self.spec.matrix_at(self.t, x)
        return np.einsum("...ij,...j->...i", a, combo)


def _chunks(n: int) -> list[slice]:
    """The fixed chunks of BLOCK_PATHS rows (the last may be shorter) that
    every path sum of this module runs over, in path order."""
    rows = diffusion.BLOCK_PATHS
    return [slice(lo, lo + rows) for lo in range(0, n, rows)]


def _in_path_order(parts: np.ndarray) -> np.ndarray:
    """The total of per-chunk sums (C, ...), added one after another in
    path order, so it does not depend on how the chunks were grouped."""
    total = parts[0].copy()
    for part in parts[1:]:
        total += part
    return total


def _gram_sum(grads: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Σ grad f_k' a grad f_l over one chunk's rows of grads (n, K, d), for
    a (d, d) or (n, d, d): one GEMM on (n·d, K) reshapes of grads·a and
    grads (grads·a is one multiply per entry in d = 1)."""
    n, k, d = grads.shape
    if d == 1:
        left = grads * a
    elif a.ndim == 2:
        left = (grads.reshape(-1, d) @ a).reshape(grads.shape)
    else:
        left = grads @ a
    return (left.swapaxes(1, 2).reshape(n * d, k).T
            @ grads.swapaxes(1, 2).reshape(n * d, k))


def _gram_data(sums: np.ndarray, n: int, t: float) -> GramData:
    """GramData of the per-chunk Gram sums (C, K, K) of n samples."""
    q = _in_path_order(sums) / n
    q = no_nan(0.5 * (q + q.T), "Gram matrix", t)
    svals = np.linalg.svd(q, compute_uv=False)
    cond = float(svals[0] / svals[-1]) if svals[-1] > 0 else math.inf
    return GramData(matrix=q, n_samples=n, t=t, condition=cond,
                    chunk_sums=sums)


def gram_matrix(spec: DiffusionSpec, t: float, marginal_samples,
                basis: FunctionBasis, *,
                gradients: np.ndarray | None = None,
                matrix: np.ndarray | None = None) -> GramData:
    """Monte Carlo Gram matrix of basis gradients in the a(t,·) metric.

    The sum over samples runs over fixed chunks of BLOCK_PATHS samples, one
    GEMM each, added in sample order. When spec has a constant_matrix, the
    gradients contract with it in one product, (grad · a) · grad, which
    for d >= 2 may move the last bits.

    Raises:
        PositiveDefinitenessError, ModelEvaluationError: as spec.matrix_at,
            for a(t, ·) on the samples.
        ModelEvaluationError: a Gram entry is NaN or infinite.

    Args:
        spec: law supplying the diffusion matrix weight.
        t: time label of the marginal.
        marginal_samples: points of shape (n, d) distributed as the marginal.
        basis: test functions.
        gradients: basis gradients (n, K, d) at marginal_samples when the
            caller has already evaluated them.
        matrix: spec.matrix_at(t, marginal_samples), when the caller has
            already evaluated it.
    """
    y = np.asarray(marginal_samples, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    if y.shape[0] == 0:
        raise ArgumentError("gram matrix needs at least one sample")
    grads = basis.jet(y, 1)[1] if gradients is None \
        else gradients                                   # (n, K, d)
    a = spec.matrix_at(t, y) if matrix is None else matrix
    sums = np.array([_gram_sum(grads[c], a if a.ndim == 2 else a[c])
                     for c in _chunks(y.shape[0])])
    return _gram_data(sums, y.shape[0], t)


def _residual_data(sums: np.ndarray, moments: np.ndarray, shift: np.ndarray,
                   n: int, t: float) -> FokkerPlanckResidual:
    """FokkerPlanckResidual of n paths from the per-chunk sums (C, K) of
    the per-path residual z and (C, K, K) of (z - shift)(z - shift)'."""
    c = _in_path_order(sums) / n
    dev = c - shift
    cov_mean = ((_in_path_order(moments) - n * np.outer(dev, dev))
                / (n * max(n - 1, 1)))
    return FokkerPlanckResidual(values=c, cov_mean=cov_mean, t=t, n_paths=n,
                                shift=shift, chunk_sums=sums,
                                chunk_moments=moments)


def fokker_planck_residual(ensemble: PathEnsemble, spec_P: DiffusionSpec,
                           basis: FunctionBasis, t_index: int,
                           window: int = 1, *, jets: dict | None = None,
                           matrix: np.ndarray | None = None,
                           shift: np.ndarray | None = None
                           ) -> FokkerPlanckResidual:
    """Residual of the reference Fokker-Planck identity on the basis.

    Under the reference law P the marginals satisfy d/dt <mu_t, f> =
    <mu_t, L f> for every test f; a nonzero residual is the signature of a
    drift discrepancy. The time derivative is a central difference over
    ``window`` grid steps on each path; the generator term is averaged at
    the central slice, with spec_P's constant_matrix when it has one. The
    path sums run over fixed chunks of BLOCK_PATHS paths, added in path
    order.

    Args:
        jets: basis.jet of the ensemble's time slices by grid index, when
            the caller has already evaluated them: values are read at
            t_index ± window, gradients and Hessians at t_index.
        matrix: spec_P.matrix_at at the central slice, when the caller has
            already evaluated it.
        shift: what the second-moment sums are taken about; by default the
            mean residual of the first chunk, which is close enough to the
            mean that the covariance does not cancel. A block of a larger
            ensemble passes the one of the first block.

    Raises:
        ArgumentError: t_index or window is not an integer, window < 1,
            t_index ± window leaves the grid, or the basis dimension is not
            the ensemble's.
        PositiveDefinitenessError, ModelEvaluationError: as
            spec_P.matrix_at, for a(t, ·) on the central slice.
        ModelEvaluationError: the generator term is NaN or infinite.
    """
    if not (is_integer(t_index) and is_integer(window) and window >= 1):
        raise ArgumentError(f"t_index and window must be integers, window "
                            f">= 1, got {t_index!r} and {window!r}")
    lo, hi = t_index - window, t_index + window
    if not (0 <= lo and hi <= ensemble.grid.n_steps):
        raise ArgumentError("finite-difference window leaves the grid")
    states = ensemble.states
    x_mid = states[:, t_index]
    if jets is None:
        jets = {lo: basis.jet(states[:, lo], 0),
                hi: basis.jet(states[:, hi], 0),
                t_index: basis.jet(x_mid, 2)}
    _, grads, hesss = jets[t_index]
    times = ensemble.grid.points
    t = float(times[t_index])
    diff = (jets[hi][0] - jets[lo][0]) / float(times[hi] - times[lo])
    b = np.asarray(spec_P.drift(t, x_mid), dtype=float)
    a = spec_P.matrix_at(t, x_mid) if matrix is None else matrix
    if a.ndim == 2:
        second = np.einsum("ij,nkji->nk", a, hesss)
    else:
        second = np.einsum("nij,nkji->nk", a, hesss)
    gen = no_nan(0.5 * second + np.einsum("nd,nkd->nk", b, grads),
                 "reference generator term", t)

    z = diff - gen                                        # (n, K)
    if shift is None:
        head = z[:diffusion.BLOCK_PATHS]
        shift = head.sum(axis=0) / head.shape[0]
    sums = np.empty((len(_chunks(z.shape[0])),) + z.shape[1:])
    moments = np.empty(sums.shape + z.shape[1:])
    for j, c in enumerate(_chunks(z.shape[0])):
        dev = z[c] - shift
        sums[j] = z[c].sum(axis=0)
        moments[j] = dev.T @ dev
    return _residual_data(sums, moments, shift, z.shape[0], t)


def dual_energy(c: np.ndarray, gram: GramData) -> DualSolution:
    """Maximize c'g - ½ g'Qg over the basis span.

    The maximizer is g* = Q⁺c (pseudo-inverse with relative cutoff
    SVD_RCOND); the value ½ g*'Q g* equals ½ c'Q⁺c and is computed through
    g* so the reported energy identity is exact by construction.
    """
    c = np.asarray(c, dtype=float)
    q = gram.matrix
    if c.shape != (q.shape[0],):
        raise ArgumentError("residual and Gram dimensions differ")
    g = gram.pseudo_inverse @ c
    value = 0.5 * float(g @ (q @ g))
    return DualSolution(value=value, coefficients=g)


def drift_correction(residual: FokkerPlanckResidual, gram: GramData,
                     basis: FunctionBasis, spec: DiffusionSpec
                     ) -> DriftCorrection:
    """Drift-correction field for one time slice, read at its time t.

    The field h = a · Σ g_k ∇f_k with g = Q⁺c makes the corrected generator
    reproduce the observed marginal flow within the basis resolution; its
    weighted energy ½ g'Qg is the slice's entropy production rate and is
    arithmetically identical to dual_energy's value.
    """
    sol = dual_energy(residual.values, gram)
    return DriftCorrection(coefficients=sol.coefficients, energy=sol.value,
                           t=residual.t, basis=basis, spec=spec)


# ---------------------------------------------------------------------------
# Time-integrated residual energy


@dataclass(frozen=True)
class ChunkSums:
    """Path sums of every profile slice over fixed chunks of BLOCK_PATHS
    paths (the last may be shorter), one entry per chunk in path order.

    residual[c, s] is Σz over chunk c at slice s, for the per-path residual
    z; moments[c, s] is Σ(z - shift[s])(z - shift[s])', with shift[s] the
    first chunk's mean residual; gram[c, s] is Σ grad f_k' a grad f_l.
    counts[c] is chunk c's path count.
    """

    counts: np.ndarray      # (C,)
    shift: np.ndarray       # (S, K)
    residual: np.ndarray    # (C, S, K)
    moments: np.ndarray     # (C, S, K, K)
    gram: np.ndarray        # (C, S, K, K)


@dataclass(frozen=True)
class EnergyProfile:
    """Per-slice debiased dual values and their time integral, with the
    per-chunk path sums they were solved from."""

    times: np.ndarray
    values: np.ndarray
    std_errors: np.ndarray
    integral: float
    integral_std_error: float
    diagnostics: dict
    chunk_sums: ChunkSums = field(repr=False, compare=False)


def default_energy_basis(ensemble: PathEnsemble) -> FunctionBasis:
    """residual_energy_profile's default: twelve local bumps, which resolve
    the marginals' gradients, over the central 99.8% of the states in the
    second half of the horizon. ArgumentError unless the paths are 1-d."""
    if ensemble.dim != 1:
        raise ArgumentError("the default energy basis is one-dimensional")
    states = ensemble.states[:, ensemble.grid.n_steps // 2:]
    lo, hi = (float(q) for q in np.quantile(states, [0.001, 0.999]))
    pad = 0.3 * (hi - lo)
    return mixed_basis([lo - pad], [hi + pad], n_bumps=12,
                       bump_scale=1.5 * (hi - lo) / 11, degrees=[])


def residual_energy_profile(ensemble: PathEnsemble, spec_P: DiffusionSpec,
                            basis: FunctionBasis | None = None, *,
                            window: int = 8, stride: int = 4,
                            t_min_frac: float = 0.15) -> EnergyProfile:
    """Trapezoidal time integral of the slice dual energies, each less its
    ½ tr(Q⁺ Σ_c) noise floor.

    Slices earlier than t_min_frac · T are skipped (near-degenerate
    marginals produce wild residuals when the initial law is a point mass)
    and the earliest retained value is extended to t = 0; the latest is
    extended to T. The per-slice standard errors combine in quadrature under
    the trapezoid weights; overlap correlation between nearby slices is not
    modeled (diagnosed, not corrected).

    Every quantity a slice needs is a path sum, so the paths are read in
    the blocks of read_blocks, at the cost of their basis jets, and every
    slice of a block is done before the next block is read: memory does
    not grow with the path count beyond the per-chunk sums
    (profile.chunk_sums). Each slice's dual is solved once, from the chunk
    sums added in path order, so no value depends on the block size. As
    for a scan of whole slices, an error names the earliest slice time
    where any path fails.

    Args:
        ensemble: paths sampled under the law being measured, a
            PathEnsemble or any source of one that read_blocks reads (the
            default basis reads a PathEnsemble).
        spec_P: reference law.
        basis: test functions for every slice; default_energy_basis of
            the ensemble when None.
        window: central-difference half-width in grid steps.
        stride: grid steps between evaluated slices.
        t_min_frac: burn-in fraction of the horizon.

    Raises:
        ArgumentError: a window or stride that is not an integer >= 1, a
            t_min_frac outside [0, 1), no slice on the grid, or a basis of
            another dimension.
        PositiveDefinitenessError, ModelEvaluationError: as
            fokker_planck_residual and gram_matrix, for the earliest slice.
    """
    m = ensemble.grid.n_steps
    if not all(is_integer(v) and v >= 1 for v in (window, stride)):
        raise ArgumentError(f"window and stride must be positive integers, "
                            f"got {window!r} and {stride!r}")
    if not 0 <= t_min_frac < 1:
        raise ArgumentError("t_min_frac must lie in [0, 1)")
    horizon = ensemble.grid.horizon
    idxs = [i for i in range(window, m - window + 1, stride)
            if ensemble.grid.points[i] >= t_min_frac * horizon]
    if not idxs:
        raise ArgumentError("no usable slices: grid too coarse for window")
    if basis is None:
        basis = default_energy_basis(ensemble)

    # a block costs about one order-2 jet, K (1 + d + d²) entries per
    # path, at each of the 2 · window // stride + 2 grid indices it keeps:
    # that covers the jets and the temporaries of evaluating them (at the
    # defaults, K = 12, d = 1, window 8, stride 4, it counts 216 entries
    # per path, and tracemalloc measures about 218)
    d = basis.dim
    sums = _profile_sums(ensemble, spec_P, basis, idxs, window,
                         basis.size * (1 + d + d * d)
                         * (2 * window // stride + 2))
    n = ensemble.n_paths
    times = ensemble.grid.points[idxs]
    values, ses, conds = [], [], []
    for s, t in enumerate(times.tolist()):
        res = _residual_data(sums.residual[:, s], sums.moments[:, s],
                             sums.shift[s], n, t)
        gram = _gram_data(sums.gram[:, s], n, t)
        sol = dual_energy(res.values, gram)
        # E[½ c'Q⁺c] inflates by ½ tr(Q⁺ Σ_c) under residual noise.
        values.append(sol.value - 0.5 * float(np.trace(gram.pseudo_inverse
                                                       @ res.cov_mean)))
        ses.append(math.sqrt(max(float(sol.coefficients @ res.cov_mean
                                       @ sol.coefficients), 0.0)))
        conds.append(gram.condition)
    values, ses = np.array(values), np.array(ses)

    # Clamp the edge extension so one noisy end slice cannot dominate.
    ext_times = np.concatenate([[0.0], times, [horizon]])
    ext_values = np.concatenate([[values[0]], values, [values[-1]]])
    ext_ses = np.concatenate([[ses[0]], ses, [ses[-1]]])
    integral = float(np.trapezoid(ext_values, ext_times))
    weights = np.gradient(ext_times)
    integral_se = float(np.sqrt(np.sum((weights * ext_ses) ** 2)))

    return EnergyProfile(
        times=times, values=values, std_errors=ses, integral=integral,
        integral_std_error=integral_se,
        diagnostics={
            "n_slices": len(idxs), "window": window, "stride": stride,
            "t_min_frac": t_min_frac, "debias": True,
            "slice_correlation": "ignored",
            "gram_condition_max": max(conds),
        },
        chunk_sums=sums)


def _profile_sums(paths, spec_P: DiffusionSpec, basis: FunctionBasis,
                  idxs: list[int], window: int, per_path: int) -> ChunkSums:
    """The per-chunk path sums of the slices centred at idxs, from
    fokker_planck_residual and gram_matrix on the blocks read_blocks reads
    at per_path entries a path.

    Within a block, each grid index is evaluated once, at the highest
    order a slice reads there (2 at a centre, 0 at a difference end), and
    kept only while a later slice can read it: those read indices above
    i - window only. P's matrix on a slice is evaluated once for the
    residual and the Gram matrix.
    """
    n, k, rows = paths.n_paths, basis.size, diffusion.BLOCK_PATHS
    shape = (len(_chunks(n)), len(idxs), k)
    sums = ChunkSums(
        counts=np.array([min(rows, n - lo) for lo in range(0, n, rows)]),
        shift=np.empty(shape[1:]), residual=np.empty(shape),
        moments=np.empty(shape + (k,)), gram=np.empty(shape + (k,)))
    centres = set(idxs)

    def work(block: PathEnsemble, lo: int, hi: int) -> None:
        # blocks start on a chunk, and the last may end inside one
        chunks = slice(lo // rows, -(-hi // rows))
        jets: dict[int, tuple] = {}
        for s, i in enumerate(idxs):
            for j in (i - window, i + window, i):
                if j not in jets:
                    jets[j] = basis.jet(block.states[:, j],
                                        2 if j in centres else 0)
            x = block.states[:, i]
            a = spec_P.matrix_at(float(paths.grid.points[i]), x)
            res = fokker_planck_residual(
                block, spec_P, basis, i, window, jets=jets, matrix=a,
                shift=sums.shift[s] if lo else None)
            gram = gram_matrix(spec_P, res.t, x, basis,
                               gradients=jets[i][1], matrix=a)
            sums.shift[s] = res.shift
            sums.residual[chunks, s] = res.chunk_sums
            sums.moments[chunks, s] = res.chunk_moments
            sums.gram[chunks, s] = gram.chunk_sums
            jets[i] = jets[i][:1]       # later slices read only its values
            jets = {j: jet for j, jet in jets.items() if j > i - window}

    read_blocks(paths, per_path, work)
    return sums
