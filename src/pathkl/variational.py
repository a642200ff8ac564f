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
from typing import Callable, Sequence

import numpy as np

from .diffusion import DiffusionSpec, PathEnsemble
from .errors import ArgumentError

__all__ = [
    "SVD_RCOND",
    "BasisFunction",
    "FunctionBasis",
    "GramData",
    "FokkerPlanckResidual",
    "DualSolution",
    "DriftCorrection",
    "EnergyProfile",
    "gaussian_bump",
    "windowed_monomial",
    "bump_basis",
    "mixed_basis",
    "basis_from_config",
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
        if np.any(self.hi <= self.lo):
            raise ArgumentError("domain box must have positive extent")
        self.center = 0.5 * (self.lo + self.hi)
        self.half = 0.5 * (self.hi - self.lo)
        self.margin = margin

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

    def value(self, x: np.ndarray) -> np.ndarray:
        w, _, _ = self._axis_parts(x)
        return np.prod(w, axis=-1)

    def triple(self, x: np.ndarray):
        """Window value, gradient, and Hessian at points x of shape (..., d)."""
        w, w1, w2 = self._axis_parts(x)
        d = x.shape[-1]
        total = np.prod(w, axis=-1)
        # prod over axes other than i; safe without division when w_i -> 0
        others = np.empty_like(w)
        for i in range(d):
            others[..., i] = np.prod(np.delete(w, i, axis=-1), axis=-1)
        grad = w1 * others
        hess = np.empty(x.shape + (d,))
        for i in range(d):
            for j in range(d):
                if i == j:
                    hess[..., i, i] = w2[..., i] * others[..., i]
                else:
                    rest = np.prod(np.delete(w, (i, j), axis=-1), axis=-1) \
                        if d > 2 else 1.0
                    hess[..., i, j] = w1[..., i] * w1[..., j] * rest
        return total, grad, hess


# ---------------------------------------------------------------------------
# Basis functions


@dataclass(frozen=True)
class BasisFunction:
    """A C² test function with exact gradient and Hessian.

    value maps (..., d) -> (...); gradient maps to (..., d); hessian to
    (..., d, d). All catalog members are exactly zero outside their window
    box.
    """

    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]
    family: str = "custom"
    meta: dict = field(default_factory=dict)


def _windowed(core, window: _Window, family: str, meta: dict) -> BasisFunction:
    """Combine a smooth core triple with the window by the product rule."""
    core_value, core_grad, core_hess = core

    def value(x):
        x = np.asarray(x, dtype=float)
        return window.value(x) * core_value(x)

    def gradient(x):
        x = np.asarray(x, dtype=float)
        w, wg, _ = window.triple(x)
        return w[..., None] * core_grad(x) + core_value(x)[..., None] * wg

    def hessian(x):
        x = np.asarray(x, dtype=float)
        w, wg, wh = window.triple(x)
        g = core_grad(x)
        cross = g[..., :, None] * wg[..., None, :]
        return (w[..., None, None] * core_hess(x)
                + cross + np.swapaxes(cross, -1, -2)
                + core_value(x)[..., None, None] * wh)

    return BasisFunction(value=value, gradient=gradient, hessian=hessian,
                         family=family, meta=meta)


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
    if scale <= 0:
        raise ArgumentError("bump scale must be positive")
    window = _Window(np.broadcast_to(lo, center.shape),
                     np.broadcast_to(hi, center.shape), margin)
    s2 = scale * scale

    def value(x):
        diff = x - center
        return np.exp(-0.5 * np.sum(diff * diff, axis=-1) / s2)

    def grad(x):
        diff = x - center
        return -(diff / s2) * value(x)[..., None]

    def hess(x):
        diff = x - center
        v = value(x)
        d = center.shape[0]
        outer = diff[..., :, None] * diff[..., None, :] / (s2 * s2)
        return v[..., None, None] * (outer - np.eye(d) / s2)

    return _windowed((value, grad, hess), window, "bump",
                     {"center": center.tolist(), "scale": float(scale)})


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
    window = _Window(lo, hi, margin)
    center, half = window.center, window.half

    def _axis_pows(x):
        u = (x - center) / half
        p = u ** degs
        dp = np.where(degs > 0, degs * u ** np.maximum(degs - 1, 0), 0.0) / half
        ddp = np.where(degs > 1,
                       degs * (degs - 1) * u ** np.maximum(degs - 2, 0),
                       0.0) / (half * half)
        return p, dp, ddp

    def value(x):
        p, _, _ = _axis_pows(x)
        return np.prod(p, axis=-1)

    def grad(x):
        p, dp, _ = _axis_pows(x)
        d = lo.shape[0]
        out = np.empty_like(p)
        for i in range(d):
            out[..., i] = dp[..., i] * np.prod(np.delete(p, i, axis=-1), axis=-1)
        return out

    def hess(x):
        p, dp, ddp = _axis_pows(x)
        d = lo.shape[0]
        out = np.empty(x.shape + (d,))
        for i in range(d):
            for j in range(d):
                if i == j:
                    out[..., i, i] = ddp[..., i] * np.prod(
                        np.delete(p, i, axis=-1), axis=-1)
                else:
                    rest = np.prod(np.delete(p, (i, j), axis=-1), axis=-1) \
                        if d > 2 else 1.0
                    out[..., i, j] = dp[..., i] * dp[..., j] * rest
        return out

    return _windowed((value, grad, hess), window, "poly",
                     {"degree": degs.tolist()})


@dataclass(frozen=True)
class FunctionBasis:
    """Ordered test functions sharing a domain box."""

    functions: tuple[BasisFunction, ...]
    lo: np.ndarray
    hi: np.ndarray
    margin: float = 0.25

    def __post_init__(self):
        if len(self.functions) < 1:
            raise ArgumentError("basis needs at least one function")
        object.__setattr__(self, "lo",
                           np.atleast_1d(np.asarray(self.lo, dtype=float)))
        object.__setattr__(self, "hi",
                           np.atleast_1d(np.asarray(self.hi, dtype=float)))

    @property
    def size(self) -> int:
        return len(self.functions)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def value_matrix(self, x: np.ndarray) -> np.ndarray:
        """Stack of function values, shape (..., K)."""
        x = np.asarray(x, dtype=float)
        return np.stack([f.value(x) for f in self.functions], axis=-1)

    def gradient_stack(self, x: np.ndarray) -> np.ndarray:
        """Gradients, shape (..., K, d)."""
        x = np.asarray(x, dtype=float)
        return np.stack([f.gradient(x) for f in self.functions], axis=-2)

    def hessian_stack(self, x: np.ndarray) -> np.ndarray:
        """Hessians, shape (..., K, d, d)."""
        x = np.asarray(x, dtype=float)
        return np.stack([f.hessian(x) for f in self.functions], axis=-3)

    def describe(self) -> list[dict]:
        return [dict(family=f.family, **f.meta) for f in self.functions]


def bump_basis(lo, hi, n_bumps: int, scale: float | None = None,
               margin: float = 0.25) -> FunctionBasis:
    """Evenly spaced Gaussian bumps covering the core of the box.

    scale defaults to 1.5 x the center spacing, wide enough that neighboring
    bumps overlap and their span resolves smooth functions on the core.
    """
    lo_a = np.atleast_1d(np.asarray(lo, dtype=float))
    hi_a = np.atleast_1d(np.asarray(hi, dtype=float))
    if lo_a.shape[0] != 1:
        raise ArgumentError("bump_basis grids centers in one dimension")
    if n_bumps < 1:
        raise ArgumentError("need at least one bump")
    core_lo = lo_a[0] + margin * 0.5 * (hi_a[0] - lo_a[0])
    core_hi = hi_a[0] - margin * 0.5 * (hi_a[0] - lo_a[0])
    centers = np.linspace(core_lo, core_hi, n_bumps)
    if scale is None:
        spacing = (centers[1] - centers[0]) if n_bumps > 1 \
            else 0.5 * (core_hi - core_lo)
        scale = 1.5 * spacing
    fns = tuple(gaussian_bump([c], scale, lo_a, hi_a, margin) for c in centers)
    return FunctionBasis(functions=fns, lo=lo_a, hi=hi_a, margin=margin)


def mixed_basis(lo, hi, n_bumps: int, bump_scale: float,
                degrees: Sequence[int], margin: float = 0.25,
                bump_span: tuple[float, float] | None = None) -> FunctionBasis:
    """Gaussian bumps plus windowed monomials on one box (d = 1)."""
    lo_a = np.atleast_1d(np.asarray(lo, dtype=float))
    hi_a = np.atleast_1d(np.asarray(hi, dtype=float))
    fns: list[BasisFunction] = []
    if n_bumps > 0:
        if bump_span is None:
            span = bump_basis(lo_a, hi_a, n_bumps, bump_scale, margin)
            fns.extend(span.functions)
        else:
            centers = np.linspace(bump_span[0], bump_span[1], n_bumps) \
                if n_bumps > 1 else np.array([0.5 * sum(bump_span)])
            fns.extend(gaussian_bump([c], bump_scale, lo_a, hi_a, margin)
                       for c in centers)
    fns.extend(windowed_monomial(d, lo_a, hi_a, margin) for d in degrees)
    return FunctionBasis(functions=tuple(fns), lo=lo_a, hi=hi_a, margin=margin)


def basis_from_config(cfg: dict) -> FunctionBasis:
    """Build a basis from a config record (CLI surface).

    Recognized keys: family ("bumps" | "mixed"), box ([lo, hi]), count,
    scale, degrees, margin, bump_span.
    """
    known = {"family", "box", "count", "scale", "degrees", "margin",
             "bump_span"}
    unknown = set(cfg) - known
    if unknown:
        raise ArgumentError(f"unknown basis config keys: {sorted(unknown)}")
    family = cfg.get("family", "bumps")
    box = cfg.get("box")
    if box is None or len(box) != 2:
        raise ArgumentError("basis config needs box: [lo, hi]")
    lo, hi = float(box[0]), float(box[1])
    margin = float(cfg.get("margin", 0.25))
    count = int(cfg.get("count", 8))
    scale = cfg.get("scale")
    if family == "bumps":
        return bump_basis([lo], [hi], count,
                          None if scale is None else float(scale), margin)
    if family == "mixed":
        degrees = [int(d) for d in cfg.get("degrees", [0, 1, 2])]
        span = cfg.get("bump_span")
        return mixed_basis([lo], [hi], count,
                           float(scale) if scale is not None else 2.0,
                           degrees, margin,
                           None if span is None else (float(span[0]),
                                                      float(span[1])))
    raise ArgumentError(f"unknown basis family {family!r}")


# ---------------------------------------------------------------------------
# Gram matrix, residual, dual value


@dataclass(frozen=True)
class GramData:
    """Diffusion-weighted Gram matrix Q_kl = E[grad f_k' a grad f_l]."""

    matrix: np.ndarray
    n_samples: int
    t: float
    condition: float


@dataclass(frozen=True)
class FokkerPlanckResidual:
    """Marginal-flow residual c_k = d/dt<mu_t, f_k> - E[L f_k] with noise.

    cov_mean is the covariance of the residual mean (per-path covariance
    divided by the path count); it feeds the debiasing and error bars of the
    dual value.
    """

    values: np.ndarray
    cov_mean: np.ndarray
    t: float
    n_paths: int


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
        """Evaluate h at points of shape (..., d)."""
        x = np.asarray(x, dtype=float)
        grads = self.basis.gradient_stack(x)
        combo = np.einsum("k,...kd->...d", self.coefficients, grads)
        a = np.asarray(self.spec.diffusion_matrix(self.t, x), dtype=float)
        return np.einsum("...ij,...j->...i", a, combo)


def gram_matrix(spec: DiffusionSpec, t: float, marginal_samples,
                basis: FunctionBasis) -> GramData:
    """Monte Carlo Gram matrix of basis gradients in the a(t,·) metric.

    Args:
        spec: law supplying the diffusion matrix weight.
        t: time label of the marginal.
        marginal_samples: points of shape (n, d) distributed as the marginal.
        basis: test functions.
    """
    y = np.asarray(marginal_samples, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    if y.shape[0] == 0:
        raise ArgumentError("gram matrix needs at least one sample")
    grads = basis.gradient_stack(y)                      # (n, K, d)
    a = np.asarray(spec.diffusion_matrix(t, y), dtype=float)
    q = np.einsum("nkd,nde,nle->kl", grads, a, grads) / y.shape[0]
    q = 0.5 * (q + q.T)
    svals = np.linalg.svd(q, compute_uv=False)
    cond = float(svals[0] / svals[-1]) if svals[-1] > 0 else math.inf
    return GramData(matrix=q, n_samples=y.shape[0], t=t, condition=cond)


def fokker_planck_residual(ensemble: PathEnsemble, spec_P: DiffusionSpec,
                           basis: FunctionBasis, t_index: int,
                           window: int = 1) -> FokkerPlanckResidual:
    """Residual of the reference Fokker-Planck identity on the basis.

    Under the reference law P the marginals satisfy d/dt <mu_t, f> =
    <mu_t, L f> for every test f; a nonzero residual is the signature of a
    drift discrepancy. The time derivative is a central difference over
    ``window`` grid steps on each path; the generator term is averaged at
    the central slice.

    Raises:
        ArgumentError: when t_index ± window leaves the grid.
    """
    m = ensemble.grid.n_steps
    if not (0 <= t_index - window and t_index + window <= m):
        raise ArgumentError("finite-difference window leaves the grid")
    if window < 1:
        raise ArgumentError("window must be at least one step")
    times = ensemble.grid.points
    t = float(times[t_index])
    span = float(times[t_index + window] - times[t_index - window])

    x_lo = ensemble.states[:, t_index - window]
    x_hi = ensemble.states[:, t_index + window]
    x_mid = ensemble.states[:, t_index]

    diff = (basis.value_matrix(x_hi) - basis.value_matrix(x_lo)) / span

    grads = basis.gradient_stack(x_mid)                  # (n, K, d)
    hesss = basis.hessian_stack(x_mid)                   # (n, K, d, d)
    a = np.asarray(spec_P.diffusion_matrix(t, x_mid), dtype=float)
    b = np.asarray(spec_P.drift(t, x_mid), dtype=float)
    gen = (0.5 * np.einsum("nij,nkji->nk", a, hesss)
           + np.einsum("nd,nkd->nk", b, grads))

    z = diff - gen                                        # (n, K)
    n = z.shape[0]
    c = z.mean(axis=0)
    centered = z - c
    cov_mean = (centered.T @ centered) / (n * max(n - 1, 1))
    return FokkerPlanckResidual(values=c, cov_mean=cov_mean, t=t, n_paths=n)


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
    g = np.linalg.pinv(q, rcond=SVD_RCOND, hermitian=True) @ c
    value = 0.5 * float(g @ (q @ g))
    return DualSolution(value=value, coefficients=g)


def drift_correction(residual: FokkerPlanckResidual, gram: GramData,
                     basis: FunctionBasis, spec: DiffusionSpec,
                     t: float | None = None) -> DriftCorrection:
    """Drift-correction field for one time slice.

    The field h = a · Σ g_k ∇f_k with g = Q⁺c makes the corrected generator
    reproduce the observed marginal flow within the basis resolution; its
    weighted energy ½ g'Qg is the slice's entropy production rate and is
    arithmetically identical to dual_energy's value.
    """
    sol = dual_energy(residual.values, gram)
    return DriftCorrection(coefficients=sol.coefficients, energy=sol.value,
                           t=residual.t if t is None else t,
                           basis=basis, spec=spec)


# ---------------------------------------------------------------------------
# Time-integrated residual energy


@dataclass(frozen=True)
class EnergyProfile:
    """Per-slice debiased dual values and their time integral."""

    times: np.ndarray
    values: np.ndarray
    std_errors: np.ndarray
    integral: float
    integral_std_error: float
    diagnostics: dict


def _debiased_slice(ensemble, spec_P, basis, idx, window, debias):
    res = fokker_planck_residual(ensemble, spec_P, basis, idx, window)
    gram = gram_matrix(spec_P, res.t, ensemble.states[:, idx], basis)
    sol = dual_energy(res.values, gram)
    value = sol.value
    if debias:
        # E[½ c'Q⁺c] inflates by ½ tr(Q⁺ Σ_c) under residual noise.
        qinv = np.linalg.pinv(gram.matrix, rcond=SVD_RCOND, hermitian=True)
        value -= 0.5 * float(np.trace(qinv @ res.cov_mean))
    se = math.sqrt(max(float(sol.coefficients @ res.cov_mean
                             @ sol.coefficients), 0.0))
    return res.t, value, se


def residual_energy_profile(ensemble: PathEnsemble, spec_P: DiffusionSpec,
                            basis: FunctionBasis, *, window: int = 8,
                            stride: int = 4, t_min_frac: float = 0.15,
                            debias: bool = True) -> EnergyProfile:
    """Trapezoidal time integral of the slice dual energies.

    Slices earlier than t_min_frac · T are skipped (near-degenerate
    marginals produce wild residuals when the initial law is a point mass)
    and the earliest retained value is extended to t = 0; the latest is
    extended to T. The per-slice standard errors combine in quadrature under
    the trapezoid weights; overlap correlation between nearby slices is not
    modeled (diagnosed, not corrected).

    Args:
        ensemble: paths sampled under the law being measured.
        spec_P: reference law.
        basis: test functions for every slice.
        window: central-difference half-width in grid steps.
        stride: grid steps between evaluated slices.
        t_min_frac: burn-in fraction of the horizon.
        debias: subtract the ½ tr(Q⁺ Σ_c) noise floor per slice.
    """
    m = ensemble.grid.n_steps
    if window < 1 or stride < 1:
        raise ArgumentError("window and stride must be positive")
    if not 0 <= t_min_frac < 1:
        raise ArgumentError("t_min_frac must lie in [0, 1)")
    horizon = ensemble.grid.horizon
    idxs = [i for i in range(window, m - window + 1, stride)
            if ensemble.grid.points[i] >= t_min_frac * horizon]
    if not idxs:
        raise ArgumentError("no usable slices: grid too coarse for window")

    cols = [_debiased_slice(ensemble, spec_P, basis, i, window, debias)
            for i in idxs]
    times = np.array([c[0] for c in cols])
    values = np.array([c[1] for c in cols])
    ses = np.array([c[2] for c in cols])

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
            "t_min_frac": t_min_frac, "debias": debias,
            "slice_correlation": "ignored",
        })
