"""Empirical large-deviation rates for path observables.

The probability that the empirical mean of N i.i.d. path observables
exceeds a threshold decays exponentially in N; -(1/N) log P_N estimates
the rate, and for a driftless constant-diffusion scalar model with the
terminal observable the limiting rate is z^2 / (2 a T). Trials run through
the shared Euler-Maruyama simulator in batches, each on its own substream,
so counts are deterministic for any thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .diffusion import (
    BLOCK_PATHS,
    DiffusionSpec,
    InitialLaw,
    TimeGrid,
    check_number,
    check_seed,
    euler_maruyama,
    is_integer,
    partition_blocks,
    stream_inputs,
    substream_seed,
)
from .errors import ArgumentError, CapabilityError, InsufficientSamplingError

__all__ = [
    "OBSERVABLES",
    "RateExperiment",
    "RateRow",
    "RateTable",
    "empirical_rate",
    "cramer_rate",
]

OBSERVABLES = ("terminal", "time_average")


@dataclass(frozen=True)
class RateExperiment:
    """Design of one rate study: observable, threshold, sample sizes.

    Raises:
        ArgumentError: naming the field, unless the observable is known, the
            threshold is a finite number, n_list holds strictly increasing
            positive integers, trials is an integer of at least 100 and the
            seed lies in [-2**63, 2**63). A bool is not a number here.
    """

    observable: str
    threshold: float
    n_list: tuple[int, ...]
    trials: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if self.observable not in OBSERVABLES:
            raise ArgumentError(
                f"unknown observable {self.observable!r}; "
                f"known: {', '.join(OBSERVABLES)}")
        check_number(self.threshold, "threshold")
        try:
            ns = tuple(self.n_list)
        except TypeError:  # not a sequence
            ns = ()
        if not ns or not all(is_integer(n) and n >= 1 for n in ns):
            raise ArgumentError(f"n_list must hold positive integers, got "
                                f"{self.n_list!r}")
        ns = tuple(int(n) for n in ns)
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ArgumentError("n_list must be strictly increasing")
        if not is_integer(self.trials) or self.trials < 100:
            raise ArgumentError(f"trials must be an integer of at least 100, "
                                f"got {self.trials!r}")
        check_seed(self.seed)
        object.__setattr__(self, "n_list", ns)


@dataclass(frozen=True)
class RateRow:
    """One sample size's exceedance count and rate estimate."""

    n: int
    count: int
    p_hat: float
    rate: float
    std_error: float
    zero_count: bool
    oracle: float | None = None


@dataclass(frozen=True)
class RateTable:
    rows: tuple[RateRow, ...]
    experiment: RateExperiment
    diagnostics: dict = field(default_factory=dict)


def _observable(states: np.ndarray, grid: TimeGrid,
                observable: str) -> np.ndarray:
    """Per-path observable of the first state coordinate of time-major
    states (m + 1, paths, d)."""
    x = states[:, :, 0]
    if observable == "terminal":
        return x[-1]
    # trapezoid rule summed in step order; np.trapezoid sums in another
    # order and would move the trial means by ulps
    running = np.zeros(x.shape[1])
    for k in range(grid.n_steps):
        dt = float(grid.points[k + 1] - grid.points[k])
        running += 0.5 * (x[k] + x[k + 1]) * dt
    return running / grid.horizon


def _row_counts(spec, init, grid, exp: RateExperiment, n: int,
                row_index: int, threads: int) -> int:
    """Exceedance count over all trials for one sample size.

    Trial j is stream j of stream_inputs under the row seed, with its n
    paths. Trials are stepped together in batches of at most BLOCK_PATHS
    paths (and at least one trial).
    """
    row_seed = substream_seed(exp.seed, row_index)
    m = grid.n_steps
    per_batch = max(1, BLOCK_PATHS // n)

    def count(lo: int, hi: int) -> int:
        c = 0
        for b_lo in range(lo, hi, per_batch):
            trials = range(b_lo, min(b_lo + per_batch, hi))
            states = np.empty((m + 1, len(trials) * n, spec.dim))
            stream_inputs(init, row_seed, trials, n, states)
            euler_maruyama(spec, grid, states)
            vals = _observable(states, grid, exp.observable)
            means = vals.reshape(len(trials), n).mean(axis=1)
            c += int(np.count_nonzero(means > exp.threshold))
        return c

    return sum(partition_blocks(exp.trials, threads, count))


def empirical_rate(spec_P: DiffusionSpec, init: InitialLaw, grid: TimeGrid,
                   experiment: RateExperiment, *, threads: int = 1,
                   with_oracle: bool = True) -> RateTable:
    """Monte Carlo rate table over the experiment's sample sizes.

    Each row estimates P_N = P(empirical mean of N observables > z) from
    `trials` independent trials and reports -(1/N) log P_hat with the
    binomially propagated standard error. Zero-count rows carry rate +inf
    and are flagged rather than dropped.

    Raises:
        ArgumentError: the initial law's dimension is not the model's.
        InsufficientSamplingError: every row had zero exceedances.
        PositiveDefinitenessError, ModelEvaluationError: as matrix_at, for
            a diffusion matrix along a trial's paths.
        ModelEvaluationError: a trial's paths reach non-finite states.
    """
    if init.dim != spec_P.dim:
        raise ArgumentError("initial law dimension does not match model")
    oracle_val = None
    # the closed-form rate is for the terminal observable only
    if with_oracle and experiment.observable == "terminal":
        try:
            oracle_val = cramer_rate(spec_P, experiment.threshold,
                                     grid.horizon)
        except CapabilityError:
            oracle_val = None

    rows = []
    for r, n in enumerate(experiment.n_list):
        count = _row_counts(spec_P, init, grid, experiment, n, r, threads)
        p_hat = count / experiment.trials
        if count == 0:
            rows.append(RateRow(n=n, count=0, p_hat=0.0, rate=math.inf,
                                std_error=math.inf, zero_count=True,
                                oracle=oracle_val))
            continue
        rate = -math.log(p_hat) / n
        se = math.sqrt((1.0 - p_hat) / (p_hat * experiment.trials)) / n
        rows.append(RateRow(n=n, count=count, p_hat=p_hat, rate=rate,
                            std_error=se, zero_count=False,
                            oracle=oracle_val))
    if all(row.zero_count for row in rows):
        raise InsufficientSamplingError(
            "no exceedances at any sample size; raise trials or lower the "
            "threshold")
    return RateTable(rows=tuple(rows), experiment=experiment,
                     diagnostics={"trials": experiment.trials,
                                  "seed": experiment.seed,
                                  "observable": experiment.observable,
                                  "threshold": experiment.threshold,
                                  "horizon": grid.horizon,
                                  "steps": grid.n_steps})


def cramer_rate(spec_P: DiffusionSpec, z: float, horizon: float) -> float:
    """Limiting rate z^2 / (2 a T) for the driftless terminal observable.

    Valid only when the terminal value is centred Gaussian with variance
    a T: scalar driftless model with constant diffusion.

    Raises:
        ArgumentError: z or horizon is not a finite number, or horizon <= 0.
        CapabilityError: the model's terminal law is not that Gaussian.
        PositiveDefinitenessError, ModelEvaluationError: as matrix_at,
            for its constant matrix.
    """
    check_number(z, "z")
    check_number(horizon, "horizon")
    if horizon <= 0:
        raise ArgumentError(f"horizon must be positive, got {horizon!r}")
    if spec_P.dim != 1 or spec_P.constant_factor is None:
        raise CapabilityError(
            "closed-form rate needs a scalar constant-diffusion model")
    x = np.array([[0.0], [1.0], [-1.7]])
    if not all(np.allclose(np.asarray(spec_P.drift(t, x), dtype=float), 0.0)
               for t in (0.0, 0.5 * horizon)):
        raise CapabilityError("closed-form rate needs a driftless model")
    a = float(spec_P.matrix_at(0.0, x)[0, 0])
    return z * z / (2.0 * a * horizon)
