"""Spans around pathkl's public functions, recorded from outside the package.

`instrumented` replaces each function named in INSTRUMENTS at the place
where its callers look it up (a module global or a class attribute) with a
wrapper that records a span, and puts the originals back on exit. Spans
are kept in memory with the index of their parent span; the benchmark
writes them out when it ends. Calls are single-threaded (`--threads 1`),
so a stack gives each span its parent.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import statistics
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int = -1
    counts: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        record = Span(name=name, start=self.clock(), parent=parent)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = self.clock()
            self._stack.pop()

    def wrap(self, fn, name: str, count=None):
        """`fn` recording a span; `count(arguments, result, exc)` adds counts."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result, error = None, None
                try:
                    result = fn(*args, **kwargs)
                    return result
                except Exception as exc:
                    error = exc
                    raise
                finally:
                    if count is not None:
                        call = signature.bind(*args, **kwargs).arguments
                        record.counts.update(count(call, result, error))
        return wrapper


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


# ---------------------------------------------------------------------------
# What is wrapped, and what each wrapper counts


def _path_steps(call, result, exc):
    if result is None:
        return {}
    n, points, _ = result.states.shape
    return {"diffusion.path_steps": n * (points - 1)}


def _match_points(call, result, exc):
    return {} if result is None else {"chain.match_points":
                                      result.n_evaluated}


def _interval_kls(call, result, exc):
    if result is None:
        return {}
    intervals = sum(e.partition.n_intervals for e in result.estimates)
    return {"chain.interval_kls": result.diagnostics["n_paths"] * intervals}


def _basis_evals(call, result, exc):
    basis, x = call["self"], call["x"]
    points = math.prod(getattr(x, "shape", ())) // basis.dim
    return {"variational.basis_evals": points * basis.size}


def _slices(call, result, exc):
    return {} if result is None else {"variational.slices":
                                      result.diagnostics["n_slices"]}


def _dv_iterations(call, result, exc):
    source = result if result is not None else exc
    iterations = getattr(source, "diagnostics", {}).get("iterations")
    return {} if iterations is None else {"marginal.dv_iterations":
                                          iterations}


def _trial_steps(call, result, exc):
    exp, grid = call["experiment"], call["grid"]
    return {"sanov.trial_steps":
            exp.trials * sum(exp.n_list) * grid.n_steps}


# (module, attribute path, span name, counter)
INSTRUMENTS = (
    ("pathkl.cli", "main", "cli.main", None),
    ("pathkl.cli", "load_config", "cli.load_config", None),
    ("pathkl.cli", "resolve_config", "cli.resolve_config", None),
    ("pathkl.cli", "run_config", "cli.run_config", None),
    ("pathkl.cli", "sample_paths", "diffusion.sample_paths", _path_steps),
    ("pathkl.chain", "sample_paths", "diffusion.sample_paths", _path_steps),
    ("pathkl.cli", "girsanov_entropy", "girsanov.girsanov_entropy", None),
    ("pathkl.girsanov", "diffusion_match_check",
     "chain.diffusion_match_check", _match_points),
    ("pathkl.cli", "refinement_sweep", "chain.refinement_sweep",
     _interval_kls),
    ("pathkl.cli", "residual_energy_profile",
     "variational.residual_energy_profile", _slices),
    ("pathkl.variational", "gram_matrix", "variational.gram_matrix", None),
    ("pathkl.variational", "fokker_planck_residual",
     "variational.fokker_planck_residual", None),
    ("pathkl.variational", "dual_energy", "variational.dual_energy", None),
    ("pathkl.variational", "FunctionBasis.value_matrix",
     "variational.basis", _basis_evals),
    ("pathkl.variational", "FunctionBasis.gradient_stack",
     "variational.basis", _basis_evals),
    ("pathkl.variational", "FunctionBasis.hessian_stack",
     "variational.basis", _basis_evals),
    ("pathkl.cli", "dv_estimate", "marginal.dv_estimate", _dv_iterations),
    ("pathkl.cli", "empirical_rate", "sanov.empirical_rate", _trial_steps),
)


@contextlib.contextmanager
def instrumented(tracer: Tracer, instruments=INSTRUMENTS):
    """Wrap every instrument's function for the duration of the block."""
    originals = []
    try:
        for module_name, path, name, count in instruments:
            *owner_path, attr = path.split(".")
            owner = importlib.import_module(module_name)
            for part in owner_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            originals.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, count))
        yield tracer
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics of one round of operations


SELF_TIME_METRICS = {
    "diffusion.sample_s": ("diffusion.sample_paths",),
    "girsanov.self_s": ("girsanov.girsanov_entropy",),
    "chain.match_s": ("chain.diffusion_match_check",),
    "chain.sweep_self_s": ("chain.refinement_sweep",),
    "variational.basis_s": ("variational.basis",),
    "variational.gram_s": ("variational.gram_matrix",),
    "variational.residual_s": ("variational.fokker_planck_residual",),
    "variational.dual_s": ("variational.dual_energy",),
    "variational.profile_self_s": ("variational.residual_energy_profile",),
    "marginal.dv_self_s": ("marginal.dv_estimate",),
    "sanov.rate_s": ("sanov.empirical_rate",),
    "cli.config_s": ("cli.load_config", "cli.resolve_config"),
    "cli.emit_s": ("cli.main",),
}
COUNT_METRICS = ("diffusion.path_steps", "chain.match_points",
                 "chain.interval_kls", "variational.basis_evals",
                 "variational.slices", "marginal.dv_iterations",
                 "sanov.trial_steps")
RATE_METRICS = {
    "diffusion.path_steps_per_s": ("diffusion.path_steps",
                                   "diffusion.sample_s"),
    "sanov.trial_steps_per_s": ("sanov.trial_steps", "sanov.rate_s"),
}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Self times, counts and rates summed over one round's spans.

    A layer that did not run reads 0.
    """
    out = {name: 0.0 for name in SELF_TIME_METRICS}
    out.update({name: 0 for name in COUNT_METRICS})
    by_span = {}
    for metric, names in SELF_TIME_METRICS.items():
        for name in names:
            by_span[name] = metric
    for span, own in zip(spans, self_times(spans)):
        metric = by_span.get(span.name)
        if metric is not None:
            out[metric] += own
        for key, value in span.counts.items():
            out[key] += value
    for metric, (count, seconds) in RATE_METRICS.items():
        out[metric] = out[count] / out[seconds] if out[seconds] > 0 else 0.0
    return out


def median_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over rounds."""
    return {key: statistics.median(r[key] for r in rounds)
            for key in rounds[0]}
