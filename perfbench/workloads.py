"""The benchmark's workloads: `pathkl run` configs built from a seed.

Every workload runs on T = 1 with point initial laws at 0. A workload is a
list of operations; each operation is one config for `pathkl run`. The
config seeds are derived from the benchmark's --seed, so the same seed
always gives the same inputs and another seed gives fresh ones.
"""

from __future__ import annotations

import hashlib

HORIZON = 1.0
POINT = {"kind": "point", "point": [0.0]}
OU = {"id": "ou", "params": {"gamma": 1.0, "a": 1.0}}
BROWNIAN = {"id": "brownian", "params": {"a": 1.0}}
SINE_MU = {"id": "sine_diffusion", "params": {"a": 2.0, "amplitude": 0.5}}
SINE_P = {"id": "sine_diffusion", "params": {"a": 1.0, "amplitude": 0.5}}


def _config(model_mu, model_p, steps, estimator, params, n_paths):
    return {
        "model_mu": model_mu, "model_P": model_p,
        "initial_mu": POINT, "initial_P": POINT,
        "grid": {"horizon": HORIZON, "steps": steps},
        "estimator": estimator, "estimator_params": params,
        "n_paths": n_paths,
    }


# workload -> operation -> config without its seed
WORKLOADS = {
    "ou-routes": {
        "girsanov": _config(OU, BROWNIAN, 1000, "girsanov", {}, 10_000),
        "chain": _config(OU, BROWNIAN, 256, "chain", {"levels": 9}, 10_000),
        "residual-energy": _config(OU, BROWNIAN, 128, "residual-energy", {},
                                   50_000),
        "dv-marginal": _config(OU, BROWNIAN, 128, "dv-marginal",
                               {"t": HORIZON, "n_samples": 10_000}, 10_000),
    },
    "mismatch-sine": {
        "girsanov": _config(SINE_MU, SINE_P, 1024, "girsanov", {}, 10_000),
        "chain": _config(SINE_MU, SINE_P, 256, "chain", {"levels": 9},
                         10_000),
    },
    "rate-table": {
        "sanov": _config(BROWNIAN, BROWNIAN, 16, "sanov",
                         {"observable": "terminal", "threshold": 1.0,
                          "n_list": [5, 10, 20, 40], "trials": 10_000},
                         10_000),
    },
}

# The DV ascent stops short of its plateau and raises ConvergenceError at
# the default 500 iterations; how far short depends on the sample. The
# failing operation keeps one seed so that it fails in every run, which
# keeps the failed share of a run independent of --seed.
FIXED_SEEDS = {("ou-routes", "dv-marginal"): 0}


def op_seed(workload: str, op: str, seed: int) -> int:
    """The config seed of one operation, a 31-bit integer."""
    fixed = FIXED_SEEDS.get((workload, op))
    if fixed is not None:
        return fixed
    digest = hashlib.sha256(f"{workload}/{op}/{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def configs(workload: str, seed: int) -> dict[str, dict]:
    """Operation name -> complete `pathkl run` config, in run order."""
    return {op: dict(cfg, seed=op_seed(workload, op, seed))
            for op, cfg in WORKLOADS[workload].items()}
