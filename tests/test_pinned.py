"""Seeded estimator values pinned exactly (as float.hex).

The values were recorded from the implementation that evaluated the
diffusion matrices at every (path, slice), solved against them one path at
a time, and evaluated every basis function separately. Hoisting constant
diffusions and stacking the basis families must reproduce them bit for bit.
Sizes are small so the file runs in about a second.
"""

import numpy as np
import pytest

from pathkl import (
    InitialLaw,
    OptimizerConfig,
    TimeGrid,
    dv_estimate,
    girsanov_entropy,
    make_model,
    mixed_basis,
    refinement_sweep,
    residual_energy_profile,
    sample_paths,
)
from pathkl.marginal import default_dv_basis

ZERO = InitialLaw.point_mass([0.0])


def _hex(values):
    return [float(v).hex() for v in values]


@pytest.fixture(scope="module")
def ou_bm():
    return (make_model("ou", {"gamma": 1.0, "a": 1.0}),
            make_model("brownian", {"a": 1.0}))


def test_girsanov_pinned(ou_bm):
    ou, bm = ou_bm
    ens = sample_paths(ou, ZERO, TimeGrid.uniform(1.0, 64), 300, 11)
    est = girsanov_entropy(ou, bm, ZERO, ZERO, ens)
    assert _hex([est.value, est.std_error]) == ['0x1.1347de15e4c0ep-3', '0x1.1106ee8ed78d4p-7']


SWEEP_TOTALS = [
        "0x0.0p+0",
        "0x1.43669d8e733f5p-4",
        "0x1.d22fc7b795691p-4",
        "0x1.14ff42026cc0ep-3",
        "0x1.224e9d92d2299p-3",
        "0x1.28a9978b4a21dp-3",
        "0x1.2d3d8927f8f90p-3",
        "0x1.2fde3202256e3p-3",
        "0x1.314c0ba082324p-3",
    ]
SWEEP_SES = [
        "0x0.0p+0",
        "0x1.b85824f71fb1cp-7",
        "0x1.e4599d672dc9ep-7",
        "0x1.1ec08cbfc34ebp-6",
        "0x1.2d378c671563ap-6",
        "0x1.2f416a888af89p-6",
        "0x1.31de964b210f8p-6",
        "0x1.33bce6856e14ep-6",
        "0x1.34d55ba74ce58p-6",
    ]
SWEEP_LEVEL4_TERMS = [
        "0x0.0p+0",
        "0x1.cc0ee50c1bb67p-8",
        "0x1.8c334be3fa4a2p-7",
        "0x1.2337ea9b0c718p-6",
        "0x1.43669d8e733f5p-6",
        "0x1.d8b8bc1a97f55p-6",
        "0x1.9adf4beeba6dcp-6",
        "0x1.94a620ab8fe0ap-6",
    ]


def test_refinement_sweep_pinned(ou_bm):
    ou, bm = ou_bm
    sweep = refinement_sweep(ou, bm, ZERO, ZERO, TimeGrid.uniform(1.0, 256),
                             9, n_paths=64, seed=5)
    assert _hex(e.total.value for e in sweep.estimates) == SWEEP_TOTALS
    assert _hex(e.total.std_error for e in sweep.estimates) == SWEEP_SES
    assert _hex(t.value for t in sweep.estimates[3].contributions) \
        == SWEEP_LEVEL4_TERMS


PROFILES = {
    "bumps": {
        "values": [
            "0x1.5200139bc046ep-4",
            "0x1.3147bc85e5812p-3",
            "0x1.25978872e900ap-3",
            "0x1.cdf36c1ce53bfp-4",
            "0x1.1f3aa57437dc3p-3",
            "0x1.ba3bfda0a5978p-3",
            "0x1.bfb788f477adap-3",
            "0x1.d3b5a12512c4ep-3",
            "0x1.e8ead6c4d9adep-3",
            "0x1.cb173e691fb32p-3",
            "0x1.46b4eee88e71dp-3",
            "0x1.77f1041d57188p-3",
        ],
        "ses": [
            "0x1.f0e6c5a00659dp-5",
            "0x1.3854aaa59ff4ep-4",
            "0x1.88adc316f1a8fp-5",
            "0x1.e2f4b0325357ep-6",
            "0x1.ace3da1bc547fp-6",
            "0x1.6c3c9413e2d42p-5",
            "0x1.dbff710ca3b1cp-6",
            "0x1.fd605ab287ef4p-6",
            "0x1.499878c23ff81p-5",
            "0x1.5ca3193ae48dbp-5",
            "0x1.dad60931c985bp-6",
            "0x1.0b5e78a38c15ap-5",
        ],
        "integral": "0x1.4a0ce78e61b12p-3",
        "integral_se": "0x1.132c06c00c9d0p-6",
    },
    "mixed": {
        "values": [
            "0x1.6acc0bfbf3d79p-4",
            "0x1.97ca951f7692fp-4",
            "0x1.08221089a81b9p-3",
            "0x1.2675f955c0473p-3",
            "0x1.2cd9e84673e34p-3",
            "0x1.9edb276fcd5fdp-3",
            "0x1.ef4876b394c68p+2",
            "0x1.c407895cbc625p-3",
            "0x1.bd34ffe55af98p-3",
            "0x1.aef4ff9a288c6p-3",
            "0x1.4a7ae5586bf90p-3",
            "0x1.72d58f9fe8bc4p-3",
        ],
        "ses": [
            "0x1.1c2ebec4a13adp-6",
            "0x1.fe831cc7423bfp-7",
            "0x1.358e26c412af5p-6",
            "0x1.3bc25135ed204p-6",
            "0x1.3bc314d77733cp-6",
            "0x1.6f1780acda86cp-6",
            "0x1.442457ed96f4bp+6",
            "0x1.ab45374b17cb5p-6",
            "0x1.b28ac2cbe052fp-6",
            "0x1.d7059c8127b1cp-5",
            "0x1.84f8f67e954c0p-6",
            "0x1.a3c922db4bcf7p-6",
        ],
        "integral": "0x1.410fa2935568cp-1",
        "integral_se": "0x1.4424705eec387p+2",
    },
}


@pytest.mark.parametrize("tag,basis", [
    ("bumps", mixed_basis([-2.5], [2.5], n_bumps=12, bump_scale=0.4,
                          degrees=[])),
    ("mixed", mixed_basis([-2.5], [2.5], n_bumps=4, bump_scale=0.9,
                          degrees=[0, 1, 2], bump_span=(-1.0, 1.0))),
])
def test_residual_energy_profile_pinned(ou_bm, tag, basis):
    ou, bm = ou_bm
    ens = sample_paths(ou, ZERO, TimeGrid.uniform(1.0, 64), 2000, 3)
    prof = residual_energy_profile(ens, bm, basis)
    pinned = PROFILES[tag]
    assert _hex(prof.values) == pinned["values"]
    assert _hex(prof.std_errors) == pinned["ses"]
    assert prof.integral.hex() == pinned["integral"]
    assert prof.integral_std_error.hex() == pinned["integral_se"]


def test_dv_estimate_default_basis_pinned():
    rng = np.random.default_rng(4)
    s_mu = rng.normal(0.3, 0.8, size=(1500, 1))
    s_nu = rng.normal(0.0, 1.0, size=(1500, 1))
    pooled = np.concatenate([s_mu, s_nu])
    basis = default_dv_basis(float(pooled.min()), float(pooled.max()))
    est = dv_estimate(s_mu, s_nu, basis,
                      OptimizerConfig(max_iter=300, plateau_rtol=0.5))
    assert _hex([est.value, est.std_error]) == ['0x1.3c966db675440p-4', '0x1.8901f8b6f72cep-7']
    assert est.diagnostics["iterations"] == 300


SINE_TOTALS = [
        "0x1.3a37a020b8c21p-3",
        "0x1.3a37a020b8c21p-2",
        "0x1.3a37a020b8c21p-1",
        "0x1.3a37a020b8c20p+0",
        "0x1.3a37a020b8c20p+1",
    ]
SINE_SES = [
        "0x1.2abb43c0eb0f4p-58",
        "0x1.0d45df3c21aa9p-57",
        "0x1.14174f3e89f14p-56",
        "0x1.17700f4a9ff83p-55",
        "0x1.14174f3e89f14p-54",
    ]


def test_sine_mismatch_sweep_pinned():
    # state-dependent diffusions: the per-(path, interval) branch
    mu = make_model("sine_diffusion", {"a": 2.0, "amplitude": 0.5})
    p = make_model("sine_diffusion", {"a": 1.0, "amplitude": 0.5})
    sweep = refinement_sweep(mu, p, ZERO, ZERO, TimeGrid.uniform(1.0, 64), 5,
                             n_paths=48, seed=2)
    assert _hex(e.total.value for e in sweep.estimates) == SINE_TOTALS
    assert _hex(e.total.std_error for e in sweep.estimates) == SINE_SES
    assert sweep.slope_per_interval.hex() == "0x1.3a37a020b8c23p-3"


GAUSSIAN_DRAWS = {
    "1d": [
            ("0x1.5bf2511ce8f6ep-1",),
            ("-0x1.65200940a3e60p-5",),
            ("0x1.8772966bb41e3p-1",),
            ("0x1.365ce5e8b8b44p+0",),
            ("0x1.f0eb8af3629e8p-2",),
        ],
    "2d": [
            ("0x1.ed67ac3a558cap-1", "-0x1.42f43a54eceb5p+0"),
            ("-0x1.ce9eb6fba5c3ap-1", "-0x1.2d7a9b228fbaap+0"),
            ("0x1.2edcb338639c0p+0", "-0x1.2b11f4a936816p-1"),
            ("0x1.2b6df1bb49d3ap+1", "-0x1.99e7216634a9ap-2"),
            ("0x1.d91057a192897p-2", "-0x1.966d547d799fcp-1"),
        ],
    "2d_singular": [
            ("-0x1.6a9f0646097e8p-1", "0x1.2ac1f373ed030p-2"),
            ("0x1.b8a082c345f21p-2", "0x1.6e2820b0d17c8p+0"),
            ("0x1.7de1d742a2f84p-2", "0x1.5f7875d0a8be1p+0"),
            ("0x1.5af3b4c479856p-4", "0x1.15af3b4c47985p+0"),
            ("0x1.89e7db5532a2ap-2", "0x1.6279f6d54ca8ap+0"),
        ],
}


@pytest.mark.parametrize("tag,mean,cov", [
    ("1d", [0.5], [[0.3]]),
    ("2d", [0.5, -1.0], [[2.0, 0.6], [0.6, 0.5]]),
    ("2d_singular", [0.0, 1.0], [[1.0, 1.0], [1.0, 1.0]]),
])
def test_gaussian_initial_draws_pinned(tag, mean, cov):
    init = InitialLaw.gaussian(mean, cov)
    spec = make_model("brownian", {"a": 1.0}, dim=init.dim)
    ens = sample_paths(spec, init, TimeGrid.uniform(1.0, 4), 5, 9)
    got = [tuple(_hex(row)) for row in ens.states[:, 0]]
    assert got == GAUSSIAN_DRAWS[tag]
