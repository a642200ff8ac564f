"""Seeded estimator values pinned exactly (as float.hex).

The values were recorded from the implementation that evaluated the
diffusion matrices at every (path, slice), solved against them one path at
a time, and evaluated every basis function separately. Hoisting constant
diffusions and stacking the basis families must reproduce them bit for bit.
The sampled path states were recorded from the sampler that stored paths
path-major and built one generator per path; any storage order or block
size must reproduce them.
The residual-energy profiles were recorded from the profile that sums
every slice over fixed chunks of BLOCK_PATHS paths, the Gram matrix one
GEMM per chunk; any path block size must reproduce them.
Sizes are small so the file runs in about a second.
"""

import numpy as np
import pytest

from pathkl import (
    DiffusionSpec,
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
        "0x1.43669d8e733f4p-4",
        "0x1.d22fc7b795691p-4",
        "0x1.14ff42026cc0ep-3",
        "0x1.224e9d92d2299p-3",
        "0x1.28a9978b4a21dp-3",
        "0x1.2d3d8927f8f90p-3",
        "0x1.2fde3202256e2p-3",
        "0x1.314c0ba082324p-3",
    ]
SWEEP_SES = [
        "0x0.0p+0",
        "0x1.b85824f71fb1cp-7",
        "0x1.e4599d672dc9ep-7",
        "0x1.1ec08cbfc34ebp-6",
        "0x1.2d378c671563ap-6",
        "0x1.2f416a888af89p-6",
        "0x1.31de964b210f7p-6",
        "0x1.33bce6856e14ep-6",
        "0x1.34d55ba74ce58p-6",
    ]
SWEEP_LEVEL4_TERMS = [
        "0x0.0p+0",
        "0x1.cc0ee50c1bb69p-8",
        "0x1.8c334be3fa4a3p-7",
        "0x1.2337ea9b0c717p-6",
        "0x1.43669d8e733f4p-6",
        "0x1.d8b8bc1a97f54p-6",
        "0x1.9adf4beeba6dcp-6",
        "0x1.94a620ab8fe0bp-6",
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
            "0x1.52001398b6ea8p-4",
            "0x1.3147bc84632dcp-3",
            "0x1.25978872eae3ap-3",
            "0x1.cdf36c1ccbc0dp-4",
            "0x1.1f3aa574388b1p-3",
            "0x1.ba3bfda0a4122p-3",
            "0x1.bfb788f47770fp-3",
            "0x1.d3b5a12512b31p-3",
            "0x1.e8ead6c4da531p-3",
            "0x1.cb173e691f6a1p-3",
            "0x1.46b4eee88e8b9p-3",
            "0x1.77f1041d57093p-3",
        ],
        "ses": [
            "0x1.f0e6c5a2995f9p-5",
            "0x1.3854aaa380df5p-4",
            "0x1.88adc316b8124p-5",
            "0x1.e2f4b032b0d9ep-6",
            "0x1.ace3da1bc4ee7p-6",
            "0x1.6c3c9413da4e8p-5",
            "0x1.dbff710ca393fp-6",
            "0x1.fd605ab28873ep-6",
            "0x1.499878c240d26p-5",
            "0x1.5ca3193ae4441p-5",
            "0x1.dad60931c9d61p-6",
            "0x1.0b5e78a38b901p-5",
        ],
        "integral": "0x1.4a0ce78df3cacp-3",
        "integral_se": "0x1.132c06c0d6f60p-6",
    },
    "mixed": {
        "values": [
            "0x1.6acc0bfbf2176p-4",
            "0x1.97ca951f75f95p-4",
            "0x1.08221089a7e85p-3",
            "0x1.2675f955c0ac1p-3",
            "0x1.2cd9e8467427bp-3",
            "0x1.9edb276fcd359p-3",
            "0x1.ef4876badf798p+2",
            "0x1.c407895cbc1dbp-3",
            "0x1.bd34ffe55adf5p-3",
            "0x1.aef4ff9a2864cp-3",
            "0x1.4a7ae5586c277p-3",
            "0x1.72d58f9fe8d92p-3",
        ],
        "ses": [
            "0x1.1c2ebec49e398p-6",
            "0x1.fe831cc742ad2p-7",
            "0x1.358e26c4121cfp-6",
            "0x1.3bc25135ee7dap-6",
            "0x1.3bc314d777598p-6",
            "0x1.6f1780acda837p-6",
            "0x1.442457ee4d107p+6",
            "0x1.ab45374b178b3p-6",
            "0x1.b28ac2cbe05b4p-6",
            "0x1.d7059c8127b5ep-5",
            "0x1.84f8f67e958d7p-6",
            "0x1.a3c922db4be1ep-6",
        ],
        "integral": "0x1.410fa296fab5dp-1",
        "integral_se": "0x1.4424705fa2542p+2",
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
        "0x1.3a37a020b8c21p+0",
        "0x1.3a37a020b8c21p+1",
    ]
SINE_SES = [
        "0x1.2abb43c0eb0f4p-58",
        "0x1.0d45df3c21aa9p-57",
        "0x1.14174f3e89f14p-56",
        "0x1.02b5859f17d73p-56",
        "0x1.ef63e11abcd14p-55",
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


def _custom_2d():
    """A state-dependent 2-d model: the sampler's per-path Cholesky branch."""
    def drift(t, x):
        x = np.asarray(x, dtype=float)
        return np.stack([-x[..., 0] + 0.5 * np.sin(x[..., 1]),
                         0.3 * x[..., 0] - x[..., 1]], axis=-1)

    def diffusion(t, x):
        x = np.asarray(x, dtype=float)
        a = np.empty(x.shape[:-1] + (2, 2))
        a[..., 0, 0] = 1.0 + 0.5 * np.sin(x[..., 0]) ** 2
        a[..., 0, 1] = a[..., 1, 0] = 0.3
        a[..., 1, 1] = 0.5 + x[..., 1] ** 2 / (1.0 + x[..., 1] ** 2)
        return a

    return DiffusionSpec(dim=2, drift=drift, diffusion_matrix=diffusion,
                         model_id="custom-2d")


# rows 0, 1023, 1024 and 1029 of a 1030-path ensemble, every grid time
PINNED_ROWS = (0, 1023, 1024, 1029)
PATH_STATES = {
    "linear-2d": [
        [
            ("-0x1.0850c92600300p-3", "-0x1.4af6e0c0be1a7p+0"),
            ("-0x1.abaf701943d78p-4", "-0x1.8379a7a2db48ep-1"),
            ("0x1.f18886ea61a47p-3", "-0x1.e7496ba3a7752p-1"),
            ("0x1.2afcdfac9efd2p-1", "-0x1.447f8296f226cp+0"),
            ("0x1.e3d50f22af2a2p-2", "-0x1.373ba027ded5ap+0"),
        ],
        [
            ("0x1.6e966c57ed93ap+0", "-0x1.69901a6363f76p-1"),
            ("0x1.b0ee46e9a40e6p-2", "-0x1.0f13c98b53ed1p-1"),
            ("-0x1.98b68cb6b8016p-3", "-0x1.9051924143a48p-1"),
            ("-0x1.1cf866a91aa42p-3", "-0x1.a639a964b5d66p-1"),
            ("-0x1.09f4cd28a53e1p-1", "-0x1.e1ee8bed1d208p-1"),
        ],
        [
            ("0x1.32153e1d2d594p+0", "-0x1.1dd6104e3f270p-1"),
            ("0x1.5c27403907e56p+0", "-0x1.8e4f54e4f925ep-3"),
            ("0x1.b50034e1605d9p+0", "-0x1.09dd289a972b6p-4"),
            ("0x1.96d2f844ca754p-1", "0x1.50d471f86e415p-3"),
            ("0x1.bebf0fc21149fp+0", "0x1.4210042a7dc95p-2"),
        ],
        [
            ("0x1.858dcc80a345ep-1", "-0x1.cd0d506f33ec4p+0"),
            ("0x1.1d055ed8d1c13p+0", "-0x1.3dd1ad512d884p+0"),
            ("0x1.fd03a4a702c2cp+0", "0x1.0742fa0e27530p-3"),
            ("0x1.4579f5d5dd6b8p+1", "0x1.dac23680aa41ap-1"),
            ("0x1.3928b54856daap+1", "0x1.c7ea5fbb138a1p-1"),
        ],
    ],
    "custom-2d": [
        [
            ("0x1.999999999999ap-3", "-0x1.999999999999ap-2"),
            ("-0x1.baf956557211dp-3", "-0x1.c13e98f6062dap-2"),
            ("-0x1.5b94c45972be8p-4", "0x1.ddbbbc49f2a3cp-3"),
            ("0x1.6d5c85735eeeap-2", "-0x1.8426fb27d7f3cp-5"),
            ("0x1.8b6aa862686e2p-1", "-0x1.77c53bf64a2e4p-2"),
        ],
        [
            ("0x1.999999999999ap-3", "-0x1.999999999999ap-2"),
            ("0x1.24cebb7d21025p-1", "-0x1.1b4a2a7798743p-3"),
            ("-0x1.be1f34bafa6c8p-3", "0x1.0251d08673deep-4"),
            ("-0x1.45e20fb7672efp-1", "-0x1.da39679cac539p-3"),
            ("-0x1.a9b6936718ddep-2", "-0x1.144e205da9a96p-2"),
        ],
        [
            ("0x1.999999999999ap-3", "-0x1.999999999999ap-2"),
            ("0x1.cf6aebff499bep-2", "-0x1.7f080d2656f8cp-5"),
            ("0x1.bb0d3a0bf7972p-1", "0x1.397f5a0aec144p-2"),
            ("0x1.77573daab8eb2p+0", "0x1.6a217120454a3p-2"),
            ("0x1.0e9807ab79675p-1", "0x1.4ab54f87cd710p-1"),
        ],
        [
            ("0x1.999999999999ap-3", "-0x1.999999999999ap-2"),
            ("0x1.dd3d4ed4aa9c3p-3", "-0x1.82b3833dabb12p-1"),
            ("0x1.aefcdbfc9d8f2p-1", "-0x1.2199699e8aef0p-5"),
            ("0x1.09fab2b65fd9ep+1", "0x1.491fbda397ad6p+0"),
            ("0x1.6ee3ea07dce90p+1", "0x1.0e17fe5451edcp+1"),
        ],
    ],
    "sine": [
        [
            ("-0x1.0000000000000p+0",),
            ("-0x1.07a6c50d60257p+0",),
            ("-0x1.f7308ec0632aap-1",),
            ("-0x1.7058f86d7e460p-1",),
            ("-0x1.2131a40b95532p-1",),
            ("-0x1.88e5d3cfd2c4bp-1",),
            ("-0x1.25d58de0e19a0p-1",),
            ("-0x1.ca0b05f5437a2p-1",),
            ("-0x1.a998f01258879p-1",),
            ("-0x1.bff061e5ab990p-1",),
            ("-0x1.25c67cefa2bb6p+0",),
            ("-0x1.0b7d575e35642p+0",),
            ("-0x1.49a9b15f63f04p+0",),
        ],
        [
            ("0x1.0000000000000p+1",),
            ("0x1.00d417fe299e5p+1",),
            ("0x1.aa02dbf9ca29cp+0",),
            ("0x1.ebd8ecac809b5p+0",),
            ("0x1.a491c55aa7ad8p+0",),
            ("0x1.880ca50e8bde3p+0",),
            ("0x1.94a87dfd7a9a5p+0",),
            ("0x1.84f24486efbb9p+0",),
            ("0x1.51eaf3ca068e0p+0",),
            ("0x1.4d1dd9cdd3b64p+0",),
            ("0x1.5f450fb3c6e26p+0",),
            ("0x1.88ce368945f80p+0",),
            ("0x1.0d0b34026d2f7p+1",),
        ],
        [
            ("-0x1.0000000000000p+0",),
            ("-0x1.ddbf46af787ccp-1",),
            ("-0x1.7c9025bb8c59fp-1",),
            ("-0x1.4a61736d7ecf4p-1",),
            ("-0x1.78db5584ea20dp-2",),
            ("-0x1.c50d209aabd5ap-2",),
            ("-0x1.50b84bb856cd2p-1",),
            ("-0x1.c69f434b1e7a2p-2",),
            ("0x1.d1c1a8bb003a0p-6",),
            ("-0x1.78934586f8e99p-4",),
            ("-0x1.ecec18d830850p-7",),
            ("-0x1.7b4a197693878p-5",),
            ("0x1.ca47f6a7d23eap-5",),
        ],
        [
            ("-0x1.0000000000000p+0",),
            ("-0x1.409e2338ca8b6p+0",),
            ("-0x1.fc19ada30bc9cp-1",),
            ("-0x1.bd37442d1c9e9p-1",),
            ("-0x1.875a11a0ae2ccp-2",),
            ("0x1.c43a87c13e05cp-3",),
            ("0x1.784b04c5012a1p-1",),
            ("0x1.21dd55eb760aep+0",),
            ("0x1.5d4477a6cb0edp+0",),
            ("0x1.369f692808068p+0",),
            ("0x1.612214a8026b4p+0",),
            ("0x1.558966aab79c1p+0",),
            ("0x1.43fc8b0246b80p+0",),
        ],
    ],
}


@pytest.mark.parametrize("tag", list(PATH_STATES))
def test_sample_paths_states_pinned(tag):
    spec, init, grid = {
        # a full constant matrix: one Cholesky factor for every path
        "linear-2d": lambda: (
            make_model("linear", {"A": [[-1.0, 0.5], [0.2, -0.3]],
                                  "b0": [0.1, -0.2],
                                  "a": [[1.0, 0.3], [0.3, 0.5]]}, dim=2),
            InitialLaw.gaussian([0.5, -1.0], [[1.0, 0.3], [0.3, 0.5]]),
            TimeGrid.uniform(1.0, 4)),
        "custom-2d": lambda: (
            _custom_2d(), InitialLaw.point_mass([0.2, -0.4]),
            TimeGrid.uniform(1.0, 4)),
        # dt = 1/12, a step that is not a power of two
        "sine": lambda: (
            make_model("sine_diffusion", {"a": 0.7, "amplitude": 0.5}),
            InitialLaw.empirical([[-1.0], [0.0], [0.25], [2.0]]),
            TimeGrid.uniform(1.0, 12)),
    }[tag]()
    ens = sample_paths(spec, init, grid, 1030, 17)
    got = [[tuple(_hex(x)) for x in ens.states[i]] for i in PINNED_ROWS]
    assert got == PATH_STATES[tag]
