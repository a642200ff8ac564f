"""Model evaluation, the one-step law, and path sampling."""

import dataclasses
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

import pathkl.diffusion
from pathkl import (
    ArgumentError,
    DiffusionSpec,
    InitialLaw,
    ModelEvaluationError,
    Partition,
    PositiveDefinitenessError,
    TimeGrid,
    chain_estimate,
    cramer_rate,
    euler_step_law,
    girsanov_entropy,
    make_model,
    mixed_basis,
    refinement_sweep,
    register_model,
    residual_energy_profile,
    sample_paths,
    substream_seed,
)
from pathkl import cli, girsanov
from pathkl.chain import _interval_kls
from pathkl.diffusion import (
    BLOCK_ELEMENTS,
    BLOCK_PATHS,
    PairCoefficients,
    PathEnsemble,
    _keyed_streams,
    euler_maruyama,
    path_generator,
    positive_definite,
    stream_inputs,
    variance_part,
)

OU_VAR_T1 = (1.0 - math.exp(-2.0)) / 2.0  # 0.43233235838169365


# ---------------------------------------------------------------------------
# coefficient evaluation


def test_drift_brownian_zero():
    spec = make_model("brownian", {})
    np.testing.assert_array_equal(spec.drift(0.3, np.array([1.7])),
                                  np.array([0.0]))


def test_drift_ou():
    spec = make_model("ou", {"gamma": 1.0})
    np.testing.assert_allclose(spec.drift(0.0, np.array([2.0])),
                               np.array([-2.0]))


def test_drift_double_well():
    spec = make_model("double_well", {})
    np.testing.assert_allclose(spec.drift(0.0, np.array([0.5])),
                               np.array([0.375]))


def _flat_spec(drift=0.0, matrix=((1.0,),)):
    """A custom model with a constant drift vector and diffusion matrix."""
    drift = np.atleast_1d(np.asarray(drift, dtype=float))
    matrix = np.asarray(matrix, dtype=float)
    return DiffusionSpec(
        dim=drift.shape[0],
        drift=lambda t, x: np.broadcast_to(drift, np.asarray(x).shape),
        diffusion_matrix=lambda t, x: np.broadcast_to(
            matrix, np.asarray(x).shape[:-1] + matrix.shape))


def test_drift_nonfinite_rejected():
    with pytest.raises(ModelEvaluationError, match="drift"):
        euler_step_law(_flat_spec(drift=np.nan), 0.0, np.array([0.0]), 0.1)


def test_diffusion_eval_identity():
    law = euler_step_law(make_model("brownian", {}), 0.0, np.array([0.0]),
                         1.0)
    np.testing.assert_array_equal(law.covariance, np.eye(1))


def test_diffusion_eval_scalar():
    law = euler_step_law(make_model("brownian", {"a": 2.0}), 0.0,
                         np.array([0.0]), 1.0)
    assert law.covariance[0, 0] == 2.0


def test_diffusion_eval_diagonal():
    spec = make_model("brownian", {"a": [[1.0, 0.0], [0.0, 4.0]]}, dim=2)
    law = euler_step_law(spec, 0.0, np.zeros(2), 1.0)
    np.testing.assert_array_equal(law.covariance, np.diag([1.0, 4.0]))


def test_diffusion_eval_pd_error():
    with pytest.raises(PositiveDefinitenessError):
        euler_step_law(_flat_spec(matrix=[[-1.0]]), 0.0, np.array([0.0]), 0.1)


@pytest.mark.parametrize("matrix,error", [
    ([[1.0, 0.5], [0.0, 1.0]], PositiveDefinitenessError),
    ([[np.inf]], ModelEvaluationError),
], ids=["nonsymmetric", "nonfinite"])
def test_step_law_rejects_bad_matrix(matrix, error):
    spec = _flat_spec(drift=np.zeros(len(matrix)), matrix=matrix)
    with pytest.raises(error):
        euler_step_law(spec, 0.0, np.zeros(len(matrix)), 0.1)


def _constant_pair_fixed():
    # a = 1e-300 against c = 1e300: the checked matrices' variance part
    # overflows
    grid = TimeGrid.uniform(1.0, 2)
    pair = PairCoefficients(make_model("brownian", {"a": 1e300}),
                            make_model("brownian", {"a": 1e-300}),
                            PathEnsemble(grid, np.zeros((1, 3, 1)), 0))
    with np.errstate(over="ignore"):
        return pair.fixed


CONSTANT_VALUE_ERRORS = {
    "nan": (lambda: euler_step_law(make_model("brownian", {"a": np.nan}),
                                   0.5, [0.0], 0.1), ModelEvaluationError,
            "constant diffusion matrix of 'brownian' is NaN"),
    "inf": (lambda: sample_paths(make_model("ou", {"a": np.inf}),
                                 InitialLaw.point_mass([0.0]),
                                 TimeGrid.uniform(1.0, 4), 8, 0),
            ModelEvaluationError,
            "constant diffusion matrix of 'ou' is infinite"),
    "non-pd": (lambda: euler_step_law(make_model("brownian", {"a": -1.0}),
                                      0.5, [0.0], 0.1),
               PositiveDefinitenessError,
               "constant diffusion matrix of 'brownian' is not symmetric "
               "positive definite"),
    "variance-part": (_constant_pair_fixed, ModelEvaluationError,
                      "variance part of the pair is infinite"),
}


@pytest.mark.parametrize("case", CONSTANT_VALUE_ERRORS)
def test_constant_values_are_named_without_time_or_path(case):
    # a value that does not depend on (t, x) holds at no one time or path:
    # these named "on some path at t = 0" (or "at t = 0") whatever time
    # was read
    run, error, message = CONSTANT_VALUE_ERRORS[case]
    with pytest.raises(error) as info:
        run()
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# initial laws and the time grid


@pytest.mark.parametrize("build,field", [
    (lambda: InitialLaw.point_mass([True]), "point"),
    (lambda: InitialLaw.point_mass("abc"), "point"),
    (lambda: InitialLaw.point_mass([0.0, np.inf]), "point"),
    (lambda: InitialLaw.gaussian([0.0], [[True]]), "covariance"),
    (lambda: InitialLaw.gaussian([np.nan], [[1.0]]), "mean"),
    (lambda: InitialLaw.gaussian(["0"], [[1.0]]), "mean"),
    (lambda: InitialLaw.empirical(np.r_[np.zeros(1999), np.nan]), "samples"),
    (lambda: InitialLaw.empirical([[0.0], [-np.inf]]), "samples"),
    (lambda: InitialLaw.empirical(np.array([[True], [False]])), "samples"),
    (lambda: InitialLaw.empirical([[0.0], [1.0, 2.0]]), "samples"),
], ids=["point-bool", "point-string", "point-inf", "covariance-bool",
        "mean-nan", "mean-string", "empirical-nan", "empirical-inf",
        "empirical-bool-array", "empirical-ragged"])
def test_initial_laws_refuse_entries_that_are_not_finite_numbers(build,
                                                                  field):
    # [True] used to be the point 1.0, [[True]] the covariance [[1.0]], and
    # an undrawn NaN sample a NaN initial term in girsanov_entropy
    with pytest.raises(ArgumentError, match=f"^{field} must be"):
        build()


def test_initial_laws_take_numbers_and_numeric_arrays():
    assert InitialLaw.point_mass(0.5).point.tolist() == [0.5]
    assert InitialLaw.point_mass(np.array([1, 2])).dim == 2
    law = InitialLaw.gaussian(np.float32(0.5), [[2]])
    assert law.gaussian_law.covariance.tolist() == [[2.0]]
    assert InitialLaw.empirical(np.arange(4)).samples.shape == (4, 1)


def _single_draws(init, gen, size):
    """size draws by the one-draw-at-a-time formulas of each law."""
    rows = []
    for _ in range(size):
        if init.kind == "point":
            rows.append(init.point.copy())
        elif init.kind == "gaussian":
            rows.append(init.gaussian_law.mean + init.gaussian_law.root
                        @ gen.standard_normal(init.dim))
        else:
            rows.append(
                init.samples[gen.integers(init.samples.shape[0])].copy())
    return np.array(rows)


@pytest.mark.parametrize("init", [
    InitialLaw.point_mass([0.5, -2.0]),
    InitialLaw.gaussian([0.3], [[2.5]]),
    InitialLaw.gaussian([0.5, -1.0], [[1.0, 0.3], [0.3, 0.5]]),
    InitialLaw.gaussian([0.0, 1.0], [[1.0, 2.0], [2.0, 4.0]]),
    InitialLaw.empirical([[-1.0], [0.0], [0.25], [2.0], [3.5]]),
    InitialLaw.empirical([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
], ids=["point", "gaussian-1d", "gaussian-2d", "gaussian-singular-2d",
        "empirical-1d", "empirical-2d"])
def test_block_draw_matches_single_draws(init):
    for key in range(40):
        for size in (1, 7, 40):
            block_gen = path_generator(key, size)
            single_gen = path_generator(key, size)
            block = init.draw(block_gen, size)
            assert block.shape == (size, init.dim)
            assert np.array_equal(block, _single_draws(init, single_gen, size))
            # both leave the stream at the same position
            assert np.array_equal(block_gen.standard_normal(3),
                                  single_gen.standard_normal(3))


def _bit_state(gen):
    state = gen.bit_generator.state
    return {"counter": state["state"]["counter"].tolist(),
            "key": state["state"]["key"].tolist(),
            "buffer": state["buffer"].tolist(),
            **{k: state[k] for k in ("buffer_pos", "has_uint32", "uinteger")}}


# below 2**63, at and above it (where numpy would key a tuple through
# float64), the largest 64-bit seed and negative seeds
KEY_SEEDS = [0, 7, 2 ** 63 - 1, 2 ** 63, 2 ** 63 + 1, 2 ** 63 + 4097,
             2 ** 64 - 1, -1, -2 ** 63]


def _full_key(seed, j):
    return np.array([seed % 2 ** 64, j], dtype=np.uint64)


@pytest.mark.parametrize("init", [
    InitialLaw.point_mass([0.5, -2.0]),
    InitialLaw.gaussian([0.5, -1.0], [[1.0, 0.3], [0.3, 0.5]]),
    InitialLaw.empirical([[-1.0], [0.0], [0.25], [2.0], [3.5]]),
], ids=["point", "gaussian-2d", "empirical"])
def test_rekeyed_streams_match_fresh_generators(init):
    streams = range(3, 9)
    for seed in KEY_SEEDS:
        for j, gen in zip(streams, _keyed_streams(seed, streams)):
            fresh = np.random.Generator(np.random.Philox(
                key=_full_key(seed, j)))
            assert _bit_state(gen) == _bit_state(fresh)
            assert np.array_equal(init.draw(gen, 5), init.draw(fresh, 5))
            assert np.array_equal(gen.standard_normal(4),
                                  fresh.standard_normal(4))
            assert np.array_equal(gen.random(3), fresh.random(3))
            # three 32-bit draws leave half a word cached for the next key
            # to discard
            assert np.array_equal(gen.integers(10, size=3, dtype=np.int32),
                                  fresh.integers(10, size=3, dtype=np.int32))
            assert _bit_state(gen) == _bit_state(fresh)


@pytest.mark.parametrize("per_stream", [1, 3])
@pytest.mark.parametrize("init", [
    InitialLaw.point_mass([0.3, -1.2]),
    InitialLaw.gaussian([0.5, -1.0], [[1.0, 0.3], [0.3, 0.5]]),
    InitialLaw.empirical([[-1.0, 0.5], [0.0, 2.0], [0.25, -3.0]]),
], ids=["point", "gaussian", "empirical"])
def test_stream_inputs_match_fresh_streams(init, per_stream):
    # stream j draws its start states, then its increments, from a fresh
    # path_generator(seed, j); its paths are consecutive rows of out, here
    # a column range of a wider buffer
    streams, steps, d = range(2, 7), 4, init.dim
    n = len(streams) * per_stream
    for seed in (5, 2 ** 63 + 4097, 2 ** 64 - 1, -3):
        buf = np.full((steps + 1, n + 3, d), np.nan)
        stream_inputs(init, seed, streams, per_stream, buf[:, 1:n + 1])
        x0, z = buf[0, 1:n + 1], buf[1:, 1:n + 1]
        assert np.isnan(buf[:, [0, n + 1, n + 2]]).all()
        for i, j in enumerate(streams):
            gen = path_generator(seed, j)
            rows = slice(i * per_stream, (i + 1) * per_stream)
            assert np.array_equal(x0[rows], init.draw(gen, per_stream))
            assert np.array_equal(
                z[:, rows], gen.standard_normal((steps, per_stream, d)))


def test_every_key_is_the_full_derived_seed():
    # derived seeds on both sides of 2**63 key (seed mod 2**64, j) exactly,
    # through path_generator and the re-keyed streams alike
    derived = [substream_seed(seed, row) for seed in range(40)
               for row in range(4)]
    assert min(derived) < 2 ** 63 <= max(derived)
    streams = range(0, 9, 4)
    for seed in derived + [-5, -2 ** 63]:
        for j, gen in zip(streams, _keyed_streams(seed, streams)):
            want = [seed % 2 ** 64, j]
            assert gen.bit_generator.state["state"]["key"].tolist() == want
            fresh = path_generator(seed, j).bit_generator.state
            assert fresh["state"]["key"].tolist() == want
            assert np.array_equal(gen.standard_normal(3),
                                  path_generator(seed, j).standard_normal(3))


def test_grid_index_of_nearest_point():
    grid = TimeGrid.uniform(1.0, 100)
    above = 3 * 0.1 / 10  # 0.030000000000000006, 7e-18 above points[3]
    assert above > grid.points[3]
    assert grid.index_of(above) == 3
    assert grid.index_of(0.03 - 5e-13) == 3
    assert grid.index_of(0.0) == 0
    assert grid.index_of(1.0) == 100
    for bad in (0.03 + 1e-9, -1e-9, 1.0 + 1e-9, math.nan):
        with pytest.raises(ArgumentError):
            grid.index_of(bad)


# ---------------------------------------------------------------------------
# sampling


def test_sample_paths_rejects_empty():
    grid = TimeGrid.uniform(1.0, 10)
    with pytest.raises(ArgumentError):
        sample_paths(make_model("brownian", {}),
                     InitialLaw.point_mass([0.0]), grid, 0, 0)


@pytest.mark.parametrize("n", [True, 3.0, np.float64(3.0), "3"])
def test_sample_paths_rejects_a_non_integer_count(n):
    grid = TimeGrid.uniform(1.0, 10)
    with pytest.raises(ArgumentError, match="^n must be a positive integer"):
        sample_paths(make_model("brownian", {}),
                     InitialLaw.point_mass([0.0]), grid, n, 0)


def test_sample_paths_accepts_a_numpy_integer_count():
    grid = TimeGrid.uniform(1.0, 10)
    init = InitialLaw.point_mass([0.0])
    spec = make_model("brownian", {})
    assert np.array_equal(
        sample_paths(spec, init, grid, np.int64(3), 0).states,
        sample_paths(spec, init, grid, 3, 0).states)


def test_bm_mean_clt_bound():
    grid = TimeGrid.uniform(1.0, 100)
    ens = sample_paths(make_model("brownian", {}),
                       InitialLaw.point_mass([0.0]), grid, 10_000, 0)
    assert abs(ens.states[:, -1, 0].mean()) < 4.0 / math.sqrt(10_000)


def test_ou_terminal_variance():
    grid = TimeGrid.uniform(1.0, 400)
    ens = sample_paths(make_model("ou", {"gamma": 1.0}),
                       InitialLaw.point_mass([0.0]), grid, 8000, 1)
    v = ens.states[:, -1, 0].var(ddof=1)
    se = OU_VAR_T1 * math.sqrt(2.0 / 7999)
    assert abs(v - OU_VAR_T1) < 5 * se


def test_bm_marginal_moments():
    # Euler is exact for constant coefficients; only MC error remains
    grid = TimeGrid.uniform(2.0, 64)
    x0 = np.array([1.5, -0.5])
    ens = sample_paths(make_model("brownian",
                                  {"a": [[1.0, 0.0], [0.0, 1.0]]}, dim=2),
                       InitialLaw.point_mass(x0), grid, 6000, 2)
    xt = ens.states[:, -1]
    se_mean = math.sqrt(2.0 / 6000)
    assert np.all(np.abs(xt.mean(axis=0) - x0) < 5 * se_mean)
    cov = np.cov(xt.T)
    se_var = 2.0 * math.sqrt(2.0 / 5999)
    assert np.all(np.abs(np.diag(cov) - 2.0) < 5 * se_var)


def test_reproducible_across_threads():
    grid = TimeGrid.uniform(1.0, 50)
    spec = make_model("ou", {"gamma": 1.0})
    init = InitialLaw.gaussian([0.0], [[1.0]])
    a = sample_paths(spec, init, grid, 64, 9, threads=1)
    b = sample_paths(spec, init, grid, 64, 9, threads=4)
    assert np.array_equal(a.states, b.states)


def test_seed_changes_paths():
    grid = TimeGrid.uniform(1.0, 20)
    spec = make_model("brownian", {})
    init = InitialLaw.point_mass([0.0])
    a = sample_paths(spec, init, grid, 8, 0)
    b = sample_paths(spec, init, grid, 8, 1)
    assert not np.array_equal(a.states, b.states)


@pytest.mark.parametrize("init", [
    InitialLaw.point_mass([0.0]),
    InitialLaw.gaussian([0.5, -1.0], [[1.0, 0.3], [0.3, 0.5]]),
    InitialLaw.empirical([[-1.0], [0.0], [0.25], [2.0]]),
], ids=["point", "gaussian-2d", "empirical"])
def test_path_count_independence(init):
    # path i depends only on (seed, i), not on how many paths were asked for
    grid = TimeGrid.uniform(1.0, 20)
    spec = make_model("brownian", {}, dim=init.dim)
    small = sample_paths(spec, init, grid, 4, 5)
    large = sample_paths(spec, init, grid, 16, 5)
    assert np.array_equal(small.states, large.states[:4])


def test_sample_paths_across_block_boundaries():
    # a full constant matrix, so each block's noise is one matrix product;
    # a short grid, so a block holds more than BLOCK_PATHS paths
    spec = make_model("linear", {"A": [[-1.0, 0.5], [0.2, -0.3]],
                                 "a": [[1.0, 0.3], [0.3, 0.5]]}, dim=2)
    init = InitialLaw.gaussian([0.5, -1.0], [[1.0, 0.3], [0.3, 0.5]])
    steps = 128
    grid = TimeGrid.uniform(1.0, steps)
    block = max(BLOCK_PATHS, BLOCK_ELEMENTS // (steps * 2))
    assert block > BLOCK_PATHS
    n = 2 * block + 7
    full = sample_paths(spec, init, grid, n, 4)
    assert full.states.shape == (n, steps + 1, 2)
    for k in range(steps + 1):
        assert full.states[:, k].flags.c_contiguous
    for k in (5, block, block + 6):
        assert np.array_equal(sample_paths(spec, init, grid, k, 4).states,
                              full.states[:k])
    # thread ranges do not start at block boundaries
    threaded = sample_paths(spec, init, grid, n, 4, threads=3)
    assert np.array_equal(threaded.states, full.states)


def _state_dependent_2d():
    """A d = 2 law whose diffusion matrix moves with the state."""
    def diffusion(t, x):
        a = np.empty(x.shape[:-1] + (2, 2))
        a[..., 0, 0] = 1.0 + 0.5 * np.sin(x[..., 0])
        a[..., 1, 1] = 1.0 + 0.3 * np.cos(x[..., 1] + t)
        a[..., 0, 1] = a[..., 1, 0] = 0.2 * np.tanh(x[..., 0] * x[..., 1])
        return a
    return DiffusionSpec(dim=2, drift=lambda t, x: -0.5 * x,
                         diffusion_matrix=diffusion)


STRIDED_LAWS = {
    "sine-1d": (make_model("sine_diffusion", {"amplitude": 0.5}),
                InitialLaw.gaussian([0.2], [[0.5]])),
    "linear-2d": (make_model("linear", {"A": [[-1.0, 0.5], [0.2, -0.3]],
                                        "a": [[1.0, 0.3], [0.3, 0.5]]},
                             dim=2),
                  InitialLaw.gaussian([0.5, -1.0], [[1.0, 0.3], [0.3, 0.5]])),
    "state-2d": (_state_dependent_2d(), InitialLaw.point_mass([0.1, -0.2])),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("law", STRIDED_LAWS)
def test_strided_paths_are_rows_of_the_full_run(law, threads, monkeypatch):
    # path i is stream (seed, i) whatever else is sampled: the paths 0, s,
    # 2s, ... < n are states[::s] of the full run. Draw blocks of 8 paths,
    # so both runs span several blocks and thread ranges
    monkeypatch.setattr(pathkl.diffusion, "BLOCK_PATHS", 8)
    monkeypatch.setattr(pathkl.diffusion, "BLOCK_ELEMENTS", 8)
    spec, init = STRIDED_LAWS[law]
    grid, n = TimeGrid.uniform(1.0, 24), 61
    full = sample_paths(spec, init, grid, n, 3, threads=1)
    for stride in (1, 2, 3, 7, 60, 61, 100):
        strided = sample_paths(spec, init, grid, n, 3, threads=threads,
                               stride=stride)
        assert strided.states.shape == (len(range(0, n, stride)), 25,
                                        spec.dim)
        assert np.array_equal(strided.states, full.states[::stride]), stride


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("law", STRIDED_LAWS)
def test_path_blocks_are_rows_of_the_full_run(law, threads, monkeypatch):
    # paths first, first + s, ... < n are states[first:n:s] of the run of
    # paths 0 to n - 1, across draw blocks of 8 paths and thread ranges
    # (blocks of two paths or more: in d >= 2 a lone path's matrix
    # products go through gemv, and path_blocks never leaves one alone)
    monkeypatch.setattr(pathkl.diffusion, "BLOCK_PATHS", 8)
    monkeypatch.setattr(pathkl.diffusion, "BLOCK_ELEMENTS", 8)
    spec, init = STRIDED_LAWS[law]
    grid, n = TimeGrid.uniform(1.0, 24), 61
    full = sample_paths(spec, init, grid, n, 3, threads=1)
    buffer = np.full(n * 25 * spec.dim, np.nan)
    source = cli._SampledPaths(spec, init, grid, n, 3, threads)
    for first, hi, stride in [(0, 8, 1), (1, 9, 1), (7, 61, 1), (8, 16, 1),
                              (33, 61, 1), (59, 61, 1), (5, 40, 3),
                              (46, 61, 7)]:
        block = sample_paths(spec, init, grid, hi, 3, threads=threads,
                             stride=stride, first=first)
        assert np.array_equal(block.states,
                              full.states[first:hi:stride]), (first, hi)
        # and sampled into a buffer that a previous block filled
        block = sample_paths(spec, init, grid, hi, 3, threads=threads,
                             stride=stride, first=first, out=buffer)
        assert np.shares_memory(block.states, buffer)
        assert np.array_equal(block.states,
                              full.states[first:hi:stride]), (first, hi)
        assert np.array_equal(full.block(first, hi).states,
                              full.states[first:hi])
        # and read as a block of a path source, held or sampled
        for got in (full.block(first, hi, stride),
                    source.block(first, hi, stride)):
            assert np.array_equal(got.states,
                                  full.states[first:hi:stride]), (first, hi)


def test_a_one_path_run_is_path_zero_of_a_larger_run():
    # in d >= 2 a one-row matrix product goes through gemv, which rounds
    # otherwise than the same row of a larger product; the sampler steps a
    # lone path beside a copy of itself, and PairCoefficients evaluates one
    # beside a copy too, so the "first k paths" rule holds for k = 1: for
    # the sampled paths, girsanov's per-path energies and the chain's
    # per-path interval terms
    spec, init = STRIDED_LAWS["linear-2d"]
    spec_p = make_model("linear", {"A": [[-0.5, 0.1], [0.0, -0.2]],
                                   "a": [[1.0, 0.3], [0.3, 0.5]]}, dim=2)
    grid = TimeGrid.uniform(1.0, 128)
    for seed in range(60):
        one = sample_paths(spec, init, grid, 1, seed)
        many = sample_paths(spec, init, grid, 50, seed)
        assert np.array_equal(one.states, many.states[:1]), seed
        energies = [girsanov._drift_gap_energy(spec, spec_p, ens)
                    for ens in (one, many)]
        assert energies[0].tobytes() == energies[1][:1].tobytes(), seed
        pairs = [PairCoefficients(spec, spec_p, ens) for ens in (one, many)]
        for k in range(grid.n_steps):
            dt = float(grid.points[k + 1] - grid.points[k])
            terms = [_interval_kls(pair.interval_parts(k), dt)
                     for pair in pairs]
            assert terms[0].tobytes() == terms[1][:1].tobytes(), (seed, k)


def test_sampler_calls_the_model_once_per_step():
    # 1024 steps make draw blocks of BLOCK_PATHS paths; 1030 paths are drawn
    # in two blocks and stepped in one pass
    steps, n = 1024, 1030
    assert max(BLOCK_PATHS, BLOCK_ELEMENTS // steps) < n
    spec = make_model("sine_diffusion", {"amplitude": 0.5})
    calls = {"drift": 0, "diffusion_matrix": 0}

    def counted(name):
        original = getattr(spec, name)

        def call(t, x):
            calls[name] += 1
            return original(t, x)
        return call

    spec = dataclasses.replace(spec, **{name: counted(name) for name in calls})
    sample_paths(spec, InitialLaw.point_mass([0.0]),
                 TimeGrid.uniform(1.0, steps), n, 0, threads=1)
    assert calls == {"drift": steps, "diffusion_matrix": steps}


@pytest.mark.parametrize("model", ["ou", "sine_diffusion"])
def test_sampler_holds_one_draw_block_beside_the_ensemble(model):
    # 128 steps make draw blocks of BLOCK_ELEMENTS // 128 paths, and n spans
    # two: beyond the ensemble the sampler holds one block's draw scratch,
    # then a few rows of n states for the Euler pass
    steps = 128
    n = 2 * (BLOCK_ELEMENTS // steps)
    spec, grid = make_model(model, {}), TimeGrid.uniform(1.0, steps)
    init = InitialLaw.gaussian([0.0], [[1.0]])
    # a first call makes the process's one-time allocations (about 1 MiB)
    sample_paths(spec, init, grid, 2, 0)
    tracemalloc.start()
    try:
        ens = sample_paths(spec, init, grid, n, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    bound = ens.states.nbytes + 8 * BLOCK_ELEMENTS + 8 * (8 * n)
    assert peak < bound, (peak, bound)


@pytest.mark.parametrize("bad, error", [
    (-1.0, PositiveDefinitenessError),
    (np.nan, ModelEvaluationError),
], ids=["refused", "nan"])
def test_sampler_error_names_the_earliest_time_over_draw_blocks(bad, error):
    # a(t, x) is bad where |x| > 2; with seed 4 a path of the second draw
    # block leaves [-2, 2] before any path of the first does, and the one
    # Euler pass over both names that earlier time
    steps, seed = 512, 4
    block = BLOCK_ELEMENTS // steps
    grid = TimeGrid.uniform(1.0, steps)
    init = InitialLaw.point_mass([0.0])

    def model(bound):
        def diffusion(t, x):
            a = np.ones(x.shape[:-1] + (1, 1))
            a[np.abs(x[..., 0]) > bound] = bad
            return a
        return DiffusionSpec(dim=1, drift=lambda t, x: np.zeros_like(x),
                             diffusion_matrix=diffusion)

    # the states a(t, x) is asked at, up to the first bad one
    states = sample_paths(model(np.inf), init, grid, 2 * block,
                          seed).states[:, :-1, 0]
    outside = np.abs(states) > 2.0
    first = [int(np.argmax(outside[rows].any(axis=0)))
             for rows in (slice(0, block), slice(block, None))]
    assert outside[:block].any() and 0 < first[1] < first[0]
    when = re.escape(f"at t = {grid.points[first[1]]:g}")
    with pytest.raises(error, match=when + "( |$)"):
        sample_paths(model(2.0), init, grid, 2 * block, seed, threads=1)


def _matmul_euler(spec, grid, x0, z):
    """The Euler loop with a constant factor, noise by the matmul form."""
    chol = spec.constant_factor
    x, out = x0.copy(), [x0]
    for k in range(grid.n_steps):
        t = float(grid.points[k])
        dt = float(grid.points[k + 1]) - t
        x = x + spec.drift(t, x) * dt + (z[k] @ chol.T) * math.sqrt(dt)
        out.append(x)
    return np.stack(out)


@pytest.mark.parametrize("a", [1.0, 0.25, 3.7, 1e-300])
def test_one_dimensional_constant_noise_matches_matmul(a):
    # signed zeros, subnormals and 1e300-scale draws; with the drift b = x
    # and x0 = -0.0, x + step is -0.0, so a zero product's sign reaches the
    # state: matmul sums it from +0.0
    specials = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e-300,
                1e300, -1e300, 1.0]
    m, n = 6, 64
    z = np.random.default_rng(3).standard_normal((m, n, 1))
    z[:, :len(specials), 0] = specials
    x0 = np.full((n, 1), -0.0)
    spec = DiffusionSpec(dim=1, drift=lambda t, x: x,
                         diffusion_matrix=lambda t, x: np.full(
                             x.shape[:-1] + (1, 1), a),
                         constant_matrix=np.array([[a]]))
    grid = TimeGrid.uniform(1.0, m)
    out = np.concatenate([x0[None], z])
    euler_maruyama(spec, grid, out)
    want = _matmul_euler(spec, grid, x0, z)
    assert out.tobytes() == want.tobytes()


def test_state_dependent_diffusion_paths():
    grid = TimeGrid.uniform(1.0, 50)
    spec = make_model("sine_diffusion", {"a": 1.0, "amplitude": 0.5})
    ens = sample_paths(spec, InitialLaw.point_mass([0.0]), grid, 32, 0)
    assert np.isfinite(ens.states).all()


# ---------------------------------------------------------------------------
# each diffusion matrix is checked once and factored at most once


def test_state_dependent_2d_sampler_factors_each_step_once(linalg_calls):
    # the PD rule's Cholesky factor is the step's noise factor; 512 steps
    # make draw blocks of BLOCK_PATHS paths, so 1030 paths are drawn in two
    # blocks and stepped in one pass
    spec = dataclasses.replace(
        make_model("brownian", {"a": [[1.0, 0.3], [0.3, 0.5]]}, dim=2),
        constant_matrix=None)
    steps = 512
    assert BLOCK_ELEMENTS // (steps * 2) <= BLOCK_PATHS < 1030
    sample_paths(spec, InitialLaw.point_mass([0.0, 0.0]),
                 TimeGrid.uniform(1.0, steps), 1030, 0)
    assert linalg_calls["cholesky"] == steps


def test_constant_factor_factors_once(linalg_calls):
    spec = make_model("brownian", {"a": [[1.0, 0.3], [0.3, 0.5]]}, dim=2)
    factor = spec.constant_factor
    assert linalg_calls["cholesky"] == 1
    assert np.array_equal(factor, np.linalg.cholesky(spec.constant_matrix))
    # in d = 1 the rule does not factor: the factor is the square root,
    # with the bits of the 1 x 1 Cholesky
    for value in _entries(400, 5):
        if np.isfinite(value):
            spec = make_model("brownian", {"a": value})
            calls = linalg_calls["cholesky"]
            factor = spec.constant_factor
            assert linalg_calls["cholesky"] == calls
            assert (factor.tobytes()
                    == np.linalg.cholesky(spec.constant_matrix).tobytes())


def test_interval_parts_asks_the_pd_rule_once_per_matrix(monkeypatch):
    # a and c are checked where matrix_at reads them, and variance_part
    # takes them as checked
    spec_p = make_model("sine_diffusion", {"a": 1.0, "amplitude": 0.5})
    spec_mu = dataclasses.replace(spec_p, drift=lambda t, x: -x)
    grid = TimeGrid.uniform(1.0, 8)
    pair = PairCoefficients(spec_mu, spec_p, sample_paths(
        spec_mu, InitialLaw.point_mass([0.0]), grid, 16, 0))
    asked = []
    check = pathkl.diffusion.check_positive_definite
    monkeypatch.setattr(pathkl.diffusion, "check_positive_definite",
                        lambda a, what: asked.append(what) or check(a, what))
    for k in range(grid.n_steps):
        pair.interval_parts(k)
    assert len(asked) == 2 * grid.n_steps


# ---------------------------------------------------------------------------
# 1 x 1 diffusion matrices: closed forms with LAPACK's bits

# positives over the whole float range, subnormals, 1e300, +inf and NaN
SPECIAL_ENTRIES = [1e-320, 5e-324, 1e-300, 1e300, 1.7e308, np.inf, np.nan,
                   1.0, 2.0, 0.5]
NONPOSITIVE_ENTRIES = [0.0, -0.0, -1.0, -1e-320, -np.inf]


def _entries(size, seed):
    """size diagonal entries: the special values, then random positives.
    Entries near 1 are where np.log's vector loop and libm's log most often
    differ in the last bit."""
    rng = np.random.default_rng(seed)
    draws = np.concatenate([rng.uniform(0.5, 2.0, size),
                            rng.lognormal(0.0, 3.0, size),
                            10.0 ** rng.uniform(-320, 300, size)])
    return np.concatenate([SPECIAL_ENTRIES,
                           rng.permutation(draws)])[:size]


def _lapack_variance_part(a, c):
    """tr(a^{-1} c) - d + logdet a - logdet c by slogdet and solve."""
    logdet_a = np.linalg.slogdet(a)[1]
    logdet_c = np.linalg.slogdet(c)[1]
    trace = np.trace(np.linalg.solve(a, c), axis1=-2, axis2=-1)
    return trace - a.shape[-1] + (logdet_a - logdet_c)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("lead", [(), (4000,), (200, 20)],
                         ids=["scalar", "stack", "grid"])
def test_variance_part_1x1_matches_lapack(lead):
    # c / a is LAPACK's 1 x 1 solve; the logs are np.log's, which differ
    # from slogdet's libm log by at most 1 ulp. The scalar case is every
    # pair of special entries, the other cases stacks of random entries
    if lead:
        size = int(np.prod(lead, dtype=int))
        a = _entries(size, 1).reshape(lead + (1, 1))
        c = _entries(size, 2)[::-1].reshape(lead + (1, 1))
    else:
        entries = SPECIAL_ENTRIES + [3.7, 1e-5]
        a, c = (np.array(side).reshape(-1, 1, 1)
                for side in zip(*itertools.product(entries, entries)))
    got = variance_part(a, c)
    assert np.shape(got) == a.shape[:-2]
    # (i) each pair alone gives the bits it has in the stack
    alone = [variance_part(x, y) for x, y in
             zip(a.reshape(-1, 1, 1), c.reshape(-1, 1, 1))]
    assert all(np.shape(value) == () for value in alone)
    assert np.array_equal(got.reshape(-1), alone, equal_nan=True)
    # (ii) each log is within 1 ulp of slogdet's, so the result is within
    # the rounding those ulps can reach of the LAPACK formula
    x = np.concatenate([a.reshape(-1), c.reshape(-1)])
    lapack_log = np.linalg.slogdet(x[:, None, None])[1]
    finite = np.isfinite(lapack_log)
    assert np.all(np.abs(np.log(x) - lapack_log)[finite]
                  <= np.spacing(np.abs(lapack_log))[finite])
    assert np.array_equal(np.log(x)[~finite], lapack_log[~finite],
                          equal_nan=True)
    want = _lapack_variance_part(a, c)
    log_a, log_c = np.linalg.slogdet(a)[1], np.linalg.slogdet(c)[1]
    ulps = (np.spacing(np.abs(log_a)) + np.spacing(np.abs(log_c))
            + 2 * np.spacing(np.abs(log_a - log_c))
            + 2 * np.spacing(np.abs(want)))
    close = np.isfinite(want)
    assert np.all(np.abs(got - want)[close] <= ulps[close])
    assert np.array_equal(got[~close], want[~close], equal_nan=True)
    if not lead:
        # on the special entries np.log and libm agree: a constant pair of
        # them keeps the bits it had with math.log
        assert np.array_equal(got, want, equal_nan=True)
    # (iii) a NaN entry passes through, as with slogdet
    nan = np.isnan(a[..., 0, 0]) | np.isnan(c[..., 0, 0])
    assert nan.any() and np.isnan(got[nan]).all()


@pytest.mark.filterwarnings("ignore:invalid value encountered in slogdet")
@pytest.mark.parametrize("bad", NONPOSITIVE_ENTRIES)
@pytest.mark.parametrize("side", ["reference", "ensemble"])
def test_variance_part_1x1_raises_as_slogdet(bad, side):
    # variance_part takes matrices that passed the PD rule, which refuses
    # a 1 x 1 entry exactly where slogdet's sign is <= 0; the interval's
    # variance part raises on either side of the pair
    for entry in SPECIAL_ENTRIES + NONPOSITIVE_ENTRIES:
        matrix = np.array([[entry]])
        assert positive_definite(matrix) == (
            not np.linalg.slogdet(matrix)[0] <= 0)
    good = np.full((4, 1, 1), 2.0)
    worse = good.copy()
    worse[2, 0, 0] = bad
    a, c = (worse, good) if side == "reference" else (good, worse)
    assert np.linalg.slogdet(worse)[0][2] <= 0
    assert not positive_definite(worse)
    with pytest.raises(PositiveDefinitenessError, match=r"t = 0\.5"):
        _drift_gap_pair(np.ones((4, 1)), a, c).interval_parts(1)


def _drift_gap_pair(gaps, a=None, c=None):
    """PairCoefficients whose drift gap is the fixed array gaps (n, 1) and
    whose diffusions are the fixed arrays a (P's) and c (mu's) of shape
    (n, 1, 1), or ones; an a of shape (1, 1) is P's constant matrix."""
    def fixed(value):
        if value is None:
            return lambda t, x: np.ones(x.shape[:-1] + (1, 1))
        return lambda t, x: value

    n = gaps.shape[0]
    grid = TimeGrid.uniform(1.0, 2)
    ens = PathEnsemble(grid=grid, states=np.zeros((n, 3, 1)), seed=0)
    spec_mu = DiffusionSpec(dim=1, drift=lambda t, x: gaps,
                            diffusion_matrix=fixed(c))
    spec_P = DiffusionSpec(dim=1, drift=lambda t, x: np.zeros_like(x),
                           diffusion_matrix=fixed(a),
                           constant_matrix=a if np.ndim(a) == 2 else None)
    return PairCoefficients(spec_mu, spec_P, ens)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_drift_quad_1x1_matches_solve():
    n = 4000
    rng = np.random.default_rng(3)
    gaps = (rng.normal(size=(n, 1))
            * 10.0 ** rng.uniform(-160, 160, size=(n, 1)))
    gaps[:4, 0] = [0.0, np.inf, np.nan, 1e-320]
    a = _entries(n, 4).reshape(n, 1, 1)
    # a passed-in a keeps its NaN and inf rows, which matrix_at refuses
    got = _drift_gap_pair(gaps).drift_quad(1, a)
    want = np.einsum("nd,nd->n", gaps,
                     np.linalg.solve(a, gaps[..., None])[..., 0])
    assert np.array_equal(got, want, equal_nan=True)
    finite = np.isfinite(a[:, 0, 0])
    assert np.array_equal(
        _drift_gap_pair(gaps[finite], a[finite]).drift_quad(1), got[finite],
        equal_nan=True)
    # a constant reference applies its inverse with matmul's bits, signed
    # zeros, subnormals, overflow, inf and NaN included
    gaps = np.concatenate([[0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310,
                            1e300, -1e300, np.inf, -np.inf, np.nan],
                           gaps[:, 0]])[:, None]
    for value in [1.0, 0.3, 2.7, 1e-5, 7.1e3]:
        a = np.array([[value]])
        want = np.einsum("nd,nd->n", gaps, gaps @ np.linalg.inv(a).T)
        got = _drift_gap_pair(gaps, a).drift_quad(1)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", NONPOSITIVE_ENTRIES)
def test_drift_quad_1x1_nonpositive_reference_raises(bad):
    # the PD rule refuses what solve refuses (a zero) and what it would
    # divide by (a negative entry) in the a that drift_quad evaluates
    gaps = np.ones((3, 1))
    a = np.ones((3, 1, 1))
    a[1, 0, 0] = bad
    with pytest.raises(PositiveDefinitenessError, match=r"t = 0\.5"):
        _drift_gap_pair(gaps, a).drift_quad(1)


# ---------------------------------------------------------------------------
# one-step law


def test_euler_step_brownian():
    law = euler_step_law(make_model("brownian", {}), 0.0,
                         np.array([0.0]), 0.1)
    np.testing.assert_allclose(law.mean, [0.0])
    np.testing.assert_allclose(law.covariance, [[0.1]])


def test_euler_step_ou():
    law = euler_step_law(make_model("ou", {"gamma": 1.0}), 0.0,
                         np.array([1.0]), 0.1)
    np.testing.assert_allclose(law.mean, [0.9])
    np.testing.assert_allclose(law.covariance, [[0.1]])


def test_euler_step_scaled():
    law = euler_step_law(make_model("brownian", {"a": 2.0}), 0.0,
                         np.array([0.3]), 0.5)
    np.testing.assert_allclose(law.mean, [0.3])
    np.testing.assert_allclose(law.covariance, [[1.0]])


def test_euler_step_rejects_nonpositive_dt():
    with pytest.raises(ArgumentError):
        euler_step_law(make_model("brownian", {}), 0.0, np.array([0.0]), 0.0)


# ---------------------------------------------------------------------------
# catalog


def test_unknown_model():
    with pytest.raises(ArgumentError) as err:
        make_model("levy", {})
    assert "catalog" in str(err.value)


def test_register_model_duplicate():
    with pytest.raises(ArgumentError):
        register_model("brownian", lambda params, dim: None)


def test_make_model_rejects_unknown_params():
    with pytest.raises(ArgumentError, match="gama"):
        make_model("ou", {"gama": 2})
    assert make_model("ou", {"gamma": 2}).params == {"gamma": 2}


@pytest.mark.parametrize("model_id,params,name", [
    ("ou", {"gamma": True}, "gamma"),
    ("ou", {"gamma": "2"}, "gamma"),
    ("ou", {"gamma": [1.0]}, "gamma"),
    ("brownian", {"a": "2"}, "a"),
    ("brownian", {"a": [[1.0], [1.0, 2.0]]}, "a"),
    ("constant_drift", {"theta": None}, "theta"),
    ("constant_drift", {"theta": [1.0, 2.0]}, "theta"),
    ("linear", {"A": [[True]]}, "A"),
    ("sine_diffusion", {"amplitude": "0.5"}, "amplitude"),
], ids=["bool", "string", "list-for-scalar", "string-matrix", "ragged",
        "null", "wrong-length", "bool-entry", "string-amplitude"])
def test_make_model_checks_param_types(model_id, params, name):
    # the bool and the strings used to be cast (gamma = 1, 2; a = 2;
    # amplitude = 0.5), and a list gamma ended in a TypeError
    with pytest.raises(ArgumentError,
                       match=f"model '{model_id}' param '{name}'"):
        make_model(model_id, params)


def test_sine_diffusion_validation():
    with pytest.raises(ArgumentError):
        make_model("sine_diffusion", {"amplitude": 1.0})
    with pytest.raises(ArgumentError):
        make_model("sine_diffusion", {}, dim=2)


def test_linear_model_drift():
    spec = make_model("linear", {"A": [[-1.0]], "b0": [0.5]})
    np.testing.assert_allclose(spec.drift(0.0, np.array([2.0])),
                               np.array([-1.5]))


def test_constant_matrix_stands_in_for_diffusion_matrix():
    # every consumer reads constant_matrix and never evaluates a(t, x): a
    # callable that refuses to run changes no bit of any route
    def refuse(t, x):
        raise AssertionError("diffusion_matrix evaluated")

    mu = make_model("ou", {"gamma": 1.0, "a": 0.7})
    p = make_model("brownian", {"a": 0.7})
    np.testing.assert_array_equal(p.constant_matrix, [[0.7]])
    assert make_model("sine_diffusion", {}).constant_matrix is None
    g_mu = dataclasses.replace(mu, diffusion_matrix=refuse)
    g_p = dataclasses.replace(p, diffusion_matrix=refuse)
    init = InitialLaw.point_mass([0.0])
    grid = TimeGrid.uniform(1.0, 64)
    ens = sample_paths(mu, init, grid, 300, 7)
    assert np.array_equal(sample_paths(g_mu, init, grid, 300, 7).states,
                          ens.states)

    def same(got, want):
        assert (got.value, got.std_error) == (want.value, want.std_error)

    same(girsanov_entropy(g_mu, g_p, init, init, ens),
         girsanov_entropy(mu, p, init, init, ens))
    part = Partition.from_times(grid, [0.0, 0.25, 0.5, 1.0])
    same(chain_estimate(g_mu, g_p, init, init, ens, part).total,
         chain_estimate(mu, p, init, init, ens, part).total)
    for got, want in zip(
            refinement_sweep(g_mu, g_p, init, init,
                             sample_paths(g_mu, init, grid, 300, 7),
                             4).estimates,
            refinement_sweep(mu, p, init, init,
                             sample_paths(mu, init, grid, 300, 7),
                             4).estimates):
        same(got.total, want.total)
    basis = mixed_basis([-3.0], [3.0], 6)
    got = residual_energy_profile(ens, g_p, basis)
    want = residual_energy_profile(ens, p, basis)
    assert np.array_equal(got.values, want.values)
    assert np.array_equal(got.std_errors, want.std_errors)
    assert cramer_rate(g_p, 1.0, 1.0) == cramer_rate(p, 1.0, 1.0)
