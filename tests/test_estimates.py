"""The rule that joins the initial-law term to a route's path terms, and the
per-path mean and standard error every path-space route reports."""

import math

import numpy as np
import pytest

from pathkl import EntropyEstimate
from pathkl.estimates import path_mean_and_se, path_space_estimate


def _initial(value, std_error=0.0):
    return EntropyEstimate(value, std_error, "initial")


def test_terms_are_summed_left_to_right_from_the_initial_value():
    # 1 + 1e16 rounds to 1e16, so this order loses the first 1 (fsum keeps
    # it); the chain's total is this exact sum of its reported parts
    est = path_space_estimate(_initial(1.0), [1e16, -1e16, 1.0], 0.0,
                              "test", {})
    assert est.value == ((1.0 + 1e16) + -1e16) + 1.0 == 1.0
    assert math.fsum([1.0, 1e16, -1e16, 1.0]) == 2.0


def test_a_negative_total_is_clamped_and_kept():
    diagnostics = {"n_paths": 3}
    est = path_space_estimate(_initial(0.0), [-1e-12], 0.1, "test",
                              diagnostics)
    assert est.value == 0.0
    assert est.diagnostics is diagnostics
    assert diagnostics == {"n_paths": 3, "clamped_from": -1e-12}


def test_an_unclamped_total_has_no_clamp_key():
    est = path_space_estimate(_initial(0.25), [0.5], 0.0, "test", {})
    assert est.value == 0.75
    assert est.diagnostics == {}


def test_standard_errors_combine_by_hypot():
    # sqrt(a**2 + b**2) is one ulp lower on this pair
    est = path_space_estimate(_initial(0.1, 0.438), [0.2], 0.496, "test", {})
    assert est.std_error == math.hypot(0.438, 0.496) == 0.6617099062277971
    assert math.sqrt(0.438 ** 2 + 0.496 ** 2) != est.std_error
    est = path_space_estimate(_initial(0.1), [0.2], 0.3, "test", {})
    assert est.std_error == 0.3


def test_an_infinite_initial_term_makes_the_estimate_infinite():
    est = path_space_estimate(_initial(math.inf), [0.2, 0.3], 0.7, "route",
                              {"n_paths": 5})
    assert est.value == math.inf and est.std_error == 0.0
    assert est.method == "route"
    assert est.diagnostics == {"n_paths": 5,
                               "reason": "singular initial laws"}


def test_path_mean_and_se_per_path_values():
    values = np.array([0.1, 0.4, 0.25, 0.9])
    mean, se = path_mean_and_se(values)
    assert type(mean) is float and type(se) is float
    assert mean == values.mean()
    assert se == values.std(ddof=1) / math.sqrt(4)
    assert path_mean_and_se(values[:1]) == (0.1, 0.0)


def test_path_mean_and_se_per_column():
    values = np.array([[0.1, 1.0], [0.4, 3.0], [0.3, 2.0]])
    means, ses = path_mean_and_se(values)
    assert means == values.mean(axis=0).tolist()
    assert ses == (values.std(axis=0, ddof=1) / math.sqrt(3)).tolist()
    assert path_mean_and_se(values[:1]) == ([0.1, 1.0], [0.0, 0.0])


def test_a_nan_term_is_refused():
    # the clamp covers a total below 0, never a NaN
    with pytest.raises(ValueError, match="is NaN"):
        path_space_estimate(_initial(0.0), [math.nan], 0.0, "test", {})
