"""The shared parameter validators, one per input rule."""

import math

import numpy as np
import pytest

from fadingmac.bounds import ScenarioDims
from fadingmac.errors import (
    InvalidParameterError,
    check_binomial,
    check_capacity,
    check_choice,
    check_fraction,
    check_gain,
    check_int,
    check_interval,
    check_matrix,
    check_positive,
    check_subset_size,
    check_type,
)
from fadingmac.integer_forcing import EffectiveChannel


@pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3), 3.0, np.float64(3.0)])
def test_check_int_accepts_integral_values_and_returns_python_int(value):
    out = check_int(value, "n")
    assert out == 3 and type(out) is int


@pytest.mark.parametrize("value", [2.5, "3", None, 1 + 0j, math.inf, -math.inf, math.nan])
def test_check_int_rejects_non_integral_values(value):
    with pytest.raises(InvalidParameterError, match="n must be an integer"):
        check_int(value, "n")


def test_check_int_lower_bound_and_message():
    assert check_int(0, "seed", 0) == 0
    with pytest.raises(InvalidParameterError, match="seed must be a non-negative integer"):
        check_int(-1, "seed", 0)
    with pytest.raises(InvalidParameterError, match="trials must be a positive integer"):
        check_int(np.int64(0), "trials", 1)
    with pytest.raises(InvalidParameterError, match="k must be an integer >= 2"):
        check_int(1, "k", 2)


def test_check_positive():
    check_positive(1e-300, "x")
    check_positive(np.float64(2.0), "x")
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(InvalidParameterError, match="x must be positive"):
            check_positive(bad, "x")


@pytest.mark.parametrize("bits", [0.0, 1e-300, 3.0, 10.0, 1023.0, np.float64(1024.0)])
def test_check_gain_is_expm1_of_c_ln2_while_finite(bits):
    assert check_gain(bits, "C") == math.expm1(bits * math.log(2.0))


@pytest.mark.parametrize("bits, message", [
    (1024.5, r"C is too large: 2\*\*C - 1 overflows a float"), (1e6, "too large"),
    (-1.0, "C must be non-negative and finite"), (math.nan, "non-negative and finite"),
    (math.inf, "non-negative and finite")])
def test_check_gain_rejects_capacities_outside_its_domain(bits, message):
    with pytest.raises(InvalidParameterError, match=message):
        check_gain(bits, "C")


def test_check_capacity_has_one_domain_and_one_name():
    assert check_capacity(np.float64(1024.0)) == check_gain(1024.0, "C")
    assert check_capacity(1e-300) == check_gain(1e-300, "C")
    for bits in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(InvalidParameterError, match="^sum capacity must be positive$"):
            check_capacity(bits)
    with pytest.raises(InvalidParameterError, match=r"^sum capacity is too large: 2\*\*C - 1 "
                       r"overflows a float \(got 1024.5\)$"):
        check_capacity(1024.5)


def test_check_binomial_is_the_coefficient_while_it_is_a_float():
    # C(1029, 514) is the largest coefficient below 2^1024 of any n; C(1030, 515)
    # is the first above it.
    assert check_binomial(1029, 514) == float(math.comb(1029, 514))
    assert check_binomial(3000, 2) == 4498500.0
    with pytest.raises(InvalidParameterError, match=r"^binomial coefficient C\(1030, 515\) is "
                       r"too large: it overflows a float \(limit 2\*\*1024\)$"):
        check_binomial(1030, 515)


def test_check_type_and_check_choice_messages():
    check_type(ScenarioDims(2, 1, 1), ScenarioDims, "dims")
    with pytest.raises(InvalidParameterError, match="^dims must be a ScenarioDims$"):
        check_type((2, 1, 1), ScenarioDims, "dims")
    with pytest.raises(InvalidParameterError, match="^eff must be an EffectiveChannel$"):
        check_type(None, EffectiveChannel, "eff")
    check_choice("if", ("if", "if-sic"), "mode")
    with pytest.raises(InvalidParameterError, match="^mode must be 'if' or 'if-sic'$"):
        check_choice("sic", ("if", "if-sic"), "mode")
    with pytest.raises(InvalidParameterError, match="^scheme must be 'ml', 'if' or 'if-sic'$"):
        check_choice(None, ("ml", "if", "if-sic"), "scheme")


def test_range_validators():
    check_fraction(0.01, "p")
    for bad in (0.0, 1.0, -0.5, math.nan):
        with pytest.raises(InvalidParameterError, match=r"p must lie in \(0, 1\)"):
            check_fraction(bad, "p")
    assert check_subset_size(np.int64(3), 3) == 3
    with pytest.raises(InvalidParameterError, match="k must be a positive integer"):
        check_subset_size(0, 3)
    with pytest.raises(InvalidParameterError, match=r"k must lie in \[1, n_users\]"):
        check_subset_size(4, 3)
    assert check_interval(-1e-13, "r", 0, 2, 1e-12) == 0.0
    assert check_interval(2 + 1e-13, "r", 0, 2, 1e-12) == 2.0
    assert type(check_interval(np.float64(0.5), "r", 0, 2, 0.0)) is float
    for bad in (-1e-11, 2.1, math.nan):
        with pytest.raises(InvalidParameterError, match=r"r must lie in \[0, 2\]"):
            check_interval(bad, "r", 0, 2, 1e-12)


def test_check_matrix():
    m = check_matrix([[1, 2], [3, 4]], "m")
    assert m.dtype == complex and m.shape == (2, 2)
    with pytest.raises(InvalidParameterError, match="m must be two-dimensional"):
        check_matrix([1.0, 2.0], "m")
    with pytest.raises(InvalidParameterError, match="m has non-finite entries"):
        check_matrix([[1.0, math.nan]], "m")
