"""The shared parameter validators: one integer rule and one positivity rule."""

import math

import numpy as np
import pytest

from fadingmac.errors import InvalidParameterError, check_int, check_positive


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
