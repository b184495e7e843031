"""Diversity-multiplexing tradeoff curves."""

import numpy as np
import pytest

from fadingmac.dmt import (
    DmtCurve,
    single_user_dmt,
    symmetric_mac_dmt,
    symmetric_mac_dmt_curve,
)
from fadingmac.errors import InvalidParameterError


def test_single_user_integer_points():
    # piecewise-linear curve through (k, (nt-k)(nr-k))
    for nt in range(1, 5):
        for nr in range(1, 5):
            for k in range(min(nt, nr) + 1):
                assert single_user_dmt(nt, nr, float(k)) == (nt - k) * (nr - k)


def test_single_user_midpoint_interpolation():
    # between k=0 and k=1 of a 2x2 the curve drops from 4 to 1
    assert abs(single_user_dmt(2, 2, 0.5) - 2.5) < 1e-12
    assert abs(single_user_dmt(3, 2, 1.5) - 1.0) < 1e-12


def test_single_user_domain():
    with pytest.raises(InvalidParameterError):
        single_user_dmt(2, 2, -0.1)
    with pytest.raises(InvalidParameterError):
        single_user_dmt(2, 2, 2.1)
    assert single_user_dmt(2, 2, 2.0) == 0.0


def test_two_user_scalar_pinned_values():
    assert symmetric_mac_dmt(2, 1, 1, 0.0) == 1.0
    assert abs(symmetric_mac_dmt(2, 1, 1, 1.0 / 3.0) - 2.0 / 3.0) < 1e-12
    assert symmetric_mac_dmt(2, 1, 1, 0.5) == 0.0


def test_branch_values_match_formulas():
    # below the threshold the curve is the single-user tradeoff; above it,
    # the antenna-pooled tradeoff at the scaled gain
    n, nt, nr = 2, 2, 3
    thr = min(nt, nr / (n + 1))
    for r in np.linspace(0.0, thr, 7):
        assert abs(symmetric_mac_dmt(n, nt, nr, float(r))
                   - single_user_dmt(nt, nr, float(r))) < 1e-12
    rmax = min(n * nt, nr) / n
    for r in np.linspace(thr, rmax, 7):
        assert abs(symmetric_mac_dmt(n, nt, nr, float(r))
                   - single_user_dmt(n * nt, nr, n * float(r))) < 1e-12


def test_continuity_at_branch_point():
    for n in range(2, 7):
        for nt in range(1, 5):
            for nr in range(1, 5):
                thr = min(nt, nr / (n + 1))
                rmax = min(n * nt, nr) / n
                if thr <= 0 or thr > rmax:
                    continue
                left = single_user_dmt(nt, nr, thr)
                right = single_user_dmt(n * nt, nr, min(n * thr, float(min(n * nt, nr))))
                assert abs(left - right) < 1e-12


def test_curve_non_increasing_everywhere():
    for n in (2, 3, 4, 6):
        for nt in (1, 2, 4):
            for nr in (1, 3, 4):
                rmax = min(n * nt, nr) / n
                grid = np.linspace(0.0, rmax, 101)
                vals = [symmetric_mac_dmt(n, nt, nr, float(r)) for r in grid]
                assert all(v2 <= v1 + 1e-12 for v1, v2 in zip(vals, vals[1:]))
                assert abs(vals[0] - nt * nr) < 1e-12
                assert abs(vals[-1]) < 1e-12


def test_curve_breakpoints_evaluate_consistently():
    for (n, nt, nr) in ((2, 1, 1), (2, 2, 3), (3, 2, 4), (4, 1, 3)):
        curve = symmetric_mac_dmt_curve(n, nt, nr)
        rs = [p[0] for p in curve.breakpoints]
        assert rs[0] == 0.0
        assert abs(rs[-1] - min(n * nt, nr) / n) < 1e-12
        for r in np.linspace(0.0, rs[-1], 41):
            assert abs(curve.evaluate(float(r))
                       - symmetric_mac_dmt(n, nt, nr, float(r))) < 1e-12


def test_two_user_scalar_curve_is_two_segments():
    curve = symmetric_mac_dmt_curve(2, 1, 1)
    expected = ((0.0, 1.0), (1.0 / 3.0, 2.0 / 3.0), (0.5, 0.0))
    assert len(curve.breakpoints) == len(expected)
    for (r, d), (er, ed) in zip(curve.breakpoints, expected):
        assert abs(r - er) < 1e-15
        assert abs(d - ed) < 1e-15


def test_curve_type_validation():
    with pytest.raises(InvalidParameterError):
        DmtCurve(((0.0, 1.0),))
    with pytest.raises(InvalidParameterError):
        DmtCurve(((0.0, 1.0), (0.0, 0.5)))
    with pytest.raises(InvalidParameterError):
        DmtCurve(((0.0, 0.5), (1.0, 1.0)))
    curve = DmtCurve(((0.0, 2.0), (1.0, 0.0)))
    with pytest.raises(InvalidParameterError):
        curve.evaluate(1.5)


def test_dmt_rejects_bad_dimensions():
    with pytest.raises(InvalidParameterError):
        symmetric_mac_dmt(0, 1, 1, 0.0)
    with pytest.raises(InvalidParameterError):
        symmetric_mac_dmt(2, 0, 1, 0.0)
    with pytest.raises(InvalidParameterError):
        single_user_dmt(0, 1, 0.0)


def test_single_user_case_degenerates():
    # With one transmitter the network tradeoff is the point-to-point one.
    for r in (0.0, 0.25, 0.5, 0.9):
        assert abs(symmetric_mac_dmt(1, 1, 1, r) - single_user_dmt(1, 1, r)) < 1e-15
        assert abs(symmetric_mac_dmt(1, 2, 3, 2 * r) - single_user_dmt(2, 3, 2 * r)) < 1e-15


def test_numpy_integer_counts_are_accepted():
    assert symmetric_mac_dmt(np.int64(2), 2, 3, 0.0) == 6.0
    assert single_user_dmt(np.int64(2), np.int32(3), 1.0) == single_user_dmt(2, 3, 1.0)
    curve = symmetric_mac_dmt_curve(np.int64(2), np.int64(1), np.int64(1))
    assert curve.breakpoints == symmetric_mac_dmt_curve(2, 1, 1).breakpoints
