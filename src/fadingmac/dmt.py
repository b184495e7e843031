"""Diversity-multiplexing tradeoff curves.

The single-user curve is the classical piecewise-linear interpolation of
(n_t - r)(n_r - r) at integer multiplexing gains.  The symmetric-rate MAC
curve follows the single-user curve up to a threshold and then switches to
an antenna-pooling regime in which the N users act as one N*n_t-antenna
transmitter running N times the per-user multiplexing gain.
"""

import math
from dataclasses import dataclass

from .errors import InvalidParameterError, check_int

_TOL = 1e-12


def single_user_dmt(n_t, n_r, r):
    """Diversity order of an n_t x n_r link at multiplexing gain r.

    Piecewise linear between d(k) = (n_t - k)(n_r - k) at integers k,
    defined for 0 <= r <= min(n_t, n_r).
    """
    n_t, n_r = check_int(n_t, "n_t", 1), check_int(n_r, "n_r", 1)
    rmax = min(n_t, n_r)
    if not (math.isfinite(r) and -_TOL <= r <= rmax + _TOL):
        raise InvalidParameterError(f"multiplexing gain must lie in [0, {rmax}]")
    r = min(max(r, 0.0), float(rmax))
    k = min(int(math.floor(r)), rmax - 1)
    frac = r - k
    d_k = (n_t - k) * (n_r - k)
    d_k1 = (n_t - k - 1) * (n_r - k - 1)
    return d_k + frac * (d_k1 - d_k)


def symmetric_mac_dmt(n_users, n_t, n_r, r):
    """Diversity order of the symmetric rate point of an N-user MAC.

    Below r* = min(n_t, n_r / (N + 1)) each user behaves as if alone;
    above it the bottleneck is the pooled channel of all users, giving
    d of an (N n_t) x n_r link at multiplexing N r.  The two branches agree
    at r*.  Defined for 0 <= r <= min(N n_t, n_r) / N.
    """
    n_users = check_int(n_users, "n_users", 1)
    n_t, n_r = check_int(n_t, "n_t", 1), check_int(n_r, "n_r", 1)
    rmax = min(n_users * n_t, n_r) / n_users
    if not (math.isfinite(r) and -_TOL <= r <= rmax + _TOL):
        raise InvalidParameterError(f"multiplexing gain must lie in [0, {rmax}]")
    r = min(max(r, 0.0), rmax)
    threshold = min(n_t, n_r / (n_users + 1))
    if r <= threshold:
        return single_user_dmt(n_t, n_r, r)
    return single_user_dmt(n_users * n_t, n_r, n_users * r)


@dataclass(frozen=True)
class DmtCurve:
    """Piecewise-linear DMT curve as (r, d) breakpoints."""

    breakpoints: tuple

    def __post_init__(self):
        rs = [p[0] for p in self.breakpoints]
        ds = [p[1] for p in self.breakpoints]
        if len(rs) < 2:
            raise InvalidParameterError("curve needs at least two breakpoints")
        if any(r2 - r1 <= 0 for r1, r2 in zip(rs, rs[1:])):
            raise InvalidParameterError("breakpoint gains must strictly increase")
        if any(d2 - d1 > _TOL for d1, d2 in zip(ds, ds[1:])):
            raise InvalidParameterError("diversity must be non-increasing")

    def evaluate(self, r):
        rs = [p[0] for p in self.breakpoints]
        ds = [p[1] for p in self.breakpoints]
        if not rs[0] <= r <= rs[-1]:
            raise InvalidParameterError("gain outside curve domain")
        for (r1, d1), (r2, d2) in zip(self.breakpoints, self.breakpoints[1:]):
            if r <= r2:
                return d1 + (r - r1) * (d2 - d1) / (r2 - r1)
        return ds[-1]


def symmetric_mac_dmt_curve(n_users, n_t, n_r):
    """Breakpoints of the symmetric-rate MAC DMT over its whole domain."""
    n_users = check_int(n_users, "n_users", 1)
    n_t, n_r = check_int(n_t, "n_t", 1), check_int(n_r, "n_r", 1)
    rmax = min(n_users * n_t, n_r) / n_users
    threshold = min(n_t, n_r / (n_users + 1))
    knots = {0.0, rmax}
    k = 0
    while k <= threshold:
        knots.add(float(k))
        k += 1
    knots.add(threshold)
    m = math.ceil(n_users * threshold)
    while m / n_users <= rmax:
        knots.add(m / n_users)
        m += 1
    rs = sorted(r for r in knots if r <= rmax + _TOL)
    merged = [rs[0]]
    for r in rs[1:]:
        if r - merged[-1] > _TOL:
            merged.append(r)
    points = tuple((r, symmetric_mac_dmt(n_users, n_t, n_r, r)) for r in merged)
    return DmtCurve(points)

