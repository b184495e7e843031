"""Diversity-multiplexing tradeoff curves.

The single-user curve is the classical piecewise-linear interpolation of
(n_t - r)(n_r - r) at integer multiplexing gains.  The symmetric-rate MAC
curve follows the single-user curve up to a threshold and then switches to
an antenna-pooling regime in which the N users act as one N*n_t-antenna
transmitter running N times the per-user multiplexing gain.
"""

import math

from .errors import check_int, check_interval

_TOL = 1e-12


def single_user_dmt(n_t, n_r, r):
    """Diversity order of an n_t x n_r link at multiplexing gain r.

    Piecewise linear between d(k) = (n_t - k)(n_r - k) at integers k,
    defined for 0 <= r <= min(n_t, n_r).
    """
    n_t, n_r = check_int(n_t, "n_t", 1), check_int(n_r, "n_r", 1)
    rmax = min(n_t, n_r)
    r = check_interval(r, "multiplexing gain", 0, rmax, _TOL)
    k = min(int(math.floor(r)), rmax - 1)
    frac = r - k
    d_k = (n_t - k) * (n_r - k)
    d_k1 = (n_t - k - 1) * (n_r - k - 1)
    return d_k + frac * (d_k1 - d_k)


def _mac_domain(n_users, n_t, n_r):
    """The checked counts, the branch point r* and the largest total
    multiplexing gain N rmax of the symmetric MAC tradeoff."""
    n_users = check_int(n_users, "n_users", 1)
    n_t, n_r = check_int(n_t, "n_t", 1), check_int(n_r, "n_r", 1)
    return n_users, n_t, n_r, min(n_t, n_r / (n_users + 1)), min(n_users * n_t, n_r)


def symmetric_mac_dmt(n_users, n_t, n_r, r):
    """Diversity order of the symmetric rate point of an N-user MAC.

    Below r* = min(n_t, n_r / (N + 1)) each user behaves as if alone;
    above it the bottleneck is the pooled channel of all users, giving
    d of an (N n_t) x n_r link at multiplexing N r.  The two branches agree
    at r*.  Defined for 0 <= r <= min(N n_t, n_r) / N.
    """
    n_users, n_t, n_r, branch, pooled = _mac_domain(n_users, n_t, n_r)
    r = check_interval(r, "multiplexing gain", 0, pooled / n_users, _TOL)
    if r <= branch:
        return single_user_dmt(n_t, n_r, r)
    return single_user_dmt(n_users * n_t, n_r, n_users * r)


def symmetric_mac_dmt_curve(n_users, n_t, n_r):
    """The (r, d) breakpoints of the symmetric-rate MAC DMT over its whole
    domain, as a tuple in increasing r.

    The knots are the integer gains up to r*, r* itself, and the gains m / N
    of the pooled branch from r* to rmax.  Each is a correctly rounded
    rational with denominator at most N + 1, so equal knots are equal
    doubles and distinct ones lie at least 1 / (N (N + 1)) apart.
    """
    n_users, n_t, n_r, branch, pooled = _mac_domain(n_users, n_t, n_r)
    knots = {float(k) for k in range(math.floor(branch) + 1)} | {float(branch)}
    knots.update(m / n_users for m in range(math.ceil(n_users * branch), pooled + 1))
    return tuple((r, symmetric_mac_dmt(n_users, n_t, n_r, r)) for r in sorted(knots))
