"""Integer-forcing rates against exact rational arithmetic.

The oracle takes a drawn double-precision effective channel H and the
engine's own integer matrix A as exact.  K = (I + H^H H)^-1 is formed in
Gaussian rationals (stdlib fractions), the parallel variance of row a is
a^H K a, and the successive (SIC) variances are the pivots of the LDL^H
factorization of the matrix whose (m, n) entry is a_m^H K a_n.  No square
root is taken, so each variance is exact and only its logarithm rounds.

The float totals must stay within _TOLERANCE_BITS of the exact totals, and
the exact totals at or below C, across the engine's working range
C <= MAX_IF_CAPACITY_BITS.  That range was set by this comparison: the
largest multiple of 5 bits at which the worst difference over 300 trials per
precoder and mode stayed within the tolerance.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fadingmac.capacity import MacChannel
from fadingmac.integer_forcing import (MAX_IF_CAPACITY_BITS, PRECODER_KINDS, Precoder,
                                       build_effective_channel, if_rate)
from fadingmac.linalg import sample_capacity_sphere, trial_generators

_TOLERANCE_BITS = 1e-3


def _embed(z):
    """Real embedding [[Re, -Im], [Im, Re]] of a complex matrix, in Fractions;
    it maps sums and products of complex matrices to those of real ones."""
    re = [[Fraction(float(v.real)) for v in row] for row in z]
    im = [[Fraction(float(v.imag)) for v in row] for row in z]
    return ([r + [-v for v in i] for r, i in zip(re, im)]
            + [i + r for r, i in zip(re, im)])


def _matmul(x, y):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*y)] for row in x]


def _inverse(m):
    """Inverse of a real positive-definite Fraction matrix by Gauss-Jordan
    elimination; its pivots are positive, so none is zero."""
    n = len(m)
    aug = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for k in range(n):
        piv = aug[k][k]
        aug[k] = [v / piv for v in aug[k]]
        for i in range(n):
            if i != k and aug[i][k]:
                f = aug[i][k]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[k])]
    return [row[n:] for row in aug]


def exact_variances(h, a, mode):
    """Exact noise variances, as Fractions, of the streams of the integer
    matrix a (rows a_m) on the effective channel h."""
    n = h.shape[1]
    he = _embed(h)
    gram = _matmul([list(col) for col in zip(*he)], he)   # embeds H^H H
    k = _inverse([[v + (i == j) for j, v in enumerate(row)] for i, row in enumerate(gram)])
    # Entry (m, n) of conj(A) K A^T is a_m^H K a_n; its embedding gives the
    # real part in the top-left block and the imaginary part below it.
    m = _matmul(_matmul(_embed(a.conj()), k), _embed(a.T))
    re = [row[:n] for row in m[:n]]
    im = [row[:n] for row in m[n:]]
    if mode == "if":
        return [re[i][i] for i in range(n)]
    # LDL^H of the Hermitian re + j im: each pivot is real and positive.
    pivots = []
    for p in range(n):
        d = re[p][p]
        pivots.append(d)
        for i in range(p + 1, n):
            for j in range(p + 1, n):
                # M_ij -= M_ip M_pj / d, in real and imaginary parts
                re[i][j] -= (re[i][p] * re[p][j] - im[i][p] * im[p][j]) / d
                im[i][j] -= (re[i][p] * im[p][j] + im[i][p] * re[p][j]) / d
    return pivots


def _log2(v):
    """log2 of a positive Fraction, to double precision at any size."""
    e = v.numerator.bit_length() - v.denominator.bit_length()
    return e + math.log2(v / Fraction(2) ** e)


def exact_total(eff, res):
    """n_users times the symmetric rate of res's integer matrix, exactly."""
    variances = exact_variances(np.asarray(eff.matrix), res.a_matrix, res.mode)
    worst = min(max(0.0, -_log2(v)) for v in variances)
    return eff.n_users * eff.streams_per_user * worst / eff.time_extension


def effective_channel(rng, cap, kind):
    """A two-user effective channel drawn as conditioned_rate_samples draws
    each trial: the sphere draw, then any Haar precoders."""
    h = sample_capacity_sphere(2, cap, rng)
    pre = {"none": Precoder.identity, "badr_belfiore": Precoder.badr_belfiore,
           "haar": lambda n: Precoder.haar_t2(n, rng)}[kind](2)
    return build_effective_channel(MacChannel.from_scalar(h), pre)


def test_the_oracle_gives_the_closed_form_of_an_orthogonal_channel():
    # H = diag(3, 1/2): K = diag(1/10, 4/5).  Rows (1, j) and (0, 1) have
    # forms 9/10 and 4/5 and cross term a_1^H K a_2 = -4j/5, which SIC takes
    # off the second stream's variance.
    h = np.diag([3.0, 0.5]).astype(complex)
    a = np.array([[1, 1j], [0, 1]])
    want = [Fraction(9, 10), Fraction(4, 5)]
    assert exact_variances(h, a, "if") == want
    sic = exact_variances(h, a, "if-sic")
    assert sic == [Fraction(9, 10), Fraction(4, 5) - Fraction(16, 25) / Fraction(9, 10)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(cap=st.floats(1.0, MAX_IF_CAPACITY_BITS), kind=st.sampled_from(PRECODER_KINDS),
       mode=st.sampled_from(["if", "if-sic"]), seed=st.integers(0, 2 ** 32 - 1))
def test_float_totals_lie_within_tolerance_of_the_exact_totals(cap, kind, mode, seed):
    eff = effective_channel(next(iter(trial_generators(seed, 1))), cap, kind)
    res = if_rate(eff, mode=mode)
    exact = exact_total(eff, res)
    assert abs(2 * res.symmetric_rate_bits - exact) <= _TOLERANCE_BITS
    assert exact <= cap + 1e-9


def test_float_totals_at_the_top_of_the_range_lie_within_tolerance():
    for kind in PRECODER_KINDS:
        for rng in trial_generators(1, 4):
            eff = effective_channel(rng, MAX_IF_CAPACITY_BITS, kind)
            for mode in ("if", "if-sic"):
                res = if_rate(eff, mode=mode)
                exact = exact_total(eff, res)
                assert abs(2 * res.symmetric_rate_bits - exact) <= _TOLERANCE_BITS
                assert exact <= MAX_IF_CAPACITY_BITS + 1e-9
