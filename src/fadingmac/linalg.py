"""Complex-matrix kernels and seeded random samplers.

Every random draw goes through an explicit generator so that simulations are
reproducible.  :class:`RngStream` is a small value type naming a
(seed, stream) pair; a given stream always produces the same draws no matter
how many workers run concurrently.

The reproducibility contract is RNG layout 3 (:data:`RNG_LAYOUT`): the
trials of a run with seed s fall into streams of :data:`RNG_BLOCK`
consecutive trials, stream b is ``RngStream(s, b)``, and trial t takes the
next draws of stream t // RNG_BLOCK after the trials before it in that
stream.  :func:`trial_generators` hands trial t that stream's generator, so
a loop that makes each trial's draws in turn follows the layout; the
batched engines take the same numbers from :func:`trial_normals`, or, for
the conditioned CDF engines' Gamma(m, 1) user gains, :func:`trial_gammas`:
one call per block of consecutive trials.  :func:`capacity_sphere_rows` and
:func:`haar_unitary_rows` turn normal rows into exactly what the per-trial
samplers return.  Because streams are fixed at RNG_BLOCK trials, the size
of the blocks an engine works on never changes a draw.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (InvalidParameterError, NumericalDomainError, check_gain, check_int,
                     check_matrix, check_positive)

# The reproducibility contract: its id, recorded in every run's manifest,
# and the number of consecutive trials that share one stream.
RNG_LAYOUT = 3
RNG_BLOCK = 4096

# Trials per block of trial_normals and trial_gammas: large enough that numpy's per-call
# overhead vanishes beside the work, small enough to keep blocks a few MB.
_TRIAL_BLOCK = 4096


@dataclass(frozen=True)
class RngStream:
    """Identifier of an independent, reproducible random stream."""

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            object.__setattr__(self, name, check_int(getattr(self, name), name, 0))

    def generator(self) -> np.random.Generator:
        """Fresh generator for this stream; identical streams give identical draws."""
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.default_rng(ss)


def _stream_spans(seed, trials, chunk):
    """(generator, rows) pairs covering trials 0 .. trials - 1 in order.

    Each span lies in one stream of RNG_BLOCK trials and holds at most
    ``chunk`` of them; a stream's generator is built once, when its first
    trial comes up, and shared by the spans that follow.
    """
    for first in range(0, trials, RNG_BLOCK):
        gen = RngStream(seed, first // RNG_BLOCK).generator()
        stop = min(first + RNG_BLOCK, trials)
        for start in range(first, stop, chunk):
            yield gen, min(chunk, stop - start)


def trial_generators(seed, trials):
    """Generators of the trials t = 0 .. trials - 1 of a seeded run, in order.

    Trial t gets the generator of stream ``RngStream(seed, t // RNG_BLOCK)``,
    shared with the other trials of that stream, so each trial must make its
    draws before the next trial's.  The seed is checked once for the run.
    """
    seed = check_int(seed, "seed", 0)
    return (gen for gen, _ in _stream_spans(seed, trials, 1))


def trial_normals(seed, trials, shape):
    """Yield a seeded run's standard normals as (rows, *shape) arrays.

    Row t of the concatenated blocks is ``standard_normal(shape)`` drawn by
    trial t from its generator, so an engine working on whole blocks sees
    exactly the numbers a loop over trial_generators would.  Blocks hold at
    most _TRIAL_BLOCK trials, which bounds an engine's memory at any trial
    count, and never span two streams; each is one ``standard_normal``
    call.
    """
    seed = check_int(seed, "seed", 0)
    for gen, rows in _stream_spans(seed, trials, _TRIAL_BLOCK):
        yield gen.standard_normal((rows, *shape))


def trial_gammas(seed, trials, k, size):
    """Yield a seeded run's Gamma(k, 1) variates as (rows, size) arrays.

    Row t of the concatenated blocks is ``standard_gamma(k, size)`` drawn by
    trial t from its generator, in the blocks of trial_normals; k = 1 draws
    ``standard_exponential``'s numbers.
    """
    seed = check_int(seed, "seed", 0)
    for gen, rows in _stream_spans(seed, trials, _TRIAL_BLOCK):
        yield gen.standard_gamma(k, (rows, size))


def _as_generator(rng):
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise InvalidParameterError("rng must be an RngStream or numpy Generator")


def sample_complex_gaussian(rows, cols, variance, rng):
    """Matrix of i.i.d. circularly-symmetric complex Gaussian entries.

    Each entry has mean zero and variance ``variance`` (real and imaginary
    parts are independent N(0, variance/2)).
    """
    rows = check_int(rows, "rows", 1)
    cols = check_int(cols, "cols", 1)
    check_positive(variance, "variance")
    g = _as_generator(rng)
    z = g.standard_normal((2, rows, cols))
    return math.sqrt(variance / 2.0) * (z[0] + 1j * z[1])


def sample_haar_unitary(n, rng):
    """Haar-distributed n x n unitary matrix.

    QR decomposition of a complex Gaussian matrix, with each column of Q
    rotated by the phase of the corresponding diagonal entry of R.  Without
    that correction the QR convention (real positive diagonal) biases the
    distribution away from Haar measure.
    """
    n = check_int(n, "n", 1)
    return haar_unitary_rows(_as_generator(rng).standard_normal((2, n, n)))


def haar_unitary_rows(z):
    """Haar unitaries from stacked standard normals z of shape (..., 2, n, n).

    Each n x n result is what sample_haar_unitary returns after drawing
    that (2, n, n) slice: the same unit-variance complex Gaussian, QR and
    phase correction, as stacked numpy calls.
    """
    g = math.sqrt(0.5) * (z[..., 0, :, :] + 1j * z[..., 1, :, :])
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    mag = np.abs(d)
    ph = np.where(mag > 0, d / np.where(mag > 0, mag, 1.0), 1.0)
    return q * ph[..., None, :]


def sample_capacity_sphere(dim, sum_cap_bits, rng):
    """Scalar-user channel vector conditioned on its sum capacity.

    Uniform on the complex sphere of squared radius 2**sum_cap_bits - 1, so
    log2(1 + ||h||^2) equals ``sum_cap_bits`` exactly.  Obtained by
    normalizing an i.i.d. complex Gaussian vector, which is isotropic.
    """
    dim = check_int(dim, "dim", 1)
    radius = math.sqrt(check_gain(sum_cap_bits, "sum capacity"))
    z = _as_generator(rng).standard_normal((2, dim))
    v = z[0] + 1j * z[1]
    nrm = np.linalg.norm(v)
    if nrm == 0:   # no direction: raise, as capacity_sphere_rows does
        raise NumericalDomainError("capacity-sphere normals are all zero")
    return v * (radius / nrm)


def capacity_sphere_rows(z, sum_cap_bits):
    """Capacity-sphere points from stacked standard normals z, shape (rows, 2, dim).

    Row t is what sample_capacity_sphere returns from the draw z[t], bit for
    bit, and an all-zero row raises NumericalDomainError as there.  The
    sampler's 1-D np.linalg.norm sums the squares as two strided dot products,
    of the real and of the imaginary parts; a stacked (1 x dim) @ (dim x 1)
    product runs that same dot on every row, whereas np.linalg.norm(v, axis=1)
    sums in another order and differs in the last bit on about one row in seven.
    """
    radius = math.sqrt(check_gain(sum_cap_bits, "sum capacity"))
    v = z[:, 0] + 1j * z[:, 1]
    re, im = v.real, v.imag
    sq = re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None]
    nrm = np.sqrt(sq[:, 0, 0])
    if not np.all(nrm > 0):
        raise NumericalDomainError("capacity-sphere normals are all zero")
    return v * (radius / nrm)[:, None]


def cholesky_lower(k):
    """Lower-triangular Cholesky factor of a Hermitian positive-definite matrix."""
    k = check_matrix(k, "matrix")
    if k.shape[0] != k.shape[1]:
        raise InvalidParameterError("matrix must be square")
    if not np.allclose(k, k.conj().T, rtol=1e-10, atol=1e-12):
        raise InvalidParameterError("matrix must be Hermitian")
    try:
        return np.linalg.cholesky(k)
    except np.linalg.LinAlgError as exc:
        raise NumericalDomainError("matrix is not positive definite") from exc


def hermitian_inverse(k):
    """Inverse of a Hermitian positive-definite matrix via its Cholesky factor."""
    low = cholesky_lower(k)
    n = low.shape[0]
    low_inv = np.linalg.solve(low, np.eye(n, dtype=complex))
    inv = low_inv.conj().T @ low_inv
    return (inv + inv.conj().T) / 2.0
