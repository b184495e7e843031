"""Complex-matrix kernels and seeded random samplers.

Every random draw goes through an explicit generator so that simulations are
reproducible.  :class:`RngStream` is a small value type naming a
(seed, stream) pair; a given stream always produces the same draws no matter
how many workers run concurrently.  :func:`trial_generators` is the package's
reproducibility layout, and the only place it is written: trial t of a run
with seed s draws from ``RngStream(s, t)``.  Every Monte-Carlo driver
iterates over it, which makes their aggregates independent of execution order.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, NumericalDomainError, check_int, check_positive

_LN2 = math.log(2.0)


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


def trial_generators(seed, trials):
    """Yield the generator of each trial t = 0 .. trials - 1 of a seeded run."""
    for t in range(trials):
        yield RngStream(seed, t).generator()


def _as_generator(rng):
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise InvalidParameterError("rng must be an RngStream or numpy Generator")


def _check_matrix(k, name="matrix"):
    k = np.asarray(k, dtype=complex)
    if k.ndim != 2:
        raise InvalidParameterError(f"{name} must be two-dimensional")
    if not np.all(np.isfinite(k.view(float))):
        raise InvalidParameterError(f"{name} has non-finite entries")
    return k


def sample_complex_gaussian(rows, cols, variance, rng):
    """Matrix of i.i.d. circularly-symmetric complex Gaussian entries.

    Each entry has mean zero and variance ``variance`` (real and imaginary
    parts are independent N(0, variance/2)).
    """
    if rows < 1 or cols < 1:
        raise InvalidParameterError("matrix dimensions must be positive")
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
    if n < 1:
        raise InvalidParameterError("n must be >= 1")
    z = sample_complex_gaussian(n, n, 1.0, rng)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    mag = np.abs(d)
    ph = np.where(mag > 0, d / np.where(mag > 0, mag, 1.0), 1.0)
    return q * ph


def sample_capacity_sphere(dim, sum_cap_bits, rng):
    """Scalar-user channel vector conditioned on its sum capacity.

    Uniform on the complex sphere of squared radius 2**sum_cap_bits - 1, so
    log2(1 + ||h||^2) equals ``sum_cap_bits`` exactly.  Obtained by
    normalizing an i.i.d. complex Gaussian vector, which is isotropic.
    """
    if dim < 1:
        raise InvalidParameterError("dim must be >= 1")
    if not (math.isfinite(sum_cap_bits) and sum_cap_bits >= 0):
        raise InvalidParameterError("sum_cap_bits must be non-negative and finite")
    g = _as_generator(rng)
    while True:
        z = g.standard_normal((2, dim))
        v = z[0] + 1j * z[1]
        nrm = np.linalg.norm(v)
        if nrm > 0:
            break
    radius = math.sqrt(math.expm1(sum_cap_bits * _LN2))
    return v * (radius / nrm)


def cholesky_lower(k):
    """Lower-triangular Cholesky factor of a Hermitian positive-definite matrix."""
    k = _check_matrix(k)
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
