"""Complex-matrix kernels and seeded random samplers.

Every random draw goes through an explicit generator so that simulations are
reproducible.  :class:`RngStream` is a small value type naming a
(seed, stream) pair; a given stream always produces the same draws no matter
how many workers run concurrently.  :func:`trial_generators` spells out the
package's reproducibility layout: trial t of a run with seed s draws from
``RngStream(s, t)``.  Every Monte-Carlo driver draws from these streams,
which makes their aggregates independent of execution order.  The batched
engines, the integer-forcing one included, take their draws from
:func:`trial_normals`, which stacks each trial's first ``standard_normal``
call into one array per block of trials, so batching changes no random
number; :func:`capacity_sphere_blocks` and :func:`haar_unitary_rows` turn
those rows into exactly what the per-trial samplers return.  Building one
SeedSequence and generator per trial would cost more than most trials'
work, so :func:`trial_normals` derives a whole block's PCG64 states at once,
with SeedSequence's hash written over arrays of spawn keys, and loads them
into one reused generator.
Every block checks its first state against NumPy's own, so a NumPy that
hashes differently raises instead of changing the draws.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, NumericalDomainError, check_int, check_positive

_LN2 = math.log(2.0)

# Trials per block of trial_normals: large enough that numpy's per-call
# overhead vanishes beside the work, small enough to keep blocks a few MB.
_TRIAL_BLOCK = 4096

# NumPy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32 = 0xFFFFFFFF
_M128 = (1 << 128) - 1


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
    """Generators of the trials t = 0 .. trials - 1 of a seeded run, in order.

    Trial t draws from ``SeedSequence(seed, spawn_key=(t,))``, the stream
    ``RngStream(seed, t)`` names.  The seed is checked once for the run.
    """
    seed = check_int(seed, "seed", 0)
    return (np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(t,)))
            for t in range(trials))


def _mix(x, y):
    r = ((_MIX_MULT_L * x & _M32) - (_MIX_MULT_R * y & _M32)) & _M32
    return r ^ r >> 16


def _pcg64_states(seed, start, stop):
    """Yield ``PCG64(SeedSequence(seed, spawn_key=(t,))).state`` for t in [start, stop).

    SeedSequence's entropy pool mixing and ``generate_state(4, uint64)``,
    then PCG64's seeding step.  The seed's words are mixed as Python ints
    (they are the same for every t); the spawn-key words, which differ, as
    uint32 arrays.  The two code paths share one spelling: masking to 32 bits
    is a no-op on uint32 arrays.
    """
    if start < 1 << 32 < stop:
        yield from _pcg64_states(seed, start, 1 << 32)
        yield from _pcg64_states(seed, 1 << 32, stop)
        return
    keys = np.arange(start, stop, dtype=np.uint64)
    spawn = [(keys & _M32).astype(np.uint32)]
    if start >> 32:
        spawn.append((keys >> 32).astype(np.uint32))
    # The seed as little-endian 32-bit words, padded to the 4-word pool size
    # as SeedSequence pads it when there is a spawn key.
    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (4 - len(words))
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    pool = [hashmix(w) for w in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for w in words[4:] + spawn:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(w))
    hash_const = _INIT_B
    out = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _M32
        value = value * hash_const & _M32
        out.append((value ^ value >> 16).astype(np.uint64))
    # generate_state pairs the words little-endian into uint64s
    # s_hi, s_lo, inc_hi, inc_lo.
    s_hi, s_lo, i_hi, i_lo = ((out[k] | out[k + 1] << np.uint64(32)).tolist()
                              for k in range(0, 8, 2))
    for a, b, c, d in zip(s_hi, s_lo, i_hi, i_lo):
        # pcg64_set_seed: state = 0, one LCG step, add the seed, one more step.
        inc = ((c << 64 | d) << 1 | 1) & _M128
        state = ((inc + (a << 64 | b)) * _PCG_MULT + inc) & _M128
        yield {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
               "has_uint32": 0, "uinteger": 0}


def trial_normals(seed, trials, shape):
    """Yield a seeded run's standard normals as (rows, *shape) arrays.

    Row t of the concatenated blocks is ``standard_normal(shape)``, the first
    draw from trial t's generator, so an engine working on whole blocks sees
    exactly the numbers a loop over trial_generators would.  Blocks hold at
    most _TRIAL_BLOCK trials, which bounds an engine's memory at any trial
    count.  The trials' PCG64 states come from _pcg64_states and are loaded
    one by one into a single generator; each block's first state is checked
    against NumPy's.
    """
    seed = check_int(seed, "seed", 0)
    bits = np.random.PCG64(0)
    gen = np.random.Generator(bits)
    for start in range(0, trials, _TRIAL_BLOCK):
        out = np.empty((min(_TRIAL_BLOCK, trials - start), *shape))
        states = _pcg64_states(seed, start, start + len(out))
        first = next(states)
        if first != RngStream(seed, start).generator().bit_generator.state:
            raise RuntimeError("numpy's SeedSequence no longer hashes as linalg._pcg64_states "
                               f"does (seed {seed}, trial {start})")
        for row, state in zip(out, itertools.chain([first], states)):
            bits.state = state
            gen.standard_normal(out=row)
        yield out


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


def capacity_sphere_blocks(seed, trials, dim, sum_cap_bits, extra=0):
    """Yield a seeded run's capacity-sphere draws in blocks of rows (h, rest).

    Row t of h is sample_capacity_sphere(dim, sum_cap_bits, g) for trial t's
    generator g, bit for bit, and row t of rest holds the ``extra`` standard
    normals g draws next.  The 1-D np.linalg.norm the sampler takes sums the
    squares as two strided dot products, of the real and of the imaginary
    parts; a stacked (1 x dim) @ (dim x 1) product runs that same dot on
    every row, whereas np.linalg.norm(v, axis=1) sums in another order and
    differs in the last bit on about one row in seven.  The sampler redraws
    an all-zero vector from the same stream, so such a trial is replayed
    through it.
    """
    radius = math.sqrt(math.expm1(sum_cap_bits * _LN2))
    first = 0
    for z in trial_normals(seed, trials, (2 * dim + extra,)):
        v = z[:, :dim] + 1j * z[:, dim:2 * dim]
        re, im = v.real, v.imag
        sq = re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None]
        nrm = np.sqrt(sq[:, 0, 0])
        h = v * (radius / np.where(nrm > 0, nrm, 1.0))[:, None]
        rest = z[:, 2 * dim:]
        for row in np.flatnonzero(nrm == 0):
            g = RngStream(seed, first + row).generator()
            h[row] = sample_capacity_sphere(dim, sum_cap_bits, g)
            rest[row] = g.standard_normal(extra)
        first += len(z)
        yield h, rest


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
