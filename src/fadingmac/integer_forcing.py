"""Integer-forcing receivers for the conditioned MAC, with space-time precoding.

The receiver decodes integer combinations of the transmitted lattice
codewords.  With effective channel H (one column per stream) the noise
variance of the combination a is a^H K a with K = (I + H^H H)^-1, each stream
carries max(0, -log2 variance) bits, and the symmetric rate is set by the
worst stream of a full-rank Gaussian-integer matrix A.

The rates never form K.  Every quantity comes from one square-root factor
F = R^-H, where R is the triangular factor of a QR decomposition of [H; I]
(so R^H R = I + H^H H and K = F^H F): the variance of a is ||F a||^2, the
successive (SIC) variances are the squared diagonal of the triangular factor
of F A^T, and A is searched with LLL reduction of the lattice spanned by the
real embedding of F.  F's condition number grows like 2^(C/2) rather than
K's 2^C; up to C = MAX_IF_CAPACITY_BITS = 80 bits, the working range of
conditioned_rate_samples, rates stay within 1e-3 bits of exact rational
rates and at or below C.  An exhaustive bounded-box search from the same
F (exhaustive_search) provides the oracle the reduction is validated
against.  lll_search and brute_force_search are the Gram adapters: they take
K itself, for callers that hold one, and search with its Cholesky factor.

conditioned_rate_samples works on blocks of trials, drawn through
linalg.trial_normals: each trial's 2N sphere normals, then any 8N Haar
normals, are one row.  capacity_sphere_rows' sphere normalization,
the Haar QRs, the effective channels, F, the QR factors of F's real
embeddings, F A^T, the variances and the rates are stacked numpy calls over
the block.  if_rate calls the same helpers on a stack of one, so a row
equals the per-trial rate bit for bit.  The LLL loop runs per trial, as
scalar code on Python floats from the precomputed QR factor, since its
matrices are small (2n x 2n for n streams), and holds each row of the
unimodular transform as one packed Python int; candidate rows are tuples of
Python ints.  The greedy basis runs once per block: one stacked product
gives every trial's forms, then each trial walks its rows in form order.
Every rank decision is exact: a row whose image modulo a prime of the
Gaussian integers leaves the span of the selected rows' images is proved
independent, and fraction-free elimination over the integers tests any
other, so coefficients of any size (about 10^7 at C = 100 bits) never make
an independent row look dependent.

The two receiver modes share the search, and figures compare them on the
same draws.  So conditioned_rate_samples computes both modes from one
search and keeps them for its last inputs (users, C, precoder, seed,
trials), which fix every draw: an "if" call followed by an "if-sic" call on
the same inputs, or the reverse, searches each channel once.
The joint (ML) receiver's laws, which IF is judged against, live in bounds,
and the figures' summaries of the samples (CDFs, histograms, quantiles and
means as fractions of C) in the command line.
"""

import functools
import math
import struct
from dataclasses import dataclass
from operator import neg

import numpy as np

from .capacity import MacChannel
from .errors import (InvalidParameterError, NumericalDomainError, check_capacity, check_choice,
                     check_int, check_matrix, check_type)
from .linalg import capacity_sphere_rows, cholesky_lower, haar_unitary_rows, \
    sample_haar_unitary, trial_normals

_LN2 = math.log(2.0)
_SQRT5 = math.sqrt(5.0)

PRECODER_KINDS = ("none", "haar", "badr_belfiore")
_MODES = ("if", "if-sic")
BRUTE_FORCE_MAX_DIM = 4
_LLL_DELTA = 0.75   # the Lovasz condition parameter of the lattice reduction
_FIELD_BITS = 64    # starting width (a multiple of 8) of an entry of a packed row of U
_P = 32749          # a prime = 5 (mod 8): 2 is not a square mod _P, so
_J = pow(2, (_P - 1) // 4, _P)   # _J^2 = -1 (mod _P)

MAX_IF_CAPACITY_BITS = 80   # the top of the conditioned engine's working range


def check_if_capacity(bits):
    check_capacity(bits)
    if bits > MAX_IF_CAPACITY_BITS:
        raise InvalidParameterError(
            f"integer forcing is limited to sum capacities up to {MAX_IF_CAPACITY_BITS} bits")


# ---------------------------------------------------------------------------
# precoders and effective channels

@dataclass(frozen=True)
class Precoder:
    """Per-user unitary spreading matrices over a common time extension."""

    kind: str
    matrices: tuple

    def __post_init__(self):
        check_choice(self.kind, PRECODER_KINDS, "kind")
        if len(self.matrices) == 0:
            raise InvalidParameterError("at least one user required")
        t = self.matrices[0].shape[0]
        for m in self.matrices:
            if m.shape != (t, t):
                raise InvalidParameterError("precoder matrices must be square, equal size")
        mats = np.array(self.matrices)
        if np.max(np.abs(mats.conj().swapaxes(-1, -2) @ mats - np.eye(t))) > 1e-12:
            raise InvalidParameterError("precoder matrices must be unitary")

    @property
    def time_extension(self):
        return self.matrices[0].shape[0]

    @classmethod
    def identity(cls, n_users):
        """No precoding: every user sends one symbol per channel use."""
        eye = np.eye(1, dtype=complex)
        return cls(kind="none", matrices=(eye,) * n_users)

    @classmethod
    def badr_belfiore(cls, n_users=2):
        """The pair of unitary 2x2 golden-ratio precoders of Badr and Belfiore.

        Each user spreads one symbol pair over two channel uses; the
        golden-ratio structure keeps integer combinations well conditioned
        for every channel.
        """
        if n_users != 2:
            raise InvalidParameterError(
                "the golden-ratio pair is a two-user construction; use the haar precoder")
        phi = (1.0 + _SQRT5) / 2.0
        phib = (1.0 - _SQRT5) / 2.0
        alpha = 1.0 + 1j * (1.0 - phi)
        alphab = 1.0 + 1j * (1.0 - phib)
        p1 = np.array([[alpha, alpha * phi],
                       [alphab, alphab * phib]], dtype=complex) / _SQRT5
        p2 = np.array([[1j * alpha, 1j * alpha * phi],
                       [alphab, alphab * phib]], dtype=complex) / _SQRT5
        return cls(kind="badr_belfiore", matrices=(p1, p2))

    @classmethod
    def haar_t2(cls, n_users, rng):
        """Independent Haar-random 2x2 precoder per user."""
        return cls(kind="haar",
                   matrices=tuple(sample_haar_unitary(2, rng) for _ in range(n_users)))


@dataclass(frozen=True)
class EffectiveChannel:
    """Stream-level channel over one precoding block of T channel uses."""

    matrix: np.ndarray
    n_users: int
    streams_per_user: int
    time_extension: int

    def __post_init__(self):
        m = check_matrix(self.matrix, "effective matrix")
        if m.shape[1] != self.n_users * self.streams_per_user:
            raise InvalidParameterError("column count must be n_users * streams_per_user")
        if m.shape[0] % self.time_extension != 0:
            raise InvalidParameterError("row count must be a multiple of the time extension")


def build_effective_channel(ch, precoder):
    """Stack per-user blocks kron(P_i, H_i) side by side.

    Row index runs over (channel use, receive antenna); column index over
    (user, stream).  Time-extended precoders assume single-antenna
    transmitters, which is the regime they are designed for.
    """
    check_type(ch, MacChannel, "ch")
    if len(precoder.matrices) != ch.n_users:
        raise InvalidParameterError("precoder user count does not match the channel")
    t = precoder.time_extension
    if t > 1 and ch.n_tx != 1:
        raise InvalidParameterError("time-extended precoding requires n_tx = 1")
    matrix = _effective_matrices(np.array(precoder.matrices), np.array(ch.user_matrices))
    return EffectiveChannel(matrix=matrix, n_users=ch.n_users,
                            streams_per_user=ch.n_tx * t, time_extension=t)


def _effective_matrices(p, h):
    """Effective matrices of stacked precoders p (..., N, T, T) and user
    matrices h (..., N, n_rx, n_tx), shape (..., T n_rx, N T n_tx).

    kron(P_i, H_i)[(a, k), (b, l)] = P_i[a, b] H_i[k, l], written as one
    broadcast product over all users; it multiplies the same entries as
    np.kron, so the result is bit-identical.
    """
    blocks = (p.swapaxes(-3, -2)[..., :, None, :, :, None]
              * h.swapaxes(-3, -2)[..., None, :, :, None, :])
    return blocks.reshape(*blocks.shape[:-5], blocks.shape[-5] * blocks.shape[-4], -1)


# ---------------------------------------------------------------------------
# integer-matrix search

def _real_embedding(k):
    """Real matrix M acting on [u; v] as k acts on a = u + jv, so
    ||k a|| = ||M [u; v]||.  Embeds each matrix of a stack (..., n, n)."""
    return np.block([[k.real, -k.imag], [k.imag, k.real]])


def _pack(rows, w):
    """Each row of integers as one int: the sum of entry i times 2^(w i)."""
    return [sum(v << (w * i) for i, v in enumerate(row)) for row in rows]


def _unpack(packed, n, w):
    """The n entries of each packed row, as a tuple; exact when w is a
    multiple of 8 and every entry satisfies |v| < 2^(w-1).

    Adding 2^(w-1) to every entry makes each field a w-bit digit with no
    carry between fields; XOR with the same offset then flips each digit's
    top bit, leaving the w-bit two's complement of the entry.
    """
    offset = ((1 << (w * n)) - 1) // ((1 << w) - 1) << (w - 1)
    # The default 64-bit fields decode in one struct call, about 4 us for a
    # 4 x 4 U against 15 us through int.from_bytes; on the if-receiver
    # benchmark that is 8-14% more trials a second (2-CPU Xeon VM).  Wider
    # fields, used only after a row outgrows 64 bits, take the general path.
    if w == 64:
        fmt = f"<{n}q"
        return [struct.unpack(fmt, ((p + offset) ^ offset).to_bytes(8 * n, "little"))
                for p in packed]
    data = [((p + offset) ^ offset).to_bytes(n * w // 8, "little") for p in packed]
    step = w // 8
    return [tuple(int.from_bytes(b[i:i + step], "little", signed=True)
                  for i in range(0, len(b), step)) for b in data]


def _lll_transform(r):
    """LLL-reduce the lattice spanned by the columns of a full-rank real
    matrix B, given the triangular factor r of its QR decomposition; return
    the unimodular integer U, as tuples of Python ints, whose rows are the
    coefficients of the reduced basis vectors, B @ U.T.

    The reduction loop works on Python floats and ints, which at these small
    dimensions cost far less per element than numpy indexing; round() rounds
    half to even, as np.rint does, so a coefficient in [-1/2, 1/2] is skipped
    without rounding.  Each row of U is held packed as one int (see _pack),
    so a row update is one integer operation.  size[i] bounds the entries of
    row i by the triangle inequality; when an update could carry an entry
    out of its w-bit field, U is unpacked, updated and repacked exactly, with
    the bounds reset to the entries and w widened until they use at most half
    of it.  So the fields never overflow, and U is exact at any size.
    """
    d = np.diagonal(r)
    # Gram-Schmidt data: mu[i][j] = <b_i, b*_j> / |b*_j|^2 for j < i.
    mu = [row[:i] for i, row in enumerate((r / d[:, None]).T.tolist())]
    norms = (d * d).tolist()
    n = len(norms)
    w = _FIELD_BITS
    half = 1 << (w - 1)
    u = [1 << (w * i) for i in range(n)]
    size = [1] * n
    k = 1
    guard = 0
    max_steps = 10000 * n * n
    while k < n:
        guard += 1
        if guard > max_steps:
            raise NumericalDomainError("lattice reduction failed to converge")
        mk = mu[k]
        for j in range(k - 1, -1, -1):
            if -0.5 <= mk[j] <= 0.5:
                continue
            q = round(mk[j])
            bound = size[k] + abs(q) * size[j]
            if bound < half:
                u[k] -= q * u[j]
                size[k] = bound
            else:
                rows = _unpack(u, n, w)
                rows[k] = [a - q * b for a, b in zip(rows[k], rows[j])]
                size = [max(map(abs, row)) for row in rows]
                while 2 * max(size).bit_length() > w:
                    w *= 2
                half = 1 << (w - 1)
                u = _pack(rows, w)
            mj = mu[j]
            for i in range(j):
                mk[i] -= q * mj[i]
            mk[j] -= q
        mu_val = mk[k - 1]
        if norms[k] >= (_LLL_DELTA - mu_val ** 2) * norms[k - 1]:
            k += 1
            continue
        # swap vectors k-1 and k, updating the orthogonalization in place
        big = norms[k] + mu_val * mu_val * norms[k - 1]
        mu_new = mu_val * norms[k - 1] / big
        norms[k] = norms[k - 1] * norms[k] / big
        norms[k - 1] = big
        u[k - 1], u[k] = u[k], u[k - 1]
        size[k - 1], size[k] = size[k], size[k - 1]
        mk.pop()
        mu[k - 1].append(mu_new)
        mu[k - 1], mu[k] = mk, mu[k - 1]
        for mi in mu[k + 1:]:
            t = mi[k]
            mi[k] = mi[k - 1] - mu_val * t
            mi[k - 1] = t + mu_new * mi[k]
        if k > 1:
            k -= 1
    return _unpack(u, n, w)


# A Gaussian-integer row a = x + jy is held as the tuple (x_1..x_n, y_1..y_n)
# of Python ints, the coefficient layout of the real embedding.

def _canonical_unit(row):
    """Rotate by a Gaussian-integer unit so the first nonzero entry has
    positive real part and non-negative imaginary part.  Unit multiples of a
    row have identical quadratic forms, so this both deduplicates candidates
    and makes tie-breaking deterministic."""
    n = len(row) // 2
    x, y = row[:n], row[n:]
    for re, im in zip(x, y):
        if re or im:
            if re > 0 and im >= 0:
                return row
            if re <= 0 and im > 0:      # times -j
                return y + tuple(map(neg, x))
            if re < 0 and im <= 0:      # times -1
                return tuple(map(neg, row))
            return tuple(map(neg, y)) + x   # times j
    return row


def _add_if_independent(echelon, row):
    """Add the Gaussian-integer row to an echelon basis of (pivot, integer
    row) pairs if it is linearly independent over C of the rows added before;
    return whether it was.

    Exact: the row enters as the real rows of a and ja, [x, y] and [-y, x],
    which raise the rational rank by two or not at all.  Each is reduced by
    fraction-free row operations and stored divided by its content.
    """
    n = len(row) // 2
    for vec in (list(row), [-v for v in row[n:]] + list(row[:n])):
        for c, p in echelon:
            if vec[c]:
                g = math.gcd(p[c], vec[c])
                s, t = p[c] // g, vec[c] // g
                vec = [s * a - t * b for a, b in zip(vec, p)]
        if not any(vec):
            return False
        g = math.gcd(*vec)
        vec = [v // g for v in vec]
        echelon.append((next(i for i, v in enumerate(vec) if v), vec))
    return True


def _mod_p_image(row):
    """The row's image under x + jy -> x + _J y (mod _P), the ring map from
    Z[j] onto the integers mod _P whose kernel is the prime ideal (_P, j - _J)."""
    n = len(row) // 2
    return [(x + _J * y) % _P for x, y in zip(row[:n], row[n:])]


def _first_basis(rows, n):
    """Indices of the first n rows, in order, that each raise the rank over C.

    Row by row, the row's _mod_p_image is reduced against the images of the
    rows selected so far.  The ring map carries every minor of the rows to
    the same minor of their images, so while the selected images are
    independent, an image left outside their span proves the row independent
    of the selected rows.  An image inside the span decides nothing, since a
    nonzero minor may be divisible by the prime: that row gets one exact
    _add_if_independent test, and once such a test accepts a row the images
    prove nothing more, so every later row is tested exactly.
    """
    sel, images, echelon, exact = [], [], [], False
    for i, row in enumerate(rows):
        if not exact:
            v = _mod_p_image(row)
            for c, b in images:
                if v[c]:
                    v = [(a * b[c] - v[c] * e) % _P for a, e in zip(v, b)]
            top = max(v)
            if top:
                images.append((v.index(top), v))
                sel.append(i)
            else:
                for j in sel[len(echelon) // 2:]:   # each row adds two real rows
                    _add_if_independent(echelon, rows[j])
                exact = _add_if_independent(echelon, row)
                if exact:
                    sel.append(i)
        elif _add_if_independent(echelon, row):
            sel.append(i)
        if len(sel) == n:
            return sel
    raise NumericalDomainError("candidate rows do not span the stream space")


def _greedy_bases(f, pools):
    """Full-rank selections with the smallest worst form ||F a||^2, one per
    F of the stack f (trials, n, n), from its pool of rows plus the unit rows.

    Canonicalizes each pool up to units and appends the unit rows, which
    guarantee full rank, keeping first occurrences; pads the pools with zero
    rows into one (trials, width, 2n) array, so the forms and the gather of
    the selected rows are one call each over the block.  Then each trial
    sorts its rows by (form, row) and picks greedily, keeping each row that
    raises the rank over C (_first_basis).  Independence is a matroid, so the
    greedy basis minimizes the worst form among all full-rank selections
    from the pool.
    """
    n = f.shape[-1]
    units = [tuple(int(i == j) for j in range(2 * n)) for i in range(n)]
    cands = [list(dict.fromkeys([*map(_canonical_unit, rows), *units])) for rows in pools]
    width = max(map(len, cands))
    pad = [(0,) * (2 * n)]
    m = np.array([c + pad * (width - len(c)) for c in cands], dtype=float)
    cm = m[..., :n] + 1j * m[..., n:]
    forms = (np.linalg.norm(cm @ f.swapaxes(-1, -2), axis=-1) ** 2).tolist()
    picks = []
    for c, fs in zip(cands, forms):
        ranked = sorted(zip(fs, c, range(len(c))))    # by (form, row); zip drops the pad
        basis = _first_basis([row for _, row, _ in ranked], n)
        picks.append([ranked[k][2] for k in basis])
    return cm[np.arange(len(cands))[:, None], picks]


def _search(f):
    """Full-rank Gaussian-integer matrices with small forms ||F a||^2, one
    per F of the stack f (rows, n, n).

    LLL-reduces the real embedding of each F (delta = _LLL_DELTA), whose columns
    span a lattice with Gram matrix the real embedding of F^H F, lifts the 2n
    reduced coefficient rows back to Gaussian-integer rows, and greedily
    assembles a basis from them and the unit rows in form order.  The unit
    rows also guarantee that no selected row is worse than the worst column
    norm of F.  The QR factors of the embeddings come from one stacked call
    and the greedy basis from one pass over the block; only the reduction
    runs per matrix.  A factor whose diagonal is not finite and nonzero (F
    underflows at capacities of a few hundred bits) raises
    NumericalDomainError.
    """
    r = np.linalg.qr(_real_embedding(f), mode="r")
    d = np.diagonal(r, axis1=-2, axis2=-1)
    if not np.all(np.isfinite(d) & (d != 0)):
        raise NumericalDomainError("lattice basis is singular to working precision")
    return _greedy_bases(f, [_lll_transform(ri) for ri in r])


def lll_search(gram):
    """Full-rank Gaussian-integer matrix with small quadratic forms a^H K a.

    Reduces with the Cholesky factor of K: F = L^H with K = L L^H gives
    a^H K a = ||F a||^2.  No selected row is worse than the worst diagonal
    entry of K.
    """
    return _search(cholesky_lower(gram).conj().T[None])[0]


def _points_in_ellipsoid(b, bound, radius):
    """All nonzero integer vectors with ||b x||^2 <= bound and |x_i| <= radius.

    A form may exceed the budget by 1e-12 * bound, far above its rounding
    error; a slack relative to bound keeps the enumeration tight at any
    scale (one user at C = 80 bits has forms near 2^-80)."""
    nn = b.shape[1]
    r = np.linalg.qr(b, mode="r")
    r *= np.sign(np.diagonal(r))[:, None]   # descend's bounds need r[i, i] > 0
    coords = np.zeros(nn, dtype=np.int64)
    results = []
    slack = 1e-12 * bound

    def descend(i, budget):
        t = float(r[i, i + 1:] @ coords[i + 1:]) if i + 1 < nn else 0.0
        rad = math.sqrt(max(budget, 0.0))
        lo = max(math.ceil((-rad - t) / r[i, i] - 1e-12), -radius)
        hi = min(math.floor((rad - t) / r[i, i] + 1e-12), radius)
        for ai in range(lo, hi + 1):
            term = (r[i, i] * ai + t) ** 2
            if term > budget + slack:
                continue
            coords[i] = ai
            if i == 0:
                if np.any(coords != 0):
                    results.append(coords.copy())
            else:
                descend(i - 1, budget - term)
        coords[i] = 0

    descend(nn - 1, bound)
    return results


def brute_force_search(gram, radius):
    """exhaustive_search for a caller that holds K, with F = L^H from its
    Cholesky factor L."""
    return _exhaustive(cholesky_lower(gram).conj().T, radius)


def exhaustive_search(eff, radius):
    """Oracle search on an effective channel, from the F that if_rate takes."""
    return _exhaustive(_channel_factor(eff)[0], radius)


def _exhaustive(f, radius):
    """The full-rank matrix minimizing the worst form ||F a||^2 over
    Gaussian-integer rows with |Re|, |Im| <= radius.

    Enumeration is pruned at the largest column norm of F: the unit rows
    always complete a partial selection, so no optimal row can have a larger
    form.  This keeps the result exactly equal to enumerating the whole box.
    """
    n = f.shape[0]
    if n > BRUTE_FORCE_MAX_DIM:
        raise InvalidParameterError(
            f"exhaustive search limited to dimension {BRUTE_FORCE_MAX_DIM}")
    radius = check_int(radius, "radius", 1)
    bound = float(np.max(np.linalg.norm(f, axis=0))) ** 2 * (1.0 + 1e-9)
    pts = _points_in_ellipsoid(_real_embedding(f), bound, radius)
    return _greedy_bases(f[None], [[tuple(p.tolist()) for p in pts]])[0]


# ---------------------------------------------------------------------------
# rates

@dataclass(frozen=True)
class IfResult:
    """Rates of one integer-forcing evaluation.

    The combination matrix is stored as integer real/imaginary parts;
    symmetric_rate_bits is the per-user rate per channel use.
    """

    a_re: np.ndarray
    a_im: np.ndarray
    per_stream_rate_bits: np.ndarray
    symmetric_rate_bits: float
    mode: str

    @property
    def a_matrix(self):
        return self.a_re.astype(float) + 1j * self.a_im.astype(float)


def _validate_a(a, n):
    a = np.asarray(a, dtype=complex)
    if a.shape != (n, n):
        raise InvalidParameterError("integer matrix must be square of stream dimension")
    rows = np.hstack([a.real, a.imag])
    ints = np.rint(rows)
    if not (np.all(np.isfinite(rows)) and np.max(np.abs(rows - ints)) <= 1e-9):
        raise InvalidParameterError("matrix entries must be Gaussian integers")
    echelon = []
    if not all(_add_if_independent(echelon, tuple(map(int, row))) for row in ints.tolist()):
        raise InvalidParameterError("integer matrix must be full rank")
    return ints[:, :n] + 1j * ints[:, n:]


def _channel_factor(eff):
    """F of one effective channel, as a stack of one."""
    check_type(eff, EffectiveChannel, "eff")
    return _sqrt_factors(np.asarray(eff.matrix, dtype=complex)[None])


def _sqrt_factors(h):
    """F = R^-H for a stack of effective channels h (..., rows, n), where R
    is the triangular factor of a QR decomposition of [H; I], so that
    R^H R = I + H^H H and K = F^H F."""
    n = h.shape[-1]
    eye = np.broadcast_to(np.eye(n), (*h.shape[:-2], n, n))
    r = np.linalg.qr(np.concatenate([h, eye], axis=-2), mode="r")
    return np.linalg.inv(r).conj().swapaxes(-1, -2)


def _variances(fa, mode):
    """Noise variances of the streams whose rows F a_m stack in fa (..., n, n).

    Parallel IF: ||F a_m||^2.  SIC: fa^T = Q R makes R^H R the SIC Gram
    matrix, entry (m, n) being a_m^H K a_n, so |diag R|^2 are the
    successively reduced variances.  Taking them from the same product as
    the parallel forms keeps each at or below its parallel value to rounding.
    """
    if mode == "if":
        return np.linalg.norm(fa, axis=-1) ** 2
    r = np.linalg.qr(fa.swapaxes(-1, -2), mode="r")
    return np.abs(np.diagonal(r, axis1=-2, axis2=-1)) ** 2


def _rates(variances):
    """Per-stream rates max(0, -log2 variance).  A variance that is not
    finite and positive raises NumericalDomainError."""
    if not np.all(np.isfinite(variances) & (variances > 0)):
        raise NumericalDomainError("integer-forcing noise variance is not positive")
    return np.maximum(0.0, -np.log(variances) / _LN2)


def if_rate(eff, mode="if", a=None):
    """Integer-forcing rate of an effective channel.

    mode "if" uses parallel decoding: stream m gets
    max(0, -log2 a_m^H K a_m) bits with K = (I + H^H H)^-1 = F^H F.
    mode "if-sic" decodes successively; the variances become the squared
    diagonal of the triangular factor of F A^T, which never increases any
    stream's variance, so it dominates plain IF row by row.
    The symmetric per-user rate is streams_per_user * worst stream / T.
    A noise variance that is not finite and positive raises
    NumericalDomainError.
    """
    f = _channel_factor(eff)
    check_choice(mode, _MODES, "mode")
    a = _search(f)[0] if a is None else _validate_a(a, f.shape[-1])
    fa = a @ f[0].T
    rates = _rates(_variances(fa, mode))
    sym = eff.streams_per_user * float(rates.min()) / eff.time_extension
    return IfResult(a_re=np.rint(a.real).astype(np.int64),
                    a_im=np.rint(a.imag).astype(np.int64),
                    per_stream_rate_bits=rates,
                    symmetric_rate_bits=sym,
                    mode=mode)


# ---------------------------------------------------------------------------
# conditioned simulations

def conditioned_rate_samples(n_users, sum_cap_bits, precoder_kind, mode, cfg):
    """Total symmetric IF rate (N users x per-user rate) for channels drawn
    conditioned on a sum capacity C <= MAX_IF_CAPACITY_BITS; Haar precoders
    are redrawn per trial from the same stream as the channel.

    Works on blocks of trials: every step but the lattice reduction and the
    greedy basis's row walk is a stacked numpy call, and row t equals
    N * if_rate(...).symmetric_rate_bits of trial t's channel.

    The search for A does not depend on the mode, so both modes' samples
    come from the same product F A^T, and the samples of the last inputs
    (users, C, precoder, seed, trials) are kept: a call on the same inputs,
    in either mode, is served from them without a draw or a search.  Each
    call returns its own copy.
    """
    check_if_capacity(sum_cap_bits)
    n_users = check_int(n_users, "n_users", 1)
    check_choice(precoder_kind, PRECODER_KINDS, "precoder kind")
    check_choice(mode, _MODES, "mode")
    seed = check_int(cfg.seed, "seed", 0)
    return _both_mode_samples(n_users, float(sum_cap_bits), precoder_kind, seed,
                              cfg.trials)[mode].copy()


@functools.lru_cache(maxsize=1)
def _both_mode_samples(n_users, sum_cap_bits, precoder_kind, seed, trials):
    """The samples of conditioned_rate_samples in each mode, by mode."""
    haar = precoder_kind == "haar"
    if not haar:
        fixed = Precoder.identity if precoder_kind == "none" else Precoder.badr_belfiore
        p = np.array(fixed(n_users).matrices)[None]
    # A Haar trial draws one 2x2 unitary per user after its sphere draw; as
    # standard_normal keeps no state, those are its stream's next 8N normals.
    samples = {mode: [] for mode in _MODES}
    for z in trial_normals(seed, trials, ((10 if haar else 2) * n_users,)):
        h = capacity_sphere_rows(z[:, :2 * n_users].reshape(-1, 2, n_users), sum_cap_bits)
        if haar:
            p = haar_unitary_rows(z[:, 2 * n_users:].reshape(-1, n_users, 2, 2, 2))
        f = _sqrt_factors(_effective_matrices(p, h[:, :, None, None]))
        fa = _search(f) @ f.swapaxes(-1, -2)
        for mode, blocks in samples.items():
            blocks.append(n_users * _rates(_variances(fa, mode)).min(axis=-1))
    return {mode: np.concatenate(blocks) for mode, blocks in samples.items()}

