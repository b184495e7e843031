"""Integer-forcing receivers for the conditioned MAC, with space-time precoding.

The receiver decodes integer combinations of the transmitted lattice
codewords.  With effective channel H (one column per stream) the noise
variance of the combination a is a^H (I + H^H H)^-1 a, each stream carries
max(0, -log2 variance) bits, and the symmetric rate is set by the worst
stream of a full-rank Gaussian-integer matrix A.  A is searched with LLL
reduction on the real embedding of the noise Gram matrix; an exhaustive
bounded-box search provides the oracle it is validated against.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .capacity import MacChannel
from .errors import InvalidParameterError, NumericalDomainError, check_int, check_positive
from .linalg import hermitian_inverse, sample_capacity_sphere, sample_haar_unitary, \
    trial_generators
from .montecarlo import default_rate_grid, empirical_cdf

_LN2 = math.log(2.0)
_SQRT5 = math.sqrt(5.0)

PRECODER_KINDS = ("none", "haar", "badr_belfiore")
BRUTE_FORCE_MAX_DIM = 4


# ---------------------------------------------------------------------------
# precoders and effective channels

def badr_belfiore_precoders():
    """The pair of unitary 2x2 golden-ratio precoders of Badr and Belfiore.

    Each user spreads one symbol pair over two channel uses; the golden-ratio
    structure keeps integer combinations well conditioned for every channel.
    """
    phi = (1.0 + _SQRT5) / 2.0
    phib = (1.0 - _SQRT5) / 2.0
    alpha = 1.0 + 1j * (1.0 - phi)
    alphab = 1.0 + 1j * (1.0 - phib)
    p1 = np.array([[alpha, alpha * phi],
                   [alphab, alphab * phib]], dtype=complex) / _SQRT5
    p2 = np.array([[1j * alpha, 1j * alpha * phi],
                   [alphab, alphab * phib]], dtype=complex) / _SQRT5
    return p1, p2


@dataclass(frozen=True)
class Precoder:
    """Per-user unitary spreading matrices over a common time extension."""

    kind: str
    matrices: tuple

    def __post_init__(self):
        if self.kind not in PRECODER_KINDS:
            raise InvalidParameterError(f"kind must be one of {PRECODER_KINDS}")
        if len(self.matrices) == 0:
            raise InvalidParameterError("at least one user required")
        t = self.matrices[0].shape[0]
        for m in self.matrices:
            if m.shape != (t, t):
                raise InvalidParameterError("precoder matrices must be square, equal size")
            if np.max(np.abs(m.conj().T @ m - np.eye(t))) > 1e-12:
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
        if n_users != 2:
            raise InvalidParameterError(
                "the golden-ratio pair is a two-user construction; use haar_t2")
        return cls(kind="badr_belfiore", matrices=badr_belfiore_precoders())

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
        m = np.asarray(self.matrix)
        if m.ndim != 2 or not np.all(np.isfinite(m.view(float))):
            raise InvalidParameterError("effective matrix must be 2-D and finite")
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
    if not isinstance(ch, MacChannel):
        raise InvalidParameterError("ch must be a MacChannel")
    if len(precoder.matrices) != ch.n_users:
        raise InvalidParameterError("precoder user count does not match the channel")
    t = precoder.time_extension
    if t > 1 and ch.n_tx != 1:
        raise InvalidParameterError("time-extended precoding requires n_tx = 1")
    blocks = [np.kron(p, h) for p, h in zip(precoder.matrices, ch.user_matrices)]
    return EffectiveChannel(matrix=np.hstack(blocks), n_users=ch.n_users,
                            streams_per_user=ch.n_tx * t, time_extension=t)


# ---------------------------------------------------------------------------
# integer-matrix search

def _real_embedding(k):
    """Map a Hermitian form on C^n to the equivalent form on R^(2n):
    a = u + jv satisfies a^H K a = [u v]^T M [u v]."""
    return np.block([[k.real, -k.imag], [k.imag, k.real]])


def _quad_forms(gram, rows):
    return np.einsum("mi,ij,mj->m", rows.conj(), gram, rows).real


def _gram_schmidt(b):
    n = b.shape[0]
    mu = np.zeros((n, n))
    bstar = np.zeros_like(b)
    norms = np.zeros(n)
    for i in range(n):
        v = b[i].copy()
        for j in range(i):
            mu[i, j] = float(b[i] @ bstar[j]) / norms[j]
            v -= mu[i, j] * bstar[j]
        bstar[i] = v
        norms[i] = float(v @ v)
        if norms[i] <= 0.0:
            raise NumericalDomainError("basis is numerically rank deficient")
    return mu, norms


def _lll_transform(basis, delta=0.75):
    """LLL-reduce the rows of a full-rank real basis; return the unimodular
    integer transform U such that U @ basis is reduced."""
    b = np.array(basis, dtype=float)
    n = b.shape[0]
    u = np.eye(n, dtype=np.int64)
    mu, norms = _gram_schmidt(b)
    k = 1
    guard = 0
    max_steps = 10000 * n * n
    while k < n:
        guard += 1
        if guard > max_steps:
            raise NumericalDomainError("lattice reduction failed to converge")
        for j in range(k - 1, -1, -1):
            q = int(np.rint(mu[k, j]))
            if q != 0:
                b[k] -= q * b[j]
                u[k] -= q * u[j]
                mu[k, :j] -= q * mu[j, :j]
                mu[k, j] -= q
        if norms[k] >= (delta - mu[k, k - 1] ** 2) * norms[k - 1]:
            k += 1
            continue
        # swap rows k-1 and k, updating the orthogonalization in place
        mu_val = mu[k, k - 1]
        big = norms[k] + mu_val * mu_val * norms[k - 1]
        if big <= 0.0:
            raise NumericalDomainError("basis is numerically rank deficient")
        mu_new = mu_val * norms[k - 1] / big
        norms[k] = norms[k - 1] * norms[k] / big
        norms[k - 1] = big
        b[[k - 1, k]] = b[[k, k - 1]]
        u[[k - 1, k]] = u[[k, k - 1]]
        if k >= 2:
            mu[[k - 1, k], :k - 1] = mu[[k, k - 1], :k - 1]
        mu[k, k - 1] = mu_new
        if k + 1 < n:
            t = mu[k + 1:, k].copy()
            mu[k + 1:, k] = mu[k + 1:, k - 1] - mu_val * t
            mu[k + 1:, k - 1] = t + mu_new * mu[k + 1:, k]
        k = max(k - 1, 1)
    return u


def _canonical_unit(vec):
    """Rotate by a Gaussian-integer unit so the first nonzero entry has
    positive real part and non-negative imaginary part.  Unit multiples of a
    row have identical quadratic forms, so this both deduplicates candidates
    and makes tie-breaking deterministic."""
    for x in vec:
        if x != 0:
            if x.real > 0 and x.imag >= 0:
                unit = 1.0
            elif x.real <= 0 and x.imag > 0:
                unit = -1j
            elif x.real < 0 and x.imag <= 0:
                unit = -1.0
            else:
                unit = 1j
            return vec * unit
    return vec


def _dedup_candidates(rows):
    seen = set()
    out = []
    for row in rows:
        canon = _canonical_unit(row)
        key = (tuple(canon.real.astype(np.int64)), tuple(canon.imag.astype(np.int64)))
        if key not in seen:
            seen.add(key)
            out.append(canon)
    return out


def _sorted_by_form(gram, cands):
    forms = [float(np.real(c.conj() @ gram @ c)) for c in cands]
    order = sorted(range(len(cands)),
                   key=lambda i: (forms[i],
                                  tuple(cands[i].real.astype(np.int64)),
                                  tuple(cands[i].imag.astype(np.int64))))
    return [cands[i] for i in order]


def _greedy_full_rank(cands, n):
    """Pick rows in form order, keeping each one that raises the rank over C.

    Independence is a matroid, so the greedy basis minimizes the worst
    quadratic form among all full-rank selections from the candidate pool.
    """
    sel = []
    for c in cands:
        trial = np.array(sel + [c])
        if np.linalg.matrix_rank(trial) > len(sel):
            sel.append(c)
            if len(sel) == n:
                return np.array(sel)
    raise NumericalDomainError("candidate rows do not span the stream space")


def _check_gram(gram):
    k = np.asarray(gram, dtype=complex)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise InvalidParameterError("Gram matrix must be square")
    if not np.all(np.isfinite(k.view(float))):
        raise InvalidParameterError("Gram matrix must be finite")
    if not np.allclose(k, k.conj().T, rtol=1e-10, atol=1e-12):
        raise InvalidParameterError("Gram matrix must be Hermitian")
    return (k + k.conj().T) / 2.0


def lll_search(gram):
    """Full-rank Gaussian-integer matrix with small quadratic forms a^H K a.

    Reduces the real embedding of K with LLL (delta = 0.75), lifts the 2n
    reduced rows back to C^n, adds the unit rows, and greedily assembles a
    basis in form order.  The unit rows guarantee full rank and that no
    selected row is worse than the worst diagonal entry of K.
    """
    k = _check_gram(gram)
    n = k.shape[0]
    m = _real_embedding(k)
    try:
        v = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalDomainError("Gram matrix is not positive definite") from exc
    u = _lll_transform(v)
    cands = [row[:n] + 1j * row[n:] for row in u.astype(float)]
    cands += [e.astype(complex) for e in np.eye(n)]
    cands = _dedup_candidates([c for c in cands if np.any(c != 0)])
    return _greedy_full_rank(_sorted_by_form(k, cands), n)


def _points_in_ellipsoid(m, bound, radius):
    """All nonzero integer vectors with x^T M x <= bound and |x_i| <= radius."""
    nn = m.shape[0]
    r = np.linalg.cholesky(m).T
    coords = np.zeros(nn, dtype=np.int64)
    results = []

    def descend(i, budget):
        t = float(r[i, i + 1:] @ coords[i + 1:]) if i + 1 < nn else 0.0
        rad = math.sqrt(max(budget, 0.0))
        lo = max(math.ceil((-rad - t) / r[i, i] - 1e-12), -radius)
        hi = min(math.floor((rad - t) / r[i, i] + 1e-12), radius)
        for ai in range(lo, hi + 1):
            term = (r[i, i] * ai + t) ** 2
            if term > budget + 1e-12:
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
    """Oracle search: the full-rank matrix minimizing the worst quadratic form
    over Gaussian-integer rows with |Re|, |Im| <= radius.

    Enumeration is pruned at the largest diagonal entry of K: the unit rows
    always complete a partial selection, so no optimal row can have a larger
    form.  This keeps the result exactly equal to enumerating the whole box.
    """
    k = _check_gram(gram)
    n = k.shape[0]
    if n > BRUTE_FORCE_MAX_DIM:
        raise InvalidParameterError(
            f"exhaustive search limited to dimension {BRUTE_FORCE_MAX_DIM}")
    radius = check_int(radius, "radius", 1)
    m = _real_embedding(k)
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalDomainError("Gram matrix is not positive definite") from exc
    bound = float(np.max(np.diagonal(m))) * (1.0 + 1e-9) + 1e-12
    pts = _points_in_ellipsoid(m, bound, radius)
    cands = [p[:n].astype(float) + 1j * p[n:].astype(float) for p in pts]
    cands += [e.astype(complex) for e in np.eye(n)]
    cands = _dedup_candidates(cands)
    return _greedy_full_rank(_sorted_by_form(k, cands), n)


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
    re = np.rint(a.real)
    im = np.rint(a.imag)
    if np.max(np.abs(a.real - re)) > 1e-9 or np.max(np.abs(a.imag - im)) > 1e-9:
        raise InvalidParameterError("matrix entries must be Gaussian integers")
    a = re + 1j * im
    if np.linalg.matrix_rank(a) != n:
        raise InvalidParameterError("integer matrix must be full rank")
    return a


def if_rate(eff, mode="if", a=None, sic_order="natural"):
    """Integer-forcing rate of an effective channel.

    mode "if" uses parallel decoding: stream m gets
    max(0, -log2 a_m^H K a_m) bits with K = (I + H^H H)^-1.
    mode "if-sic" decodes successively; the variances become the squared
    diagonal of the Cholesky factor of A K A^H, which never increases any
    stream's variance, so it dominates plain IF row by row.
    sic_order "best" tries every decode order (up to 4 streams).
    The symmetric per-user rate is streams_per_user * worst stream / T.
    A noise variance that is not finite and positive, which rounding in K
    can produce at high capacities, raises NumericalDomainError.
    """
    if not isinstance(eff, EffectiveChannel):
        raise InvalidParameterError("eff must be an EffectiveChannel")
    if mode not in ("if", "if-sic"):
        raise InvalidParameterError("mode must be 'if' or 'if-sic'")
    h = np.asarray(eff.matrix, dtype=complex)
    n = h.shape[1]
    k = hermitian_inverse(np.eye(n, dtype=complex) + h.conj().T @ h)
    a = lll_search(k) if a is None else _validate_a(a, n)
    if mode == "if":
        variances = _quad_forms(k, a)
    else:
        a, variances = _sic_variances(k, a, sic_order)
    if not np.all(np.isfinite(variances) & (variances > 0)):
        raise NumericalDomainError("integer-forcing noise variance is not positive")
    rates = np.maximum(0.0, -np.log(variances) / _LN2)
    sym = eff.streams_per_user * float(rates.min()) / eff.time_extension
    return IfResult(a_re=np.rint(a.real).astype(np.int64),
                    a_im=np.rint(a.imag).astype(np.int64),
                    per_stream_rate_bits=rates,
                    symmetric_rate_bits=sym,
                    mode=mode)


def _sic_variances(k, a, sic_order):
    if sic_order not in ("natural", "best"):
        raise InvalidParameterError("sic_order must be 'natural' or 'best'")
    n = a.shape[0]

    def variances_for(rows):
        # (m, m) entry of this Gram matrix is rows_m^H K rows_m, matching
        # the parallel-decoding forms; its Cholesky diagonal gives the
        # successively reduced variances.
        g = rows.conj() @ k @ rows.T
        low = np.linalg.cholesky((g + g.conj().T) / 2.0)
        return np.diagonal(low).real ** 2

    if sic_order == "natural" or n > 4:
        return a, variances_for(a)
    best_rows = None
    best_var = None
    best_min = -math.inf
    for perm in itertools.permutations(range(n)):
        rows = a[list(perm)]
        var = variances_for(rows)
        worst = -np.log(var.max())
        if worst > best_min:
            best_min = worst
            best_rows = rows
            best_var = var
    return best_rows, best_var


# ---------------------------------------------------------------------------
# conditioned simulations and capacity fractions

def _fixed_precoder(kind, n_users):
    if kind == "none":
        return Precoder.identity(n_users)
    if kind == "badr_belfiore":
        return Precoder.badr_belfiore(n_users)
    if kind == "haar":
        return None
    raise InvalidParameterError(f"precoder kind must be one of {PRECODER_KINDS}")


def conditioned_rate_samples(n_users, sum_cap_bits, precoder_kind, mode, cfg):
    """Total symmetric IF rate (N users x per-user rate) for channels drawn
    conditioned on the sum capacity.  Haar precoders are redrawn per trial
    from the same stream as the channel."""
    check_positive(sum_cap_bits, "conditioning capacity")
    fixed = _fixed_precoder(precoder_kind, n_users)
    samples = np.empty(cfg.trials)
    for t, rng in enumerate(trial_generators(cfg.seed, cfg.trials)):
        h = sample_capacity_sphere(n_users, sum_cap_bits, rng)
        pre = fixed if fixed is not None else Precoder.haar_t2(n_users, rng)
        eff = build_effective_channel(MacChannel.from_scalar(h), pre)
        res = if_rate(eff, mode=mode)
        samples[t] = n_users * res.symmetric_rate_bits
    return samples


def if_rate_cdf_conditioned(n_users, sum_cap_bits, precoder_kind, mode, cfg,
                            rate_convention="total"):
    """Empirical CDF of the achieved IF rate conditioned on the sum capacity.

    rate_convention "total" uses N x per-user rate on the grid axis (the
    natural axis for comparing against the sum capacity); "per-user" divides
    by N.
    """
    if rate_convention not in ("total", "per-user"):
        raise InvalidParameterError("rate_convention must be 'total' or 'per-user'")
    samples = conditioned_rate_samples(n_users, sum_cap_bits, precoder_kind, mode, cfg)
    top = sum_cap_bits if rate_convention == "total" else sum_cap_bits / n_users
    if rate_convention == "per-user":
        samples = samples / n_users
    grid = cfg.rate_grid if cfg.rate_grid is not None else default_rate_grid(top)
    return empirical_cdf(samples, grid, cfg.trials)


def ml_rate_quantile(n_users, sum_cap_bits, outage_level):
    """Largest total rate whose conditional outage stays within outage_level
    for a joint (maximum-likelihood) receiver.

    Exact CDF inversion for two users; for more users the clamped union
    upper bound is inverted instead, giving a conservative quantile.
    """
    if not (0.0 < outage_level < 1.0):
        raise InvalidParameterError("outage_level must lie in (0, 1)")
    check_positive(sum_cap_bits, "sum capacity")
    if n_users == 2:
        r = 2.0 * math.log1p(0.5 * outage_level * math.expm1(sum_cap_bits * _LN2)) / _LN2
        return min(sum_cap_bits, r)
    from .bounds import scalar_bounds
    if scalar_bounds(n_users, sum_cap_bits, sum_cap_bits).upper <= outage_level:
        return sum_cap_bits
    lo, hi = 0.0, sum_cap_bits
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if scalar_bounds(n_users, mid, sum_cap_bits).upper <= outage_level:
            lo = mid
        else:
            hi = mid
    return lo


def fraction_of_capacity(n_users, cap_grid, outage_level, scheme, cfg=None,
                         precoder_kind="badr_belfiore"):
    """Fraction of the sum capacity attainable at a fixed outage level.

    scheme "ml" uses the analytic quantile; "if" and "if-sic" estimate the
    empirical quantile of the conditioned rate samples.  Returns a list of
    (sum capacity, fraction) pairs.
    """
    if not (0.0 < outage_level < 1.0):
        raise InvalidParameterError("outage_level must lie in (0, 1)")
    if scheme not in ("ml", "if", "if-sic"):
        raise InvalidParameterError("scheme must be 'ml', 'if' or 'if-sic'")
    if scheme != "ml" and cfg is None:
        raise InvalidParameterError("empirical schemes need a SimConfig")
    out = []
    for cap in cap_grid:
        cap = float(cap)
        if scheme == "ml":
            r = ml_rate_quantile(n_users, cap, outage_level)
        else:
            samples = np.sort(conditioned_rate_samples(
                n_users, cap, precoder_kind, scheme, cfg))
            r = float(samples[int(math.floor(outage_level * cfg.trials))])
        out.append((cap, min(1.0, r / cap)))
    return out


def ml_mean_rate_fraction(sum_cap_bits):
    """E[symmetric capacity | C] / C for two scalar users, in closed form.

    Integrates the exact conditional CDF: E = C - int_0^C F(R) dR with
    F(R) = 2 (2^(R/2) - 1) / (2^C - 1).
    """
    c = sum_cap_bits
    check_positive(c, "sum capacity")
    denom = math.expm1(c * _LN2)
    integral = 2.0 * ((2.0 / _LN2) * math.expm1(c * _LN2 / 2.0) - c) / denom
    return (c - integral) / c
