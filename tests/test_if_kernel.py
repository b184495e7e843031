"""The integer-forcing search against a per-trial numpy reference.

The reference below is the numpy formulation of the same search: LLL on a
numpy array with np.rint rounding, complex candidate rows, and greedy
selection with the floating-point ``np.linalg.matrix_rank``.  It performs the
same floating-point operations in the same order as the scalar kernel, so the
unimodular transforms, and every rate wherever its floating-point rank test
is reliable (up to about C = 80 bits), must match bit for bit.

The batched conditioned-rate engine is checked against a per-trial loop
over trial_generators and if_rate, row by row, and if_rate itself against
the reference's 2-D rate formulas.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fadingmac import linalg
from fadingmac.capacity import MacChannel
from fadingmac.errors import NumericalDomainError
from fadingmac.integer_forcing import (
    PRECODER_KINDS,
    Precoder,
    _add_if_independent,
    _lll_transform,
    _real_embedding,
    build_effective_channel,
    conditioned_rate_samples,
    if_rate,
)
from fadingmac.linalg import RngStream, sample_capacity_sphere, trial_generators
from fadingmac.montecarlo import SimConfig


# ---------------------------------------------------------------------------
# per-trial reference

def _ref_lll_transform(basis, delta=0.75):
    r = np.linalg.qr(basis, mode="r")
    d = np.diagonal(r)
    mu = (r / d[:, None]).T
    norms = d * d
    n = len(d)
    u = np.eye(n, dtype=np.int64)
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = int(np.rint(mu[k, j]))
            if q != 0:
                u[k] -= q * u[j]
                mu[k, :j] -= q * mu[j, :j]
                mu[k, j] -= q
        if norms[k] >= (delta - mu[k, k - 1] ** 2) * norms[k - 1]:
            k += 1
            continue
        mu_val = mu[k, k - 1]
        big = norms[k] + mu_val * mu_val * norms[k - 1]
        mu_new = mu_val * norms[k - 1] / big
        norms[k] = norms[k - 1] * norms[k] / big
        norms[k - 1] = big
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


def _ref_canonical_unit(vec):
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


def _ref_int_key(vec):
    return tuple(vec.real.astype(np.int64)), tuple(vec.imag.astype(np.int64))


def _ref_reduce(f):
    n = f.shape[0]
    u = _ref_lll_transform(_real_embedding(f))
    rows = [row[:n] + 1j * row[n:] for row in u.astype(float)]
    rows += [e.astype(complex) for e in np.eye(n)]
    seen, cands = set(), []
    for row in rows:
        canon = _ref_canonical_unit(row)
        if _ref_int_key(canon) not in seen:
            seen.add(_ref_int_key(canon))
            cands.append(canon)
    forms = np.linalg.norm(np.array(cands) @ f.T, axis=1) ** 2
    order = sorted(range(len(cands)), key=lambda i: (forms[i], _ref_int_key(cands[i])))
    sel = []
    for c in (cands[i] for i in order):
        if np.linalg.matrix_rank(np.array(sel + [c])) > len(sel):
            sel.append(c)
            if len(sel) == n:
                return np.array(sel)
    raise NumericalDomainError("candidate rows do not span the stream space")


def _factor(eff):
    """F = R^-H with R^H R = I + H^H H, as if_rate forms it."""
    h = np.asarray(eff.matrix, dtype=complex)
    n = h.shape[1]
    r = np.linalg.qr(np.vstack([h, np.eye(n)]), mode="r")
    return np.linalg.inv(r).conj().T


def _effective(rng, n_users, cap, kind):
    h = sample_capacity_sphere(n_users, cap, rng)
    if kind == "haar":
        pre = Precoder.haar_t2(n_users, rng)
    elif kind == "badr_belfiore" and n_users == 2:
        pre = Precoder.badr_belfiore()
    else:
        pre = Precoder.identity(n_users)
    return build_effective_channel(MacChannel.from_scalar(h), pre)


def _ref_rates(eff, mode):
    """Per-stream rates with the reference search, one trial at a time."""
    f = _factor(eff)
    fa = _ref_reduce(f) @ f.T
    if mode == "if":
        variances = np.linalg.norm(fa, axis=1) ** 2
    else:
        variances = np.abs(np.diagonal(np.linalg.qr(fa.T, mode="r"))) ** 2
    return np.maximum(0.0, -np.log(variances) / np.log(2.0))


def _reference_samples(cap, kind, mode, seed, trials):
    out = []
    for rng in trial_generators(seed, trials):
        eff = _effective(rng, 2, cap, kind)
        res = if_rate(eff, mode=mode, a=_ref_reduce(_factor(eff)))
        out.append(2 * res.symmetric_rate_bits)
    return np.array(out)


# ---------------------------------------------------------------------------
# the scalar kernel against the reference

@settings(max_examples=80, deadline=None)
@given(n_users=st.integers(2, 4), cap=st.floats(0.5, 80.0),
       kind=st.sampled_from(PRECODER_KINDS), seed=st.integers(0, 2 ** 32 - 1))
def test_lll_kernel_matches_numpy_reference(n_users, cap, kind, seed):
    rng = next(iter(trial_generators(seed, 1)))
    basis = _real_embedding(_factor(_effective(rng, n_users, cap, kind)))
    r = np.linalg.qr(basis, mode="r")
    assert np.array_equal(np.array(_lll_transform(r)), _ref_lll_transform(basis))


@pytest.mark.parametrize("cap", [4.0, 10.0, 20.0, 40.0])
def test_conditioned_samples_match_reference_bit_for_bit(cap):
    cfg = SimConfig(trials=40, seed=1)
    for kind in PRECODER_KINDS:
        for mode in ("if", "if-sic"):
            got = conditioned_rate_samples(2, cap, kind, mode, cfg)
            want = _reference_samples(cap, kind, mode, cfg.seed, cfg.trials)
            assert np.array_equal(got, want), (kind, mode)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 4), rows=st.integers(1, 4), dependent=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_exact_rank_matches_float_rank_on_small_entries(n, rows, dependent, seed):
    # Small entries keep np.linalg.matrix_rank reliable, so it is the oracle.
    rng = np.random.default_rng(seed)
    a = rng.integers(-3, 4, (rows, n)) + 1j * rng.integers(-3, 4, (rows, n))
    if dependent and rows >= 2:
        g = rng.integers(-2, 3, rows - 1) + 1j * rng.integers(-2, 3, rows - 1)
        a[-1] = g @ a[:-1]
    echelon = []
    rank = sum(_add_if_independent(echelon, tuple(int(v) for v in
                                                  np.concatenate([r.real, r.imag])))
               for r in a)
    assert rank == np.linalg.matrix_rank(a)


# ---------------------------------------------------------------------------
# the batched engine against a per-trial loop

def _per_trial_samples(n_users, cap, kind, mode, seed, trials):
    return np.array([n_users * if_rate(_effective(rng, n_users, cap, kind),
                                       mode=mode).symmetric_rate_bits
                     for rng in trial_generators(seed, trials)])


@settings(max_examples=60, deadline=None)
@given(n_users=st.integers(2, 4), cap=st.floats(0.5, 80.0),
       kind=st.sampled_from(PRECODER_KINDS), mode=st.sampled_from(["if", "if-sic"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_if_rate_equals_the_reference_rates(n_users, cap, kind, mode, seed):
    # if_rate is a one-row call into the stacked helpers of the engine; its
    # rates must still be those of the 2-D formulation, bit for bit.
    eff = _effective(next(iter(trial_generators(seed, 1))), n_users, cap, kind)
    assert np.array_equal(if_rate(eff, mode=mode).per_stream_rate_bits, _ref_rates(eff, mode))


@pytest.mark.parametrize("n_users", [2, 3, 4])
@pytest.mark.parametrize("cap", [4.0, 10.0, 40.0])
def test_engine_rows_equal_a_per_trial_loop(n_users, cap):
    cfg = SimConfig(trials=12, seed=21)
    kinds = PRECODER_KINDS if n_users == 2 else ("none", "haar")
    for kind in kinds:
        for mode in ("if", "if-sic"):
            got = conditioned_rate_samples(n_users, cap, kind, mode, cfg)
            want = _per_trial_samples(n_users, cap, kind, mode, cfg.seed, cfg.trials)
            assert np.array_equal(got, want), (kind, mode)


def test_engine_rows_do_not_depend_on_the_trial_block(monkeypatch):
    cfg = SimConfig(trials=20, seed=22)
    whole = {mode: conditioned_rate_samples(2, 10.0, "haar", mode, cfg)
             for mode in ("if", "if-sic")}
    monkeypatch.setattr(linalg, "_TRIAL_BLOCK", 7)
    for mode in ("if", "if-sic"):
        got = conditioned_rate_samples(2, 10.0, "haar", mode, cfg)
        assert np.array_equal(got, whole[mode])
        assert np.array_equal(got, _per_trial_samples(2, 10.0, "haar", mode, cfg.seed,
                                                      cfg.trials))


def test_all_zero_draw_in_a_haar_trial_is_replayed(monkeypatch):
    # Zeroing a whole row (sphere and precoder normals) redraws the trial:
    # the sphere through the sampler, then the precoders, from the generator
    # of SeedSequence(seed, spawn_key=(b, 1 + i)) for trial t = 4096 b + i.
    # So it must equal a row that holds that generator's normals.  With
    # blocks of 7 trials, trial 9 needs the second block's offset.
    cfg = SimConfig(trials=12, seed=23)
    monkeypatch.setattr(linalg, "_TRIAL_BLOCK", 7)
    real = linalg.trial_normals

    def with_rows(fill):
        def patched(seed, trials, shape):
            first = 0
            for block in real(seed, trials, shape):
                for t in (3, 9):
                    if first <= t < first + len(block):
                        block[t - first] = fill(seed, t, shape)
                first += len(block)
                yield block
        return patched

    def redraw(seed, t, shape):
        g = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, 1 + t)))
        return g.standard_normal(shape)

    plain = conditioned_rate_samples(2, 10.0, "haar", "if-sic", cfg)
    monkeypatch.setattr(linalg, "trial_normals", with_rows(redraw))
    redrawn = conditioned_rate_samples(2, 10.0, "haar", "if-sic", cfg)
    monkeypatch.setattr(linalg, "trial_normals", with_rows(lambda s, t, shape: np.zeros(shape)))
    zeroed = conditioned_rate_samples(2, 10.0, "haar", "if-sic", cfg)
    assert np.array_equal(zeroed, redrawn)
    assert np.array_equal(np.delete(zeroed, [3, 9]), np.delete(plain, [3, 9]))
    assert not np.array_equal(zeroed[[3, 9]], plain[[3, 9]])


def test_tie_sensitive_trial_keeps_its_rate():
    # Trial 2498 of seed 1 under RNG layout 1 (its own stream, RngStream(1,
    # 2498)) at C = 10: a size-reduction coefficient sits on -1.5 to the last
    # bit, so one changed bit of F would flip the basis (to 9.2233 bits).
    h = sample_capacity_sphere(2, 10.0, RngStream(1, 2498).generator())
    eff = build_effective_channel(MacChannel.from_scalar(h), Precoder.identity(2))
    assert 2 * if_rate(eff, mode="if").symmetric_rate_bits == 9.291452334940612
