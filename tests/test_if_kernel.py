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

The packed rows of the reduction are checked against wider fields, the
filtered rank decision against exact elimination alone, and the engine's
samples against digests that reach the top of its working range.
A call served from the cache of the last inputs' samples, in either mode,
is checked against a fresh call, and the cache's key against counted
searches and failing draws.
"""

import hashlib
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fadingmac import integer_forcing, linalg
from fadingmac.capacity import MacChannel
from fadingmac.errors import InvalidParameterError, NumericalDomainError
from fadingmac.integer_forcing import (
    _P,
    MAX_IF_CAPACITY_BITS,
    PRECODER_KINDS,
    Precoder,
    _add_if_independent,
    _first_basis,
    _lll_transform,
    _mod_p_image,
    _pack,
    _real_embedding,
    _unpack,
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
    integer_forcing._both_mode_samples.cache_clear()   # or the calls are served
    for mode in ("if", "if-sic"):
        got = conditioned_rate_samples(2, 10.0, "haar", mode, cfg)
        assert np.array_equal(got, whole[mode])
        assert np.array_equal(got, _per_trial_samples(2, 10.0, "haar", mode, cfg.seed,
                                                      cfg.trials))


def _stream_rates(a, f, mode):
    return integer_forcing._rates(integer_forcing._variances(a @ f.swapaxes(-1, -2), mode))


@pytest.mark.parametrize("n_users", [2, 3, 4])
@pytest.mark.parametrize("cap", [10.0, 40.0, 80.0])
def test_a_block_search_equals_searching_each_trial_alone(n_users, cap):
    # The greedy basis runs once per block, on the pools padded to the
    # widest; each trial's A, and so its rates, must be those of a block of
    # one.
    kinds = PRECODER_KINDS if n_users == 2 else ("none", "haar")
    for kind in kinds:
        f = np.array([_factor(_effective(rng, n_users, cap, kind))
                      for rng in trial_generators(33, 40)])
        block = integer_forcing._search(f)
        alone = [integer_forcing._search(fi[None]) for fi in f]
        assert np.array_equal(block, np.concatenate(alone)), kind
        for mode in ("if", "if-sic"):
            want = [_stream_rates(a, fi[None], mode) for a, fi in zip(alone, f)]
            assert np.array_equal(_stream_rates(block, f, mode), np.concatenate(want)), (kind, mode)


# sha256 of the concatenated complex128 matrices of lll_search(k) and of
# brute_force_search(k, radius=4) on criterion 9's 600 Grams, recorded with
# the per-trial greedy basis that preceded the block-wise one.
_CRITERION_9_DIGESTS = (
    "00c16674cef85f4cdef40e8d034c8141e1e7030388265d14307d02fc7309f44d",
    "aff06c949662df99e0f0dd986c0a98c225f8e08911a6cc27e255524a2b74e73e")


def test_gram_searches_keep_their_matrices_on_criterion_9():
    lll, brute = hashlib.sha256(), hashlib.sha256()
    for n, count, base in ((2, 500, 91), (4, 100, 92)):
        for i in range(count):
            rng = RngStream(base, i).generator()
            h = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2.0)
            k = np.linalg.inv(np.eye(n) + np.outer(h.conj(), h))
            lll.update(integer_forcing.lll_search(k).tobytes())
            brute.update(integer_forcing.brute_force_search(k, 4).tobytes())
    assert (lll.hexdigest(), brute.hexdigest()) == _CRITERION_9_DIGESTS


@pytest.mark.parametrize("kind", ["none", "haar"])
def test_an_all_zero_sphere_draw_raises(monkeypatch, kind):
    # A trial whose sphere normals are all zero raises, whatever its Haar
    # normals hold.  With blocks of 7 trials, trial 9 is in the second block.
    # The engine binds trial_normals by name, so the patch goes on
    # integer_forcing.
    cfg = SimConfig(trials=12, seed=23)
    monkeypatch.setattr(linalg, "_TRIAL_BLOCK", 7)
    real = integer_forcing.trial_normals

    def zero_sphere(seed, trials, shape):
        for first, block in zip(range(0, trials, 7), real(seed, trials, shape)):
            if first <= 9 < first + len(block):
                block[9 - first, :4] = 0.0
            yield block

    monkeypatch.setattr(integer_forcing, "trial_normals", zero_sphere)
    integer_forcing._both_mode_samples.cache_clear()
    with pytest.raises(NumericalDomainError, match="all zero"):
        conditioned_rate_samples(2, 10.0, kind, "if-sic", cfg)


def test_tie_sensitive_trial_keeps_its_rate():
    # Trial 2498 of seed 1 under RNG layout 1 (its own stream, RngStream(1,
    # 2498)) at C = 10: a size-reduction coefficient sits on -1.5 to the last
    # bit, so one changed bit of F would flip the basis (to 9.2233 bits).
    h = sample_capacity_sphere(2, 10.0, RngStream(1, 2498).generator())
    eff = build_effective_channel(MacChannel.from_scalar(h), Precoder.identity(2))
    assert 2 * if_rate(eff, mode="if").symmetric_rate_bits == 9.291452334940612


# ---------------------------------------------------------------------------
# the cache of both modes' samples for the last inputs

def _other_mode(mode):
    return "if-sic" if mode == "if" else "if"


def _no_draw(*args):
    raise AssertionError("a served or refused call drew trials")


@pytest.fixture
def searches(monkeypatch):
    """Start from an empty cache and count the blocks searched."""
    integer_forcing._both_mode_samples.cache_clear()
    real = integer_forcing._search
    calls = []

    def counted(f):
        calls.append(len(f))
        return real(f)

    monkeypatch.setattr(integer_forcing, "_search", counted)
    return calls


@pytest.mark.parametrize("mode", ["if", "if-sic"])
@pytest.mark.parametrize("cap", [10.0, 40.0])
@pytest.mark.parametrize("kind", PRECODER_KINDS)
def test_a_served_call_equals_a_fresh_one_and_searches_nothing(searches, monkeypatch,
                                                               kind, cap, mode):
    # After a call in the other mode, and after a repeat, a call is served:
    # it neither searches nor draws, and its rates are a fresh call's.
    cfg = SimConfig(trials=30, seed=24)
    fresh = conditioned_rate_samples(2, cap, kind, mode, cfg)
    integer_forcing._both_mode_samples.cache_clear()
    conditioned_rate_samples(2, cap, kind, _other_mode(mode), cfg)
    assert searches == [30, 30]
    monkeypatch.setattr(integer_forcing, "trial_normals", _no_draw)
    for _ in range(2):
        served = conditioned_rate_samples(2, cap, kind, mode, cfg)
        assert np.array_equal(served, fresh)
    assert searches == [30, 30]


_BASE = dict(n_users=2, cap=10.0, kind="haar", seed=25, trials=10)


def _run(mode, n_users, cap, kind, seed, trials):
    return conditioned_rate_samples(n_users, cap, kind, mode, SimConfig(trials=trials, seed=seed))


@pytest.mark.parametrize("name, value", [("n_users", 3), ("cap", 12.0), ("kind", "none"),
                                         ("kind", "badr_belfiore"), ("seed", 26),
                                         ("trials", 9)])
def test_changing_any_one_input_searches_again(searches, name, value):
    # Users, C, precoder, seed and trials fix every draw, so a change in any
    # one of them searches and gives that input's rates.  The cache holds one
    # entry, so the call after it searches the first inputs again.
    changed = {**_BASE, name: value}
    for mode in ("if", "if-sic"):
        _run(mode, **_BASE)
        searches.clear()
        got = _run(mode, **changed)
        assert searches == [changed["trials"]]
        assert np.array_equal(got, _per_trial_samples(
            changed["n_users"], changed["cap"], changed["kind"], mode, changed["seed"],
            changed["trials"]))
        searches.clear()
        _run(mode, **_BASE)
        assert searches == [_BASE["trials"]]


def test_inputs_that_fix_no_draw_are_served(searches):
    # The rate grid fixes no draw; C = 10 as an int, a numpy float or a 0-d
    # array is the float 10, and a numpy seed is its int: each call is served
    # from the first.
    cfg = SimConfig(trials=10, seed=25)
    want = conditioned_rate_samples(2, 10.0, "haar", "if", cfg)
    grid_cfg = SimConfig(trials=10, seed=25, rate_grid=np.linspace(0.0, 10.0, 5))
    numpy_seed = SimConfig(trials=10, seed=np.int64(25))
    for cap, c in [(10.0, grid_cfg), (10, cfg), (np.float64(10.0), cfg),
                   (np.array(10.0), cfg), (np.array(10.0), numpy_seed)]:
        assert np.array_equal(conditioned_rate_samples(2, cap, "haar", "if", c), want)
    assert searches == [10]


@pytest.mark.parametrize("seed", [[1], -1, 1.5])
def test_a_bad_seed_is_refused_before_any_draw(monkeypatch, seed):
    monkeypatch.setattr(integer_forcing, "trial_normals", _no_draw)
    with pytest.raises(InvalidParameterError, match="^seed must be a non-negative integer$"):
        conditioned_rate_samples(2, 10.0, "none", "if", SimConfig(trials=5, seed=seed))


_ABOVE_RANGE = f"integer forcing is limited to sum capacities up to {MAX_IF_CAPACITY_BITS} bits"


@pytest.mark.parametrize("cap", [math.nextafter(MAX_IF_CAPACITY_BITS, math.inf), 150.0])
def test_a_refused_call_leaves_the_cached_entry(searches, monkeypatch, cap):
    # A capacity above the working range is refused, for every precoder and
    # mode, before the cache is consulted; so are a bad mode and a bad seed.
    # So a run at the top of the range is still served from the entry its
    # inputs left, past any number of refused calls, and equals a fresh run.
    cfg = SimConfig(trials=6, seed=1)
    for kind in PRECODER_KINDS:
        integer_forcing._both_mode_samples.cache_clear()
        fresh = {mode: conditioned_rate_samples(2, MAX_IF_CAPACITY_BITS, kind, mode, cfg)
                 for mode in ("if", "if-sic")}
        searched = len(searches)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(integer_forcing, "trial_normals", _no_draw)
            for refused in PRECODER_KINDS:
                for refused_mode in ("if", "if-sic"):
                    with pytest.raises(InvalidParameterError, match=f"^{_ABOVE_RANGE}$"):
                        conditioned_rate_samples(2, cap, refused, refused_mode, cfg)
            with pytest.raises(InvalidParameterError, match="^mode must be"):
                conditioned_rate_samples(2, MAX_IF_CAPACITY_BITS, kind, "zf", cfg)
            with pytest.raises(InvalidParameterError, match="^seed must be"):
                conditioned_rate_samples(2, MAX_IF_CAPACITY_BITS, kind, "if",
                                         SimConfig(trials=6, seed=-1))
            for mode, want in fresh.items():
                assert np.array_equal(
                    conditioned_rate_samples(2, MAX_IF_CAPACITY_BITS, kind, mode, cfg), want)
        assert len(searches) == searched


def test_mutating_a_returned_array_leaves_the_next_served_result(searches):
    cfg = SimConfig(trials=10, seed=28)
    for mode in ("if", "if-sic", "if"):
        got = conditioned_rate_samples(2, 10.0, "haar", mode, cfg)
        want = got.copy()
        got[:] = -1.0
        assert np.array_equal(conditioned_rate_samples(2, 10.0, "haar", mode, cfg), want)
    assert searches == [10]


def test_threads_sharing_the_cache_get_their_own_rates():
    # Threads whose calls on different inputs interleave each get their own
    # inputs' rates: the cache is keyed by every input that fixes a draw,
    # and each call returns its own copy.
    runs = [(seed, mode) for seed in (30, 31, 32) for mode in ("if", "if-sic")]
    want = {}
    for seed, mode in runs:
        integer_forcing._both_mode_samples.cache_clear()
        want[seed, mode] = conditioned_rate_samples(2, 10.0, "haar", mode,
                                                    SimConfig(trials=6, seed=seed))
    bad = []

    def work(offset):
        for i in range(24):
            seed, mode = runs[(offset + i) % len(runs)]
            got = conditioned_rate_samples(2, 10.0, "haar", mode, SimConfig(trials=6, seed=seed))
            bad.extend([(seed, mode)] if not np.array_equal(got, want[seed, mode]) else [])

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert bad == []


# ---------------------------------------------------------------------------
# the packed rows of the reduction and the filtered rank test

@pytest.mark.parametrize("w", [8, 64, 128])
def test_packed_rows_round_trip_at_the_field_limits(w):
    top = 2 ** (w - 1)
    rows = [(-top, top - 1, 0, -1), (top - 1, -top, 1, 0), (5, -7, 1 - top, top - 2)]
    assert _unpack(_pack(rows, w), 4, w) == rows


def test_narrow_fields_give_the_same_transform(monkeypatch):
    # From 8-bit fields nearly every row update outgrows its field, so the
    # reduction keeps unpacking, widening and repacking U; U must not change.
    bases = []
    for n_users, cap, kind in ((2, 10.0, "badr_belfiore"), (2, 100.0, "haar"),
                               (4, 40.0, "haar"), (3, 100.0, "none")):
        for rng in trial_generators(31, 4):
            bases.append(_real_embedding(_factor(_effective(rng, n_users, cap, kind))))
    factors = [np.linalg.qr(b, mode="r") for b in bases]
    want = [_lll_transform(r) for r in factors]
    widths = []
    monkeypatch.setattr(integer_forcing, "_pack", lambda rows, w: (widths.append(w),
                                                                   _pack(rows, w))[1])
    monkeypatch.setattr(integer_forcing, "_FIELD_BITS", 8)
    assert [_lll_transform(r) for r in factors] == want
    assert max(widths) >= 64


def test_the_filter_prime_has_a_square_root_of_minus_one():
    assert _P % 4 == 1 and all(_P % d for d in range(2, int(_P ** 0.5) + 1))
    assert integer_forcing._J ** 2 % _P == _P - 1


def _gaussian_times(g, row):
    """The Gaussian integer g = (p, q), p + jq, times a row."""
    n = len(row) // 2
    (p, q), x, y = g, row[:n], row[n:]
    return (tuple(p * a - q * b for a, b in zip(x, y))
            + tuple(p * b + q * a for a, b in zip(x, y)))


def _exact_first_basis(rows, n):
    echelon, sel = [], []
    for i, row in enumerate(rows):
        if _add_if_independent(echelon, row):
            sel.append(i)
            if len(sel) == n:
                return sel
    return None


def _det2_mod_p(r, s):
    (a, b), (c, d) = _mod_p_image(r), _mod_p_image(s)
    return (a * d - b * c) % _P


@pytest.mark.parametrize("base", [10 ** 7, 2 ** 40])
def test_large_entry_rank_decisions_where_float_tests_fail(base):
    a = (base + _P, base, 7, 7)     # a - b = (_P, 0): det(a, b) = _P
    b = (1, 1, 0, 0)
    c = _gaussian_times((3, -2), a)
    # det(a, b) = _P is nonzero, but divisible by the filter's prime; c is a
    # multiple of a.  Either way the second row's image lies in the span of
    # the first's, so the filter cannot decide, and exact elimination must.
    assert any(_mod_p_image(a)) and _det2_mod_p(a, b) == _det2_mod_p(a, c) == 0
    with pytest.raises(NumericalDomainError, match="do not span"):
        _first_basis([b], 2)    # one row cannot span two streams
    assert _first_basis([a, b], 2) == _exact_first_basis([a, b], 2) == [0, 1]
    assert _first_basis([a, c, b], 2) == _exact_first_basis([a, c, b], 2) == [0, 2]
    # Plain floating-point tests can get these wrong: near 2^40 the
    # independent pair's smallest singular value falls below matrix_rank's
    # tolerance, and rounding in the LU can leave the dependent pair a
    # nonzero determinant.  Whether they do depends on the BLAS build, so
    # only the exact decisions above are asserted.


def test_an_exactly_accepted_row_ends_the_filter():
    # r = a + (j - _J) t has a's image but is independent of a, so the exact
    # test accepts it; then (j - _J) t = r - a puts t in the span of a and r
    # over C, though t's image is outside the span of a's image.  Only an
    # exact test after r rejects t.
    a, t, u = (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)
    r = tuple(x + y for x, y in zip(a, _gaussian_times((-integer_forcing._J, 1), t)))
    assert _mod_p_image(r) == _mod_p_image(a) and any(_mod_p_image(t))
    assert _first_basis([a, r, t, u], 3) == _exact_first_basis([a, r, t, u], 3) == [0, 1, 3]


def _filter_off(row):
    return [0] * (len(row) // 2)


@settings(max_examples=200, deadline=None)
@given(base=st.sampled_from([10 ** 7, 2 ** 40]), n=st.integers(1, 4),
       extra=st.integers(0, 3), dependent=st.sets(st.integers(1, 6), max_size=3),
       duplicate=st.sets(st.integers(1, 6), max_size=2),
       zero_image=st.sets(st.integers(0, 6), max_size=2),
       filtered=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
@example(base=10 ** 7, n=3, extra=1, dependent=set(), duplicate=set(), zero_image={1},
         filtered=True, seed=0)
@example(base=2 ** 40, n=2, extra=2, dependent=set(), duplicate={1}, zero_image={0},
         filtered=True, seed=1)
def test_filtered_rank_decision_equals_exact_elimination(base, n, extra, dependent, duplicate,
                                                         zero_image, filtered, seed):
    # Rows with entries near base, of four kinds by position: Gaussian-integer
    # combinations of the rows before them (`dependent`), copies of an
    # earlier row (`duplicate`), and (j - _J) times a fresh row
    # (`zero_image`), whose image under the filter's ring map is zero though
    # it is independent of the other rows over C; every other row is fresh.
    # So the filter often meets an image inside the selected rows' span, in
    # the first n rows or after them, and the exact test decides.  With
    # filtered False every image is zero, so every row is tested exactly.
    rng = np.random.default_rng(seed)

    def fresh():
        signs = rng.choice([-1, 1], 2 * n)
        return tuple(int(s) * base + int(v) for s, v in zip(signs, rng.integers(-9, 10, 2 * n)))

    rows = []
    for i in range(n + extra):
        if i in dependent:
            g = rng.integers(-3, 4, (len(rows), 2)).tolist()
            terms = [_gaussian_times(gi, row) for gi, row in zip(g, rows)]
            rows.append(tuple(map(sum, zip(*terms))))
        elif i in duplicate and rows:
            rows.append(rows[rng.integers(len(rows))])
        elif i in zero_image:
            rows.append(_gaussian_times((-integer_forcing._J, 1), fresh()))
            assert not any(_mod_p_image(rows[-1]))
        else:
            rows.append(fresh())
    want = _exact_first_basis(rows, n)
    with pytest.MonkeyPatch.context() as mp:
        if not filtered:
            mp.setattr(integer_forcing, "_mod_p_image", _filter_off)
        if want is None:
            with pytest.raises(NumericalDomainError, match="do not span"):
                _first_basis(rows, n)
        else:
            assert _first_basis(rows, n) == want


# sha256 of conditioned_rate_samples(users, C, kind, mode,
# SimConfig(trials=200, seed=7)).tobytes().  The C = 10 and C = 40 cells were
# recorded with the list-row LLL and the exact-only rank test that preceded
# the packed rows and the filter; the C = 80 cells, at the top of the
# engine's working range, before the engine refused any C above it.
_DIGESTS = {
    (2, 10.0, "none", "if"):
        "a51d0b72818643881d603149f2c2476f26aaf75e6925ff4cb0b2fc7bc9656763",
    (2, 40.0, "none", "if"):
        "2be417dc3b575626c455b75ec7753f41656fec3a855094c214fee1d8c561a225",
    (2, 80.0, "none", "if"):
        "0d707ad9cb57fd1604ac75846640908d152a4abde144028c6b1d71c78e8b4980",
    (2, 10.0, "none", "if-sic"):
        "f22b3dc63984567dac1da09c54c5d6a9cbf885555b7f2d6c1f796ecf42fad4a8",
    (2, 40.0, "none", "if-sic"):
        "9fb2c3de5fe12e5b7fa23c5891c768f6e80bc4a4321df182d71be9bfae017346",
    (2, 80.0, "none", "if-sic"):
        "424924918ae7f69a1f2886db9f6346150cbdef1d3ed2c47aecdff6613b848038",
    (2, 10.0, "badr_belfiore", "if"):
        "a349e0ef6bc44b95af9fc9c13f9552c8be2e1c1d079a8c5a85af0ab8b61ec615",
    (2, 40.0, "badr_belfiore", "if"):
        "da3d341897f6ac5d365964b849f4920625e2ea499594c8f7a0d9c2063ff14e07",
    (2, 80.0, "badr_belfiore", "if"):
        "d6e081191c78221a31754b96ff2a74fd08d792767944dbf81fd607c79c386c6b",
    (2, 10.0, "badr_belfiore", "if-sic"):
        "47928cca96f79c57da62e7892b712ecbef6845ec58f09303c23bb85526079efe",
    (2, 40.0, "badr_belfiore", "if-sic"):
        "6277dff31728dce5b98e92d7142de3f02d301d2c7d7c717a388e231acc702818",
    (2, 80.0, "badr_belfiore", "if-sic"):
        "e4c92b748ac9b2f25547566e7000620ba01e7c168b26748fae6c03e4d250bc40",
    (2, 10.0, "haar", "if"):
        "1424c5a251b5fed30b20eb8b16cd4a7ae98db86cfa8e31960424519c50c965a1",
    (2, 40.0, "haar", "if"):
        "06a4ee005f41345951b4d08b2e7d7ab1ddc825fb645033c77d062bfd5c0edc25",
    (2, 80.0, "haar", "if"):
        "a4d776c198d32708dd5f7d31d18f8d3a6469cf59e9a867027b125eb86806a03d",
    (2, 10.0, "haar", "if-sic"):
        "699f0826f7a650343f57e808c64fec89b20546e986e5ac6e908821a0a3d48e45",
    (2, 40.0, "haar", "if-sic"):
        "ef5b6c7b2dac452101aa6e6a4204449ea7aad965d4aa6dc01d7ff01d1381278d",
    (2, 80.0, "haar", "if-sic"):
        "107ed0f87f3b576975a3ab43710f98fa4c1a54d30c0678edac698e008cc08160",
    (3, 40.0, "haar", "if"):
        "3a8783447e1a85d9ba2a561230632d5da601d6bc29e45a9b30a1d4eee083ca4f",
    (3, 40.0, "haar", "if-sic"):
        "94a8de79b9f8c5052ad5f0b83042281d11b0edc65fab6573f6b5fcb47ca281b2",
    (4, 40.0, "haar", "if"):
        "8bb2b2a9c33ce11f902c27ef3180355cd0b792af2d0286c54124fa53186702aa",
    (4, 40.0, "haar", "if-sic"):
        "0176ccb14a422f9238ec173a8c49d2a104f991a15014b487e1ba5190421da68f",
}


@pytest.mark.parametrize("n_users, cap, kind, mode", sorted(_DIGESTS))
def test_engine_outputs_keep_their_digests(n_users, cap, kind, mode):
    samples = conditioned_rate_samples(n_users, cap, kind, mode, SimConfig(trials=200, seed=7))
    assert hashlib.sha256(samples.tobytes()).hexdigest() == _DIGESTS[n_users, cap, kind, mode]
