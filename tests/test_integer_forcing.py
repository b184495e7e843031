"""Integer-forcing receiver tests.

Structural identities (unitarity, Kronecker layout, Cholesky bookkeeping)
are exact; the lattice search is checked against exhaustive enumeration on
small instances; conditioned-rate statistics only need determinism and the
capacity ceiling here, the distributional checks live in the acceptance
suite.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fadingmac import integer_forcing, linalg
from fadingmac.capacity import MacChannel, sum_capacity
from fadingmac.errors import InvalidParameterError, NumericalDomainError
from fadingmac.integer_forcing import (
    MAX_IF_CAPACITY_BITS,
    PRECODER_KINDS,
    EffectiveChannel,
    IfResult,
    Precoder,
    _canonical_unit,
    _points_in_ellipsoid,
    _real_embedding,
    brute_force_search,
    build_effective_channel,
    conditioned_rate_samples,
    exhaustive_search,
    if_rate,
    lll_search,
)
from fadingmac.linalg import RngStream, sample_capacity_sphere
from fadingmac.montecarlo import SimConfig

_SQRT5 = math.sqrt(5.0)


def _random_scalar_eff(rng, n_users=2, scale=1.0):
    h = scale * (rng.standard_normal(n_users) + 1j * rng.standard_normal(n_users))
    h = h / math.sqrt(2.0)
    return build_effective_channel(MacChannel.from_scalar(h),
                                   Precoder.identity(n_users))


def _gram_of(eff):
    h = eff.matrix
    n = h.shape[1]
    return np.linalg.inv(np.eye(n) + h.conj().T @ h)


def test_golden_precoders_unitary_and_pinned():
    p1, p2 = Precoder.badr_belfiore().matrices
    for p in (p1, p2):
        assert np.max(np.abs(p.conj().T @ p - np.eye(2))) < 1e-12
    assert abs(abs(p1[0, 0]) ** 2 - (5.0 - _SQRT5) / 10.0) < 1e-14
    # second precoder is the first with its top row rotated by j
    assert np.max(np.abs(p2[0] - 1j * p1[0])) < 1e-15
    assert np.max(np.abs(p2[1] - p1[1])) < 1e-15


def test_precoder_validation():
    with pytest.raises(InvalidParameterError, match="two-user construction; use the haar"):
        Precoder.badr_belfiore(n_users=3)
    with pytest.raises(InvalidParameterError):
        Precoder(kind="none", matrices=(np.eye(2) * 2.0,))
    with pytest.raises(InvalidParameterError):
        Precoder(kind="golden", matrices=(np.eye(2, dtype=complex),))
    with pytest.raises(InvalidParameterError):
        Precoder(kind="none", matrices=())
    for matrices in ((np.eye(2), np.eye(1)), (np.ones((2, 1)),)):
        with pytest.raises(InvalidParameterError, match="must be square, equal size"):
            Precoder(kind="none", matrices=matrices)
    with pytest.raises(InvalidParameterError, match="column count must be n_users"):
        EffectiveChannel(matrix=np.eye(2), n_users=2, streams_per_user=2, time_extension=1)
    with pytest.raises(InvalidParameterError, match="multiple of the time extension"):
        EffectiveChannel(matrix=np.ones((3, 4)), n_users=2, streams_per_user=2, time_extension=2)
    assert Precoder.identity(3).time_extension == 1
    rng = RngStream(0, 0).generator()
    haar = Precoder.haar_t2(4, rng)
    assert haar.time_extension == 2
    assert len(haar.matrices) == 4


def test_effective_channel_kron_structure():
    h = np.array([0.7 - 0.1j, 1.3 + 0.4j])
    ch = MacChannel.from_scalar(h)
    eff = build_effective_channel(ch, Precoder.badr_belfiore())
    p1, p2 = Precoder.badr_belfiore().matrices
    assert eff.matrix.shape == (2, 4)
    assert eff.streams_per_user == 2 and eff.time_extension == 2
    assert np.max(np.abs(eff.matrix[:, :2] - h[0] * p1)) < 1e-14
    assert np.max(np.abs(eff.matrix[:, 2:] - h[1] * p2)) < 1e-14
    plain = build_effective_channel(ch, Precoder.identity(2))
    assert np.max(np.abs(plain.matrix - h[None, :])) < 1e-15


@pytest.mark.parametrize("kind, n_users, n_rx, n_tx", [
    ("none", 2, 1, 1), ("none", 3, 2, 2), ("none", 2, 3, 2),
    ("badr_belfiore", 2, 1, 1), ("badr_belfiore", 2, 3, 1),
    ("haar", 2, 1, 1), ("haar", 4, 2, 1)])
def test_effective_channel_equals_np_kron_bit_for_bit(kind, n_users, n_rx, n_tx):
    rng = RngStream(9, n_users * 100 + n_rx * 10 + n_tx).generator()
    for _ in range(50):
        z = rng.standard_normal((2, n_users, n_rx, n_tx))
        ch = MacChannel(user_matrices=list(z[0] + 1j * z[1]))
        if kind == "haar":
            pre = Precoder.haar_t2(n_users, rng)
        else:
            pre = Precoder.identity(n_users) if kind == "none" else Precoder.badr_belfiore()
        eff = build_effective_channel(ch, pre)
        want = np.hstack([np.kron(p, h) for p, h in zip(pre.matrices, ch.user_matrices)])
        assert np.array_equal(eff.matrix, want)


def test_time_extension_requires_single_tx_antenna():
    rng = RngStream(1, 0).generator()
    mats = [rng.standard_normal((2, 2)) + 0j for _ in range(2)]
    ch = MacChannel(user_matrices=mats)
    with pytest.raises(InvalidParameterError):
        build_effective_channel(ch, Precoder.badr_belfiore())
    with pytest.raises(InvalidParameterError):
        build_effective_channel("ch", Precoder.identity(2))
    with pytest.raises(InvalidParameterError):
        build_effective_channel(MacChannel.from_scalar([1.0, 1.0, 1.0]),
                                Precoder.badr_belfiore())


def test_real_embedding_preserves_quadratic_forms():
    rng = RngStream(2, 0).generator()
    for _ in range(20):
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        k = x @ x.conj().T + np.eye(3)
        m = _real_embedding(k)
        a = (rng.integers(-3, 4, size=3) + 1j * rng.integers(-3, 4, size=3)).astype(complex)
        v = np.concatenate([a.real, a.imag])
        direct = float(np.real(a.conj() @ k @ a))
        assert abs(direct - float(v @ m @ v)) < 1e-9 * max(1.0, abs(direct))


def test_orthogonal_channel_is_exact():
    # Two orthogonal unit-stream users at per-stream gain 3: the integer
    # matrix is a unit matrix and integer forcing loses nothing.
    eff = EffectiveChannel(matrix=math.sqrt(3.0) * np.eye(2, dtype=complex),
                           n_users=2, streams_per_user=1, time_extension=1)
    cap = float(np.log2(np.linalg.det(
        np.eye(2) + eff.matrix.conj().T @ eff.matrix).real))
    for mode in ("if", "if-sic"):
        res = if_rate(eff, mode=mode)
        assert abs(2.0 * res.symmetric_rate_bits - cap) < 1e-9
        assert np.max(np.abs(res.per_stream_rate_bits - 2.0)) < 1e-9
        assert abs(abs(np.linalg.det(res.a_matrix)) - 1.0) < 1e-12


def test_sic_dominates_plain_per_stream():
    rng = RngStream(3, 0).generator()
    worst = 0.0
    for i in range(150):
        n_users = 2 if i % 2 == 0 else 4
        eff = _random_scalar_eff(rng, n_users=n_users, scale=2.0)
        plain = if_rate(eff, mode="if")
        sic = if_rate(eff, mode="if-sic", a=plain.a_matrix)
        gap = float(np.min(sic.per_stream_rate_bits - plain.per_stream_rate_bits))
        worst = min(worst, gap)
        assert sic.symmetric_rate_bits >= plain.symmetric_rate_bits - 1e-9
    assert worst > -1e-9


def test_sic_rates_sum_to_capacity_when_unimodular():
    rng = RngStream(4, 0).generator()
    checked = 0
    for _ in range(40):
        eff = _random_scalar_eff(rng, n_users=2, scale=3.0)
        res = if_rate(eff, mode="if-sic")
        if abs(abs(np.linalg.det(res.a_matrix)) - 1.0) > 1e-9:
            continue
        if np.min(res.per_stream_rate_bits) <= 1e-9:
            continue  # the zero clamp would break the determinant identity
        cap = sum_capacity(MacChannel(user_matrices=[
            eff.matrix[:, [j]] for j in range(2)]))
        assert abs(float(np.sum(res.per_stream_rate_bits)) - cap) < 1e-6
        checked += 1
    assert checked >= 10


def test_lll_search_output_contract():
    rng = RngStream(5, 0).generator()
    for _ in range(25):
        eff = _random_scalar_eff(rng, n_users=3)
        k = _gram_of(eff)
        a = lll_search(k)
        assert a.shape == (3, 3)
        assert np.max(np.abs(a.real - np.rint(a.real))) == 0.0
        assert np.max(np.abs(a.imag - np.rint(a.imag))) == 0.0
        assert np.linalg.matrix_rank(a) == 3
        forms = np.einsum("mi,ij,mj->m", a.conj(), k, a).real
        assert float(forms.max()) <= float(np.max(np.diagonal(k).real)) + 1e-12


def test_lll_matches_exhaustive_search():
    rng = RngStream(6, 0).generator()
    agree = 0
    for _ in range(40):
        eff = _random_scalar_eff(rng, n_users=2)
        k = _gram_of(eff)
        lll_worst = float(np.max(np.einsum(
            "mi,ij,mj->m", lll_search(k).conj(), k, lll_search(k)).real))
        a = brute_force_search(k, radius=4)
        brute_worst = float(np.max(np.einsum("mi,ij,mj->m", a.conj(), k, a).real))
        assert brute_worst <= lll_worst + 1e-9
        if abs(brute_worst - lll_worst) < 1e-9:
            agree += 1
    assert agree >= 34
    for _ in range(6):
        eff = _random_scalar_eff(rng, n_users=4)
        k = _gram_of(eff)
        lll_worst = float(np.max(np.einsum(
            "mi,ij,mj->m", lll_search(k).conj(), k, lll_search(k)).real))
        a = brute_force_search(k, radius=3)
        brute_worst = float(np.max(np.einsum("mi,ij,mj->m", a.conj(), k, a).real))
        assert brute_worst <= lll_worst + 1e-9


def test_ellipsoid_slack_scales_with_the_bound():
    # One user at C = 80 bits: F = 2^-40, so every form is |a|^2 2^-80.  An
    # absolute slack would admit the whole box; the four units alone are
    # within the bound.
    f = np.array([[2.0 ** -40]])
    pts = _points_in_ellipsoid(_real_embedding(f), 2.0 ** -80 * (1.0 + 1e-9), radius=3)
    assert sorted(map(tuple, pts)) == [(-1, 0), (0, -1), (0, 1), (1, 0)]
    assert np.array_equal(brute_force_search(np.array([[2.0 ** -80]]), radius=3), [[1.0]])


def test_brute_force_validation():
    with pytest.raises(InvalidParameterError):
        brute_force_search(np.eye(5), radius=2)
    with pytest.raises(InvalidParameterError):
        brute_force_search(np.eye(2), radius=0)
    with pytest.raises(InvalidParameterError):
        brute_force_search(np.eye(2), radius=1.5)
    with pytest.raises(InvalidParameterError):
        brute_force_search(np.array([[1.0, 1.0], [0.0, 1.0]]), radius=2)
    with pytest.raises(NumericalDomainError):
        brute_force_search(np.zeros((2, 2)), radius=2)
    with pytest.raises(InvalidParameterError, match="must be an EffectiveChannel"):
        exhaustive_search(np.eye(2), radius=2)
    wide = EffectiveChannel(matrix=np.ones((1, 5)), n_users=5, streams_per_user=1,
                            time_extension=1)
    with pytest.raises(InvalidParameterError, match="limited to dimension"):
        exhaustive_search(wide, radius=2)
    with pytest.raises(InvalidParameterError):
        exhaustive_search(_random_scalar_eff(RngStream(9, 0).generator()), radius=0)


@pytest.mark.parametrize("cap", [60, 80])
def test_exhaustive_search_from_f_checks_the_engine_at_the_top_of_the_range(cap):
    # The engine's own channels (two users, no precoder, seed 3).  K = F^H F
    # of most of them is too ill-conditioned for a Cholesky factor, so the
    # Gram adapters cannot search them; the search from F runs on all 40.
    # The radius-4 box is too small here: the engine beats it on every trial.
    z = np.concatenate(list(linalg.trial_normals(3, 40, (4,))))
    h = linalg.capacity_sphere_rows(z.reshape(-1, 2, 2), cap)
    engine = conditioned_rate_samples(2, cap, "none", "if", SimConfig(trials=40, seed=3))
    better = 0
    for row, total in zip(h, engine):
        eff = EffectiveChannel(matrix=row[None], n_users=2, streams_per_user=1,
                               time_extension=1)
        a = exhaustive_search(eff, radius=4)
        assert a.shape == (2, 2) and np.array_equal(a, np.rint(a.real) + 1j * np.rint(a.imag))
        oracle = if_rate(eff, a=a).symmetric_rate_bits   # refuses a rank-deficient A
        rate = if_rate(eff).symmetric_rate_bits
        assert 2 * rate == total
        assert rate >= oracle - 1e-9
        better += rate > oracle + 1e-9
    assert better == 40


def test_canonical_unit_rotations():
    # rows are (re_1..re_n, im_1..im_n)
    assert _canonical_unit((-1, 0)) == (1, 0)        # -1
    assert _canonical_unit((0, 1)) == (1, 0)         # j
    assert _canonical_unit((0, -1)) == (1, 0)        # -j
    assert _canonical_unit((0, -2, 0, 1)) == (0, 1, 0, 2)   # (0, -2 + j)
    assert _canonical_unit((0, 0, 0, 0)) == (0, 0, 0, 0)


def test_integer_matrix_validation():
    rng = RngStream(7, 0).generator()
    eff = _random_scalar_eff(rng, n_users=2)
    with pytest.raises(InvalidParameterError):
        if_rate(eff, a=np.array([[1.5, 0.0], [0.0, 1.0]]))
    with pytest.raises(InvalidParameterError):
        if_rate(eff, a=np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(InvalidParameterError):
        if_rate(eff, a=np.eye(3))
    with pytest.raises(InvalidParameterError):
        if_rate(eff, mode="zf")
    with pytest.raises(InvalidParameterError):
        if_rate(np.eye(2))
    res = if_rate(eff, a=np.eye(2))
    assert isinstance(res, IfResult)
    assert np.array_equal(res.a_matrix, np.eye(2).astype(complex))


def test_conditioned_samples_deterministic_and_capped():
    cfg = SimConfig(trials=60, seed=12)
    a = conditioned_rate_samples(2, 10.0, "badr_belfiore", "if-sic", cfg)
    b = conditioned_rate_samples(2, 10.0, "badr_belfiore", "if-sic", cfg)
    assert np.array_equal(a, b)
    assert np.all(a >= 0.0)
    assert np.all(a <= 10.0 + 1e-9)
    haar = conditioned_rate_samples(2, 10.0, "haar", "if", cfg)
    assert np.all(haar <= 10.0 + 1e-9)
    with pytest.raises(InvalidParameterError):
        conditioned_rate_samples(2, 0.0, "none", "if", cfg)
    with pytest.raises(InvalidParameterError):
        conditioned_rate_samples(2, 10.0, "golden", "if", cfg)
    with pytest.raises(InvalidParameterError):
        conditioned_rate_samples(1.5, 10.0, "none", "if", cfg)


def test_unitary_precoding_preserves_sum_capacity():
    rng = RngStream(13, 0).generator()
    for kind in ("badr_belfiore", "haar"):
        for _ in range(10):
            h = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            pre = (Precoder.badr_belfiore() if kind == "badr_belfiore"
                   else Precoder.haar_t2(2, rng))
            eff = build_effective_channel(MacChannel.from_scalar(h), pre)
            m = eff.matrix
            cap_block = float(np.log2(np.linalg.det(
                np.eye(m.shape[0]) + m @ m.conj().T).real))
            cap_scalar = math.log2(1.0 + float(np.sum(np.abs(h) ** 2)))
            assert abs(cap_block - eff.time_extension * cap_scalar) < 1e-9


def test_if_rate_never_returns_non_finite_rates_at_high_capacity():
    # At C = 60 bits an explicitly formed K = (I + H^H H)^-1 loses every
    # digit of its small eigenvalue; the square-root factor keeps each trial
    # finite and within the sum capacity.
    for mode in ("if", "if-sic"):
        for t in range(64):
            h = sample_capacity_sphere(2, 60.0, RngStream(123, t).generator())
            eff = build_effective_channel(MacChannel.from_scalar(h), Precoder.identity(2))
            res = if_rate(eff, mode=mode)
            assert np.all(np.isfinite(res.per_stream_rate_bits))
            assert 2.0 * res.symmetric_rate_bits <= 60.0 + 1e-9


@pytest.mark.parametrize("cap", [500.0, 1023.0])
def test_underflowing_factor_raises_a_domain_error(cap):
    # F underflows at a few hundred bits, which leaves zeros on the diagonal
    # of its embedding's triangular factor; LLL must not divide by them.
    h = sample_capacity_sphere(2, cap, RngStream(1, 0).generator())
    eff = build_effective_channel(MacChannel.from_scalar(h), Precoder.identity(2))
    with pytest.raises(NumericalDomainError, match="singular"):
        if_rate(eff)


_ABOVE_RANGE = f"integer forcing is limited to sum capacities up to {MAX_IF_CAPACITY_BITS} bits"


@pytest.mark.parametrize("cap", [math.nextafter(MAX_IF_CAPACITY_BITS, math.inf), 85.0, 150,
                                 500.0, 1024.0])
def test_capacities_above_the_range_are_refused_before_any_draw(monkeypatch, cap):
    # Above the working range float64 rates are noise: totals above C from
    # C = 100 and zero SIC variances from C = 140.  Every precoder and mode
    # refuses such a C with one message, before it draws a trial.
    def no_draw(*args):
        raise AssertionError("a refused capacity drew trials")

    monkeypatch.setattr(integer_forcing, "trial_normals", no_draw)
    for kind in PRECODER_KINDS:
        for mode in ("if", "if-sic"):
            with pytest.raises(InvalidParameterError, match=f"^{_ABOVE_RANGE}$"):
                conditioned_rate_samples(2, cap, kind, mode, SimConfig(trials=60, seed=1))


def test_the_top_of_the_range_runs_in_any_block_size(monkeypatch):
    # At C = MAX_IF_CAPACITY_BITS (seed 1) every precoder and mode runs, with
    # each total at or below C.  Cut into blocks of three rows, the rates are
    # the same, and C = 150 is still refused.
    def run(kind, mode, cap=MAX_IF_CAPACITY_BITS):
        return conditioned_rate_samples(2, cap, kind, mode, SimConfig(trials=8, seed=1))
    whole = {(kind, mode): run(kind, mode) for kind in PRECODER_KINDS
             for mode in ("if", "if-sic")}
    assert all(np.all(v <= MAX_IF_CAPACITY_BITS + 1e-9) for v in whole.values())
    monkeypatch.setattr(linalg, "_TRIAL_BLOCK", 3)
    integer_forcing._both_mode_samples.cache_clear()   # or the calls are served
    for (kind, mode), samples in whole.items():
        assert np.array_equal(run(kind, mode), samples)
        with pytest.raises(InvalidParameterError, match=f"^{_ABOVE_RANGE}$"):
            run(kind, mode, 150.0)


def test_sic_on_haar_trials_at_high_capacity_stays_within_capacity():
    # Seed 1, Haar precoders: trials whose SIC Gram A K A^H came out
    # indefinite when K was formed explicitly.
    for cap, t in ((55.0, 5), (55.0, 108), (55.0, 214), (55.0, 217), (60.0, 186)):
        rng = RngStream(1, t).generator()
        h = sample_capacity_sphere(2, cap, rng)
        eff = build_effective_channel(MacChannel.from_scalar(h), Precoder.haar_t2(2, rng))
        res = if_rate(eff, mode="if-sic")
        assert np.all(np.isfinite(res.per_stream_rate_bits))
        assert 2.0 * res.symmetric_rate_bits <= cap + 1e-9


@pytest.mark.parametrize("kind,trials", [("badr_belfiore", (3, 31, 50, 51, 54)),
                                          ("haar", (0, 3, 6, 15, 17))])
def test_precoded_trials_at_100_bits_find_a_full_rank_basis(kind, trials):
    # Seed 1 trials whose candidate pools have full rank but, with LLL
    # coefficients near 10^7, looked rank deficient to a floating-point rank
    # test ("candidate rows do not span the stream space").
    for t in trials:
        rng = RngStream(1, t).generator()
        h = sample_capacity_sphere(2, 100.0, rng)
        pre = Precoder.badr_belfiore() if kind == "badr_belfiore" else Precoder.haar_t2(2, rng)
        eff = build_effective_channel(MacChannel.from_scalar(h), pre)
        for mode in ("if", "if-sic"):
            total = 2.0 * if_rate(eff, mode=mode).symmetric_rate_bits
            assert math.isfinite(total) and total <= 100.0 + 1e-9


def test_integer_matrix_rank_is_exact_for_large_entries():
    rng = RngStream(7, 0).generator()
    eff = _random_scalar_eff(rng, n_users=2)
    big = 10 ** 8
    # unimodular: det = big^2 - (big + 1)(big - 1) = 1
    res = if_rate(eff, a=np.array([[big, big + 1], [big - 1, big]], dtype=float))
    assert np.array_equal(res.a_re, [[big, big + 1], [big - 1, big]])
    res = if_rate(eff, a=np.array([[big, 1j * (big + 1)], [-1j * (big - 1), big]]))
    assert np.array_equal(res.a_im, [[0, big + 1], [-(big - 1), 0]])
    for dependent in ([[big, big + 1], [2 * big, 2 * big + 2]],
                      [[big + 1j, big - 1], [(big + 1j) * (3 - 2j), (big - 1) * (3 - 2j)]]):
        with pytest.raises(InvalidParameterError):
            if_rate(eff, a=np.array(dependent))
    with pytest.raises(InvalidParameterError):
        if_rate(eff, a=np.array([[np.inf, 0.0], [0.0, 1.0]]))


@settings(max_examples=60, deadline=None)
@given(n_users=st.integers(2, 4), cap=st.floats(0.5, 80.0),
       precoder=st.sampled_from(PRECODER_KINDS), seed=st.integers(0, 2 ** 32 - 1))
def test_if_receiver_invariants_on_generated_channels(n_users, cap, precoder, seed):
    rng = RngStream(seed, 0).generator()
    h = sample_capacity_sphere(n_users, cap, rng)
    if precoder == "haar":
        pre = Precoder.haar_t2(n_users, rng)
    elif precoder == "badr_belfiore" and n_users == 2:
        pre = Precoder.badr_belfiore()
    else:
        pre = Precoder.identity(n_users)
    eff = build_effective_channel(MacChannel.from_scalar(h), pre)
    plain = if_rate(eff, mode="if")
    sic = if_rate(eff, mode="if-sic", a=plain.a_matrix)
    assert n_users * plain.symmetric_rate_bits <= cap + 1e-9
    assert n_users * sic.symmetric_rate_bits <= cap + 1e-9
    assert np.all(sic.per_stream_rate_bits >= plain.per_stream_rate_bits - 1e-9)
    if cap <= 16.0:
        # Above about 16 bits np.linalg.inv itself is off by ~1e-10 relative
        # (2^C times the unit roundoff); if_rate stays within ~1e-13.
        m = eff.matrix
        k = np.linalg.inv(np.eye(m.shape[1]) + m.conj().T @ m)
        a = plain.a_matrix
        want = np.einsum("mi,ij,mj->m", a.conj(), k, a).real
        coded = plain.per_stream_rate_bits > 0.0
        got = 2.0 ** -plain.per_stream_rate_bits[coded]
        np.testing.assert_allclose(got, want[coded], rtol=1e-10, atol=0.0)
