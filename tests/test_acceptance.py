"""End-to-end acceptance checks at publication scale.

Each test covers one numbered criterion, prints a single pass/fail line
with the measured quantities (echoed after the run via conftest), and
asserts at the stated tolerances.  Statistical checks use fixed seeds, so
every verdict is reproducible bit for bit.
"""

import math
import time

import numpy as np
import scipy.integrate
import scipy.special

from fadingmac.bounds import (
    ScenarioDims,
    mimo_p_out_k,
    p_out_k,
    regularized_incomplete_beta,
    scalar_bounds,
    two_user_cdf,
)
from fadingmac.capacity import MacChannel, sum_capacity
from fadingmac.dmt import single_user_dmt, symmetric_mac_dmt
from fadingmac.integer_forcing import (
    EffectiveChannel,
    Precoder,
    badr_belfiore_precoders,
    build_effective_channel,
    brute_force_search,
    conditioned_rate_samples,
    fraction_of_capacity,
    if_rate,
    lll_search,
)
from fadingmac.linalg import RngStream
from fadingmac.montecarlo import (
    SimConfig,
    averaged_bound_vs_snr,
    binomial_stderr,
    conditional_cdf_cardinality,
    conditional_cdf_scalar,
    default_rate_grid,
    empirical_cdf,
    outage_vs_snr,
)

_LN2 = math.log(2.0)


def _verdict(ok):
    return "PASS" if ok else "FAIL"


def test_criterion_01_two_user_conditional_cdf(acceptance_log):
    start = time.perf_counter()
    cap = 2.0
    curve = conditional_cdf_scalar(2, cap, SimConfig(trials=100000, seed=0))
    worst_sigmas = 0.0
    for r, p, se in zip(curve.rates, curve.probs, curve.stderr):
        dev = abs(p - two_user_cdf(float(r), cap))
        if dev > 0.0:
            worst_sigmas = max(worst_sigmas, dev / se)
    atom_dev = abs(curve.atom_mass - 1.0 / 3.0)
    atom_sigmas = atom_dev / curve.atom_stderr
    elapsed = time.perf_counter() - start
    ok = worst_sigmas < 4.0 and atom_sigmas < 3.0 and elapsed < 30.0
    acceptance_log.append(
        f"criterion  1 {_verdict(ok)}: two-user CDF worst dev {worst_sigmas:.2f} sigma "
        f"(<4), atom {curve.atom_mass:.4f} vs 1/3 at {atom_sigmas:.2f} sigma (<3), "
        f"{elapsed:.1f} s (<30)")
    assert worst_sigmas < 4.0
    assert atom_sigmas < 3.0
    assert elapsed < 30.0


def test_criterion_02_four_user_bracketing(acceptance_log):
    start = time.perf_counter()
    n_users, cap = 4, 8.0
    curve = conditional_cdf_scalar(n_users, cap, SimConfig(trials=100000, seed=0))
    ok_points = True
    for r, p, se in zip(curve.rates, curve.probs, curve.stderr):
        pair = scalar_bounds(n_users, float(r), cap)
        if p < pair.lower - 3.0 * se - 1e-12 or p > pair.upper + 3.0 * se + 1e-12:
            ok_points = False
    top = scalar_bounds(n_users, cap, cap).upper
    top_ratio = top / curve.probs[-1]
    elapsed = time.perf_counter() - start
    ok = ok_points and top_ratio < 2.0 and elapsed < 60.0
    acceptance_log.append(
        f"criterion  2 {_verdict(ok)}: bracketing holds at all 50 points: {ok_points}, "
        f"top-rate upper/empirical {top_ratio:.2f} (<2), {elapsed:.1f} s (<60)")
    assert ok_points
    assert top_ratio < 2.0
    assert elapsed < 60.0


def test_criterion_03_per_cardinality_beta_law(acceptance_log):
    n_users, cap = 4, 8.0
    trials = 100000
    grid = default_rate_grid(cap, points=20)
    worst_sigmas = 0.0
    for k in (1, 2, 3):
        cfg = SimConfig(trials=trials, seed=0, rate_grid=grid)
        curve = conditional_cdf_cardinality(k, n_users, cap, cfg)
        for r, p, se in zip(curve.rates, curve.probs, curve.stderr):
            ref = p_out_k(k, n_users, float(r), cap)
            dev = abs(p - ref)
            if dev > 0.0:
                # where the empirical count is 0 the binomial stderr of the
                # reference value is the meaningful scale
                sigma = max(se, binomial_stderr(ref, trials))
                worst_sigmas = max(worst_sigmas, dev / sigma)
    ok = worst_sigmas < 4.0
    acceptance_log.append(
        f"criterion  3 {_verdict(ok)}: per-cardinality law k=1..3 worst dev "
        f"{worst_sigmas:.2f} sigma (<4) over 20-point grid")
    assert worst_sigmas < 4.0


def test_criterion_04_union_bound_dominates_and_slope(acceptance_log):
    dims = ScenarioDims(2, 2, 3)
    target = 3.0
    grid_db = np.arange(-10.0, 20.0 + 1e-9, 2.0)
    cfg = SimConfig(trials=10000, seed=0, snr_grid_db=grid_db)
    emp = outage_vs_snr(dims, target, cfg)
    bound = averaged_bound_vs_snr(dims, target, "union", cfg)
    gaps = [b.p_hat - e.p_hat for b, e in zip(bound, emp)]
    dominance_ok = min(gaps) >= 0.0
    top = [(b.point, b.p_hat) for b in bound if b.point >= grid_db[-1] - 10.0]
    xs = np.array([db / 10.0 for db, _ in top])
    ys = np.log10([p for _, p in top])
    slope = float(np.polyfit(xs, ys, 1)[0])
    # The reference is the fixed-rate (r = 0) diversity of the symmetric-rate
    # MAC.  The outage event contains user 1's own single-user outage, whose
    # diversity is n_t*n_r = 6 (||H_1||_F^2 is Gamma(6, 1)), so no bound that
    # dominates the outage can fall faster than SNR^-6.  The empirical curve
    # cannot be the reference: at 10,000 trials it has no outage hits from
    # 4 dB upward, so it has no slope in the fit window.
    diversity = symmetric_mac_dmt(2, 2, 3, 0.0)
    lo, hi = -diversity * 1.25, -diversity * 0.75
    slope_ok = lo <= slope <= hi
    ok = dominance_ok and slope_ok
    acceptance_log.append(
        f"criterion  4 {_verdict(ok)}: averaged union bound dominates empirical at "
        f"{sum(g >= 0 for g in gaps)}/{len(gaps)} SNR points (min gap {min(gaps):.2e}); "
        f"top-10dB bound slope {slope:.2f} vs required [{lo:.1f}, {hi:.1f}] "
        f"(diversity {diversity:g} = symmetric_mac_dmt(2,2,3,0))")
    assert dominance_ok
    assert slope_ok, (
        f"bound decays with slope {slope:.2f}, outside [{lo:.1f}, {hi:.1f}]")


def test_criterion_05_bound_ordering_reverses(acceptance_log):
    # Below -5 dB both averaged bounds saturate at exactly 1, so the grid
    # starts at the lowest SNR where either bound is informative.
    dims = ScenarioDims(2, 1, 6)
    cfg = SimConfig(trials=10000, seed=0, snr_grid_db=np.array([-5.0, 20.0]))
    union = averaged_bound_vs_snr(dims, 3.0, "union", cfg)
    simo = averaged_bound_vs_snr(dims, 3.0, "simo", cfg)
    low_ok = simo[0].p_hat < union[0].p_hat
    high_ok = simo[-1].p_hat > union[-1].p_hat
    ok = low_ok and high_ok
    acceptance_log.append(
        f"criterion  5 {_verdict(ok)}: at -5 dB simo {simo[0].p_hat:.3f} < union "
        f"{union[0].p_hat:.3f}: {low_ok}; at 20 dB simo {simo[-1].p_hat:.3e} > union "
        f"{union[-1].p_hat:.3e}: {high_ok}")
    assert low_ok
    assert high_ok


def test_criterion_06_dmt_continuity_and_values(acceptance_log):
    worst = 0.0
    for n in range(1, 7):
        for nt in range(1, 5):
            for nr in range(1, 5):
                thr = min(float(nt), nr / (n + 1.0))
                gap = abs(single_user_dmt(nt, nr, thr)
                          - single_user_dmt(n * nt, nr, n * thr))
                worst = max(worst, gap)
    pins = (abs(symmetric_mac_dmt(2, 1, 1, 0.0) - 1.0),
            abs(symmetric_mac_dmt(2, 1, 1, 1.0 / 3.0) - 2.0 / 3.0),
            abs(symmetric_mac_dmt(2, 1, 1, 0.5) - 0.0))
    ok = worst <= 1e-12 and max(pins) <= 1e-12
    acceptance_log.append(
        f"criterion  6 {_verdict(ok)}: worst branch mismatch at the threshold "
        f"{worst:.2e} (<=1e-12) over N<=6, antennas<=4; two-user pins off by "
        f"{max(pins):.2e}")
    assert worst <= 1e-12
    assert max(pins) <= 1e-12


def test_criterion_07_analytic_identities(acceptance_log):
    start = time.perf_counter()
    worst_pair = 0.0
    for cap in (1.0, 2.0, 7.5):
        for r in np.linspace(0.0, cap, 21):
            worst_pair = max(worst_pair, abs(
                two_user_cdf(float(r), cap) - 2.0 * p_out_k(1, 2, float(r), cap)))
    # The single-antenna law is Beta(k, N - k) at x = (2^(Rk/N) - 1) / (2^C - 1).
    worst_collapse = 0.0
    for n in (2, 3, 5):
        dims = ScenarioDims(n, 1, 1)
        for k in range(1, n):
            for r in np.linspace(0.5, 7.5, 8):
                x = math.expm1(float(r) * k / n * _LN2) / math.expm1(8.0 * _LN2)
                worst_collapse = max(worst_collapse, abs(
                    mimo_p_out_k(k, dims, float(r), 8.0) - scipy.special.betainc(k, n - k, x)))
    rng = RngStream(70, 0).generator()
    worst_beta = 0.0
    for _ in range(25):
        a = int(rng.integers(1, 9))
        b = int(rng.integers(1, 9))
        x = float(rng.uniform(0.02, 0.98))
        norm = math.gamma(a) * math.gamma(b) / math.gamma(a + b)
        oracle, _ = scipy.integrate.quad(
            lambda t: t ** (a - 1) * (1.0 - t) ** (b - 1), 0.0, x)
        worst_beta = max(worst_beta,
                         abs(regularized_incomplete_beta(x, a, b) - oracle / norm))
    elapsed = time.perf_counter() - start
    ok = worst_pair <= 1e-14 and worst_collapse <= 1e-14 and worst_beta <= 1e-10 \
        and elapsed < 1.0
    acceptance_log.append(
        f"criterion  7 {_verdict(ok)}: pairing identity {worst_pair:.1e}, "
        f"single-antenna collapse {worst_collapse:.1e}, beta vs quadrature "
        f"{worst_beta:.1e} (<=1e-10), {elapsed:.2f} s (<1)")
    assert worst_pair <= 1e-14
    assert worst_collapse <= 1e-14
    assert worst_beta <= 1e-10
    assert elapsed < 1.0


def test_criterion_08_integer_forcing_sanity(acceptance_log):
    eff = EffectiveChannel(matrix=math.sqrt(3.0) * np.eye(2, dtype=complex),
                           n_users=2, streams_per_user=1, time_extension=1)
    cap_orth = float(np.log2(np.linalg.det(
        np.eye(2) + eff.matrix.conj().T @ eff.matrix).real))
    orth_gap = abs(2.0 * if_rate(eff).symmetric_rate_bits - cap_orth)
    p1, p2 = badr_belfiore_precoders()
    unitarity = max(float(np.max(np.abs(p.conj().T @ p - np.eye(2))))
                    for p in (p1, p2))
    sic_violations = 0
    cap_violations = 0
    for i in range(1000):
        rng = RngStream(80, i).generator()
        h = (rng.standard_normal(2) + 1j * rng.standard_normal(2)) / math.sqrt(2.0)
        ch = MacChannel.from_scalar(h)
        eff_i = build_effective_channel(ch, Precoder.identity(2))
        a = lll_search(np.linalg.inv(
            np.eye(2) + eff_i.matrix.conj().T @ eff_i.matrix))
        plain = if_rate(eff_i, mode="if", a=a)
        sic = if_rate(eff_i, mode="if-sic", a=a)
        if sic.symmetric_rate_bits < plain.symmetric_rate_bits - 1e-9:
            sic_violations += 1
        if 2.0 * sic.symmetric_rate_bits > sum_capacity(ch) + 1e-9:
            cap_violations += 1
    ok = orth_gap < 1e-9 and unitarity < 1e-12 and sic_violations == 0 \
        and cap_violations == 0
    acceptance_log.append(
        f"criterion  8 {_verdict(ok)}: orthogonal-channel rate gap {orth_gap:.1e} "
        f"(<1e-9), precoder unitarity {unitarity:.1e} (<1e-12), SIC/capacity "
        f"violations {sic_violations}/{cap_violations} of 1000")
    assert orth_gap < 1e-9
    assert unitarity < 1e-12
    assert sic_violations == 0
    assert cap_violations == 0


def _min_stream_rate(k, a):
    forms = np.einsum("mi,ij,mj->m", a.conj(), k, a).real
    return max(0.0, -math.log(float(forms.max())) / _LN2)


def test_criterion_09_lll_versus_exhaustive(acceptance_log):
    start = time.perf_counter()
    agree = better = total = 0
    for n, count, base in ((2, 500, 91), (4, 100, 92)):
        for i in range(count):
            rng = RngStream(base, i).generator()
            h = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2.0)
            k = np.linalg.inv(np.eye(n) + np.outer(h.conj(), h))
            r_lll = _min_stream_rate(k, lll_search(k))
            r_brute = _min_stream_rate(k, brute_force_search(k, radius=4))
            total += 1
            if r_lll > r_brute + 1e-9:
                better += 1
            elif abs(r_lll - r_brute) <= 1e-9:
                agree += 1
    elapsed = time.perf_counter() - start
    frac = agree / total
    ok = better == 0 and frac >= 0.95 and elapsed < 120.0
    acceptance_log.append(
        f"criterion  9 {_verdict(ok)}: reduced search matches exhaustive on "
        f"{agree}/{total} ({100 * frac:.1f}%, >=95%), beats it {better} times (=0), "
        f"{elapsed:.1f} s (<120)")
    assert better == 0
    assert frac >= 0.95
    assert elapsed < 120.0


def test_criterion_10_receiver_ordering_and_capacity_fraction(acceptance_log):
    cap, trials = 10.0, 10000
    grid = np.linspace(0.0, cap, 51)
    cfg = SimConfig(trials=trials, seed=0, rate_grid=grid)
    curves = {}
    for name, kind, mode in (("if-none", "none", "if"),
                             ("sic-none", "none", "if-sic"),
                             ("sic-bb", "badr_belfiore", "if-sic")):
        samples = conditioned_rate_samples(2, cap, kind, mode, cfg)
        curves[name] = empirical_cdf(samples, grid, trials)
    sic_le_if = bool(np.all(curves["sic-none"].probs <= curves["if-none"].probs + 1e-12))
    idx9 = int(np.argmin(np.abs(grid - 9.0)))
    precoded_at_9 = float(curves["sic-bb"].probs[idx9])
    plain_at_9 = float(curves["if-none"].probs[idx9])
    precoding_ok = precoded_at_9 < plain_at_9
    ml = np.array([two_user_cdf(float(r), cap) for r in grid])
    floor = 1.0 / trials
    ml_below = all(
        bool(np.all(ml <= c.probs + 3.0 * np.maximum(c.stderr, floor)))
        for c in curves.values())
    caps = [2.0 * u for u in range(1, 11)]
    fracs = [f for _, f in fraction_of_capacity(2, caps, 0.01, "ml")]
    increasing = all(b >= a - 1e-12 for a, b in zip(fracs, fracs[1:]))
    frac_total10 = fracs[caps.index(10.0)]
    frac_peruser10 = fracs[-1]
    fraction_ok = increasing and frac_peruser10 > 0.7
    ok = sic_le_if and precoding_ok and ml_below and fraction_ok
    acceptance_log.append(
        f"criterion 10 {_verdict(ok)}: SIC CDF <= plain everywhere: {sic_le_if}; "
        f"precoded SIC {precoded_at_9:.3f} < plain {plain_at_9:.3f} at R=9: "
        f"{precoding_ok}; ML below all IF variants: {ml_below}; 1%-outage fraction "
        f"increasing: {increasing}, {frac_peruser10:.3f} (>0.7) at per-user cap 10 "
        f"(total-cap-10 value {frac_total10:.3f})")
    assert sic_le_if
    assert precoding_ok
    assert ml_below
    assert increasing
    assert frac_peruser10 > 0.7
