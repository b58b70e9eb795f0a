import math
import random
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curieweiss import offdiag
from curieweiss.errors import CurieWeissError
from curieweiss.model import ModelParams
from curieweiss.offdiag import (
    bath_exponent,
    decay_time_bath,
    dispersion_decay_time,
    echo_revival_log10,
    envelope,
    log_cos_product,
    log_recurrence_height_bath,
    log_recurrence_height_dispersed,
    offdiag_trajectory,
    reduction_time,
    sample_couplings,
    spectral_density,
    spin_echo,
)
from oracles import full_hilbert_offdiag, reference_zeta

REF = ModelParams(n_spins=100000, coupling_g=0.09, temperature=0.34, gamma=1e-3,
                  debye_cutoff=50.0)


def mk(n=1000, g=0.09, dg=0.0, gamma=0.0, cutoff=50.0):
    return ModelParams(n_spins=n, coupling_g=g, delta_g=dg, temperature=0.34,
                       gamma=gamma, debye_cutoff=cutoff)


def uniform(p):
    return ((p.coupling_g, p.n_spins),)


# --- time scales --------------------------------------------------------------


def test_reduction_time_plugin():
    assert reduction_time(mk(n=2, g=1.0)) == pytest.approx(0.5, rel=1e-14, abs=0.0)
    # an absolute bound: the expected value is quoted to four digits
    assert reduction_time(mk(n=200000, g=0.09)) == pytest.approx(0.01757, abs=2e-5)


def test_reduction_time_zero_coupling():
    with pytest.raises(CurieWeissError, match="no measurement coupling: reduction time undefined"):
        reduction_time(mk(g=0.0))


def test_decay_time_bath_plugin():
    p = ModelParams(n_spins=1, coupling_g=1.0, temperature=0.34, gamma=2 * math.pi,
                    debye_cutoff=1.0)
    assert decay_time_bath(p) == pytest.approx(1.0, rel=1e-14, abs=0.0)
    # an absolute bound: the expected value is quoted to seven digits
    assert decay_time_bath(REF) == pytest.approx(0.2360145, abs=1e-6)


def test_decay_time_bath_errors():
    with pytest.raises(CurieWeissError, match="gamma = 0: no bath damping"):
        decay_time_bath(mk(gamma=0.0))


def test_bath_decay_much_slower_than_collapse():
    # weak bath + large N: suppression happens long after the collapse
    ratio = decay_time_bath(REF) / reduction_time(REF)
    assert ratio == pytest.approx(9.4994, abs=1e-3)
    assert ratio > 5.0


def test_bath_exponent_quartic():
    assert bath_exponent(0.0, REF) == 0.0
    assert bath_exponent(0.4, REF) == pytest.approx(
        16.0 * bath_exponent(0.2, REF), rel=1e-12, abs=0.0)


def test_bath_exponent_consistent_with_tau2():
    # N * chi(tau_2) = 1 by construction
    tau2 = decay_time_bath(REF)
    assert REF.n_spins * bath_exponent(tau2, REF) == pytest.approx(1.0, rel=1e-12)


def test_recurrence_height_bath_consistency():
    # aggregate of the per-spin exponent at the first peak reproduces the
    # closed form -N pi^3 gamma hbar^2 Gamma^2 / 32 g^2 at hbar = 1
    t1 = math.pi / (2.0 * REF.coupling_g)
    assert log_recurrence_height_bath(REF) == pytest.approx(
        -REF.n_spins * bath_exponent(t1, REF), rel=1e-12
    )
    assert log_recurrence_height_bath(REF) == pytest.approx(-2.99057e7, rel=1e-4)


def test_dispersion_decay_time():
    assert dispersion_decay_time(mk(n=2, dg=0.05, g=1.0)) == pytest.approx(
        1.0 / (0.05 * 2.0), rel=1e-14, abs=0.0
    )
    with pytest.raises(CurieWeissError, match="delta_g = 0: no coupling dispersion"):
        dispersion_decay_time(mk(dg=0.0))


def test_tau2_prime_to_reduction_ratio():
    p = mk(dg=0.0045)
    assert dispersion_decay_time(p) / reduction_time(p) == pytest.approx(
        p.coupling_g / p.delta_g, rel=1e-12
    )


# --- coupling samples ----------------------------------------------------------


def values(cv):
    return np.array([v for v, _ in cv])


def counts(cv):
    return [c for _, c in cv]


def moments(cv):
    """Mean and RMS deviation of the draw: its values weighted by their counts."""
    n = float(sum(counts(cv)))
    mean = sum(v * c for v, c in cv) / n
    return mean, math.sqrt(sum((v - mean) ** 2 * c for v, c in cv) / n)


def test_sample_couplings_zero_dispersion():
    cv = sample_couplings(mk(dg=0.0), seed=3)
    assert np.all(values(cv) == 0.09)
    assert moments(cv)[1] == 0.0


def test_sample_couplings_exact_moments():
    p = mk(n=1000, dg=0.005)
    cv = sample_couplings(p, seed=1)
    mean, rms = moments(cv)
    assert mean == pytest.approx(0.09, abs=1e-12)
    assert rms == pytest.approx(0.005, abs=1e-12)
    assert sum(counts(cv)) == 1000


def test_sample_couplings_seed_dependence():
    p = mk(n=1000, dg=0.005)
    a = sample_couplings(p, seed=1)
    b = sample_couplings(p, seed=2)
    assert not np.array_equal(values(a), values(b))
    assert moments(a)[0] == pytest.approx(moments(b)[0], abs=1e-12)
    c = sample_couplings(p, seed=1)
    assert np.array_equal(values(a), values(c))  # deterministic per seed


@settings(deadline=None, max_examples=80)
@given(n=st.integers(2, 10**15), g=st.floats(0.01, 1.0), frac=st.floats(0.01, 0.99),
       seed=st.integers(0, 2**32))
def test_sample_couplings_two_values_exact_moments(n, g, frac, seed):
    dg = frac * g
    cv = sample_couplings(mk(n=n, g=g, dg=dg), seed=seed)
    assert len(values(cv)) == 2 and values(cv)[0] < g < values(cv)[1]
    assert all(c > 0 for c in counts(cv)) and sum(counts(cv)) == n
    mean, rms = moments(cv)
    assert mean == pytest.approx(g, rel=1e-12, abs=0.0)
    assert rms == pytest.approx(dg, rel=1e-12, abs=0.0)


def test_sample_couplings_split_law():
    # the count above g is Binomial(N, 1/2), with the degenerate draws k = 0
    # and k = N moved to ceil(N/2) and floor(N/2): chi-square over fixed seeds
    from scipy.stats import binom, chisquare

    n, draws = 6, 4000
    k = np.array([counts(sample_couplings(mk(n=n, dg=0.005), seed=s))[1] for s in range(draws)])
    law = binom.pmf(np.arange(n + 1), n, 0.5)
    law[(n + 1) // 2] += law[0]
    law[n // 2] += law[n]
    observed = np.bincount(k, minlength=n + 1)[1:n]
    assert observed.sum() == draws
    assert chisquare(observed, draws * law[1:n]).pvalue > 1e-3


def test_sample_couplings_macroscopic_n():
    # no array of size N: a draw at N = 1e15 holds two (value, count) pairs
    cv = sample_couplings(mk(n=10**15, dg=0.005), seed=3)
    assert sum(counts(cv)) == 10**15
    assert moments(cv)[1] == pytest.approx(0.005, rel=1e-12, abs=0.0)


def test_sample_couplings_beyond_two_to_the_63():
    # N = 1e30 > 2^63: the split is drawn (BTRS proposes it in doubles, so
    # k is quantized to their spacing) and the two values keep the moments
    n = 10**30
    cv = sample_couplings(mk(n=n, dg=0.005), seed=3)
    k = counts(cv)[1]
    assert 0 < k < n and sum(counts(cv)) == n
    assert float(k) == k
    assert moments(cv)[1] == pytest.approx(0.005, rel=1e-12, abs=0.0)


def test_sample_couplings_needs_two_spins():
    with pytest.raises(CurieWeissError, match="a nonzero spread requires at least two spins"):
        sample_couplings(mk(n=1, dg=0.005), seed=0)


# --- the draw of the split -------------------------------------------------------

#: fixed seeds of the law tests, one draw each
LAW_SEEDS = range(4000)


def draw_split(n, seed):
    return offdiag._binomial_half(n, random.Random(seed))


def binomial_half_pvalue(ks, n):
    """Pearson's chi-square p-value of the draws ks against Binomial(n, 1/2),
    each tail pooled into the first bin that expects at least 5 draws."""
    from scipy.stats import chisquare

    pmf = np.array([math.comb(n, k) / 2**n for k in range(n + 1)])
    lo = int(np.argmax(len(ks) * pmf >= 5.0))
    hi = n - lo
    observed = np.bincount(np.clip(ks, lo, hi), minlength=n + 1)[lo:hi + 1]
    expected = len(ks) * np.concatenate([[pmf[:lo + 1].sum()], pmf[lo + 1:hi],
                                         [pmf[hi:].sum()]])
    return chisquare(observed, expected).pvalue


# N < 20 counts random bits, N >= 20 (a mean of at least 10) runs BTRS
@pytest.mark.parametrize("n", [*range(2, 13), 19, 20, 21, 40, 101, 1000])
def test_split_draw_law(n):
    ks = np.array([draw_split(n, seed) for seed in LAW_SEEDS])
    assert binomial_half_pvalue(ks, n) > 1e-3


@pytest.mark.parametrize("n", [20, 21])
def test_split_draw_law_at_the_least_btrs_mean(n):
    # where the hat is tightest a small misplacement of it shows only in a
    # long stream: shifting it by half a count gives p < 1e-9 here
    rng = random.Random(n)
    ks = np.array([offdiag._binomial_half(n, rng) for _ in range(200_000)])
    assert binomial_half_pvalue(ks, n) > 1e-3


@pytest.mark.parametrize("n", [20, 21, 101, 10**6, 10**12, 2**53 - 1])
def test_log_binomial_ratio_against_mpmath(n):
    # the error grows with |k - m| and the result, not with n ln n as that of
    # a difference of lgammas would
    m, r = (n + 1) // 2, math.isqrt(n)
    for k in {0, 1, 5, 99, 100, m - 7 * r, m - 1, m, m + 3, m + r, n - 100, n - 1, n}:
        if not 0 <= k <= n:
            continue
        with mpmath.workdps(60):
            exact = float(mpmath.loggamma(m + 1) + mpmath.loggamma(n - m + 1)
                          - mpmath.loggamma(k + 1) - mpmath.loggamma(n - k + 1))
        got = offdiag._log_binomial_ratio(n, k, m)
        assert abs(got - exact) <= 1e-13 + 1e-14 * (abs(k - m) + abs(exact)), k


@pytest.mark.parametrize("n", [10**4, 10**6, 10**12])
def test_split_draw_moments_at_large_n(n):
    # z of the sample mean and of the mean square deviation from N/2, whose
    # variance is (mu_4 - sigma^4)/S = (2 - 2/N) sigma^4 / S for the binomial
    d = np.array([draw_split(n, seed) - n // 2 for seed in LAW_SEEDS], dtype=float)
    var, draws = n / 4.0, len(LAW_SEEDS)
    assert abs(d.mean() / math.sqrt(var / draws)) < 4.0
    assert abs((d @ d / draws / var - 1.0) / math.sqrt(2.0 / draws)) < 4.0


def test_split_draw_law_fails_for_a_biased_coin():
    # the tests above can fail: a coin with odds 0.47 is found at N = 12
    rng = np.random.default_rng(0)
    assert binomial_half_pvalue(rng.binomial(12, 0.47, len(LAW_SEEDS)), 12) < 1e-3


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**100), st.integers(0, 2**64))
def test_split_draw_is_a_function_of_the_seed(n, seed):
    k = draw_split(n, seed)
    assert k == draw_split(n, seed)
    assert 0 <= k <= n


# --- uniform envelope -----------------------------------------------------------


def test_envelope_uniform_initial():
    r0 = 0.3 + 0.1j
    assert envelope(0.0, uniform(mk()), r0) == r0


def test_envelope_uniform_first_recurrence():
    for n in (7, 8):
        p = mk(n=n)
        t1 = math.pi / (2.0 * p.coupling_g)
        val = envelope(t1, uniform(p), 1.0 + 0j)
        assert abs(val) == pytest.approx(1.0, abs=1e-12)
        assert val.real == pytest.approx((-1.0) ** n, abs=1e-12)


def test_envelope_uniform_gaussian_law():
    p = mk(n=10**4)
    tr = reduction_time(p)
    ratio = abs(envelope(tr, uniform(p), 1.0 + 0j)) / math.exp(-1.0)
    assert ratio == pytest.approx(1.0, abs=0.01)


def test_envelope_uniform_log_underflow_safe():
    p = mk(n=10**6)
    t = 30.0 * reduction_time(p)  # gaussian exponent ~ 900: below exp(-745)
    logmag, sign = log_cos_product(t, uniform(p))
    assert logmag < -745.0
    assert math.isfinite(logmag)
    assert envelope(t, uniform(p), 1.0) == 0.0  # linear value underflows to zero


def test_envelope_monotone_before_first_zero():
    p = mk(n=500)
    ts = np.linspace(0.0, math.pi / (4.0 * p.coupling_g), 200)
    mags = np.abs(envelope(ts, uniform(p), 1.0 + 0j))
    assert np.all(np.diff(mags) <= 1e-15)


def test_envelope_phase_structure():
    # real r0: uniform envelope stays real up to sign
    p = mk(n=11)
    vals = envelope(np.linspace(0, 30, 50), uniform(p), 1.0 + 0j)
    assert np.allclose(vals.imag, 0.0, atol=1e-15)


# --- dispersed envelope ----------------------------------------------------------


def test_envelope_dispersed_reduces_to_uniform():
    p = mk(n=200, dg=0.0)
    cv = sample_couplings(p, seed=0)
    for t in (0.0, 1.7, 5.3, 17.0):
        assert envelope(t, cv, 1.0 + 0j) == pytest.approx(
            envelope(t, uniform(p), 1.0 + 0j), abs=1e-12
        )


def test_envelope_dispersed_first_peak_suppression():
    p = mk(n=1000, dg=0.0045)  # delta_g/g = 0.05
    cv = sample_couplings(p, seed=1)
    t1 = math.pi / (2.0 * p.coupling_g)
    peak = abs(envelope(t1, cv, 1.0 + 0j))
    formula = math.exp(log_recurrence_height_dispersed(p))
    assert formula == pytest.approx(math.exp(-12.337005501), rel=1e-6)
    assert peak == pytest.approx(formula, rel=0.10)


def test_dispersion_envelope_gaussian_fit():
    # least-squares slope of the log envelope vs t^2 recovers tau_2' within 5%
    p = mk(n=1000, dg=0.0045)
    cv = sample_couplings(p, seed=1)
    tau2p = dispersion_decay_time(p)
    ts = np.linspace(0.0, 2.0 * tau2p, 41)[1:]
    shifted = tuple((v - moments(cv)[0], c) for v, c in cv)
    log_env = np.log(np.abs(envelope(ts, shifted, 1.0)))
    slope = float(np.sum(log_env * (-ts**2)) / np.sum(ts**4))
    tau_fit = 1.0 / math.sqrt(slope)
    assert tau_fit == pytest.approx(tau2p, rel=0.05)


# --- spin echo --------------------------------------------------------------------


def test_spin_echo_exact_revival():
    p = mk(n=1000, dg=0.0045)
    cv = sample_couplings(p, seed=7)
    theta = 3.0 * dispersion_decay_time(p)
    r0 = 0.4 - 0.2j
    times = np.array([0.0, theta, 2.0 * theta, 2.5 * theta])
    traj = spin_echo(theta, cv, r0, times)
    assert traj.amplitude[2] == pytest.approx(r0, abs=1e-12)
    # before the revival the amplitude is dead
    assert abs(traj.amplitude[1]) < 1e-6 * abs(r0)


def test_spin_echo_zero_theta_matches_free_evolution():
    p = mk(n=300, dg=0.004)
    cv = sample_couplings(p, seed=2)
    times = np.linspace(0.0, 8.0, 30)
    echo = spin_echo(0.0, cv, 1.0 + 0j, times)
    free = envelope(times, cv, 1.0 + 0j)
    assert np.allclose(echo.amplitude, free, atol=1e-14)


def test_spin_echo_continuous_at_pulse():
    p = mk(n=300, dg=0.004)
    cv = sample_couplings(p, seed=2)
    theta = 2.0
    eps = 1e-9
    before = spin_echo(theta, cv, 1.0 + 0j, np.array([theta - eps]))
    after = spin_echo(theta, cv, 1.0 + 0j, np.array([theta + eps]))
    assert before.amplitude[0] == pytest.approx(after.amplitude[0], abs=1e-7)
    # the branch value at the pulse equals the free product there
    at = spin_echo(theta, cv, 1.0 + 0j, np.array([theta]))
    assert at.amplitude[0] == pytest.approx(envelope(theta, cv, 1.0 + 0j), abs=1e-12)


def test_spin_echo_negative_pulse_time():
    # a pulse time must be finite and non-negative; at 1e308 the revival
    # time 2 theta overflows, so it is rejected too
    cv = sample_couplings(mk(dg=0.004), seed=0)
    for theta in (-1.0, math.nan, math.inf, 1e308):
        with pytest.raises(CurieWeissError, match="pulse time must be finite and non-negative"):
            spin_echo(theta, cv, 1.0 + 0j, np.array([0.0]))


# --- kernel properties ------------------------------------------------------------

# up to three (value, multiplicity) pairs over at most 12 spins, so the 2^N
# enumeration oracle stays cheap; values may repeat
PAIRS = st.lists(
    st.tuples(st.floats(1e-3, 0.5), st.integers(1, 6)), min_size=1, max_size=3
).filter(lambda pairs: sum(c for _, c in pairs) <= 12)
TIMES = st.floats(-200.0, 200.0)


def vector(pairs):
    return tuple(pairs)


@settings(deadline=None, max_examples=60)
@given(PAIRS, TIMES)
def test_log_cos_product_equals_explicit_product(pairs, t):
    cv = vector(pairs)
    logmag, sign = log_cos_product(t, cv)
    explicit = float(np.prod(np.cos(2.0 * np.repeat(values(cv), counts(cv)) * t)))
    assert sign == np.sign(explicit)
    assert sign * math.exp(logmag) == pytest.approx(explicit, abs=1e-12)
    assert full_hilbert_offdiag(t, cv, 1.0 + 0j) == pytest.approx(explicit, abs=1e-12)


@pytest.mark.parametrize("n", [2**70 + 1, 2**70])
def test_log_cos_product_sign_at_a_multiplicity_beyond_int64(n):
    # the parity comes from the Python int, which float(n) = 2^70 has lost:
    # an odd power keeps the sign of its cosine, an even one is +1
    times = np.array([0.0, 5.0, 10.0, 20.0, 30.0])
    c = np.cos(times * (2.0 * 0.09))
    assert np.any(c < 0.0) and np.any(c > 0.0)
    logmag, sign = log_cos_product(times, ((0.09, n),))
    assert sign.tolist() == (np.sign(c) if n % 2 else np.ones_like(c)).tolist()
    assert logmag.tolist() == pytest.approx((n * np.log(np.abs(c))).tolist(), rel=1e-15, abs=0.0)


def doubles_nearest_the_zeros_of_cos():
    """The double of least |cos| (6381956970095103 * 2**797), and the three
    doubles on each side of fl((2k + 1) pi/2), which hold the nearest double
    to each zero, for small and large k."""
    out = [6381956970095103 * 2.0**797]
    for k in [*range(200), 10**6, 10**9, 10**12, 2**40, 10**15]:
        below = above = (2 * k + 1) * math.pi / 2
        out.append(below)
        for _ in range(3):
            below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
            out += [below, above]
    return np.array(out)


@pytest.mark.parametrize("n", [1, 2, 3, 10**5, 10**5 + 1, 2**70, 2**70 + 1])
def test_log_cos_product_at_the_doubles_nearest_the_zeros_of_cos(n):
    # cos vanishes at no double, so every log is finite, n log|cos| to the
    # bit, and the sign that of cos^n; at g = 0.5 the argument 2 g t is t
    times = doubles_nearest_the_zeros_of_cos()
    c = np.cos(times)
    assert np.min(np.abs(c)) == abs(math.cos(6381956970095103 * 2.0**797)) > 4.6e-19
    logmag, sign = log_cos_product(times, ((0.5, n),))
    assert np.all(np.isfinite(logmag))
    assert logmag.tolist() == [n * math.log(abs(x)) for x in c.tolist()]
    assert sign.tolist() == (np.sign(c) if n % 2 else np.ones_like(c)).tolist()


@pytest.mark.parametrize("n", [int(sys.float_info.max), int(sys.float_info.max) + 1])
def test_log_cos_product_sign_is_zero_where_the_log_overflows(n):
    # n log|cos| overflows to -inf at a multiplicity near the largest double
    # where |cos| < 1/e: the product is 0 there, of either parity and of
    # either sign of cos, with no warning (-inf is the model's value); at
    # t = 0 it is 1
    times = np.array([0.0, 1.3, 1.5, 4.7])
    assert np.cos(times).tolist()[3] < 0.0
    with np.errstate(all="raise"):
        logmag, sign = log_cos_product(times, ((0.5, n),))
    assert logmag.tolist() == [0.0, -math.inf, -math.inf, -math.inf]
    assert sign.tolist() == [1.0, 0.0, 0.0, 0.0]


@settings(deadline=None, max_examples=60)
@given(PAIRS, TIMES)
def test_log_cos_product_even_in_time(pairs, t):
    cv = vector(pairs)
    (log_plus, sign_plus), (log_minus, sign_minus) = log_cos_product(t, cv), log_cos_product(-t, cv)
    assert log_plus == log_minus
    assert sign_plus == sign_minus


@settings(deadline=None, max_examples=60)
@given(PAIRS, st.floats(0.0, 1e3), st.complex_numbers(max_magnitude=1.0))
def test_spin_echo_revival_exact_property(pairs, theta, r0):
    traj = spin_echo(theta, vector(pairs), r0, np.array([2.0 * theta]))
    assert abs(traj.amplitude[0]) == abs(r0)


@settings(deadline=None, max_examples=60)
@given(PAIRS, st.floats(0.0, 1e3), st.complex_numbers(max_magnitude=1.0))
def test_echo_revival_log10_is_the_echo_at_two_theta(pairs, theta, r0):
    traj = spin_echo(theta, vector(pairs), r0, np.array([2.0 * theta]))
    assert echo_revival_log10(r0).hex() == float(traj.log10_abs[0]).hex()


# --- assembled trajectory ----------------------------------------------------------


def test_trajectory_factor_product_identity():
    p = mk(n=400, dg=0.004, gamma=1e-3)
    cv = sample_couplings(p, seed=5)
    times = np.linspace(0.0, 4.0, 60)
    traj = offdiag_trajectory(p, 0.5 + 0j, times, couplings=cv, include_bath=True)
    recon = 0.5 * traj.osc_factor * traj.bath_factor * traj.dispersion_factor
    ok = np.isfinite(traj.dispersion_factor) & (np.abs(traj.amplitude) > 1e-250)
    assert ok.sum() > 40
    assert np.allclose(recon[ok], traj.amplitude[ok].real, rtol=1e-9, atol=1e-250)


def test_trajectory_magnitude_never_exceeds_initial():
    p = mk(n=400, dg=0.004, gamma=1e-3)
    cv = sample_couplings(p, seed=5)
    times = np.linspace(0.0, 40.0, 300)
    traj = offdiag_trajectory(p, 0.7 + 0.1j, times, couplings=cv, include_bath=True)
    r0 = abs(0.7 + 0.1j)
    assert np.all(np.abs(traj.amplitude) <= r0 * (1 + 1e-12))
    assert np.all(traj.log10_abs <= math.log10(r0) + 1e-12)


def test_trajectory_log_column_tracks_amplitude():
    p = mk(n=50, gamma=0.0)
    times = np.linspace(0.0, 3.0, 20)
    traj = offdiag_trajectory(p, 1.0 + 0j, times, couplings=uniform(p), include_bath=False)
    mask = np.abs(traj.amplitude) > 1e-200
    assert np.allclose(
        traj.log10_abs[mask], np.log10(np.abs(traj.amplitude[mask])), atol=1e-9
    )


# --- short-time zeta equations -------------------------------------------------------
# integrated by the DOP853 oracle: they are evidence for the closed-form bath law


def test_zeta_peak_damping_matches_quartic_law():
    # params chosen so tau_2 sits inside the short-time window with O(1)
    # aggregate damping; peak-sampled |zeta0|^N tracks exp(-(t/tau_2)^4)
    p = ModelParams(n_spins=1000, coupling_g=80.0, temperature=0.34, gamma=0.01,
                    debye_cutoff=1.0)
    tau2 = decay_time_bath(p)
    assert tau2 < 1.0 / p.debye_cutoff
    om = 2.0 * p.coupling_g
    checked = 0
    for k in range(1, 20):
        tk = k * math.pi / om
        if tk > tau2:
            break
        # integrated to exactly the peak time: no interpolation error
        pk = complex(reference_zeta(p, tk)[1][-1])
        expected = math.exp(-p.n_spins * bath_exponent(tk, p))
        assert abs(pk) ** p.n_spins == pytest.approx(expected, rel=0.02)
        checked += 1
    assert checked >= 3


def test_zeta_reference_point_short_window():
    # inside t << 1/Gamma at the reference point both damping factors are
    # indistinguishable from 1 and zeta0^N tracks the bare oscillation
    tw = 0.5 / REF.debye_cutoff
    _, zeta0, zetaz = reference_zeta(REF, tw)
    z0 = complex(zeta0[-1])
    env = (abs(z0) ** 2 + abs(complex(zetaz[-1])) ** 2) ** 0.5
    agg = env ** REF.n_spins
    expected = math.exp(-REF.n_spins * bath_exponent(tw, REF))
    assert agg == pytest.approx(expected, rel=0.02)
    assert abs(z0) ** REF.n_spins == pytest.approx(
        abs(math.cos(2 * REF.coupling_g * tw)) ** REF.n_spins, rel=1e-4
    )


# --- bath spectrum ---------------------------------------------------------------


def test_kernel_detailed_balance():
    t, gam = 0.34, 50.0
    for w in (0.1 * t, t, 5.0 * t):
        ratio = spectral_density(w, t, gam) / spectral_density(-w, t, gam)
        assert ratio == pytest.approx(math.exp(-w / t), rel=1e-12, abs=0.0)


def test_spectral_density_regime_edges_match_closed_form():
    # omega [coth(omega/2T) - 1] exp(-|omega|/Gamma) (hbar = 1) on both sides
    # of the series (|x| < 1e-8) and overflow (x > 700) switches, x = omega/T;
    # coth - 1 ~ e^-700 cancels ~305 digits, so mpmath works at 400
    import mpmath

    temp, gam = 0.7, 1e4
    xs = np.array([-1e-9, 1e-9, -1e-7, 1e-7, 699.0, 701.0, -699.0, -701.0])
    omegas = xs * temp
    got = spectral_density(omegas, temp, gam)
    with mpmath.workdps(400):
        for w, val in zip(omegas, got):
            w = mpmath.mpf(float(w))
            ref = w * (mpmath.coth(w / (2 * temp)) - 1) * mpmath.exp(-abs(w) / gam)
            assert val == pytest.approx(float(ref), rel=1e-13, abs=0.0)
    assert isinstance(spectral_density(float(omegas[0]), temp, gam), float)
    assert spectral_density(0.0, temp, gam) == 2.0 * temp
    zero_t = spectral_density(np.array([-2.0, 0.0, 3.0]), 0.0, gam)
    assert zero_t.tolist() == [4.0 * math.exp(-2.0 / gam), 0.0, 0.0]
