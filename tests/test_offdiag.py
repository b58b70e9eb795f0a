import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curieweiss.errors import (
    NegativePulseTime,
    ValidityWindowWarning,
    ZeroBathCoupling,
    ZeroCoupling,
    ZeroDispersion,
)
from curieweiss.model import ModelParams
from curieweiss.offdiag import (
    CouplingVector,
    bath_exponent,
    decay_time_bath,
    dispersion_decay_time,
    envelope,
    integrate_zeta_short_time,
    log_cos_product,
    log_recurrence_height_bath,
    log_recurrence_height_dispersed,
    memory_kernel,
    offdiag_trajectory,
    recurrence_height_bath,
    reduction_time,
    sample_couplings,
    spectral_density,
    spin_echo,
    zeta_rhs,
)
from curieweiss.oracles import full_hilbert_offdiag, reference_integrate

REF = ModelParams(n_spins=100000, coupling_g=0.09, temperature=0.34, gamma=1e-3,
                  debye_cutoff=50.0)


def mk(n=1000, g=0.09, dg=0.0, gamma=0.0, cutoff=50.0):
    return ModelParams(n_spins=n, coupling_g=g, delta_g=dg, temperature=0.34,
                       gamma=gamma, debye_cutoff=cutoff)


def uniform(p):
    return CouplingVector.uniform(p.coupling_g, p.n_spins)


# --- time scales --------------------------------------------------------------


def test_reduction_time_plugin():
    assert reduction_time(mk(n=2, g=1.0)) == pytest.approx(0.5, rel=1e-14)
    assert reduction_time(mk(n=200000, g=0.09)) == pytest.approx(0.01757, abs=2e-5)


def test_reduction_time_zero_coupling():
    with pytest.raises(ZeroCoupling):
        reduction_time(mk(g=0.0))


def test_decay_time_bath_plugin():
    p = ModelParams(n_spins=1, coupling_g=1.0, temperature=0.34, gamma=2 * math.pi,
                    debye_cutoff=1.0)
    assert decay_time_bath(p) == pytest.approx(1.0, rel=1e-14)
    assert decay_time_bath(REF) == pytest.approx(0.2360145, abs=1e-6)


def test_decay_time_bath_errors():
    with pytest.raises(ZeroBathCoupling):
        decay_time_bath(mk(gamma=0.0))


def test_bath_decay_much_slower_than_collapse():
    # weak bath + large N: suppression happens long after the collapse
    ratio = decay_time_bath(REF) / reduction_time(REF)
    assert ratio == pytest.approx(9.4994, abs=1e-3)
    assert ratio > 5.0


def test_bath_exponent_quartic():
    assert bath_exponent(0.0, REF) == 0.0
    assert bath_exponent(0.4, REF) == pytest.approx(16.0 * bath_exponent(0.2, REF), rel=1e-12)


def test_bath_exponent_consistent_with_tau2():
    # N * chi(tau_2) = 1 by construction
    tau2 = decay_time_bath(REF)
    assert REF.n_spins * bath_exponent(tau2, REF) == pytest.approx(1.0, rel=1e-12)


def test_recurrence_height_bath_consistency():
    # aggregate of the per-spin exponent at the first peak reproduces the
    # closed form -N pi^3 gamma hbar^2 Gamma^2 / 32 g^2
    t1 = math.pi * REF.hbar / (2.0 * REF.coupling_g)
    assert log_recurrence_height_bath(REF) == pytest.approx(
        -REF.n_spins * bath_exponent(t1, REF), rel=1e-12
    )
    assert log_recurrence_height_bath(REF) == pytest.approx(-2.99057e7, rel=1e-4)
    assert recurrence_height_bath(REF) == 0.0  # far below linear underflow


def test_recurrence_height_no_bath():
    assert recurrence_height_bath(mk(gamma=0.0)) == 1.0


def test_dispersion_decay_time():
    assert dispersion_decay_time(mk(n=2, dg=0.05, g=1.0)) == pytest.approx(
        1.0 / (0.05 * 2.0), rel=1e-14
    )
    with pytest.raises(ZeroDispersion):
        dispersion_decay_time(mk(dg=0.0))


def test_tau2_prime_to_reduction_ratio():
    p = mk(dg=0.0045)
    assert dispersion_decay_time(p) / reduction_time(p) == pytest.approx(
        p.coupling_g / p.delta_g, rel=1e-12
    )


# --- coupling samples ----------------------------------------------------------


def test_sample_couplings_zero_dispersion():
    cv = sample_couplings(mk(dg=0.0), seed=3)
    assert np.all(cv.values == 0.09)
    assert cv.rms_deviation == 0.0


def test_sample_couplings_exact_moments():
    p = mk(n=1000, dg=0.005)
    cv = sample_couplings(p, seed=1)
    assert cv.mean == pytest.approx(0.09, abs=1e-12)
    assert cv.rms_deviation == pytest.approx(0.005, abs=1e-12)
    assert cv.n_spins == 1000


def test_sample_couplings_seed_dependence():
    p = mk(n=1000, dg=0.005)
    a = sample_couplings(p, seed=1)
    b = sample_couplings(p, seed=2)
    assert not np.array_equal(a.values, b.values)
    assert a.mean == pytest.approx(b.mean, abs=1e-12)
    c = sample_couplings(p, seed=1)
    assert np.array_equal(a.values, c.values)  # deterministic per seed


# --- uniform envelope -----------------------------------------------------------


def test_envelope_uniform_initial():
    r0 = 0.3 + 0.1j
    assert envelope(0.0, uniform(mk()), r0) == r0


def test_envelope_uniform_first_recurrence():
    for n in (7, 8):
        p = mk(n=n)
        t1 = math.pi * p.hbar / (2.0 * p.coupling_g)
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
    logmag, sign = log_cos_product(t, uniform(p), p.hbar)
    assert logmag < -745.0
    assert math.isfinite(logmag)
    assert envelope(t, uniform(p), 1.0) == 0.0  # linear value underflows to zero


def test_envelope_monotone_before_first_zero():
    p = mk(n=500)
    ts = np.linspace(0.0, math.pi * p.hbar / (4.0 * p.coupling_g), 200)
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
    t1 = math.pi * p.hbar / (2.0 * p.coupling_g)
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
    shifted = CouplingVector(cv.values - cv.mean, cv.counts, 0.0, cv.rms_deviation)
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
    assert traj.pulse_time == theta
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
    cv = sample_couplings(mk(dg=0.004), seed=0)
    with pytest.raises(NegativePulseTime):
        spin_echo(-1.0, cv, 1.0 + 0j, np.array([0.0]))


# --- kernel properties ------------------------------------------------------------

# up to three (value, multiplicity) pairs over at most 12 spins, so the 2^N
# enumeration oracle stays cheap; values may repeat
PAIRS = st.lists(
    st.tuples(st.floats(1e-3, 0.5), st.integers(1, 6)), min_size=1, max_size=3
).filter(lambda pairs: sum(c for _, c in pairs) <= 12)
TIMES = st.floats(-200.0, 200.0)


def vector(pairs):
    values = np.array([v for v, _ in pairs])
    counts = np.array([c for _, c in pairs])
    spins = np.repeat(values, counts)
    return CouplingVector(values, counts, float(spins.mean()), float(spins.std()))


@settings(deadline=None, max_examples=60)
@given(PAIRS, TIMES)
def test_log_cos_product_equals_explicit_product(pairs, t):
    cv = vector(pairs)
    logmag, sign = log_cos_product(t, cv)
    explicit = float(np.prod(np.cos(2.0 * np.repeat(cv.values, cv.counts) * t)))
    assert sign == np.sign(explicit)
    assert sign * math.exp(logmag) == pytest.approx(explicit, abs=1e-12)
    assert full_hilbert_offdiag(t, cv, 1.0 + 0j) == pytest.approx(explicit, abs=1e-12)


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


# --- assembled trajectory ----------------------------------------------------------


def test_trajectory_factor_product_identity():
    p = mk(n=400, dg=0.004, gamma=1e-3)
    cv = sample_couplings(p, seed=5)
    times = np.linspace(0.0, 4.0, 60)
    traj = offdiag_trajectory(p, 0.5 + 0j, times, couplings=cv)
    recon = 0.5 * traj.osc_factor * traj.bath_factor * traj.dispersion_factor
    ok = np.isfinite(traj.dispersion_factor) & (np.abs(traj.amplitude) > 1e-250)
    assert ok.sum() > 40
    assert np.allclose(recon[ok], traj.amplitude[ok].real, rtol=1e-9, atol=1e-250)


def test_trajectory_magnitude_never_exceeds_initial():
    p = mk(n=400, dg=0.004, gamma=1e-3)
    cv = sample_couplings(p, seed=5)
    times = np.linspace(0.0, 40.0, 300)
    traj = offdiag_trajectory(p, 0.7 + 0.1j, times, couplings=cv)
    r0 = abs(0.7 + 0.1j)
    assert np.all(np.abs(traj.amplitude) <= r0 * (1 + 1e-12))
    assert np.all(traj.log10_abs <= math.log10(r0) + 1e-12)


def test_trajectory_log_column_tracks_amplitude():
    p = mk(n=50, gamma=0.0)
    times = np.linspace(0.0, 3.0, 20)
    traj = offdiag_trajectory(p, 1.0 + 0j, times)
    mask = np.abs(traj.amplitude) > 1e-200
    assert np.allclose(
        traj.log10_abs[mask], np.log10(np.abs(traj.amplitude[mask])), atol=1e-9
    )


# --- short-time zeta equations -------------------------------------------------------


def test_zeta_free_evolution_matches_trig():
    p = ModelParams(n_spins=10, coupling_g=0.2, temperature=0.34, gamma=0.0,
                    debye_cutoff=0.1)
    traj = integrate_zeta_short_time(p, t_max=9.0, rtol=1e-11, atol=1e-13)
    angles = 2.0 * p.coupling_g * traj.times / p.hbar
    assert np.max(np.abs(traj.zeta0 - np.cos(angles))) < 1e-10
    assert np.max(np.abs(traj.zetaz - 1j * np.sin(angles))) < 1e-10
    assert traj.zeta0[0] == 1.0 + 0j and traj.zetaz[0] == 0j


def test_zeta_initial_condition_and_state_view():
    p = ModelParams(n_spins=10, coupling_g=0.2, temperature=0.34, gamma=1e-3,
                    debye_cutoff=1.0)
    traj = integrate_zeta_short_time(p, t_max=0.5)
    st = traj.at(0)
    assert st.zeta0 == 1.0 + 0j
    assert st.zetaz == 0j


def test_zeta_warns_outside_window():
    p = ModelParams(n_spins=10, coupling_g=0.2, temperature=0.34, gamma=1e-3,
                    debye_cutoff=50.0)
    with pytest.warns(ValidityWindowWarning):
        integrate_zeta_short_time(p, t_max=0.1)


def test_zeta_peak_damping_matches_quartic_law():
    # params chosen so tau_2 sits inside the short-time window with O(1)
    # aggregate damping; peak-sampled |zeta0|^N tracks exp(-(t/tau_2)^4)
    p = ModelParams(n_spins=1000, coupling_g=80.0, temperature=0.34, gamma=0.01,
                    debye_cutoff=1.0)
    tau2 = decay_time_bath(p)
    assert tau2 < 1.0 / p.debye_cutoff
    traj = integrate_zeta_short_time(p, t_max=tau2, rtol=1e-12, atol=1e-14)
    om = 2.0 * p.coupling_g / p.hbar
    checked = 0
    for k in range(1, 20):
        tk = k * math.pi / om
        if tk > tau2:
            break
        i = int(np.argmin(np.abs(traj.times - tk)))
        # sample exactly at the peak via local dense refinement
        pk = _sample_zeta0(traj, p, tk)
        expected = math.exp(-p.n_spins * bath_exponent(tk, p))
        assert abs(pk) ** p.n_spins == pytest.approx(expected, rel=0.02)
        checked += 1
    assert checked >= 3


def _sample_zeta0(traj, params, t):
    # re-integrate to the exact sample time (cheap, avoids interpolation error)
    sub = integrate_zeta_short_time(params, t_max=t, rtol=1e-12, atol=1e-14)
    return complex(sub.zeta0[-1])


def test_zeta_reference_point_short_window():
    # inside t << 1/Gamma at the reference point both damping factors are
    # indistinguishable from 1 and zeta0^N tracks the bare oscillation
    tw = 0.5 / REF.debye_cutoff
    traj = integrate_zeta_short_time(REF, t_max=tw, rtol=1e-12, atol=1e-14)
    z0 = complex(traj.zeta0[-1])
    env = (abs(z0) ** 2 + abs(complex(traj.zetaz[-1])) ** 2) ** 0.5
    agg = env ** REF.n_spins
    expected = math.exp(-REF.n_spins * bath_exponent(tw, REF))
    assert agg == pytest.approx(expected, rel=0.02)
    assert abs(z0) ** REF.n_spins == pytest.approx(
        abs(math.cos(2 * REF.coupling_g * tw)) ** REF.n_spins, rel=1e-4
    )


def test_zeta_amplitude_recombination():
    p = ModelParams(n_spins=40, coupling_g=0.2, temperature=0.34, gamma=0.0,
                    debye_cutoff=0.1)
    traj = integrate_zeta_short_time(p, t_max=5.0)
    amp = traj.amplitude(1.0 + 0j)
    direct = np.cos(2 * p.coupling_g * traj.times) ** p.n_spins
    assert np.allclose(amp.real, direct, atol=1e-8)


def test_zeta_magnus_matches_reference_integrator():
    # criterion 9's damped case against scipy's DOP853, on every returned time
    p = ModelParams(n_spins=1000, coupling_g=80.0, temperature=0.34, gamma=0.01,
                    debye_cutoff=1.0)
    traj = integrate_zeta_short_time(p, t_max=decay_time_bath(p), rtol=1e-12, atol=1e-14)
    _, ref, _ = reference_integrate(lambda t, y: zeta_rhs(t, y, p), np.array([1.0 + 0j, 0j]),
                                    (0.0, float(traj.times[-1])), t_eval=traj.times)
    assert len(traj.times) > 10
    assert np.max(np.abs(traj.zeta0 - ref[:, 0])) <= 1e-10
    assert np.max(np.abs(traj.zetaz - ref[:, 1])) <= 1e-10


def test_zeta_step_bounds_step_size():
    p = ModelParams(n_spins=10, coupling_g=0.2, temperature=0.34, gamma=0.0,
                    debye_cutoff=0.1)
    traj = integrate_zeta_short_time(p, t_max=9.0, step=0.25)
    assert np.diff(traj.times).max() <= 0.25
    assert traj.times[-1] == 9.0


# --- memory kernel ---------------------------------------------------------------


def test_kernel_hermiticity():
    k_plus = memory_kernel(0.02, 0.34, 50.0)
    k_minus = memory_kernel(-0.02, 0.34, 50.0)
    assert k_minus == pytest.approx(k_plus.conjugate(), rel=1e-10)


def test_kernel_detailed_balance():
    t, gam = 0.34, 50.0
    for w in (0.1 * t, t, 5.0 * t):
        ratio = spectral_density(w, t, gam) / spectral_density(-w, t, gam)
        assert ratio == pytest.approx(math.exp(-w / t), rel=1e-12)


def test_kernel_zero_temperature_closed_form():
    gam = 3.0
    assert memory_kernel(0.0, 0.0, gam) == pytest.approx(gam**2 / (8 * math.pi), rel=1e-9)
    t = 0.7
    expected = 1.0 / (8 * math.pi * (1.0 / gam + 1j * t) ** 2)
    assert memory_kernel(t, 0.0, gam) == pytest.approx(expected, rel=1e-9)


def test_spectral_density_regime_edges_match_closed_form():
    # omega [coth(hbar omega/2T) - 1] exp(-|omega|/Gamma) on both sides of the
    # series (|x| < 1e-8) and overflow (x > 700) switches; coth - 1 ~ e^-700
    # cancels ~305 digits, so mpmath works at 400
    import mpmath

    temp, gam, hbar = 0.7, 1e4, 1.3
    xs = np.array([-1e-9, 1e-9, -1e-7, 1e-7, 699.0, 701.0, -699.0, -701.0])
    omegas = xs * temp / hbar
    got = spectral_density(omegas, temp, gam, hbar)
    with mpmath.workdps(400):
        for w, val in zip(omegas, got):
            w = mpmath.mpf(float(w))
            ref = w * (mpmath.coth(hbar * w / (2 * temp)) - 1) * mpmath.exp(-abs(w) / gam)
            assert val == pytest.approx(float(ref), rel=1e-13, abs=0.0)
    assert isinstance(spectral_density(float(omegas[0]), temp, gam, hbar), float)
    assert spectral_density(0.0, temp, gam, hbar) == 2.0 * temp / hbar
    zero_t = spectral_density(np.array([-2.0, 0.0, 3.0]), 0.0, gam)
    assert zero_t.tolist() == [4.0 * math.exp(-2.0 / gam), 0.0, 0.0]


def test_kernel_matsubara_series():
    # independent evaluation: expand coth in exponentials and integrate each
    # term analytically, leaving an image sum accelerated by its exact tail
    import mpmath

    t, temp, gam = 0.02, 0.34, 50.0
    d = 1.0 / temp

    def series(tval):
        s = mpmath.mpc(0)
        c0 = 1.0 / gam
        s += 2 * (1.0 / (c0 + 1j * tval) ** 2)
        for sign in (+1, -1):
            z = (c0 + sign * 1j * tval) / d + 1
            s += 2 * mpmath.zeta(2, z) / d**2
        return complex(s) / (16 * math.pi)

    expected = series(t)
    got = memory_kernel(t, temp, gam)
    assert got == pytest.approx(expected, rel=1e-9)
