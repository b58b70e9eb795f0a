import math
import sys
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import IntegrationWarning, quad

from curieweiss.errors import (
    CriticalOrSubcritical,
    CurieWeissError,
    InsufficientTail,
)
from curieweiss import ode, statics
from curieweiss.model import ModelParams
from curieweiss.registration import (
    TAIL_WINDOW,
    MagnetizationTrajectory,
    TerminalKind,
    asymptotic_rate,
    crossing_times,
    flow_rate,
    integrate_registration,
)
from curieweiss.statics import (
    bottleneck_integral,
    critical_coupling,
    critical_coupling_low_t,
    first_stationary,
    free_energy,
    registration_threshold,
    registration_time_asymptotic,
    registration_time_quadrature,
    stationary_magnetizations,
)
from oracles import reference_integrate


def mk(T=0.34, g=0.09, gamma=1e-3, n=100000):
    return ModelParams(n_spins=n, coupling_g=g, temperature=T, gamma=gamma,
                       debye_cutoff=50.0)


# --- right-hand side ---------------------------------------------------------


def test_rhs_at_origin_equals_gamma_g():
    p = mk()
    assert float(flow_rate(0.0, +1, p)) == pytest.approx(p.gamma * p.coupling_g,
                                                         rel=1e-12, abs=0.0)
    assert float(flow_rate(0.0, -1, p)) == pytest.approx(-p.gamma * p.coupling_g,
                                                         rel=1e-12, abs=0.0)


def test_rhs_vanishes_at_fixed_point():
    p = mk()
    m = 0.9965142159314115  # self-consistent point at the reference parameters
    assert abs(float(flow_rate(m, +1, p))) < 1e-12


def test_rhs_series_matches_exact_near_removable_point():
    # h -> 0 along m < 0 with s = +1: h = g + Jm^3 = 0 at m = -g^(1/3)
    p = mk(g=0.001)
    m_zero = -(p.coupling_g ** (1.0 / 3.0))
    for dm in (1e-9, -1e-9, 1e-7):
        m = m_zero + dm
        h = p.coupling_g + m**3
        exact = p.gamma * h * (1.0 - m / math.tanh(h / p.temperature)) if h != 0 else None
        got = float(flow_rate(m, +1, p))
        if exact is not None and abs(h / p.temperature) > 1e-12:
            assert got == pytest.approx(exact, rel=1e-6, abs=1e-18)
    # exactly at the removable point: limit value -(gamma/hbar) m T, hbar = 1
    got = float(flow_rate(m_zero, +1, p))
    assert got == pytest.approx(-p.gamma * m_zero * p.temperature, rel=1e-8, abs=0.0)


def test_rhs_bottleneck_minimum():
    # in the g << T << J regime the slowest rate is g - g_c at m^2 = T/3J
    p = mk(T=0.05, g=1.2 * critical_coupling(mk(T=0.05, g=0.01)))
    gc = critical_coupling(p)
    ms = np.linspace(1e-4, 0.5, 20001)
    rates = flow_rate(ms, +1, p) / p.gamma
    i = int(np.argmin(rates))
    assert rates[i] == pytest.approx(p.coupling_g - gc, rel=0.05)
    assert ms[i] ** 2 == pytest.approx(p.temperature / 3.0, rel=0.05)


def test_rhs_barrier_top_value():
    # local maximum of the scaled rate near m = 3/4 approaches 27J/256
    p = mk(T=0.02, g=1.0001 * critical_coupling(mk(T=0.02, g=0.001)))
    ms = np.linspace(0.5, 0.95, 20001)
    rates = flow_rate(ms, +1, p) / p.gamma
    i = int(np.argmax(rates))
    assert rates[i] == pytest.approx(27.0 / 256.0, rel=0.05)
    assert ms[i] == pytest.approx(0.75, abs=0.01)


# --- trajectory integration -----------------------------------------------------


def test_registration_reference_converges_ferro():
    p = mk()
    up = integrate_registration(+1, p, t_max=6e5)
    assert up.terminal is TerminalKind.CONVERGED_FERRO
    assert up.m_final == pytest.approx(0.996, abs=1e-3)
    assert up.m_final == pytest.approx(0.9965142, abs=2e-5)


def test_registration_subcritical_traps():
    p = mk(g=0.05)
    up = integrate_registration(+1, p, t_max=6e5)
    assert up.terminal is TerminalKind.TRAPPED_PARAMAGNETIC
    # plateau at the shifted paramagnetic root, near g/T
    assert up.m_final == pytest.approx(0.1571628, abs=1e-4)
    assert up.m_final == pytest.approx(p.coupling_g / p.temperature, abs=0.02)


def test_registration_sector_parity():
    p = mk()
    up = integrate_registration(+1, p, t_max=6e5)
    down = integrate_registration(-1, p, t_max=6e5)
    assert down.terminal is TerminalKind.CONVERGED_FERRO
    assert down.m_final == pytest.approx(-up.m_final, abs=1e-9)


def test_registration_monotone_rise():
    p = mk()
    up = integrate_registration(+1, p, t_max=6e5)
    assert up.m[0] == 0.0
    assert np.all(np.diff(up.m) >= -1e-12)


def test_registration_trace_conserved():
    p = mk()
    up = integrate_registration(+1, p, t_max=6e5)
    assert np.max(np.abs(up.zeta0 - 1.0)) < 1e-10


def test_registration_free_energy_descends():
    p = mk()
    up = integrate_registration(+1, p, t_max=6e5)
    f = np.array([free_energy(float(m), +1, p) for m in up.m])
    assert np.all(np.diff(f) <= 1e-12)


def test_registration_max_time_reached():
    p = mk()
    up = integrate_registration(+1, p, t_max=10.0)  # far shorter than tau_reg
    assert up.terminal is TerminalKind.MAX_TIME_REACHED
    assert up.m_final < 0.01


@pytest.mark.parametrize("t_max", [0.0, -1.0, math.nan])
def test_registration_rejects_a_bad_t_max(t_max):
    with pytest.raises(CurieWeissError, match="t_max must be positive"):
        integrate_registration(+1, mk(), t_max)


def test_registration_switch_off_robustness():
    # past the barrier, removing the coupling still lands at the g = 0 ferro
    # value: from m = 0.70 the g = 0 flow rises to the landscape's next point,
    # a ferromagnetic minimum, and no zero of the rate lies in between
    p0 = mk(g=0.0)
    ahead = [pt for pt in statics.stationary_magnetizations(+1, p0).points if pt.m > 0.70]
    assert ahead[0].kind is statics.PointKind.MINIMUM
    assert ahead[0].label is statics.PointLabel.FERRO_UP
    assert ahead[0].m == pytest.approx(0.9938026, abs=1e-4)
    assert np.all(flow_rate(np.linspace(0.70, ahead[0].m, 1001)[:-1], +1, p0) > 0.0)


def test_registration_max_time_cut_by_inversion():
    p = mk()
    full = integrate_registration(+1, p)
    cut = integrate_registration(+1, p, t_max=20000.0)
    assert cut.terminal is TerminalKind.MAX_TIME_REACHED
    assert cut.times[-1] == 20000.0
    k = len(cut.times) - 1
    assert np.array_equal(cut.times[:k], full.times[:k])
    assert full.times[k - 1] < 20000.0 < full.times[k]
    assert full.m[k - 1] < cut.m_final < full.m[k]
    assert reference_gap(cut, p) < 1e-8


def test_registration_near_critical_runs_to_its_basin():
    # no horizon: just above g_c the flow crosses the bottleneck and converges,
    # just below it stops at the central minimum next to the maximum
    gc = critical_coupling(mk())
    above = integrate_registration(+1, mk(g=gc * (1.0 + 1e-4)))
    assert above.terminal is TerminalKind.CONVERGED_FERRO
    assert above.times[-1] > 1e6
    for factor, m_para in ((1.0 - 1e-4, 0.3580137), (1.0 - 1e-10, 0.3609893)):
        trapped = integrate_registration(+1, mk(g=gc * factor))
        assert trapped.terminal is TerminalKind.TRAPPED_PARAMAGNETIC
        assert trapped.m_final == pytest.approx(m_para, abs=1e-5)


def test_rate_sign_change_raises(monkeypatch):
    # a rest point past an uncrossed root (the ferromagnetic minimum behind the
    # central one) would send the flow across a zero of the rate; the
    # quadrature refuses instead of integrating through it
    p = mk(g=0.05)
    ferro = statics.stationary_magnetizations(+1, p).points[-1].m
    assert ferro > statics.first_stationary(+1, p)
    monkeypatch.setattr(statics, "first_stationary", lambda sign, params: ferro)
    with pytest.raises(CurieWeissError, match="the rate does not point toward the attractor"):
        integrate_registration(+1, p)


def test_quadrature_rounding_allowance_decides_a_halving():
    # every interval here passes in the first round only through the rounding
    # bound of ode.kronrod; without it one is halved, and the trajectory gets
    # 220 nodes and another end time
    p = ModelParams(n_spins=100000, coupling_j=8.57291711005751, coupling_g=3.096451371362082,
                    temperature=6.913994863508019, gamma=0.0031184909587771265)
    traj = integrate_registration(+1, p)
    assert traj.times.size == 218
    assert traj.times[-1].hex() == "0x1.6eaf8bda8cf40p+12"


def _quadrature_record(monkeypatch):
    """Patch ode.time_to to record, per call, the intervals given, the
    accepted ends and times, and the rate's evaluations through a wrapper."""
    record = {}
    time_to = ode.time_to

    def counting(u, w, rate, dv):
        calls = []

        def counted(m):
            calls.append(m.size)
            return rate(m)

        ends, times = time_to(u, w, counted, dv)
        record.update(u=u, w=w, ends=ends, times=times, calls=calls, rate=rate, dv=dv)
        return ends, times

    monkeypatch.setattr(ode, "time_to", counting)
    return record


def test_reference_flow_takes_15_rate_evaluations_per_interval(monkeypatch):
    # one Kronrod rule per interval, in one vectorized round, and no halving
    record = _quadrature_record(monkeypatch)
    integrate_registration(+1, mk())
    assert record["u"].size == 219
    assert record["calls"] == [15 * 219]
    assert np.array_equal(record["ends"], record["w"])


def _probe_params(j, t_over_j, gamma, delta, below, ratio):
    """The quadrature probe's draw: g at g_c (1 + delta) or ratio g_c below
    it where a spinodal exists, else ratio J."""
    p = ModelParams(n_spins=100000, coupling_j=j, coupling_g=0.0, temperature=t_over_j * j,
                    gamma=gamma)
    try:
        gc = critical_coupling(p)
    except CurieWeissError:
        return replace(p, coupling_g=ratio * j)
    return replace(p, coupling_g=gc * (ratio if below else 1.0 + delta))


@settings(deadline=None, max_examples=60)
@given(st.floats(0.1, 10.0), st.floats(0.02, 0.9), st.floats(1e-4, 10.0),
       st.floats(-8.0, math.log10(3.0)).map(lambda e: 10.0**e), st.booleans(),
       st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
@example(1.0, 0.34, 1e-3, 1e-8, False, 0.5)
@example(1.0, 0.34, 1e-3, 1e-4, False, 0.5)
def test_quadrature_work_and_accuracy_over_the_probe_domain(j, t_over_j, gamma, delta,
                                                            below, ratio):
    # over the whole probe domain, near g_c included, the halving stays within
    # its budget, and each accepted interval's time is its Kronrod rule and
    # agrees with scipy's adaptive quadrature of 1/v to 1e-9 relative beyond
    # the rule's rounding bound: at the bottleneck, with delta = 1e-8, the
    # rate's own rounding is 1e-8 relative, and scipy's result is off the
    # 30-digit integral by 5e-9
    p = _probe_params(j, t_over_j, gamma, delta, below, ratio)
    with pytest.MonkeyPatch.context() as monkeypatch:
        record = _quadrature_record(monkeypatch)
        traj = integrate_registration(+1, p)
    assert sum(record["calls"]) <= 15 * ode._BUDGET * record["u"].size
    direction = 1.0 if traj.attractor >= 0.0 else -1.0
    order = np.argsort(direction * record["ends"])
    ends, times = record["ends"][order], record["times"][order]
    starts = np.append(record["u"][:1], ends[:-1])
    rule, _, noise = ode.kronrod(starts, ends, record["rate"], record["dv"])
    assert np.array_equal(rule, times)

    def inverse_rate(m):  # 1/flow_rate on a float, in math's scalar arithmetic
        h = p.coupling_g + p.coupling_j * (m * m * m)
        x = h / p.temperature
        v = h - m * p.temperature if abs(x) < 1e-8 else h * (1.0 - m / math.tanh(x))
        return 1.0 / (p.gamma * v)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)  # its roundoff note
        want = np.array([quad(inverse_rate, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                         for a, b in zip(starts, ends)])
    assert np.all(np.abs(times - want) <= 1e-9 * np.abs(want) + noise)


def reference_gap(traj, p):
    """Largest |m| difference from DOP853 at tolerance 1e-13 on the trajectory's times."""
    def rhs(t, y):
        return [float(flow_rate(min(max(float(y[0]), -1 + 1e-12), 1 - 1e-12),
                                traj.field_sign, p))]

    _, _, sample = reference_integrate(rhs, [float(traj.m[0])], (0.0, float(traj.times[-1])))
    return float(np.max(np.abs(traj.m - sample(traj.times)[0])))


# g/g_c at least 3% from 1, plus the two near-critical points
RATIOS = st.one_of(st.floats(0.5, 0.97), st.floats(1.03, 2.0))


@settings(deadline=None, max_examples=25)
@given(st.floats(0.1, 0.5), RATIOS, st.sampled_from([+1, -1]))
@example(0.34, 1.0 + 1e-4, +1)
@example(0.34, 1.0 - 1e-4, +1)
def test_quadrature_matches_reference_integrator(T, ratio, sign):
    p = mk(T=T, g=ratio * critical_coupling(mk(T=T)))
    traj = integrate_registration(sign, p)
    assert reference_gap(traj, p) < 1e-8


@settings(deadline=None, max_examples=60)
@given(st.floats(0.05, 0.8), st.floats(0.0, 0.6))
def test_down_sector_mirrors_up(T, g):
    p = mk(T=T, g=g)
    up, down = integrate_registration(+1, p), integrate_registration(-1, p)
    assert np.array_equal(down.times, up.times)
    assert np.array_equal(down.m, -up.m)
    assert down.terminal is up.terminal


def assert_down_is_up_mirrored(p, t_max):
    """The directly integrated down sector is the up one mirrored to the bit,
    by the parity of the flow under (s, m) -> (-s, -m): the same times and
    zeta0, m -> 0.0 - m (so m(0) stays +0.0), rate -> -rate, the attractor
    negated and the same terminal kind, the sign of every zero included;
    returns it."""
    up, down = (integrate_registration(s, p, t_max) for s in (+1, -1))
    mirrored = {"times": up.times, "m": 0.0 - up.m, "rate": -up.rate, "zeta0": up.zeta0}
    for name, want in mirrored.items():
        assert getattr(down, name).tobytes() == want.tobytes(), name
    assert (up.field_sign, down.field_sign) == (+1, -1)
    assert down.terminal is up.terminal
    assert down.attractor.hex() == (0.0 - up.attractor).hex()
    return down


@settings(deadline=None, max_examples=200)
@given(st.sampled_from([0.5, 1.0, 2.5, 4.0]), st.floats(0.05, 0.8),
       st.floats(1e-300, 0.6), st.none() | st.floats(1.0, 1e5))
@example(1.0, 0.34, 0.09, 6e5)
@example(1.0, 0.5, 5e-324, None)  # gamma g underflows: no flow, and the rate is -0.0
def test_mirrored_sector_is_the_down_sector_bit_for_bit(j, t, x, t_max):
    p = ModelParams(n_spins=100000, coupling_j=j, coupling_g=x * j, temperature=t * j,
                    gamma=1e-3)
    assert_down_is_up_mirrored(p, t_max)


@pytest.mark.parametrize("j, t, x, t_max, terminal", [
    (1.0, 0.34, 0.09, 6e5, TerminalKind.CONVERGED_FERRO),  # test_registration_sector_parity's
    (2.5, 0.2, 0.1, None, TerminalKind.CONVERGED_FERRO),
    (1.0, 0.34, 0.05, None, TerminalKind.TRAPPED_PARAMAGNETIC),
    (4.0, 0.8, 0.01, None, TerminalKind.TRAPPED_PARAMAGNETIC),  # no spinodal
    (1.0, 0.34, 0.09, 1e4, TerminalKind.MAX_TIME_REACHED),
    (0.5, 0.3, 0.05, 20.0, TerminalKind.MAX_TIME_REACHED),
])
def test_mirrored_sector_covers_every_terminal_kind(j, t, x, t_max, terminal):
    p = ModelParams(n_spins=100000, coupling_j=j, coupling_g=x * j, temperature=t * j,
                    gamma=1e-3)
    assert assert_down_is_up_mirrored(p, t_max).terminal is terminal


# --- exact scaling of the energies -------------------------------------------------


def _value_or_error(f, p):
    try:
        return f(p)
    except CurieWeissError as exc:
        return type(exc)


@settings(deadline=None, max_examples=200)
@given(st.floats(0.5, 4.0), st.floats(0.02, 1.2), st.just(0.0) | st.floats(1e-9, 0.6),
       st.sampled_from([0.25, 0.5, 2.0, 4.0]))
@example(1.0, 0.34, 0.09, 2.0)
@example(2.5, 0.2, 0.05, 0.5)
def test_scaling_g_t_and_j_by_a_power_of_two_is_exact(j, t, x, k):
    # psi and F are homogeneous of degree 1 in (g, T, J), and a power of two
    # scales without rounding (g is kept clear of the subnormals, where it
    # would round): every root and the threshold (T/3J)^(1/4) keep their
    # bits, F and g_c scale by k, and tau_reg at fixed gamma by 1/k
    p = ModelParams(n_spins=100000, coupling_j=j, coupling_g=x * j, temperature=t * j,
                    gamma=1e-3)
    q = replace(p, coupling_j=k * p.coupling_j, coupling_g=k * p.coupling_g,
                temperature=k * p.temperature)
    for sign in (+1, -1):
        assert first_stationary(sign, q).hex() == first_stationary(sign, p).hex()
        before, after = (stationary_magnetizations(sign, r).points for r in (p, q))
        assert [pt.m.hex() for pt in after] == [pt.m.hex() for pt in before]
        assert [pt.free_energy for pt in after] == [k * pt.free_energy for pt in before]
    assert registration_threshold(q).hex() == registration_threshold(p).hex()
    for f, factor in ((critical_coupling, k), (registration_time_quadrature, 1.0 / k)):
        want = _value_or_error(f, p)
        assert _value_or_error(f, q) == (factor * want if isinstance(want, float) else want)


# --- asymptotic rate ---------------------------------------------------------------


def test_tail_rate_near_gamma_j():
    p = mk()
    up = integrate_registration(+1, p, t_max=6e5)
    fit = asymptotic_rate(up, p)
    assert fit.keys() == {"tail_rate_fitted", "tail_rate_predicted"}
    assert fit["tail_rate_predicted"] == pytest.approx(1e-3, rel=1e-12, abs=0.0)
    assert fit["tail_rate_fitted"] == pytest.approx(fit["tail_rate_predicted"], rel=0.25)
    assert fit["tail_rate_fitted"] == pytest.approx(1.0136e-3, rel=1e-2)  # frozen fit value


def test_tail_rate_prediction_is_gamma_j():
    # at J = 2.5 the prediction gamma*J differs from gamma/J; g and T are the
    # reference point's scaled by J, so the flow converges the same way
    p = ModelParams(n_spins=100000, coupling_j=2.5, coupling_g=0.225, temperature=0.85,
                    gamma=1e-3, debye_cutoff=50.0)
    up = integrate_registration(+1, p)
    assert up.terminal is TerminalKind.CONVERGED_FERRO
    fit = asymptotic_rate(up, p)
    assert fit["tail_rate_predicted"] == p.gamma * p.coupling_j
    assert fit["tail_rate_fitted"] == pytest.approx(fit["tail_rate_predicted"], rel=0.02)


def test_tail_rate_scales_with_gamma():
    p1, p2 = mk(), mk(gamma=2e-3)
    f1 = asymptotic_rate(integrate_registration(+1, p1, 6e5), p1)
    f2 = asymptotic_rate(integrate_registration(+1, p2, 3e5), p2)
    assert f2["tail_rate_fitted"] == pytest.approx(2.0 * f1["tail_rate_fitted"], rel=0.02)


def polyfit_rate(traj):
    """The tail rate as np.polyfit fits it, over the tail asymptotic_rate takes."""
    delta = np.abs(traj.attractor - traj.m)
    lo, hi = (w * abs(traj.attractor) for w in TAIL_WINDOW)
    mask = (delta > lo) & (delta < hi)
    return -np.polyfit(traj.times[mask], np.log(delta[mask]), 1)[0]


def test_tail_rate_is_the_least_squares_slope_at_the_reference_point():
    p = mk()
    up = integrate_registration(+1, p)
    assert asymptotic_rate(up, p)["tail_rate_fitted"] == pytest.approx(polyfit_rate(up),
                                                                       rel=1e-12, abs=0.0)


@settings(deadline=None, max_examples=20)
@given(st.floats(0.1, 0.6), st.floats(1.03, 2.0))
def test_tail_rate_is_the_least_squares_slope(T, ratio):
    p = mk(T=T, g=ratio * critical_coupling(mk(T=T)))
    up = integrate_registration(+1, p)
    assert up.terminal is TerminalKind.CONVERGED_FERRO
    assert asymptotic_rate(up, p)["tail_rate_fitted"] == pytest.approx(polyfit_rate(up),
                                                                       rel=1e-12, abs=0.0)


def exponential_tail(rate, p):
    """A converged trajectory whose m_f - m = e^(-rate t) falls through five
    decades, across the whole window the fit takes."""
    t = np.linspace(0.0, 5.0 * math.log(10.0) / rate, 200)
    m = 0.9 - np.exp(-rate * t)
    return MagnetizationTrajectory(field_sign=+1, times=t, m=m, rate=flow_rate(m, +1, p),
                                   zeta0=np.ones_like(t),
                                   terminal=TerminalKind.CONVERGED_FERRO, attractor=0.9)


def test_tail_rate_of_a_noiseless_exponential():
    p, rate = mk(), 2.5e-3
    tail = exponential_tail(rate, p)
    fitted = asymptotic_rate(tail, p)["tail_rate_fitted"]
    assert fitted == pytest.approx(polyfit_rate(tail), rel=1e-12, abs=0.0)
    assert fitted == pytest.approx(rate, rel=1e-12, abs=0.0)


def test_tail_rate_where_the_squared_times_underflow():
    # at gamma = 1e300 the tail lasts ~1e-299, whose square is below the
    # least double: the fit works in units of the tail's span
    p, rate = mk(), 2.5e299
    assert asymptotic_rate(exponential_tail(rate, p), p)["tail_rate_fitted"] == pytest.approx(
        rate, rel=1e-12)


def test_tail_rate_insufficient_tail():
    p = mk()
    short = integrate_registration(+1, p, t_max=15000.0)  # dies mid-rise
    with pytest.raises(InsufficientTail):
        asymptotic_rate(short, p)


# --- registration time ----------------------------------------------------------------


def test_quadrature_vs_asymptotic_near_critical():
    # at (g - g_c)/g_c = 0.02 the two forms agree within 5 percent
    T = 0.05
    gc = critical_coupling_low_t(mk(T=T, g=0.001))
    p = mk(T=T, g=1.02 * gc)
    quad_t = registration_time_quadrature(p)
    asym_t = registration_time_asymptotic(p)
    assert quad_t == pytest.approx(asym_t, rel=0.05)
    assert quad_t / asym_t == pytest.approx(0.95250, abs=2e-4)  # frozen ratio


def test_quadrature_subcritical_rejected():
    T = 0.05
    gc = critical_coupling_low_t(mk(T=T, g=0.001))
    # at T = 0.34, g = 0.080 lies above the low-T g_c (0.0763) but below the
    # statics g_c (0.0815), so the run is trapped; above T = 3J/4 no g_c exists
    assert critical_coupling_low_t(mk()) < 0.080 < critical_coupling(mk())
    for p in (mk(T=T, g=0.999 * gc), mk(g=0.080), mk(T=0.8, g=0.05)):
        with pytest.raises(CriticalOrSubcritical):
            registration_time_quadrature(p)
        with pytest.raises(CriticalOrSubcritical):
            registration_time_asymptotic(p)


def _mp_bottleneck(eps):
    """40-digit integral of 1/((x-1)^2 (x+2) + eps) over (0, inf), split at the
    features of the integrand: x = 1 and its half-width sqrt(eps) about it."""
    with mpmath.workdps(40):
        e = mpmath.mpf(eps)
        cuts = {mpmath.mpf(0), mpmath.mpf(1), mpmath.mpf(2)}
        cuts |= {c for c in (1 - mpmath.sqrt(e), 1 + mpmath.sqrt(e)) if c > 0}
        return mpmath.quad(lambda x: 1 / ((x - 1) ** 2 * (x + 2) + e), [*sorted(cuts), mpmath.inf])


@pytest.mark.parametrize("eps", [10.0 ** (k / 2) for k in range(-28, 13)])
def test_bottleneck_closed_form_matches_mpmath(eps):
    assert bottleneck_integral(eps) == pytest.approx(float(_mp_bottleneck(eps)), rel=1e-14,
                                                     abs=0.0)


@pytest.mark.parametrize("eps", [10.0 ** (k / 2) for k in range(-12, 9)])
def test_bottleneck_closed_form_matches_adaptive_quadrature(eps):
    # scipy's quad of the integrand mapped to (0, 1); below eps ~ 1e-8 the
    # adaptive rule, not the closed form, is what loses digits
    def mapped(u):
        x = u / (1.0 - u)
        return 1.0 / ((x - 1.0) ** 2 * (x + 2.0) + eps) / (1.0 - u) ** 2

    val = quad(mapped, 0.0, 1.0, points=[0.5], limit=400, epsabs=1e-13, epsrel=1e-12)[0]
    assert bottleneck_integral(eps) == pytest.approx(val, rel=1e-12, abs=0.0)


def test_bottleneck_closed_form_domain():
    for eps in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(CurieWeissError, match="the bottleneck integral needs a finite eps > 0"):
            bottleneck_integral(eps)


def _newton_bottleneck(eps):
    """80-digit I(eps) from roots found apart from the closed form: Newton on
    p(x) = x^3 - 3x + 2 + eps from -3 - eps^(1/3), left of the real root r,
    where p is concave and rising, so the steps climb to r without passing
    it; the complex pair rho = (-r + i sqrt(3r^2 - 12))/2 by deflation, and
    I = -2 Re[log(rho/r)/p'(rho)]."""
    with mpmath.workdps(80):
        e = mpmath.mpf(eps)
        r = -3 - mpmath.cbrt(e)
        for _ in range(100):
            step = (r ** 3 - 3 * r + 2 + e) / (3 * r * r - 3)
            r -= step
            if abs(step) <= abs(r) * mpmath.mpf(10) ** -75:
                break
        else:
            raise AssertionError(f"Newton did not converge at eps = {eps}")
        rho = (-r + 1j * mpmath.sqrt(3 * r * r - 12)) / 2
        return float(-2 * mpmath.re(mpmath.log(rho / r) / (3 * rho * rho - 3)))


def _ten_to(k):
    """10^k, clipped to the largest double (10.0 ** k raises past it)."""
    return min(10.0 ** (k - 1.0) * 10.0, sys.float_info.max)


@settings(deadline=None, max_examples=500)
@given(st.floats(-40.0, math.log10(sys.float_info.max)).map(_ten_to))
@example(16.0)
@example(1e-14)
@example(1e6)
@example(1.3e154)
@example(sys.float_info.max)
def test_bottleneck_integral_matches_newton_roots(eps):
    assert bottleneck_integral(eps) == pytest.approx(_newton_bottleneck(eps), rel=4e-15, abs=0.0)


@pytest.mark.parametrize("eps", [1e-40, 1e-100, 1e-300, 1e-310, 1e-320, 1e-323, 5e-324])
def test_bottleneck_integral_at_small_eps(eps):
    # subnormal eps included; I(eps) = pi/sqrt(3 eps) (1 - 2.26 sqrt(eps) + ...),
    # whose next term is below 1e-20 relative here
    want = math.pi / math.sqrt(3.0 * eps)
    assert bottleneck_integral(eps) == pytest.approx(want, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("eps", [1e30, 1e100, 1e154, 1.3e154, 1.4e154, 1e155, 1e200,
                                 1e300, sys.float_info.max])
def test_bottleneck_integral_at_large_eps(eps):
    # up to the largest double the real root r ~ -eps^(1/3) and the complex
    # pair stay far from overflow; I(eps) -> 2 pi/(3 sqrt 3) eps^(-2/3), to
    # 1e-20 relative from eps = 1e30 on
    with mpmath.workdps(30):
        e = mpmath.mpf(eps)
        want = float(2 * mpmath.pi / (3 * mpmath.sqrt(3)) * e ** (mpmath.mpf(-2) / 3))
    assert bottleneck_integral(eps) == pytest.approx(want, rel=1e-14, abs=0.0)


def test_quadrature_time_is_prefactor_times_bottleneck():
    # tau_reg = 3/(gamma T) * I(eps): at g = 2 g_c of the low-T form, eps = 2,
    # which pins both the prefactor and the map from g to eps
    T, gamma = 0.05, 1e-3
    gc = (2 * T / 3) * math.sqrt(T / 3)
    p = ModelParams(n_spins=1000, coupling_g=2 * gc, temperature=T, gamma=gamma,
                    debye_cutoff=50.0)
    expected = 3.0 / (gamma * T) * float(_mp_bottleneck(2.0))
    assert registration_time_quadrature(p) == pytest.approx(expected, rel=1e-13)


def test_asymptotic_scaling_in_distance():
    # quadrupling g - g_c halves the asymptotic time
    T = 0.05
    gc = critical_coupling_low_t(mk(T=T, g=0.001))
    t1 = registration_time_asymptotic(mk(T=T, g=gc * (1 + 0.01)))
    t2 = registration_time_asymptotic(mk(T=T, g=gc * (1 + 0.04)))
    assert t1 == pytest.approx(2.0 * t2, rel=1e-12)


def test_crossing_time_matches_quadrature():
    # ODE crossing of the reference threshold vs the bottleneck integral
    T = 0.2
    gc = critical_coupling_low_t(mk(T=T, g=0.001))
    p = mk(T=T, g=1.5 * gc)
    target = registration_threshold(p)
    assert target == pytest.approx((T / 3.0) ** 0.25, rel=1e-12, abs=0.0)
    up = integrate_registration(+1, p, t_max=3e5)
    (t_cross,) = crossing_times(up, [target], p)
    tau_q = registration_time_quadrature(p)
    assert t_cross == pytest.approx(tau_q, rel=0.15)
    assert t_cross / tau_q == pytest.approx(1.0069, abs=5e-3)  # frozen ratio


def test_crossing_time_matches_exact_quadrature():
    # t(m) = integral_0^m dm'/v(m') to 30 digits at the reference point; the
    # flow's Kronrod rule from the node before m agrees to rounding
    p = mk()
    up = integrate_registration(+1, p)

    def inverse_rate(m):
        h = p.coupling_g + p.coupling_j * m**3
        return 1 / (p.gamma * h * (1 - m / mpmath.tanh(h / p.temperature)))

    threshold = registration_threshold(p)
    bottleneck = math.sqrt(p.temperature / (3.0 * p.coupling_j))
    with mpmath.workdps(30):
        for target in (0.8 * threshold, threshold, 1.25 * threshold):
            exact = float(mpmath.quad(inverse_rate, [0, bottleneck, target]))
            assert crossing_times(up, [target], p)[0] == pytest.approx(exact, rel=1e-12)


def test_crossing_time_edges():
    p = mk()
    up = integrate_registration(+1, p, t_max=6e5)
    # at and behind the start, never reached, and between the stored samples
    zero, behind, never, t_half = crossing_times(up, [0.0, -0.5, 0.9999, 0.5], p)
    assert zero == behind == 0.0
    assert never is None
    i = int(np.searchsorted(up.m, 0.5))
    assert up.times[i - 1] <= t_half <= up.times[i]


def test_crossing_time_down_sector():
    p = mk()
    down = integrate_registration(-1, p, t_max=6e5)
    up = integrate_registration(+1, p, t_max=6e5)
    assert crossing_times(down, [-0.5], p) == crossing_times(up, [0.5], p)


@pytest.mark.parametrize("t_cut", [1e3, 5e3, 1e4, 3e4])
def test_crossing_time_inverts_the_t_max_cut(t_cut):
    # the cut and crossing_times invert the flow by one Kronrod rule: the time
    # at which the full trajectory passes the cut's m_final is t_cut
    p = mk()
    full = integrate_registration(+1, p)
    cut = integrate_registration(+1, p, t_max=t_cut)
    assert crossing_times(full, [cut.m_final], p)[0] == pytest.approx(t_cut, rel=1e-14)
