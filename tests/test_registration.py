import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from curieweiss.errors import (
    CriticalOrSubcritical,
    DomainError,
    InsufficientTail,
    NeverCrossed,
    StepFailure,
)
from curieweiss import statics
from curieweiss.model import ModelParams
from curieweiss.oracles import reference_integrate
from curieweiss.registration import (
    TerminalKind,
    asymptotic_rate,
    crossing_time,
    integrate_registration,
    registration_rhs,
    registration_threshold,
    registration_time_asymptotic,
    registration_time_quadrature,
)
from curieweiss.statics import critical_coupling, critical_coupling_low_t, free_energy


def mk(T=0.34, g=0.09, gamma=1e-3, n=100000):
    return ModelParams(n_spins=n, coupling_g=g, temperature=T, gamma=gamma,
                       debye_cutoff=50.0)


# --- right-hand side ---------------------------------------------------------


def test_rhs_at_origin_equals_gamma_g():
    p = mk()
    assert registration_rhs(0.0, +1, p) == pytest.approx(p.gamma * p.coupling_g, rel=1e-12)
    assert registration_rhs(0.0, -1, p) == pytest.approx(-p.gamma * p.coupling_g, rel=1e-12)


def test_rhs_vanishes_at_fixed_point():
    p = mk()
    m = 0.9965142159314115  # self-consistent point at the reference parameters
    assert abs(registration_rhs(m, +1, p)) < 1e-12


def test_rhs_domain():
    with pytest.raises(DomainError):
        registration_rhs(1.0, +1, mk())


def test_rhs_series_matches_exact_near_removable_point():
    # h -> 0 along m < 0 with s = +1: h = g + Jm^3 = 0 at m = -g^(1/3)
    p = mk(g=0.001)
    m_zero = -(p.coupling_g ** (1.0 / 3.0))
    for dm in (1e-9, -1e-9, 1e-7):
        m = m_zero + dm
        h = p.coupling_g + m**3
        exact = p.gamma * h * (1.0 - m / math.tanh(h / p.temperature)) if h != 0 else None
        got = registration_rhs(m, +1, p)
        if exact is not None and abs(h / p.temperature) > 1e-12:
            assert got == pytest.approx(exact, rel=1e-6, abs=1e-18)
    # exactly at the removable point: limit value -(gamma/hbar) m T
    got = registration_rhs(m_zero, +1, p)
    assert got == pytest.approx(-p.gamma * m_zero * p.temperature, rel=1e-8)


def test_rhs_bottleneck_minimum():
    # in the g << T << J regime the slowest rate is g - g_c at m^2 = T/3J
    p = mk(T=0.05, g=1.2 * critical_coupling(mk(T=0.05, g=0.01)))
    gc = critical_coupling(p)
    ms = np.linspace(1e-4, 0.5, 20001)
    rates = np.array([registration_rhs(m, +1, p) for m in ms]) * p.hbar / p.gamma
    i = int(np.argmin(rates))
    assert rates[i] == pytest.approx(p.coupling_g - gc, rel=0.05)
    assert ms[i] ** 2 == pytest.approx(p.temperature / 3.0, rel=0.05)


def test_rhs_barrier_top_value():
    # local maximum of the scaled rate near m = 3/4 approaches 27J/256
    p = mk(T=0.02, g=1.0001 * critical_coupling(mk(T=0.02, g=0.001)))
    ms = np.linspace(0.5, 0.95, 20001)
    rates = np.array([registration_rhs(m, +1, p) for m in ms]) * p.hbar / p.gamma
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


def test_registration_switch_off_robustness():
    # past the barrier, removing the coupling still lands at the g = 0 ferro value
    p0 = mk(g=0.0)
    run = integrate_registration(+1, p0, t_max=6e5, m0=0.70)
    assert run.terminal is TerminalKind.CONVERGED_FERRO
    assert run.m_final == pytest.approx(0.9938026, abs=1e-4)


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
    # a landscape that misses the central roots would send the flow across a
    # zero of the rate; the quadrature refuses instead of integrating through it
    p = mk(g=0.05)
    scape = statics.stationary_magnetizations(+1, p)
    missing = statics.Landscape(+1, scape.points[:2] + scape.points[4:], 2)
    monkeypatch.setattr(statics, "stationary_magnetizations", lambda sign, params: missing)
    with pytest.raises(StepFailure):
        integrate_registration(+1, p)


def reference_gap(traj, p):
    """Largest |m| difference from DOP853 at tolerance 1e-13 on the trajectory's times."""
    def rhs(t, y):
        return [registration_rhs(min(max(float(y[0]), -1 + 1e-12), 1 - 1e-12),
                                 traj.field_sign, p)]

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


# --- asymptotic rate ---------------------------------------------------------------


def test_tail_rate_near_gamma_j():
    p = mk()
    up = integrate_registration(+1, p, t_max=6e5)
    fit = asymptotic_rate(up, p)
    assert fit.predicted == pytest.approx(1e-3, rel=1e-12)
    assert fit.fitted == pytest.approx(fit.predicted, rel=0.25)
    assert fit.fitted == pytest.approx(1.0136e-3, rel=1e-2)  # frozen fit value


def test_tail_rate_scales_with_gamma():
    p1, p2 = mk(), mk(gamma=2e-3)
    f1 = asymptotic_rate(integrate_registration(+1, p1, 6e5), p1)
    f2 = asymptotic_rate(integrate_registration(+1, p2, 3e5), p2)
    assert f2.fitted == pytest.approx(2.0 * f1.fitted, rel=0.02)


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
    assert target == pytest.approx((T / 3.0) ** 0.25, rel=1e-12)
    up = integrate_registration(+1, p, t_max=3e5)
    t_cross = crossing_time(up, target)
    tau_q = registration_time_quadrature(p)
    assert t_cross == pytest.approx(tau_q, rel=0.15)
    assert t_cross / tau_q == pytest.approx(1.0069, abs=5e-3)  # frozen ratio


def test_crossing_time_edges():
    p = mk()
    up = integrate_registration(+1, p, t_max=6e5)
    assert crossing_time(up, 0.0) == 0.0
    assert crossing_time(up, -0.5) == 0.0  # behind the start
    with pytest.raises(NeverCrossed):
        crossing_time(up, 0.9999)
    # interpolated crossing is consistent with the stored samples
    t_half = crossing_time(up, 0.5)
    i = int(np.searchsorted(up.m, 0.5))
    assert up.times[i - 1] <= t_half <= up.times[i]


def test_crossing_time_down_sector():
    p = mk()
    down = integrate_registration(-1, p, t_max=6e5)
    t = crossing_time(down, -0.5)
    up = integrate_registration(+1, p, t_max=6e5)
    assert t == pytest.approx(crossing_time(up, 0.5), rel=1e-9)
