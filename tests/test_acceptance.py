"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
one-line PASS report per criterion even on success).
"""

import math
import time

import numpy as np
import pytest

import curieweiss as cw
from curieweiss import registration, scenario, statics
from curieweiss.offdiag import (
    bath_exponent,
    decay_time_bath,
    envelope,
    log_recurrence_height_dispersed,
    reduction_time,
    sample_couplings,
    spin_echo,
)
import oracles

REF = cw.ModelParams(n_spins=100000, coupling_g=0.09, temperature=0.34,
                     gamma=1e-3, debye_cutoff=50.0)
PLUS = cw.SystemState2x2(0.5, 0.5, 0.5 + 0j)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def reference_up():
    return registration.integrate_registration(+1, REF, t_max=6e5)


@pytest.fixture(scope="module")
def reference_down():
    return registration.integrate_registration(-1, REF, t_max=6e5)


def test_criterion_01_critical_coupling():
    t0 = time.perf_counter()
    gc = cw.critical_coupling(REF)
    dt = time.perf_counter() - t0
    report(1, abs(gc - 0.08) <= 0.005 and dt < 1.0,
           f"g_c(T=0.34J) = {gc:.5f} (target 0.080 +- 0.005) in {dt:.3f}s")


def test_criterion_02_ferromagnetic_pointer():
    t0 = time.perf_counter()
    mf = cw.stationary_magnetizations(+1, REF).ferromagnetic.m
    dt = time.perf_counter() - t0
    report(2, abs(mf - 0.996) <= 0.001 and dt < 1.0,
           f"m_f(T=0.34J, g=0.09J) = {mf:.5f} (target 0.996 +- 0.001) in {dt:.3f}s")


def test_criterion_03_curie_temperature():
    t0 = time.perf_counter()
    tc = cw.curie_temperature(REF)
    dt = time.perf_counter() - t0
    report(3, abs(tc - 0.36) <= 0.01 and dt < 1.0,
           f"T_c(g=0) = {tc:.4f} (target 0.36 +- 0.01) in {dt:.3f}s")


def test_criterion_04_low_t_asymptote():
    worst = 0.0
    for t in np.linspace(0.005, 0.05, 10):
        p = cw.ModelParams(n_spins=1000, coupling_g=0.01, temperature=float(t),
                           gamma=1e-3, debye_cutoff=50.0)
        gc2 = cw.critical_coupling(p) ** 2
        ref = 4.0 * t**3 / 27.0
        worst = max(worst, abs(gc2 / ref - 1.0))
    report(4, worst <= 0.02,
           f"g_c^2 vs 4T^3/27J: worst relative deviation {worst:.4f} for T <= 0.05J (limit 0.02)")


def test_criterion_05_collapse_envelope():
    p = cw.ModelParams(n_spins=10**4, coupling_g=0.09, temperature=0.34,
                       gamma=1e-3, debye_cutoff=50.0)
    tau = reduction_time(p)
    value = abs(envelope(tau, sample_couplings(p, seed=0), 1.0 + 0j))
    dev = abs(value / math.exp(-1.0) - 1.0)
    report(5, dev <= 0.01,
           f"|cos^N(2gt)| at tau_red = {value:.6f} vs 1/e (dev {dev:.2e}, limit 1e-2)")


def test_criterion_06_recurrence():
    p0 = cw.ModelParams(n_spins=10**4, coupling_g=0.09, temperature=0.34,
                        gamma=0.0, debye_cutoff=50.0)
    t1 = math.pi / (2.0 * p0.coupling_g)
    exact = abs(abs(envelope(t1, sample_couplings(p0, seed=0), 1.0 + 0j)) - 1.0)

    pd = cw.ModelParams(n_spins=1000, coupling_g=0.09, delta_g=0.0045,
                        temperature=0.34, gamma=0.0, debye_cutoff=50.0)
    cv = sample_couplings(pd, seed=1)
    peak = abs(envelope(t1, cv, 1.0 + 0j))
    formula = math.exp(log_recurrence_height_dispersed(pd))
    dev = abs(peak / formula - 1.0)
    report(6, exact <= 1e-12 and dev <= 0.10,
           f"uniform recurrence defect {exact:.2e} (limit 1e-12); dispersed first peak "
           f"{peak:.3e} vs {formula:.3e} (dev {dev:.3f}, limit 0.10)")


def test_criterion_07_spin_echo():
    p = cw.ModelParams(n_spins=1000, coupling_g=0.09, delta_g=0.0045,
                       temperature=0.34, gamma=0.0, debye_cutoff=50.0)
    cv = sample_couplings(p, seed=9)
    theta = 12.0
    r0 = 0.5 - 0.3j
    traj = spin_echo(theta, cv, r0, np.array([2.0 * theta]))
    defect = abs(traj.amplitude[0] - r0)
    report(7, defect <= 1e-12,
           f"spin echo |r(2 theta) - r(0)| = {defect:.2e} (limit 1e-12)")


def test_criterion_08_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    times = np.linspace(0.0, 50.0, 50)
    for n in range(1, 13):
        pu = cw.ModelParams(n_spins=n, coupling_g=0.09, temperature=0.34,
                            gamma=0.0, debye_cutoff=50.0)
        for t in times:
            a = oracles.offdiag_sector_sum(float(t), pu.coupling_g, n, 1.0 + 0j)
            b = envelope(float(t), sample_couplings(pu, seed=0), 1.0 + 0j)
            worst = max(worst, abs(a - b))
    pd = cw.ModelParams(n_spins=12, coupling_g=0.09, delta_g=0.0045,
                        temperature=0.34, gamma=0.0, debye_cutoff=50.0)
    cv = sample_couplings(pd, seed=2)
    for t in times:
        a = oracles.full_hilbert_offdiag(float(t), cv, 1.0 + 0j)
        b = envelope(float(t), cv, 1.0 + 0j)
        worst = max(worst, abs(a - b))
    dt = time.perf_counter() - t0
    report(8, worst <= 1e-12 and dt < 60.0,
           f"oracle agreement worst |diff| = {worst:.2e} (limit 1e-12) in {dt:.1f}s (limit 60s)")


def test_criterion_09_short_time_ode():
    # free case reproduces (cos, i sin)
    pf = cw.ModelParams(n_spins=10, coupling_g=0.2, temperature=0.34, gamma=0.0,
                        debye_cutoff=0.1)
    times, zeta0, zetaz = oracles.reference_zeta(pf, 9.0)
    ang = 2.0 * pf.coupling_g * times
    free_defect = max(np.max(np.abs(zeta0 - np.cos(ang))),
                      np.max(np.abs(zetaz - 1j * np.sin(ang))))

    # damped case: peak-sampled aggregate matches exp(-(t/tau_2)^4) within 2%
    # on t <= tau_2 with tau_2 inside the short-time window (Gamma tau_2 = 0.1)
    pb = cw.ModelParams(n_spins=1000, coupling_g=80.0, temperature=0.34,
                        gamma=0.01, debye_cutoff=1.0)
    tau2 = decay_time_bath(pb)
    om = 2.0 * pb.coupling_g
    worst = 0.0
    peaks = 0
    for k in range(1, 40):
        tk = k * math.pi / om
        if tk > tau2:
            break
        agg = abs(complex(oracles.reference_zeta(pb, tk)[1][-1])) ** pb.n_spins
        wanted = math.exp(-pb.n_spins * bath_exponent(tk, pb))
        worst = max(worst, abs(agg / wanted - 1.0))
        peaks += 1
    report(9, free_defect <= 1e-10 and peaks >= 3 and worst <= 0.02,
           f"free-case defect {free_defect:.2e} (limit 1e-10); damped aggregate vs "
           f"exp(-(t/tau_2)^4) worst dev {worst:.4f} over {peaks} peaks (limit 0.02)")


def test_criterion_10_registration(reference_up, reference_down):
    ok_m = (abs(reference_up.m_final - 0.996) <= 0.001
            and abs(reference_down.m_final + 0.996) <= 0.001)
    trace_defect = max(np.max(np.abs(reference_up.zeta0 - 1.0)),
                       np.max(np.abs(reference_down.zeta0 - 1.0)))
    f_vals = np.array([statics.free_energy(float(m), +1, REF) for m in reference_up.m])
    monotone = bool(np.all(np.diff(f_vals) <= 1e-12))
    report(10, ok_m and trace_defect <= 1e-10 and monotone,
           f"m_final = ({reference_up.m_final:.5f}, {reference_down.m_final:.5f}) "
           f"(+-0.996 +- 0.001); trace defect {trace_defect:.2e} (limit 1e-10); "
           f"free energy monotone: {monotone}")


def test_criterion_11_registration_time():
    # quadrature vs asymptotic at (g - g_c)/g_c = 0.02
    t_low = 0.05
    gc = statics.critical_coupling_low_t(
        cw.ModelParams(n_spins=1000, coupling_g=0.001, temperature=t_low,
                       gamma=1e-3, debye_cutoff=50.0))
    p1 = cw.ModelParams(n_spins=1000, coupling_g=1.02 * gc, temperature=t_low,
                        gamma=1e-3, debye_cutoff=50.0)
    quad_t = statics.registration_time_quadrature(p1)
    asym_t = statics.registration_time_asymptotic(p1)
    dev1 = abs(quad_t / asym_t - 1.0)

    # quadrature vs ODE crossing at T = 0.2, g = 1.5 g_c
    t_mid = 0.2
    gc2 = statics.critical_coupling_low_t(
        cw.ModelParams(n_spins=1000, coupling_g=0.001, temperature=t_mid,
                       gamma=1e-3, debye_cutoff=50.0))
    p2 = cw.ModelParams(n_spins=1000, coupling_g=1.5 * gc2, temperature=t_mid,
                        gamma=1e-3, debye_cutoff=50.0)
    up = registration.integrate_registration(+1, p2, t_max=3e5)
    t_cross = registration.crossing_times(up, [statics.registration_threshold(p2)], p2)[0]
    tau_q = statics.registration_time_quadrature(p2)
    dev2 = abs(t_cross / tau_q - 1.0)
    report(11, dev1 <= 0.05 and dev2 <= 0.15,
           f"quadrature vs asymptotic dev {dev1:.4f} (limit 0.05); "
           f"crossing vs quadrature dev {dev2:.4f} (limit 0.15)")


def test_criterion_12_tail_rate(reference_up):
    fit = registration.asymptotic_rate(reference_up, REF)
    fitted, predicted = fit["tail_rate_fitted"], fit["tail_rate_predicted"]
    dev = abs(fitted / predicted - 1.0)
    report(12, dev <= 0.25,
           f"tail rate {fitted:.4e} vs gamma*J/hbar = {predicted:.4e} "
           f"(dev {dev:.3f}, limit 0.25)")


def test_criterion_13_entropy(reference_up):
    rng = np.random.default_rng(123)
    ok = True
    for i in range(1000):
        r_uu = rng.uniform(0.02, 0.98)
        if i % 2 == 0:
            r_ud = 0j
        else:
            cap = math.sqrt(r_uu * (1.0 - r_uu))
            r_ud = rng.uniform(1e-6, cap) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        st = cw.SystemState2x2(r_uu, 1.0 - r_uu, complex(r_ud))
        s0, s1 = scenario.state_entropy(st), scenario.dephased_entropy(st)
        if r_ud == 0:
            ok = ok and abs(s1 - s0) <= 1e-12
        else:
            ok = ok and (s1 > s0)
    fs = scenario.assemble_final_state(PLUS, REF, reference_up,
                                       scenario.collapse_run(cw.RunConfig(params=REF, state=PLUS),
                                                             6e5))
    delta_total = scenario.entropy_budget(PLUS, REF, fs)["delta_total"]
    report(13, ok and delta_total > 0,
           f"dephasing entropy law on 1000 random states: {ok}; "
           f"delta_total = {delta_total:.4e} > 0 at the reference point")


def test_criterion_14_born_preservation(reference_up, reference_down):
    rng = np.random.default_rng(321)
    worst, mirrored = 0.0, True
    for _ in range(100):
        r_uu = rng.uniform(0.01, 0.99)
        cap = math.sqrt(r_uu * (1.0 - r_uu))
        r_ud = rng.uniform(0, cap) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        st = cw.SystemState2x2(r_uu, 1.0 - r_uu, complex(r_ud))
        fs = scenario.assemble_final_state(st, REF, reference_up,
                                           scenario.collapse_run(cw.RunConfig(params=REF, state=st),
                                                                 6e5))
        w_up, w_down = (b["weight"] for b in fs["branches"])
        worst = max(worst, abs(w_up - st.r_uu), abs(w_down - st.r_dd))
        # the down branch's pointer, written from the up sector, is the down sector's
        down_pointer = fs["branches"][1]["pointer"]
        mirrored = mirrored and down_pointer.hex() == reference_down.m_final.hex()
    report(14, worst <= 1e-12 and mirrored,
           f"branch weights vs initial diagonals: worst |diff| = {worst:.2e} (limit 1e-12); "
           f"down pointer is the down sector's m_final to the bit: {mirrored}")


def test_criterion_15_determinism(tmp_path):
    cfg = cw.RunConfig(params=REF, state=PLUS, samples=60, seed=11)
    for sub in ("first", "second"):
        scenario.write_run(scenario.run_scenario(cfg), tmp_path / sub)
    names = sorted(p.name for p in (tmp_path / "first").iterdir())
    identical = all(
        (tmp_path / "first" / n).read_bytes() == (tmp_path / "second" / n).read_bytes()
        for n in names
    )
    report(15, identical and len(names) >= 5,
           f"repeated runs byte-identical across {len(names)} artifacts: {identical}")
