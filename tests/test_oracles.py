import math
import time

import numpy as np
import pytest

from curieweiss.model import ModelParams
from curieweiss.offdiag import (
    envelope,
    sample_couplings,
)
from curieweiss.registration import flow_rate
from curieweiss import registration
from oracles import (
    SectorSpectrum,
    TooLarge,
    full_hilbert_offdiag,
    offdiag_sector_sum,
    reference_integrate,
    zeta_matrix,
)


def mk(n, g=0.09, dg=0.0):
    return ModelParams(n_spins=n, coupling_g=g, delta_g=dg, temperature=0.34,
                       gamma=0.0, debye_cutoff=50.0)


# --- sector spectrum ----------------------------------------------------------


def test_sector_spectrum_counts():
    spec = SectorSpectrum.build(12)
    assert len(spec.levels) == 13
    assert spec.levels[0] == -1.0 and spec.levels[-1] == 1.0
    mult = np.exp(spec.log_multiplicity)
    assert mult[6] == pytest.approx(math.comb(12, 6), rel=1e-12)
    assert spec.log_total() == pytest.approx(12 * math.log(2.0), rel=1e-14, abs=0.0)


def test_sector_spectrum_large_n_log_domain():
    spec = SectorSpectrum.build(2000)
    assert spec.log_total() == pytest.approx(2000 * math.log(2.0), rel=1e-12)


# --- sector sum vs closed form ---------------------------------------------------


def test_sector_sum_equals_uniform_envelope():
    rng = np.random.default_rng(11)
    r0 = 0.4 + 0.2j
    for n in range(1, 21):
        p = mk(n)
        for t in rng.uniform(0.0, 60.0, 5):
            a = offdiag_sector_sum(float(t), p.coupling_g, n, r0)
            b = envelope(float(t), ((p.coupling_g, n),), r0)
            assert abs(a - b) < 1e-12


def test_sector_sum_single_spin():
    p = mk(1)
    t = 3.7
    assert offdiag_sector_sum(t, p.coupling_g, 1, 1.0 + 0j) == pytest.approx(
        math.cos(2 * 0.09 * t), abs=1e-14
    )


def test_sector_sum_first_recurrence_alignment():
    for n in (5, 6):
        p = mk(n)
        t1 = math.pi / (2 * p.coupling_g)
        assert offdiag_sector_sum(t1, p.coupling_g, n, 1.0 + 0j) == pytest.approx(
            (-1.0) ** n, abs=1e-12
        )


# --- full enumeration -------------------------------------------------------------


def test_enumeration_matches_dispersed_product():
    p = mk(12, dg=0.0045)
    cv = sample_couplings(p, seed=4)
    r0 = 0.3 - 0.25j
    for t in np.linspace(0.0, 40.0, 50):
        a = full_hilbert_offdiag(float(t), cv, r0)
        b = envelope(float(t), cv, r0)
        assert abs(a - b) < 1e-12


def test_enumeration_uniform_reduces_to_sector_sum():
    p = mk(14)
    cv = sample_couplings(p, seed=0)
    for t in (0.0, 2.2, 9.1):
        a = full_hilbert_offdiag(t, cv, 1.0 + 0j)
        b = offdiag_sector_sum(t, p.coupling_g, 14, 1.0 + 0j)
        assert abs(a - b) < 1e-12


def test_enumeration_initial_value():
    cv = sample_couplings(mk(8, dg=0.001), seed=1)
    assert full_hilbert_offdiag(0.0, cv, 0.7 + 0.1j) == pytest.approx(0.7 + 0.1j, abs=1e-14)


def test_enumeration_cap():
    cv = sample_couplings(mk(21, dg=0.0045), seed=1)
    with pytest.raises(TooLarge):
        full_hilbert_offdiag(1.0, cv, 1.0 + 0j)


def test_enumeration_n20_desk_scale():
    # uniform couplings compress onto sectors, so even N = 20 is instant;
    # the dispersed path enumerates 2^18 configurations in well under a minute
    t0 = time.perf_counter()
    cv_u = sample_couplings(mk(20), seed=0)
    full_hilbert_offdiag(1.0, cv_u, 1.0 + 0j)
    cv_d = sample_couplings(mk(18, dg=0.0045), seed=0)
    full_hilbert_offdiag(1.0, cv_d, 1.0 + 0j)
    assert time.perf_counter() - t0 < 30.0


# --- reference integrator ----------------------------------------------------------


def test_reference_bounds_production_registration_error():
    p = ModelParams(n_spins=100000, coupling_g=0.09, temperature=0.34, gamma=1e-3,
                    debye_cutoff=50.0)
    up = registration.integrate_registration(+1, p, t_max=6e5)

    def rhs(t, y):
        return [float(flow_rate(min(float(y[0]), 1 - 1e-12), +1, p))]

    _, _, sample = reference_integrate(rhs, [0.0], (0.0, float(up.times[-1])))
    sel = np.linspace(0, len(up.times) - 1, 40).astype(int)
    worst = max(abs(up.m[i] - sample(up.times[i])[0]) for i in sel)
    assert worst < 1e-8


def test_reference_integrator_calibration():
    _, states, _ = reference_integrate(lambda t, y: -y, [1.0], (0.0, 10.0))
    assert abs(states[-1][0] - math.exp(-10.0)) < 1e-12


def test_reference_zeta_free_case():
    p = ModelParams(n_spins=10, coupling_g=0.2, temperature=0.34, gamma=0.0,
                    debye_cutoff=0.1)
    _, states, _ = reference_integrate(
        lambda t, y: zeta_matrix(t, p) @ y, np.array([1.0 + 0j, 0j]), (0.0, 8.0),
        t_eval=np.linspace(0.0, 8.0, 9),
    )
    for t, row in zip(np.linspace(0.0, 8.0, 9), states):
        assert abs(row[0] - math.cos(0.4 * t)) < 1e-12
        assert abs(row[1] - 1j * math.sin(0.4 * t)) < 1e-12
