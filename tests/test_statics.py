import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curieweiss.errors import DomainError, NoFerromagneticSolution, SpinodalUndefined
from curieweiss.model import ModelParams
from curieweiss.statics import (
    PointKind,
    PointLabel,
    critical_coupling,
    critical_coupling_low_t,
    curie_temperature,
    ferromagnetic_gap,
    free_energy,
    free_energy_curvature,
    landscape_table,
    mixing_entropy,
    stationary_magnetizations,
)


def params(T=0.34, g=0.09, dg=0.0):
    return ModelParams(n_spins=100000, coupling_g=g, delta_g=dg, temperature=T,
                       gamma=1e-3, debye_cutoff=50.0)


# --- mixing entropy ---------------------------------------------------------


def test_mixing_entropy_symmetric_point():
    assert mixing_entropy(0.0) == pytest.approx(math.log(2.0), abs=1e-15)


def test_mixing_entropy_pure_configurations():
    assert mixing_entropy(1.0) == 0.0
    assert mixing_entropy(-1.0) == 0.0


def test_mixing_entropy_half():
    # -(0.75 ln 0.75 + 0.25 ln 0.25)
    assert mixing_entropy(0.5) == pytest.approx(0.5623351446188083, rel=1e-12)


def test_mixing_entropy_domain():
    with pytest.raises(DomainError):
        mixing_entropy(1.0001)


def test_mixing_entropy_vectorized_and_even():
    m = np.linspace(-1, 1, 41)
    s = mixing_entropy(m)
    assert np.allclose(s, s[::-1], atol=1e-15)


# --- free energy ------------------------------------------------------------


def test_free_energy_entropy_only_at_origin():
    p = params()
    assert free_energy(0.0, +1, p) == pytest.approx(-0.34 * math.log(2.0), rel=1e-14)


def test_free_energy_saturated():
    p = params()
    assert free_energy(1.0, +1, p) == pytest.approx(-0.09 - 0.25, rel=1e-14)


def test_free_energy_reference_value():
    # -0.09*0.5 - 0.015625 - 0.34*S(0.5)
    p = params()
    expected = -0.045 - 0.015625 - 0.34 * 0.5623351446188083
    assert free_energy(0.5, +1, p) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(-0.2518189491703948, rel=1e-12)


def test_free_energy_parity():
    p = params()
    for m in np.linspace(-0.99, 0.99, 23):
        assert free_energy(m, +1, p) == pytest.approx(free_energy(-m, -1, p), rel=1e-14)


# --- stationary points ------------------------------------------------------


def test_single_paramagnetic_point_above_transition():
    scape = stationary_magnetizations(+1, params(T=0.5, g=0.0))
    assert len(scape.points) == 1
    pt = scape.points[0]
    assert pt.m == pytest.approx(0.0, abs=1e-10)
    assert pt.kind is PointKind.MINIMUM
    assert pt.label is PointLabel.PARAMAGNETIC


def test_ferromagnetic_minimum_at_reference():
    scape = stationary_magnetizations(+1, params())
    assert scape.ferromagnetic.m == pytest.approx(0.9965142159, abs=1e-8)
    assert scape.points[scape.global_minimum].m == pytest.approx(0.9965142159, abs=1e-8)


def test_residual_invariant():
    p = params()
    for pt in stationary_magnetizations(+1, p).points:
        h = p.coupling_g + p.coupling_j * pt.m**3
        assert abs(pt.m - math.tanh(h / p.temperature)) < 1e-10


def test_paramagnetic_minimum_persists_below_critical():
    # g = 0.05 < g_c: shifted paramagnetic minimum near g/T alongside ferro pair
    scape = stationary_magnetizations(+1, params(g=0.05))
    kinds = [pt.kind for pt in scape.points]
    assert kinds == [PointKind.MINIMUM, PointKind.MAXIMUM, PointKind.MINIMUM,
                     PointKind.MAXIMUM, PointKind.MINIMUM]
    para = scape.paramagnetic
    assert para is not None
    assert para.m == pytest.approx(0.1571628, abs=1e-5)   # root-solve; ~ g/T = 0.147
    assert para.m == pytest.approx(0.05 / 0.34, abs=0.02)


def test_paramagnetic_minimum_absent_above_critical():
    scape = stationary_magnetizations(+1, params(g=0.09))
    assert scape.paramagnetic is None
    assert len(scape.minima) == 2  # ferro pair only


def test_symmetric_pairs_at_zero_field():
    scape = stationary_magnetizations(+1, params(T=0.3, g=0.0))
    ms = sorted(pt.m for pt in scape.points)
    assert ms == pytest.approx([-m for m in ms[::-1]], abs=1e-11)
    assert any(abs(m) < 1e-10 for m in ms)


def test_exactly_one_global_minimum_when_tilted():
    scape = stationary_magnetizations(+1, params(g=0.05))
    best = min(pt.free_energy for pt in scape.minima)
    winners = [pt for pt in scape.minima if pt.free_energy == best]
    assert len(winners) == 1
    assert scape.points[scape.global_minimum].free_energy == best


def test_classification_matches_curvature_sign():
    p = params(g=0.05)
    for pt in stationary_magnetizations(+1, p).points:
        curv = free_energy_curvature(pt.m, p)
        assert (curv > 0) == (pt.kind is PointKind.MINIMUM)


def test_five_roots_next_to_the_tangency():
    # g = g_c(1 - 1e-10): the central minimum and maximum lie 6e-6 apart
    p = params(g=critical_coupling(params()) * (1.0 - 1e-10))
    scape = stationary_magnetizations(+1, p)
    assert len(scape.points) == 5
    para, top = scape.points[2], scape.points[3]
    assert (para.kind, top.kind) == (PointKind.MINIMUM, PointKind.MAXIMUM)
    assert 0.0 < top.m - para.m < 1e-5
    assert para.m == pytest.approx(0.36099, abs=1e-5)


def test_ferromagnetic_root_beyond_the_old_grid():
    # 1 - m_f ~ 2 exp(-2J/T): 7.7e-13 at T = 0.07, below the last double at T = 0.05
    mf = stationary_magnetizations(+1, params(T=0.07, g=0.01)).ferromagnetic.m
    assert 0.999 < mf < 1.0
    assert 1.0 - mf == pytest.approx(2.0 * math.exp(-2.0 * (1.0 + 0.01) / 0.07), rel=1e-3)
    scape = stationary_magnetizations(+1, params(T=0.05, g=0.01))
    assert scape.ferromagnetic.m == math.nextafter(1.0, 0.0)
    assert scape.points[scape.global_minimum].m == scape.ferromagnetic.m


TEMPERATURES = st.floats(0.02, 1.0)
COUPLINGS = st.floats(0.0, 0.6)


@settings(deadline=None, max_examples=200)
@given(TEMPERATURES, COUPLINGS, st.sampled_from([+1, -1]))
def test_roots_solve_the_fixed_point_equation(T, g, sign):
    p = params(T=T, g=g)
    points = stationary_magnetizations(sign, p).points
    assert len(points) in (1, 3, 5)
    for pt in points:
        h = sign * g + p.coupling_j * pt.m**3
        assert abs(pt.m - math.tanh(h / T)) < 1e-12


@settings(deadline=None, max_examples=200)
@given(TEMPERATURES, COUPLINGS)
def test_roots_mirror_exactly(T, g):
    p = params(T=T, g=g)
    up = [pt.m for pt in stationary_magnetizations(+1, p).points]
    down = [pt.m for pt in stationary_magnetizations(-1, p).points]
    assert down == [-m for m in reversed(up)]


# --- critical coupling ------------------------------------------------------


def test_critical_coupling_reference():
    assert critical_coupling(params()) == pytest.approx(0.08, abs=0.005)
    assert critical_coupling(params()) == pytest.approx(0.0814861122609779, rel=1e-12)


def test_critical_coupling_low_t_asymptote():
    p = params(T=0.1)
    exact = critical_coupling(p)
    asym = critical_coupling_low_t(p)
    assert asym == pytest.approx((2 * 0.1 / 3) * math.sqrt(0.1 / 3), rel=1e-14)
    assert exact == pytest.approx(asym, rel=0.05)


def test_critical_coupling_spinodal_boundary():
    with pytest.raises(SpinodalUndefined):
        critical_coupling(params(T=0.75))


def test_critical_coupling_squared_asymptote_small_t():
    for T in (0.01, 0.02, 0.03, 0.04, 0.05):
        gc2 = critical_coupling(params(T=T)) ** 2
        assert gc2 == pytest.approx(4 * T**3 / 27.0, rel=0.02)


# --- Curie temperature ------------------------------------------------------


def test_curie_temperature_value():
    tc = curie_temperature(params())
    assert tc == pytest.approx(0.36, abs=0.01)
    assert tc == pytest.approx(0.362949, abs=2e-5)


def test_ferro_states_win_below_curie_and_lose_above():
    tc = curie_temperature(params())
    below = stationary_magnetizations(+1, params(T=tc - 0.01, g=0.0))
    ferro_b = below.ferromagnetic
    assert ferro_b.free_energy < free_energy(0.0, +1, params(T=tc - 0.01, g=0.0))
    above = stationary_magnetizations(+1, params(T=tc + 0.01, g=0.0))
    ferro_a = above.ferromagnetic
    assert abs(ferro_a.m) > 0.9  # still a local minimum below the spinodal
    assert ferro_a.free_energy > free_energy(0.0, +1, params(T=tc + 0.01, g=0.0))


# --- ferromagnetic gap ------------------------------------------------------


def test_gap_matches_low_t_asymptote():
    est = ferromagnetic_gap(params(T=0.2, g=0.0))
    assert est.asymptote == pytest.approx(2 * math.exp(-10.0), rel=1e-14)
    assert est.gap == pytest.approx(est.asymptote, rel=0.20)
    assert est.gap == pytest.approx(9.1044e-05, rel=1e-3)


def test_gap_at_reference_coupling():
    est = ferromagnetic_gap(params())
    assert est.gap == pytest.approx(0.004, abs=0.001)


def test_gap_vanishes_at_low_t():
    g1 = ferromagnetic_gap(params(T=0.15, g=0.0)).gap
    g2 = ferromagnetic_gap(params(T=0.10, g=0.0)).gap
    assert g2 < g1 < 1e-4


def test_gap_error_above_spinodal():
    with pytest.raises(NoFerromagneticSolution):
        ferromagnetic_gap(params(T=0.55, g=0.0))


def test_landscape_table_shape():
    m, f_up, f_down = landscape_table(params(), grid_points=101)
    assert len(m) == len(f_up) == len(f_down) == 101
    assert np.allclose(f_up, f_down[::-1], atol=1e-14)  # parity
