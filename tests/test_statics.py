import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from curieweiss import statics
from curieweiss.errors import CurieWeissError, NoFerromagneticSolution, SpinodalUndefined
from curieweiss.model import ModelParams
from curieweiss.statics import (
    PointKind,
    PointLabel,
    critical_coupling,
    critical_coupling_low_t,
    curie_temperature,
    ferromagnetic_gap,
    first_stationary,
    free_energy,
    free_energy_curvature,
    label_point,
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
    assert mixing_entropy(0.5) == pytest.approx(0.5623351446188083, rel=1e-12, abs=0.0)


def test_mixing_entropy_domain():
    with pytest.raises(CurieWeissError, match=r"\|m\| must be <= 1, got 1.0001"):
        mixing_entropy(1.0001)


def test_mixing_entropy_vectorized_and_even():
    m = np.linspace(-1, 1, 41)
    s = mixing_entropy(m)
    assert np.allclose(s, s[::-1], atol=1e-15)


# --- free energy ------------------------------------------------------------


def test_free_energy_entropy_only_at_origin():
    p = params()
    assert free_energy(0.0, +1, p) == pytest.approx(-0.34 * math.log(2.0), rel=1e-14, abs=0.0)


def test_free_energy_saturated():
    p = params()
    assert free_energy(1.0, +1, p) == pytest.approx(-0.09 - 0.25, rel=1e-14, abs=0.0)


def test_free_energy_reference_value():
    # -0.09*0.5 - 0.015625 - 0.34*S(0.5)
    p = params()
    expected = -0.045 - 0.015625 - 0.34 * 0.5623351446188083
    assert free_energy(0.5, +1, p) == pytest.approx(expected, rel=1e-12, abs=0.0)
    assert expected == pytest.approx(-0.2518189491703948, rel=1e-12, abs=0.0)


def test_free_energy_parity():
    p = params()
    for m in np.linspace(-0.99, 0.99, 23):
        assert free_energy(m, +1, p) == pytest.approx(free_energy(-m, -1, p), rel=1e-14, abs=0.0)


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
    (para,) = [pt for pt in scape.minima if pt.label is PointLabel.PARAMAGNETIC]
    assert para.m == pytest.approx(0.1571628, abs=1e-5)   # root-solve; ~ g/T = 0.147
    assert para.m == pytest.approx(0.05 / 0.34, abs=0.02)


def test_paramagnetic_minimum_absent_above_critical():
    scape = stationary_magnetizations(+1, params(g=0.09))
    assert all(pt.label is not PointLabel.PARAMAGNETIC for pt in scape.minima)
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
    assert 1.0 - mf == pytest.approx(2.0 * math.exp(-2.0 * (1.0 + 0.01) / 0.07), rel=1e-3,
                                     abs=0.0)
    scape = stationary_magnetizations(+1, params(T=0.05, g=0.01))
    assert scape.ferromagnetic.m == math.nextafter(1.0, 0.0)
    assert scape.points[scape.global_minimum].m == scape.ferromagnetic.m


def test_zero_field_tie_goes_to_the_field_sign():
    # at g = 0 the two wells tie exactly; both the global minimum and the
    # ferromagnetic point take the sign of the field
    p = params(T=0.3, g=0.0)
    for sign in (+1, -1):
        scape = stationary_magnetizations(sign, p)
        m = scape.points[scape.global_minimum].m
        assert m == scape.ferromagnetic.m
        assert sign * m > 0.99


TEMPERATURES = st.floats(0.02, 1.0)
COUPLINGS = st.floats(0.0, 0.6)


@settings(deadline=None, max_examples=300)
@given(TEMPERATURES, COUPLINGS, st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
       st.sampled_from([+1, -1]))
@example(0.34, 0.0, 0.9938025608350363, +1)
def test_free_energy_parity_is_exact(T, g, m, sign):
    # F_s(m) = F_-s(-m) to the last bit, as scalars and as arrays
    p = params(T=T, g=g)
    assert free_energy(m, sign, p) == free_energy(-m, -sign, p)
    arr = np.array([m, 0.5 * m])
    assert np.array_equal(free_energy(arr, sign, p), free_energy(-arr, -sign, p))


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


def assert_same_landscape(a, b):
    """a and b agree point for point, m and F to the bit (a zero's sign included)."""
    assert a.field_sign == b.field_sign
    assert a.global_minimum == b.global_minimum
    assert len(a.points) == len(b.points)
    for p, q in zip(a.points, b.points):
        assert p.m.hex() == q.m.hex()
        assert p.free_energy.hex() == q.free_energy.hex()
        assert p.kind is q.kind
        assert p.label is q.label


@settings(deadline=None, max_examples=300)
@given(st.sampled_from([0.5, 1.0, 2.5, 4.0]), st.floats(0.02, 1.2),
       st.just(0.0) | st.floats(0.0, 0.6))
@example(1.0, 0.34, 0.0)  # two ferromagnetic minima tie; the root m = 0 stays +0.0
@example(1.0, 0.34, 0.09)
@example(1.0, 0.34, 0.05)
@example(2.5, 0.8, 0.05)  # T >= 3J/4: no spinodal
@example(2.5, 1.125, 5e-324)  # g = 1e-323: the root m = 0 is +0.0 in both fields
def test_mirrored_landscape_is_the_down_scan(j, t, x):
    p = ModelParams(n_spins=100000, coupling_j=j, coupling_g=x * j, temperature=t * j,
                    gamma=1e-3)
    up = stationary_magnetizations(+1, p)
    assert_same_landscape(up.mirrored(), stationary_magnetizations(-1, p))


@settings(deadline=None, max_examples=300)
@given(st.sampled_from([0.5, 1.0, 2.5, 4.0]), st.floats(0.02, 1.2),
       st.just(0.0) | st.floats(0.0, 0.6), st.sampled_from([+1, -1]))
@example(1.0, 0.34, 0.0, +1)  # g = 0: the tied pair and the root +0.0
@example(1.0, 0.34, 0.0, -1)
@example(1.0, 0.8, 0.05, +1)  # T >= 3J/4: one root
@example(2.5, 0.75, 0.3, -1)
def test_landscape_free_energy_is_the_scalar_one(j, t, x, sign):
    # the scan evaluates F at all its roots in one array call; each value is
    # the scalar call's at that root, to the bit
    p = ModelParams(n_spins=100000, coupling_j=j, coupling_g=x * j, temperature=t * j,
                    gamma=1e-3)
    points = stationary_magnetizations(sign, p).points
    if t >= 0.75:
        assert len(points) == 1
    for pt in points:
        assert pt.free_energy.hex() == free_energy(pt.m, sign, p).hex()


def assert_first_stationary_is_the_scanned_point(sign, p):
    """first_stationary(sign, p) is, to the bit (a zero's sign included), the
    stationary point of the scan nearest m = 0 on the field's side; returns it."""
    got = first_stationary(sign, p)
    ahead = [pt.m for pt in stationary_magnetizations(sign, p).points if sign * pt.m >= 0.0]
    assert got.hex() == min(ahead, key=lambda m: sign * m).hex()
    return got


@settings(deadline=None, max_examples=300)
@given(st.floats(0.02, 1.2), COUPLINGS, st.sampled_from([+1, -1]))
@example(0.34, 0.0, +1)
@example(0.34, 0.0, -1)
@example(1.2, 0.0, -1)
@example(0.75, 0.05, -1)
@example(0.8, 0.6, +1)
@example(0.75, 0.6, +1)
@example(0.05, 0.02, +1)
def test_first_stationary_is_the_scanned_point_nearest_zero(T, g, sign):
    got = assert_first_stationary_is_the_scanned_point(sign, params(T=T, g=g))
    if g == 0.0:
        assert got == 0.0


@pytest.mark.parametrize("sign", [+1, -1])
@pytest.mark.parametrize("T", [0.05, 0.34, 0.7])
def test_first_stationary_at_the_critical_coupling(T, sign):
    # at and below g_c the flow rests in the central well, above it in the
    # ferromagnetic well of the field's sign
    gc = critical_coupling(params(T=T))
    ferro = PointLabel.FERRO_UP if sign > 0 else PointLabel.FERRO_DOWN
    for g, label in ((math.nextafter(gc, 0.0), PointLabel.PARAMAGNETIC),
                     (gc, PointLabel.PARAMAGNETIC), (math.nextafter(gc, 1.0), ferro)):
        got = assert_first_stationary_is_the_scanned_point(sign, params(T=T, g=g))
        assert label_point(got) is label


def edge_coupling(j, t, edge, ulps):
    """g = |psi| at the branch edge m- or m+ of (J, T), moved by ulps ulps
    (-1, 0 or 1); a float edge is g/J itself.  |psi(m+)|, since psi(m+) < 0
    below T = 0.4958 J, where it is the field psi(-m+) of the edge -m+."""
    p = ModelParams(n_spins=100000, coupling_j=j, temperature=t, gamma=1e-3)
    if not isinstance(edge, str):
        return edge * j
    lo, hi = statics._curvature_roots(p)
    g = abs(statics._psi(lo if edge == "m-" else hi, p))
    return g if ulps == 0 else math.nextafter(g, math.inf if ulps > 0 else 0.0)


#: T/J next to the cusp 3/4, within 1e-10 of which rounding can put psi(m+)
#: at or above psi(m-) = g_c, so the branch (m-, m+) brackets a root past g_c
CUSP = st.builds(lambda mantissa, exponent: 0.75 - mantissa * 10.0 ** -exponent,
                 st.floats(1.0, 9.99), st.integers(4, 15))


@settings(deadline=None, max_examples=400)
@given(st.sampled_from([0.5, 1.0, 2.5, 4.0]), st.floats(0.02, 0.7499) | CUSP,
       st.sampled_from(["m-", "m+"]), st.sampled_from([-1, 0, 1]), st.sampled_from([+1, -1]))
@example(1.0, 0.34, 0.0, 0, +1)  # g = 0: the root +0.0 in either field
@example(1.0, 0.34, 0.0, 0, -1)
@example(1.0, 0.34, "m-", 0, +1)  # g = g_c: the double root m-
@example(1.0, 0.34, "m-", 0, -1)
@example(1.0, 0.75, 0.05, 0, +1)  # T >= 3J/4: no branch edges, one root
@example(2.5, 0.8, 0.3, 0, -1)
@example(1.0, 0.7499999999998, "m+", -1, +1)  # g_c < g < psi(m+): the root on (m-, m+)
@example(2.5, 0.7499999999993, "m+", -1, -1)
@example(1.0, 0.7499999999998, "m+", 0, -1)  # g = psi(m+) > g_c: the double root -m+
def test_first_stationary_at_the_branch_edges(j, x, edge, ulps, sign):
    # g at psi of an inner edge, and one ulp either side, where the first
    # rest point moves from one branch to the next.  Next to the cusp the
    # scan can classify no root as a minimum and raise, so its roots are
    # taken here by the generic bisect on each of its brackets
    t = x * j
    p = ModelParams(n_spins=100000, coupling_j=j, coupling_g=edge_coupling(j, t, edge, ulps),
                    temperature=t, gamma=1e-3)
    target = sign * p.coupling_g

    def f(m):
        return t * math.atanh(m) - j * (m * m * m) - target

    below_one = math.nextafter(1.0, 0.0)
    roots = [max(-below_one, min(below_one, statics.bisect(f, *br))) + 0.0
             for br in statics._brackets(target, p)]
    first = min((m for m in roots if sign * m >= 0.0), key=lambda m: sign * m)
    assert first_stationary(sign, p).hex() == first.hex()
    try:
        landscape = stationary_magnetizations(sign, p)
    except NoFerromagneticSolution:
        return
    assert [pt.m.hex() for pt in landscape.points] == [m.hex() for m in roots]


def test_a_root_where_the_curvature_is_rounding_noise_is_a_minimum():
    # T = 3J/4 - 2e-13 and g one ulp below the rounded psi(m+), above g_c:
    # rounding puts psi(m+) above psi(m-), so the one root lies on the branch
    # (m-, m+).  F'' there is -4e-13, rounding noise, while F' = psi - g
    # rises across the bracket: a minimum, which the sign of F'' missed
    p = ModelParams(n_spins=100000, coupling_g=0.3074767996712073, temperature=0.7499999999998,
                    gamma=1e-3)
    assert critical_coupling(p) < p.coupling_g
    up = stationary_magnetizations(+1, p)
    assert [(pt.m, pt.kind) for pt in up.points] == [(0.7071067811865239, PointKind.MINIMUM)]
    assert -1e-12 < free_energy_curvature(up.points[0].m, p) < 0.0
    assert_same_landscape(up.mirrored(), stationary_magnetizations(-1, p))


#: a root that rounding puts on the wrong side of a branch edge m+- lies
#: where psi is within rounding of its edge value; psi is quadratic there
#: (cubic at the cusp), so F'' = psi' is at most of order sqrt(eps) times
#: the scale of its terms 3 J m^2 and T / (1 - m^2)
CURVATURE_NOISE = math.sqrt(sys.float_info.epsilon)
#: T/J within 1e-15 to 1e-2 of the cusp 3/4
NEAR_CUSP = st.builds(lambda mantissa, exponent: 0.75 - mantissa * 10.0 ** -exponent,
                      st.floats(1.0, 9.99), st.integers(2, 15))


@settings(deadline=None, max_examples=400)
@given(st.sampled_from([0.5, 1.0, 2.5, 4.0]) | st.floats(0.1, 10.0),
       st.floats(0.02, 1.2) | NEAR_CUSP,
       st.sampled_from(["m-", "m+"]) | st.floats(0.0, 0.6), st.sampled_from([-1, 0, 1]),
       st.sampled_from([+1, -1]))
@example(1.0, 0.7499999999998, "m+", -1, +1)  # F'' = -4e-13 at a minimum
@example(1.0, 0.34, 0.05, 0, +1)  # five roots
@example(1.0, 0.34, "m-", 0, -1)  # the double root -m-
@example(2.5, 0.8, 0.3, 0, +1)  # T >= 3J/4: one root
def test_sign_change_and_curvature_classify_alike_past_rounding(j, x, edge, ulps, sign):
    # a simple root is a minimum where F' = psi - s g goes from - to +; F''
    # says the same wherever it is larger than rounding noise.  Where no
    # minimum is found, the scan holds a double root, classified by F''
    t = x * j
    assume(isinstance(edge, float) or x < 0.75)
    p = ModelParams(n_spins=100000, coupling_j=j, coupling_g=edge_coupling(j, t, edge, ulps),
                    temperature=t, gamma=1e-3)
    try:
        points = stationary_magnetizations(sign, p).points
    except NoFerromagneticSolution:
        assert any(a == b for a, b, _ in statics._brackets(sign * p.coupling_g, p))
        return
    for pt in points:
        curvature = free_energy_curvature(pt.m, p)
        scale = 3.0 * j * pt.m * pt.m + t / (1.0 - pt.m * pt.m)
        if abs(curvature) > CURVATURE_NOISE * scale:
            assert (pt.kind is PointKind.MINIMUM) is (curvature > 0.0)


def assert_roots_are_bisect(sign, p):
    """Every root of the scan and first_stationary are, to the bit, the
    generic statics.bisect of f = psi - s g on the same bracket, rounded
    into (-1, 1) with a zero made +0.0 as the scan rounds it."""
    t, j, target = p.temperature, p.coupling_j, sign * p.coupling_g

    def f(m):
        return t * math.atanh(m) - j * (m * m * m) - target

    below_one = math.nextafter(1.0, 0.0)
    want = [max(-below_one, min(below_one, statics.bisect(f, *br))) + 0.0
            for br in statics._brackets(target, p)]
    got = [pt.m for pt in stationary_magnetizations(sign, p).points]
    assert [m.hex() for m in got] == [m.hex() for m in want]
    first = min((m for m in want if sign * m >= 0.0), key=lambda m: sign * m)
    assert first_stationary(sign, p).hex() == first.hex()


@settings(deadline=None, max_examples=300)
@given(st.floats(0.5, 4.0), st.floats(0.02, 1.2), st.just(0.0) | st.floats(0.0, 0.6),
       st.sampled_from([+1, -1]))
@example(1.0, 0.34, 0.0, +1)  # g = 0: the root m = 0 and the tied pair
@example(1.0, 0.34, 0.09, -1)
@example(1.0, 0.34, 5e-324, +1)
@example(2.5, 0.8, 0.05, -1)  # T >= 3J/4: one root
@example(4.0, 0.02, 0.6, +1)  # a root past the last double below 1
def test_roots_are_the_generic_bisection(j, t, x, sign):
    # T = t J and g = x J cover one, three and five roots for every J drawn
    p = ModelParams(n_spins=100000, coupling_j=j, coupling_g=x * j, temperature=t * j,
                    gamma=1e-3)
    assert_roots_are_bisect(sign, p)


@pytest.mark.parametrize("sign", [+1, -1])
@pytest.mark.parametrize("T", [0.05, 0.34, 0.7])
def test_roots_are_the_generic_bisection_at_the_critical_coupling(T, sign):
    # at g = g_c, f is exactly 0 on the edge m-: a double root, the bracket (m-, m-)
    gc = critical_coupling(params(T=T))
    for g in (math.nextafter(gc, 0.0), gc, math.nextafter(gc, 1.0)):
        assert_roots_are_bisect(sign, params(T=T, g=g))


# --- critical coupling ------------------------------------------------------


def test_critical_coupling_reference():
    assert critical_coupling(params()) == pytest.approx(0.08, abs=0.005)
    assert critical_coupling(params()) == pytest.approx(0.0814861122609779, rel=1e-12, abs=0.0)


def test_critical_coupling_low_t_asymptote():
    p = params(T=0.1)
    exact = critical_coupling(p)
    asym = critical_coupling_low_t(p)
    assert asym == pytest.approx((2 * 0.1 / 3) * math.sqrt(0.1 / 3), rel=1e-14, abs=0.0)
    assert exact == pytest.approx(asym, rel=0.05, abs=0.0)


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


def test_curie_temperature_bisects_once_per_process(monkeypatch):
    # T_c/J is one pure number: its gap is bisected at the first call only
    p1, p25 = params(), ModelParams(n_spins=100000, coupling_j=2.5, coupling_g=0.09,
                                    temperature=0.34)
    statics._curie_gap.cache_clear()
    calls = []
    bisect = statics.bisect
    monkeypatch.setattr(statics, "bisect", lambda *a: calls.append(1) or bisect(*a))
    assert curie_temperature(p1) == 0.3629493340972723
    assert curie_temperature(p25) == 0.9073733352431808
    assert len(calls) == 1


def test_ferro_states_win_below_curie_and_lose_above():
    tc = curie_temperature(params())
    below = stationary_magnetizations(+1, params(T=tc - 0.01, g=0.0))
    ferro_b = below.ferromagnetic
    assert ferro_b.free_energy < free_energy(0.0, +1, params(T=tc - 0.01, g=0.0))
    above = stationary_magnetizations(+1, params(T=tc + 0.01, g=0.0))
    ferro_a = above.ferromagnetic
    assert abs(ferro_a.m) > 0.9  # still a local minimum below the spinodal
    assert ferro_a.free_energy > free_energy(0.0, +1, params(T=tc + 0.01, g=0.0))


def _mp_curie_temperature():
    """T_c/J from the original pair at g = 0, solved jointly at 40 digits:
    stationarity T atanh m = m^3 and degeneracy F(m) = F(0)."""
    mp = pytest.importorskip("mpmath").mp
    mp.dps = 40

    def f_minus_f0(m, t):  # F(m) - F(0) at g = 0, J = 1
        return -m**4 / 4 + t * ((1 + m) * mp.log(1 + m) + (1 - m) * mp.log(1 - m)) / 2

    m, t = mp.findroot([lambda m, t: t * mp.atanh(m) - m**3, f_minus_f0],
                       (mp.mpf("0.99"), mp.mpf("0.36")))
    assert mp.almosteq(t, mp.mpf("0.3629493340972723952"), 1e-18)
    return t


@pytest.mark.parametrize("j", [1.0, 2.5])
def test_curie_temperature_matches_mpmath(j):
    p = ModelParams(n_spins=100000, coupling_j=j, coupling_g=0.09, temperature=0.34,
                    gamma=1e-3, debye_cutoff=50.0)
    exact = j * _mp_curie_temperature()
    assert abs(curie_temperature(p) / float(exact) - 1.0) <= 1e-15


def test_curie_temperature_is_degenerate():
    p = params(T=curie_temperature(params()), g=0.0)
    mf = stationary_magnetizations(+1, p).ferromagnetic
    assert mf.m > 0.99
    assert abs(mf.free_energy - free_energy(0.0, +1, p)) <= 1e-15


# --- ferromagnetic gap ------------------------------------------------------


def gap(p):
    return ferromagnetic_gap(stationary_magnetizations(+1, p), p)


def test_gap_matches_low_t_asymptote():
    est = gap(params(T=0.2, g=0.0))
    assert est.keys() == {"gap", "asymptote_2exp_minus_2j_over_t"}
    asymptote = est["asymptote_2exp_minus_2j_over_t"]
    assert asymptote == pytest.approx(2 * math.exp(-10.0), rel=1e-14, abs=0.0)
    assert est["gap"] == pytest.approx(asymptote, rel=0.20, abs=0.0)
    assert est["gap"] == pytest.approx(9.1044e-05, rel=1e-3, abs=0.0)


def test_gap_at_reference_coupling():
    assert gap(params())["gap"] == pytest.approx(0.004, abs=0.001)


def test_gap_vanishes_at_low_t():
    g1 = gap(params(T=0.15, g=0.0))["gap"]
    g2 = gap(params(T=0.10, g=0.0))["gap"]
    assert g2 < g1 < 1e-4


def test_gap_error_above_spinodal():
    with pytest.raises(NoFerromagneticSolution):
        gap(params(T=0.55, g=0.0))


def bits(values) -> list[str]:
    """The values' exact bits, a zero's sign included."""
    return [float(x).hex() for x in values]


def test_landscape_table_shape():
    m, f_up, f_down = landscape_table(params())
    assert len(m) == len(f_up) == len(f_down) == 401
    assert m[0] == -1.0 and m[200] == 0.0 and m[-1] == 1.0


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([0.5, 1.0, 2.5, 4.0]), st.floats(0.05, 0.8), st.floats(0.0, 0.6))
@example(1.0, 0.34, 0.0)
@example(1.0, 0.34, 5e-324)
def test_landscape_table_is_free_energy_to_the_bit(j, t, x):
    # the table evaluates F on the cached grid's m^4 and S(m)
    p = ModelParams(n_spins=100000, coupling_j=j, coupling_g=x * j, temperature=t * j)
    m = np.arange(-200, 201) / 200.0
    assert bits(landscape_table(p)[1]) == bits(free_energy(m, +1, p))


@pytest.mark.parametrize("p", [
    params(), params(g=0.0), params(T=0.8, g=0.05),
    ModelParams(n_spins=100000, coupling_j=2.5, coupling_g=0.225, temperature=0.85),
])
def test_landscape_table_is_exactly_mirrored(p):
    m, f_up, f_down = landscape_table(p)
    # each node is the correctly rounded k/200 (Python's int / int), so the
    # grid is antisymmetric to the bit: 0.0 - m keeps the centre +0.0
    assert list(m) == [k / 200 for k in range(-200, 201)]
    assert bits(m[::-1]) == bits(0.0 - x for x in m)
    # parity F_s(m) = F_-s(-m), to the bit
    assert bits(f_down) == bits(free_energy(m, -1, p))
    assert bits(f_down) == bits(f_up[::-1])
