"""The time-of-flight quadrature of a one-dimensional autonomous flow, on
rates whose answer is known.  The registration tests pin it, bit for bit, on
the flow it serves."""

import math

import mpmath
import numpy as np
import pytest

from curieweiss import ode
from curieweiss.errors import CurieWeissError

K, A = 0.7, 1.0


def relaxation(m):
    return K * (A - m)


def test_linear_relaxation_matches_closed_form():
    # v = k (a - m) takes ln((a - u)/(a - w))/k from u to w
    u = np.array([0.0, 0.3, 0.9, 0.999])
    w = np.array([0.3, 0.9, 0.999, 0.999999])
    ends, times = ode.time_to(u, w, relaxation, 0.0)
    order = np.argsort(ends)
    ends, elapsed = ends[order], np.cumsum(times[order])
    assert np.all(np.isin(w, ends))
    for x, t in zip(w, elapsed[np.searchsorted(ends, w)]):
        assert t == pytest.approx(math.log((A - 0.0) / (A - x)) / K, rel=1e-10)


def test_kronrod_rule_constants():
    # QUADPACK's qk15 constants, written out so that the package never loads
    # numpy.polynomial: the rule is exactly symmetric; its Gauss nodes are
    # leggauss(7)'s within 1 ulp, and its Gauss weights the 40-digit ones
    # correctly rounded (leggauss(7)'s own are up to 4 ulp off); the Kronrod
    # rule integrates x^k exactly for k <= 22
    for table in (ode._XK, ode._WK, ode._WG):
        assert np.array_equal(np.abs(table), np.abs(table)[::-1])
    assert np.array_equal(ode._XK, -ode._XK[::-1])
    assert ode._XK[7] == 0.0
    x, _ = np.polynomial.legendre.leggauss(7)
    assert np.all(np.abs(ode._XK[1::2] - x) <= np.spacing(np.abs(x)))
    with mpmath.workdps(40):
        for node, weight in zip(ode._XK[1::2], ode._WG):
            root = mpmath.findroot(lambda t: mpmath.legendre(7, t), float(node))
            exact = 2 / ((1 - root**2) * mpmath.diff(lambda t: mpmath.legendre(7, t), root)**2)
            assert weight == float(exact)
    for k in range(23):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(float((ode._WK * ode._XK**k).sum()) - exact) <= 4e-16


def test_rate_pointing_away_raises():
    with pytest.raises(CurieWeissError, match="the rate does not point toward the attractor"):
        ode.time_to(np.array([0.0]), np.array([0.5]), lambda m: -relaxation(m), 0.0)


def test_unresolvable_rate_raises():
    # a jump in the rate at m = 1/3 leaves the interval that holds it
    # unresolved at every halving, while its neighbours resolve: the work
    # stays a few intervals per halving
    def jump(m):
        return np.where(m < 1 / 3, 1.0, 2.0)

    with pytest.raises(CurieWeissError,
                       match=r"not resolved within 64 interval rules near m = 0\.3333"):
        ode.time_to(np.array([0.0]), np.array([1.0]), jump, 0.0)


def test_a_rate_no_rule_resolves_runs_out_of_budget():
    # a rate of pure noise fails every interval: the intervals in flight
    # double each round, and the budget of 64 rules per interval given stops
    # them after 6 rounds, long before memory would
    calls = []

    def noise(m):
        calls.append(m.size)
        return 1.0 + np.random.default_rng(len(calls)).random(m.shape)

    u = np.linspace(0.0, 1.0, 101)
    with pytest.raises(CurieWeissError, match=r"not resolved within 6400 interval rules near m = 0\.0$"):
        ode.time_to(u[:-1], u[1:], noise, 0.0)
    assert calls == [15 * 100 * 2**k for k in range(6)]


def test_error_messages_hold_plain_floats():
    with pytest.raises(CurieWeissError) as excinfo:
        ode.time_to(np.array([0.0]), np.array([0.5]), lambda m: -relaxation(m), 0.0)
    assert "np.float64" not in str(excinfo.value)
    assert str(excinfo.value).endswith(f"m = {0.25 - 0.25 * float(ode._XK[-1])!r}")
