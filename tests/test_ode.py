"""The time-of-flight quadrature of a one-dimensional autonomous flow, on
rates whose answer is known.  The registration tests pin it, bit for bit, on
the flow it serves."""

import math

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


def test_gauss_rule_is_leggauss_12():
    # the rule is written out so that the package never loads numpy.polynomial
    x, w = np.polynomial.legendre.leggauss(12)
    assert [v.hex() for v in ode._GL_X.tolist()] == [v.hex() for v in x.tolist()]
    assert [v.hex() for v in ode._GL_W.tolist()] == [v.hex() for v in w.tolist()]
    assert np.array_equal(ode._GL_X, -ode._GL_X[::-1])
    assert np.array_equal(ode._GL_W, ode._GL_W[::-1])


def test_rate_pointing_away_raises():
    with pytest.raises(CurieWeissError, match="the rate does not point toward the attractor"):
        ode.time_to(np.array([0.0]), np.array([0.5]), lambda m: -relaxation(m), 0.0)


def test_unresolvable_rate_raises():
    # a jump in the rate at m = 1/3 leaves the interval that holds it
    # unresolved at every halving, while its neighbours resolve: the work
    # stays a few intervals per halving
    def jump(m):
        return np.where(m < 1 / 3, 1.0, 2.0)

    with pytest.raises(CurieWeissError, match=r"not resolved after 40 halvings near m = .*0\.3333"):
        ode.time_to(np.array([0.0]), np.array([1.0]), jump, 0.0)
