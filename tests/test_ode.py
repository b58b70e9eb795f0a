import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from curieweiss import ode
from curieweiss.errors import CurieWeissError
from oracles import reference_integrate

_I2 = np.eye(2)


def _airy(t):
    # y'' = -(1 + t) y: A(t) does not commute with itself at other times
    return np.array([[0.0, 1.0], [-(1.0 + t), 0.0]])


def test_exponential_to_1e12():
    times, states = ode.propagate(lambda t: -_I2, [1.0, 2.0], 10.0)
    assert np.max(np.abs(states[-1] - [math.exp(-10.0), 2.0 * math.exp(-10.0)])) < 1e-12
    assert times[0] == 0.0 and times[-1] == 10.0


def test_linear_system_with_known_solution():
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    _, states = ode.propagate(lambda t: a, [1.0, 0.0], 2 * math.pi)
    assert np.allclose(states[-1], [1.0, 0.0], atol=1e-10)


def test_complex_state():
    _, states = ode.propagate(lambda t: 1j * _I2, [1.0, 1j], math.pi)
    assert np.max(np.abs(states[-1] - [-1.0, -1j])) < 1e-10


def test_order_of_convergence():
    # uniform Magnus steps on a non-commuting system: halving the step must
    # shrink the global error ~ 2^-4
    _, ref, _ = reference_integrate(lambda t, y: _airy(t) @ y, [1.0, 0.0], (0.0, 5.0),
                                    t_eval=[5.0])
    errs = []
    for n in (50, 100):
        y = np.array([1.0, 0.0], dtype=complex)
        for k in range(n):
            y = ode.magnus_step(_airy, 5.0 * k / n, 5.0 / n) @ y
        errs.append(np.max(np.abs(y - ref[0])))
    ratio = errs[0] / errs[1]
    assert 12.0 < ratio < 20.0


@pytest.mark.parametrize("t_end", [0.0, -1.0])
def test_propagate_rejects_a_non_positive_end(t_end):
    with pytest.raises(CurieWeissError, match="t_end must be positive"):
        ode.propagate(lambda t: np.zeros((2, 2)), [1.0, 0.0], t_end)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_step_failure_on_badly_scaled_problem():
    # growth rate 1e60: every step overflows until the step size underflows
    with pytest.raises(CurieWeissError, match="step size underflow at t = "):
        ode.propagate(lambda t: np.diag([1e60, 0.0]), [1.0, 1.0], 1.0)


def test_against_reference_integrator():
    times, states = ode.propagate(_airy, [1.0, 0.0], 10.0)
    _, ref, _ = reference_integrate(lambda t, y: _airy(t) @ y, [1.0, 0.0], (0.0, 10.0),
                                    t_eval=times)
    assert np.max(np.abs(states - ref)) < 1e-8


def test_reference_integrator_calibration():
    _, states, _ = reference_integrate(lambda t, y: -y, [1.0], (0.0, 10.0))
    assert abs(states[-1][0] - math.exp(-10.0)) < 1e-12


# --- closed-form 2x2 exponential --------------------------------------------------

_entry = st.builds(
    lambda r, phi: r * complex(math.cos(phi), math.sin(phi)),
    st.floats(0.0, 20.0), st.floats(0.0, 2.0 * math.pi),
)
_matrix = st.lists(_entry, min_size=4, max_size=4).map(lambda v: np.array(v).reshape(2, 2))


@settings(max_examples=300, deadline=None)
@given(_matrix)
def test_expm2_matches_scipy_and_group_identities(omega):
    e, e_inv = ode.expm2(omega), ode.expm2(-omega)
    size = np.abs(e).max() * np.abs(e_inv).max()
    assert np.abs(e - expm(omega)).max() <= 1e-12 * np.abs(expm(omega)).max()
    assert np.abs(e @ e_inv - _I2).max() <= 1e-13 * size
    det = e[0, 0] * e[1, 1] - e[0, 1] * e[1, 0]
    assert abs(det - np.exp(np.trace(omega))) <= 1e-13 * np.abs(e).max() ** 2


@settings(max_examples=100, deadline=None)
@given(_entry, st.sampled_from([0.0, 1e-9, 2e-9, 9e-9, 1.1e-8, 1e-7]), st.floats(0.0, 2.0 * math.pi))
def test_expm2_small_s_branch(mu, s_abs, phi):
    # B = [[s, 1], [0, -s]]; s = 0 is the nilpotent case.  The reference is
    # 30-digit mpmath on the rounded entries: scipy's expm is itself ~1e-7
    # off on such nearly defective matrices.
    s = s_abs * complex(math.cos(phi), math.sin(phi))
    omega = np.array([[mu + s, 1.0], [0.0, mu - s]])
    with mpmath.workdps(30):
        ref = np.array(mpmath.expm(mpmath.matrix(omega.tolist())).tolist(), dtype=complex)
    assert np.abs(ode.expm2(omega) - ref).max() <= 1e-14 * abs(np.exp(mu))

