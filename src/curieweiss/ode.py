"""Time of flight of a one-dimensional autonomous flow dm/dt = v(m).

Such a flow is inverted rather than stepped: the time from u to w is the
integral of dm/v(m), taken by 12-point Gauss-Legendre rules on intervals
that are halved until each rule agrees with the sum over its two halves.
The rate v is a callable on arrays of m, given with a bound dv on its
rounding error, so that two rules that differ only by rounding are accepted
instead of halved without end.
"""

from __future__ import annotations

import numpy as np

from .errors import CurieWeissError

#: the 12-point Gauss-Legendre nodes and weights on [-1, 1], as
#: numpy.polynomial.legendre.leggauss(12) returns them: written out, so that
#: importing the package loads neither numpy.polynomial nor LAPACK
_GL_X = np.array([
    -0.9815606342467192, -0.9041172563704748, -0.7699026741943047,
    -0.5873179542866175, -0.3678314989981802, -0.1252334085114689,
    0.1252334085114689, 0.3678314989981802, 0.5873179542866175,
    0.7699026741943047, 0.9041172563704748, 0.9815606342467192,
])
_GL_W = np.array([
    0.04717533638651141, 0.10693932599531907, 0.16007832854334642,
    0.20316742672306573, 0.2334925365383546, 0.2491470458134027,
    0.2491470458134027, 0.2334925365383546, 0.20316742672306573,
    0.16007832854334642, 0.10693932599531907, 0.04717533638651141,
])
#: accepted relative disagreement of an interval's rule with its two halves
_RTOL = 1e-10
_MAX_HALVINGS = 40


def gauss(u, w, rate, dv: float):
    """12-point Gauss-Legendre time of flight from u to w, per interval, and a
    bound on its rounding error, from the bound dv on that of the rate."""
    half = 0.5 * (w - u)[:, None]
    x = 0.5 * (u + w)[:, None] + half * _GL_X
    v = rate(x)
    wrong = x[half * v <= 0.0]
    if wrong.size:
        raise CurieWeissError(f"the rate does not point toward the attractor at m = {wrong[0]!r}")
    # v * v overflows only where the rate is huge, and the bound is then 0
    with np.errstate(over="ignore"):
        noise = (np.abs(half) * dv * _GL_W / (v * v)).sum(axis=1)
    return (half * _GL_W / v).sum(axis=1), noise


def time_to(u, w, rate, dv: float):
    """Ends and times of flight of intervals covering each (u, w): an interval
    whose rule and the sum over its halves differ beyond _RTOL and rounding
    is replaced by its halves."""
    ends, times = [], []
    for _ in range(_MAX_HALVINGS):
        mid = 0.5 * (u + w)
        t, noise = gauss(np.concatenate([u, u, mid]), np.concatenate([w, mid, w]), rate, dv)
        whole, left, right = np.split(t, 3)
        total = left + right
        ok = np.abs(total - whole) <= _RTOL * np.abs(total) + sum(np.split(noise, 3))
        ends.append(w[ok])
        times.append(total[ok])
        u, w = np.concatenate([u[~ok], mid[~ok]]), np.concatenate([mid[~ok], w[~ok]])
        if not u.size:
            return np.concatenate(ends), np.concatenate(times)
    raise CurieWeissError(
        f"registration time not resolved after {_MAX_HALVINGS} halvings near m = {u[0]!r}"
    )
