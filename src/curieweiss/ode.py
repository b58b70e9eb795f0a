"""Time of flight of a one-dimensional autonomous flow dm/dt = v(m).

Such a flow is inverted rather than stepped: the time from u to w is the
integral of dm/v(m), taken per interval by the 15-point Gauss-Kronrod rule,
whose embedded 7-point Gauss rule estimates its error from the same 15
rate evaluations.  An interval whose two rules disagree beyond a relative
tolerance and rounding is halved, within a work budget.  The rate v is a
callable on arrays of m, given with a bound dv on its rounding error; the
rounding bound of the rule sums |w/v| times dv/|v|, so that it neither
squares the rate nor changes under a rescaling of it.
"""

from __future__ import annotations

import numpy as np

from .errors import CurieWeissError

#: the 15-point Kronrod nodes on [-1, 1] and their weights, and the weights
#: of the 7-point Gauss rule on the odd-indexed nodes, QUADPACK's qk15
#: constants written out, so that importing the package loads neither
#: numpy.polynomial nor LAPACK
_XK_HALF = [
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
]
_WK_HALF = [
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
]
_WG_HALF = [
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
]
_XK = np.array([-x for x in _XK_HALF] + [0.0] + _XK_HALF[::-1])
_WK = np.array(_WK_HALF + [0.209482141084727828012999174891714] + _WK_HALF[::-1])
_WG = np.array(_WG_HALF + [0.417959183673469387755102040816327] + _WG_HALF[::-1])
#: accepted relative disagreement of an interval's Kronrod and Gauss rules
_RTOL = 1e-10
#: rules the halving may take, per interval of the first round
_BUDGET = 64


def kronrod(u, w, rate, dv: float = 0.0):
    """Gauss-Kronrod 15-point time of flight from u to w, per interval, with
    its disagreement with the embedded 7-point Gauss rule and a bound on its
    rounding error from the bound dv on that of the rate."""
    half = 0.5 * (w - u)[:, None]
    x = 0.5 * (u + w)[:, None] + half * _XK
    v = rate(x)
    wrong = x[half * v <= 0.0]
    if wrong.size:
        raise CurieWeissError(
            f"the rate does not point toward the attractor at m = {float(wrong[0])!r}")
    # a rate near the least subnormal makes 1/v overflow; the time is then inf
    with np.errstate(over="ignore", invalid="ignore"):
        f = half / v
        terms = f * _WK
        k15 = terms.sum(axis=1)
        g7 = (f[:, 1::2] * _WG).sum(axis=1)
        noise = (np.abs(terms) * (dv / np.abs(v))).sum(axis=1)
        return k15, np.abs(k15 - g7), noise


def time_to(u, w, rate, dv: float):
    """Ends and times of flight of intervals covering each (u, w): an interval
    whose Kronrod and Gauss rules differ beyond _RTOL and rounding is
    replaced by its halves, until the rules taken reach _BUDGET times the
    number of intervals given."""
    budget, spent = _BUDGET * u.size, 0
    ends, times = [], []
    while True:
        spent += u.size
        if spent > budget:
            raise CurieWeissError(
                f"registration time not resolved within {budget} interval rules"
                f" near m = {float(u[0])!r}")
        t, err, noise = kronrod(u, w, rate, dv)
        ok = err <= _RTOL * np.abs(t) + noise
        ends.append(w[ok])
        times.append(t[ok])
        mid = 0.5 * (u[~ok] + w[~ok])
        u, w = np.concatenate([u[~ok], mid]), np.concatenate([mid, w[~ok]])
        if not u.size:
            return np.concatenate(ends), np.concatenate(times)
