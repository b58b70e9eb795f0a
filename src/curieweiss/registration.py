"""Mean-field registration dynamics of the diagonal sectors.

Each sector carries a magnetization m_i(t) obeying

    hbar/gamma * dm/dt = h (1 - m / tanh(h/T)),    h = s g + J m^3,

a downhill flow on the tilted free energy F_s(m).  From m(0) = 0 the up
sector rises to the ferromagnetic value m_f when g exceeds the critical
coupling, and gets stuck at the shifted paramagnetic minimum otherwise.
The flow is one-dimensional and autonomous, so it is inverted rather than
stepped: t(m) = integral of dm'/v(m') from m(0) toward the attractor the
statics give.  This module places the nodes of that integral, inverts it
at t_max and reads it at a threshold; :mod:`ode` takes the quadrature, and
:mod:`statics` holds the registration time's closed forms.
"""

from __future__ import annotations

import collections
import enum
import math

import numpy as np

from .errors import CurieWeissError, InsufficientTail
from .model import ModelParams, Record
from . import ode, statics

#: geometric nodes per decade of distance to the attractor
_NODES_PER_DECADE = 20
#: residual band |m_f - m| / |m_f| of the tail that :func:`asymptotic_rate` fits
TAIL_WINDOW = (1e-5, 1e-2)


class TerminalKind(enum.Enum):
    CONVERGED_FERRO = "converged_ferro"
    TRAPPED_PARAMAGNETIC = "trapped_paramagnetic"
    MAX_TIME_REACHED = "max_time_reached"


class MagnetizationTrajectory(Record, collections.namedtuple(
        "MagnetizationTrajectory", "field_sign times m rate zeta0 terminal attractor")):
    """One sector's flow.  Read-only arrays of the times, m, its rate (from
    :func:`flow_rate`) and the sector weight zeta0, which the flow conserves
    at 1; attractor is the stationary point the flow is heading to
    (:func:`statics.first_stationary`, or 0 where the rate at m = 0 vanishes)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for array in (self.times, self.m, self.rate, self.zeta0):
            array.setflags(write=False)
        return self

    @property
    def m_final(self) -> float:
        return float(self.m[-1])


def flow_rate(m, field_sign: int, params: ModelParams):
    """dm/dt of the registration flow on an array of m, exactly odd under
    (s, m) -> (-s, -m): h, x and the series are odd term by term (m*m*m,
    not NumPy's m**3) and tanh is odd, so the down sector's files are the up
    sector's written mirrored (:func:`scenario.write_sectors`).  Near the
    removable point h = 0 (|x| < 1e-8, x = h/T) m h/tanh(h/T) is its series
    m T (1 + x^2/3 - ...), whose x^2/3 < 4e-17 vanishes in rounding."""
    m = np.asarray(m, dtype=float)
    h = field_sign * params.coupling_g + params.coupling_j * (m * m * m)
    x = h / params.temperature
    series = h - m * params.temperature
    with np.errstate(divide="ignore", invalid="ignore"):
        exact = h * (1.0 - m / np.tanh(x))
    return params.gamma * np.where(np.abs(x) < 1e-8, series, exact)


def integrate_registration(
    field_sign: int,
    params: ModelParams,
    t_max: float | None = None,
) -> MagnetizationTrajectory:
    """Trajectory (t(m_k), m_k) of a sector's magnetization from m = 0.

    The flow runs to within ``STOP_DELTA`` (:data:`statics.STOP_DELTA`) of
    the stationary point it first meets, :func:`statics.first_stationary`,
    whose basin decides the terminal kind: ferromagnetic -> CONVERGED_FERRO,
    central well -> TRAPPED_PARAMAGNETIC.  Its last node is the attractor minus
    ``STOP_DELTA`` along the flow, so without ``t_max`` m_final is exactly
    m_attr - direction * STOP_DELTA, or 0 when the attractor lies within
    ``STOP_DELTA`` of 0.  The m_k sit geometrically in the distance to it,
    at most 1/100 of the way apart, plus the midpoints the quadrature
    refines.  An explicit ``t_max`` cuts the trajectory at m(t_max), found by
    inverting t(m), and ends it MAX_TIME_REACHED.
    """
    if t_max is not None and not t_max > 0:
        raise CurieWeissError("t_max must be positive")
    # without bath or coupling (gamma g = 0) the rate at m = 0 is 0: no flow
    moves = flow_rate(0.0, field_sign, params) != 0.0
    m_attr = statics.first_stationary(field_sign, params) if moves else 0.0
    direction = 1.0 if m_attr >= 0.0 else -1.0
    stop = statics.STOP_DELTA
    gap = max(abs(m_attr), stop)
    n = math.ceil(_NODES_PER_DECADE * math.log10(gap / stop))
    d = np.union1d(np.geomspace(gap, stop, n + 1), np.linspace(stop, gap, 101))
    nodes = np.append(0.0, m_attr - direction * d[-2::-1])

    def rate(m):
        return flow_rate(m, field_sign, params)

    # near a fixed point the rate is a difference of terms of size |h| <= g + J,
    # so it is off by a few ulp of gamma (g + J)
    dv = 4.0 * np.finfo(float).eps * params.gamma * (params.coupling_g + params.coupling_j)
    ends, dt = ode.time_to(nodes[:-1], nodes[1:], rate, dv)
    order = np.argsort(direction * ends)
    m, times = np.append(0.0, ends[order]), np.append(0.0, np.cumsum(dt[order]))
    terminal = (TerminalKind.TRAPPED_PARAMAGNETIC
                if statics.label_point(m_attr) is statics.PointLabel.PARAMAGNETIC
                else TerminalKind.CONVERGED_FERRO)
    if t_max is not None and times[-1] > t_max:
        k = int(np.searchsorted(times, t_max)) - 1  # times[k] < t_max <= times[k + 1]

        def overshoot(x):
            return ode.kronrod(m[k:k + 1], np.array([x]), rate)[0][0] - (t_max - times[k])

        m = np.append(m[: k + 1], statics.bisect(overshoot, m[k], m[k + 1], times[k] - t_max))
        times = np.append(times[: k + 1], t_max)
        terminal = TerminalKind.MAX_TIME_REACHED
    return MagnetizationTrajectory(
        field_sign=int(field_sign),
        times=times,
        m=m,
        rate=flow_rate(m, field_sign, params),
        zeta0=np.ones_like(times),
        terminal=terminal,
        attractor=m_attr,
    )


def asymptotic_rate(trajectory: MagnetizationTrajectory, params: ModelParams) -> dict:
    """The fitted exponential tail rate, the negated least-squares slope of
    ln|m_f - m(t)| over the trajectory tail, next to the prediction
    gamma*J/hbar (hbar = 1): {"tail_rate_fitted", "tail_rate_predicted"}.

    ``TAIL_WINDOW`` bounds the residual |m_f - m| (relative to |m_f|) used in
    the fit; it must span at least one decade of data.
    """
    if trajectory.terminal is not TerminalKind.CONVERGED_FERRO:
        raise InsufficientTail("trajectory did not converge to a ferromagnetic state")
    mf = trajectory.attractor
    # distance to the attractor, positive along the approach
    delta = np.abs(mf - trajectory.m)
    lo, hi = TAIL_WINDOW[0] * abs(mf), TAIL_WINDOW[1] * abs(mf)
    mask = (delta > lo) & (delta < hi)
    if mask.sum() < 5 or delta[mask].max() < 10.0 * delta[mask].min():
        raise InsufficientTail(
            f"tail spans less than a decade ({mask.sum()} usable points)"
        )
    # least-squares slope in closed form, from sums centred on the means;
    # the times are taken in units of their span so that no square underflows,
    # and fsum adds the products exactly, where a BLAS dot rounds by its kernel
    times = trajectory.times[mask]
    span = times[-1] - times[0]
    x = (times - times.mean()) / span
    y = np.log(delta[mask])
    slope = math.fsum(x * (y - y.mean())) / math.fsum(x * x) / span
    return {"tail_rate_fitted": -float(slope),
            "tail_rate_predicted": params.gamma * params.coupling_j}


def crossing_times(trajectory: MagnetizationTrajectory, targets,
                   params: ModelParams) -> list[float | None]:
    """First times at which m(t) passes each target, None for one it never
    reaches: the node before it plus the Kronrod rule of the flow from there,
    the rule the ``t_max`` cut inverts, taken for all targets in one call.

    The trajectory's m is strictly monotone toward its attractor; targets at
    or behind the starting point return 0.
    """
    direction = 1.0 if trajectory.attractor >= trajectory.m[0] else -1.0
    u = direction * trajectory.m
    x = direction * np.asarray(targets, dtype=float)
    out: list[float | None] = [None if xi > u[-1] else 0.0 for xi in x]
    ahead = (x > u[0]) & (x <= u[-1])
    k = np.searchsorted(u, x[ahead]) - 1  # u[k] < x <= u[k + 1]
    dt, _, _ = ode.kronrod(trajectory.m[k], direction * x[ahead],
                           lambda m: flow_rate(m, trajectory.field_sign, params))
    for i, t in zip(np.flatnonzero(ahead), trajectory.times[k] + dt):
        out[i] = float(t)
    return out
