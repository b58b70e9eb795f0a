"""Mean-field registration dynamics of the diagonal sectors.

Each sector carries a magnetization m_i(t) obeying

    hbar/gamma * dm/dt = h (1 - m / tanh(h/T)),    h = s g + J m^3,

a downhill flow on the tilted free energy F_s(m).  From m(0) = 0 the up
sector rises to the ferromagnetic value m_f when g exceeds the critical
coupling, and gets stuck at the shifted paramagnetic minimum otherwise.
The flow is one-dimensional and autonomous, so it is inverted rather than
stepped: t(m) = integral of dm'/v(m') from m(0) toward the attractor the
statics give.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import (
    CriticalOrSubcritical,
    DomainError,
    InsufficientTail,
    NeverCrossed,
    QuadratureNotConverged,
    SpinodalUndefined,
    StepFailure,
)
from .model import ModelParams
from . import statics

_GL_X, _GL_W = np.polynomial.legendre.leggauss(12)
#: geometric nodes per decade of distance to the attractor
_NODES_PER_DECADE = 20
#: accepted relative disagreement of an interval's rule with its two halves
_RTOL = 1e-10
_MAX_HALVINGS = 40


class TerminalKind(enum.Enum):
    CONVERGED_FERRO = "converged_ferro"
    TRAPPED_PARAMAGNETIC = "trapped_paramagnetic"
    MAX_TIME_REACHED = "max_time_reached"


@dataclass(frozen=True)
class MagnetizationTrajectory:
    field_sign: int
    times: np.ndarray
    m: np.ndarray
    #: conserved sector weight; the flow does not change it, so it stays 1
    zeta0: np.ndarray
    terminal: TerminalKind
    #: stationary point the flow is heading to (from the statics landscape)
    attractor: float

    def __post_init__(self):
        self.times.setflags(write=False)
        self.m.setflags(write=False)
        self.zeta0.setflags(write=False)

    @property
    def m_final(self) -> float:
        return float(self.m[-1])


def flow_rate(m, field_sign: int, params: ModelParams):
    """dm/dt of the registration flow on an array of m, exactly odd under
    (s, m) -> (-s, -m).  Near the removable point h = 0 (|x| < 1e-8, x = h/T)
    m h/tanh(h/T) is its series m T (1 + x^2/3 - ...), whose x^2/3 < 4e-17
    vanishes in rounding."""
    m = np.asarray(m, dtype=float)
    h = field_sign * params.coupling_g + params.coupling_j * (m * m * m)
    x = h / params.temperature
    series = h - m * params.temperature
    with np.errstate(divide="ignore", invalid="ignore"):
        exact = h * (1.0 - m / np.tanh(x))
    return params.gamma / params.hbar * np.where(np.abs(x) < 1e-8, series, exact)


def registration_rhs(m: float, field_sign: int, params: ModelParams) -> float:
    """Scalar form of :func:`flow_rate`; |m| must be < 1."""
    if abs(m) >= 1.0:
        raise DomainError(f"|m| must be < 1, got {m}")
    return float(flow_rate(m, field_sign, params))


def _attractor(field_sign: int, params: ModelParams, m0: float) -> float:
    """First fixed point the flow meets starting from m0; a root within 1e-14
    behind m0 counts as m0 itself, since the rate there is rounding."""
    rate0 = registration_rhs(m0, field_sign, params)
    if rate0 == 0:
        return m0
    d = math.copysign(1.0, rate0)
    points = statics.stationary_magnetizations(field_sign, params).points
    ahead = [p.m for p in points if d * (p.m - m0) > -1e-14]
    if not ahead:
        raise StepFailure(f"no fixed point {'above' if d > 0 else 'below'} m0 = {m0}")
    return min(ahead, key=lambda r: d * r)


def _gauss(u, w, field_sign: int, params: ModelParams):
    """12-point Gauss-Legendre time of flight from u to w, per interval, and a
    bound on its rounding error: near a fixed point the rate is a difference
    of terms of size |h| <= g + J, so it is off by a few ulp of (gamma/hbar)(g + J)."""
    half = 0.5 * (w - u)[:, None]
    x = 0.5 * (u + w)[:, None] + half * _GL_X
    v = flow_rate(x, field_sign, params)
    wrong = x[half * v <= 0.0]
    if wrong.size:
        raise StepFailure(f"the rate does not point toward the attractor at m = {wrong[0]!r}")
    dv = 4.0 * np.finfo(float).eps * params.gamma / params.hbar * (
        params.coupling_g + params.coupling_j)
    return (half * _GL_W / v).sum(axis=1), (np.abs(half) * dv * _GL_W / (v * v)).sum(axis=1)


def _time_to(u, w, field_sign: int, params: ModelParams):
    """Ends and times of flight of intervals covering each (u, w): an interval
    whose rule and the sum over its halves differ beyond _RTOL and rounding
    is replaced by its halves."""
    ends, times = [], []
    for _ in range(_MAX_HALVINGS):
        mid = 0.5 * (u + w)
        t, noise = _gauss(np.concatenate([u, u, mid]), np.concatenate([w, mid, w]),
                          field_sign, params)
        whole, left, right = np.split(t, 3)
        total = left + right
        ok = np.abs(total - whole) <= _RTOL * np.abs(total) + sum(np.split(noise, 3))
        ends.append(w[ok])
        times.append(total[ok])
        u, w = np.concatenate([u[~ok], mid[~ok]]), np.concatenate([mid[~ok], w[~ok]])
        if not u.size:
            return np.concatenate(ends), np.concatenate(times)
    raise QuadratureNotConverged(
        f"registration time not resolved after {_MAX_HALVINGS} halvings near m = {u[0]!r}"
    )


def integrate_registration(
    field_sign: int,
    params: ModelParams,
    t_max: float | None = None,
    stop_delta: float = 1e-6,
    m0: float = 0.0,
) -> MagnetizationTrajectory:
    """Trajectory (t(m_k), m_k) of a sector's magnetization from m0.

    The flow runs to within ``stop_delta`` of the stationary point it first
    meets, whose basin decides the terminal kind: ferromagnetic ->
    CONVERGED_FERRO, central well -> TRAPPED_PARAMAGNETIC.  The m_k sit
    geometrically in the distance to it, at most 1/100 of the way apart, plus
    the midpoints the quadrature refines.  An explicit ``t_max`` cuts the
    trajectory at m(t_max), found by inverting t(m), and ends it
    MAX_TIME_REACHED.
    """
    if t_max is not None and t_max <= 0:
        raise DomainError("t_max must be positive")
    m_attr = _attractor(field_sign, params, m0)
    direction = 1.0 if m_attr >= m0 else -1.0
    gap = max(abs(m_attr - m0), stop_delta)
    n = math.ceil(_NODES_PER_DECADE * math.log10(gap / stop_delta))
    d = np.union1d(np.geomspace(gap, stop_delta, n + 1), np.linspace(stop_delta, gap, 101))
    nodes = np.append(m0, m_attr - direction * d[-2::-1])
    ends, dt = _time_to(nodes[:-1], nodes[1:], field_sign, params)
    order = np.argsort(direction * ends)
    m, times = np.append(m0, ends[order]), np.append(0.0, np.cumsum(dt[order]))
    terminal = (TerminalKind.CONVERGED_FERRO if abs(m_attr) > math.sqrt(0.5)
                else TerminalKind.TRAPPED_PARAMAGNETIC)
    if t_max is not None and times[-1] > t_max:
        k = int(np.searchsorted(times, t_max)) - 1  # times[k] < t_max <= times[k + 1]

        def overshoot(x):
            return _gauss(m[k:k + 1], np.array([x]), field_sign, params)[0][0] - (t_max - times[k])

        m = np.append(m[: k + 1], statics.bisect(overshoot, m[k], m[k + 1], times[k] - t_max))
        times = np.append(times[: k + 1], t_max)
        terminal = TerminalKind.MAX_TIME_REACHED
    return MagnetizationTrajectory(
        field_sign=int(field_sign),
        times=times,
        m=m,
        zeta0=np.ones_like(times),
        terminal=terminal,
        attractor=m_attr,
    )


@dataclass(frozen=True)
class RateFit:
    """Fitted exponential tail rate next to the prediction gamma*J/hbar."""

    fitted: float
    predicted: float
    n_points: int


def asymptotic_rate(
    trajectory: MagnetizationTrajectory,
    params: ModelParams,
    window: tuple[float, float] = (1e-5, 1e-2),
) -> RateFit:
    """Least-squares slope of ln(m_f - m(t)) over the trajectory tail.

    ``window`` bounds the residual |m_f - m| (relative to |m_f|) used in the
    fit; it must span at least one decade of data.
    """
    if trajectory.terminal is not TerminalKind.CONVERGED_FERRO:
        raise InsufficientTail("trajectory did not converge to a ferromagnetic state")
    mf = trajectory.attractor
    # distance to the attractor, positive along the approach
    delta = np.abs(mf - trajectory.m)
    lo, hi = window[0] * abs(mf), window[1] * abs(mf)
    mask = (delta > lo) & (delta < hi)
    if mask.sum() < 5 or delta[mask].max() < 10.0 * delta[mask].min():
        raise InsufficientTail(
            f"tail spans less than a decade ({mask.sum()} usable points)"
        )
    slope = np.polyfit(trajectory.times[mask], np.log(delta[mask]), 1)[0]
    return RateFit(
        fitted=-float(slope),
        predicted=params.gamma * params.coupling_j / params.hbar,
        n_points=int(mask.sum()),
    )


def crossing_time(trajectory: MagnetizationTrajectory, m_target: float) -> float:
    """Linearly interpolated first time at which m(t) passes m_target.

    The trajectory's m is strictly monotone toward its attractor; targets at
    or behind the starting point return 0.
    """
    direction = 1.0 if trajectory.attractor >= trajectory.m[0] else -1.0
    u = direction * trajectory.m
    if direction * m_target > u[-1]:
        raise NeverCrossed(f"trajectory never reaches m = {m_target}")
    return float(np.interp(direction * m_target, u, trajectory.times))


def registration_threshold(params: ModelParams) -> float:
    """Reference threshold (T/3J)^(1/4): safely past the bottleneck sqrt(T/3J)."""
    return (params.temperature / (3.0 * params.coupling_j)) ** 0.25


def _supercritical_low_t_gc(params: ModelParams) -> float:
    """Low-temperature g_c of the bottleneck formulas, once the statics allow registration.

    Raises CriticalOrSubcritical when g <= g_c of the statics (or no g_c
    exists, T >= 3J/4) and when there is no bath: a trapped sector has no
    registration time, whatever the low-temperature asymptote says.
    """
    try:
        gc = statics.critical_coupling(params)
    except SpinodalUndefined as exc:
        raise CriticalOrSubcritical(f"no critical coupling: {exc}") from exc
    if params.coupling_g <= gc:
        raise CriticalOrSubcritical(
            f"g = {params.coupling_g} <= g_c = {gc}: bottleneck integral diverges"
        )
    if params.gamma == 0:
        raise CriticalOrSubcritical("gamma = 0: no registration dynamics")
    return statics.critical_coupling_low_t(params)


def registration_time_quadrature(params: ModelParams) -> float:
    """Registration time by quadrature of the small-m bottleneck integral.

    tau_reg = (3 hbar / gamma T) * integral_0^inf dx / ((x-1)^2 (x+2) + eps),
    eps = 2 (g - g_c)/g_c with the low-temperature g_c = (2T/3) sqrt(T/3J);
    defined only above the exact g_c of the statics.  The half line is
    mapped to (0, 1) and the integrand peak at x = 1 is passed to the
    adaptive rule as a known feature.
    """
    gc = _supercritical_low_t_gc(params)
    t = params.temperature
    eps = 2.0 * (params.coupling_g - gc) / gc

    def mapped(u):
        x = u / (1.0 - u)
        return (1.0 / ((x - 1.0) ** 2 * (x + 2.0) + eps)) / (1.0 - u) ** 2

    val, err = quad(mapped, 0.0, 1.0, points=[0.5], limit=400, epsabs=1e-13, epsrel=1e-12)
    return 3.0 * params.hbar / (params.gamma * t) * val


def registration_time_asymptotic(params: ModelParams) -> float:
    """Near-critical closed form tau_reg = (pi hbar/gamma T) sqrt(3 g_c / 2(g - g_c)).

    g_c is the low-temperature asymptote; defined only above the exact g_c.
    """
    gc = _supercritical_low_t_gc(params)
    return (
        math.pi
        * params.hbar
        / (params.gamma * params.temperature)
        * math.sqrt(3.0 * gc / (2.0 * (params.coupling_g - gc)))
    )
