"""Mean-field registration dynamics of the diagonal sectors.

Each sector carries a magnetization m_i(t) obeying

    hbar/gamma * dm/dt = h (1 - m / tanh(h/T)),    h = s g + J m^3,

a downhill flow on the tilted free energy F_s(m).  From m(0) = 0 the up
sector rises to the ferromagnetic value m_f when g exceeds the critical
coupling, and gets stuck at the shifted paramagnetic minimum otherwise.
The sector weight zeta_0 is conserved and is integrated alongside m so the
conservation can be checked on the numerical output.
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
    SpinodalUndefined,
    StepFailure,
)
from .model import ModelParams
from . import ode, statics


class TerminalKind(enum.Enum):
    CONVERGED_FERRO = "converged_ferro"
    TRAPPED_PARAMAGNETIC = "trapped_paramagnetic"
    MAX_TIME_REACHED = "max_time_reached"


@dataclass(frozen=True)
class MagnetizationTrajectory:
    field_sign: int
    times: np.ndarray
    m: np.ndarray
    #: conserved sector weight, integrated as a dummy component
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


def registration_rhs(m: float, field_sign: int, params: ModelParams) -> float:
    """dm/dt of the registration flow; removable point h = 0 handled by series.

    For |h|/T below 1e-8 the factor m/tanh(h/T) is expanded to three terms,
    giving dm/dt -> (gamma/hbar)(h - m T - m h^2/(3T)).
    """
    if abs(m) >= 1.0:
        raise DomainError(f"|m| must be < 1, got {m}")
    g, j, t = params.coupling_g, params.coupling_j, params.temperature
    h = field_sign * g + j * m**3
    x = h / t
    if abs(x) < 1e-8:
        # h/tanh(h/T) = T (1 + x^2/3 - x^4/45 + ...)
        val = h - m * t * (1.0 + x * x / 3.0 - x**4 / 45.0)
    else:
        val = h * (1.0 - m / math.tanh(x))
    return params.gamma / params.hbar * val


def _attractor(field_sign: int, params: ModelParams, m0: float) -> float:
    """First fixed point the flow meets starting from m0."""
    scape = statics.stationary_magnetizations(field_sign, params)
    roots = [p.m for p in scape.points]
    rate0 = registration_rhs(m0, field_sign, params)
    if rate0 > 0:
        ahead = [r for r in roots if r > m0 + 1e-14]
        if not ahead:
            raise StepFailure("no fixed point above the starting magnetization")
        return min(ahead)
    if rate0 < 0:
        ahead = [r for r in roots if r < m0 - 1e-14]
        if not ahead:
            raise StepFailure("no fixed point below the starting magnetization")
        return max(ahead)
    return m0


def integrate_registration(
    field_sign: int,
    params: ModelParams,
    t_max: float,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    stop_delta: float = 1e-6,
    m0: float = 0.0,
) -> MagnetizationTrajectory:
    """Integrate a sector's magnetization from m0 (paramagnetic start: 0).

    Stops when m is within ``stop_delta`` of the attracting stationary point
    (event located by bisection on dense output) or at ``t_max``.  The
    terminal state is classified against the statics landscape: ferromagnetic
    attractor -> CONVERGED_FERRO, central-well attractor ->
    TRAPPED_PARAMAGNETIC.
    """
    if t_max <= 0:
        raise DomainError("t_max must be positive")
    m_attr = _attractor(field_sign, params, m0)
    direction = 1.0 if m_attr >= m0 else -1.0
    cap = 1.0 - 1e-12

    def rhs(t, y):
        # trial stages may overshoot |m| = 1; the clamped rate is negative
        # past the fixed point, so overshoots are pulled back and rejected
        m = min(cap, max(-cap, float(y[1])))
        return np.array([0.0, registration_rhs(m, field_sign, params)])

    def close_event(t, y):
        return direction * (float(y[1]) - m_attr) + stop_delta

    rate0 = abs(registration_rhs(m0, field_sign, params))
    first = min(t_max / 100.0, 1e-4 / rate0) if rate0 > 0 else t_max / 100.0
    sol = ode.integrate(
        rhs,
        0.0,
        np.array([1.0, m0]),
        t_max,
        rtol=rtol,
        atol=atol,
        events=[close_event],
        first_step=first,
    )
    if sol.event_time is not None:
        terminal = (
            TerminalKind.CONVERGED_FERRO
            if abs(m_attr) > math.sqrt(0.5)
            else TerminalKind.TRAPPED_PARAMAGNETIC
        )
    else:
        terminal = TerminalKind.MAX_TIME_REACHED
    return MagnetizationTrajectory(
        field_sign=int(field_sign),
        times=sol.times,
        m=sol.states[:, 1].real.astype(float),
        zeta0=sol.states[:, 0].real.astype(float),
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
    tt = trajectory.times[mask]
    yy = np.log(delta[mask])
    a = np.vstack([tt, np.ones_like(tt)]).T
    slope, _ = np.linalg.lstsq(a, yy, rcond=None)[0]
    return RateFit(
        fitted=-float(slope),
        predicted=params.gamma * params.coupling_j / params.hbar,
        n_points=int(mask.sum()),
    )


def crossing_time(trajectory: MagnetizationTrajectory, m_target: float) -> float:
    """Linearly interpolated first time at which m(t) passes m_target.

    The flow is monotone toward its attractor; targets at or behind the
    starting point return 0.
    """
    m = trajectory.m
    direction = 1.0 if trajectory.attractor >= m[0] else -1.0
    u = direction * m
    ut = direction * m_target
    if ut <= u[0]:
        return 0.0
    idx = np.nonzero(u >= ut)[0]
    if idx.size == 0:
        raise NeverCrossed(f"trajectory never reaches m = {m_target}")
    i = int(idx[0])
    t0, t1 = trajectory.times[i - 1], trajectory.times[i]
    u0, u1 = u[i - 1], u[i]
    frac = (ut - u0) / (u1 - u0)
    return float(t0 + frac * (t1 - t0))


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
