"""Dynamics of the off-diagonal sector: collapse, recurrences, damping, echo.

With uniform couplings the off-diagonal amplitude is r(t) = r(0) cos^N(2gt/hbar):
a Gaussian collapse over the reduction time hbar/(g sqrt(2N)) followed by
periodic recurrences.  Two mechanisms suppress the recurrences: the phonon
bath (quartic exponent, decay time tau_2) and a spread of the per-spin
couplings (Gaussian exponent, decay time tau_2').  A pi pulse around y at
time theta rephases the dispersed product and revives the amplitude at
2*theta exactly.

Couplings are stored as distinct values with multiplicities, and every
product of cosines is one log-magnitude + sign kernel over them, so
magnitudes far below the float underflow threshold remain exact as logs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NegativePulseTime,
    QuadratureNotConverged,
    StepFailure,
    StepTooLarge,
    ValidityWindowWarning,
    ZeroBathCoupling,
    ZeroCoupling,
    ZeroDispersion,
)
from .model import ModelParams
from . import ode

_LOG10 = math.log(10.0)


# --- characteristic times and exponents ------------------------------------


def reduction_time(params: ModelParams) -> float:
    """Collapse time hbar/(g sqrt(2N)) of the off-diagonal blocks."""
    if params.coupling_g == 0:
        raise ZeroCoupling("no measurement coupling: reduction time undefined")
    return params.hbar / (params.coupling_g * math.sqrt(2.0 * params.n_spins))


def bath_exponent(t, params: ModelParams):
    """Per-spin bath damping exponent chi(t) = gamma Gamma^2 g^2 t^4 / (2 pi hbar^2)."""
    tt = np.asarray(t, dtype=float)
    chi = (
        params.gamma
        * params.debye_cutoff**2
        * params.coupling_g**2
        * tt**4
        / (2.0 * math.pi * params.hbar**2)
    )
    return float(chi) if np.isscalar(t) else chi


def decay_time_bath(params: ModelParams) -> float:
    """Bath suppression time tau_2 = (2 pi / gamma N)^(1/4) sqrt(hbar / Gamma g)."""
    if params.gamma == 0:
        raise ZeroBathCoupling("gamma = 0: no bath damping")
    if params.coupling_g == 0:
        raise ZeroCoupling("g = 0: no off-diagonal oscillation to damp")
    return (2.0 * math.pi / (params.gamma * params.n_spins)) ** 0.25 * math.sqrt(
        params.hbar / (params.debye_cutoff * params.coupling_g)
    )


def log_recurrence_height_bath(params: ModelParams) -> float:
    """Natural log of the bath suppression of the first recurrence peak.

    Equals -N * chi(pi hbar / 2g), i.e. -N pi^3 gamma hbar^2 Gamma^2 / (32 g^2).
    """
    if params.coupling_g == 0:
        raise ZeroCoupling("g = 0: no recurrences")
    return (
        -params.n_spins
        * math.pi**3
        * params.gamma
        * params.hbar**2
        * params.debye_cutoff**2
        / (32.0 * params.coupling_g**2)
    )


def recurrence_height_bath(params: ModelParams) -> float:
    """First-peak suppression factor; underflows to 0 for macroscopic N."""
    if params.gamma == 0:
        return 1.0
    logh = log_recurrence_height_bath(params)
    return math.exp(logh) if logh > -745.0 else 0.0


def dispersion_decay_time(params: ModelParams) -> float:
    """Dispersion suppression time tau_2' = hbar/(delta_g sqrt(2N))."""
    if params.delta_g == 0:
        raise ZeroDispersion("delta_g = 0: no coupling dispersion")
    return params.hbar / (params.delta_g * math.sqrt(2.0 * params.n_spins))


def log_recurrence_height_dispersed(params: ModelParams) -> float:
    """Natural log of the dispersion suppression of the first peak:
    -N pi^2 delta_g^2 / (2 g^2)."""
    if params.coupling_g == 0:
        raise ZeroCoupling("g = 0: no recurrences")
    return -params.n_spins * math.pi**2 * params.delta_g**2 / (2.0 * params.coupling_g**2)


# --- coupling vectors -------------------------------------------------------


@dataclass(frozen=True)
class CouplingVector:
    """Per-spin couplings g_n as distinct values with their multiplicities,
    plus the first two empirical moments of the draw."""

    values: np.ndarray
    counts: np.ndarray
    mean: float
    rms_deviation: float

    def __post_init__(self):
        self.values.setflags(write=False)
        self.counts.setflags(write=False)

    @classmethod
    def uniform(cls, g: float, n_spins: int) -> "CouplingVector":
        """N identical couplings g."""
        return cls(values=np.array([g]), counts=np.array([n_spins]), mean=g, rms_deviation=0.0)

    @property
    def n_spins(self) -> int:
        return int(self.counts.sum())


def sample_couplings(params: ModelParams, seed: int) -> CouplingVector:
    """Draw N couplings with empirical mean exactly g and RMS exactly delta_g.

    The symmetric two-point draw is affinely corrected post hoc, so the
    first two moments are exact by construction; it has the least possible
    fourth moment, which keeps products of cosines closest to their Gaussian
    envelope.  The corrected draw holds two distinct couplings, stored with
    their multiplicities.
    """
    n = params.n_spins
    g, dg = params.coupling_g, params.delta_g
    if dg == 0:
        return CouplingVector.uniform(g, n)
    if n < 2:
        raise ValueError("a nonzero spread requires at least two spins")
    rng = np.random.default_rng(seed)
    dev = rng.choice(np.array([-1.0, 1.0]), size=n)
    if np.all(dev == dev[0]):  # degenerate draw: make it balanceable
        dev[:: 2] *= -1.0
    dev = dev - dev.mean()
    scale = math.sqrt(float(np.mean(dev**2)))
    vals = g + dev * (dg / scale)
    values, counts = np.unique(vals, return_counts=True)
    return CouplingVector(
        values=values,
        counts=counts,
        mean=float(np.mean(vals)),
        rms_deviation=float(math.sqrt(np.mean((vals - np.mean(vals)) ** 2))),
    )


# --- log-domain cosine products ---------------------------------------------

#: libm's log, elementwise: correctly rounded for nearly every argument, where
#: NumPy's SIMD log is one ulp off for about 1% of them
_libm_log = np.frompyfunc(math.log, 1, 1)


def log_cos_product(times, couplings: CouplingVector, hbar: float = 1.0):
    """(log|prod_n cos(2 g_n t/hbar)|, sign) at a time or an array of times.

    Each distinct coupling contributes its multiplicity times log|cos|, so
    magnitudes far below the float underflow threshold stay exact as logs.
    The sign is 0 where a factor vanishes exactly (the log is then -inf),
    else (-1) to the number of negative factors.
    """
    c = np.cos(np.multiply.outer(np.asarray(times, dtype=float), 2.0 * couplings.values) / hbar)
    zero = c == 0.0
    log_abs = _libm_log(np.where(zero, 1.0, np.abs(c))).astype(float)
    vanishes = np.any(zero, axis=-1)
    logmag = np.where(vanishes, -math.inf, log_abs @ couplings.counts)
    sign = np.where(vanishes, 0.0, 1.0 - 2.0 * ((c < 0) @ couplings.counts % 2))
    return logmag, sign


def _linear(logmag, sign, cap: float):
    """sign (or a unit phase) * exp(logmag), 0 below the double underflow
    threshold; logmag is capped at ``cap`` so that the exponential cannot
    overflow."""
    return sign * np.where(logmag > -745.0, np.exp(np.minimum(logmag, cap)), 0.0)


def _log10_abs(logmag, r0: complex):
    """log10 |r0 exp(logmag)|, -inf for r0 = 0."""
    return (logmag + (math.log(abs(r0)) if r0 != 0 else -math.inf)) / _LOG10


def envelope(t, couplings: CouplingVector, r0: complex, hbar: float = 1.0):
    """Off-diagonal amplitude r0 prod_n cos(2 g_n t/hbar) without the bath;
    uniform couplings give r0 cos^N(2gt/hbar)."""
    return r0 * _linear(*log_cos_product(t, couplings, hbar), 0.0)


# --- assembled trajectory ---------------------------------------------------


@dataclass(frozen=True)
class OffDiagState:
    """Per-spin factor parameters at one instant (zeta_x, zeta_y vanish identically)."""

    zeta0: complex
    zetaz: complex


@dataclass(frozen=True)
class OffDiagTrajectory:
    """Time series of the off-diagonal amplitude with its damping factors.

    ``amplitude`` may underflow to zero in linear representation; the exact
    magnitude is always available as ``log10_abs`` (base-10 log, -inf only
    when the amplitude vanishes identically).  The product
    osc_factor * bath_factor * dispersion_factor * r0 equals the amplitude;
    the factor split is exact in the log domain, so the linear dispersion
    column can overflow near the isolated zeros of the uniform factor.
    """

    times: np.ndarray
    amplitude: np.ndarray
    log10_abs: np.ndarray
    osc_factor: np.ndarray
    bath_factor: np.ndarray
    dispersion_factor: np.ndarray
    r0: complex
    pulse_time: float | None = None

    def __post_init__(self):
        for name in ("times", "amplitude", "log10_abs", "osc_factor",
                     "bath_factor", "dispersion_factor"):
            getattr(self, name).setflags(write=False)


def offdiag_trajectory(
    params: ModelParams,
    r0: complex,
    times: np.ndarray,
    couplings: CouplingVector | None = None,
    include_bath: bool | None = None,
) -> OffDiagTrajectory:
    """Closed-form off-diagonal amplitude on a time grid.

    The amplitude is the uniform oscillation times the bath factor
    exp(-(t/tau_2)^4) (if gamma > 0) times the exact interference ratio of
    the dispersed product to the uniform one (if couplings are given).
    """
    times = np.asarray(times, dtype=float)
    if include_bath is None:
        include_bath = params.gamma > 0
    n = params.n_spins
    uniform = CouplingVector.uniform(params.coupling_g, n)
    if couplings is None or couplings.rms_deviation == 0:
        couplings = uniform
    log_osc, sign_osc = log_cos_product(times, uniform, params.hbar)
    log_total, sign_total = log_cos_product(times, couplings, params.hbar)

    if include_bath:
        log_bath = -n * bath_exponent(times, params)
    else:
        log_bath = np.zeros_like(times)

    log_amp = log_total + log_bath
    return OffDiagTrajectory(
        times=times,
        amplitude=r0 * _linear(log_amp, sign_total, 700.0),
        log10_abs=_log10_abs(log_amp, r0),
        osc_factor=_linear(log_osc, sign_osc, 700.0),
        bath_factor=np.exp(log_bath),
        dispersion_factor=_linear(log_total - log_osc, sign_total * sign_osc, 700.0),
        r0=r0,
    )


def spin_echo(
    theta: float,
    couplings: CouplingVector,
    r0: complex,
    times: np.ndarray,
    hbar: float = 1.0,
) -> OffDiagTrajectory:
    """Dispersed evolution with a pi pulse around y at time theta.

    The pulse flips every accumulated phase, so for t >= theta the amplitude
    is r0 prod_n cos(2 g_n (t - 2 theta)/hbar): continuous at the pulse and
    exactly r0 at t = 2 theta.
    """
    if theta < 0:
        raise NegativePulseTime(f"pulse time must be >= 0, got {theta}")
    times = np.asarray(times, dtype=float)
    log_amp, sign = log_cos_product(
        np.where(times < theta, times, times - 2.0 * theta), couplings, hbar
    )
    factor = _linear(log_amp, sign, 0.0)
    return OffDiagTrajectory(
        times=times,
        amplitude=r0 * factor,
        log10_abs=_log10_abs(log_amp, r0),
        osc_factor=factor,
        bath_factor=np.ones_like(times),
        dispersion_factor=np.ones_like(times),
        r0=r0,
        pulse_time=theta,
    )


# --- short-time zeta equations ----------------------------------------------


@dataclass(frozen=True)
class ZetaTrajectory:
    """Numerical solution of the per-spin short-time equations."""

    times: np.ndarray
    zeta0: np.ndarray
    zetaz: np.ndarray
    params: ModelParams = field(repr=False, compare=False, default=None)

    def at(self, i: int) -> OffDiagState:
        return OffDiagState(zeta0=complex(self.zeta0[i]), zetaz=complex(self.zetaz[i]))

    def envelope(self) -> np.ndarray:
        """Oscillation-free modulus sqrt(|zeta0|^2 + |zetaz|^2)."""
        return np.sqrt(np.abs(self.zeta0) ** 2 + np.abs(self.zetaz) ** 2)

    def amplitude(self, r0: complex) -> np.ndarray:
        """Recombined off-diagonal amplitude r0 * zeta0^N (linear; may underflow)."""
        n = self.params.n_spins
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            logmag = n * np.log(np.abs(self.zeta0))
            phase = n * np.angle(self.zeta0)
        return r0 * _linear(logmag, np.exp(1j * phase), 0.0)


def zeta_matrix(t: float, params: ModelParams) -> np.ndarray:
    """Matrix A(t) of the short-time equations (zeta0, zetaz)' = A(t) (zeta0, zetaz)
    of the up-down sector.

    The bath enters through a frequency-shift term and a friction term whose
    time-averaged amplitude law is exactly exp(-chi(t)) with the quartic
    chi of :func:`bath_exponent`; the friction coefficient carries the
    (2gt/hbar)^2 weight required for that law to hold.
    """
    g, hbar = params.coupling_g, params.hbar
    c = params.gamma * params.debye_cutoff**2
    freq = 2j * g / hbar
    friction = (c * t / math.pi) * (2.0 * g * t / hbar) ** 2
    return np.array([[0.0, freq], [freq * (1.0 + c * t * t / (2.0 * math.pi)), -friction]])


def zeta_rhs(t: float, y: np.ndarray, params: ModelParams) -> np.ndarray:
    """Right-hand side A(t) y of the short-time equations, for general integrators."""
    return zeta_matrix(t, params) @ y


def integrate_zeta_short_time(
    params: ModelParams,
    t_max: float,
    step: float | None = None,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> ZetaTrajectory:
    """Integrate the short-time equations from (1, 0) up to t_max.

    The equations are linear, so they are propagated by fourth-order Magnus
    steps; ``step`` bounds the step size (the propagator is adaptive below
    it).  A warning is issued when t_max exceeds the stated validity window
    1/Gamma.
    """
    if t_max > 1.0 / params.debye_cutoff:
        warnings.warn(
            f"t_max = {t_max} exceeds the short-time window 1/Gamma = {1.0 / params.debye_cutoff}",
            ValidityWindowWarning,
            stacklevel=2,
        )
    try:
        times, states = ode.propagate(
            lambda t: zeta_matrix(t, params), [1.0, 0.0], t_max,
            rtol=rtol, atol=atol, max_step=step,
        )
    except StepFailure as exc:
        raise StepTooLarge(str(exc)) from exc
    return ZetaTrajectory(times=times, zeta0=states[:, 0], zetaz=states[:, 1], params=params)


# --- bath memory kernel -----------------------------------------------------


def spectral_density(omega, temperature: float, debye_cutoff: float, hbar: float = 1.0):
    """Two-sided spectrum omega [coth(hbar omega/2T) - 1] exp(-|omega|/Gamma).

    Stable for all arguments; satisfies detailed balance
    S(omega)/S(-omega) = exp(-hbar omega/T).
    """
    w = np.asarray(omega, dtype=float)
    if temperature == 0.0:
        s = np.where(w >= 0, 0.0, -2.0 * w)
    else:
        x = hbar * w / temperature
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            s = np.where(
                np.abs(x) < 1e-8,
                2.0 * temperature / hbar - w + hbar * w * w / (6.0 * temperature),
                np.where(x > 700.0, 2.0 * w * np.exp(-x), 2.0 * w / np.expm1(x)),
            )
    out = s * np.exp(-np.abs(w) / debye_cutoff)
    return float(out) if np.isscalar(omega) or w.ndim == 0 else out


def memory_kernel(
    t: float, temperature: float, debye_cutoff: float, hbar: float = 1.0
) -> complex:
    """Bath memory kernel K(t) = (hbar^2/16 pi) * Fourier transform of the spectrum.

    Evaluated by oscillation-aware adaptive quadrature, split at omega = 0
    where the spectrum has a kink from the |omega| cutoff.  No command calls
    it, so scipy is imported here rather than with the package.
    """
    from scipy.integrate import quad

    if not math.isfinite(t):
        raise QuadratureNotConverged(f"t must be finite, got {t}")
    gam = debye_cutoff
    wmax = 200.0 * gam + (50.0 * temperature / hbar if temperature > 0 else 0.0)

    def pos(w):
        return spectral_density(w, temperature, gam, hbar)

    def neg(w):
        return spectral_density(-w, temperature, gam, hbar)

    pieces = []
    for f in (pos, neg):
        for weight in ("cos", "sin"):
            if t == 0.0:
                if weight == "sin":
                    pieces.append(0.0)
                    continue
                val, err = quad(f, 0.0, wmax, limit=800, epsabs=1e-12, epsrel=1e-10)
            else:
                val, err = quad(
                    f, 0.0, wmax, weight=weight, wvar=abs(t),
                    limit=800, epsabs=1e-12, epsrel=1e-10,
                )
            if not math.isfinite(val) or err > 1e-6 * max(1.0, abs(val)):
                raise QuadratureNotConverged(
                    f"kernel quadrature error {err:.2e} for value {val:.2e}"
                )
            pieces.append(val)
    re_p, im_p, re_m, im_m = pieces
    # e^{i w t}: positive branch advances with +t, negative branch with -t
    if t >= 0:
        total = (re_p + 1j * im_p) + (re_m - 1j * im_m)
    else:
        total = (re_p - 1j * im_p) + (re_m + 1j * im_m)
    return complex(hbar**2 / (16.0 * math.pi) * total)
