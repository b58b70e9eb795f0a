"""Dynamics of the off-diagonal sector: collapse, recurrences, damping, echo.

With uniform couplings the off-diagonal amplitude is r(t) = r(0) cos^N(2gt/hbar):
a Gaussian collapse over the reduction time hbar/(g sqrt(2N)) followed by
periodic recurrences.  Two mechanisms suppress the recurrences: the phonon
bath (quartic exponent, decay time tau_2) and a spread of the per-spin
couplings (Gaussian exponent, decay time tau_2').  A pi pulse around y at
time theta rephases the dispersed product and revives the amplitude at
2*theta exactly.

Couplings are (value, multiplicity) pairs of their distinct values, and
every product of cosines is one log-magnitude + sign loop over them, so
magnitudes far below the float underflow threshold remain exact as logs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import CurieWeissError
from .model import ModelParams

_LOG10 = math.log(10.0)


# --- characteristic times and exponents ------------------------------------


def reduction_time(params: ModelParams) -> float:
    """Collapse time hbar/(g sqrt(2N)) of the off-diagonal blocks."""
    if params.coupling_g == 0:
        raise CurieWeissError("no measurement coupling: reduction time undefined")
    return 1.0 / (params.coupling_g * math.sqrt(2.0 * params.n_spins))


def bath_exponent(t, params: ModelParams):
    """Per-spin bath damping exponent chi(t) = gamma Gamma^2 g^2 t^4 / (2 pi hbar^2)."""
    tt = np.asarray(t, dtype=float)
    chi = params.gamma * params.debye_cutoff**2 * params.coupling_g**2 * tt**4 / (2.0 * math.pi)
    return float(chi) if np.isscalar(t) else chi


def decay_time_bath(params: ModelParams) -> float:
    """Bath suppression time tau_2 = (2 pi / gamma N)^(1/4) sqrt(hbar / Gamma g)."""
    if params.gamma == 0:
        raise CurieWeissError("gamma = 0: no bath damping")
    if params.coupling_g == 0:
        raise CurieWeissError("g = 0: no off-diagonal oscillation to damp")
    return (2.0 * math.pi / (params.gamma * params.n_spins)) ** 0.25 * math.sqrt(
        1.0 / (params.debye_cutoff * params.coupling_g)
    )


def log_recurrence_height_bath(params: ModelParams) -> float:
    """Natural log of the bath suppression of the first recurrence peak.

    Equals -N * chi(pi hbar / 2g), i.e. -N pi^3 gamma hbar^2 Gamma^2 / (32 g^2).
    """
    if params.coupling_g == 0:
        raise CurieWeissError("g = 0: no recurrences")
    return (-params.n_spins * math.pi**3 * params.gamma * params.debye_cutoff**2
            / (32.0 * params.coupling_g**2))


def dispersion_decay_time(params: ModelParams) -> float:
    """Dispersion suppression time tau_2' = hbar/(delta_g sqrt(2N))."""
    if params.delta_g == 0:
        raise CurieWeissError("delta_g = 0: no coupling dispersion")
    return 1.0 / (params.delta_g * math.sqrt(2.0 * params.n_spins))


def log_recurrence_height_dispersed(params: ModelParams) -> float:
    """Natural log of the dispersion suppression of the first peak:
    -N pi^2 delta_g^2 / (2 g^2)."""
    if params.coupling_g == 0:
        raise CurieWeissError("g = 0: no recurrences")
    return -params.n_spins * math.pi**2 * params.delta_g**2 / (2.0 * params.coupling_g**2)


# --- couplings -------------------------------------------------------------

#: per-spin couplings g_n as (value, multiplicity) pairs of distinct values
Couplings = tuple[tuple[float, int], ...]


def sample_couplings(params: ModelParams, seed: int) -> Couplings:
    """Draw N couplings with empirical mean exactly g and RMS exactly delta_g.

    Each coupling starts as g +/- delta_g with equal odds and the draw is
    affinely corrected post hoc, so the first two moments are exact by
    construction; it has the least possible fourth moment, which keeps
    products of cosines closest to their Gaussian envelope.  The corrected
    draw depends only on the number k of + signs, which is drawn as one
    Binomial(N, 1/2) count: k spins sit at g + delta_g sqrt((N-k)/k) and
    N - k at g - delta_g sqrt(k/(N-k)).  Nothing of size N is held, so N
    may be macroscopic.
    """
    n = params.n_spins
    g, dg = params.coupling_g, params.delta_g
    if dg == 0:
        return ((g, n),)
    if n < 2:
        raise CurieWeissError("a nonzero spread requires at least two spins")
    k = _binomial_half(n, random.Random(seed))
    if k in (0, n):  # degenerate draw: flip every other sign to balance it
        k = (n + 1) // 2 if k == 0 else n // 2
    return ((g - dg * math.sqrt(k / (n - k)), n - k), (g + dg * math.sqrt((n - k) / k), k))


_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _binomial_half(n: int, rng: random.Random) -> int:
    """One Binomial(n, 1/2) count drawn from rng, exact in law up to rounding.

    Below a mean of 10 it counts the set bits of n random bits.  Above, it
    is Hoermann's transformed rejection with squeeze, BTRS (J. Stat. Comput.
    Simul. 46 (1993) 101), whose acceptance test is written in log1p ratios
    and Stirling tails, so it keeps its precision at every n below 2^53.
    Beyond that the proposal is quantized to the spacing of doubles.
    """
    if n < 20:
        return rng.getrandbits(n).bit_count()
    sd = 0.5 * math.sqrt(n)
    b = 1.15 + 2.53 * sd
    a = -0.0873 + 0.0248 * b + 0.01 * 0.5  # the last term is 0.01 p
    alpha = (2.83 + 5.1 / b) * sd
    squeeze = 0.92 - 4.2 / b
    mode = (n + 1) // 2
    while True:
        u, v = rng.random() - 0.5, 1.0 - rng.random()
        us = 0.5 - abs(u)
        if us == 0.0:  # u = -1/2, where the hat is unbounded
            continue
        k = math.floor((2.0 * a / us + b) * u + 0.5 * n + 0.5)
        if not 0 <= k <= n:
            continue
        if us >= 0.07 and v <= squeeze:
            return k
        if math.log(v * alpha / (a / (us * us) + b)) <= _log_binomial_ratio(n, k, mode):
            return k


def _log_binomial_ratio(n: int, k: int, m: int) -> float:
    """ln[C(n, k) / C(n, m)] from Stirling's formula with exact tails.  The
    log terms cancel from O(|k - m|), not from O(n ln n) as lgamma's would."""
    return ((m + 0.5) * _log_ratio(m + 1, n - m + 1)
            + (n + 1) * _log_ratio(n - m + 1, n - k + 1)
            + (k + 0.5) * _log_ratio(n - k + 1, k + 1)
            + _stirling_tail(m) + _stirling_tail(n - m)
            - _stirling_tail(k) - _stirling_tail(n - k))


def _log_ratio(p: int, q: int) -> float:
    """ln(p/q) of two positive integers to a few ulps of itself: by log1p
    where p/q is near 1, else by log."""
    return math.log1p((p - q) / q) if q < 2 * p and p < 2 * q else math.log(p / q)


def _stirling_tail(x: int) -> float:
    """ln x! - [(x + 1/2) ln(x + 1) - (x + 1) + ln(2 pi)/2]: from lgamma for
    small x, else from the series 1/12z - 1/360z^3 + 1/1260z^5, z = x + 1."""
    if x < 100:
        return math.lgamma(x + 1) - (x + 0.5) * math.log(x + 1) + (x + 1) - _HALF_LOG_2PI
    y = 1.0 / (x + 1)
    return y * (1.0 / 12.0 - y * y * (1.0 / 360.0 - y * y / 1260.0))


# --- log-domain cosine products ---------------------------------------------

#: libm's log, elementwise: correctly rounded for nearly every argument, where
#: NumPy's SIMD log is one ulp off for about 1% of them
_libm_log = np.frompyfunc(math.log, 1, 1)


def log_cos_product(times, couplings: Couplings):
    """(log|prod_n cos(2 g_n t/hbar)|, sign) at a time or an array of times.

    Each (value, multiplicity) pair adds its multiplicity times log|cos|, so
    magnitudes far below the float underflow threshold stay exact as logs,
    and a multiplicity may be any Python int.  No factor vanishes (|cos| >=
    4.7e-19 at a finite double); the sign is 0 where a multiplicity overflows
    the log to -inf, else (-1) to the number of negative factors.
    """
    times = np.asarray(times, dtype=float)
    logmag, sign = np.zeros_like(times), np.ones_like(times)
    for g, n in couplings:
        c = np.cos(times * (2.0 * g))
        logmag = logmag + n * np.asarray(_libm_log(np.abs(c)), dtype=float)
        if n % 2:
            sign = np.where(c < 0.0, -sign, sign)
    return logmag, np.where(logmag == -math.inf, 0.0, sign)


def _linear(logmag, sign):
    """sign * exp(logmag), 0 below the double underflow threshold; logmag
    is capped at 700 so that the exponential cannot overflow (only a ratio
    of two products can exceed 0)."""
    return sign * np.where(logmag > -745.0, np.exp(np.minimum(logmag, 700.0)), 0.0)


def _log10_abs(logmag, r0: complex):
    """log10 |r0 exp(logmag)|, -inf for r0 = 0."""
    return (logmag + (math.log(abs(r0)) if r0 != 0 else -math.inf)) / _LOG10


def envelope(t, couplings: Couplings, r0: complex):
    """Off-diagonal amplitude r0 prod_n cos(2 g_n t/hbar) without the bath;
    uniform couplings ((g, N),) give r0 cos^N(2gt/hbar)."""
    return r0 * _linear(*log_cos_product(t, couplings))


# --- assembled trajectory ---------------------------------------------------


@dataclass(frozen=True)
class OffDiagTrajectory:
    """Time series of the off-diagonal amplitude with its damping factors.

    ``amplitude`` may underflow to zero in linear representation; the exact
    magnitude is always available as ``log10_abs`` (base-10 log, -inf only
    when the amplitude vanishes identically).  The product
    osc_factor * bath_factor * dispersion_factor * r(0) equals the amplitude;
    the factor split is exact in the log domain, so near the isolated zeros
    of the uniform factor the linear dispersion column is capped at e^700.
    """

    times: np.ndarray
    amplitude: np.ndarray
    log10_abs: np.ndarray
    osc_factor: np.ndarray
    bath_factor: np.ndarray
    dispersion_factor: np.ndarray

    def __post_init__(self):
        for name in ("times", "amplitude", "log10_abs", "osc_factor",
                     "bath_factor", "dispersion_factor"):
            getattr(self, name).setflags(write=False)


def time_grid(spacing: str, samples: int, t_hi: float) -> np.ndarray:
    """``samples`` times from 0 to exactly t_hi, as an array: evenly spaced
    for ``"linear"``; for ``"log"``, all but the first geometrically from
    1e-4 t_hi (two samples: 0 and t_hi)."""
    if spacing == "linear":
        return np.linspace(0.0, t_hi, samples)
    grid = np.geomspace(t_hi * 1e-4, t_hi, samples - 1)
    return np.concatenate([[0.0], grid[:-1], [t_hi]])


def offdiag_trajectory(params: ModelParams, r0: complex, times: np.ndarray,
                       couplings: Couplings, include_bath: bool) -> OffDiagTrajectory:
    """Closed-form off-diagonal amplitude on a time grid.

    The amplitude is the uniform oscillation times the bath factor
    exp(-(t/tau_2)^4) (if include_bath) times the exact interference ratio
    of the product over ``couplings`` to the uniform one (1 for uniform
    couplings).
    """
    times = np.asarray(times, dtype=float)
    n = params.n_spins
    uniform = ((params.coupling_g, n),)
    log_osc, sign_osc = log_cos_product(times, uniform)
    if couplings == uniform:
        log_total, sign_total = log_osc, sign_osc  # the same product
    else:
        log_total, sign_total = log_cos_product(times, couplings)

    if include_bath:
        with np.errstate(over="ignore"):  # -inf is the model's value: a bath factor of 0
            log_bath = -n * bath_exponent(times, params)
    else:
        log_bath = np.zeros_like(times)

    log_amp = log_total + log_bath
    return OffDiagTrajectory(
        times=times,
        amplitude=r0 * _linear(log_amp, sign_total),
        log10_abs=_log10_abs(log_amp, r0),
        osc_factor=_linear(log_osc, sign_osc),
        bath_factor=np.exp(log_bath),
        dispersion_factor=_linear(log_total - log_osc, sign_total * sign_osc),
    )


def spin_echo(
    theta: float,
    couplings: Couplings,
    r0: complex,
    times: np.ndarray,
) -> OffDiagTrajectory:
    """Dispersed evolution with a pi pulse around y at time theta.

    The pulse flips every accumulated phase, so for t >= theta the amplitude
    is r0 prod_n cos(2 g_n (t - 2 theta)/hbar): continuous at the pulse and
    exactly r0 at t = 2 theta.
    """
    if not (theta >= 0 and math.isfinite(2.0 * theta)):
        raise CurieWeissError(f"pulse time must be finite and non-negative, got {theta}")
    times = np.asarray(times, dtype=float)
    log_amp, sign = log_cos_product(
        np.where(times < theta, times, times - 2.0 * theta), couplings
    )
    factor = _linear(log_amp, sign)
    return OffDiagTrajectory(
        times=times,
        amplitude=r0 * factor,
        log10_abs=_log10_abs(log_amp, r0),
        osc_factor=factor,
        bath_factor=np.ones_like(times),
        dispersion_factor=np.ones_like(times),
    )


def echo_revival_log10(r0: complex) -> float:
    """log10 |r(2 theta)| of :func:`spin_echo`, without the bath as there:
    every factor at t = 2 theta is cos 0 = 1, so it is log10 |r0|, or -inf
    for r0 = 0, whatever the pulse time and the couplings."""
    return _log10_abs(0.0, r0)


# --- bath spectrum ----------------------------------------------------------


def spectral_density(omega, temperature: float, debye_cutoff: float):
    """Two-sided spectrum omega [coth(hbar omega/2T) - 1] exp(-|omega|/Gamma).

    Stable for all arguments; satisfies detailed balance
    S(omega)/S(-omega) = exp(-hbar omega/T).
    """
    w = np.asarray(omega, dtype=float)
    if temperature == 0.0:
        s = np.where(w >= 0, 0.0, -2.0 * w)
    else:
        x = w / temperature
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            s = np.where(
                np.abs(x) < 1e-8,
                2.0 * temperature - w + w * w / (6.0 * temperature),
                np.where(x > 700.0, 2.0 * w * np.exp(-x), 2.0 * w / np.expm1(x)),
            )
    out = s * np.exp(-np.abs(w) / debye_cutoff)
    return float(out) if np.isscalar(omega) or w.ndim == 0 else out
