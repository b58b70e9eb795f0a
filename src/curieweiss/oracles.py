"""Independent brute-force validators for the closed-form dynamics.

Nothing here is a production path: these routines recompute the same
quantities by structurally different means (binomial sector sums, full
2^N enumeration, a third-party high-order integrator, a second quadrature
rule) so the tests can pin the closed forms against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.special import gammaln

from .errors import NotConverged, StepFailure, TooLarge
from .model import ModelParams
from .offdiag import CouplingVector

_ENUMERATION_CAP = 20


@dataclass(frozen=True)
class SectorSpectrum:
    """Spectrum of the magnetization per spin: levels (2k - N)/N, k = 0..N."""

    n_spins: int
    levels: np.ndarray
    log_multiplicity: np.ndarray

    @classmethod
    def build(cls, n_spins: int) -> "SectorSpectrum":
        k = np.arange(n_spins + 1)
        levels = (2.0 * k - n_spins) / n_spins
        logmult = gammaln(n_spins + 1) - gammaln(k + 1) - gammaln(n_spins - k + 1)
        return cls(n_spins=n_spins, levels=levels, log_multiplicity=logmult)

    def log_total(self) -> float:
        """log of sum of multiplicities; equals N ln 2 exactly."""
        peak = self.log_multiplicity.max()
        return peak + math.log(np.sum(np.exp(self.log_multiplicity - peak)))


def _kahan_complex_sum(terms: np.ndarray) -> complex:
    s = 0.0 + 0.0j
    c = 0.0 + 0.0j
    for x in terms:
        y = x - c
        t = s + y
        c = (t - s) - y
        s = t
    return s


def offdiag_sector_sum(t: float, params: ModelParams, r0: complex) -> complex:
    """Exact binomial sector sum for the uniform-coupling amplitude.

    r0 * sum_k C(N,k) 2^-N exp(2 i g (2k - N) t / hbar), accumulated with
    compensated summation; equals r0 cos^N(2gt/hbar) by the binomial theorem.
    """
    spec = SectorSpectrum.build(params.n_spins)
    n = params.n_spins
    weights = np.exp(spec.log_multiplicity - n * math.log(2.0))
    phases = np.exp(2j * params.coupling_g * (spec.levels * n) * t / params.hbar)
    return r0 * _kahan_complex_sum(weights * phases)


def full_hilbert_offdiag(
    t: float, couplings: CouplingVector, r0: complex, hbar: float = 1.0
) -> complex:
    """Exact 2^N enumeration of the dispersed off-diagonal trace.

    Every operator involved is diagonal in the sigma_z product basis and the
    magnet block starts proportional to the identity, so the trace is
    2^-N sum over all configurations of exp(2 i t sum_n g_n sigma_n / hbar).
    Capped at N = 20.
    """
    n = couplings.n_spins
    if n > _ENUMERATION_CAP:
        raise TooLarge(f"N = {n} exceeds the enumeration cap {_ENUMERATION_CAP}")
    if couplings.rms_deviation == 0.0:
        # sector compression: identical couplings collapse onto binomial levels
        k = np.arange(n + 1)
        logmult = gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
        weights = np.exp(logmult - n * math.log(2.0))
        phases = np.exp(2j * couplings.mean * (2 * k - n) * t / hbar)
        return r0 * _kahan_complex_sum(weights * phases)
    totals = np.zeros(1)
    for gn in np.repeat(couplings.values, couplings.counts):
        totals = np.concatenate([totals + gn, totals - gn])
    terms = np.exp(2j * t * totals / hbar) / 2.0**n
    return r0 * _kahan_complex_sum(terms)


def reference_integrate(rhs, initial, t_span, t_eval=None, rtol=1e-13, atol=1e-15):
    """High-accuracy third-party integration used only to bound production error.

    DOP853 at tolerance 1e-13: a different method family and codebase from
    the production registration quadrature and the fourth-order Magnus
    propagator of the zeta equations.
    """
    y0 = np.atleast_1d(np.asarray(initial))
    complex_state = np.iscomplexobj(y0)
    if complex_state:
        dim = y0.size

        def packed(t, y):
            z = y[:dim] + 1j * y[dim:]
            dz = np.asarray(rhs(t, z))
            return np.concatenate([dz.real, dz.imag])

        sol = solve_ivp(
            packed,
            t_span,
            np.concatenate([y0.real, y0.imag]),
            method="DOP853",
            t_eval=t_eval,
            rtol=rtol,
            atol=atol,
            dense_output=True,
        )
    else:
        sol = solve_ivp(
            rhs, t_span, y0.astype(float), method="DOP853",
            t_eval=t_eval, rtol=rtol, atol=atol, dense_output=True,
        )
    if not sol.success:
        raise StepFailure(f"reference integrator failed: {sol.message}")
    if complex_state:
        states = sol.y[:dim] + 1j * sol.y[dim:]
        interp = sol.sol

        def sample(t):
            v = interp(t)
            return v[:dim] + 1j * v[dim:]

        return sol.t, states.T, sample
    return sol.t, sol.y.T, sol.sol


def _adaptive_simpson(f, a, b, tol, max_depth=40):
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, b, fa, fm, fb, whole, tol, depth):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        if depth >= max_depth:
            raise NotConverged(f"adaptive Simpson: max depth at [{a}, {b}]")
        if abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return recurse(a, m, fa, flm, fm, left, tol / 2.0, depth + 1) + recurse(
            m, b, fm, frm, fb, right, tol / 2.0, depth + 1
        )

    return recurse(a, b, fa, fm, fb, whole, tol, 0)


def dual_quadrature(integrand, domain, tol=1e-10, points=None):
    """Evaluate an integral with two structurally different adaptive rules.

    Returns (value, discrepancy) where value comes from the Gauss-Kronrod
    rule and discrepancy is its difference from an independent adaptive
    Simpson evaluation.  Infinite upper limits are mapped to (0, 1) by
    x = a + u/(1-u) for the Simpson rule; the Gauss-Kronrod rule integrates
    the same mapped integrand so both see identical endpoints.
    """
    a, b = domain
    if math.isinf(b):
        def mapped(u):
            # endpoint u = 1 maps to infinity; integrable tails vanish there
            if u >= 1.0 - 1e-16:
                return 0.0
            x = a + u / (1.0 - u)
            return integrand(x) / (1.0 - u) ** 2

        f, lo, hi = mapped, 0.0, 1.0
    else:
        f, lo, hi = integrand, a, b

    val, err = quad(f, lo, hi, limit=400, epsabs=1e-13, epsrel=1e-12,
                    points=points if points else None)
    if not math.isfinite(val):
        raise NotConverged("Gauss-Kronrod rule returned a non-finite value")
    simpson = _adaptive_simpson(f, lo, hi, tol=max(1e-14, tol * max(1.0, abs(val))))
    disc = abs(val - simpson)
    if disc > 1e-6 * max(1.0, abs(val)):
        raise NotConverged(f"rules disagree: {val!r} vs {simpson!r}")
    return val, disc
