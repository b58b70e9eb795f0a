"""Independent brute-force validators for the closed-form dynamics.

These routines recompute the package's quantities by structurally different
means (binomial sector sums, full 2^N enumeration, a third-party high-order
integrator) so that the tests can pin the closed forms against them.  They
are test code, not part of the package: scipy is imported here and nowhere
under src/, so scipy is needed only to run the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import gammaln

from curieweiss.offdiag import Couplings

_ENUMERATION_CAP = 20


class TooLarge(ValueError):
    """Problem size exceeds the enumeration cap."""


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


def offdiag_sector_sum(t: float, g: float, n: int, r0: complex) -> complex:
    """Exact binomial sector sum for the amplitude of N spins of coupling g.

    r0 * sum_k C(N,k) 2^-N exp(2 i g (2k - N) t), accumulated with
    compensated summation; equals r0 cos^N(2gt) by the binomial theorem.
    """
    spec = SectorSpectrum.build(n)
    weights = np.exp(spec.log_multiplicity - n * math.log(2.0))
    phases = np.exp(2j * g * (spec.levels * n) * t)
    return r0 * _kahan_complex_sum(weights * phases)


def full_hilbert_offdiag(t: float, couplings: Couplings, r0: complex) -> complex:
    """Exact 2^N enumeration of the dispersed off-diagonal trace.

    Every operator involved is diagonal in the sigma_z product basis and the
    magnet block starts proportional to the identity, so the trace is
    2^-N sum over all configurations of exp(2 i t sum_n g_n sigma_n).
    Capped at N = 20; identical couplings collapse onto the binomial levels
    of :func:`offdiag_sector_sum`.
    """
    n = sum(c for _, c in couplings)
    if n > _ENUMERATION_CAP:
        raise TooLarge(f"N = {n} exceeds the enumeration cap {_ENUMERATION_CAP}")
    if len(couplings) == 1:
        return offdiag_sector_sum(t, float(couplings[0][0]), n, r0)
    totals = np.zeros(1)
    for gn in np.repeat([g for g, _ in couplings], [c for _, c in couplings]):
        totals = np.concatenate([totals + gn, totals - gn])
    terms = np.exp(2j * t * totals) / 2.0**n
    return r0 * _kahan_complex_sum(terms)


def reference_integrate(rhs, initial, t_span, t_eval=None, rtol=1e-13, atol=1e-15):
    """High-accuracy third-party integration used only to bound production error.

    DOP853 at tolerance 1e-13: a different method family and codebase from
    the production registration quadrature.  A complex ``initial`` is
    integrated as a complex state.  Returns the times, the states (one row
    per time) and the dense interpolant.
    """
    sol = solve_ivp(rhs, t_span, initial, method="DOP853", t_eval=t_eval,
                    rtol=rtol, atol=atol, dense_output=True)
    if not sol.success:
        raise RuntimeError(f"reference integrator failed: {sol.message}")
    return sol.t, sol.y.T, sol.sol


def zeta_matrix(t: float, params) -> np.ndarray:
    """Matrix A(t) of the short-time equations (zeta0, zetaz)' = A(t) (zeta0, zetaz)
    of the up-down sector.

    The bath enters through a frequency-shift term and a friction term whose
    time-averaged amplitude law is exactly exp(-chi(t)) with the quartic
    chi of :func:`curieweiss.offdiag.bath_exponent`; the friction
    coefficient carries the (2gt/hbar)^2 weight required for that law to hold.
    """
    g = params.coupling_g
    c = params.gamma * params.debye_cutoff**2
    freq = 2j * g
    friction = (c * t / math.pi) * (2.0 * g * t) ** 2
    return np.array([[0.0, freq], [freq * (1.0 + c * t * t / (2.0 * math.pi)), -friction]])


def reference_zeta(params, t_end: float):
    """(times, zeta0, zetaz) of the short-time equations from (1, 0) to
    exactly t_end, at the steps of :func:`reference_integrate`."""
    times, states, _ = reference_integrate(lambda t, y: zeta_matrix(t, params) @ y,
                                           np.array([1.0 + 0j, 0j]), (0.0, t_end))
    return times, states[:, 0], states[:, 1]
