"""Independent brute-force validators for the closed-form dynamics.

Nothing here is a production path: these routines recompute the same
quantities by structurally different means (binomial sector sums, full
2^N enumeration, a third-party high-order integrator) so the tests can pin
the closed forms against them.  This is the one module of the package that
imports scipy, so scipy is needed only to run the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import gammaln

from .errors import StepFailure, TooLarge
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
    phases = np.exp(2j * params.coupling_g * (spec.levels * n) * t)
    return r0 * _kahan_complex_sum(weights * phases)


def full_hilbert_offdiag(t: float, couplings: CouplingVector, r0: complex) -> complex:
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
        phases = np.exp(2j * couplings.mean * (2 * k - n) * t)
        return r0 * _kahan_complex_sum(weights * phases)
    totals = np.zeros(1)
    for gn in np.repeat(couplings.values, couplings.counts):
        totals = np.concatenate([totals + gn, totals - gn])
    terms = np.exp(2j * t * totals) / 2.0**n
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
