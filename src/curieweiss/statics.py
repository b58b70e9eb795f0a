"""Equilibrium analysis of the Curie-Weiss magnet.

Free energy per spin in a field of sign s = +/-1:

    F_s(m) = -s*g*m - (J/4) m^4 - T S(m),

with S(m) the binary mixing entropy.  Stationary points solve the
self-consistency m = tanh((s*g + J m^3)/T); minima/maxima are separated by
the sign of F'' = -3 J m^2 + T/(1 - m^2).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoFerromagneticSolution, SpinodalUndefined
from .model import ModelParams

_BELOW_ONE = math.nextafter(1.0, 0.0)


class PointKind(enum.Enum):
    MINIMUM = "minimum"
    MAXIMUM = "maximum"


class PointLabel(enum.Enum):
    PARAMAGNETIC = "paramagnetic"
    FERRO_UP = "ferro_up"
    FERRO_DOWN = "ferro_down"


@dataclass(frozen=True)
class StationaryPoint:
    m: float
    free_energy: float
    kind: PointKind
    label: PointLabel


@dataclass(frozen=True)
class Landscape:
    """All stationary points of F_s, sorted by m."""

    field_sign: int
    points: tuple[StationaryPoint, ...]
    global_minimum: int

    @property
    def minima(self) -> tuple[StationaryPoint, ...]:
        return tuple(p for p in self.points if p.kind is PointKind.MINIMUM)

    @property
    def ferromagnetic(self) -> StationaryPoint:
        """Ferromagnetic minimum with the largest |m|; the central well never
        counts, and the symmetric pair at g = 0 goes to the field's sign."""
        ferro = [p for p in self.minima if p.label is not PointLabel.PARAMAGNETIC]
        if not ferro:
            raise NoFerromagneticSolution("landscape has no ferromagnetic minimum")
        return max(ferro, key=lambda p: (abs(p.m), self.field_sign * p.m))

    @property
    def paramagnetic(self) -> StationaryPoint | None:
        """Minimum labelled paramagnetic (nearest m = 0), if present."""
        cands = [p for p in self.minima if p.label is PointLabel.PARAMAGNETIC]
        if not cands:
            return None
        return min(cands, key=lambda p: abs(p.m))


def mixing_entropy(m):
    """Binary mixing entropy per spin, in nats; S(+-1) = 0, S(0) = ln 2."""
    arr = np.asarray(m, dtype=float)
    if np.any(np.abs(arr) > 1.0):
        raise DomainError(f"|m| must be <= 1, got {m}")
    p = (1.0 + arr) / 2.0
    q = (1.0 - arr) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        s = -np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0) - np.where(
            q > 0, q * np.log(np.where(q > 0, q, 1.0)), 0.0
        )
    return float(s) if np.isscalar(m) or arr.ndim == 0 else s


def free_energy(m, field_sign: int, params: ModelParams):
    """F_s(m) per spin, in energy units of the input parameters."""
    arr = np.asarray(m, dtype=float)
    s = float(field_sign)
    m2 = arr * arr  # exactly even, unlike NumPy's arr**4
    out = (
        -s * params.coupling_g * arr
        - 0.25 * params.coupling_j * (m2 * m2)
        - params.temperature * mixing_entropy(arr)
    )
    return float(out) if np.isscalar(m) or arr.ndim == 0 else out


def free_energy_curvature(m: float, params: ModelParams) -> float:
    """d^2 F / dm^2, independent of the field sign."""
    return -3.0 * params.coupling_j * m * m + params.temperature / (1.0 - m * m)


def _psi(m: float, params: ModelParams) -> float:
    """psi(m) = T atanh m - J m^3, the field s g that makes m stationary.
    Exactly odd: math.atanh is, and so is m*m*m (NumPy's m**3 is not)."""
    return params.temperature * math.atanh(m) - params.coupling_j * (m * m * m)


def _curvature_roots(params: ModelParams) -> tuple[float, float]:
    """m- < m+ where F'' = psi' vanishes: m+-^2 = (1 +- sqrt(1 - 4T/3J))/2."""
    t, j = params.temperature, params.coupling_j
    disc = 1.0 - 4.0 * t / (3.0 * j)
    if disc <= 0:
        raise SpinodalUndefined(f"T = {t} >= 3J/4 = {0.75 * j}: no spinodal")
    root = math.sqrt(disc)
    return math.sqrt((1.0 - root) / 2.0), math.sqrt((1.0 + root) / 2.0)


def bisect(f, a: float, b: float, fa: float) -> float:
    """Root of f in (a, b), f(a) = fa and f(b) of opposite signs, to the last bit.

    Mirror-exact: on (-b, -a) with -f(-m) it returns exactly the negated root,
    because midpoints, their rounding and the half kept all mirror.
    """
    while True:
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            # a root past the last double below 1 rounds to that double, not to the edge
            return max(-_BELOW_ONE, min(_BELOW_ONE, mid))
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm < 0.0) == (fa < 0.0):
            a, fa = mid, fm
        else:
            b = mid


def _label_point(m: float) -> PointLabel:
    # location rule: the two curvature roots satisfy m-^2 + m+^2 = 1, so
    # |m| = 1/sqrt(2) always separates the central well from the ferro wells
    if m > math.sqrt(0.5):
        return PointLabel.FERRO_UP
    if m < -math.sqrt(0.5):
        return PointLabel.FERRO_DOWN
    return PointLabel.PARAMAGNETIC


def stationary_magnetizations(field_sign: int, params: ModelParams) -> Landscape:
    """Find all solutions of m = tanh((s g + J m^3)/T) and classify them.

    They solve psi(m) = s g.  psi is monotone between its branch edges -1,
    -m+, -m-, m-, m+, 1 (only -1, 1 for T >= 3J/4), so each branch holds at
    most one root, bracketed by its ends and bisected to the last bit.  An
    edge on which psi equals s g exactly is a double root and counted once.
    """
    if params.temperature <= 0:
        raise DomainError("temperature must be positive")
    s = int(field_sign)
    target = s * params.coupling_g
    try:
        lo, hi = _curvature_roots(params)
        inner = [-hi, -lo, lo, hi]
    except SpinodalUndefined:
        inner = []

    def f(m):
        return _psi(m, params) - target

    values = [f(m) for m in inner]
    roots = [m for m, v in zip(inner, values) if v == 0.0]
    edges, values = [-1.0, *inner, 1.0], [-math.inf, *values, math.inf]
    for a, b, fa, fb in zip(edges, edges[1:], values, values[1:]):
        if fa < 0.0 < fb or fb < 0.0 < fa:
            roots.append(bisect(f, a, b, fa))
    roots.sort()

    points = tuple(
        StationaryPoint(
            m=r,
            free_energy=float(free_energy(r, s, params)),
            kind=PointKind.MINIMUM if free_energy_curvature(r, params) > 0 else PointKind.MAXIMUM,
            label=_label_point(r),
        )
        for r in roots
    )
    minima = [i for i, p in enumerate(points) if p.kind is PointKind.MINIMUM]
    if not minima:
        raise NoFerromagneticSolution("no stationary minimum found")
    # the g = 0 symmetric pair ties exactly (F is exactly even); the positive m wins
    gmin = min(minima, key=lambda i: (points[i].free_energy, -points[i].m))
    return Landscape(field_sign=s, points=points, global_minimum=gmin)


def critical_coupling(params: ModelParams) -> float:
    """Coupling g_c at which the paramagnetic minimum of F disappears.

    Eliminates m between the self-consistency condition and the vanishing
    curvature condition: g_c = psi(m-) = T atanh(m-) - J m-^3.
    """
    return _psi(_curvature_roots(params)[0], params)


def critical_coupling_low_t(params: ModelParams) -> float:
    """Low-temperature asymptote g_c = (2T/3) sqrt(T/3J)."""
    t, j = params.temperature, params.coupling_j
    return (2.0 * t / 3.0) * math.sqrt(t / (3.0 * j))


def curie_temperature(params: ModelParams, tol: float = 1e-6) -> float:
    """Temperature at which the ferromagnetic minima are degenerate with m = 0.

    Defined by F(m_f) = F(0) at g = 0 (first-order transition convention)
    and located by bisection; below it the ferromagnetic states are the
    global minima.
    """
    from dataclasses import replace

    zero_g = replace(params, coupling_g=0.0, delta_g=0.0)
    j = params.coupling_j

    def degeneracy_gap(t: float) -> float:
        p = replace(zero_g, temperature=t)
        scape = stationary_magnetizations(+1, p)
        ferro = [q for q in scape.minima if abs(q.m) > 1e-6]
        if not ferro:
            return 1.0  # ferro states gone: paramagnet certainly wins
        fbest = min(q.free_energy for q in ferro)
        return fbest - float(free_energy(0.0, +1, p))

    lo, hi = 0.25 * j, 0.49 * j
    glo, ghi = degeneracy_gap(lo), degeneracy_gap(hi)
    if not (glo < 0 < ghi):
        raise NoFerromagneticSolution("degeneracy not bracketed in [0.25J, 0.49J]")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if degeneracy_gap(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class GapEstimate:
    """1 - m_f next to its low-temperature estimate 2 exp(-2J/T)."""

    gap: float
    asymptote: float


def ferromagnetic_gap(params: ModelParams) -> GapEstimate:
    """Distance of the ferromagnetic fixed point from saturation.

    The asymptote follows from 1 - tanh(x) -> 2 e^{-2x} applied to the
    self-consistency condition at m -> 1 with g = 0; it is only meaningful
    when params.coupling_g is zero or negligible.
    """
    mf = stationary_magnetizations(+1, params).ferromagnetic.m
    asym = 2.0 * math.exp(-2.0 * params.coupling_j / params.temperature)
    return GapEstimate(gap=1.0 - mf, asymptote=asym)


def landscape_table(params: ModelParams, grid_points: int = 401):
    """Uniform grid of (m, F_up, F_down) for export and plotting."""
    m = np.linspace(-1.0, 1.0, grid_points)
    return m, free_energy(m, +1, params), free_energy(m, -1, params)
