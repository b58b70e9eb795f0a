"""Equilibrium analysis of the Curie-Weiss magnet.

Free energy per spin in a field of sign s = +/-1:

    F_s(m) = -s*g*m - (J/4) m^4 - T S(m),

with S(m) the binary mixing entropy.  Stationary points solve the
self-consistency m = tanh((s*g + J m^3)/T); a minimum is where F' goes
from - to + in increasing m, the sign of F'' = -3 J m^2 + T/(1 - m^2) away
from rounding.  Registration's closed forms (the
time from the bottleneck integral past g_c, the threshold, the stop
distance) depend on the parameters alone, so they are scalar and live here.
"""

from __future__ import annotations

import cmath
import collections
import enum
import functools
import math

from .errors import (CriticalOrSubcritical, CurieWeissError, NoFerromagneticSolution,
                     SpinodalUndefined)
from .model import ModelParams, Record

_BELOW_ONE = math.nextafter(1.0, 0.0)
#: distance from the attractor at which a registration flow is stopped
STOP_DELTA = 1e-6
_SQRT3 = math.sqrt(3.0)


class PointKind(enum.Enum):
    MINIMUM = "minimum"
    MAXIMUM = "maximum"


class PointLabel(enum.Enum):
    PARAMAGNETIC = "paramagnetic"
    FERRO_UP = "ferro_up"
    FERRO_DOWN = "ferro_down"


class StationaryPoint(Record, collections.namedtuple("StationaryPoint",
                                                     "m free_energy kind label")):
    """A stationary point of F_s: m, F_s(m), its PointKind and PointLabel."""

    __slots__ = ()


class Landscape(Record, collections.namedtuple("Landscape",
                                               "field_sign points global_minimum")):
    """All stationary points of F_s, sorted by m (a tuple of StationaryPoint),
    and the index of the global minimum among them."""

    __slots__ = ()

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

    def mirrored(self) -> "Landscape":
        """The landscape of the opposite field sign, by the exact parity
        F_s(m) = F_-s(-m): the points reversed with m -> 0.0 - m (so the g = 0
        root stays +0.0), F and kind kept, ferromagnetic labels swapped.  Bit
        for bit what :func:`stationary_magnetizations` finds for -field_sign,
        whose roots and tie-break mirror exactly."""
        points = tuple(
            StationaryPoint(m=0.0 - p.m, free_energy=p.free_energy, kind=p.kind,
                            label=label_point(0.0 - p.m))
            for p in reversed(self.points)
        )
        return Landscape(field_sign=-self.field_sign, points=points,
                         global_minimum=len(points) - 1 - self.global_minimum)


def mixing_entropy(m):
    """Binary mixing entropy per spin, in nats; S(+-1) = 0, S(0) = ln 2.
    m is a float, or an iterable of floats for a list of S."""
    scalar = isinstance(m, (int, float))
    log, out = math.log, []
    for x in ((m,) if scalar else m):
        if abs(x) > 1.0:
            raise CurieWeissError(f"|m| must be <= 1, got {x}")
        p = (1.0 + x) / 2.0
        q = (1.0 - x) / 2.0
        out.append(-(p * log(p) if p > 0 else 0.0) - (q * log(q) if q > 0 else 0.0))
    return out[0] if scalar else out


def _free_energies(m, m4, entropy, s: float, params: ModelParams) -> list[float]:
    """F_s from m, m^4 and S(m), elementwise: the one expression, in one
    order, that :func:`free_energy` and :func:`landscape_table` share, in
    one loop with its factors bound."""
    a, b, t = -s * params.coupling_g, 0.25 * params.coupling_j, params.temperature
    return [a * x - b * x4 - t * e for x, x4, e in zip(m, m4, entropy)]


def free_energy(m, field_sign: int, params: ModelParams):
    """F_s(m) per spin, in energy units of the input parameters; m is a
    float, or an iterable of floats for a list of F."""
    scalar = isinstance(m, (int, float))
    ms = [m] if scalar else list(m)
    m4 = [(x * x) * (x * x) for x in ms]  # exactly even, unlike x**4
    out = _free_energies(ms, m4, mixing_entropy(ms), float(field_sign), params)
    return out[0] if scalar else out


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
    """Root of f in [a, b], f(a) = fa and f(b) of opposite signs, to the last bit.

    Mirror-exact: with g(x) = f(-x) or -f(-x), bisect(g, -a, -b, g(-a))
    returns exactly the negated root (a zero root stays +0.0), because
    midpoints, their rounding and the half kept all mirror.  The down
    landscape and the down registration sector are written from the up ones
    on the strength of this (:meth:`Landscape.mirrored`,
    :func:`scenario.write_sectors`).
    """
    negative = fa < 0.0  # a only moves to points of f's sign at a
    while True:
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            return mid
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm < 0.0) == negative:
            a = mid
        else:
            b = mid


def label_point(m: float) -> PointLabel:
    """Basin of a stationary point, by location: the two curvature roots
    satisfy m-^2 + m+^2 = 1, so |m| = 1/sqrt(2) always separates the central
    well from the ferromagnetic wells."""
    if m > math.sqrt(0.5):
        return PointLabel.FERRO_UP
    if m < -math.sqrt(0.5):
        return PointLabel.FERRO_DOWN
    return PointLabel.PARAMAGNETIC


def _brackets(target: float, params: ModelParams) -> list[tuple[float, float, float]]:
    """The brackets (a, b, f(a)) of the roots of f = psi - target, in increasing m.

    psi is monotone between its branch edges -1, -m+, -m-, m-, m+, 1 (only
    -1, 1 for T >= 3J/4), so each branch holds at most one root, bracketed by
    its ends where f changes sign.  psi is taken once at m- and at m+; it is
    exactly odd, so -psi serves at -m- and -m+.  An inner edge on which f is
    exactly 0 is a double root, the bracket (edge, edge), which :func:`_root`
    returns at once.
    """
    try:
        lo, hi = _curvature_roots(params)
    except SpinodalUndefined:
        return [(-1.0, 1.0, -math.inf)]
    p_lo, p_hi = _psi(lo, params), _psi(hi, params)
    edges = (-1.0, -hi, -lo, lo, hi, 1.0)
    values = (-math.inf, -p_hi - target, -p_lo - target, p_lo - target, p_hi - target, math.inf)
    brackets = []
    for a, b, fa, fb in zip(edges, edges[1:], values, values[1:]):
        if fa == 0.0:
            brackets.append((a, a, fa))
        if fa < 0.0 < fb or fb < 0.0 < fa:
            brackets.append((a, b, fa))
    return brackets


def _root(target: float, params: ModelParams, a: float, b: float, fa: float) -> float:
    """Root of f = psi - target in the bracket (a, b, fa): ``bisect(f, a, b, fa)``
    bit for bit, mirror-exactness included, with psi written into the loop,
    so no call per step.  Each step compares psi(mid) with the target where
    bisect tests the sign of f(mid): fl(psi - target) has the sign of
    psi - target and is 0 only where they are equal, and psi is never nan
    inside the bracket, so every step keeps bisect's half.  The ends are
    ordered once, a where psi < target (mid = 0.5 (a + b) and the end test
    are symmetric in a and b).  A root past the last double below 1 rounds
    to that double, not to the edge; a zero root is +0.0 in either field,
    as its mirror image is."""
    t, j, atanh = params.temperature, params.coupling_j, math.atanh
    if fa > 0.0:
        a, b = b, a
    while True:
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            break
        p = t * atanh(mid) - j * (mid * mid * mid)
        if p < target:
            a = mid
        elif p > target:
            b = mid
        else:
            break
    if mid > _BELOW_ONE:
        mid = _BELOW_ONE
    elif mid < -_BELOW_ONE:
        mid = -_BELOW_ONE
    return mid + 0.0


def first_stationary(field_sign: int, params: ModelParams) -> float:
    """Where the registration flow of the sector s = field_sign from m = 0
    comes to rest: the first root of psi(m) = s g on the field's side of 0.

    The brackets of :func:`_brackets` taken along the field from -s m-, up
    to the first that reaches past m = 0, and that one bisected as the scan
    bisects it: bit for bit the scan's point nearest 0 on the field's side
    (0 itself at g = 0).  psi is taken at s m-, and at s m+ only when the
    root lies past s m- (g > g_c = psi(m-)); the branch (s m-, s m+) is
    still tested, since rounding next to the cusp T = 3J/4 can make it
    bracket a root.  With g >= 0 the outer branch holds the root when no
    earlier one does.
    """
    s = 1 if field_sign > 0 else -1
    target = s * params.coupling_g
    try:
        lo, hi = _curvature_roots(params)
    except SpinodalUndefined:
        return _root(target, params, -1.0, 1.0, -math.inf)
    psi_lo = _psi(s * lo, params)  # psi(-s m-) = -psi_lo
    f_back, f_lo = -psi_lo - target, psi_lo - target
    if f_back < 0.0 < f_lo or f_lo < 0.0 < f_back:  # the central branch
        return _root(target, params, -lo, lo, f_back if s > 0 else f_lo)
    if f_lo == 0.0:  # the double root s m-, at g = g_c
        return s * lo
    f_hi = _psi(s * hi, params) - target
    if f_lo < 0.0 < f_hi or f_hi < 0.0 < f_lo:
        return _root(target, params, *((lo, hi, f_lo) if s > 0 else (-hi, -lo, f_hi)))
    if f_hi == 0.0:
        return s * hi
    return _root(target, params, *((hi, 1.0, f_hi) if s > 0 else (-1.0, -hi, -math.inf)))


def stationary_magnetizations(field_sign: int, params: ModelParams) -> Landscape:
    """Find all solutions of m = tanh((s g + J m^3)/T) and classify them.

    They solve psi(m) = s g, one per bracket of :func:`_brackets`, each
    bisected to the last bit.  F' = psi - s g, so a simple root is a minimum
    where F' goes from - to + across its bracket (a < b, F'(a) < 0).  The
    sign of F'' at the root would say the same, save next to a branch edge,
    where F'' is rounding noise: next to the cusp T = 3J/4 a root can sit
    where F'' is -4e-13 and F' still rises across it.  Only a double root,
    the bracket (edge, edge), is classified by the sign of F''.  F at all
    roots is one call of :func:`free_energy` on their list, elementwise the
    same as one call per root.
    """
    s = int(field_sign)
    target = s * params.coupling_g
    brackets = _brackets(target, params)
    roots = [_root(target, params, *br) for br in brackets]

    points = tuple(
        StationaryPoint(
            m=r,
            free_energy=fr,
            kind=(PointKind.MINIMUM
                  if (fa < 0.0 if a != b else free_energy_curvature(r, params) > 0)
                  else PointKind.MAXIMUM),
            label=label_point(r),
        )
        for (a, b, fa), r, fr in zip(brackets, roots, free_energy(roots, s, params))
    )
    minima = [i for i, p in enumerate(points) if p.kind is PointKind.MINIMUM]
    if not minima:
        raise NoFerromagneticSolution("no stationary minimum found")
    # the g = 0 symmetric pair ties exactly (F is exactly even); the field's sign
    # wins, as in Landscape.ferromagnetic
    gmin = min(minima, key=lambda i: (points[i].free_energy, -s * points[i].m))
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


def registration_threshold(params: ModelParams) -> float:
    """Reference threshold (T/3J)^(1/4): safely past the bottleneck sqrt(T/3J)."""
    return (params.temperature / (3.0 * params.coupling_j)) ** 0.25


def _supercritical_low_t_gc(params: ModelParams, critical_g: float | None = None) -> float:
    """Low-temperature g_c of the bottleneck formulas, once the statics allow registration.

    Raises CriticalOrSubcritical when g <= g_c of the statics (``critical_g``
    where the caller has it, else computed; no g_c exists for T >= 3J/4),
    when there is no bath: a trapped sector has no registration time,
    whatever the low-temperature asymptote says, and when that asymptote
    underflows to 0 (a subnormal T), which the closed forms divide by.
    """
    if critical_g is None:
        try:
            critical_g = critical_coupling(params)
        except SpinodalUndefined as exc:
            raise CriticalOrSubcritical(f"no critical coupling: {exc}") from exc
    if params.coupling_g <= critical_g:
        raise CriticalOrSubcritical(
            f"g = {params.coupling_g} <= g_c = {critical_g}: bottleneck integral diverges"
        )
    if params.gamma == 0:
        raise CriticalOrSubcritical("gamma = 0: no registration dynamics")
    gc = critical_coupling_low_t(params)
    if gc == 0:
        raise CriticalOrSubcritical(
            f"the low-temperature g_c underflows to 0 at T = {params.temperature}")
    return gc


def bottleneck_integral(eps: float) -> float:
    """I(eps) = integral_0^inf dx / p(x), p(x) = (x-1)^2 (x+2) + eps = x^3 - 3x + 2 + eps.

    Partial fractions over the roots rho_k of p give I = -sum_k log(-rho_k)/p'(rho_k),
    and since sum_k 1/p'(rho_k) = 0 this is -2 Re[log(rho/r)/p'(rho)] over the
    complex pair rho, with r < -2 the real root.  The roots are hyperbolic
    (Viete): with s = sinh(asinh(sqrt(eps)/2)/3), the root of 4s^3 + 3s =
    sqrt(eps)/2 (polished by one Newton step), and c = sqrt(1 + s^2),
    r = -2 - 4s^2, rho = 1 + 2s^2 + 2i sqrt(3) s c and
    p'(rho) = 12 s c (s + i sqrt(3) c)(c + i sqrt(3) s).  Nothing cancels,
    overflows or underflows, so every finite eps > 0 has its value,
    subnormal eps included.
    """
    if not 0.0 < eps < math.inf:
        raise CurieWeissError(f"the bottleneck integral needs a finite eps > 0, got {eps}")
    x = 0.5 * math.sqrt(eps)
    s = math.sinh(math.asinh(x) / 3.0)
    s -= (4.0 * s * s * s + 3.0 * s - x) / (12.0 * s * s + 3.0)
    c = math.sqrt(1.0 + s * s)
    rho = complex(1.0 + 2.0 * s * s, 2.0 * _SQRT3 * s * c)
    dp = 12.0 * s * c * complex(s, _SQRT3 * c) * complex(c, _SQRT3 * s)
    return -2.0 * (cmath.log(rho / (-2.0 - 4.0 * s * s)) / dp).real


def registration_time_quadrature(params: ModelParams, critical_g: float | None = None) -> float:
    """Registration time from the small-m bottleneck integral, in closed form.

    tau_reg = (3 hbar / gamma T) * I(eps), I(eps) = integral_0^inf dx / ((x-1)^2 (x+2) + eps),
    eps = 2 (g - g_c)/g_c with the low-temperature g_c = (2T/3) sqrt(T/3J);
    defined only above the exact g_c of the statics, which a caller that has
    already taken it passes as ``critical_g`` (None: computed here).  I(eps)
    is :func:`bottleneck_integral`.
    """
    gc = _supercritical_low_t_gc(params, critical_g)
    eps = 2.0 * (params.coupling_g - gc) / gc
    return 3.0 / (params.gamma * params.temperature) * bottleneck_integral(eps)


def registration_time_asymptotic(params: ModelParams) -> float:
    """Near-critical closed form tau_reg = (pi hbar/gamma T) sqrt(3 g_c / 2(g - g_c)).

    g_c is the low-temperature asymptote; defined only above the exact g_c.
    """
    gc = _supercritical_low_t_gc(params)
    return (math.pi / (params.gamma * params.temperature)
            * math.sqrt(3.0 * gc / (2.0 * (params.coupling_g - gc))))


@functools.cache
def _curie_gap() -> float:
    """The gap x = 1 - m at T_c, a root of h(x) = 3 m atanh m + 2 log(1 - m^2)."""

    def h(x: float) -> float:
        log_ratio = math.log((2.0 - x) / x)  # 2 atanh(1 - x)
        return 1.5 * (1.0 - x) * log_ratio + 2.0 * math.log(x * (2.0 - x))

    return bisect(h, 0.0, 1.0 - math.sqrt(0.5), -math.inf)


def curie_temperature(params: ModelParams) -> float:
    """Temperature at which the ferromagnetic minima are degenerate with m = 0.

    At g = 0 stationarity gives T atanh m = J m^3 and degeneracy F(m) = F(0);
    eliminating T leaves h(m) = 3 m atanh m + 2 log(1 - m^2) = 0 on
    (1/sqrt 2, 1), so T_c/J is one pure number.  h is bisected to the last
    bit in the gap x = 1 - m, whose ulp is about 100 times finer than m's
    near m_f = 0.9906, once per process: no parameter enters it.  Then
    T_c = J m^3 / atanh m.  Below T_c the ferromagnetic states are the
    global minima.
    """
    x = _curie_gap()
    return 2.0 * params.coupling_j * (1.0 - x) ** 3 / math.log((2.0 - x) / x)


def ferromagnetic_gap(up: Landscape, params: ModelParams) -> dict:
    """Distance of the ferromagnetic fixed point of the up landscape ``up``,
    scanned at params, from saturation, next to its low-temperature estimate:
    {"gap": 1 - m_f, "asymptote_2exp_minus_2j_over_t": 2 exp(-2J/T)}.

    The asymptote follows from 1 - tanh(x) -> 2 e^{-2x} applied to the
    self-consistency condition at m -> 1 with g = 0; it is only meaningful
    when params.coupling_g is zero or negligible.
    """
    return {"gap": 1.0 - up.ferromagnetic.m,
            "asymptote_2exp_minus_2j_over_t":
                2.0 * math.exp(-2.0 * params.coupling_j / params.temperature)}


@functools.cache
def landscape_grid() -> tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]:
    """(m, m^4, S(m)) on the 401 nodes m = k/200, k = -200..200: tuples,
    computed once per process, since no parameter enters them.

    Each node is the correctly rounded k/200, so the grid is exactly
    antisymmetric, and m^4 = (m m)(m m) and S(m) are exactly even.
    """
    m = tuple(k / 200 for k in range(-200, 201))
    return m, tuple((x * x) * (x * x) for x in m), tuple(mixing_entropy(m))


def landscape_table(params: ModelParams):
    """(m, F_up, F_down) on the nodes of :func:`landscape_grid`, for export
    and plotting.

    m is the shared grid tuple.  F_up is :func:`free_energy`'s expression on
    the grid's m^4 and S(m), bit for bit, as a list, and F_down is F_up
    reversed, which holds to the bit: F_s(m) = F_-s(-m) exactly.
    """
    m, m4, entropy = landscape_grid()
    f_up = _free_energies(m, m4, entropy, 1.0, params)
    return m, f_up, f_up[::-1]
