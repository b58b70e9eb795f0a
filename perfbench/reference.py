"""Reference computations the benchmark checks the program against.

Nothing here imports ``curieweiss``: every value is derived again from the
model's closed forms, in canonical units hbar = 1.

- Stationary points of F_s(m) = -s g m - (J/4) m^4 - T S(m) solve
  psi(m) = s g with psi(m) = T atanh(m) - J m^3.  psi' = F'' vanishes only
  at m^2 = (1 +- sqrt(1 - 4T/3J))/2, so psi is monotone on at most five
  branches and each branch holds at most one root, bracketed by its ends.
- g_c follows from eliminating m between psi(m) = g and psi'(m) = 0.
- T_c solves F(m_f) = F(0) at g = 0.
- The registration bottleneck integral over (0, inf) of
  dx / (x^3 - 3x + 2 + eps) is summed by partial fractions over the cubic's
  roots.
- The two-point coupling draw has exactly two values fixed by N, g, delta_g
  and the count k of upper values; k is recovered from a collapse output.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq

LN10 = math.log(10.0)
LABEL_EDGE = math.sqrt(0.5)


def entropy(m: float) -> float:
    """Binary mixing entropy S(m) in nats, with 0 ln 0 = 0."""
    out = 0.0
    for p in (0.5 * (1.0 + m), 0.5 * (1.0 - m)):
        if p > 0.0:
            out -= p * math.log(p)
    return out


def free_energy(m: float, sign: int, g: float, t: float, j: float = 1.0) -> float:
    return -sign * g * m - 0.25 * j * m**4 - t * entropy(m)


def curvature(m: float, t: float, j: float = 1.0) -> float:
    return -3.0 * j * m * m + t / (1.0 - m * m)


def _psi(m: float, t: float, j: float) -> float:
    if m >= 1.0:
        return math.inf
    if m <= -1.0:
        return -math.inf
    return t * math.atanh(m) - j * m**3


def branch_edges(t: float, j: float = 1.0) -> list[float]:
    """Ends of the monotone branches of psi on [-1, 1]."""
    disc = 1.0 - 4.0 * t / (3.0 * j)
    if disc <= 0.0:
        return [-1.0, 1.0]
    lo = math.sqrt(0.5 * (1.0 - math.sqrt(disc)))
    hi = math.sqrt(0.5 * (1.0 + math.sqrt(disc)))
    return [-1.0, -hi, -lo, lo, hi, 1.0]


def stationary_points(sign: int, g: float, t: float, j: float = 1.0) -> list[dict]:
    """All roots of m = tanh((s g + J m^3)/T), sorted, with kind and label."""
    target = sign * g
    edges = branch_edges(t, j)
    roots = []
    for a, b in zip(edges[:-1], edges[1:]):
        if (_psi(a, t, j) - target) * (_psi(b, t, j) - target) >= 0.0:
            continue
        lo = max(a, math.nextafter(-1.0, 0.0))
        hi = min(b, math.nextafter(1.0, 0.0))
        roots.append(brentq(lambda m: _psi(m, t, j) - target, lo, hi,
                            xtol=1e-16, rtol=8.9e-16, maxiter=400))
    roots.sort()
    out = []
    for m in roots:
        out.append({
            "m": m,
            "free_energy": free_energy(m, sign, g, t, j),
            "kind": "minimum" if curvature(m, t, j) > 0 else "maximum",
            "label": ("ferro_up" if m > LABEL_EDGE else
                      "ferro_down" if m < -LABEL_EDGE else "paramagnetic"),
        })
    return out


def minima(points: list[dict]) -> list[dict]:
    return [p for p in points if p["kind"] == "minimum"]


def ferro_root(sign: int, g: float, t: float, j: float = 1.0) -> float | None:
    """Ferromagnetic minimum of F_s (|m| > 1/sqrt 2) with the largest |m|."""
    ferro = [p["m"] for p in minima(stationary_points(sign, g, t, j))
             if abs(p["m"]) > LABEL_EDGE]
    return max(ferro, key=abs) if ferro else None


def paramagnetic_root(sign: int, g: float, t: float, j: float = 1.0) -> float | None:
    para = [p["m"] for p in minima(stationary_points(sign, g, t, j))
            if abs(p["m"]) <= LABEL_EDGE]
    return min(para, key=abs) if para else None


def global_minimum(sign: int, g: float, t: float, j: float = 1.0) -> float:
    mins = minima(stationary_points(sign, g, t, j))
    return min(mins, key=lambda p: (p["free_energy"], -p["m"]))["m"]


def clear_of_tangencies(g: float, t: float, margin: float, j: float = 1.0) -> bool:
    """Stationary points at least ``margin`` apart and from m = +-1/sqrt 2.

    Points any closer sit next to a tangency, where a grid-based root
    finder may merge or miss them.  Every point must also stay 1e-9 inside
    m = +-1, where a grid must end.
    """
    for sign in (+1, -1):
        ms = [p["m"] for p in stationary_points(sign, g, t, j)]
        if any(b - a < margin for a, b in zip(ms[:-1], ms[1:])):
            return False
        if any(abs(abs(m) - LABEL_EDGE) < margin or 1.0 - abs(m) < 1e-9 for m in ms):
            return False
    return True


def critical_coupling(t: float, j: float = 1.0) -> float | None:
    """g_c by spinodal elimination; None when T >= 3J/4."""
    disc = 1.0 - 4.0 * t / (3.0 * j)
    if disc <= 0.0:
        return None
    mstar = math.sqrt(0.5 * (1.0 - math.sqrt(disc)))
    return t * math.atanh(mstar) - j * mstar**3


def critical_coupling_low_t(t: float, j: float = 1.0) -> float:
    return (2.0 * t / 3.0) * math.sqrt(t / (3.0 * j))


def curie_temperature(j: float = 1.0) -> float:
    """T at which F(m_f) = F(0) for g = 0."""
    def gap(t):
        mf = ferro_root(+1, 0.0, t, j)
        return free_energy(mf, +1, 0.0, t, j) - free_energy(0.0, +1, 0.0, t, j)
    return brentq(gap, 0.3 * j, 0.4 * j, xtol=1e-14, rtol=8.9e-16)


def bottleneck_integral(eps: float) -> float:
    """Integral over (0, inf) of dx / ((x - 1)^2 (x + 2) + eps), eps > 0.

    With r_i the roots of P(x) = x^3 - 3x + 2 + eps, 1/P = sum A_i/(x - r_i)
    with A_i = 1/P'(r_i) and sum A_i = 0, so the integral is
    -sum A_i log(-r_i) on the principal branch (no r_i lies on [0, inf)).
    """
    if eps <= 0.0:
        raise ValueError("the bottleneck integral diverges for eps <= 0")
    coeffs = [1.0, 0.0, -3.0, 2.0 + eps]
    roots = np.roots(coeffs).astype(complex)
    for _ in range(3):  # Newton polish of each root
        roots = roots - np.polyval(coeffs, roots) / (3.0 * roots**2 - 3.0)
    weights = 1.0 / (3.0 * roots**2 - 3.0)
    return float(np.real(-np.sum(weights * np.log(-roots))))


def registration_time(g: float, t: float, gamma: float, j: float = 1.0) -> float | None:
    """The stated bottleneck form (3/gamma T) I(eps), eps from the low-T g_c."""
    gl = critical_coupling_low_t(t, j)
    if g <= gl or gamma == 0:
        return None
    return 3.0 / (gamma * t) * bottleneck_integral(2.0 * (g - gl) / gl)


# --- collapse closed forms --------------------------------------------------


def reduction_time(g: float, n: int) -> float:
    return 1.0 / (g * math.sqrt(2.0 * n))


def bath_decay_time(g: float, n: int, gamma: float, cutoff: float) -> float:
    return (2.0 * math.pi / (gamma * n)) ** 0.25 * math.sqrt(1.0 / (cutoff * g))


def dispersion_decay_time(dg: float, n: int) -> float:
    return 1.0 / (dg * math.sqrt(2.0 * n))


def bath_log(times: np.ndarray, g: float, n: int, gamma: float, cutoff: float) -> np.ndarray:
    """Natural log of the bath factor exp(-N gamma Gamma^2 g^2 t^4 / 2 pi)."""
    return -n * gamma * cutoff**2 * g**2 * times**4 / (2.0 * math.pi)


def _log_abs_cos(x: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(np.abs(np.cos(x)))


def uniform_log(times: np.ndarray, g: float, n: int) -> np.ndarray:
    """Natural log of |cos^N(2 g t)|."""
    return n * _log_abs_cos(2.0 * g * times)


def two_point_values(k, n: int, g: float, dg: float):
    """The two couplings of a draw with k upper values: exact mean g, RMS dg."""
    p = np.asarray(k, dtype=float) / n
    return g + dg * np.sqrt((1.0 - p) / p), g - dg * np.sqrt(p / (1.0 - p))


def two_point_log(times, k, n: int, g: float, dg: float):
    """Natural log of |prod_n cos(2 g_n t)| for the two-point draw with split k.

    Either the times or the split may be an array.
    """
    hi, lo = two_point_values(k, n, g, dg)
    return k * _log_abs_cos(2.0 * hi * times) + (n - k) * _log_abs_cos(2.0 * lo * times)


def recover_split(times: np.ndarray, logs: np.ndarray, n: int, g: float, dg: float) -> int:
    """The count k of upper couplings that best explains log|prod cos| at a few times.

    Every k in [1, N-1] is scored; the draw guarantees exactly two distinct
    values with exact mean and RMS, so k alone fixes both values.
    """
    k = np.arange(1, n, dtype=float)
    score = sum(np.abs(two_point_log(t, k, n, g, dg) - target) / max(1.0, abs(target))
                for t, target in zip(times, logs))
    return int(k[int(np.argmin(score))])


def close(a: float, b: float, rel: float, floor: float = 1.0) -> bool:
    """|a - b| <= rel * max(floor, |b|); equal infinities count as close."""
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rel * max(floor, abs(b))
