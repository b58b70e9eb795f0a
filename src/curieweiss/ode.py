"""Fourth-order Magnus propagator for 2x2 linear systems y' = A(t) y.

Each step is the two-point Gauss Magnus step (Blanes, Casas, Oteo & Ros,
Phys. Rep. 470 (2009) 151; Iserles & Norsett, Phil. Trans. R. Soc. A 357
(1999) 983), and the exponential of the 2x2 Magnus generator is taken in
closed form.  The local error is estimated by step doubling: one step
against two half steps.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import StepFailure

_NODE = math.sqrt(3.0) / 6.0  # Gauss nodes sit at 1/2 -+ sqrt(3)/6 of a step
_I2 = np.eye(2)


def expm2(omega: np.ndarray) -> np.ndarray:
    """exp(omega) of a 2x2 matrix, e^mu (cosh s I + sinh(s)/s B).

    B = omega - mu I is traceless with mu = tr(omega)/2, so B^2 = s^2 I with
    s^2 = b11^2 + b12 b21; both cosh s and sinh(s)/s are even in s, so the
    branch of the square root does not matter.
    """
    mu = 0.5 * (omega[0, 0] + omega[1, 1])
    b = omega - mu * _I2
    s = np.sqrt(complex(b[0, 0] ** 2 + b[0, 1] * b[1, 0]))
    sinhc = 1.0 + s * s / 6.0 if abs(s) < 1e-8 else np.sinh(s) / s
    return np.exp(mu) * (np.cosh(s) * _I2 + sinhc * b)


def magnus_step(matrix: Callable[[float], np.ndarray], t: float, h: float) -> np.ndarray:
    """Propagator from t to t + h: exp(h/2 (A1 + A2) + sqrt(3) h^2/12 [A2, A1])."""
    a1 = matrix(t + (0.5 - _NODE) * h)
    a2 = matrix(t + (0.5 + _NODE) * h)
    return expm2(0.5 * h * (a1 + a2) + (_NODE / 2.0) * h * h * (a2 @ a1 - a1 @ a2))


def propagate(matrix: Callable[[float], np.ndarray], y0, t_end: float, rtol: float = 1e-10,
              atol: float = 1e-12, max_step: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Solve y' = matrix(t) y from t = 0 to t_end; return (times, states).

    A step is accepted when the RMS of |err| / (atol + rtol |y|) is at most
    1, err being the step-doubling difference scaled by 1/15; the next step
    is 0.9 err^(-1/5) times this one, clamped to [0.2, 5], and never above
    ``max_step``.  Raises StepFailure if the step size underflows.
    """
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    y = np.asarray(y0, dtype=complex)
    max_step = t_end if max_step is None else max_step
    t, h = 0.0, min(max_step, t_end / 100.0)
    times, states = [t], [y]
    while t < t_end:
        h = min(h, max_step)
        if h <= 16 * np.finfo(float).eps * max(abs(t), 1.0):
            raise StepFailure(f"step size underflow at t = {t}")
        final = t + h >= t_end
        h_step = t_end - t if final else h
        coarse = magnus_step(matrix, t, h_step) @ y
        half = magnus_step(matrix, t, 0.5 * h_step) @ y
        fine = magnus_step(matrix, t + 0.5 * h_step, 0.5 * h_step) @ half
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(fine))
        err = math.sqrt(float(np.mean((np.abs(fine - coarse) / (15.0 * scale)) ** 2)))
        if err <= 1.0:
            t, y = (t_end if final else t + h_step), fine
            times.append(t)
            states.append(y)
        # a step that overflowed (err nan) shrinks like any rejected one
        h = h_step * (5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2)))
    return np.array(times), np.array(states)
