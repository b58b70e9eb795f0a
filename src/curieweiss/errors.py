"""Exception types raised across the package.

Every rejection the package makes is a CurieWeissError.  A subclass exists
only where some caller tells it apart: it is caught by name, or its name is
recorded (a manifest's ``tau_reg_error``).
"""


class CurieWeissError(Exception):
    """Base class for all package errors."""


class ConfigError(CurieWeissError):
    """Malformed or inconsistent run configuration."""


class SpinodalUndefined(CurieWeissError):
    """No spinodal magnetization exists (T >= 3J/4)."""


class NoFerromagneticSolution(CurieWeissError):
    """No ferromagnetic minimum at the given temperature."""


class CriticalOrSubcritical(CurieWeissError):
    """Registration time undefined for g <= g_c."""


class InsufficientTail(CurieWeissError):
    """Trajectory tail too short to fit an asymptotic rate."""


class MeasurementFailed(CurieWeissError):
    """A diagonal sector got trapped in the paramagnetic state."""
