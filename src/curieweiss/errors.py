"""Exception types raised across the package."""


class CurieWeissError(Exception):
    """Base class for all package errors."""


class ConfigError(CurieWeissError):
    """Malformed or inconsistent run configuration."""


class TraceError(CurieWeissError):
    """Density matrix trace differs from 1 beyond tolerance."""


class PositivityError(CurieWeissError):
    """Density matrix has a negative eigenvalue beyond tolerance."""


class DomainError(CurieWeissError):
    """Argument outside the mathematical domain of the operation."""


class SpinodalUndefined(CurieWeissError):
    """No spinodal magnetization exists (T >= 3J/4)."""


class NoFerromagneticSolution(CurieWeissError):
    """No ferromagnetic minimum at the given temperature."""


class ZeroCoupling(CurieWeissError):
    """System-apparatus coupling g is zero."""


class ZeroBathCoupling(CurieWeissError):
    """Magnet-bath coupling gamma is zero."""


class ZeroDispersion(CurieWeissError):
    """Coupling dispersion delta_g is zero."""


class NegativePulseTime(CurieWeissError):
    """Echo pulse time must be finite and non-negative."""


class StepFailure(CurieWeissError):
    """An integration step could not be made acceptable: the Magnus step size
    underflowed, or the registration flow does not point to an attractor."""


class QuadratureNotConverged(CurieWeissError):
    """Adaptive quadrature did not reach the requested accuracy."""


class CriticalOrSubcritical(CurieWeissError):
    """Registration time undefined for g <= g_c."""


class InsufficientTail(CurieWeissError):
    """Trajectory tail too short to fit an asymptotic rate."""


class NeverCrossed(CurieWeissError):
    """Trajectory never reaches the requested threshold."""


class MeasurementFailed(CurieWeissError):
    """A diagonal sector got trapped in the paramagnetic state."""


class ValidityWindowWarning(UserWarning):
    """Operation evaluated outside its stated validity window."""
