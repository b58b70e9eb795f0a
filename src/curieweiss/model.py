"""Model parameters, the 2x2 system state, and validity-regime checks.

Canonical unit system: hbar = 1 and J = 1, so energies are quoted in units
of the magnet coupling J and times in units of hbar/J.  hbar = 1 is fixed in
the code: docstrings keep it in the physics formulas, the arithmetic omits
it.  J stays a parameter (``coupling_j``).
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, fields

from .errors import ConfigError, CurieWeissError

#: trace and positivity tolerance of :func:`validate_state`
STATE_TOL = 1e-12
#: T/J must exceed 3 * 2**-52.  At the last double m below 1, 1 - m^2 is
#: 2**-52, so below about that bound the curvature F'' = -3 J m^2 + T/(1 - m^2)
#: is negative even there, and no ferromagnetic minimum can be represented
MIN_T_OVER_J = 3.0 * 2.0**-52


@dataclass(frozen=True)
class ModelParams:
    """All couplings, sizes and temperatures of the spin + magnet + bath model.

    Attributes
    ----------
    n_spins : int
        N, number of apparatus spins, at most the largest double (the
        closed forms take float(N)).
    coupling_j : float
        J, quartic magnet coupling (the energy unit).
    coupling_g : float
        g, mean system-apparatus coupling.
    delta_g : float
        RMS spread of the per-spin couplings g_n around g.
    temperature : float
        T, bath temperature (k_B = 1), with T/J above ``MIN_T_OVER_J``.
    gamma : float
        Dimensionless magnet-bath coupling strength.
    debye_cutoff : float
        Bath frequency cutoff (units of energy/hbar).
    """

    n_spins: int
    coupling_j: float = 1.0
    coupling_g: float = 0.0
    delta_g: float = 0.0
    temperature: float = 0.34
    gamma: float = 0.0
    debye_cutoff: float = 50.0

    def __post_init__(self):
        # range first, so that int() never sees a NaN or an infinity
        if not 1 <= self.n_spins < math.inf or int(self.n_spins) != self.n_spins:
            raise ConfigError(f"n_spins must be a positive integer, got {self.n_spins}")
        if self.n_spins > sys.float_info.max:  # no echo: str() of a huge int can raise
            raise ConfigError("n_spins must be at most the largest double, "
                              f"{sys.float_info.max!r}")
        object.__setattr__(self, "n_spins", int(self.n_spins))
        for name in ("coupling_j", "temperature", "debye_cutoff"):
            v = getattr(self, name)
            if not math.isfinite(v) or v <= 0:
                raise ConfigError(f"{name} must be positive and finite, got {v}")
        if self.temperature / self.coupling_j <= MIN_T_OVER_J:
            raise ConfigError(f"temperature / coupling_j must exceed {MIN_T_OVER_J!r}, "
                              f"got {self.temperature / self.coupling_j!r}")
        for name in ("coupling_g", "delta_g", "gamma"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ConfigError(f"{name} must be non-negative and finite, got {v}")
        # delta_g < g unless the measurement coupling is absent entirely
        if self.coupling_g > 0 and self.delta_g >= self.coupling_g:
            raise ConfigError(
                f"delta_g = {self.delta_g} must be smaller than coupling_g = {self.coupling_g}"
            )


#: keys accepted in a flat ``key = value`` parameter file, in canonical order:
#: the fields of ModelParams, then the initial state of the measured spin
CONFIG_KEYS = tuple(f.name for f in fields(ModelParams)) + ("r_uu", "re_r_ud", "im_r_ud")


@dataclass(frozen=True)
class SystemState2x2:
    """Initial 2x2 density matrix of the measured spin in the up/down basis.

    Construction does not validate; use :func:`validate_state` to enforce
    the density-matrix axioms.
    """

    r_uu: float
    r_dd: float
    r_ud: complex = 0j

    @classmethod
    def from_upper(cls, r_uu: float, r_ud: complex = 0j) -> "SystemState2x2":
        return cls(r_uu=r_uu, r_dd=1.0 - r_uu, r_ud=complex(r_ud))


def validate_state(state: SystemState2x2) -> SystemState2x2:
    """Return ``state`` unchanged iff it is a valid density matrix.

    Raises CurieWeissError if an entry is NaN or infinite (NaN fails every
    comparison below), if r_uu + r_dd differs from 1 by more than
    ``STATE_TOL``, or if a diagonal entry or the determinant
    r_uu*r_dd - |r_ud|^2 is below ``-STATE_TOL``.
    """
    if not all(cmath.isfinite(v) for v in (state.r_uu, state.r_dd, state.r_ud)):
        raise CurieWeissError(f"non-finite density-matrix entry in {state}")
    tr = state.r_uu + state.r_dd
    if abs(tr - 1.0) > STATE_TOL:
        raise CurieWeissError(f"trace is {tr!r}, expected 1")
    if state.r_uu < -STATE_TOL or state.r_dd < -STATE_TOL:
        raise CurieWeissError(f"negative diagonal entry: {state.r_uu}, {state.r_dd}")
    det = state.r_uu * state.r_dd - abs(state.r_ud) ** 2
    if det < -STATE_TOL:
        raise CurieWeissError(f"negative eigenvalue: det = {det:.3e}")
    return state


def _holds(lhs: float, rhs: float, factor: float) -> bool:
    """One inequality of the regime: strictly lhs > factor * rhs."""
    return lhs > factor * rhs


def check_margin(margin: float) -> None:
    """The factor operationalizing '>>' must be positive and finite: zero
    would divide by zero and a negative factor would invert every check."""
    if not 0 < margin < math.inf:
        raise ConfigError(f"margin must be positive and finite, got {margin}")


def _square(x: float) -> float:
    """x ** 2, or inf where the square overflows (float ** raises there;
    x * x would differ from C pow's x ** 2 in the last bit now and then)."""
    try:
        return x ** 2
    except OverflowError:
        return math.inf


def _regime_rows(params: ModelParams, margin: float) -> tuple[tuple, ...]:
    """The inequalities of the regime as rows (name, lhs, rhs, factor,
    counted), in the order :func:`_overall_valid` reads them.

    Each ``X >> Y`` is operationalized as ``X > margin * Y``; the plain
    inequality J > g uses factor 1.  The smallness of gamma is reported but
    not counted: the chain hbar*Gamma >> T >> gamma*J already bounds it
    whenever T < J (hbar = 1).
    Raises ConfigError for a margin that is not positive and finite.
    """
    check_margin(margin)
    n = float(params.n_spins)
    g, dg = params.coupling_g, params.delta_g
    j, t = params.coupling_j, params.temperature
    hg = params.debye_cutoff

    bath_rhs = _square(g / hg) / params.gamma if params.gamma > 0 else math.inf
    disp_rhs = _square(g / dg) if dg > 0 else math.inf

    return (
        ("n_large", n, 1.0, margin, True),
        ("n_vs_bath", n, bath_rhs, margin, True),
        ("n_vs_dispersion", n, disp_rhs, margin, True),
        ("cutoff_vs_temperature", hg, t, margin, True),
        ("temperature_vs_gamma_j", t, params.gamma * j, margin, True),
        ("cutoff_vs_j", hg, j, margin, True),
        ("j_vs_g", j, g, 1.0, True),
        ("gamma_small", 1.0, params.gamma, margin, False),
    )


def _overall_valid(passed) -> bool:
    """The regime's verdict from the passed flags of :func:`_regime_rows`, in
    its order: every counted check holds, except that the off-diagonal
    suppression needs only one of its two branches (bath or coupling
    dispersion)."""
    n_large, bath, dispersion, *chain, _gamma_small = passed
    return n_large and (bath or dispersion) and all(chain)


def validate_regime(params: ModelParams, margin: float = 10.0) -> dict:
    """The regime report a manifest writes: each inequality of
    :func:`_regime_rows` as a check {name, lhs, rhs, required_factor,
    passed, margin_ratio, counted}, then overall_valid and the margin.

    margin_ratio is lhs / (required_factor * rhs), > 1 where the check
    passes; where that denominator is 0 (rhs = 0, or a subnormal rhs that
    the factor rounds to 0) it is inf for lhs > 0, else 0.
    Raises ConfigError for a margin that is not positive and finite.
    """
    checks = []
    for name, lhs, rhs, factor, counted in _regime_rows(params, margin):
        scale = factor * rhs
        checks.append({
            "name": name, "lhs": lhs, "rhs": rhs, "required_factor": factor,
            "passed": _holds(lhs, rhs, factor),
            "margin_ratio": lhs / scale if scale else (math.inf if lhs > 0 else 0.0),
            "counted": counted,
        })
    return {"checks": checks, "overall_valid": _overall_valid(c["passed"] for c in checks),
            "margin": margin}


def regime_valid(params: ModelParams, margin: float) -> bool:
    """``validate_regime(params, margin)["overall_valid"]``, from the same
    rows and verdict, without building the report: the sweep's per-point test.
    Raises ConfigError for a margin that is not positive and finite.
    """
    return _overall_valid([_holds(lhs, rhs, factor)
                           for _, lhs, rhs, factor, _ in _regime_rows(params, margin)])


# --- flat key = value configuration files ---------------------------------


def read_config_mapping(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines; '#' starts a comment, blanks ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def get_float(mapping: dict[str, str], key: str) -> float:
    try:
        return float(mapping[key])
    except KeyError:
        raise ConfigError(f"missing config key {key!r}") from None
    except ValueError:
        raise ConfigError(f"config key {key!r}: not a number: {mapping[key]!r}") from None


def get_int(mapping: dict[str, str], key: str) -> int:
    """Integer-valued key: an integer literal is read exactly, anything else
    as a number; '1e5' is accepted, '100000.9' is rejected, not truncated."""
    try:
        return int(mapping[key])
    except (KeyError, ValueError):
        pass
    value = get_float(mapping, key)
    if not value.is_integer():
        raise ConfigError(f"config key {key!r}: not an integer: {mapping[key]!r}")
    return int(value)


def params_from_mapping(mapping: dict[str, str]) -> tuple[ModelParams, SystemState2x2]:
    """Build (ModelParams, SystemState2x2) from a parsed config mapping."""
    params = ModelParams(**{
        f.name: (get_int if f.name == "n_spins" else get_float)(mapping, f.name)
        for f in fields(ModelParams)
    })
    r_uu = get_float(mapping, "r_uu")
    r_ud = complex(get_float(mapping, "re_r_ud"), get_float(mapping, "im_r_ud"))
    state = SystemState2x2.from_upper(r_uu, r_ud)
    return params, state


def read_config_file(path, keys) -> dict[str, str]:
    """Parse a parameter file; keys not in ``keys`` are rejected."""
    # decoded whole, as text mode's read() decodes: a bad byte is reported at
    # its offset in the file, and splitlines breaks at \r\n and \r as text
    # mode's newline translation does
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        why = exc.strerror if isinstance(exc, OSError) else f"not UTF-8 at byte {exc.start}"
        raise ConfigError(f"cannot read config file {str(path)!r}: {why}") from None
    mapping = read_config_mapping(text)
    unknown = set(mapping) - set(keys)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return mapping
