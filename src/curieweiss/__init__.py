"""Curie-Weiss model of a quantum measurement.

A spin-1/2 system is measured by a magnetic dot: N Ising spins with an
infinite-range quartic coupling, weakly coupled to a phonon bath.  The
package computes the magnet's static phases, the collapse and recurrences
of the off-diagonal blocks over couplings given as (value, multiplicity)
pairs (``((g, N),)`` when uniform), the registration of the pointer
magnetization, and the resulting Born probabilities, final state and
entropy balance.  The oracles that pin every closed form are test code
(``tests/oracles.py``), so the package needs only numpy.
"""

from .errors import CurieWeissError
from .model import (
    ModelParams,
    SystemState2x2,
    regime_valid,
    validate_regime,
    validate_state,
)
from .statics import (
    Landscape,
    StationaryPoint,
    critical_coupling,
    curie_temperature,
    ferromagnetic_gap,
    free_energy,
    mixing_entropy,
    stationary_magnetizations,
)
from .offdiag import (
    OffDiagTrajectory,
    bath_exponent,
    decay_time_bath,
    dispersion_decay_time,
    envelope,
    offdiag_trajectory,
    reduction_time,
    sample_couplings,
    spin_echo,
)
from .registration import (
    MagnetizationTrajectory,
    TerminalKind,
    asymptotic_rate,
    crossing_time,
    integrate_registration,
    registration_time_asymptotic,
    registration_time_quadrature,
)
from .scenario import (
    RunConfig,
    ScenarioReport,
    assemble_final_state,
    entropy_budget,
    run_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "CurieWeissError",
    "ModelParams",
    "SystemState2x2",
    "regime_valid",
    "validate_regime",
    "validate_state",
    "Landscape",
    "StationaryPoint",
    "critical_coupling",
    "curie_temperature",
    "ferromagnetic_gap",
    "free_energy",
    "mixing_entropy",
    "stationary_magnetizations",
    "OffDiagTrajectory",
    "bath_exponent",
    "decay_time_bath",
    "dispersion_decay_time",
    "envelope",
    "offdiag_trajectory",
    "reduction_time",
    "sample_couplings",
    "spin_echo",
    "MagnetizationTrajectory",
    "TerminalKind",
    "asymptotic_rate",
    "crossing_time",
    "integrate_registration",
    "registration_time_asymptotic",
    "registration_time_quadrature",
    "RunConfig",
    "ScenarioReport",
    "assemble_final_state",
    "entropy_budget",
    "run_scenario",
    "__version__",
]
