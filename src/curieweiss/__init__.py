"""Curie-Weiss model of a quantum measurement.

A spin-1/2 system is measured by a magnetic dot: N Ising spins with an
infinite-range quartic coupling, weakly coupled to a phonon bath.  The
package computes the magnet's static phases, the collapse and recurrences
of the off-diagonal blocks over couplings given as (value, multiplicity)
pairs (``((g, N),)`` when uniform), the registration of the pointer
magnetization, and the resulting Born probabilities, final state and
entropy balance.  The oracles that pin every closed form are test code
(``tests/oracles.py``).  Only offdiag, registration and ode use numpy, and
each re-export below is imported on first access (PEP 562), so
``import curieweiss`` loads no numpy, nor any module a caller does not use.
"""

import importlib

#: re-exported name -> the module of the package that defines it
_EXPORTS = {
    "CurieWeissError": "errors",
    "ModelParams": "model",
    "SystemState2x2": "model",
    "regime_valid": "model",
    "validate_regime": "model",
    "validate_state": "model",
    "Landscape": "statics",
    "StationaryPoint": "statics",
    "critical_coupling": "statics",
    "curie_temperature": "statics",
    "ferromagnetic_gap": "statics",
    "free_energy": "statics",
    "mixing_entropy": "statics",
    "registration_time_asymptotic": "statics",
    "registration_time_quadrature": "statics",
    "stationary_magnetizations": "statics",
    "OffDiagTrajectory": "offdiag",
    "bath_exponent": "offdiag",
    "decay_time_bath": "offdiag",
    "dispersion_decay_time": "offdiag",
    "envelope": "offdiag",
    "offdiag_trajectory": "offdiag",
    "reduction_time": "offdiag",
    "sample_couplings": "offdiag",
    "spin_echo": "offdiag",
    "MagnetizationTrajectory": "registration",
    "TerminalKind": "registration",
    "asymptotic_rate": "registration",
    "crossing_times": "registration",
    "integrate_registration": "registration",
    "RunConfig": "scenario",
    "ScenarioReport": "scenario",
    "assemble_final_state": "scenario",
    "entropy_budget": "scenario",
    "run_scenario": "scenario",
}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"

__all__ = [*_EXPORTS, "__version__"]
