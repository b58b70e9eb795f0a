"""Full measurement scenario: Born weights, final state, entropy balance.

The pipeline assembles what the sub-modules compute separately: regime
validation, magnet statics, the off-diagonal collapse with its damping
mechanisms, both diagonal-sector registrations, the post-measurement state
(branch weights = initial diagonals, pointer at the ferromagnetic value),
and the entropy budget of the whole process.

This module imports no numpy: the collapse and registration modules, which
hold the arrays, are imported by the stages that run them, so the scalar
stages and the commands made of them (validate, statics, and a sweep
without t_max) load none.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import os
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING

from .errors import (
    ConfigError,
    CurieWeissError,
    InsufficientTail,
    MeasurementFailed,
    SpinodalUndefined,
)
from .model import (
    CONFIG_KEYS,
    ModelParams,
    SystemState2x2,
    check_margin,
    get_float,
    get_int,
    params_from_mapping,
    read_config_file,
    regime_valid,
    validate_regime,
)
from . import output, statics

if TYPE_CHECKING:  # for the annotations; the stages import them when they run
    from . import offdiag, registration

LN2 = math.log(2.0)
LN10 = math.log(10.0)


# --- state entropies -----------------------------------------------------------


def _binary_entropy(p: float, q: float) -> float:
    """-p ln p - q ln q in nats, a vanishing weight contributing 0."""
    s = 0.0
    for x in (p, q):
        if x > 1e-300:
            s -= x * math.log(x)
    return s


def state_entropy(state: SystemState2x2) -> float:
    """Von Neumann entropy of the 2x2 state, in nats."""
    half_gap = math.sqrt(0.25 * (state.r_uu - state.r_dd) ** 2 + abs(state.r_ud) ** 2)
    return _binary_entropy(0.5 + half_gap, 0.5 - half_gap)


def dephased_entropy(state: SystemState2x2) -> float:
    """Entropy of the state with off-diagonals removed (binary entropy)."""
    return _binary_entropy(state.r_uu, state.r_dd)


# --- final state -------------------------------------------------------------


def assemble_final_state(
    state: SystemState2x2,
    params: ModelParams,
    sector_up: registration.MagnetizationTrajectory,
    collapse: offdiag.OffDiagTrajectory,
) -> dict:
    """Post-measurement state from a run's own stage results, as the manifest
    writes it: two exclusive branches and the dead off-diagonal.

    Registration must have succeeded in the up sector, and so in its mirror
    image, the down one (pointer 0.0 - m_final).  Each branch is one
    exclusive outcome: its weight is an initial diagonal (the Born rule), its
    pointer the sector's final magnetization, and it leaves the system in the
    outcome's eigenprojection (r_uu, r_dd).  pointer_variance holds each
    branch's conditional pointer variance p_i (1 - m_i^2)/N: the magnet's
    product state gives the magnetization a variance (1 - m^2)/N, so the
    pointer reads the outcome up to fluctuations that vanish for a
    macroscopic apparatus.  t_final and log10_offdiag_residual (log10 of the
    surviving off-diagonal magnitude) are the collapse's last sample.
    """
    from . import registration

    if sector_up.terminal is not registration.TerminalKind.CONVERGED_FERRO:
        raise MeasurementFailed(
            f"sector +1 ended {sector_up.terminal.value} at m = {sector_up.m_final:.4f}"
        )
    branches = [
        {"weight": state.r_uu, "pointer": sector_up.m_final, "r_uu": 1.0, "r_dd": 0.0},
        {"weight": state.r_dd, "pointer": 0.0 - sector_up.m_final, "r_uu": 0.0, "r_dd": 1.0},
    ]
    return {
        "branches": branches,
        "pointer_variance": [b["weight"] * (1.0 - b["pointer"]**2) / params.n_spins
                             for b in branches],
        "log10_offdiag_residual": float(collapse.log10_abs[-1]),
        "t_final": float(collapse.times[-1]),
    }


# --- entropy budget -----------------------------------------------------------


def entropy_budget(state: SystemState2x2, params: ModelParams, final_state: dict) -> dict:
    """Entropy before and after the measurement, in nats, as the manifest
    writes it; the magnet and bath terms are extensive (order N).

    The magnet starts fully mixed (N ln 2) and ends in a ferromagnetic
    product state with per-spin mixing entropy S(m_f).  The bath term is the
    quasi-static estimate  sum_i p_i (E_M(0) - E_M(m_i) + g N |m_i|)/T  for
    dumping the released magnet + coupling energy at temperature T; hence
    its key bath_entropy_change_estimate.
    """
    n = params.n_spins
    j, g, t = params.coupling_j, params.coupling_g, params.temperature
    s_sys_0 = state_entropy(state)
    s_sys_f = dephased_entropy(state)
    s_mag_0 = n * LN2
    s_mag_f = 0.0
    bath = 0.0
    for b in final_state["branches"]:
        w, m = b["weight"], b["pointer"]
        s_mag_f += w * n * statics.mixing_entropy(m)
        bath += w * (0.25 * j * n * m**4 + g * n * abs(m)) / t
    return {
        "s_system_initial": s_sys_0,
        "s_system_final": s_sys_f,
        "s_magnet_initial": s_mag_0,
        "s_magnet_final": s_mag_f,
        "bath_entropy_change_estimate": bath,
        "delta_total": (s_sys_f - s_sys_0) + (s_mag_f - s_mag_0) + bath,
    }


# --- run configuration ---------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """Model, initial state and run keys; construction rejects a negative
    seed, an unknown spacing, fewer than two samples, a t_max or margin that
    is not positive and finite, and the bath switched on at gamma = 0 (the
    state has rejected itself if it is not a density matrix).  The coupling
    spread has no switch: the collapse is dispersed exactly when
    delta_g > 0."""

    params: ModelParams
    state: SystemState2x2
    t_max: float | None = None
    samples: int = 400
    spacing: str = "log"  # collapse phenomena span several decades in t
    bath: bool | None = None
    seed: int = 0
    margin: float = 10.0

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.bath and self.params.gamma == 0:
            raise ConfigError("bath mechanism requested but gamma = 0")
        if self.spacing not in ("linear", "log"):
            raise ConfigError(f"spacing must be 'linear' or 'log', got {self.spacing!r}")
        if self.samples < 2:
            raise ConfigError("samples must be at least 2")
        if self.t_max is not None and not 0 < self.t_max < math.inf:
            raise ConfigError(f"t_max must be positive and finite, got {self.t_max}")
        check_margin(self.margin)

    @property
    def bath_acts(self) -> bool:
        """Whether the bath damps the collapse: gamma > 0, and ``bath`` is not
        off (unset counts as on)."""
        return self.params.gamma > 0 and self.bath is not False


def _get_toggle(mapping: dict[str, str], key: str) -> bool:
    value = mapping[key].lower()
    if value in ("on", "true", "1", "yes"):
        return True
    if value in ("off", "false", "0", "no"):
        return False
    raise ConfigError(f"config key {key!r}: expected on/off, got {mapping[key]!r}")


#: optional run keys of a parameter file, each with its reader
RUN_KEYS = {
    "t_max": get_float,
    "samples": get_int,
    "spacing": lambda mapping, key: mapping[key],
    "bath": _get_toggle,
    "seed": get_int,
}


def load_run_config(path, **overrides) -> RunConfig:
    """Read a parameter file plus optional run keys into a RunConfig, with
    the fields of ``overrides`` (the command line's seed and margin) in
    place of the file's, so that the config is built and validated once.

    Unknown keys are rejected, and so are non-integer counts (n_spins,
    samples, seed) rather than truncated, a negative seed and a state that
    is not a density matrix.
    """
    mapping = read_config_file(path, CONFIG_KEYS + tuple(RUN_KEYS))
    params, state = params_from_mapping(mapping)
    run = {key: read(mapping, key) for key, read in RUN_KEYS.items() if key in mapping}
    return RunConfig(params=params, state=state, **{**run, **overrides})


#: the time scales a scenario manifest always holds, None where undefined;
#: ``tau_reg_error`` follows them where tau_reg is undefined
TIMESCALES = ("tau_red", "tau_2", "tau_2_prime", "log10_recurrence_bath",
              "log10_recurrence_dispersion", "tau_reg_quadrature", "tau_reg_asymptotic")


@dataclass(frozen=True)
class ScenarioReport:
    """What a scenario run computed.  regime, critical_g, timescales,
    final_state and entropy are the dicts its manifest writes, as their
    stages return them."""

    status: str  # completed | measurement_failed | not_a_measurement
    reason: str | None
    regime: dict
    landscape_up: statics.Landscape
    critical_g: dict
    config: RunConfig
    # the stages, None where the run did not reach them; timescales is the
    # manifest's: TIMESCALES, plus tau_reg_error where set
    timescales: dict | None = None
    offdiag: offdiag.OffDiagTrajectory | None = None
    # the down sector is the up one mirrored, so the report holds the up one
    sector_up: registration.MagnetizationTrajectory | None = None
    final_state: dict | None = None
    entropy: dict | None = None


# --- pipeline stages -------------------------------------------------------------
# Every CLI command selects some of these stages; run_scenario chains them all.


def why_not_a_measurement(params: ModelParams, bath: bool | None) -> str | None:
    """Why a run at params with the run key ``bath`` (None: unset) measures
    nothing, or None when it is a measurement: the spin must couple to the
    pointer (g > 0), and the bath must let the magnet relax (gamma > 0 and
    the bath not switched off)."""
    if params.coupling_g == 0:
        return "no system-apparatus coupling (g = 0): nothing is measured"
    if params.gamma == 0:
        # without the bath the off-diagonal blocks recur, unless dispersion
        # damps them, and nothing relaxes the magnet: no sector registers
        return "no bath (gamma = 0): the magnet cannot relax, so nothing is registered"
    if bath is False:
        return "bath switched off (bath = off): the magnet cannot relax, so nothing is registered"
    return None


def critical_g(params: ModelParams) -> dict:
    """g_c; None, with the error, where T >= 3J/4 leaves no spinodal."""
    try:
        return {"critical_g": statics.critical_coupling(params)}
    except SpinodalUndefined as exc:
        return {"critical_g": None, "critical_g_error": f"SpinodalUndefined: {exc}"}


def collapse_timescales(cfg: RunConfig) -> dict:
    """Reduction time, plus decay time and log10 first-recurrence height of
    each damping mechanism at work: the bath where it acts
    (:attr:`RunConfig.bath_acts`), the coupling spread where delta_g > 0."""
    from . import offdiag

    params = cfg.params
    out = {"tau_red": offdiag.reduction_time(params)}
    if cfg.bath_acts:
        out["tau_2"] = offdiag.decay_time_bath(params)
        out["log10_recurrence_bath"] = offdiag.log_recurrence_height_bath(params) / LN10
    if params.delta_g > 0:
        out["tau_2_prime"] = offdiag.dispersion_decay_time(params)
        out["log10_recurrence_dispersion"] = (
            offdiag.log_recurrence_height_dispersed(params) / LN10
        )
    return out


def collapse_run(cfg: RunConfig, t_hi: float | None,
                 couplings: offdiag.Couplings | None = None) -> offdiag.OffDiagTrajectory:
    """Off-diagonal trajectory of the config on its grid up to t_hi (None:
    1.2 pi hbar/g), over the couplings drawn at its seed (uniform at
    delta_g = 0; pass them when already drawn), damped by the bath where it
    acts; g = 0 has no collapse to run."""
    from . import offdiag

    params = cfg.params
    if params.coupling_g == 0:
        raise ConfigError("collapse requires a nonzero coupling g")
    if t_hi is None:
        t_hi = 1.2 * math.pi / params.coupling_g
    if couplings is None:
        couplings = offdiag.sample_couplings(params, cfg.seed)
    return offdiag.offdiag_trajectory(
        params, cfg.state.r_ud, offdiag.time_grid(cfg.spacing, cfg.samples, t_hi),
        couplings=couplings, include_bath=cfg.bath_acts,
    )


def registration_times(params: ModelParams) -> dict:
    """Quadrature and asymptotic tau_reg; both None, with the error type, when
    the statics leave nothing to register."""
    try:
        return {
            "tau_reg_quadrature": statics.registration_time_quadrature(params),
            "tau_reg_asymptotic": statics.registration_time_asymptotic(params),
        }
    except CurieWeissError as exc:
        return {"tau_reg_quadrature": None, "tau_reg_asymptotic": None,
                "tau_reg_error": type(exc).__name__}


def _registration_end(tau_reg: float | None, up) -> float:
    """max(3 tau_reg or 0, the sectors' stop time): 0 where they rest at m = 0."""
    return max(3.0 * (tau_reg or 0.0), float(up.times[-1]))


def registration_summary(up, params: ModelParams) -> dict:
    """Terminal states and final m of both sectors, the down ones the up ones
    mirrored, and the up sector's threshold crossing times and tail rate."""
    from . import registration

    threshold = statics.registration_threshold(params)
    summary: dict = {
        "terminal_up": up.terminal.value,
        "terminal_down": up.terminal.value,
        "m_final_up": up.m_final,
        "m_final_down": 0.0 - up.m_final,
        "threshold": threshold,
    }
    # the registration time and its sensitivity to the threshold; null if never reached
    summary.update(zip(("crossing_time", "crossing_time_low", "crossing_time_high"),
                       registration.crossing_times(
                           up, [threshold, 0.8 * threshold, 1.25 * threshold], params)))
    try:
        summary.update(registration.asymptotic_rate(up, params))
    except InsufficientTail:
        summary.update(tail_rate_fitted=None, tail_rate_predicted=params.gamma * params.coupling_j)
    return summary


def run_scenario(config: RunConfig) -> ScenarioReport:
    """Execute the full measurement pipeline for one configuration.

    A trapped sector reports status "measurement_failed" rather than raising;
    a run that :func:`why_not_a_measurement` rejects reports
    "not_a_measurement", with the collapse alone where g > 0.
    :func:`write_run` persists the report.
    """
    from . import registration

    params, state = config.params, config.state
    report = ScenarioReport(
        status="not_a_measurement", reason=why_not_a_measurement(params, config.bath),
        regime=validate_regime(params, margin=config.margin),
        landscape_up=statics.stationary_magnetizations(+1, params),
        critical_g=critical_g(params), config=config,
    )
    if params.coupling_g == 0:
        return report
    timescales = {**dict.fromkeys(TIMESCALES), **collapse_timescales(config)}
    if report.reason is not None:
        return replace(report, timescales=timescales, offdiag=collapse_run(config, config.t_max))
    timescales.update(registration_times(params))
    up = registration.integrate_registration(+1, params, config.t_max)
    # a sector at rest at m = 0 leaves the collapse its own end
    t_end = _registration_end(timescales["tau_reg_quadrature"], up) or config.t_max
    collapse = collapse_run(config, t_end)
    report = replace(report, timescales=timescales, offdiag=collapse, sector_up=up)
    try:
        final = assemble_final_state(state, params, up, collapse)
    except MeasurementFailed as exc:
        return replace(report, status="measurement_failed", reason=str(exc))
    return replace(report, status="completed", reason=None, final_state=final,
                   entropy=entropy_budget(state, params, final))


def sweep_rows(cfg: RunConfig, keys, grids) -> tuple[list[list], dict[str, int]]:
    """One row [*values, outcome, g_c, tau_reg, m_final] per point of the
    product of the axis grids, each axis setting the parameter of its key,
    and the count of each error class the rows absorbed, by class name.

    Each point builds one ModelParams from the base fields and its values.
    A point whose parameters ModelParams rejects is "invalid-params" (a
    ConfigError).  One that is not a measurement has m_final = 0: the rate
    at m = 0 is exactly 0 there, so no flow leaves it.  Without t_max the up
    flow from m = 0 ends at :func:`statics.first_stationary`, one bisection
    per point and no trajectory, with psi taken at m- and, above g_c, at m+:
    only t_max imports :mod:`registration`.
    The "/invalid-regime" suffix is :func:`regime_valid`'s verdict, without
    the report of :func:`validate_regime`.  g_c is taken once per point, and
    a registered row's tau_reg quadrature reuses it.  A registered row with
    an undefined tau_reg (no spinodal, say) has None, and its error counted.
    """
    base = {f.name: getattr(cfg.params, f.name) for f in fields(ModelParams)}
    rows, errors = [], collections.Counter()
    for values in itertools.product(*grids):
        try:
            p = ModelParams(**{**base, **dict(zip(keys, values))})
        except ConfigError as exc:
            errors[type(exc).__name__] += 1
            rows.append([*values, "invalid-params", None, None, None])
            continue
        gc = critical_g(p)["critical_g"]
        if why_not_a_measurement(p, cfg.bath) is not None:
            rows.append([*values, "not-a-measurement", gc, None, 0.0])
            continue
        if cfg.t_max is None:
            m_attr = statics.first_stationary(+1, p)
            registered = statics.label_point(m_attr) is not statics.PointLabel.PARAMAGNETIC
            # integrate_registration's last node; m = 0 within the stop distance
            m_final = max(m_attr - statics.STOP_DELTA, 0.0)
        else:
            from . import registration

            up = registration.integrate_registration(+1, p, cfg.t_max)
            registered = up.terminal is registration.TerminalKind.CONVERGED_FERRO
            m_final = up.m_final
        outcome = "registered" if registered else "failed"
        if not regime_valid(p, cfg.margin):
            outcome += "/invalid-regime"
        tau_reg = None
        if registered:
            try:
                tau_reg = statics.registration_time_quadrature(p, critical_g=gc)
            except CurieWeissError as exc:  # undefined here, e.g. no spinodal (T >= 3J/4)
                errors[type(exc).__name__] += 1
        rows.append([*values, outcome, gc, tau_reg, m_final])
    return rows, dict(sorted(errors.items()))


# --- persistence ---------------------------------------------------------------


def config_payload(cfg: RunConfig) -> dict:
    p, s = cfg.params, cfg.state
    return {  # the config and run keys of a parameter file, and the margin
        **{f.name: getattr(p, f.name) for f in fields(p)},
        "r_uu": s.r_uu,
        "r_dd": s.r_dd,
        "re_r_ud": s.r_ud.real,
        "im_r_ud": s.r_ud.imag,
        **{key: getattr(cfg, key) for key in (*RUN_KEYS, "margin")},
    }


@functools.cache
def _landscape_m_column() -> tuple[str, ...]:
    """The formatted m column of :func:`statics.landscape_grid`, once per process."""
    return tuple(output.column(statics.landscape_grid()[0]))


def write_landscape(out_dir, params: ModelParams, down_dat: bool = False) -> list[dict]:
    """landscape.csv (m, F_up, F_down) and landscape_up.dat, plus
    landscape_down.dat when asked; returns their records.  The m column is
    the grid's, formatted once per process; F_down is F_up reversed to the
    bit, so its column is F_up's formatted one reversed."""
    _, f_up, _ = statics.landscape_table(params)
    cols = [_landscape_m_column(), output.column(f_up)]
    cols.append(cols[1][::-1])
    files = [
        output.write_csv(os.path.join(out_dir, "landscape.csv"), ["m", "F_up", "F_down"], cols),
        output.write_dat(os.path.join(out_dir, "landscape_up.dat"), cols[:2]),
    ]
    if down_dat:
        files.append(output.write_dat(os.path.join(out_dir, "landscape_down.dat"),
                                      [cols[0], cols[2]]))
    return files


_OFFDIAG_HEADER = ["t", "re_r", "im_r", "log10_abs_r", "osc_factor", "bath_factor",
                   "dispersion_factor"]


def _offdiag_columns(t: list[str], traj: offdiag.OffDiagTrajectory) -> list[list[str]]:
    return [t, *(output.column(c) for c in (
        traj.amplitude.real, traj.amplitude.imag, traj.log10_abs,
        traj.osc_factor, traj.bath_factor, traj.dispersion_factor,
    ))]


def write_offdiag(out_dir, traj: offdiag.OffDiagTrajectory,
                  echo: offdiag.OffDiagTrajectory | None) -> list[dict]:
    """offdiag.csv, the (t, log10|r|) curve offdiag_log10.dat and, given an
    echo, echo.csv; returns their records.  spin_echo returns the times it is
    passed, so all three share one formatted t column."""
    t = output.column(traj.times)
    files = []
    if echo is not None:
        files.append(output.write_csv(os.path.join(out_dir, "echo.csv"), _OFFDIAG_HEADER,
                                      _offdiag_columns(t, echo)))
    cols = _offdiag_columns(t, traj)
    return files + [
        output.write_csv(os.path.join(out_dir, "offdiag.csv"), _OFFDIAG_HEADER, cols),
        output.write_dat(os.path.join(out_dir, "offdiag_log10.dat"), [t, cols[3]]),
    ]


def write_sectors(out_dir, up: registration.MagnetizationTrajectory,
                  params: ModelParams) -> list[dict]:
    """registration_<up|down>.csv (t, m, dm_dt, free_energy) and .dat (t, m)
    of the up sector and of the down one, its mirror image (see
    :func:`registration.flow_rate`); returns their records.  The up columns
    are formatted once: the down sector shares t and F_down(-m) = F_up(m),
    and its m and dm_dt columns are the up ones with the sign flipped
    (0.0 - 0.0 stays 0.0)."""
    t, m, rate, f = (output.column(c) for c in (
        up.times, up.m, up.rate, statics.free_energy(up.m.tolist(), +1, params),
    ))
    down = [t, [c[1:] if c[0] == "-" else c if c == "0.0" else "-" + c for c in m],
            [c[1:] if c[0] == "-" else "-" + c for c in rate], f]
    files = []
    for name, cols in (("up", [t, m, rate, f]), ("down", down)):
        files += [
            output.write_csv(os.path.join(out_dir, f"registration_{name}.csv"),
                             ["t", "m", "dm_dt", "free_energy"], cols),
            output.write_dat(os.path.join(out_dir, f"registration_{name}.dat"), cols[:2]),
        ]
    return files


def write_run(report: ScenarioReport, out_dir) -> dict:
    """Persist all artifacts of a scenario run; returns the manifest payload,
    which holds the report's dicts as its stages returned them."""
    cfg = report.config
    params = cfg.params
    files = write_landscape(out_dir, params)
    stages = {"regime": "done", "statics": "done", "collapse": "skipped"}
    if report.offdiag is not None:
        files += write_offdiag(out_dir, report.offdiag, None)
        stages["collapse"] = "done"
    up = report.sector_up
    for name in ("up", "down"):
        stages[f"registration_{name}"] = "unavailable" if up is None else up.terminal.value

    payload: dict = {
        "status": report.status,
        "reason": report.reason,
        "config": config_payload(cfg),
        "stages": stages,
        "regime": report.regime,
        "statics": {
            **report.critical_g,
            "stationary_points": [{"m": p.m, "free_energy": p.free_energy, "kind": p.kind,
                                   "label": p.label} for p in report.landscape_up.points],
        },
    }
    for key in ("timescales", "final_state", "entropy"):
        if getattr(report, key) is not None:
            payload[key] = getattr(report, key)
    if up is not None:
        files += write_sectors(out_dir, up, params)
        payload["registration_summary"] = registration_summary(up, params)
    return output.write_manifest(out_dir, payload, files)
