"""Full measurement scenario: Born weights, final state, entropy balance.

The pipeline assembles what the sub-modules compute separately: regime
validation, magnet statics, the off-diagonal collapse with its damping
mechanisms, both diagonal-sector registrations, the post-measurement state
(branch weights = initial diagonals, pointer at the ferromagnetic value),
and the entropy budget of the whole process.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .errors import (
    ConfigError,
    CurieWeissError,
    InsufficientTail,
    MeasurementFailed,
    NeverCrossed,
    SpinodalUndefined,
)
from .model import (
    CONFIG_KEYS,
    ModelParams,
    RegimeReport,
    SystemState2x2,
    get_float,
    get_int,
    params_from_mapping,
    read_config_file,
    validate_regime,
    validate_state,
)
from . import offdiag, output, registration, statics

LN2 = math.log(2.0)
LN10 = math.log(10.0)


# --- Born rule and simple state functionals ---------------------------------


def born_probabilities(state: SystemState2x2) -> tuple[float, float]:
    """Outcome probabilities: traces against the up/down eigenprojections."""
    return state.r_uu, state.r_dd


def state_entropy(state: SystemState2x2) -> float:
    """Von Neumann entropy of the 2x2 state, in nats."""
    half_gap = math.sqrt(0.25 * (state.r_uu - state.r_dd) ** 2 + abs(state.r_ud) ** 2)
    lam = (0.5 + half_gap, 0.5 - half_gap)
    s = 0.0
    for p in lam:
        if p > 1e-300:
            s -= p * math.log(p)
    return s


def dephased_entropy(state: SystemState2x2) -> float:
    """Entropy of the state with off-diagonals removed (binary entropy)."""
    s = 0.0
    for p in (state.r_uu, state.r_dd):
        if p > 1e-300:
            s -= p * math.log(p)
    return s


# --- final state -------------------------------------------------------------


@dataclass(frozen=True)
class Branch:
    """One exclusive outcome: weight, projected system block, pointer value."""

    weight: float
    system_block: SystemState2x2
    pointer: float


@dataclass(frozen=True)
class FinalState:
    branches: tuple[Branch, Branch]
    #: log10 of the surviving off-diagonal magnitude at t_final
    log10_offdiag_residual: float
    t_final: float

    @property
    def weights(self) -> tuple[float, float]:
        return self.branches[0].weight, self.branches[1].weight


def _offdiag_residual_log10(params: ModelParams, state: SystemState2x2,
                            t_final: float, seed: int) -> float:
    if state.r_ud == 0:
        return -math.inf
    log_amp = math.log(abs(state.r_ud))
    if params.gamma > 0:
        log_amp -= params.n_spins * offdiag.bath_exponent(t_final, params)
    couplings = offdiag.sample_couplings(params, seed)
    logmag, _ = offdiag.log_cos_product(t_final, couplings, params.hbar)
    return float((log_amp + logmag) / LN10)


def assemble_final_state(
    state: SystemState2x2,
    params: ModelParams,
    seed: int = 0,
    sector_up: registration.MagnetizationTrajectory | None = None,
    sector_down: registration.MagnetizationTrajectory | None = None,
) -> FinalState:
    """Post-measurement state: two exclusive branches and the dead off-diagonal.

    Registration must succeed in both sectors; the final time is
    max(3 tau_reg, both sector stop times), late enough that every reported
    residual is astronomically small.  Where tau_reg is undefined (no
    spinodal above T = 3J/4) the sector stop times alone set it.
    """
    validate_state(state)
    if sector_up is None or sector_down is None:
        up, down = sector_runs(params, None)
    else:
        up, down = sector_up, sector_down
    for traj in (up, down):
        if traj.terminal is not registration.TerminalKind.CONVERGED_FERRO:
            raise MeasurementFailed(
                f"sector {traj.field_sign:+d} ended {traj.terminal.value} "
                f"at m = {traj.m_final:.4f}"
            )
    t_final = _registration_end(params, up, down)

    p_up, p_down = born_probabilities(state)
    branches = (
        Branch(weight=p_up, system_block=SystemState2x2(1.0, 0.0, 0j), pointer=up.m_final),
        Branch(weight=p_down, system_block=SystemState2x2(0.0, 1.0, 0j), pointer=down.m_final),
    )
    return FinalState(
        branches=branches,
        log10_offdiag_residual=_offdiag_residual_log10(params, state, t_final, seed),
        t_final=t_final,
    )


def pointer_correlation(final_state: FinalState, params: ModelParams) -> tuple[float, float]:
    """Per-branch conditional pointer variance p_i (1 - m_i^2)/N.

    The magnet's product state gives the magnetization a variance
    (1 - m^2)/N, so the pointer reads the outcome up to fluctuations that
    vanish for a macroscopic apparatus.
    """
    return tuple(
        b.weight * (1.0 - b.pointer**2) / params.n_spins for b in final_state.branches
    )


# --- entropy budget -----------------------------------------------------------


@dataclass(frozen=True)
class EntropyBudget:
    """All entropies in nats; magnet and bath terms are extensive (order N)."""

    s_system_initial: float
    s_system_final: float
    s_magnet_initial: float
    s_magnet_final: float
    bath_entropy_change: float
    delta_total: float


def entropy_budget(
    state: SystemState2x2, params: ModelParams, final_state: FinalState
) -> EntropyBudget:
    """Entropy before and after the measurement.

    The magnet starts fully mixed (N ln 2) and ends in a ferromagnetic
    product state with per-spin mixing entropy S(m_f).  The bath term is the
    quasi-static estimate  sum_i p_i (E_M(0) - E_M(m_i) + g N |m_i|)/T  for
    dumping the released magnet + coupling energy at temperature T; it is an
    estimate, labelled as such in run manifests.
    """
    n = params.n_spins
    j, g, t = params.coupling_j, params.coupling_g, params.temperature
    s_sys_0 = state_entropy(state)
    s_sys_f = dephased_entropy(state)
    s_mag_0 = n * LN2
    s_mag_f = 0.0
    bath = 0.0
    for b in final_state.branches:
        s_mag_f += b.weight * n * statics.mixing_entropy(b.pointer)
        e_released = 0.25 * j * n * b.pointer**4 + g * n * abs(b.pointer)
        bath += b.weight * e_released / t
    delta = (s_sys_f - s_sys_0) + (s_mag_f - s_mag_0) + bath
    return EntropyBudget(
        s_system_initial=s_sys_0,
        s_system_final=s_sys_f,
        s_magnet_initial=s_mag_0,
        s_magnet_final=s_mag_f,
        bath_entropy_change=bath,
        delta_total=delta,
    )


# --- run configuration ---------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """Model, initial state and run keys; construction rejects a state that
    is not a density matrix and a negative seed."""

    params: ModelParams
    state: SystemState2x2
    t_max: float | None = None
    samples: int = 400
    spacing: str = "log"  # collapse phenomena span several decades in t
    bath: bool | None = None
    dispersion: bool | None = None
    seed: int = 0
    margin: float = 10.0

    def __post_init__(self):
        validate_state(self.state)
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")

    def resolved(self) -> "RunConfig":
        """Fill mechanism toggles from the parameters and check consistency."""
        bath = self.params.gamma > 0 if self.bath is None else self.bath
        disp = self.params.delta_g > 0 if self.dispersion is None else self.dispersion
        if bath and self.params.gamma == 0:
            raise ConfigError("bath mechanism requested but gamma = 0")
        if disp and self.params.delta_g == 0:
            raise ConfigError("dispersion mechanism requested but delta_g = 0")
        if self.spacing not in ("linear", "log"):
            raise ConfigError(f"spacing must be 'linear' or 'log', got {self.spacing!r}")
        if self.samples < 2:
            raise ConfigError("samples must be at least 2")
        return replace(self, bath=bath, dispersion=disp)


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
    "dispersion": _get_toggle,
    "seed": get_int,
}


def load_run_config(path) -> RunConfig:
    """Read a parameter file plus optional run keys into a RunConfig.

    Unknown keys are rejected, and so are non-integer counts (n_spins,
    samples, seed) rather than truncated, a negative seed and a state that
    is not a density matrix.
    """
    mapping = read_config_file(path, CONFIG_KEYS + tuple(RUN_KEYS))
    params, state = params_from_mapping(mapping)
    run = {key: read(mapping, key) for key, read in RUN_KEYS.items() if key in mapping}
    return RunConfig(params=params, state=state, **run)


@dataclass(frozen=True)
class Timescales:
    tau_red: float
    tau_2: float | None
    tau_2_prime: float | None
    log10_recurrence_bath: float | None
    log10_recurrence_dispersion: float | None
    tau_reg_quadrature: float | None
    tau_reg_asymptotic: float | None
    #: exception type that left tau_reg undefined (trapped, no spinodal, no bath)
    tau_reg_error: str | None


@dataclass(frozen=True)
class ScenarioReport:
    status: str  # completed | measurement_failed | not_a_measurement
    reason: str | None
    regime: RegimeReport
    landscape_up: statics.Landscape
    critical_g: float | None
    timescales: Timescales | None
    offdiag: offdiag.OffDiagTrajectory | None
    sector_up: registration.MagnetizationTrajectory | None
    sector_down: registration.MagnetizationTrajectory | None
    final_state: FinalState | None
    entropy: EntropyBudget | None
    config: RunConfig


# --- pipeline stages -------------------------------------------------------------
# Every CLI command selects some of these stages; run_scenario chains them all.


def collapse_timescales(cfg: RunConfig) -> dict:
    """Reduction time, plus decay time and log10 first-recurrence height of
    each damping mechanism the resolved config switches on."""
    params = cfg.params
    out = {"tau_red": offdiag.reduction_time(params)}
    if cfg.bath:
        out["tau_2"] = offdiag.decay_time_bath(params)
        out["log10_recurrence_bath"] = offdiag.log_recurrence_height_bath(params) / LN10
    if cfg.dispersion:
        out["tau_2_prime"] = offdiag.dispersion_decay_time(params)
        out["log10_recurrence_dispersion"] = (
            offdiag.log_recurrence_height_dispersed(params) / LN10
        )
    return out


def _time_grid(cfg: RunConfig, t_hi: float) -> np.ndarray:
    if cfg.spacing == "linear":
        return np.linspace(0.0, t_hi, cfg.samples)
    t_lo = t_hi * 1e-4
    grid = np.geomspace(t_lo, t_hi, cfg.samples - 1)
    return np.concatenate([[0.0], grid])


def collapse_run(cfg: RunConfig, t_hi: float | None):
    """Off-diagonal trajectory of the resolved config on its grid up to t_hi
    (None: 1.2 pi hbar/g); returns it with the sampled couplings, which are
    None without dispersion."""
    params = cfg.params
    if t_hi is None:
        t_hi = 1.2 * math.pi * params.hbar / params.coupling_g
    couplings = offdiag.sample_couplings(params, cfg.seed) if cfg.dispersion else None
    traj = offdiag.offdiag_trajectory(
        params, cfg.state.r_ud, _time_grid(cfg, t_hi), couplings=couplings,
        include_bath=cfg.bath,
    )
    return traj, couplings


def sector_runs(params: ModelParams, t_max: float | None):
    """Registration flows of the up and down sectors from m = 0, each to its
    attractor, or cut at t_max when that is set."""
    return tuple(registration.integrate_registration(s, params, t_max) for s in (+1, -1))


def registration_times(params: ModelParams) -> dict:
    """Quadrature and asymptotic tau_reg; both None, with the error type, when
    the statics leave nothing to register."""
    try:
        return {
            "tau_reg_quadrature": registration.registration_time_quadrature(params),
            "tau_reg_asymptotic": registration.registration_time_asymptotic(params),
        }
    except CurieWeissError as exc:
        return {"tau_reg_quadrature": None, "tau_reg_asymptotic": None,
                "tau_reg_error": type(exc).__name__}


def _registration_end(params: ModelParams, up, down) -> float:
    """max(3 tau_reg, both sector stop times); tau_reg counts as 0 where undefined."""
    tau_reg = registration_times(params)["tau_reg_quadrature"] or 0.0
    return max(3.0 * tau_reg, float(up.times[-1]), float(down.times[-1]))


def registration_summary(up, down, params: ModelParams) -> dict:
    """Terminal states, threshold crossing times and tail rate of both sectors."""
    threshold = registration.registration_threshold(params)
    summary: dict = {
        "terminal_up": up.terminal.value,
        "terminal_down": down.terminal.value,
        "m_final_up": up.m_final,
        "m_final_down": down.m_final,
        "threshold": threshold,
    }
    try:
        summary["crossing_time"] = registration.crossing_time(up, threshold)
        # sensitivity of the operational registration time to the threshold
        summary["crossing_time_low"] = registration.crossing_time(up, 0.8 * threshold)
        summary["crossing_time_high"] = registration.crossing_time(up, 1.25 * threshold)
    except NeverCrossed:
        summary["crossing_time"] = None
    try:
        fit = registration.asymptotic_rate(up, params)
        summary["tail_rate_fitted"] = fit.fitted
        summary["tail_rate_predicted"] = fit.predicted
    except InsufficientTail:
        summary["tail_rate_fitted"] = None
    return summary


def run_scenario(config: RunConfig) -> ScenarioReport:
    """Execute the full measurement pipeline for one configuration.

    A trapped sector reports status "measurement_failed" rather than raising;
    g = 0 (no coupling) and gamma = 0 (no bath, hence no registration) are
    reported as "not_a_measurement".  :func:`write_run` persists the report.
    """
    cfg = config.resolved()
    params, state = cfg.params, cfg.state
    try:
        g_c = statics.critical_coupling(params)
    except SpinodalUndefined:
        g_c = None
    report = ScenarioReport(
        status="not_a_measurement",
        reason="no system-apparatus coupling (g = 0): nothing is measured",
        regime=validate_regime(params, margin=cfg.margin),
        landscape_up=statics.stationary_magnetizations(+1, params),
        critical_g=g_c, timescales=None, offdiag=None, sector_up=None,
        sector_down=None, final_state=None, entropy=None, config=cfg,
    )
    if params.coupling_g == 0:
        return report
    timescales = dict.fromkeys(f.name for f in fields(Timescales))
    timescales.update(collapse_timescales(cfg))
    if not cfg.bath:
        # dispersion alone kills the off-diagonal blocks but cannot relax the
        # magnet: the diagonal sectors never register without the bath
        return replace(
            report,
            reason="no bath (gamma = 0): off-diagonal blocks die but the "
                   "magnet cannot relax, so nothing is registered",
            timescales=Timescales(**timescales), offdiag=collapse_run(cfg, cfg.t_max)[0],
        )
    timescales.update(registration_times(params))
    up, down = sector_runs(params, cfg.t_max)
    t_hi = _registration_end(params, up, down)
    report = replace(
        report, timescales=Timescales(**timescales), offdiag=collapse_run(cfg, t_hi)[0],
        sector_up=up, sector_down=down,
    )
    try:
        final = assemble_final_state(state, params, seed=cfg.seed, sector_up=up, sector_down=down)
    except MeasurementFailed as exc:
        return replace(report, status="measurement_failed", reason=str(exc))
    return replace(report, status="completed", reason=None, final_state=final,
                   entropy=entropy_budget(state, params, final))


# --- persistence ---------------------------------------------------------------


def config_payload(cfg: RunConfig) -> dict:
    p, s = cfg.params, cfg.state
    return {  # the config and run keys of a parameter file, and the margin
        **{f.name: getattr(p, f.name) for f in fields(p) if f.name in CONFIG_KEYS},
        "r_uu": s.r_uu,
        "r_dd": s.r_dd,
        "re_r_ud": s.r_ud.real,
        "im_r_ud": s.r_ud.imag,
        **{key: getattr(cfg, key) for key in (*RUN_KEYS, "margin")},
    }


def regime_payload(regime: RegimeReport) -> dict:
    return {
        "margin": regime.margin,
        "overall_valid": regime.overall_valid,
        "checks": [asdict(c) for c in regime.checks],
    }


def write_landscape(out_dir, params: ModelParams):
    """landscape.csv (m, F_up, F_down) and landscape_up.dat; returns the table."""
    m, f_up, f_down = statics.landscape_table(params)
    output.write_csv(
        os.path.join(out_dir, "landscape.csv"),
        ["m", "F_up", "F_down"],
        zip(m.tolist(), f_up.tolist(), f_down.tolist()),
    )
    output.write_dat(os.path.join(out_dir, "landscape_up.dat"), [m.tolist(), f_up.tolist()])
    return m, f_up, f_down


def write_offdiag_csv(path, traj: offdiag.OffDiagTrajectory) -> None:
    header = ["t", "re_r", "im_r", "log10_abs_r", "osc_factor", "bath_factor",
              "dispersion_factor"]
    rows = [
        [float(t), float(a.real), float(a.imag), float(l), float(o), float(b), float(d)]
        for t, a, l, o, b, d in zip(
            traj.times, traj.amplitude, traj.log10_abs, traj.osc_factor,
            traj.bath_factor, traj.dispersion_factor,
        )
    ]
    output.write_csv(path, header, rows)


def write_offdiag(out_dir, traj: offdiag.OffDiagTrajectory) -> None:
    """offdiag.csv and the (t, log10|r|) curve offdiag_log10.dat."""
    write_offdiag_csv(os.path.join(out_dir, "offdiag.csv"), traj)
    output.write_dat(
        os.path.join(out_dir, "offdiag_log10.dat"), [traj.times.tolist(), traj.log10_abs.tolist()]
    )


def write_sectors(out_dir, sectors, params: ModelParams) -> None:
    """registration_<up|down>.csv (t, m, dm_dt, free_energy) and .dat (t, m)."""
    for traj in sectors:
        sign = traj.field_sign
        name = "up" if sign > 0 else "down"
        rows = zip(traj.times.tolist(), traj.m.tolist(),
                   registration.flow_rate(traj.m, sign, params).tolist(),
                   statics.free_energy(traj.m, sign, params).tolist())
        output.write_csv(
            os.path.join(out_dir, f"registration_{name}.csv"), ["t", "m", "dm_dt", "free_energy"], rows
        )
        output.write_dat(
            os.path.join(out_dir, f"registration_{name}.dat"), [traj.times.tolist(), traj.m.tolist()]
        )


def write_run(report: ScenarioReport, out_dir) -> dict:
    """Persist all artifacts of a scenario run; returns the manifest payload."""
    cfg = report.config
    params = cfg.params
    write_landscape(out_dir, params)
    stages = {"regime": "done", "statics": "done", "collapse": "skipped"}
    if report.offdiag is not None:
        write_offdiag(out_dir, report.offdiag)
        stages["collapse"] = "done"
    sectors = (report.sector_up, report.sector_down)
    for name, traj in zip(("up", "down"), sectors):
        stages[f"registration_{name}"] = "unavailable" if traj is None else traj.terminal.value

    payload: dict = {
        "status": report.status,
        "reason": report.reason,
        "config": config_payload(cfg),
        "stages": stages,
        "regime": regime_payload(report.regime),
        "statics": {
            "critical_g": report.critical_g,
            "stationary_points": [asdict(p) for p in report.landscape_up.points],
        },
    }
    if report.timescales is not None:
        payload["timescales"] = asdict(report.timescales)
        if report.timescales.tau_reg_error is None:
            del payload["timescales"]["tau_reg_error"]
    if report.final_state is not None:
        fs = report.final_state
        payload["final_state"] = {
            "t_final": fs.t_final,
            "log10_offdiag_residual": fs.log10_offdiag_residual,
            "branches": [
                {"weight": b.weight, "pointer": b.pointer,
                 "r_uu": b.system_block.r_uu, "r_dd": b.system_block.r_dd}
                for b in fs.branches
            ],
            "pointer_variance": list(pointer_correlation(fs, params)),
        }
    if report.entropy is not None:
        entropy = payload["entropy"] = asdict(report.entropy)
        entropy["bath_entropy_change_estimate"] = entropy.pop("bath_entropy_change")
    if report.sector_up is not None:
        write_sectors(out_dir, sectors, params)
        payload["registration_summary"] = registration_summary(*sectors, params)
    return output.write_manifest(out_dir, payload)
