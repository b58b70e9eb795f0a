"""Batch command-line front end.

Subcommands: statics | collapse | register | scenario | sweep | validate.
Each one selects stages of the single pipeline in :mod:`curieweiss.scenario`:
it reads a flat key = value config file, writes CSV/JSON artifacts plus
gnuplot-ready .dat twins into the output directory, and finishes with a
checksummed manifest.  Outputs are byte-deterministic for a given config
and seed.

Exit status: 0 completed, 1 error, 2 measurement failed (trapped sector),
3 not a measurement (g = 0 or no bath).
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from dataclasses import replace

import numpy as np

from .errors import ConfigError, CurieWeissError, NoFerromagneticSolution, SpinodalUndefined
from .model import validate_regime
from . import offdiag, output, registration, scenario, statics

_EXIT = {"completed": 0, "error": 1, "measurement_failed": 2, "not_a_measurement": 3}


def cmd_validate(cfg: scenario.RunConfig, out_dir: str, args) -> int:
    report = validate_regime(cfg.params, margin=cfg.margin)
    output.write_manifest(out_dir, {
        "config": scenario.config_payload(cfg),
        "regime": scenario.regime_payload(report),
    })
    print(f"regime overall_valid = {report.overall_valid} (margin {cfg.margin})")
    for c in report.checks:
        mark = "pass" if c.passed else "FAIL"
        print(f"  {c.name:28s} {mark}  lhs={c.lhs:.6g} rhs={c.rhs:.6g}")
    return 0


def cmd_statics(cfg: scenario.RunConfig, out_dir: str, args) -> int:
    params = cfg.params
    m, _, f_down = scenario.write_landscape(out_dir, params)
    output.write_dat(os.path.join(out_dir, "landscape_down.dat"), [m.tolist(), f_down.tolist()])

    summary: dict = {"config": scenario.config_payload(cfg)}
    scapes = {name: statics.stationary_magnetizations(sign, params)
              for sign, name in ((+1, "up"), (-1, "down"))}
    for name, scape in scapes.items():
        output.write_csv(
            os.path.join(out_dir, f"stationary_{name}.csv"),
            ["m", "free_energy", "kind", "label"],
            [[p.m, p.free_energy, p.kind.value, p.label.value] for p in scape.points],
        )
        summary[f"global_minimum_{name}"] = scape.points[scape.global_minimum].m
    try:
        summary["critical_g"] = statics.critical_coupling(params)
    except SpinodalUndefined as exc:
        summary["critical_g"] = None
        summary["critical_g_error"] = f"SpinodalUndefined: {exc}"
    summary["curie_temperature"] = statics.curie_temperature(params)
    try:
        summary["m_ferromagnetic"] = scapes["up"].ferromagnetic.m
    except NoFerromagneticSolution:
        summary["m_ferromagnetic"] = None
    try:
        est = statics.ferromagnetic_gap(params)
        summary["ferromagnetic_gap"] = {
            "gap": est.gap, "asymptote_2exp_minus_2j_over_t": est.asymptote,
        }
    except NoFerromagneticSolution:
        summary["ferromagnetic_gap"] = None
    output.write_manifest(out_dir, summary)
    print(f"statics: critical_g = {summary['critical_g']}, "
          f"T_c = {summary['curie_temperature']:.4f}, "
          f"m_f = {summary['m_ferromagnetic']}")
    return 0


def cmd_collapse(cfg: scenario.RunConfig, out_dir: str, args) -> int:
    cfg = cfg.resolved()
    params, echo_at = cfg.params, args.echo_at
    if params.coupling_g == 0:
        raise ConfigError("collapse requires a nonzero coupling g")
    traj, couplings = scenario.collapse_run(cfg, cfg.t_max)
    scenario.write_offdiag(out_dir, traj)
    timescales = scenario.collapse_timescales(cfg)
    payload = {"config": scenario.config_payload(cfg), "timescales": timescales}

    if echo_at is not None:
        if couplings is None:
            couplings = offdiag.sample_couplings(params, cfg.seed)
        echo = offdiag.spin_echo(echo_at, couplings, cfg.state.r_ud, traj.times, hbar=params.hbar)
        scenario.write_offdiag_csv(os.path.join(out_dir, "echo.csv"), echo)
        payload["pulse_time"] = echo_at
        revival = offdiag.spin_echo(echo_at, couplings, cfg.state.r_ud, [2.0 * echo_at],
                                    hbar=params.hbar)
        payload["echo_revival_log10"] = float(revival.log10_abs[0])
    output.write_manifest(out_dir, payload)
    print(f"collapse: tau_red = {timescales['tau_red']:.6g}"
          + (f", tau_2 = {timescales['tau_2']:.6g}" if cfg.bath else "")
          + (f", tau_2' = {timescales['tau_2_prime']:.6g}" if cfg.dispersion else ""))
    return 0


def cmd_register(cfg: scenario.RunConfig, out_dir: str, args) -> int:
    cfg = cfg.resolved()
    params = cfg.params
    if params.gamma == 0:
        raise ConfigError("registration requires the bath (gamma > 0)")
    up, down = scenario.sector_runs(params, cfg.t_max)
    scenario.write_sectors(out_dir, (up, down), params)
    output.write_manifest(out_dir, {
        "config": scenario.config_payload(cfg),
        **scenario.registration_summary(up, down, params),
        **scenario.registration_times(params),
    })
    print(f"register: up -> {up.m_final:.6f} ({up.terminal.value}), "
          f"down -> {down.m_final:.6f} ({down.terminal.value})")
    return 0


def cmd_scenario(cfg: scenario.RunConfig, out_dir: str, args) -> int:
    report = scenario.run_scenario(cfg)
    scenario.write_run(report, out_dir)
    print(f"scenario: {report.status}"
          + (f" ({report.reason})" if report.reason else ""))
    return _EXIT[report.status]


def _parse_sweep_axis(spec: str):
    try:
        key, _, rng = spec.partition("=")
        start_s, stop_s, steps_s = rng.split(":")
        key = key.strip()
        start, stop, steps = float(start_s), float(stop_s), int(steps_s)
    except ValueError:
        raise ConfigError(f"bad sweep axis {spec!r}, expected KEY=START:STOP:STEPS") from None
    if steps < 1:
        raise ConfigError("sweep needs at least one step")
    numeric = ("n_spins", "coupling_g", "delta_g", "temperature", "gamma", "debye_cutoff")
    if key not in numeric:
        raise ConfigError(f"cannot sweep {key!r}; choose one of {numeric}")
    return key, np.linspace(start, stop, steps)


def cmd_sweep(cfg: scenario.RunConfig, out_dir: str, args) -> int:
    if not args.sweep:
        raise ConfigError("sweep requires at least one --sweep KEY=START:STOP:STEPS")
    if len(args.sweep) > 2:
        raise ConfigError("at most two sweep axes are supported")
    parsed = [_parse_sweep_axis(a) for a in args.sweep]
    keys, grids = zip(*parsed)

    header = [*keys, "outcome", "critical_g", "tau_reg", "m_final"]
    rows = []
    for values in itertools.product(*grids):
        overrides = dict(zip(keys, values))
        if "n_spins" in overrides:
            overrides["n_spins"] = int(round(overrides["n_spins"]))
        try:
            params = replace(cfg.params, **overrides)
        except ConfigError:
            rows.append(list(values) + ["invalid-params", None, None, None])
            continue
        try:
            g_c = statics.critical_coupling(params)
        except SpinodalUndefined:
            g_c = None
        tau_reg = None
        if params.coupling_g == 0 or params.gamma == 0:
            outcome = "not-a-measurement"
            scape = statics.stationary_magnetizations(+1, params)
            m_final = scape.points[scape.global_minimum].m
        else:
            up = registration.integrate_registration(+1, params, cfg.t_max)
            m_final = up.m_final
            if up.terminal is registration.TerminalKind.CONVERGED_FERRO:
                outcome = "registered"
                tau_reg = scenario.registration_times(params)["tau_reg_quadrature"]
            else:
                outcome = "failed"
            if not validate_regime(params, margin=cfg.margin).overall_valid:
                outcome += "/invalid-regime"
        rows.append(list(values) + [outcome, g_c, tau_reg, m_final])

    output.write_csv(os.path.join(out_dir, "sweep.csv"), header, rows)
    output.write_manifest(out_dir, {
        "config": scenario.config_payload(cfg),
        "axes": [{"key": k, "values": g.tolist()} for k, g in parsed],
        "rows": len(rows),
    })
    print(f"sweep: {len(rows)} points -> {os.path.join(out_dir, 'sweep.csv')}")
    return 0


#: subcommand -> (handler, help); the handler gets the loaded config, the
#: output directory (created by its first write) and the parsed arguments
COMMANDS = {
    "statics": (cmd_statics, "free-energy landscape, critical coupling, Curie temperature"),
    "collapse": (cmd_collapse, "off-diagonal collapse, recurrences, optional spin echo"),
    "register": (cmd_register, "diagonal-sector registration dynamics"),
    "scenario": (cmd_scenario, "full measurement pipeline with manifest"),
    "sweep": (cmd_sweep, "grid sweep over one or two parameters"),
    "validate": (cmd_validate, "validity-regime report"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curieweiss",
        description="Curie-Weiss measurement model: batch simulation commands",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, helptext) in COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="flat key = value parameter file")
        p.add_argument("--out", default=None, help="output directory (default runs/<command>)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--margin", type=float, default=10.0,
                       help="factor operationalizing 'much greater than' (default 10)")
        if name == "collapse":
            p.add_argument("--echo-at", type=float, default=None,
                           help="add a spin-echo run with a pi pulse at this time")
        if name == "sweep":
            p.add_argument("--sweep", action="append", default=[],
                           metavar="KEY=START:STOP:STEPS",
                           help="sweep axis (repeat for a second axis)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = scenario.load_run_config(args.config)
        seed = cfg.seed if args.seed is None else args.seed
        cfg = replace(cfg, seed=seed, margin=args.margin)
        out_dir = args.out if args.out is not None else os.path.join("runs", args.command)
        return COMMANDS[args.command][0](cfg, out_dir, args)
    except CurieWeissError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
