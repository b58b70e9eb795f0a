"""Batch command-line front end.

Subcommands: statics | collapse | register | scenario | sweep | validate.
Each one selects stages of the single pipeline in :mod:`curieweiss.scenario`:
it reads a flat key = value config file, writes CSV/JSON artifacts plus
gnuplot-ready .dat twins into the output directory, and finishes with a
checksummed manifest.  Outputs are byte-deterministic for a given config
and seed.

Exit status: 0 completed, 1 error, 2 measurement failed (trapped sector),
3 not a measurement (g = 0, or no bath: gamma = 0 or bath = off).
"""

from __future__ import annotations

import collections
import functools
import math
import os
import sys
import types

from .errors import ConfigError, CurieWeissError, NoFerromagneticSolution
from .model import ModelParams, validate_regime
from . import output, scenario, statics

_EXIT = {"completed": 0, "error": 1, "measurement_failed": 2, "not_a_measurement": 3}


def cmd_validate(cfg: scenario.RunConfig, out_dir: str, args) -> int:
    report = validate_regime(cfg.params, margin=cfg.margin)
    output.write_manifest(out_dir, {"config": scenario.config_payload(cfg), "regime": report}, [])
    print(f"regime overall_valid = {report['overall_valid']} (margin {cfg.margin})")
    for c in report["checks"]:
        mark = "pass" if c["passed"] else "FAIL"
        print(f"  {c['name']:28s} {mark}  lhs={c['lhs']:.6g} rhs={c['rhs']:.6g}")
    return 0


def cmd_statics(cfg: scenario.RunConfig, out_dir: str, args) -> int:
    params = cfg.params
    files = scenario.write_landscape(out_dir, params, down_dat=True)

    summary: dict = {"config": scenario.config_payload(cfg)}
    up = statics.stationary_magnetizations(+1, params)
    scapes = {"up": up, "down": up.mirrored()}
    for name, scape in scapes.items():
        rows = [[p.m, p.free_energy, p.kind.value, p.label.value] for p in scape.points]
        files.append(output.write_csv(os.path.join(out_dir, f"stationary_{name}.csv"),
                                      ["m", "free_energy", "kind", "label"],
                                      [output.column(c) for c in zip(*rows)]))
        summary[f"global_minimum_{name}"] = scape.points[scape.global_minimum].m
    summary.update(scenario.critical_g(params))
    summary["curie_temperature"] = statics.curie_temperature(params)
    try:
        summary["m_ferromagnetic"] = scapes["up"].ferromagnetic.m
        summary["ferromagnetic_gap"] = statics.ferromagnetic_gap(scapes["up"], params)
    except NoFerromagneticSolution:
        summary["m_ferromagnetic"] = summary["ferromagnetic_gap"] = None
    output.write_manifest(out_dir, summary, files)
    print(f"statics: critical_g = {summary['critical_g']}, "
          f"T_c = {summary['curie_temperature']}, "
          f"m_f = {summary['m_ferromagnetic']}")
    return 0


def cmd_collapse(cfg: scenario.RunConfig, out_dir: str, args) -> int:
    from . import offdiag

    params, echo_at = cfg.params, args.echo_at
    couplings = offdiag.sample_couplings(params, cfg.seed)
    traj = scenario.collapse_run(cfg, cfg.t_max, couplings)
    timescales = scenario.collapse_timescales(cfg)
    payload = {"config": scenario.config_payload(cfg), "timescales": timescales}

    echo = None
    if echo_at is not None:
        # spin_echo rejects a bad pulse time before the first file is written
        echo = offdiag.spin_echo(echo_at, couplings, cfg.state.r_ud, traj.times)
        payload["pulse_time"] = echo_at
        payload["echo_revival_log10"] = offdiag.echo_revival_log10(cfg.state.r_ud)
    output.write_manifest(out_dir, payload, scenario.write_offdiag(out_dir, traj, echo))
    names = {"tau_red": "tau_red", "tau_2": "tau_2", "tau_2_prime": "tau_2'"}
    print("collapse: " + ", ".join(f"{name} = {timescales[key]:.6g}"
                                   for key, name in names.items() if key in timescales))
    return 0


def cmd_register(cfg: scenario.RunConfig, out_dir: str, args) -> int:
    from . import registration

    params = cfg.params
    reason = scenario.why_not_a_measurement(params, cfg.bath)
    if reason is not None:
        raise ConfigError(f"nothing to register: {reason}")
    up = registration.integrate_registration(+1, params, cfg.t_max)
    files = scenario.write_sectors(out_dir, up, params)
    summary = scenario.registration_summary(up, params)
    output.write_manifest(out_dir, {
        "config": scenario.config_payload(cfg),
        **summary,
        **scenario.registration_times(params),
    }, files)
    print(f"register: up -> {summary['m_final_up']:.6f} ({summary['terminal_up']}), "
          f"down -> {summary['m_final_down']:.6f} ({summary['terminal_down']})")
    return 0


def cmd_scenario(cfg: scenario.RunConfig, out_dir: str, args) -> int:
    report = scenario.run_scenario(cfg)
    scenario.write_run(report, out_dir)
    print(f"scenario: {report.status}"
          + (f" ({report.reason})" if report.reason else ""))
    return _EXIT[report.status]


def _linspace(start: float, stop: float, n: int) -> list[float]:
    """``np.linspace(start, stop, n).tolist()`` bit for bit: i * step + start,
    i / div * delta + start where the step underflows to 0, and stop as the
    last point when n > 1."""
    delta, div = stop - start, max(n - 1, 1)
    step = delta / div
    grid = [(i / div * delta if step == 0 else i * step) + start for i in range(n)]
    if n > 1:
        grid[-1] = stop
    return grid


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
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigError(f"bad sweep axis {spec!r}: START and STOP must be finite")
    keys = ModelParams._fields
    if key not in keys:
        raise ConfigError(f"cannot sweep {key!r}; choose one of {keys}")
    return key, _linspace(start, stop, steps)


def cmd_sweep(cfg: scenario.RunConfig, out_dir: str, args) -> int:
    if not args.sweep:
        raise ConfigError("sweep requires at least one --sweep KEY=START:STOP:STEPS")
    if len(args.sweep) > 2:
        raise ConfigError("at most two sweep axes are supported")
    parsed = [_parse_sweep_axis(a) for a in args.sweep]
    keys, grids = zip(*parsed)
    if len(set(keys)) < len(keys):
        raise ConfigError(f"sweep axis {keys[0]!r} given twice")

    header = [*keys, "outcome", "critical_g", "tau_reg", "m_final"]
    rows, errors = scenario.sweep_rows(cfg, keys, grids)
    table = output.write_csv(os.path.join(out_dir, "sweep.csv"), header,
                             [output.column(c) for c in zip(*rows)])
    output.write_manifest(out_dir, {
        "config": scenario.config_payload(cfg),
        "axes": [{"key": k, "values": g} for k, g in parsed],
        "rows": len(rows),
        "errors": errors,
    }, [table])
    print(f"sweep: {len(rows)} points -> {os.path.join(out_dir, 'sweep.csv')}")
    return 0


#: subcommand -> (handler, help); the handler gets the loaded config, the
#: output directory (created by its first write) and the parsed arguments,
#: and passes the records of the files it wrote to output.write_manifest
COMMANDS = {
    "statics": (cmd_statics, "free-energy landscape, critical coupling, Curie temperature"),
    "collapse": (cmd_collapse, "off-diagonal collapse, recurrences, optional spin echo"),
    "register": (cmd_register, "diagonal-sector registration dynamics"),
    "scenario": (cmd_scenario, "full measurement pipeline with manifest"),
    "sweep": (cmd_sweep, "grid sweep over one or two parameters"),
    "validate": (cmd_validate, "validity-regime report"),
}


#: one command-line flag, as argparse's add_argument takes it
Flag = collections.namedtuple("Flag", "flag dest type default action help metavar")

#: the flags every command takes; --config is required
_COMMON_FLAGS = (
    Flag("--config", "config", str, None, "store", "flat key = value parameter file", None),
    Flag("--out", "out", str, None, "store", "output directory (default runs/<command>)", None),
    Flag("--seed", "seed", int, None, "store", "override the config seed", None),
    Flag("--margin", "margin", float, 10.0, "store",
         "factor operationalizing 'much greater than' (default 10)", None),
)
#: the flags of one command alone
_OWN_FLAGS = {
    "collapse": (Flag("--echo-at", "echo_at", float, None, "store",
                      "add a spin-echo run with a pi pulse at this time", None),),
    "sweep": (Flag("--sweep", "sweep", str, [], "append",
                   "sweep axis (repeat for a second axis)", "KEY=START:STOP:STEPS"),),
}
#: subcommand -> flag -> its Flag.  build_parser gives them to argparse and
#: _exact_args reads them itself, so the two parse one table
FLAGS = {name: {f.flag: f for f in _COMMON_FLAGS + _OWN_FLAGS.get(name, ())}
         for name in COMMANDS}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built at the first call and then reused:
    parsing leaves it unchanged, and building it costs more than a short
    command's own work.  argparse is imported here, so a command that
    :func:`_exact_args` reads loads none."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="curieweiss",
        description="Curie-Weiss measurement model: batch simulation commands",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, helptext) in COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        for f in FLAGS[name].values():
            p.add_argument(f.flag, dest=f.dest, type=f.type, default=f.default, action=f.action,
                           required=f.flag == "--config", help=f.help, metavar=f.metavar)
    return parser


def _exact_args(argv: list[str]):
    """The arguments of an argv in the exact form: a command, then ``--flag
    VALUE`` pairs, each flag spelled in full as one of that command's and no
    VALUE starting with '-', --config among them.  Each VALUE goes through
    its flag's type, a repeated --sweep appends and a repeated other flag
    keeps its last VALUE, so where this reads a namespace it is the one
    ``build_parser().parse_args(argv)`` gives.  Any other argv (help,
    abbreviations, ``--flag=VALUE``, a negative number, a stray or missing
    token, a VALUE its type rejects) gives None, and argparse decides."""
    flags = FLAGS.get(argv[0]) if argv else None
    if flags is None or len(argv) % 2 == 0:
        return None
    args = {"command": argv[0]}
    for f in flags.values():
        args[f.dest] = [] if f.action == "append" else f.default
    for flag, value in zip(argv[1::2], argv[2::2]):
        f = flags.get(flag)
        if f is None or value.startswith("-"):
            return None
        try:
            value = f.type(value)
        except ValueError:
            return None
        if f.action == "append":
            args[f.dest].append(value)
        else:
            args[f.dest] = value
    if args["config"] is None:
        return None
    return types.SimpleNamespace(**args)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _exact_args(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    overrides = {"margin": args.margin}
    if args.seed is not None:
        overrides["seed"] = args.seed
    try:
        cfg = scenario.load_run_config(args.config, **overrides)
        out_dir = args.out if args.out is not None else os.path.join("runs", args.command)
        return COMMANDS[args.command][0](cfg, out_dir, args)
    except CurieWeissError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # reading the config raises ConfigError, so this is a write
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
