"""SHA-256 digest of every artifact of a fixed command set.

Runs each command of :data:`COMMANDS` through ``curieweiss.cli.main`` in its
own directory under a temporary directory, and prints one line
``sha256  command/file`` per file written, and ``exit <code>  command`` per
command, sorted by command and file.  A command that raises is listed as
``raised <Type>  command``.  Two source trees give the same listing
exactly when every command writes the same bytes, so a diff of two listings
shows which artifacts a change touched::

    PYTHONPATH=src python tools/artifact_digest.py > digest.txt

Only the standard library and the package are used.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile

from curieweiss.cli import main

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                         "configs", "reference.cfg")

#: command name -> (changes to configs/reference.cfg, the subcommand and its
#: arguments); --config and --out go right after the subcommand
COMMANDS = {
    "statics": ({}, ["statics"]),
    "statics_g0": ({"coupling_g": "0.0"}, ["statics"]),  # the wells tie
    "statics_paramagnetic": ({"temperature": "0.8", "coupling_g": "0.05"}, ["statics"]),
    "collapse": ({}, ["collapse"]),
    "register": ({}, ["register"]),
    "scenario": ({}, ["scenario"]),
    "sweep": ({}, ["sweep", "--sweep", "coupling_g=0.05:0.11:4"]),
    "validate": ({}, ["validate"]),
    "collapse_dispersed_echo": ({"delta_g": "0.0045"}, ["collapse", "--echo-at", "7.5"]),
    "sweep_40x25": ({}, ["sweep", "--sweep", "coupling_g=0.01:0.6:40",
                         "--sweep", "temperature=0.1:0.8:25"]),
    "register_t_max_50": ({"t_max": "50"}, ["register"]),
    "register_g_1e200": ({"coupling_g": "1e200"}, ["register"]),
    # the down sector, written from the up one, where it does not register:
    # trapped below g_c, and at rest where gamma g underflows (the up rate
    # is 0.0, the down one -0.0)
    "register_trapped": ({"coupling_g": "0.05"}, ["register"]),
    "register_g_5e_324": ({"coupling_g": "5e-324"}, ["register"]),
    "sweep_g_1e200": ({}, ["sweep", "--sweep", "coupling_g=1e200:1e200:1"]),
    # a sweep with t_max integrates each point's flow, where one without it
    # takes the attractor from the statics
    "sweep_t_max_1e5": ({"t_max": "100000"}, ["sweep", "--sweep", "coupling_g=0.05:0.11:4"]),
    # critical_g and tau_reg hold floats, then None (g_c undefined, no registration)
    "sweep_none_cells": ({}, ["sweep", "--sweep", "coupling_g=0.12:0.0:9",
                              "--sweep", "temperature=0.3:0.9:4"]),
    "collapse_n_1e30": ({"n_spins": str(10**30)}, ["collapse"]),
    # g = g_c (1 + 1e-6) at T = 0.34: the quadrature halves at the bottleneck
    "register_near_critical": ({"coupling_g": "0.08148619374709022"}, ["register"]),
    # a rate near 1e-302, whose square underflows: the rounding bound takes
    # no square, and the halving has a work budget
    "register_rate_1e_302": ({"coupling_j": "1.4082031538517637e-299",
                              "coupling_g": "1.3022908082884223e-299",
                              "temperature": "1.071545836260719e-307"}, ["register"]),
    "scenario_dispersed": ({"delta_g": "0.0045"}, ["scenario"]),
    # g exactly g_c(T = 0.34), where the rest point is the double root m-,
    # and one ulp above it, where it moves to the ferromagnetic branch
    "statics_at_g_c": ({"coupling_g": "0.08148611226097796"}, ["statics"]),
    "sweep_at_g_c": ({}, ["sweep", "--sweep", "coupling_g=0.08148611226097796:0.08148611226097796:1"]),
    "statics_ulp_above_g_c": ({"coupling_g": "0.08148611226097797"}, ["statics"]),
    "sweep_ulp_above_g_c": ({}, ["sweep", "--sweep",
                                 "coupling_g=0.08148611226097797:0.08148611226097797:1"]),
    # next to the cusp T = 3J/4, g across g_c(T) (0.269 at T = 0.70, 0.307 at 0.7499)
    "sweep_near_cusp": ({}, ["sweep", "--sweep", "temperature=0.70:0.7499:5",
                             "--sweep", "coupling_g=0.26:0.315:12"]),
    # forms the CLI leaves to argparse: --flag=VALUE and an abbreviated flag
    # write the same bytes as their exact twins of TWINS
    "collapse_dispersed_echo_equals": ({"delta_g": "0.0045"}, ["collapse", "--echo-at=7.5"]),
    "sweep_abbreviated": ({}, ["sweep", "--swe", "coupling_g=0.05:0.11:4"]),
    # the overrides, which the config is built and validated with
    "scenario_seed_5": ({}, ["scenario", "--seed", "5"]),
    "validate_margin_100": ({}, ["validate", "--margin", "100"]),
}

#: command -> the command of the same argv in the exact form, whose files it
#: writes byte for byte
TWINS = {
    "collapse_dispersed_echo_equals": "collapse_dispersed_echo",
    "sweep_abbreviated": "sweep",
}


def _config(path: str, changes: dict[str, str]) -> None:
    """configs/reference.cfg with the keys of ``changes`` set, written to path."""
    with open(REFERENCE, encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines()
                 if line.partition("=")[0].strip() not in changes]
    lines += [f"{key} = {value}" for key, value in changes.items()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def digest_lines(root: str) -> list[str]:
    """The listing of every command of :data:`COMMANDS`, run under root."""
    lines = []
    for name, (changes, args) in COMMANDS.items():
        cfg, out = os.path.join(root, f"{name}.cfg"), os.path.join(root, name)
        _config(cfg, changes)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main([*args[:1], "--config", cfg, "--out", out, *args[1:]])
        except Exception as exc:  # a raising command is listed, not fatal
            lines.append(f"raised {type(exc).__name__}  {name}")
            continue
        lines.append(f"exit {code}  {name}")
        for file in sorted(os.listdir(out)) if os.path.isdir(out) else []:
            with open(os.path.join(out, file), "rb") as fh:
                lines.append(f"{hashlib.sha256(fh.read()).hexdigest()}  {name}/{file}")
    return sorted(lines, key=lambda line: line.split("  ")[::-1])


def run() -> int:
    with tempfile.TemporaryDirectory() as root:
        print("\n".join(digest_lines(root)))
    return 0


if __name__ == "__main__":
    sys.exit(run())
