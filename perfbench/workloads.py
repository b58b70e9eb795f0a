"""Seeded workload generators.

Each generator turns a seed into one pass of commands: the ``curieweiss``
argument vector, the config file it reads, the exit status the reference
statics predict, and what the output checks need to know.  The program
receives only the config files and the command line.

Every workload is stratified: the seed jitters each input inside a fixed
stratum, so every seed covers the same ranges and one pass costs about the
same whatever the seed.  Seeded inputs stay clear of the known faults (see
FAULTS); each fault is exercised by fixed inputs that do not depend on the
seed, so the share of failed commands is the same in every run.
"""

from __future__ import annotations

import math

import numpy as np

import reference as ref

GAMMA = 1e-3
CUTOFF = 50.0

# Faults of the program that fixed inputs exercise in every pass.
FAULTS = {
    "tau_reg_on_trapped": "registration_time_quadrature tests g against the low-T g_c, "
                          "so a trapped run reports a finite tau_reg_quadrature",
    "near_critical_verdict": "integrate_registration decides the terminal kind by reaching "
                             "stop_delta before t_max, not by the basin the statics give",
    "paramagnetic_as_ferro": "Landscape.ferromagnetic returns the largest-|m| minimum even "
                             "when it is paramagnetic",
}

# Seeded couplings keep this relative distance from g_c: nearer, the
# registration outlasts t_max and the near_critical_verdict fault decides.
CRITICAL_MARGIN = 0.03
# Seeded landscapes keep their stationary points this far apart, and from
# m = +-1/sqrt 2, so no root sits next to a tangency or a label edge.
ROOT_MARGIN = 5e-3


def _config(n_spins, g, t, *, delta_g=0.0, r_uu=0.5, r_ud=0.5 + 0j, **extra) -> dict:
    cfg = {
        "n_spins": int(n_spins), "coupling_j": 1.0, "coupling_g": float(g),
        "delta_g": float(delta_g), "temperature": float(t), "gamma": GAMMA,
        "debye_cutoff": CUTOFF, "r_uu": float(r_uu), "re_r_ud": float(r_ud.real),
        "im_r_ud": float(r_ud.imag),
    }
    cfg.update(extra)
    return cfg


def config_text(cfg: dict) -> str:
    return "".join(f"{k} = {v!r}\n" if isinstance(v, float) else f"{k} = {v}\n"
                   for k, v in cfg.items())


def _state(rng) -> tuple[float, complex]:
    """A random valid 2x2 state with a nonzero off-diagonal element."""
    r_uu = float(rng.uniform(0.1, 0.9))
    radius = math.sqrt(r_uu * (1.0 - r_uu)) * float(rng.uniform(0.2, 0.95))
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    return r_uu, complex(radius * math.cos(phase), radius * math.sin(phase))


def _command(kind, cfg, expect_exit, fault=None, extra_args=(), **meta) -> dict:
    return {"kind": kind, "config": cfg, "extra_args": list(extra_args),
            "expect_exit": expect_exit, "fault": fault, "meta": meta}


def _strata(rng, k: int) -> np.ndarray:
    """k stratified uniforms on [0, 1): one per stratum, in a seeded order."""
    return (rng.permutation(k) + rng.uniform(0.0, 1.0, k)) / k


# --- scenario_uniform ----------------------------------------------------------


def scenario_uniform(seed: int) -> list[dict]:
    """Registered and trapped scenarios; fixed near-critical and trapped probes."""
    rng = np.random.default_rng([seed, 1])
    cmds = []
    n_trapped, n_registered = 4, 6
    temps = 0.2 + 0.14 * _strata(rng, n_trapped + n_registered)
    for i, t in enumerate(temps):
        gc = ref.critical_coupling(t)
        u = float(rng.uniform())
        if i < n_trapped:
            # below the low-T g_c too, so no fault touches tau_reg
            top = ref.critical_coupling_low_t(t) / gc * (1.0 - CRITICAL_MARGIN)
            ratio = 0.5 + (top - 0.5) * (i + u) / n_trapped
        else:
            lo = 1.0 + CRITICAL_MARGIN
            ratio = lo + (1.6 - lo) * (i - n_trapped + u) / n_registered
        n = int(round(10 ** rng.uniform(3.0, 7.0)))
        r_uu, r_ud = _state(rng)
        cfg = _config(n, ratio * gc, t, r_uu=r_uu, r_ud=r_ud, bath="on")
        cmds.append(_command("scenario", cfg, 0 if ratio > 1.0 else 2))
    gc34 = ref.critical_coupling(0.34)
    cmds.append(_command("scenario", _config(100000, 0.080, 0.34, bath="on"), 2,
                         fault="tau_reg_on_trapped"))
    for factor, code in ((1.0 + 1e-4, 0), (1.0 - 1e-4, 2)):
        cmds.append(_command("scenario", _config(100000, gc34 * factor, 0.34, bath="on"),
                             code, fault="near_critical_verdict"))
    return cmds


# --- collapse_dispersed_echo ------------------------------------------------------


# N * samples per command, so every stratum costs about the same
SPIN_SAMPLES = 4_000_000


def collapse_dispersed_echo(seed: int) -> list[dict]:
    """Dispersed two-point collapse with an echo, N from 1e4 to 1e6."""
    rng = np.random.default_rng([seed, 2])
    cmds = []
    bath_phase = int(rng.integers(2))
    for i in range(5):
        n = int(round(10 ** (4.0 + 0.5 * i - 0.05 * float(rng.uniform()))))
        samples = max(9, int(round(SPIN_SAMPLES / n)))
        g = float(rng.uniform(0.05, 0.15))
        dg = g * float(rng.uniform(0.02, 0.1))
        t_max = 1.2 * math.pi / g * float(rng.uniform(0.8, 1.2))
        grid = np.linspace(0.0, t_max, samples)
        j = int(rng.integers(samples // 2, samples))
        theta = float(grid[j]) / 2.0
        r_uu, r_ud = _state(rng)
        bath = "on" if (i + bath_phase) % 2 else "off"
        cfg = _config(n, g, float(rng.uniform(0.2, 0.34)), delta_g=dg, r_uu=r_uu, r_ud=r_ud,
                      t_max=t_max, samples=samples, spacing="linear", bath=bath,
                      seed=int(rng.integers(2**31)))
        cmds.append(_command("collapse", cfg, 0, extra_args=["--echo-at", repr(theta)],
                             theta=theta, echo_index=j))
    return cmds


# --- sweep_phase_diagram ---------------------------------------------------------


def _sweep_axes(rng, t_lo: float):
    """coupling_g x temperature axes straddling g_c(T), every point clear of it."""
    for _ in range(1000):
        t0 = t_lo + 0.02 * float(rng.uniform())
        temps = np.linspace(t0, t0 + 0.08, 3)
        g0 = float(0.7 * ref.critical_coupling(temps[0]) * rng.uniform(0.9, 1.1))
        g1 = float(1.4 * ref.critical_coupling(temps[-1]) * rng.uniform(0.9, 1.1))
        gs = np.linspace(g0, g1, 5)
        ratios = [g / ref.critical_coupling(t) for g in gs for t in temps]
        if all(abs(r - 1.0) > CRITICAL_MARGIN for r in ratios):
            return (g0, g1, len(gs)), (float(temps[0]), float(temps[-1]), len(temps))
    raise RuntimeError("no sweep grid clear of g_c found")


def sweep_phase_diagram(seed: int) -> list[dict]:
    """Three coupling_g x temperature sweeps across g_c(T), T from 0.18 to 0.38."""
    rng = np.random.default_rng([seed, 3])
    cmds = []
    for t_lo in (0.18, 0.24, 0.30):
        (g0, g1, ng), (t0, t1, nt) = _sweep_axes(rng, t_lo)
        r_uu, r_ud = _state(rng)
        cfg = _config(int(round(10 ** rng.uniform(4.0, 6.0))), g0, t0, r_uu=r_uu, r_ud=r_ud)
        axes = [f"coupling_g={g0!r}:{g1!r}:{ng}", f"temperature={t0!r}:{t1!r}:{nt}"]
        cmds.append(_command("sweep", cfg, 0, extra_args=["--sweep", axes[0], "--sweep", axes[1]],
                             axes=[["coupling_g", g0, g1, ng], ["temperature", t0, t1, nt]]))
    return cmds


# --- statics_landscape ---------------------------------------------------------


def _has_clear_ferro(g: float, t: float) -> bool:
    mf = ref.ferro_root(+1, g, t)
    return mf is not None and mf > 0.75 and ref.clear_of_tangencies(g, t, ROOT_MARGIN)


def statics_landscape(seed: int) -> list[dict]:
    """Landscapes over T in [0.1, 0.8] with a ferromagnetic minimum; one fixed probe without."""
    rng = np.random.default_rng([seed, 4])
    cmds = []
    for t in 0.1 + 0.7 * _strata(rng, 24):
        for _ in range(1000):
            g = float(10 ** rng.uniform(math.log10(0.005), math.log10(0.6)))
            if _has_clear_ferro(g, t):
                break
        else:
            raise RuntimeError(f"no coupling with a clear ferromagnetic minimum at T = {t}")
        cmds.append(_command("statics", _config(100000, g, float(t)), 0))
    cmds.append(_command("statics", _config(100000, 0.05, 0.8), 0,
                         fault="paramagnetic_as_ferro"))
    return cmds


WORKLOADS = {
    "scenario_uniform": scenario_uniform,
    "collapse_dispersed_echo": collapse_dispersed_echo,
    "sweep_phase_diagram": sweep_phase_diagram,
    "statics_landscape": statics_landscape,
}
