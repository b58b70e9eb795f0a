"""Output checks: each compares what one command wrote with the reference.

A check returns the list of problems it found; an empty list means the
command's output is correct.  The checks read only the files in the
command's output directory and the generated config.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import reference as ref
from worker import inventory


class Problems(list):
    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.append(message)

    def close(self, what: str, got, want, rel: float, floor: float = 1.0) -> None:
        if got is None or want is None:
            self.expect(got is None and want is None, f"{what}: got {got!r}, want {want!r}")
            return
        self.expect(ref.close(float(got), float(want), rel, floor),
                    f"{what}: got {got!r}, want {want!r} (rel {rel:g})")

    def rows_close(self, what: str, got: np.ndarray, want: np.ndarray, rel: float) -> None:
        got, want = np.asarray(got, float), np.asarray(want, float)
        if got.shape != want.shape:
            self.append(f"{what}: {got.size} values, want {want.size}")
            return
        inf = np.isinf(got) | np.isinf(want)
        bad = np.abs(got - want) > rel * np.maximum(1.0, np.abs(want))
        bad = np.where(inf, got != want, bad)
        if bad.any():
            i = int(np.argmax(bad))
            self.append(f"{what}: {int(bad.sum())} of {bad.size} values off by more than "
                        f"rel {rel:g}, first at row {i}: got {got[i]!r}, want {want[i]!r}")


def _number(text: str):
    return None if text == "None" else float(text)


def read_csv(path) -> dict[str, list]:
    """Columns of a CSV written by the program, by header name."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def numbers(column: list[str]) -> np.ndarray:
    return np.array([float(v) for v in column])


def check_manifest(out_dir, p: Problems) -> dict:
    """The manifest lists every other file with its exact size and sha256."""
    path = os.path.join(out_dir, "manifest.json")
    if not os.path.isfile(path):
        p.append("no manifest.json")
        return {}
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    listed = {e["name"]: e for e in manifest.get("files", [])}
    present = sorted(n for n in os.listdir(out_dir) if n != "manifest.json")
    p.expect(sorted(listed) == present, f"manifest lists {sorted(listed)}, directory has {present}")
    digests = inventory(out_dir)
    for name in present:
        entry = listed.get(name)
        if entry is None:
            continue
        p.expect(entry["bytes"] == os.path.getsize(os.path.join(out_dir, name)),
                 f"{name}: manifest size is wrong")
        p.expect(entry["sha256"] == digests[name], f"{name}: manifest sha256 is wrong")
    return manifest


def _roots_match(what: str, got: list[dict], sign: int, g: float, t: float, p: Problems) -> None:
    want = ref.stationary_points(sign, g, t)
    if len(got) != len(want):
        p.append(f"{what}: {len(got)} stationary points, want {len(want)} "
                 f"at {[w['m'] for w in want]}")
        return
    for a, b in zip(got, want):
        p.close(f"{what} m", a["m"], b["m"], 1e-9)
        p.close(f"{what} F at m = {b['m']:.6g}", a["free_energy"], b["free_energy"], 1e-12)
        p.expect(a["kind"] == b["kind"] and a["label"] == b["label"],
                 f"{what} at m = {b['m']:.6g}: {a['kind']}/{a['label']}, "
                 f"want {b['kind']}/{b['label']}")


def _r0(cfg) -> complex:
    return complex(cfg["re_r_ud"], cfg["im_r_ud"])


# --- scenario ------------------------------------------------------------------


def _check_sector(csv_path, sign: int, g: float, t: float, p: Problems) -> None:
    """m(t) moves monotonically away from 0 and F(m(t)) never increases."""
    cols = read_csv(csv_path)
    m = numbers(cols["m"])
    step = sign * np.diff(m)
    p.expect(bool(np.all(step >= 0.0)), f"sector {sign:+d}: m(t) is not monotone")
    f_own = np.array([ref.free_energy(x, sign, g, t) for x in m])
    p.rows_close(f"sector {sign:+d} free_energy column", numbers(cols["free_energy"]), f_own, 1e-12)
    rise = np.diff(f_own) - 1e-14 * np.abs(f_own[:-1])
    p.expect(bool(np.all(rise <= 0.0)), f"sector {sign:+d}: F(m(t)) increases "
             f"by up to {float(np.max(np.diff(f_own))):.3g}")


def check_scenario(cmd: dict, out_dir) -> list[str]:
    p = Problems()
    cfg = cmd["config"]
    g, t, n = cfg["coupling_g"], cfg["temperature"], cfg["n_spins"]
    man = check_manifest(out_dir, p)
    if not man:
        return p
    gc = ref.critical_coupling(t)
    registers = g > gc
    want_status = "completed" if registers else "measurement_failed"
    p.expect(man["status"] == want_status, f"status {man['status']}, want {want_status}")
    p.close("critical_g", man["statics"]["critical_g"], gc, 1e-12)
    _roots_match("up landscape", man["statics"]["stationary_points"], +1, g, t, p)

    ts = man["timescales"]
    p.close("tau_red", ts["tau_red"], ref.reduction_time(g, n), 1e-12)
    p.close("tau_2", ts["tau_2"], ref.bath_decay_time(g, n, cfg["gamma"], cfg["debye_cutoff"]),
            1e-12)
    tau = ref.registration_time(g, t, cfg["gamma"]) if registers else None
    p.close("tau_reg_quadrature", ts["tau_reg_quadrature"], tau, 1e-9)
    if not registers:
        p.expect(ts["tau_reg_asymptotic"] is None,
                 f"tau_reg_asymptotic = {ts['tau_reg_asymptotic']!r} on a trapped run")

    stages = man["stages"]
    summary = man["registration_summary"]
    for sign, name in ((+1, "up"), (-1, "down")):
        if registers:
            want_kind, want_m = "converged_ferro", ref.ferro_root(sign, g, t)
        else:
            want_kind, want_m = "trapped_paramagnetic", ref.paramagnetic_root(sign, g, t)
        p.expect(stages[f"registration_{name}"] == want_kind,
                 f"registration_{name} ended {stages[f'registration_{name}']}, want {want_kind}")
        p.close(f"m_final_{name}", summary[f"m_final_{name}"], want_m, 1e-5)
        _check_sector(os.path.join(out_dir, f"registration_{name}.csv"), sign, g, t, p)

    if registers and "final_state" in man:
        fs = man["final_state"]
        weights = [b["weight"] for b in fs["branches"]]
        p.close("Born weight up", weights[0], cfg["r_uu"], 1e-12)
        p.close("Born weight down", weights[1], 1.0 - cfg["r_uu"], 1e-12)
        for b, sign in zip(fs["branches"], (+1, -1)):
            p.close(f"pointer {sign:+d}", b["pointer"], ref.ferro_root(sign, g, t), 1e-5)
        delta = man["entropy"]["delta_total"]
        p.expect(delta > 0.0, f"delta_total = {delta!r} is not positive")
    elif registers:
        p.append("completed run has no final_state")

    cols = read_csv(os.path.join(out_dir, "offdiag.csv"))
    times = numbers(cols["t"])
    want = (math.log(abs(_r0(cfg))) + ref.uniform_log(times, g, n)
            + ref.bath_log(times, g, n, cfg["gamma"], cfg["debye_cutoff"])) / ref.LN10
    p.rows_close("offdiag log10_abs_r", numbers(cols["log10_abs_r"]), want, 1e-9)
    return p


# --- collapse with echo ----------------------------------------------------------


def check_collapse(cmd: dict, out_dir) -> list[str]:
    p = Problems()
    cfg = cmd["config"]
    g, dg, n = cfg["coupling_g"], cfg["delta_g"], cfg["n_spins"]
    bath = cfg["bath"] == "on"
    man = check_manifest(out_dir, p)
    if not man:
        return p
    ts = man["timescales"]
    p.close("tau_red", ts["tau_red"], ref.reduction_time(g, n), 1e-12)
    p.close("tau_2_prime", ts["tau_2_prime"], ref.dispersion_decay_time(dg, n), 1e-12)
    p.close("log10_recurrence_dispersion", ts["log10_recurrence_dispersion"],
            -n * math.pi**2 * dg**2 / (2.0 * g * g) / ref.LN10, 1e-12)
    if bath:
        p.close("tau_2", ts.get("tau_2"),
                ref.bath_decay_time(g, n, cfg["gamma"], cfg["debye_cutoff"]), 1e-12)
    else:
        p.expect("tau_2" not in ts, "tau_2 reported with the bath off")

    log_r0 = math.log(abs(_r0(cfg)))
    cols = read_csv(os.path.join(out_dir, "offdiag.csv"))
    times = numbers(cols["t"])
    grid = np.linspace(0.0, cfg["t_max"], cfg["samples"])
    if times.shape != grid.shape or not np.array_equal(times, grid):
        p.append("offdiag.csv time grid differs from the configured linear grid")
        return p
    bath_ln = (ref.bath_log(times, g, n, cfg["gamma"], cfg["debye_cutoff"]) if bath
               else np.zeros_like(times))
    # dispersed product alone, in natural log
    product = numbers(cols["log10_abs_r"]) * ref.LN10 - log_r0 - bath_ln
    picks = sorted({len(times) // 3, len(times) // 2, len(times) - 1} - {0})
    k = ref.recover_split(times[picks], product[picks], n, g, dg)
    p.rows_close("offdiag log10_abs_r against the two-point product",
                 numbers(cols["log10_abs_r"]),
                 (log_r0 + ref.two_point_log(times, k, n, g, dg) + bath_ln) / ref.LN10, 1e-9)

    theta, j = cmd["meta"]["theta"], cmd["meta"]["echo_index"]
    p.close("pulse_time", man.get("pulse_time"), theta, 0.0)
    echo = read_csv(os.path.join(out_dir, "echo.csv"))
    e_log = numbers(echo["log10_abs_r"])
    eff = np.where(times < theta, times, times - 2.0 * theta)
    p.rows_close("echo log10_abs_r against the two-point product", e_log,
                 (log_r0 + ref.two_point_log(eff, k, n, g, dg)) / ref.LN10, 1e-9)
    revived = abs(complex(float(echo["re_r"][j]), float(echo["im_r"][j])))
    p.close("|r(2 theta)|", revived, abs(_r0(cfg)), 1e-12, floor=0.0)
    p.close("echo_revival_log10", man.get("echo_revival_log10"), log_r0 / ref.LN10, 1e-12)
    after = np.nonzero(times >= theta)[0]
    p.rows_close("echo mirrors the collapse after the pulse", e_log[after],
                 (product[np.abs(after - j)] + log_r0) / ref.LN10, 1e-9)
    return p


# --- sweep -----------------------------------------------------------------------


def check_sweep(cmd: dict, out_dir) -> list[str]:
    p = Problems()
    cfg = cmd["config"]
    check_manifest(out_dir, p)
    (gkey, g0, g1, ng), (tkey, t0, t1, nt) = cmd["meta"]["axes"]
    cols = read_csv(os.path.join(out_dir, "sweep.csv"))
    mesh = [(g, t) for g in np.linspace(g0, g1, ng) for t in np.linspace(t0, t1, nt)]
    got = list(zip(numbers(cols[gkey]), numbers(cols[tkey])))
    if got != mesh:
        p.append(f"sweep rows {got} differ from the mesh {mesh}")
        return p
    for i, (g, t) in enumerate(mesh):
        where = f"row {i} (g = {g:.6g}, T = {t:.6g})"
        gc = ref.critical_coupling(t)
        p.close(f"{where} critical_g", _number(cols["critical_g"][i]), gc, 1e-12)
        outcome = cols["outcome"][i].split("/")[0]
        registers = g > gc
        want = "registered" if registers else "failed"
        p.expect(outcome == want, f"{where}: outcome {outcome}, want {want}")
        tau = ref.registration_time(g, t, cfg["gamma"]) if registers else None
        p.close(f"{where} tau_reg", _number(cols["tau_reg"][i]), tau, 1e-9)
        m_want = ref.ferro_root(+1, g, t) if registers else ref.paramagnetic_root(+1, g, t)
        p.close(f"{where} m_final", _number(cols["m_final"][i]), m_want, 1e-5)
    return p


# --- statics ---------------------------------------------------------------------


def _points(path) -> list[dict]:
    cols = read_csv(path)
    return [{"m": float(m), "free_energy": float(f), "kind": k, "label": lab}
            for m, f, k, lab in zip(cols["m"], cols["free_energy"], cols["kind"], cols["label"])]


def check_statics(cmd: dict, out_dir) -> list[str]:
    p = Problems()
    cfg = cmd["config"]
    g, t = cfg["coupling_g"], cfg["temperature"]
    man = check_manifest(out_dir, p)
    if not man:
        return p

    cols = read_csv(os.path.join(out_dir, "landscape.csv"))
    m = numbers(cols["m"])
    f_up, f_down = numbers(cols["F_up"]), numbers(cols["F_down"])
    p.rows_close("landscape F_up", f_up, [ref.free_energy(x, +1, g, t) for x in m], 1e-12)
    p.rows_close("landscape F_down", f_down, [ref.free_energy(x, -1, g, t) for x in m], 1e-12)
    p.expect(np.allclose(m, -m[::-1], rtol=0.0, atol=1e-15), "landscape m grid is not symmetric")
    p.rows_close("landscape mirror F_up(m) = F_down(-m)", f_up, f_down[::-1], 1e-12)

    up = _points(os.path.join(out_dir, "stationary_up.csv"))
    down = _points(os.path.join(out_dir, "stationary_down.csv"))
    _roots_match("up landscape", up, +1, g, t, p)
    _roots_match("down landscape", down, -1, g, t, p)
    if len(up) == len(down):
        for a, b in zip(up, down[::-1]):
            p.close("mirrored stationary m", a["m"], -b["m"], 1e-12)
            p.close("mirrored stationary F", a["free_energy"], b["free_energy"], 1e-12)
    else:
        p.append("up and down landscapes have different numbers of stationary points")

    p.close("critical_g", man["critical_g"], ref.critical_coupling(t), 1e-12)
    p.close("curie_temperature", man["curie_temperature"], ref.curie_temperature(), 1e-6)
    p.close("global_minimum_up", man["global_minimum_up"], ref.global_minimum(+1, g, t), 1e-9)
    p.close("global_minimum_down", man["global_minimum_down"], ref.global_minimum(-1, g, t),
            1e-9)
    mf = ref.ferro_root(+1, g, t)
    p.close("m_ferromagnetic", man["m_ferromagnetic"], mf, 1e-9)
    gap = man["ferromagnetic_gap"]
    if mf is None:
        p.expect(gap is None, f"ferromagnetic_gap = {gap!r} without a ferromagnetic minimum")
    elif gap is None:
        p.append("ferromagnetic_gap missing although a ferromagnetic minimum exists")
    else:
        p.close("ferromagnetic gap", gap["gap"], 1.0 - mf, 1e-9)
        p.close("gap asymptote", gap["asymptote_2exp_minus_2j_over_t"],
                2.0 * math.exp(-2.0 / t), 1e-12)
    return p


CHECKS = {
    "scenario": check_scenario,
    "collapse": check_collapse,
    "sweep": check_sweep,
    "statics": check_statics,
}
