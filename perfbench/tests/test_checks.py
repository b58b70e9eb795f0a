"""Each output check passes on real output and fails on a perturbed copy.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from worker import inventory  # noqa: E402


def run_command(tmp_path, kind, cfg, *extra, expect_exit=0, **meta) -> dict:
    """Run one command of the program in-process; return the plan entry."""
    from curieweiss.cli import main

    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(workloads.config_text(cfg))
    out = str(tmp_path / "out")
    with contextlib.redirect_stdout(io.StringIO()):
        status = main([kind, "--config", str(cfg_path), "--out", out, *extra])
    assert status == expect_exit
    return {"kind": kind, "config": cfg, "out": out, "meta": meta}


def problems(cmd) -> list[str]:
    return checks.CHECKS[cmd["kind"]](cmd, cmd["out"])


def refresh_manifest(out_dir) -> None:
    """Re-list every file in the manifest, so only the perturbed content is wrong."""
    path = os.path.join(out_dir, "manifest.json")
    with open(path) as fh:
        manifest = json.load(fh)
    digests = inventory(out_dir)
    manifest["files"] = [
        {"name": n, "bytes": os.path.getsize(os.path.join(out_dir, n)), "sha256": d}
        for n, d in digests.items() if n != "manifest.json"
    ]
    with open(path, "w") as fh:
        json.dump(manifest, fh)


def edit_manifest(out_dir, edit) -> None:
    path = os.path.join(out_dir, "manifest.json")
    with open(path) as fh:
        manifest = json.load(fh)
    edit(manifest)
    with open(path, "w") as fh:
        json.dump(manifest, fh)


def edit_csv(out_dir, name, column, row, change) -> None:
    path = os.path.join(out_dir, name)
    with open(path) as fh:
        lines = fh.read().splitlines()
    col = lines[0].split(",").index(column)
    cells = lines[row + 1].split(",")
    cells[col] = change(cells[col])
    lines[row + 1] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    refresh_manifest(out_dir)


def scaled(factor):
    return lambda text: repr(float(text) * factor)


def assert_fails(cmd, needle: str) -> None:
    found = problems(cmd)
    assert any(needle in p for p in found), found


# --- scenario -------------------------------------------------------------------


@pytest.fixture
def registered(tmp_path):
    t = 0.3
    cfg = workloads._config(100000, 1.3 * ref.critical_coupling(t), t,
                            r_uu=0.7, r_ud=0.3 + 0.2j, bath="on")
    cmd = run_command(tmp_path, "scenario", cfg)
    assert problems(cmd) == []
    return cmd


@pytest.fixture
def trapped(tmp_path):
    t = 0.25
    cfg = workloads._config(10000, 0.6 * ref.critical_coupling(t), t, bath="on")
    cmd = run_command(tmp_path, "scenario", cfg, expect_exit=2)
    assert problems(cmd) == []
    return cmd


def _set_branch(key, index, value):
    def edit(man):
        man["final_state"]["branches"][index][key] = value
    return edit


@pytest.mark.parametrize("edit, needle", [
    (lambda m: m["timescales"].update(tau_reg_quadrature=m["timescales"]["tau_reg_quadrature"]
                                      * (1 + 1e-7)), "tau_reg_quadrature"),
    (lambda m: m["timescales"].update(tau_red=m["timescales"]["tau_red"] * (1 + 1e-10)),
     "tau_red"),
    (lambda m: m["timescales"].update(tau_2=m["timescales"]["tau_2"] * (1 + 1e-10)), "tau_2"),
    (_set_branch("weight", 0, 0.7 + 1e-11), "Born weight up"),
    (_set_branch("pointer", 1, -0.9), "pointer -1"),
    (lambda m: m["entropy"].update(delta_total=-1.0), "delta_total"),
    (lambda m: m.update(status="measurement_failed"), "status"),
    (lambda m: m["statics"].update(critical_g=m["statics"]["critical_g"] * (1 + 1e-10)),
     "critical_g"),
    (lambda m: m["statics"]["stationary_points"].pop(), "stationary points"),
    (lambda m: m["stages"].update(registration_down="max_time_reached"), "registration_down"),
])
def test_scenario_manifest_perturbed(registered, edit, needle):
    edit_manifest(registered["out"], edit)
    assert_fails(registered, needle)


def test_scenario_offdiag_perturbed(registered):
    edit_csv(registered["out"], "offdiag.csv", "log10_abs_r", 5, scaled(1 + 1e-8))
    assert_fails(registered, "offdiag log10_abs_r")


def test_scenario_sector_not_monotone(registered):
    edit_csv(registered["out"], "registration_up.csv", "m", 40, scaled(0.9))
    assert_fails(registered, "not monotone")


def test_scenario_free_energy_rises(registered):
    # a step back along the flow raises F(m(t)) at that step
    edit_csv(registered["out"], "registration_down.csv", "m", 40, scaled(0.9))
    assert_fails(registered, "F(m(t)) increases")


def test_scenario_free_energy_column(registered):
    edit_csv(registered["out"], "registration_up.csv", "free_energy", 7, scaled(1 + 1e-9))
    assert_fails(registered, "free_energy column")


def test_scenario_trapped_with_tau_reg(trapped):
    edit_manifest(trapped["out"], lambda m: m["timescales"].update(tau_reg_quadrature=4.76e4))
    assert_fails(trapped, "tau_reg_quadrature")


def test_scenario_trapped_verdict(trapped):
    edit_manifest(trapped["out"], lambda m: m["stages"].update(registration_up="max_time_reached"))
    assert_fails(trapped, "registration_up")


def test_scenario_trapped_m_final(trapped):
    edit_manifest(trapped["out"], lambda m: m["registration_summary"].update(m_final_up=0.2))
    assert_fails(trapped, "m_final_up")


# --- manifest and repeated commands ---------------------------------------------


def test_manifest_sha256_mismatch(registered):
    path = os.path.join(registered["out"], "landscape_up.dat")
    with open(path, "a") as fh:
        fh.write("\n")
    assert_fails(registered, "landscape_up.dat: manifest")


def test_manifest_unlisted_file(registered):
    with open(os.path.join(registered["out"], "extra.csv"), "w") as fh:
        fh.write("x\n")
    assert_fails(registered, "manifest lists")


def test_score_counts_differing_repeat_and_exit_status(monkeypatch):
    cmd = {"kind": "statics", "expect_exit": 0, "fault": None, "out": "unused"}
    result = {"passes": [
        {"statuses": [0], "identical": [True]},
        {"statuses": [0], "identical": [False]},
        {"statuses": [1], "identical": [True]},
    ]}
    monkeypatch.setattr(run, "check_outputs", lambda c: [])
    scored = run.score([cmd], result)
    assert (scored["attempted"], scored["failed"], scored["correct"]) == (3, 2, False)
    assert any("differ from the first pass" in r for r in scored["why"][0])
    assert any("exit status 1" in r for r in scored["why"][0])


def test_score_known_fault_keeps_correct(monkeypatch):
    cmd = {"kind": "statics", "expect_exit": 0, "fault": "paramagnetic_as_ferro", "out": "x"}
    monkeypatch.setattr(run, "check_outputs", lambda c: ["m_ferromagnetic: got 0.06, want None"])
    scored = run.score([cmd], {"passes": [{"statuses": [0], "identical": [True]}]})
    assert (scored["failed"], scored["correct"]) == (1, True)


# --- collapse with echo -----------------------------------------------------------


@pytest.fixture
def collapse(tmp_path):
    g, samples = 0.1, 41
    t_max = 1.2 * math.pi / g
    j = 30
    theta = float(np.linspace(0.0, t_max, samples)[j]) / 2.0
    cfg = workloads._config(3000, g, 0.3, delta_g=0.008, r_uu=0.4, r_ud=0.1 - 0.3j,
                            t_max=t_max, samples=samples, spacing="linear", bath="on", seed=7)
    cmd = run_command(tmp_path, "collapse", cfg, "--echo-at", repr(theta),
                      theta=theta, echo_index=j)
    assert problems(cmd) == []
    return cmd


def test_collapse_sample_perturbed(collapse):
    edit_csv(collapse["out"], "offdiag.csv", "log10_abs_r", 12, scaled(1 + 1e-8))
    assert_fails(collapse, "against the two-point product")


def test_collapse_wrong_split(collapse):
    # the output of a draw with one more upper coupling: a valid two-point
    # product, but not the one every sample was computed from
    cfg = collapse["config"]
    times = np.linspace(0.0, cfg["t_max"], cfg["samples"])
    n, g, dg = cfg["n_spins"], cfg["coupling_g"], cfg["delta_g"]
    bath = ref.bath_log(times, g, n, cfg["gamma"], cfg["debye_cutoff"])
    logs = checks.numbers(checks.read_csv(os.path.join(collapse["out"], "offdiag.csv"))
                          ["log10_abs_r"]) * ref.LN10 - math.log(abs(0.1 - 0.3j)) - bath
    k = ref.recover_split(times[[13, 20, 40]], logs[[13, 20, 40]], n, g, dg)
    other = ref.two_point_log(times, k + 1, n, g, dg) + bath + math.log(abs(0.1 - 0.3j))
    edit_csv(collapse["out"], "offdiag.csv", "log10_abs_r", 25,
             lambda _: repr(float(other[25] / ref.LN10)))
    assert_fails(collapse, "against the two-point product")


def test_collapse_no_revival(collapse):
    edit_csv(collapse["out"], "echo.csv", "re_r", 30, scaled(1 + 1e-9))
    assert_fails(collapse, "|r(2 theta)|")


def test_collapse_echo_not_mirrored(collapse):
    edit_csv(collapse["out"], "echo.csv", "log10_abs_r", 33, scaled(1 + 1e-7))
    assert_fails(collapse, "mirrors the collapse")


def test_collapse_timescale(collapse):
    edit_manifest(collapse["out"], lambda m: m["timescales"].update(
        tau_2_prime=m["timescales"]["tau_2_prime"] * (1 + 1e-10)))
    assert_fails(collapse, "tau_2_prime")


def test_recover_split_finds_k():
    n, g, dg, k = 5000, 0.1, 0.007, 2461
    times = np.array([9.0, 17.5, 33.0])
    assert ref.recover_split(times, ref.two_point_log(times, k, n, g, dg), n, g, dg) == k


# --- sweep ------------------------------------------------------------------------


@pytest.fixture
def sweep(tmp_path):
    g0, g1, t0, t1 = 0.03, 0.1, 0.25, 0.3
    cfg = workloads._config(10000, g0, t0)
    axes = [["coupling_g", g0, g1, 3], ["temperature", t0, t1, 2]]
    cmd = run_command(tmp_path, "sweep", cfg, "--sweep", f"coupling_g={g0!r}:{g1!r}:3",
                      "--sweep", f"temperature={t0!r}:{t1!r}:2", axes=axes)
    assert problems(cmd) == []
    return cmd


def test_sweep_outcome_flipped(sweep):
    edit_csv(sweep["out"], "sweep.csv", "outcome", 0, lambda _: "registered")
    assert_fails(sweep, "outcome registered, want failed")


def test_sweep_tau_reg_on_failed_row(sweep):
    edit_csv(sweep["out"], "sweep.csv", "tau_reg", 0, lambda _: "123.0")
    assert_fails(sweep, "tau_reg")


def test_sweep_tau_reg_value(sweep):
    edit_csv(sweep["out"], "sweep.csv", "tau_reg", 5, scaled(1 + 1e-7))
    assert_fails(sweep, "tau_reg")


def test_sweep_critical_g(sweep):
    edit_csv(sweep["out"], "sweep.csv", "critical_g", 3, scaled(1 + 1e-10))
    assert_fails(sweep, "critical_g")


def test_sweep_m_final(sweep):
    edit_csv(sweep["out"], "sweep.csv", "m_final", 5, scaled(0.999))
    assert_fails(sweep, "m_final")


def test_bottleneck_integral_matches_quadrature():
    from scipy.integrate import quad

    for eps in (0.03, 0.4, 5.0):
        lo, _ = quad(lambda x: 1.0 / ((x - 1) ** 2 * (x + 2) + eps), 0.0, 2.0, points=[1.0],
                     epsabs=1e-14, epsrel=1e-13, limit=200)
        hi, _ = quad(lambda x: 1.0 / ((x - 1) ** 2 * (x + 2) + eps), 2.0, np.inf,
                     epsabs=1e-14, epsrel=1e-13, limit=200)
        assert ref.bottleneck_integral(eps) == pytest.approx(lo + hi, rel=1e-10)


# --- statics ----------------------------------------------------------------------


@pytest.fixture
def statics(tmp_path):
    cmd = run_command(tmp_path, "statics", workloads._config(1000, 0.03, 0.3))
    assert problems(cmd) == []
    return cmd


def test_statics_root_moved(statics):
    edit_csv(statics["out"], "stationary_up.csv", "m", 1, scaled(1 + 1e-8))
    assert_fails(statics, "up landscape m")


def test_statics_root_missing(statics):
    path = os.path.join(statics["out"], "stationary_down.csv")
    with open(path) as fh:
        lines = fh.read().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join(lines[:-1]) + "\n")
    refresh_manifest(statics["out"])
    assert_fails(statics, "down landscape")


def test_statics_kind_swapped(statics):
    edit_csv(statics["out"], "stationary_up.csv", "kind", 0, lambda _: "maximum")
    assert_fails(statics, "up landscape at m")


def test_statics_landscape_value(statics):
    edit_csv(statics["out"], "landscape.csv", "F_down", 100, scaled(1 + 1e-10))
    assert_fails(statics, "landscape F_down")
    assert_fails(statics, "mirror")


@pytest.mark.parametrize("key, value, needle", [
    ("m_ferromagnetic", 0.06, "m_ferromagnetic"),
    ("curie_temperature", 0.3629 + 1e-5, "curie_temperature"),
    ("global_minimum_down", 0.9, "global_minimum_down"),
    ("ferromagnetic_gap", None, "ferromagnetic_gap"),
])
def test_statics_manifest_perturbed(statics, key, value, needle):
    edit_manifest(statics["out"], lambda m: m.update({key: value}))
    assert_fails(statics, needle)


def test_statics_paramagnetic_reported_as_ferro(tmp_path):
    """The fault kept in statics_landscape: no ferromagnetic minimum at T = 0.8."""
    cmd = run_command(tmp_path, "statics", workloads._config(1000, 0.05, 0.8))
    assert ref.ferro_root(+1, 0.05, 0.8) is None
    edit_manifest(cmd["out"], lambda m: m.update(m_ferromagnetic=None))
    assert problems(cmd) == []


def test_reference_roots_solve_the_fixed_point_equation():
    for t, g in ((0.1, 0.01), (0.34, 0.05), (0.6, 0.2), (0.8, 0.5)):
        for sign in (+1, -1):
            for p in ref.stationary_points(sign, g, t):
                m = p["m"]
                assert m == pytest.approx(math.tanh((sign * g + m**3) / t), abs=1e-13)


# --- the import-time parser ------------------------------------------------------


def test_outermost_cumulative():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       200 |        300 |   numpy",
        "import time:        50 |         50 |     scipy._lib",
        "import time:        60 |        110 |   scipy",
        "import time:        40 |        150 |   scipy.integrate",
        "import time:        10 |        570 | curieweiss",
    ])
    assert run.outermost_cumulative(text, "numpy") == pytest.approx(300e-6)
    assert run.outermost_cumulative(text, "scipy") == pytest.approx(260e-6)
    assert run.outermost_cumulative(text, "curieweiss") == pytest.approx(570e-6)
