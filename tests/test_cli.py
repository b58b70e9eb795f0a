import contextlib
import io
import json
import math
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from curieweiss import offdiag, output, registration, scenario, statics
from curieweiss import cli
from curieweiss.cli import main
from curieweiss.model import MIN_T_OVER_J, ModelParams
from curieweiss.statics import critical_coupling

REFERENCE_CFG = Path(__file__).resolve().parents[1] / "configs" / "reference.cfg"

REFERENCE = """\
n_spins      = 100000
coupling_j   = 1.0
coupling_g   = 0.09
delta_g      = 0.0
temperature  = 0.34
gamma        = 1e-3
debye_cutoff = 50.0
r_uu         = 0.5
re_r_ud      = 0.5
im_r_ud      = 0.0
"""
REFERENCE_PARAMS = ModelParams(n_spins=100000, coupling_g=0.09, temperature=0.34, gamma=1e-3,
                               debye_cutoff=50.0)


@pytest.fixture()
def cfg_path(tmp_path):
    path = tmp_path / "ref.cfg"
    path.write_text(REFERENCE)
    return path


def write_cfg(tmp_path, **overrides):
    base = {
        "n_spins": 100000, "coupling_j": 1.0, "coupling_g": 0.09, "delta_g": 0.0,
        "temperature": 0.34, "gamma": 1e-3, "debye_cutoff": 50.0,
        "r_uu": 0.5, "re_r_ud": 0.5, "im_r_ud": 0.0,
    }
    base.update(overrides)
    path = tmp_path / "case.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in base.items()))
    return path


def load_manifest(out_dir):
    with open(out_dir / "manifest.json") as fh:
        return json.load(fh)


def test_statics_command(cfg_path, tmp_path, capsys):
    out = tmp_path / "statics"
    assert main(["statics", "--config", str(cfg_path), "--out", str(out)]) == 0
    m = load_manifest(out)
    assert m["critical_g"] == pytest.approx(0.08, abs=0.005)
    assert m["curie_temperature"] == pytest.approx(0.36, abs=0.01)
    assert m["m_ferromagnetic"] == pytest.approx(0.996, abs=1e-3)
    assert (out / "landscape.csv").exists()
    assert (out / "stationary_up.csv").exists()
    assert (out / "stationary_down.csv").exists()
    assert (out / "landscape_up.dat").exists()
    header = (out / "landscape.csv").read_text().splitlines()[0]
    assert header == "m,F_up,F_down"


def test_statics_summary_prints_t_c_in_full(cfg_path, tmp_path, capsys):
    # T_c is printed as the manifest holds it, like critical_g and m_f
    assert main(["statics", "--config", str(cfg_path), "--out", str(tmp_path / "ref")]) == 0
    assert capsys.readouterr().out == (
        "statics: critical_g = 0.08148611226097796, T_c = 0.3629493340972723, "
        "m_f = 0.9965142159314115\n")
    cfg = write_cfg(tmp_path, coupling_j=1e-300)
    assert main(["statics", "--config", str(cfg), "--out", str(tmp_path / "tiny")]) == 0
    assert capsys.readouterr().out == (
        "statics: critical_g = None, T_c = 3.629493340972723e-301, m_f = None\n")
    assert load_manifest(tmp_path / "tiny")["curie_temperature"] == 3.629493340972723e-301


def test_statics_scans_each_landscape_once(cfg_path, tmp_path, monkeypatch):
    # T_c is a closed 1-D condition and the gap reuses the up landscape
    from curieweiss import statics

    calls = []
    scan = statics.stationary_magnetizations
    monkeypatch.setattr(statics, "stationary_magnetizations",
                        lambda *a, **k: calls.append(a) or scan(*a, **k))
    assert main(["statics", "--config", str(cfg_path), "--out", str(tmp_path / "s")]) == 0
    # the down landscape is the up one mirrored
    assert calls == [(+1, REFERENCE_PARAMS)]


def test_register_scans_no_landscape(tmp_path, monkeypatch):
    # each sector finds its rest point by one bisection
    calls = []
    scan = statics.stationary_magnetizations
    monkeypatch.setattr(statics, "stationary_magnetizations",
                        lambda sign, params: calls.append(sign) or scan(sign, params))
    assert main(["register", "--config", str(REFERENCE_CFG), "--out", str(tmp_path / "r")]) == 0
    assert calls == []


def test_statics_spinodal_recorded(tmp_path):
    # above T = 3J/4 the only minimum is the (shifted) paramagnet
    for temperature, g in ((0.75, 0.0), (0.8, 0.05)):
        cfg = write_cfg(tmp_path, temperature=temperature, coupling_g=g)
        out = tmp_path / f"statics{temperature}"
        assert main(["statics", "--config", str(cfg), "--out", str(out)]) == 0
        m = load_manifest(out)
        assert m["critical_g"] is None
        assert m["critical_g_error"].startswith(
            f"SpinodalUndefined: T = {temperature} >= 3J/4 = 0.75")
        assert m["m_ferromagnetic"] is None
        assert m["ferromagnetic_gap"] is None


def test_scenario_records_why_g_c_is_undefined(tmp_path):
    # above T = 3J/4 a run still registers (g = 0.5 moves the only minimum
    # far out); its manifest keeps the reason g_c is undefined, as statics does
    cfg = write_cfg(tmp_path, temperature=0.8, coupling_g=0.5)
    assert main(["scenario", "--config", str(cfg), "--out", str(tmp_path / "scn")]) == 0
    assert main(["statics", "--config", str(cfg), "--out", str(tmp_path / "st")]) == 0
    recorded = load_manifest(tmp_path / "scn")["statics"]
    assert recorded["critical_g"] is None
    assert recorded["critical_g_error"] == "SpinodalUndefined: T = 0.8 >= 3J/4 = 0.75: no spinodal"
    assert recorded["critical_g_error"] == load_manifest(tmp_path / "st")["critical_g_error"]
    # with a spinodal there is no error to record
    assert main(["scenario", "--config", str(REFERENCE_CFG), "--out", str(tmp_path / "ref")]) == 0
    assert set(load_manifest(tmp_path / "ref")["statics"]) == {"critical_g", "stationary_points"}


def test_statics_two_ferro_minima_at_zero_field(tmp_path):
    cfg = write_cfg(tmp_path, coupling_g=0.0)
    out = tmp_path / "statics0"
    assert main(["statics", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "stationary_up.csv").read_text().splitlines()[1:]
    minima = [r for r in rows if ",minimum," in r]
    ferro = [r for r in minima if "ferro" in r]
    assert len(ferro) == 2
    # the symmetric pair resolves toward the field, as the global minimum does
    m = load_manifest(out)
    assert m["m_ferromagnetic"] == m["global_minimum_up"] > 0
    assert m["ferromagnetic_gap"]["gap"] == pytest.approx(1.0 - m["m_ferromagnetic"], abs=1e-15)


def test_statics_ferromagnetic_root_next_to_saturation(tmp_path):
    # 1 - m_f ~ 2 exp(-2J/T) is below 1e-12 at T = 0.07 and below the last
    # double under 1 at T = 0.05; both roots are found and T = 0.07 registers
    for temperature in (0.07, 0.05):
        cfg = write_cfg(tmp_path, temperature=temperature, coupling_g=0.01)
        out = tmp_path / f"statics{temperature}"
        assert main(["statics", "--config", str(cfg), "--out", str(out)]) == 0
        assert load_manifest(out)["m_ferromagnetic"] > 0.999
    cfg = write_cfg(tmp_path, temperature=0.07, coupling_g=0.01)
    assert main(["scenario", "--config", str(cfg), "--out", str(tmp_path / "scn")]) == 0


def test_collapse_command_recurrence_visible(tmp_path):
    cfg = write_cfg(tmp_path, gamma=0.0, t_max=40.0, spacing="linear", samples=2001)
    out = tmp_path / "collapse"
    assert main(["collapse", "--config", str(cfg), "--out", str(out)]) == 0
    m = load_manifest(out)
    assert m["timescales"]["tau_red"] == pytest.approx(0.0248452, abs=1e-6)
    rows = (out / "offdiag.csv").read_text().splitlines()[1:]
    data = np.array([[float(x) for x in r.split(",")] for r in rows])
    t, log10_abs = data[:, 0], data[:, 3]
    t1 = math.pi / (2 * 0.09)
    near_peak = np.abs(t - t1) < 0.05
    assert near_peak.sum() >= 3
    assert log10_abs[near_peak].max() > -3.0       # revived peak
    mid = (t > 0.3) & (t < 15.0)
    assert log10_abs[mid].min() < -300.0           # dead between peaks


def test_collapse_bath_suppression_logged(cfg_path, tmp_path):
    out = tmp_path / "collapse_bath"
    assert main(["collapse", "--config", str(cfg_path), "--out", str(out)]) == 0
    m = load_manifest(out)
    assert m["timescales"]["tau_2"] == pytest.approx(0.2360145, abs=1e-6)
    assert m["timescales"]["log10_recurrence_bath"] == pytest.approx(
        -2.99057e7 / math.log(10.0), rel=1e-4
    )


def test_collapse_echo_run(tmp_path):
    cfg = write_cfg(tmp_path, gamma=0.0, delta_g=0.005, n_spins=1000,
                    t_max=30.0, spacing="linear", samples=601)
    out = tmp_path / "echo"
    assert main(["collapse", "--config", str(cfg), "--out", str(out),
                 "--echo-at", "7.5"]) == 0
    m = load_manifest(out)
    assert m["pulse_time"] == 7.5
    assert abs(m["echo_revival_log10"] - math.log10(0.5)) < 1e-6
    assert (out / "echo.csv").exists()


def test_collapse_echo_revival_at_two_theta(tmp_path):
    # on the reference log grid no sample sits at 2 theta = 15; the revival
    # is evaluated there exactly: |r(2 theta)| = |r0| = 0.5
    out = tmp_path / "echo_ref"
    assert main(["collapse", "--config", str(REFERENCE_CFG), "--out", str(out),
                 "--echo-at", "7.5"]) == 0
    assert abs(load_manifest(out)["echo_revival_log10"] - math.log10(0.5)) < 1e-12


def test_collapse_echo_draws_the_couplings_once(tmp_path, monkeypatch):
    # the collapse and the echo run over one draw; echo.csv is the echo of it
    calls = []
    draw = offdiag.sample_couplings
    monkeypatch.setattr(offdiag, "sample_couplings",
                        lambda *a: calls.append(a) or draw(*a))
    cfg = write_cfg(tmp_path, delta_g=0.0045, samples=50)
    out = tmp_path / "echo"
    assert main(["collapse", "--config", str(cfg), "--out", str(out), "--echo-at", "7.5"]) == 0
    assert len(calls) == 1
    run = scenario.load_run_config(cfg)
    times = scenario.collapse_run(run, None).times
    echo = offdiag.spin_echo(7.5, draw(run.params, run.seed), run.state.r_ud, times)
    output.write_csv(tmp_path / "expected.csv",
                     ["t", "re_r", "im_r", "log10_abs_r", "osc_factor", "bath_factor",
                      "dispersion_factor"],
                     [output.column(c) for c in (
                         echo.times, echo.amplitude.real, echo.amplitude.imag, echo.log10_abs,
                         echo.osc_factor, echo.bath_factor, echo.dispersion_factor)])
    assert (out / "echo.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()


@pytest.mark.parametrize("theta", ["-1", "nan", "inf", "1e308"])
def test_collapse_rejects_bad_pulse_time(theta, cfg_path, tmp_path, capsys):
    # at 1e308 the revival time 2 theta overflows
    out = tmp_path / "o"
    assert main(["collapse", "--config", str(cfg_path), "--out", str(out),
                 "--echo-at", theta]) == 1
    assert "error: pulse time must be finite and non-negative" in capsys.readouterr().err
    assert not out.exists()  # a rejected command leaves no run directory


def test_collapse_without_t_max_ends_at_1_2_pi_over_g(tmp_path):
    for g in (0.09, 0.2):
        out = tmp_path / f"g{g}"
        assert main(["collapse", "--config", str(write_cfg(tmp_path, coupling_g=g)),
                     "--out", str(out)]) == 0
        last = (out / "offdiag.csv").read_text().splitlines()[-1]
        assert float(last.split(",")[0]) == 1.2 * math.pi / g


@pytest.mark.parametrize("extra", [[], ["--echo-at", "7.5"]])
def test_collapse_rejects_zero_coupling(extra, tmp_path, capsys):
    cfg = write_cfg(tmp_path, coupling_g=0.0)
    out = tmp_path / "o"
    assert main(["collapse", "--config", str(cfg), "--out", str(out), *extra]) == 1
    assert capsys.readouterr().err == "error: collapse requires a nonzero coupling g\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["register", "scenario"])
def test_command_integrates_one_sector(command, tmp_path, monkeypatch):
    # the down sector is the up one mirrored
    signs = []
    integrate = registration.integrate_registration
    monkeypatch.setattr(registration, "integrate_registration",
                        lambda sign, *a: signs.append(sign) or integrate(sign, *a))
    out = tmp_path / command
    assert main([command, "--config", str(REFERENCE_CFG), "--out", str(out)]) == 0
    assert signs == [+1]
    assert (out / "registration_down.csv").exists()


def test_register_command(cfg_path, tmp_path):
    out = tmp_path / "register"
    assert main(["register", "--config", str(cfg_path), "--out", str(out)]) == 0
    m = load_manifest(out)
    assert m["m_final_up"] == pytest.approx(0.996, abs=1e-3)
    assert m["m_final_down"] == pytest.approx(-0.996, abs=1e-3)
    assert m["terminal_up"] == "converged_ferro"
    assert m["tail_rate_fitted"] == pytest.approx(1e-3, rel=0.25)
    rows_up = (out / "registration_up.csv").read_text().splitlines()[1:]
    rows_down = (out / "registration_down.csv").read_text().splitlines()[1:]
    m_up = [float(r.split(",")[1]) for r in rows_up]
    m_down = [float(r.split(",")[1]) for r in rows_down]
    assert np.allclose(m_up, [-v for v in m_down], atol=1e-9)  # antisymmetric


@pytest.mark.parametrize("call", ["write", "ftruncate"])
def test_a_failed_write_names_its_file(call, cfg_path, tmp_path, monkeypatch, capsys):
    # os.write and os.ftruncate raise an OSError without a filename
    def no_space(*args):
        raise OSError(28, "No space left on device")

    out = tmp_path / "statics"
    with monkeypatch.context() as patch:
        patch.setattr(output.os, call, no_space)
        code = main(["statics", "--config", str(cfg_path), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: cannot write {out / 'landscape.csv'}: No space left on device\n")


def test_register_rejects_zero_coupling(tmp_path, capsys):
    cfg = write_cfg(tmp_path, coupling_g=0.0)
    out = tmp_path / "register_g0"
    assert main(["register", "--config", str(cfg), "--out", str(out)]) == 1
    assert "error: nothing to register: no system-apparatus coupling (g = 0)" in (
        capsys.readouterr().err)
    assert not out.exists()  # a rejected command leaves no run directory


# --- one measurement verdict: g > 0 and a bath that is on --------------------


@pytest.fixture()
def bath_off_cfg(tmp_path):
    path = tmp_path / "bath_off.cfg"
    path.write_text(REFERENCE_CFG.read_text() + "bath = off\n")
    return path


def test_register_rejects_bath_off(bath_off_cfg, tmp_path, capsys):
    out = tmp_path / "register_off"
    assert main(["register", "--config", str(bath_off_cfg), "--out", str(out)]) == 1
    assert "error: nothing to register: bath switched off (bath = off)" in (
        capsys.readouterr().err)
    assert not out.exists()


def test_sweep_bath_off_measures_nothing(bath_off_cfg, tmp_path):
    out = tmp_path / "sweep_off"
    assert main(["sweep", "--config", str(bath_off_cfg), "--out", str(out),
                 "--sweep", "coupling_g=0.05:0.2:4", "--sweep", "temperature=0.2:0.4:3"]) == 0
    rows = [r.split(",") for r in (out / "sweep.csv").read_text().splitlines()[1:]]
    assert len(rows) == 12
    for _, _, outcome, _, tau_reg, m_final in rows:
        assert (outcome, tau_reg, m_final) == ("not-a-measurement", "None", "0.0")


def test_scenario_reason_names_the_bath_toggle(bath_off_cfg, tmp_path):
    out = tmp_path / "scn_off"
    assert main(["scenario", "--config", str(bath_off_cfg), "--out", str(out)]) == 3
    reason = load_manifest(out)["reason"]
    assert "bath = off" in reason and "gamma = 0" not in reason
    out = tmp_path / "scn_gamma0"
    assert main(["scenario", "--config", str(write_cfg(tmp_path, gamma=0.0, delta_g=0.0045)),
                 "--out", str(out)]) == 3
    m = load_manifest(out)
    assert m["reason"] == (
        "no bath (gamma = 0): the magnet cannot relax, so nothing is registered")
    # every time scale is listed, those of the bath and of registration null
    assert set(m["timescales"]) == SCENARIO_TIMESCALES
    assert m["timescales"]["tau_2"] is None and m["timescales"]["tau_2_prime"] > 0


def test_register_failure_outcome(tmp_path):
    cfg = write_cfg(tmp_path, coupling_g=0.05)
    out = tmp_path / "register_fail"
    assert main(["register", "--config", str(cfg), "--out", str(out)]) == 0
    m = load_manifest(out)
    assert m["terminal_up"] == "trapped_paramagnetic"


def test_trapped_and_registered_register_manifests_share_their_keys(tmp_path):
    # the reference config, trapped at g = 0.05 and registered at g = 0.09:
    # a trapped run writes its crossing times and fitted tail rate as null,
    # and adds only tau_reg_error, the reason its tau_reg is null
    m = {}
    for g in (0.05, 0.09):
        out = tmp_path / f"g{g}"
        assert main(["register", "--config", str(write_cfg(tmp_path, coupling_g=g)),
                     "--out", str(out)]) == 0
        m[g] = load_manifest(out)
    assert m[0.05].keys() == m[0.09].keys() | {"tau_reg_error"}
    trapped = m[0.05]
    assert trapped["terminal_up"] == "trapped_paramagnetic"
    for key in ("crossing_time", "crossing_time_low", "crossing_time_high", "tail_rate_fitted"):
        assert trapped[key] is None, key
    assert trapped["tail_rate_predicted"] == m[0.09]["tail_rate_predicted"] == 1e-3


#: the time scales of every scenario manifest with a collapse; tau_reg_error
#: joins them only where tau_reg is undefined
SCENARIO_TIMESCALES = {"tau_red", "tau_2", "tau_2_prime", "log10_recurrence_bath",
                       "log10_recurrence_dispersion", "tau_reg_quadrature",
                       "tau_reg_asymptotic"}


def test_scenario_command_exit_codes(cfg_path, tmp_path):
    out = tmp_path / "scn"
    assert main(["scenario", "--config", str(cfg_path), "--out", str(out)]) == 0
    m = load_manifest(out)
    assert m["status"] == "completed"
    assert set(m["timescales"]) == SCENARIO_TIMESCALES
    assert m["final_state"]["branches"][0]["weight"] == 0.5
    assert m["entropy"]["delta_total"] > 0

    # g = 0.080 lies above the low-T g_c (0.0763) but below the statics g_c:
    # a trapped run reports no registration time
    for g in (0.05, 0.080):
        cfg_fail = write_cfg(tmp_path, coupling_g=g)
        assert main(["scenario", "--config", str(cfg_fail), "--out",
                     str(tmp_path / f"scnf{g}")]) == 2
        ts = load_manifest(tmp_path / f"scnf{g}")["timescales"]
        assert set(ts) == SCENARIO_TIMESCALES | {"tau_reg_error"}
        assert ts["tau_reg_quadrature"] is None and ts["tau_reg_asymptotic"] is None
        assert ts["tau_reg_error"] == "CriticalOrSubcritical"

    # above T = 3J/4 there is no spinodal, hence no tau_reg, yet both sectors
    # reach the ferromagnetic minimum at g = 0.5 and the measurement completes
    cfg_hot = write_cfg(tmp_path, temperature=0.8, coupling_g=0.5)
    assert main(["scenario", "--config", str(cfg_hot), "--out",
                 str(tmp_path / "scnh")]) == 0
    m = load_manifest(tmp_path / "scnh")
    assert m["status"] == "completed"
    assert m["timescales"]["tau_reg_quadrature"] is None
    assert m["timescales"]["tau_reg_asymptotic"] is None
    assert m["timescales"]["tau_reg_error"] == "CriticalOrSubcritical"

    cfg_nom = write_cfg(tmp_path, coupling_g=0.0)
    assert main(["scenario", "--config", str(cfg_nom), "--out",
                 str(tmp_path / "scnn")]) == 3
    assert "timescales" not in load_manifest(tmp_path / "scnn")  # no collapse to time


@pytest.mark.parametrize("keys, t_end", [
    ({"spacing": "log"}, 1.2 * math.pi / 1e-8),
    ({"spacing": "linear"}, 1.2 * math.pi / 1e-8),
    ({"t_max": 50.0}, 50.0),
])
def test_scenario_at_rest_at_zero_ends_the_collapse_at_its_own_end(keys, t_end, tmp_path):
    # at g = 1e-8 the up sector's rest point (about g/T) lies within
    # STOP_DELTA of 0, so neither sector leaves m = 0 and no registration
    # time bounds the run: the collapse ends at t_max, or 1.2 pi/g unset
    out = tmp_path / "rest"
    cfg = write_cfg(tmp_path, coupling_g=1e-8, **keys)
    assert main(["scenario", "--config", str(cfg), "--out", str(out)]) == 2
    times = [float(row.split(",")[0])
             for row in (out / "offdiag.csv").read_text().splitlines()[1:]]
    assert times[0] == 0.0 and times[-1] == t_end
    assert len(set(times)) == 400


def test_scenario_near_critical_verdict(tmp_path):
    # g = g_c(1 +- 1e-4): each sector runs to the attractor the statics give
    gc = critical_coupling(ModelParams(n_spins=100000, coupling_g=0.09, temperature=0.34,
                                       gamma=1e-3, debye_cutoff=50.0))
    for factor, code, kind, m_abs in ((1.0 + 1e-4, 0, "converged_ferro", 0.99632),
                                      (1.0 - 1e-4, 2, "trapped_paramagnetic", 0.35801)):
        cfg = write_cfg(tmp_path, coupling_g=repr(gc * factor))
        out = tmp_path / f"near{factor}"
        assert main(["scenario", "--config", str(cfg), "--out", str(out)]) == code
        m = load_manifest(out)
        assert m["stages"]["registration_up"] == m["stages"]["registration_down"] == kind
        summary = m["registration_summary"]
        assert summary["m_final_up"] == pytest.approx(m_abs, abs=1e-5)
        assert summary["m_final_down"] == pytest.approx(-m_abs, abs=1e-5)


@pytest.mark.parametrize("temperature", [0.05, 0.34, 0.7])
def test_no_registration_time_at_the_critical_coupling(temperature, tmp_path):
    # at g = g_c exactly the up sector is trapped, so tau_reg is undefined
    gc = _critical(temperature)
    cfg = write_cfg(tmp_path, coupling_g=repr(gc), temperature=temperature)
    report = scenario.run_scenario(scenario.load_run_config(cfg))
    assert report.sector_up.terminal is registration.TerminalKind.TRAPPED_PARAMAGNETIC
    assert report.timescales["tau_reg_quadrature"] is None
    assert report.timescales["tau_reg_error"] == "CriticalOrSubcritical"
    out = tmp_path / "reg"
    assert main(["register", "--config", str(cfg), "--out", str(out)]) == 0
    m = load_manifest(out)
    assert m["terminal_up"] == "trapped_paramagnetic"
    assert m["tau_reg_quadrature"] is None
    assert m["tau_reg_error"] == "CriticalOrSubcritical"


def test_register_keys_match_scenario_summary(tmp_path):
    reg, scn = tmp_path / "reg", tmp_path / "scn"
    assert main(["register", "--config", str(REFERENCE_CFG), "--out", str(reg)]) == 0
    assert main(["scenario", "--config", str(REFERENCE_CFG), "--out", str(scn)]) == 0
    summary = load_manifest(scn)["registration_summary"]
    registered = load_manifest(reg)
    assert {k: registered[k] for k in summary} == summary
    timescales = load_manifest(scn)["timescales"]
    for key in ("tau_reg_quadrature", "tau_reg_asymptotic"):
        assert registered[key] == timescales[key]


MANIFEST_RUNS = {
    "validate": ["validate"],
    "statics": ["statics"],
    "collapse": ["collapse", "--echo-at", "7.5"],
    "register": ["register"],
    "scenario": ["scenario"],
    "sweep": ["sweep", "--sweep", "coupling_g=0.05:0.11:3"],
}


@pytest.mark.parametrize("command", sorted(MANIFEST_RUNS))
def test_manifest_matches_the_files_on_disk(command, tmp_path):
    import hashlib

    out = tmp_path / command
    assert main([*MANIFEST_RUNS[command], "--config", str(REFERENCE_CFG),
                 "--out", str(out)]) == 0
    m = load_manifest(out)
    names = [entry["name"] for entry in m["files"]]
    assert names == sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    assert names or command == "validate", "manifest must list the run artifacts"
    for entry in m["files"]:
        blob = (out / entry["name"]).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == entry["sha256"]
        assert len(blob) == entry["bytes"]


def test_manifest_lists_only_this_commands_files(tmp_path):
    out = tmp_path / "shared"
    for command in ("scenario", "statics"):
        assert main([command, "--config", str(REFERENCE_CFG), "--out", str(out)]) == 0
    m = load_manifest(out)
    assert [entry["name"] for entry in m["files"]] == [
        "landscape.csv", "landscape_down.dat", "landscape_up.dat",
        "stationary_down.csv", "stationary_up.csv"]
    assert (out / "offdiag.csv").exists()  # the scenario's, no longer certified


def test_manifests_hold_the_stage_dicts_as_returned(tmp_path):
    # the key sets of the dicts that the stages return and the manifests store
    check_keys = {"name", "lhs", "rhs", "required_factor", "passed", "margin_ratio", "counted"}
    tail_rate = {"tail_rate_fitted", "tail_rate_predicted"}
    m = {}
    for command in ("validate", "statics", "register", "scenario"):
        out = tmp_path / command
        assert main([command, "--config", str(REFERENCE_CFG), "--out", str(out)]) == 0
        m[command] = load_manifest(out)
    for regime in (m["validate"]["regime"], m["scenario"]["regime"]):
        assert regime.keys() == {"checks", "overall_valid", "margin"}
        assert len(regime["checks"]) == 8
        assert all(check.keys() == check_keys for check in regime["checks"])
    assert m["statics"]["ferromagnetic_gap"].keys() == {"gap", "asymptote_2exp_minus_2j_over_t"}
    assert tail_rate <= m["register"].keys()
    assert tail_rate <= m["scenario"]["registration_summary"].keys()
    final = m["scenario"]["final_state"]
    assert final.keys() == {"branches", "pointer_variance", "log10_offdiag_residual", "t_final"}
    assert len(final["branches"]) == len(final["pointer_variance"]) == 2
    assert all(b.keys() == {"weight", "pointer", "r_uu", "r_dd"} for b in final["branches"])
    assert m["scenario"]["entropy"].keys() == {
        "s_system_initial", "s_system_final", "s_magnet_initial", "s_magnet_final",
        "bath_entropy_change_estimate", "delta_total"}
    # write_run stores the report's dicts themselves, not reshaped copies
    report = scenario.run_scenario(scenario.load_run_config(REFERENCE_CFG))
    payload = scenario.write_run(report, tmp_path / "again")
    for key in ("regime", "final_state", "entropy", "timescales"):
        assert payload[key] is getattr(report, key), key


def test_cached_parser_keeps_no_state_between_commands(tmp_path):
    cfg = write_cfg(tmp_path, n_spins=10000)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--sweep", "coupling_g=0.05:0.11:2", "--sweep", "temperature=0.3:0.34:2"]) == 0
    assert len(load_manifest(out)["axes"]) == 2
    assert main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--sweep", "coupling_g=0.05:0.11:2"]) == 0
    assert [a["key"] for a in load_manifest(out)["axes"]] == ["coupling_g"]

    out = tmp_path / "collapse"
    assert main(["collapse", "--config", str(REFERENCE_CFG), "--out", str(out),
                 "--echo-at", "7.5"]) == 0
    assert load_manifest(out)["pulse_time"] == 7.5
    assert main(["collapse", "--config", str(REFERENCE_CFG), "--out", str(out)]) == 0
    assert "pulse_time" not in load_manifest(out)


def test_validate_command(cfg_path, tmp_path, capsys):
    out = tmp_path / "val"
    assert main(["validate", "--config", str(cfg_path), "--out", str(out)]) == 0
    m = load_manifest(out)
    assert m["regime"]["overall_valid"] is True
    printed = capsys.readouterr().out
    assert "overall_valid = True" in printed


def test_validate_margin_flag(tmp_path, capsys):
    cfg = write_cfg(tmp_path, n_spins=50)
    out = tmp_path / "val50"
    main(["validate", "--config", str(cfg), "--out", str(out), "--margin", "100"])
    m = load_manifest(out)
    checks = {c["name"]: c for c in m["regime"]["checks"]}
    assert checks["n_large"]["passed"] is False  # 50 < 100 at margin 100
    assert m["regime"]["margin"] == 100.0


def test_sweep_coupling_through_critical(tmp_path):
    cfg = write_cfg(tmp_path, n_spins=10000)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--sweep", "coupling_g=0.05:0.11:7"]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[0].startswith("coupling_g,outcome")
    outcomes = [(float(r.split(",")[0]), r.split(",")[1]) for r in rows[1:]]
    for g, outcome in outcomes:
        if g < 0.08:
            assert outcome.startswith("failed")
        elif g > 0.082:
            assert outcome.startswith("registered")


def test_sweep_margin_flag(tmp_path):
    cfg = write_cfg(tmp_path, n_spins=50)
    out = tmp_path / "sweep50"
    assert main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--sweep", "coupling_g=0.06:0.10:3", "--margin", "100"]) == 0
    assert load_manifest(out)["config"]["margin"] == 100.0
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert rows and all(r.split(",")[1].endswith("/invalid-regime") for r in rows)


def test_sweep_counts_the_errors_its_rows_absorb(tmp_path):
    # a half-integer n_spins is an invalid-params row (a ConfigError); at
    # T = 0.8 >= 3J/4 the rows register but tau_reg is undefined
    cfg = write_cfg(tmp_path, temperature=0.8)
    out = tmp_path / "sweep_err"
    assert main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--sweep", "n_spins=1000:1001:3", "--sweep", "coupling_g=0.6:1.0:3"]) == 0
    rows = [r.split(",") for r in (out / "sweep.csv").read_text().splitlines()[1:]]
    outcomes = [row[2] for row in rows]
    assert outcomes.count("invalid-params") == 3
    assert outcomes.count("registered") + outcomes.count("registered/invalid-regime") == 6
    assert "registered/invalid-regime" in outcomes  # g = J
    assert all(row[4] == "None" for row in rows)
    assert load_manifest(out)["errors"] == {"ConfigError": 3, "CriticalOrSubcritical": 6}

    out = tmp_path / "sweep_clean"
    assert main(["sweep", "--config", str(REFERENCE_CFG), "--out", str(out),
                 "--sweep", "coupling_g=0.05:0.11:4"]) == 0
    assert load_manifest(out)["errors"] == {}


def assert_not_a_measurement(out, base, key):
    """Each row is not a measurement, with the m_final of the up flow from m = 0."""
    rows = [r.split(",") for r in (out / "sweep.csv").read_text().splitlines()[1:]]
    assert rows
    for value, outcome, _, tau_reg, m_final in rows:
        assert (outcome, tau_reg) == ("not-a-measurement", "None")
        p = replace(base, **{key: float(value)})
        assert float(m_final) == registration.integrate_registration(+1, p).m_final == 0.0


def test_sweep_temperature_at_zero_coupling(tmp_path):
    # the statics put the global minimum of F at |m| > 0.9 below T ~ 0.36, but
    # at g = 0 the rate at m = 0 is exactly 0: the pointer does not move
    cfg = write_cfg(tmp_path, coupling_g=0.0, n_spins=1000)
    out = tmp_path / "sweepT"
    assert main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--sweep", "temperature=0.30:0.42:7"]) == 0
    base = replace(REFERENCE_PARAMS, coupling_g=0.0, n_spins=1000)
    assert_not_a_measurement(out, base, "temperature")


def test_sweep_coupling_without_bath(tmp_path):
    # gamma = 0: nothing relaxes, so no row registers, above g_c or not
    cfg = write_cfg(tmp_path, gamma=0.0)
    out = tmp_path / "sweep_g"
    assert main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--sweep", "coupling_g=0.05:0.2:4"]) == 0
    assert_not_a_measurement(out, replace(REFERENCE_PARAMS, gamma=0.0), "coupling_g")


# --- the sweep from the statics ------------------------------------------------


def sweep_point(out, g, temperature):
    """The row of a one-point sweep at (g, T) on configs/reference.cfg."""
    assert main(["sweep", "--config", str(REFERENCE_CFG), "--out", str(out),
                 "--sweep", f"coupling_g={g!r}:{g!r}:1",
                 "--sweep", f"temperature={temperature!r}:{temperature!r}:1"]) == 0
    header, row = (out / "sweep.csv").read_text().splitlines()
    return dict(zip(header.split(","), row.split(",")))


def assert_row_matches_trajectory(out, g, temperature):
    """The statics-only row equals the per-point trajectory's, bit for bit."""
    p = replace(REFERENCE_PARAMS, coupling_g=g, temperature=temperature)
    row = sweep_point(out, g, temperature)
    up = registration.integrate_registration(+1, p)
    registered = up.terminal is registration.TerminalKind.CONVERGED_FERRO
    assert row["outcome"].split("/")[0] == ("registered" if registered else "failed")
    assert float(row["m_final"]) == up.m_final
    tau = scenario.registration_times(p)["tau_reg_quadrature"] if registered else None
    assert row["tau_reg"] == (repr(tau) if tau is not None else "None")
    return row


def _critical(temperature):
    return critical_coupling(replace(REFERENCE_PARAMS, temperature=temperature))


SWEEP_EDGES = [
    *((math.nextafter(_critical(t), 0.0), t) for t in (0.05, 0.34, 0.7)),
    *((_critical(t), t) for t in (0.05, 0.34, 0.7)),
    *((math.nextafter(_critical(t), 1.0), t) for t in (0.05, 0.34, 0.7)),
    (0.05, 0.75), (0.5, 0.8), (0.6, 1.2),       # no spinodal, T >= 3J/4
    (3.4e-7, 0.34),                             # attractor just past the stop distance
]
#: attractor m ~ g/T within the stop distance 1e-6 of m = 0; at T = 0.34 the
#: second g is psi(1e-6), whose attractor is 1e-6 to the last bit
SWEEP_STOPPED = [(1e-7, 0.34), (3.3999999999911334e-07, 0.34), (1e-6, 1.2)]


@pytest.mark.parametrize("g, temperature", SWEEP_EDGES + SWEEP_STOPPED)
def test_sweep_row_matches_trajectory_at_edges(g, temperature, tmp_path):
    row = assert_row_matches_trajectory(tmp_path / "one", g, temperature)
    assert (row["m_final"] == "0.0") == ((g, temperature) in SWEEP_STOPPED)


@settings(deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(g=st.floats(1e-9, 0.6), temperature=st.floats(0.02, 1.2))
def test_sweep_row_matches_trajectory(g, temperature, tmp_path):
    assert_row_matches_trajectory(tmp_path / "one", g, temperature)


@pytest.fixture()
def count_calls(monkeypatch):
    """The positional arguments of every call of integrate_registration,
    stationary_magnetizations and first_stationary, by name."""
    calls = {"integrate_registration": [], "stationary_magnetizations": [],
             "first_stationary": []}
    for module, name in ((registration, "integrate_registration"),
                         (statics, "stationary_magnetizations"),
                         (statics, "first_stationary")):
        def counted(*a, _f=getattr(module, name), _name=name, **k):
            calls[_name].append(a)
            return _f(*a, **k)
        monkeypatch.setattr(module, name, counted)
    return calls


def test_sweep_without_t_max_runs_no_trajectory(count_calls, tmp_path):
    # one rest point per measured point, on the Python floats of the grid
    out = tmp_path / "s"
    assert main(["sweep", "--config", str(REFERENCE_CFG), "--out", str(out),
                 "--sweep", "coupling_g=0.02:0.3:5", "--sweep", "temperature=0.2:0.8:4"]) == 0
    assert {name: len(c) for name, c in count_calls.items()} == {
        "integrate_registration": 0, "stationary_magnetizations": 0, "first_stationary": 20}
    for sign, p in count_calls["first_stationary"]:
        assert sign == +1
        assert type(p.coupling_g) is float and type(p.temperature) is float
    outcomes = {r.split(",")[2].split("/")[0]
                for r in (out / "sweep.csv").read_text().splitlines()[1:]}
    assert outcomes == {"registered", "failed"}


def test_sweep_with_t_max_integrates_each_point(count_calls, tmp_path):
    cfg = tmp_path / "t_max.cfg"
    cfg.write_text(REFERENCE_CFG.read_text() + "t_max = 50.0\n")
    out = tmp_path / "s"
    assert main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--sweep", "coupling_g=0.05:0.2:4", "--sweep", "temperature=0.2:0.4:3"]) == 0
    assert len(count_calls["integrate_registration"]) == 12
    rows = [r.split(",") for r in (out / "sweep.csv").read_text().splitlines()[1:]]
    assert len(rows) == 12
    for g, temperature, outcome, _, tau_reg, m_final in rows:
        assert outcome.split("/")[0] == "failed" and tau_reg == "None"
        p = replace(REFERENCE_PARAMS, coupling_g=float(g), temperature=float(temperature))
        up = registration.integrate_registration(+1, p, 50.0)
        assert up.terminal is registration.TerminalKind.MAX_TIME_REACHED
        assert float(m_final) == up.m_final


def test_sweep_row_computes_only_what_it_keeps(tmp_path, monkeypatch):
    # a registered row takes g_c once, for its column and for the quadrature
    # tau_reg, and builds one ModelParams; the asymptotic tau_reg is not in
    # the table
    calls = {"critical_coupling": 0, "registration_time_asymptotic": 0, "ModelParams": 0}
    for module, name in ((statics, "critical_coupling"),
                         (statics, "registration_time_asymptotic")):
        def counted(*a, _f=getattr(module, name), _name=name, **k):
            calls[_name] += 1
            return _f(*a, **k)
        monkeypatch.setattr(module, name, counted)
    post_init = ModelParams.__post_init__

    def counted_post_init(self):
        calls["ModelParams"] += 1
        post_init(self)

    monkeypatch.setattr(ModelParams, "__post_init__", counted_post_init)
    out = tmp_path / "s"
    assert main(["sweep", "--config", str(REFERENCE_CFG), "--out", str(out),
                 "--sweep", "coupling_g=0.09:0.12:3"]) == 0
    rows = [r.split(",") for r in (out / "sweep.csv").read_text().splitlines()[1:]]
    assert [r[1].split("/")[0] for r in rows] == ["registered"] * 3
    assert all(r[3] != "None" for r in rows)
    # one ModelParams for the config file, then one per point
    assert calls == {"critical_coupling": 3, "registration_time_asymptotic": 0,
                     "ModelParams": 1 + 3}


def test_sweep_row_takes_psi_only_at_the_edges_it_needs(tmp_path, monkeypatch):
    # outside the bisection loop a row takes psi once for g_c, once at m- for
    # its rest point, and at m+ only past g_c: at most 3 calls a row, where
    # the brackets of the full scan take psi at both edges again; none at
    # T >= 3J/4, where g_c is undefined and no edge exists
    calls = {"_psi": 0, "critical_coupling": 0}
    for name in calls:
        def counted(*a, _f=getattr(statics, name), _name=name, **k):
            calls[_name] += 1
            return _f(*a, **k)
        monkeypatch.setattr(statics, name, counted)
    out = tmp_path / "s"
    assert main(["sweep", "--config", str(REFERENCE_CFG), "--out", str(out),
                 "--sweep", "coupling_g=0.02:0.3:5", "--sweep", "temperature=0.2:0.8:4"]) == 0
    rows = [r.split(",") for r in (out / "sweep.csv").read_text().splitlines()[1:]]
    assert len(rows) == 20 and calls["critical_coupling"] == 20
    assert {r[2].split("/")[0] for r in rows} == {"registered", "failed"}
    needed = sum(0 if gc == "None" else 2 + (float(g) > float(gc)) for g, _, _, gc, *_ in rows)
    assert calls["_psi"] == needed <= 3 * len(rows)


def test_sweep_requires_axis(cfg_path, tmp_path, capsys):
    assert main(["sweep", "--config", str(cfg_path), "--out",
                 str(tmp_path / "x")]) == 1
    assert "sweep" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()  # a rejected command leaves no run directory


def test_sweep_rejects_bad_axis(cfg_path, tmp_path):
    for axis in ("coupling_g=banana", "hbar=1:2:3", "coupling_g=nan:0.1:3",
                 "coupling_g=0.05:inf:3", "temperature=-inf:0.3:2", "coupling_g=0.05:0.1:0"):
        assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "x"),
                     "--sweep", axis]) == 1, axis
    assert not (tmp_path / "x").exists()


def test_sweep_rejects_three_axes(cfg_path, tmp_path, capsys):
    out = tmp_path / "x"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out),
                 "--sweep", "coupling_g=0.05:0.1:2", "--sweep", "temperature=0.2:0.3:2",
                 "--sweep", "gamma=1e-3:2e-3:2"]) == 1
    assert capsys.readouterr().err == "error: at most two sweep axes are supported\n"
    assert not out.exists()


def test_sweep_coupling_j_row_matches_register(cfg_path, tmp_path):
    # every field of ModelParams is a sweep axis, coupling_j too; each row
    # has the outcome and m_final of register at that J
    out = tmp_path / "sweepJ"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out),
                 "--sweep", "coupling_j=0.5:2.5:3"]) == 0
    rows = [r.split(",") for r in (out / "sweep.csv").read_text().splitlines()[1:]]
    assert [r[1].split("/")[0] for r in rows] == ["failed", "registered", "registered"]
    for j, outcome, _, _, m_final in rows:
        reg = tmp_path / f"register_{j}"
        assert main(["register", "--config", str(write_cfg(tmp_path, coupling_j=j)),
                     "--out", str(reg)]) == 0
        m = load_manifest(reg)
        assert (m["terminal_up"] == "converged_ferro") == outcome.startswith("registered")
        assert m["m_final_up"] == float(m_final)


def test_sweep_rejects_repeated_key(cfg_path, tmp_path, capsys):
    # the second axis would override the first in every row's params while
    # the rows kept the first axis's labels
    out = tmp_path / "x"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out),
                 "--sweep", "coupling_g=0.01:0.2:2", "--sweep", "coupling_g=0.05:0.06:2"]) == 1
    assert "coupling_g" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_non_integer_n_spins_is_invalid(cfg_path, tmp_path):
    # a non-integer N is rejected by ModelParams, not rounded and mislabelled
    out = tmp_path / "sweepN"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out),
                 "--sweep", "n_spins=1000.5:1001.5:3"]) == 0
    rows = [r.split(",") for r in (out / "sweep.csv").read_text().splitlines()[1:]]
    assert [r[:2] for r in rows] == [["1000.5", "invalid-params"], ["1001.0", "registered"],
                                     ["1001.5", "invalid-params"]]


def test_sweep_point_past_the_t_over_j_bound_is_invalid(cfg_path, tmp_path):
    out = tmp_path / "sweepT"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out),
                 "--sweep", "temperature=1e-300:0.34:2"]) == 0
    rows = [r.split(",") for r in (out / "sweep.csv").read_text().splitlines()[1:]]
    assert [r[:2] for r in rows] == [["1e-300", "invalid-params"], ["0.34", "registered"]]
    assert load_manifest(out)["errors"] == {"ConfigError": 1}


def test_register_and_sweep_at_a_huge_coupling(tmp_path):
    # at g = 1e200, eps ~ 1e202: the bottleneck cubic's real root is about
    # -eps^(1/3), and tau_reg is (3/gamma T) 2 pi/(3 sqrt 3) eps^(-2/3)
    reg, sweep = tmp_path / "register", tmp_path / "sweep"
    cfg = write_cfg(tmp_path, coupling_g=1e200)
    assert main(["register", "--config", str(cfg), "--out", str(reg)]) == 0
    tau = load_manifest(reg)["tau_reg_quadrature"]
    gc = (2.0 * 0.34 / 3.0) * math.sqrt(0.34 / 3.0)
    eps = 2.0 * (1e200 - gc) / gc
    assert tau == pytest.approx(3.0 / (1e-3 * 0.34) * 2.0 * math.pi / (3.0 * math.sqrt(3.0))
                                * eps ** (-2.0 / 3.0), rel=1e-13, abs=0.0)
    assert main(["sweep", "--config", str(REFERENCE_CFG), "--out", str(sweep),
                 "--sweep", "coupling_g=1e200:1e200:1"]) == 0
    (row,) = [r.split(",") for r in (sweep / "sweep.csv").read_text().splitlines()[1:]]
    assert row[1].startswith("registered") and row[3] == repr(tau)


def test_register_at_a_huge_rate_warns_nothing(tmp_path):
    # at gamma = 1e300 the rate is near 1e299: ode.kronrod's rounding bound
    # sums |w/v| times dv/|v|, a ratio of two such numbers, so nothing in it
    # overflows, and no warning changes the bytes
    cfg = write_cfg(tmp_path, gamma=1e300)
    runs = {}
    for action in ("error", "ignore"):
        out = tmp_path / action
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            assert main(["register", "--config", str(cfg), "--out", str(out)]) == 0
        runs[action] = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
    assert runs["error"] == runs["ignore"]
    assert load_manifest(tmp_path / "error")["tail_rate_fitted"] == pytest.approx(
        1.0145331161132985e300, rel=1e-12)


def _csv_columns(path):
    header, *rows = [line.split(",") for line in path.read_text().splitlines()]
    return {name: [float(row[i]) for row in rows] for i, name in enumerate(header)}


@pytest.mark.parametrize("k", [-900, 600])
def test_register_is_covariant_under_a_power_of_two_gamma(tmp_path, k):
    # gamma -> 2^k gamma scales the rate, and with it every rule, its Gauss
    # estimate and its rounding bound, by exact powers of two: the halving
    # decides alike, so t maps by 2^-k and dm/dt by 2^k bit for bit, and m
    # and F keep theirs, with no warning on the way
    runs = {}
    for name, gamma in (("base", 1e-3), ("scaled", math.ldexp(1e-3, k))):
        out = tmp_path / name
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["register", "--config", str(write_cfg(tmp_path, gamma=repr(gamma))),
                         "--out", str(out)]) == 0
        runs[name] = {s: _csv_columns(out / f"registration_{s}.csv") for s in ("up", "down")}
    for sector, base in runs["base"].items():
        scaled = runs["scaled"][sector]
        assert len(scaled["t"]) == len(base["t"]) > 200
        assert scaled["m"] == base["m"]
        assert scaled["free_energy"] == base["free_energy"]
        assert scaled["t"] == [math.ldexp(t, -k) for t in base["t"]]
        assert scaled["dm_dt"] == [math.ldexp(v, k) for v in base["dm_dt"]]


#: J = 2e-308, g = 1.98e-308, T = 1.5e-323: the low-temperature g_c
#: (2T/3) sqrt(T/3J) underflows to 0
SUBNORMAL_T = {"coupling_j": 2e-308, "coupling_g": 1.98e-308, "temperature": 1.5e-323}


def test_sweep_counts_an_underflowing_low_temperature_g_c(tmp_path):
    # the registered point's tau_reg would divide by that 0: it is None, and
    # the sweep counts the error and exits 0
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(write_cfg(tmp_path, **SUBNORMAL_T)), "--out", str(out),
                 "--sweep", "coupling_g=1.98e-308:1.98e-308:1"]) == 0
    (row,) = [r.split(",") for r in (out / "sweep.csv").read_text().splitlines()[1:]]
    assert row[1].startswith("registered") and row[3] == "None"
    assert load_manifest(out)["errors"] == {"CriticalOrSubcritical": 1}


def test_register_error_names_m_as_a_plain_float(tmp_path, capsys):
    # near the attractor the subnormal rate rounds to 0; the error line names
    # m as a float, not as numpy's repr of one
    out = tmp_path / "register"
    assert main(["register", "--config", str(write_cfg(tmp_path, **SUBNORMAL_T)),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the rate does not point toward the attractor at m = 0.99999")
    assert "np.float64" not in err
    assert not out.exists()


def test_register_with_an_underflowing_rounding_bound_finishes_in_bounded_memory(tmp_path):
    # at T = 1.07e-307 the rate is near 1e-302, whose square underflows; the
    # rounding bound must not divide by it, and the halving must stay within
    # its budget: under a 2 GiB address-space cap the command ends in time,
    # with a result or an error line
    cfg = write_cfg(tmp_path, coupling_j=1.4082031538517637e-299,
                    coupling_g=1.3022908082884223e-299, temperature=1.071545836260719e-307)
    cap = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
           "from curieweiss.cli import main; sys.exit(main(sys.argv[1:]))")
    # one BLAS thread, so that the buffers OpenBLAS reserves per thread stay
    # far below the cap on a many-core host
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", cap, "register", "--config", str(cfg),
                           "--out", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode in (0, 1), proc.stderr
    assert proc.returncode == 0 or proc.stderr.startswith("error: ")


def test_collapse_at_a_huge_rate_warns_nothing(tmp_path):
    # at gamma = 1e300 the bath exponent N chi(t) overflows to inf at late
    # times; its -inf is the model's value, a bath factor of 0, with no warning
    cfg = write_cfg(tmp_path, gamma=1e300)
    runs = {}
    for action in ("error", "ignore"):
        out = tmp_path / action
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            assert main(["collapse", "--config", str(cfg), "--out", str(out)]) == 0
        runs[action] = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
    assert runs["error"] == runs["ignore"]
    rows = [r.split(",") for r in runs["error"]["offdiag.csv"].decode().splitlines()[1:]]
    assert rows[0][5] == "1.0" and {r[5] for r in rows[1:]} == {"0.0"}
    assert rows[-1][3] == "-inf"
    assert load_manifest(tmp_path / "error")["timescales"]["log10_recurrence_bath"] == "-inf"


@pytest.mark.parametrize("delta_g", [0.0, 0.0045])
@pytest.mark.parametrize("command", ["collapse", "scenario"])
def test_collapse_and_scenario_at_n_beyond_two_to_the_63(tmp_path, monkeypatch, command,
                                                         delta_g):
    # N = 1e30: the multiplicities stay Python ints, which no int64 holds.
    # The config reads the count's digits exactly
    draws = []
    draw = offdiag.sample_couplings
    monkeypatch.setattr(offdiag, "sample_couplings",
                        lambda *args: draws.append(draw(*args)) or draws[-1])
    cfg, out = write_cfg(tmp_path, n_spins=10**30, delta_g=delta_g), tmp_path / command
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    manifest = load_manifest(out)
    n = manifest["config"]["n_spins"]
    assert n == 10**30
    assert manifest["timescales"]["tau_red"] == pytest.approx(
        1.0 / (0.09 * math.sqrt(2.0 * n)), rel=1e-15, abs=0.0)
    (couplings,) = draws
    assert len(couplings) == (2 if delta_g else 1)
    assert all(type(count) is int for _, count in couplings)
    assert sum(count for _, count in couplings) == n


@pytest.mark.parametrize("command", ["collapse", "scenario"])
def test_collapse_and_scenario_reject_n_beyond_the_largest_double(tmp_path, capsys, command):
    # the digits are read exactly, so N = 10**400 reaches ModelParams, which
    # rejects a count that float() cannot hold
    cfg, out = write_cfg(tmp_path, n_spins=10**400), tmp_path / command
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert "error: n_spins must be at most the largest double" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OPENBLAS_CORETYPE selects x86-64 kernels only")
@pytest.mark.parametrize("argv, overrides, names", [
    # a BLAS dot product rounds once with FMA (Haswell) and twice without
    # (Sandybridge); the cosine product sums its pairs itself
    (["collapse", "--echo-at", "7.5"], {"delta_g": 0.0045},
     ["echo.csv", "manifest.json", "offdiag.csv", "offdiag_log10.dat"]),
    # the tail fit's sums are exact (fsum), so its slope at g = 1e200 is too
    (["register"], {"coupling_g": 1e200},
     ["manifest.json", "registration_down.csv", "registration_down.dat",
      "registration_up.csv", "registration_up.dat"]),
], ids=["collapse-dispersed-echo", "register-g-1e200"])
def test_artifact_bytes_do_not_depend_on_the_blas_kernel(tmp_path, argv, overrides, names):
    cfg = write_cfg(tmp_path, **overrides)
    runs = {}
    for core in ("Haswell", "Sandybridge"):
        out = tmp_path / core
        env = {**os.environ, "OPENBLAS_CORETYPE": core,
               "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        proc = subprocess.run([sys.executable, "-m", "curieweiss.cli", argv[0], "--config",
                               str(cfg), "--out", str(out), *argv[1:]],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        runs[core] = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
    assert sorted(runs["Haswell"]) == names
    assert runs["Haswell"] == runs["Sandybridge"]


#: the reference point with every energy scaled by J = 2.5, and a coupling spread
DISPERSED_J = {"coupling_j": 2.5, "coupling_g": 0.225, "temperature": 0.85, "delta_g": 0.0045}


@pytest.mark.parametrize("overrides, argv", [
    ({}, ["scenario", "--seed", "5"]),
    # a grid across g_c(T) and past T = 3J/4, where the spinodal ends
    ({}, ["sweep", "--sweep", "coupling_g=0.02:0.3:5", "--sweep", "temperature=0.2:0.8:4"]),
    (DISPERSED_J, ["scenario", "--seed", "5"]),
    (DISPERSED_J, ["collapse", "--echo-at", "7.5", "--seed", "5"]),
    (DISPERSED_J, ["sweep", "--sweep", "coupling_g=0.05:0.75:5",
                   "--sweep", "temperature=0.5:2.0:4"]),
], ids=["scenario", "sweep", "j2.5-scenario", "j2.5-collapse-echo", "j2.5-sweep"])
def test_cli_determinism_byte_identical(overrides, argv, tmp_path):
    cfg = write_cfg(tmp_path, **overrides)
    for sub in ("r1", "r2"):
        assert main([*argv, "--config", str(cfg), "--out", str(tmp_path / sub)]) == 0
    a, b = tmp_path / "r1", tmp_path / "r2"
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_cli_error_reporting(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("n_spins = 10\n")
    assert main(["scenario", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert "error:" in capsys.readouterr().err
    # non-integer counts are rejected, not truncated; a NaN state is rejected
    for key, value in (("n_spins", 100000.9), ("samples", 50.7), ("seed", 3.9)):
        cfg = write_cfg(tmp_path, **{key: value})
        assert main(["scenario", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert key in capsys.readouterr().err
    cfg = write_cfg(tmp_path, r_uu="nan")
    for command in ("validate", "statics", "collapse", "register", "scenario", "sweep"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "non-finite" in capsys.readouterr().err
    # a negative seed, from the config or the command line, and a missing file
    dispersed = {"delta_g": 0.0045}
    for overrides, extra in (({"seed": -1, **dispersed}, []),
                             (dispersed, ["--seed", "-1"])):
        cfg = write_cfg(tmp_path, **overrides)
        assert main(["collapse", "--config", str(cfg), "--out", str(tmp_path / "o"), *extra]) == 1
        assert "error: seed" in capsys.readouterr().err
    missing = str(tmp_path / "nonexistent.cfg")
    assert main(["validate", "--config", missing, "--out", str(tmp_path / "o")]) == 1
    assert "error: cannot read config file" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


T_MAX_ERROR = "error: t_max must be positive and finite"

#: case -> (config overrides, start of the error line)
BAD_RUN_KEYS = {
    "spacing": ({"spacing": "cubic"}, "error: spacing must be 'linear' or 'log'"),
    "samples": ({"samples": 1}, "error: samples must be at least 2"),
    "bath": ({"bath": "on", "gamma": 0.0}, "error: bath mechanism requested but gamma = 0"),
    "bath_unreadable": ({"bath": "maybe"},
                        "error: config key 'bath': expected on/off, got 'maybe'\n"),
    "coupling_g_unreadable": ({"coupling_g": "abc"},
                              "error: config key 'coupling_g': not a number: 'abc'\n"),
    # the coupling spread has no switch: delta_g > 0 alone disperses the collapse
    "dispersion": ({"dispersion": "off", "delta_g": 0.0045},
                   "error: unknown config keys: ['dispersion']"),
    # time grids and registration cuts end at t_max: it must be positive and finite
    "t_max_negative": ({"t_max": -1}, T_MAX_ERROR),
    "t_max_zero": ({"t_max": 0}, T_MAX_ERROR),
    "t_max_nan": ({"t_max": "nan"}, T_MAX_ERROR),
    "t_max_inf": ({"t_max": "inf"}, T_MAX_ERROR),
}

ALL_COMMANDS = ["validate", "statics", "collapse", "register", "scenario", "sweep"]


def run_writes_nothing(command, cfg, tmp_path, capsys) -> str:
    """Run command on cfg; assert exit 1 and no run directory; return stderr."""
    out = tmp_path / "o"
    extra = ["--sweep", "coupling_g=0.05:0.11:2"] if command == "sweep" else []
    assert main([command, "--config", str(cfg), "--out", str(out), *extra]) == 1
    assert not out.exists()
    return capsys.readouterr().err


@pytest.mark.parametrize("command", ALL_COMMANDS)
@pytest.mark.parametrize("key", sorted(BAD_RUN_KEYS))
def test_every_command_rejects_bad_run_keys(command, key, tmp_path, capsys):
    overrides, error = BAD_RUN_KEYS[key]
    err = run_writes_nothing(command, write_cfg(tmp_path, **overrides), tmp_path, capsys)
    assert err.startswith(error)


@pytest.mark.parametrize("command", ALL_COMMANDS)
@pytest.mark.parametrize("overrides", [{"temperature": 1e-300}, {"coupling_j": 1e300}])
def test_every_command_rejects_t_over_j_at_or_below_the_bound(command, overrides, tmp_path,
                                                              capsys):
    # past the bound the ferromagnetic minimum cannot be represented, and
    # the statics' atanh left its domain (a ValueError traceback)
    err = run_writes_nothing(command, write_cfg(tmp_path, **overrides), tmp_path, capsys)
    assert err.startswith(f"error: temperature / coupling_j must exceed {MIN_T_OVER_J!r}, got ")


@pytest.mark.parametrize("command", ALL_COMMANDS)
def test_every_command_runs_at_the_least_t_over_j(command, tmp_path):
    cfg = write_cfg(tmp_path, temperature=repr(math.nextafter(MIN_T_OVER_J, 1.0)))
    out = tmp_path / "o"
    extra = ["--sweep", "coupling_g=0.05:0.11:2"] if command == "sweep" else []
    assert main([command, "--config", str(cfg), "--out", str(out), *extra]) == 0


@pytest.mark.parametrize("command", ALL_COMMANDS)
def test_every_command_rejects_a_config_that_is_not_utf8(command, tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    cfg.write_bytes(cfg.read_bytes().replace(b"0.09", b"0.09\xff"))
    err = run_writes_nothing(command, cfg, tmp_path, capsys)
    assert err.startswith(f"error: cannot read config file {str(cfg)!r}: not UTF-8")


def test_config_read_errors_and_line_ends_are_text_modes(tmp_path, capsys):
    # the file is read as bytes and decoded whole: a bad byte is named at its
    # offset in the file, a directory by its strerror, and \r\n or \r end a
    # line as text mode's newline translation has them end
    cfg = write_cfg(tmp_path)
    text = cfg.read_bytes()
    cfg.write_bytes(text.replace(b"0.09", b"0.09\xff"))
    err = run_writes_nothing("validate", cfg, tmp_path, capsys)
    offset = text.index(b"0.09") + 4
    assert err == f"error: cannot read config file {str(cfg)!r}: not UTF-8 at byte {offset}\n"
    folder = tmp_path / "folder.cfg"
    folder.mkdir()
    err = run_writes_nothing("validate", folder, tmp_path, capsys)
    assert err == f"error: cannot read config file {str(folder)!r}: Is a directory\n"
    runs = {}
    for name, end in (("lf", b"\n"), ("crlf", b"\r\n"), ("cr", b"\r")):
        cfg.write_bytes(text.replace(b"\n", end))
        assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        runs[name] = (tmp_path / name / "manifest.json").read_bytes()
    assert runs["crlf"] == runs["lf"] == runs["cr"]


def test_an_output_directory_that_cannot_be_made_is_an_error(cfg_path, tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    for argv, path in ((["statics", "--out", str(blocker)], blocker / "landscape.csv"),
                       (["validate", "--out", str(blocker / "sub")],
                        blocker / "sub" / "manifest.json")):
        assert main([*argv, "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == f"error: cannot write {path}: Not a directory\n"
    assert blocker.read_text() == "not a directory\n"


@pytest.mark.parametrize("command", ["validate", "scenario", "sweep"])
@pytest.mark.parametrize("margin", ["0", "-10", "nan"])
def test_margin_must_be_positive(command, margin, cfg_path, tmp_path, capsys):
    out = tmp_path / "o"
    extra = ["--sweep", "coupling_g=0.05:0.11:2"] if command == "sweep" else []
    assert main([command, "--config", str(cfg_path), "--out", str(out),
                 "--margin", margin, *extra]) == 1
    assert "error: margin" in capsys.readouterr().err
    assert not out.exists()


def test_collapse_spread_needs_two_spins(tmp_path, capsys):
    cfg = write_cfg(tmp_path, n_spins=1, delta_g=0.0045)
    out = tmp_path / "o"
    assert main(["collapse", "--config", str(cfg), "--out", str(out)]) == 1
    assert "error: a nonzero spread" in capsys.readouterr().err
    assert not out.exists()


# --- the exact-form argv reader against argparse ---------------------------------

#: every flag of every command, and every prefix of each that argparse may
#: take as an abbreviation
ARGV_FLAGS = sorted({flag[:k] for flags in cli.FLAGS.values() for flag in flags
                     for k in range(3, len(flag) + 1)})
ARGV_VALUES = ["run.cfg", "out", "5", "7.5", "1e3", "1.0", "-1", "-10", "-1e3", "nan", "",
               "-", "--", "coupling_g=0.05:0.11:2", "temperature=0.2:0.3:2"]
ARGV_TOKENS = st.sampled_from(
    [*cli.COMMANDS, *ARGV_FLAGS, *ARGV_VALUES, "-h", "stray",
     *(f"{flag}={value}" for flag in ("--config", "--seed", "--margin", "--echo-at", "--sweep")
       for value in ("run.cfg", "5", "-1", "7.5", "coupling_g=0.05:0.11:2"))])


@st.composite
def argvs(draw):
    """A command (or a stray token), flag-value pairs, --config among them or
    not, and a few tokens inserted anywhere.  In half the draws every flag
    is the command's own, spelled in full, and no value starts with '-', so
    that the exact form is drawn often."""
    first = draw(st.sampled_from([*cli.COMMANDS] * 3 + ["-h", "stray"]))
    own = st.sampled_from(sorted(cli.FLAGS.get(first, ["--config"])))
    plain = st.sampled_from([v for v in ARGV_VALUES if not v.startswith("-")])
    if draw(st.booleans()):
        flag, value = own, st.one_of(st.sampled_from(["5", "12"]), plain)
    else:
        flag = st.one_of(own, st.sampled_from(ARGV_FLAGS), ARGV_TOKENS)
        value = st.one_of(st.sampled_from(ARGV_VALUES), ARGV_TOKENS)
    pairs = draw(st.lists(st.tuples(flag, value), max_size=4))
    if draw(st.integers(0, 3)):
        pairs.insert(draw(st.integers(0, len(pairs))), ("--config", "run.cfg"))
    argv = [first, *(token for pair in pairs for token in pair)]
    for _ in range(draw(st.integers(1, 2)) if draw(st.integers(0, 3)) == 0 else 0):
        argv.insert(draw(st.integers(0, len(argv))), draw(ARGV_TOKENS))
    return argv


def argparse_vars(argv):
    """vars of argparse's namespace for argv, or None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


@settings(deadline=None, max_examples=1500)
@given(argvs())
@example(["collapse", "--config", "run.cfg", "--echo-at", "-1e3"])  # an option to argparse
@example(["collapse", "--config", "run.cfg", "--echo-at", "-1"])  # a negative number
@example(["validate", "--config", "run.cfg", "--seed", "1e3"])
@example(["validate", "--config", "run.cfg", "--seed", "1.0"])
@example(["validate", "--config", "run.cfg", "--margin", "nan", "--margin", "5"])
@example(["sweep", "--config", "run.cfg", "--sweep", "coupling_g=0.05:0.11:2",
          "--sweep", "temperature=0.2:0.3:2", "--out", "out"])
@example(["sweep", "--config", "run.cfg", "--out", ""])
@example(["statics", "--config", "run.cfg", "--config", "-"])
@example(["statics", "--conf", "run.cfg"])
@example(["statics", "--config=run.cfg"])
@example(["statics", "--config", "run.cfg", "--echo-at", "1"])
@example(["statics", "--out", "out"])
@example(["statics", "-h"])
def test_exact_reader_gives_argparses_namespace_or_none(argv):
    got, want = cli._exact_args(argv), argparse_vars(argv)
    if got is not None:
        # repr tells 5 from 5.0 and compares nan with nan
        assert repr(sorted(vars(got).items())) == repr(sorted(want.items()))
    if want is None:
        assert got is None


def test_exact_reader_reads_every_flag_in_full(tmp_path):
    # the exact form of every flag of every command is read without argparse
    for name, flags in cli.FLAGS.items():
        argv = [name, *(token for flag in flags for token in (flag, "5"))]
        got = cli._exact_args(argv)
        assert got is not None, argv
        assert repr(sorted(vars(got).items())) == repr(sorted(argparse_vars(argv).items()))


def test_statics_next_to_the_cusp_finds_its_minimum(tmp_path, capsys):
    # T = 3J/4 - 2e-13, g one ulp below the rounded psi(m+), above g_c: the
    # one root sits where F'' = -4e-13 is rounding noise, and F' rises across it
    cfg = write_cfg(tmp_path, temperature="0.7499999999998", coupling_g="0.3074767996712073")
    out = tmp_path / "o"
    assert main(["statics", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "stationary_up.csv").read_text().splitlines()[1:] == [
        "0.7071067811865239,-0.5922905781297305,minimum,paramagnetic"]
    assert "m_f = None" in capsys.readouterr().out
