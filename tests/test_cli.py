import json
import math
from pathlib import Path

import numpy as np
import pytest

from curieweiss.cli import main
from curieweiss.model import ModelParams
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


def test_statics_spinodal_recorded(tmp_path):
    # above T = 3J/4 the only minimum is the (shifted) paramagnet
    for temperature, g in ((0.75, 0.0), (0.8, 0.05)):
        cfg = write_cfg(tmp_path, temperature=temperature, coupling_g=g)
        out = tmp_path / f"statics{temperature}"
        assert main(["statics", "--config", str(cfg), "--out", str(out)]) == 0
        m = load_manifest(out)
        assert m["critical_g"] is None
        assert "SpinodalUndefined" in m["critical_g_error"]
        assert m["m_ferromagnetic"] is None
        assert m["ferromagnetic_gap"] is None


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


def test_register_failure_outcome(tmp_path):
    cfg = write_cfg(tmp_path, coupling_g=0.05)
    out = tmp_path / "register_fail"
    assert main(["register", "--config", str(cfg), "--out", str(out)]) == 0
    m = load_manifest(out)
    assert m["terminal_up"] == "trapped_paramagnetic"


def test_scenario_command_exit_codes(cfg_path, tmp_path):
    out = tmp_path / "scn"
    assert main(["scenario", "--config", str(cfg_path), "--out", str(out)]) == 0
    m = load_manifest(out)
    assert m["status"] == "completed"
    assert m["final_state"]["branches"][0]["weight"] == 0.5
    assert m["entropy"]["delta_total"] > 0

    # g = 0.080 lies above the low-T g_c (0.0763) but below the statics g_c:
    # a trapped run reports no registration time
    for g in (0.05, 0.080):
        cfg_fail = write_cfg(tmp_path, coupling_g=g)
        assert main(["scenario", "--config", str(cfg_fail), "--out",
                     str(tmp_path / f"scnf{g}")]) == 2
        ts = load_manifest(tmp_path / f"scnf{g}")["timescales"]
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


def test_scenario_manifest_checksums(cfg_path, tmp_path):
    import hashlib

    out = tmp_path / "scn2"
    main(["scenario", "--config", str(cfg_path), "--out", str(out)])
    m = load_manifest(out)
    assert m["files"], "manifest must list the run artifacts"
    for entry in m["files"]:
        blob = (out / entry["name"]).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == entry["sha256"]
        assert len(blob) == entry["bytes"]


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


def test_sweep_temperature_at_zero_coupling(tmp_path):
    cfg = write_cfg(tmp_path, coupling_g=0.0, n_spins=1000)
    out = tmp_path / "sweepT"
    assert main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--sweep", "temperature=0.30:0.42:7"]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    for r in rows:
        cells = r.split(",")
        temp, m_final = float(cells[0]), float(cells[-1])
        if temp < 0.36:
            assert abs(m_final) > 0.9   # ferromagnetic global minimum
        if temp > 0.37:
            assert abs(m_final) < 0.2   # paramagnet wins above the transition


def test_sweep_requires_axis(cfg_path, tmp_path, capsys):
    assert main(["sweep", "--config", str(cfg_path), "--out",
                 str(tmp_path / "x")]) == 1
    assert "sweep" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()  # a rejected command leaves no run directory


def test_sweep_rejects_bad_axis(cfg_path, tmp_path):
    assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "x"),
                 "--sweep", "coupling_g=banana"]) == 1
    assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "x"),
                 "--sweep", "hbar=1:2:3"]) == 1


def test_cli_determinism_byte_identical(cfg_path, tmp_path):
    for sub in ("r1", "r2"):
        assert main(["scenario", "--config", str(cfg_path), "--out",
                     str(tmp_path / sub), "--seed", "5"]) == 0
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
