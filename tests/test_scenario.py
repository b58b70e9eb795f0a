import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from curieweiss import offdiag, output, registration, scenario, statics
from curieweiss.errors import ConfigError, MeasurementFailed
from curieweiss.model import ModelParams, SystemState2x2
from curieweiss.scenario import (
    RunConfig,
    _registration_end,
    assemble_final_state,
    collapse_run,
    collapse_timescales,
    config_payload,
    dephased_entropy,
    entropy_budget,
    load_run_config,
    registration_summary,
    run_scenario,
    state_entropy,
    why_not_a_measurement,
    write_landscape,
    write_run,
    write_sectors,
)

REF_PARAMS = ModelParams(n_spins=100000, coupling_g=0.09, temperature=0.34,
                         gamma=1e-3, debye_cutoff=50.0)
PLUS = SystemState2x2(0.5, 0.5, 0.5 + 0j)
UP = SystemState2x2(1.0, 0.0, 0j)
REFERENCE_CFG = Path(__file__).resolve().parents[1] / "configs" / "reference.cfg"


def random_state(rng, force_diagonal=False):
    r_uu = rng.uniform(0.02, 0.98)
    if force_diagonal:
        r_ud = 0j
    else:
        cap = math.sqrt(r_uu * (1 - r_uu))
        r_ud = rng.uniform(0, cap) * np.exp(1j * rng.uniform(0, 2 * math.pi))
    return SystemState2x2(r_uu, 1.0 - r_uu, complex(r_ud))


def final_state(state, params=REF_PARAMS):
    """The final state of a full run from state at params."""
    return run_scenario(RunConfig(params=params, state=state)).final_state


def weights(fs):
    """The Born weights of a final state's two branches."""
    return tuple(b["weight"] for b in fs["branches"])


def pointers(fs):
    """The pointers of a final state's two branches."""
    return tuple(b["pointer"] for b in fs["branches"])


@pytest.fixture(scope="module")
def final_plus():
    return final_state(PLUS)


def assemble(state, up, t_hi):
    """assemble_final_state from the given up sector and the collapse of state up to t_hi."""
    collapse = collapse_run(RunConfig(params=REF_PARAMS, state=state), t_hi)
    return assemble_final_state(state, REF_PARAMS, up, collapse)


# --- Born rule ----------------------------------------------------------------


def test_born_eigenstate():
    assert weights(final_state(UP)) == (1.0, 0.0)


def test_born_ignores_offdiagonals(final_plus):
    assert weights(final_plus) == (0.5, 0.5)


def test_born_trace_rule():
    assert weights(final_state(SystemState2x2(0.3, 0.7, 0j))) == (0.3, 0.7)


# --- final state -----------------------------------------------------------------


def test_final_state_reference(final_plus):
    assert weights(final_plus) == (0.5, 0.5)
    up, down = pointers(final_plus)
    assert up == pytest.approx(0.9965, abs=1e-3)
    assert down == pytest.approx(-up, abs=1e-9)


def test_final_state_offdiag_residual_dead(final_plus):
    assert final_plus["log10_offdiag_residual"] < -30.0


def test_final_state_pure_input():
    fs = final_state(UP)
    assert weights(fs) == (1.0, 0.0)
    assert pointers(fs)[0] > 0.99
    assert fs["log10_offdiag_residual"] == -math.inf


def test_final_state_same_for_same_diagonals():
    # off-diagonal content does not reach the outcome statistics
    a = final_state(SystemState2x2(0.3, 0.7, 0.2j))
    b = final_state(SystemState2x2(0.3, 0.7, 0j))
    assert weights(a) == weights(b)
    assert pointers(a)[0] == pointers(b)[0]


def test_run_scenario_evaluates_tau_reg_once(monkeypatch):
    from curieweiss.scenario import load_run_config

    calls = []
    integral = statics.bottleneck_integral
    monkeypatch.setattr(statics, "bottleneck_integral",
                        lambda eps: calls.append(eps) or integral(eps))
    report = run_scenario(load_run_config(REFERENCE_CFG))
    assert report.status == "completed"
    assert len(calls) == 1
    # t_final is max(3 tau_reg, the sectors' stop time)
    assert report.final_state["t_final"] == _registration_end(
        report.timescales["tau_reg_quadrature"], report.sector_up)


def test_run_scenario_scans_each_landscape_once(monkeypatch):
    from curieweiss import statics
    from curieweiss.scenario import load_run_config

    signs = []
    scan = statics.stationary_magnetizations
    monkeypatch.setattr(statics, "stationary_magnetizations",
                        lambda sign, params: signs.append(sign) or scan(sign, params))
    cfg = load_run_config(REFERENCE_CFG)
    report = run_scenario(cfg)
    # the up landscape for the manifest; the sectors find their rest points
    # without a landscape
    assert signs == [+1]
    alone = registration.integrate_registration(+1, cfg.params, cfg.t_max)
    assert np.array_equal(report.sector_up.m, alone.m)
    assert np.array_equal(report.sector_up.times, alone.times)


def test_run_scenario_runs_the_collapse_once(monkeypatch):
    # the final residual is read from the run's own collapse, not computed again
    calls = {"offdiag_trajectory": 0, "sample_couplings": 0}
    for name in calls:
        def counted(*a, _f=getattr(offdiag, name), _name=name, **k):
            calls[_name] += 1
            return _f(*a, **k)
        monkeypatch.setattr(offdiag, name, counted)
    p = ModelParams(n_spins=2000, coupling_g=0.09, delta_g=0.0045,
                    temperature=0.34, gamma=1e-3, debye_cutoff=50.0)
    report = run_scenario(RunConfig(params=p, state=PLUS, samples=50))
    assert report.status == "completed"
    assert calls == {"offdiag_trajectory": 1, "sample_couplings": 1}


@pytest.fixture()
def regime_reports(monkeypatch):
    """The calls to model.validate_regime, by every module of the package that
    bound it, each recorded as its params."""
    import sys
    import curieweiss.cli  # noqa: F401  (loaded first: it binds the name too)
    from curieweiss import model

    calls = []
    report = model.validate_regime

    def counted(params, *a, **k):
        calls.append(params)
        return report(params, *a, **k)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "curieweiss" and getattr(module, "validate_regime", None) is report:
            monkeypatch.setattr(module, "validate_regime", counted)
    return calls


def test_sweep_builds_no_regime_report(regime_reports, tmp_path):
    from curieweiss.cli import main

    # each point takes the verdict of the regime's inequalities, not their report
    assert main(["sweep", "--config", str(REFERENCE_CFG), "--out", str(tmp_path),
                 "--sweep", "coupling_g=0.05:1.2:3", "--sweep", "temperature=0.2:0.34:2"]) == 0
    outcomes = [r.split(",")[2] for r in (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
    assert len(outcomes) == 6 and "registered" in outcomes
    assert "registered/invalid-regime" in outcomes  # g > J
    assert regime_reports == []


def test_validate_and_scenario_build_one_regime_report(regime_reports, tmp_path):
    from curieweiss.cli import main

    cfg = load_run_config(REFERENCE_CFG)
    assert main(["validate", "--config", str(REFERENCE_CFG), "--out", str(tmp_path)]) == 0
    assert regime_reports == [cfg.params]
    run_scenario(cfg)
    assert regime_reports == [cfg.params, cfg.params]


@pytest.mark.parametrize("delta_g, products", [(0.0, 1), (0.0045, 2)])
def test_uniform_collapse_takes_one_cosine_product(monkeypatch, delta_g, products):
    # with every coupling at g the product over the couplings is the uniform one
    calls = []
    product = offdiag.log_cos_product
    monkeypatch.setattr(offdiag, "log_cos_product",
                        lambda *a: calls.append(1) or product(*a))
    cfg = RunConfig(params=REF_PARAMS._replace(delta_g=delta_g), state=PLUS, samples=50)
    collapse_run(cfg, None)
    assert len(calls) == products


def test_final_state_fails_below_critical():
    p = ModelParams(n_spins=100000, coupling_g=0.05, temperature=0.34,
                    gamma=1e-3, debye_cutoff=50.0)
    up = registration.integrate_registration(+1, p)
    collapse = collapse_run(RunConfig(params=p, state=PLUS), None)
    with pytest.raises(MeasurementFailed, match="sector \\+1 ended trapped_paramagnetic"):
        assemble_final_state(PLUS, p, up, collapse)


def test_measurement_idempotence(final_plus):
    # feeding the up branch's eigenprojection back reproduces that branch
    # with probability 1
    again = final_state(UP)
    assert weights(again) == (1.0, 0.0)
    assert pointers(again)[0] == pytest.approx(pointers(final_plus)[0], abs=1e-12)


def test_born_preserved_for_random_states():
    up = registration.integrate_registration(+1, REF_PARAMS, 6e5)
    down = registration.integrate_registration(-1, REF_PARAMS, 6e5)
    rng = np.random.default_rng(42)
    for _ in range(100):
        state = random_state(rng)
        fs = assemble(state, up, 6e5)
        assert abs(weights(fs)[0] - state.r_uu) < 1e-12
        assert abs(weights(fs)[1] - state.r_dd) < 1e-12
        assert [m.hex() for m in pointers(fs)] == [up.m_final.hex(), down.m_final.hex()]
        assert fs["t_final"] == 6e5


# --- pointer variance -----------------------------------------------------------


def converged_sector(m_final):
    """A converged up sector ending at m_final."""
    return registration.MagnetizationTrajectory(
        field_sign=+1, times=np.array([0.0, 1.0]), m=np.array([0.0, m_final]),
        rate=np.zeros(2), zeta0=np.ones(2),
        terminal=registration.TerminalKind.CONVERGED_FERRO, attractor=m_final)


def test_pointer_variance_plugin_value():
    fs = assemble(PLUS, converged_sector(0.996), 1.0)
    assert pointers(fs) == (0.996, -0.996)
    var_up, var_down = fs["pointer_variance"]
    assert var_up == pytest.approx(0.5 * (1 - 0.996**2) / 1e5, rel=1e-12, abs=0.0)
    assert var_up == pytest.approx(3.992e-8, rel=1e-3)
    assert var_down == var_up


def test_pointer_variance_saturated_and_large_n():
    fs = assemble(UP, converged_sector(1.0), 1.0)
    assert weights(fs) == (1.0, 0.0) and pointers(fs) == (1.0, -1.0)
    assert fs["pointer_variance"] == [0.0, 0.0]


# --- entropy -------------------------------------------------------------------------


def test_entropy_pure_superposition(final_plus):
    budget = entropy_budget(PLUS, REF_PARAMS, final_plus)
    assert budget["s_system_initial"] == pytest.approx(0.0, abs=1e-12)
    assert budget["s_system_final"] == pytest.approx(math.log(2.0), rel=1e-12, abs=0.0)


def test_entropy_diagonal_input_unchanged():
    state = SystemState2x2(0.3, 0.7, 0j)
    fs = final_state(state)
    budget = entropy_budget(state, REF_PARAMS, fs)
    assert budget["s_system_final"] == pytest.approx(budget["s_system_initial"], abs=1e-13)


def test_entropy_budget_signs(final_plus):
    budget = entropy_budget(PLUS, REF_PARAMS, final_plus)
    # the magnet orders (entropy drops) but the bath dump dominates
    assert budget["s_magnet_final"] < budget["s_magnet_initial"]
    assert budget["bath_entropy_change_estimate"] > 0
    assert budget["delta_total"] > 0


def test_entropy_budget_closed_forms_at_j_2_5():
    # every field from the branch weights and pointers, at a registered J != 1
    # point (the reference scaled by J = 2.5) and a mixed initial state
    p = ModelParams(n_spins=100000, coupling_j=2.5, coupling_g=0.225, temperature=0.85,
                    gamma=1e-3, debye_cutoff=50.0)
    state = SystemState2x2(0.7, 0.3, 0.3 + 0.1j)
    report = run_scenario(RunConfig(params=p, state=state, samples=40))
    assert report.status == "completed"
    (w_up, w_down), (m_up, m_down) = weights(report.final_state), pointers(report.final_state)
    assert (w_up, w_down) == (0.7, 0.3) and m_up > 0.99 and m_down < -0.99
    n, j, g, t = 100000, 2.5, 0.225, 0.85
    half_gap = math.sqrt(0.2**2 + abs(0.3 + 0.1j) ** 2)
    expected = {
        "s_system_initial": -sum(x * math.log(x) for x in (0.5 + half_gap, 0.5 - half_gap)),
        "s_system_final": -(0.7 * math.log(0.7) + 0.3 * math.log(0.3)),
        "s_magnet_initial": n * math.log(2.0),
        "s_magnet_final": n * (w_up * statics.mixing_entropy(m_up)
                               + w_down * statics.mixing_entropy(m_down)),
        "bath_entropy_change_estimate": n * sum(
            w * (j * m**4 / 4 + g * abs(m)) for w, m in ((w_up, m_up), (w_down, m_down))) / t,
    }
    expected["delta_total"] = (expected["s_system_final"] - expected["s_system_initial"]
                               + expected["s_magnet_final"] - expected["s_magnet_initial"]
                               + expected["bath_entropy_change_estimate"])
    budget = report.entropy
    assert budget.keys() == expected.keys()
    for name, value in expected.items():
        assert budget[name] == pytest.approx(value, rel=1e-12, abs=0.0), name


def test_entropy_dephasing_never_decreases():
    rng = np.random.default_rng(7)
    for i in range(1000):
        state = random_state(rng, force_diagonal=(i % 2 == 0))
        s0, s1 = state_entropy(state), dephased_entropy(state)
        assert s1 >= s0 - 1e-12
        if state.r_ud == 0:
            assert s1 == pytest.approx(s0, abs=1e-12)
        elif abs(state.r_ud) > 1e-8:
            assert s1 > s0


# --- orchestration -------------------------------------------------------------------


def test_run_scenario_reference_point(tmp_path):
    cfg = RunConfig(params=REF_PARAMS, state=PLUS, samples=120)
    report = run_scenario(cfg)
    assert report.status == "completed"
    ts = report.timescales
    assert ts["tau_red"] < ts["tau_2"] < ts["tau_reg_quadrature"]
    assert report.sector_up.m_final == pytest.approx(0.9965, abs=1e-3)
    assert report.final_state["log10_offdiag_residual"] < -30.0
    assert report.entropy["delta_total"] > 0
    payload = write_run(report, tmp_path / "run")
    assert payload["status"] == "completed"
    # the down sector, written from the up one, is the directly integrated one
    down = registration.integrate_registration(-1, REF_PARAMS)
    summary = payload["registration_summary"]
    assert summary["m_final_down"].hex() == down.m_final.hex()
    assert summary["m_final_down"] == pytest.approx(-0.9965, abs=1e-3)
    assert summary["terminal_down"] == down.terminal.value == "converged_ferro"
    assert payload["stages"]["registration_down"] == down.terminal.value
    assert pointers(report.final_state)[1].hex() == down.m_final.hex()
    assert (tmp_path / "run" / "manifest.json").exists()
    assert (tmp_path / "run" / "offdiag.csv").exists()
    names = {f["name"] for f in payload["files"]}
    assert "registration_up.csv" in names and "landscape.csv" in names
    # each branch leaves the system in its eigenprojection
    blocks = [(b["r_uu"], b["r_dd"]) for b in payload["final_state"]["branches"]]
    assert blocks == [(1.0, 0.0), (0.0, 1.0)]


def test_run_scenario_no_coupling():
    p = ModelParams(n_spins=1000, coupling_g=0.0, temperature=0.34, gamma=1e-3,
                    debye_cutoff=50.0)
    report = run_scenario(RunConfig(params=p, state=PLUS))
    assert report.status == "not_a_measurement"
    assert report.timescales is None


def test_run_scenario_dispersion_only():
    p = ModelParams(n_spins=1000, coupling_g=0.09, delta_g=0.005,
                    temperature=0.34, gamma=0.0, debye_cutoff=50.0)
    report = run_scenario(RunConfig(params=p, state=PLUS, samples=80))
    assert report.status == "not_a_measurement"
    assert "bath" in report.reason
    ts = report.timescales
    assert ts["tau_2"] is None
    assert ts["tau_2_prime"] == pytest.approx(1.0 / (0.005 * math.sqrt(2000.0)), rel=1e-12)
    assert report.sector_up is None  # registration stage unavailable
    assert report.offdiag is not None


def test_run_scenario_both_mechanisms():
    p = ModelParams(n_spins=2000, coupling_g=0.09, delta_g=0.0045,
                    temperature=0.34, gamma=1e-3, debye_cutoff=50.0)
    report = run_scenario(RunConfig(params=p, state=PLUS, samples=50))
    assert report.status == "completed"
    ts = report.timescales
    assert ts["tau_2"] is not None and ts["tau_2_prime"] is not None
    assert ts["log10_recurrence_bath"] < 0 and ts["log10_recurrence_dispersion"] < 0
    traj = report.offdiag
    assert np.any(traj.bath_factor < 1.0)
    assert np.any(traj.dispersion_factor != 1.0)


def test_final_residual_is_the_last_collapse_sample():
    # a spread this wide shows in the residual, whose bath part is ~1e18
    p = ModelParams(n_spins=2000, coupling_g=0.2, delta_g=0.05,
                    temperature=0.34, gamma=1e-3, debye_cutoff=50.0)
    for keys in ({}, {"samples": 2}):
        report = run_scenario(RunConfig(params=p, state=PLUS, **{"samples": 50, "seed": 4, **keys}))
        assert report.status == "completed"
        assert report.offdiag.times[-1] == report.final_state["t_final"]
        assert report.final_state["log10_offdiag_residual"] == report.offdiag.log10_abs[-1]


def test_an_unset_bath_acts_where_gamma_is_positive():
    # bath unset: the collapse and its timescales carry the bath exactly when
    # gamma > 0; bath = off never does
    cfg = RunConfig(params=REF_PARAMS, state=PLUS)
    assert collapse_timescales(cfg)["tau_2"] == offdiag.decay_time_bath(REF_PARAMS)
    # |r(t)| = |r0| |cos 2gt|^N exp(-N chi(t)), chi = gamma Gamma^2 g^2 t^4 / 2 pi
    t, g, n = 40.0, REF_PARAMS.coupling_g, REF_PARAMS.n_spins
    chi = REF_PARAMS.gamma * REF_PARAMS.debye_cutoff**2 * g**2 * t**4 / (2.0 * math.pi)
    expected = (math.log10(0.5) + n * math.log10(abs(math.cos(2.0 * g * t)))
                - n * chi / math.log(10.0))
    traj = collapse_run(cfg, t)
    assert traj.times[-1] == t
    assert traj.log10_abs[-1] == pytest.approx(expected, rel=1e-12)
    assert traj.log10_abs[-1] == pytest.approx(-3.5834e8, rel=1e-4)
    assert cfg.bath is None and cfg.bath_acts
    for bath, gamma, acts in ((None, 0.0, False), (False, 1e-3, False), (True, 1e-3, True)):
        other = RunConfig(params=REF_PARAMS._replace(gamma=gamma), state=PLUS, bath=bath)
        assert other.bath_acts is acts
        assert ("tau_2" in collapse_timescales(other)) is acts
        assert bool(collapse_run(other, t).bath_factor[-1] < 1.0) is acts


def test_registration_summary_brackets_the_crossing_time():
    # the operational registration time at the threshold, and at 0.8 and
    # 1.25 times it, on the reference up sector
    up, down = (registration.integrate_registration(s, REF_PARAMS) for s in (+1, -1))
    summary = registration_summary(up, REF_PARAMS)
    assert summary["m_final_down"].hex() == down.m_final.hex()
    assert summary["terminal_down"] == down.terminal.value == "converged_ferro"
    theta = statics.registration_threshold(REF_PARAMS)
    assert summary["threshold"] == theta
    # one batched rule call gives each target the bits of its own call
    for key, factor in (("crossing_time", 1.0), ("crossing_time_low", 0.8),
                        ("crossing_time_high", 1.25)):
        assert summary[key] == registration.crossing_times(up, [factor * theta], REF_PARAMS)[0]
    assert summary["crossing_time_low"] < summary["crossing_time"] < summary["crossing_time_high"]


def test_registration_summary_keeps_the_crossings_a_cut_run_reached():
    # cut at t_max = 32000, the reference sector has passed 0.8 and 1 times
    # the threshold (at t = 27104 and 31505) but not 1.25 times it (33817)
    up, down = (registration.integrate_registration(s, REF_PARAMS, 32000.0) for s in (+1, -1))
    summary = registration_summary(up, REF_PARAMS)
    assert summary["terminal_up"] == summary["terminal_down"] == down.terminal.value
    assert summary["terminal_up"] == "max_time_reached"
    assert summary["m_final_down"].hex() == down.m_final.hex()
    theta = statics.registration_threshold(REF_PARAMS)
    assert summary["crossing_time"] == registration.crossing_times(up, [theta], REF_PARAMS)[0]
    assert 27000 < summary["crossing_time_low"] < summary["crossing_time"] < 32000
    assert summary["crossing_time_high"] is None


@pytest.mark.parametrize("g", [0.05, 5e-324])
def test_registration_summary_writes_a_trapped_down_sector_as_integrated(g):
    # g = 0.05 < g_c traps both sectors; at g = 5e-324 gamma g underflows, so
    # neither flows: the up rate is 0.0 and the down one -0.0
    p = REF_PARAMS._replace(coupling_g=g)
    up, down = (registration.integrate_registration(s, p) for s in (+1, -1))
    summary = registration_summary(up, p)
    assert summary["terminal_down"] == down.terminal.value == "trapped_paramagnetic"
    assert summary["m_final_down"].hex() == down.m_final.hex()


@pytest.mark.parametrize("spacing", ["linear", "log"])
@pytest.mark.parametrize("samples", [2, 3, 400])
def test_time_grid_ends_at_t_hi(spacing, samples):
    grid = offdiag.time_grid(spacing, samples, 5.0)
    assert len(grid) == samples
    assert grid[0] == 0.0 and grid[-1] == 5.0
    assert np.all(np.diff(grid) > 0)
    if spacing == "log" and samples >= 3:
        assert grid[1] == 5.0 * 1e-4  # README: geometric from 1e-4 of the end time


def test_verdict_reasons():
    no_bath = "no bath (gamma = 0): the magnet cannot relax, so nothing is registered"
    assert why_not_a_measurement(REF_PARAMS, None) is None
    assert why_not_a_measurement(REF_PARAMS, True) is None
    assert "(g = 0)" in why_not_a_measurement(ModelParams(n_spins=10, coupling_g=0.0), None)
    for bath in (None, False, True):
        assert why_not_a_measurement(ModelParams(n_spins=10, coupling_g=0.09), bath) == no_bath
    off = why_not_a_measurement(REF_PARAMS, False)
    assert "bath = off" in off and "gamma = 0" not in off


def test_run_scenario_bath_off():
    # gamma > 0 but the bath switched off: nothing relaxes the magnet
    report = run_scenario(RunConfig(params=REF_PARAMS, state=PLUS, samples=40, bath=False))
    assert report.status == "not_a_measurement"
    assert report.reason == why_not_a_measurement(REF_PARAMS, False)
    assert report.sector_up is None and report.final_state is None
    assert report.timescales["tau_2"] is None
    assert np.all(report.offdiag.bath_factor == 1.0)


def test_run_scenario_failed_registration():
    p = ModelParams(n_spins=100000, coupling_g=0.05, temperature=0.34,
                    gamma=1e-3, debye_cutoff=50.0)
    report = run_scenario(RunConfig(params=p, state=PLUS, samples=80))
    assert report.status == "measurement_failed"
    assert report.final_state is None
    assert report.sector_up.m_final < 0.2


def test_run_config_toggle_consistency():
    p = ModelParams(n_spins=1000, coupling_g=0.09, temperature=0.34, gamma=0.0,
                    debye_cutoff=50.0)
    with pytest.raises(ConfigError):
        RunConfig(params=p, state=PLUS, bath=True)
    with pytest.raises(ConfigError):
        RunConfig(params=p, state=PLUS, spacing="cubic")


def test_write_run_deterministic(tmp_path):
    cfg = RunConfig(params=REF_PARAMS, state=PLUS, samples=60, seed=3)
    for sub in ("a", "b"):
        write_run(run_scenario(cfg), tmp_path / sub)
    for name in sorted((tmp_path / "a").iterdir()):
        other = tmp_path / "b" / name.name
        assert name.read_bytes() == other.read_bytes(), name.name


def count_columns(monkeypatch) -> list:
    """Record every output.column call from here on."""
    calls = []
    column = output.column
    monkeypatch.setattr(output, "column", lambda values: calls.append(1) or column(values))
    return calls


def test_write_landscape_formats_two_columns(tmp_path, monkeypatch):
    # a cold process formats m and F_up; F_down's column is F_up's reversed,
    # and a later landscape, at other params, formats F_up alone
    statics.landscape_grid.cache_clear()
    scenario._landscape_m_column.cache_clear()
    calls = count_columns(monkeypatch)
    other = REF_PARAMS._replace(coupling_g=0.05, temperature=0.2)
    for params, formatted in ((REF_PARAMS, 2), (other, 3)):
        out = tmp_path / str(formatted)
        files = write_landscape(out, params, down_dat=True)
        assert len(calls) == formatted
        assert [f["name"] for f in files] == ["landscape.csv", "landscape_up.dat",
                                              "landscape_down.dat"]
        m, _, f_down = statics.landscape_table(params)
        expected = "".join(f"{x!r} {y!r}\n" for x, y in zip(m, f_down))
        assert (out / "landscape_down.dat").read_text() == expected


def test_landscape_grid_and_m_column_are_shared_read_only():
    # every landscape of the process shares them, so none may change them
    for arr in statics.landscape_grid():
        with pytest.raises(TypeError, match="does not support item assignment"):
            arr[0] = 0.0
    assert statics.landscape_table(REF_PARAMS)[0] is statics.landscape_grid()[0]
    column = scenario._landscape_m_column()
    assert isinstance(column, tuple)
    assert column == tuple(map(repr, statics.landscape_grid()[0]))


def test_write_sectors_formats_the_up_columns_once(tmp_path, monkeypatch):
    up = registration.integrate_registration(+1, REF_PARAMS)
    calls = count_columns(monkeypatch)
    write_sectors(tmp_path, up, REF_PARAMS)
    assert len(calls) == 4


def test_collapse_echo_formats_the_shared_time_column_once(tmp_path, monkeypatch):
    from curieweiss.cli import main

    # offdiag.csv and echo.csv share one formatted t: 1 + 6 + 6 columns
    text = REFERENCE_CFG.read_text()
    assert "delta_g      = 0.0\n" in text
    cfg = tmp_path / "echo.cfg"
    cfg.write_text(text.replace("delta_g      = 0.0\n", "delta_g = 0.0045\nsamples = 50\n"))
    out = tmp_path / "out"
    calls = count_columns(monkeypatch)
    assert main(["collapse", "--config", str(cfg), "--out", str(out), "--echo-at", "7.5"]) == 0
    assert len(calls) == 13
    t = [[row.split(",")[0] for row in (out / name).read_text().splitlines()]
         for name in ("offdiag.csv", "echo.csv")]
    assert len(t[0]) == 51 and t[0] == t[1]


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([0.5, 1.0, 2.5, 4.0]), st.floats(0.05, 0.8), st.floats(1e-300, 0.6),
       st.none() | st.floats(1.0, 1e5))
@example(1.0, 0.34, 0.09, None)
@example(1.0, 0.34, 0.05, None)  # trapped
@example(1.0, 0.34, 0.09, 1e4)  # cut at t_max
@example(1.0, 0.5, 5e-324, None)  # gamma g underflows: the up rate is 0.0, the down -0.0
def test_down_files_are_the_down_sector_formatted(tmp_path_factory, j, t, x, t_max):
    # the down files, derived from the up columns, equal the directly
    # integrated down sector formatted column by column
    p = ModelParams(n_spins=100000, coupling_j=j, coupling_g=x * j, temperature=t * j,
                    gamma=1e-3)
    out = tmp_path_factory.mktemp("sectors")
    write_sectors(out, registration.integrate_registration(+1, p, t_max), p)
    down = registration.integrate_registration(-1, p, t_max)
    cols = [output.column(c) for c in (down.times, down.m, down.rate,
                                       statics.free_energy(down.m, -1, p))]
    output.write_csv(out / "expected.csv", ["t", "m", "dm_dt", "free_energy"], cols)
    output.write_dat(out / "expected.dat", cols[:2])
    assert (out / "registration_down.csv").read_bytes() == (out / "expected.csv").read_bytes()
    assert (out / "registration_down.dat").read_bytes() == (out / "expected.dat").read_bytes()


@st.composite
def run_configs(draw):
    g = draw(st.sampled_from([0.0, 0.09]) | st.floats(1e-3, 0.9))
    dg = draw(st.sampled_from([0.0]) | st.floats(0.0, 0.99 * g if g > 0 else 0.5))
    gamma = draw(st.sampled_from([0.0]) | st.floats(1e-6, 1e-2))
    params = ModelParams(
        n_spins=draw(st.integers(1, 10**15)), coupling_j=draw(st.floats(0.1, 10.0)),
        coupling_g=g, delta_g=dg, temperature=draw(st.floats(1e-3, 2.0)), gamma=gamma,
        debye_cutoff=draw(st.floats(1.0, 500.0)),
    )
    r_uu = draw(st.floats(0.0, 1.0))
    radius = math.sqrt(r_uu * (1.0 - r_uu)) * draw(st.floats(0.0, 1.0))
    phase = draw(st.floats(0.0, 2.0 * math.pi))
    state = SystemState2x2.from_upper(r_uu, radius * complex(math.cos(phase), math.sin(phase)))
    return RunConfig(
        params=params, state=state,
        t_max=draw(st.none() | st.floats(1e-3, 1e4)),
        samples=draw(st.integers(2, 10**6)),
        spacing=draw(st.sampled_from(["linear", "log"])),
        bath=draw(st.sampled_from([None, False, *([True] if gamma > 0 else [])])),
        seed=draw(st.integers(0, 2**32)),
    )


def _config_line(key, value):
    if isinstance(value, bool):
        value = "on" if value else "off"
    return f"{key} = {value!r}\n" if isinstance(value, float) else f"{key} = {value}\n"


@settings(deadline=None, max_examples=60)
@given(run_configs())
def test_config_round_trip(tmp_path_factory, cfg):
    # config_payload -> key = value text -> load_run_config is the identity
    payload = config_payload(cfg)
    assert payload.pop("margin") == cfg.margin
    del payload["r_dd"]  # implied by the trace
    path = tmp_path_factory.mktemp("cfg") / "run.cfg"
    path.write_text("".join(_config_line(k, v) for k, v in payload.items() if v is not None))
    assert load_run_config(path) == cfg
