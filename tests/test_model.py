import math
import random
import re
import sys
from dataclasses import fields

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from curieweiss import model
from curieweiss.errors import ConfigError, CurieWeissError
from curieweiss.model import (
    CONFIG_KEYS,
    MIN_T_OVER_J,
    ModelParams,
    SystemState2x2,
    read_config_mapping,
    regime_valid,
    validate_regime,
)
from curieweiss.scenario import (
    RunConfig,
    assemble_final_state,
    dephased_entropy,
    entropy_budget,
    load_run_config,
    state_entropy,
)
from curieweiss.statics import free_energy_curvature, stationary_magnetizations

REF = dict(
    n_spins=100000, coupling_j=1.0, coupling_g=0.09, delta_g=0.0,
    temperature=0.34, gamma=1e-3, debye_cutoff=50.0,
)


def test_params_accept_reference_point():
    p = ModelParams(**REF)
    assert p.n_spins == 100000
    # hbar = 1 is fixed in the code: the fields are exactly the model's config keys
    assert [f.name for f in fields(p)] == list(REF)
    assert CONFIG_KEYS == (*REF, "r_uu", "re_r_ud", "im_r_ud")


@pytest.mark.parametrize(
    "bad",
    [
        dict(n_spins=0),
        dict(n_spins=2.5),
        dict(coupling_j=0.0),
        dict(coupling_j=-1.0),
        dict(temperature=0.0),
        dict(gamma=-1e-3),
        dict(coupling_g=-0.1),
        dict(debye_cutoff=0.0),
        dict(delta_g=0.09),            # must stay below coupling_g
        dict(delta_g=float("nan")),
    ],
)
def test_params_reject_invalid(bad):
    with pytest.raises(ConfigError):
        ModelParams(**{**REF, **bad})


@pytest.mark.parametrize("n_spins", [float("nan"), float("inf"), float("-inf")])
def test_params_reject_non_finite_n_spins(n_spins):
    # checked before int(), which raises ValueError on NaN and OverflowError on inf
    with pytest.raises(ConfigError, match="n_spins"):
        ModelParams(**{**REF, "n_spins": n_spins})


def test_params_reject_n_spins_beyond_the_largest_double():
    # a Python int has no range, but the closed forms take float(N)
    ModelParams(**{**REF, "n_spins": int(sys.float_info.max)})
    with pytest.raises(ConfigError, match=r"at most the largest double, 1\.79769"):
        ModelParams(**{**REF, "n_spins": 10**400})


#: the least subnormal double, and the largest subnormal one
TINY, SUBNORMAL_MAX = 5e-324, math.nextafter(sys.float_info.min, 0.0)


@pytest.mark.parametrize("temperature, coupling_j", [
    (MIN_T_OVER_J, 1.0),                # at the bound
    (1e-300, 1.0),
    (0.34, 1e300),
    (TINY, 1e300),                      # T/J underflows to 0
    (TINY, 2e-308),                     # a subnormal T: T/J = 2.5e-16
    (TINY, SUBNORMAL_MAX),              # both subnormal: T/J = 2.2e-16
])
def test_params_reject_t_over_j_at_or_below_the_bound(temperature, coupling_j):
    with pytest.raises(ConfigError, match=re.escape(
            f"temperature / coupling_j must exceed {MIN_T_OVER_J!r}, got ")):
        ModelParams(**{**REF, "temperature": temperature, "coupling_j": coupling_j})


@pytest.mark.parametrize("temperature, coupling_j", [
    (math.nextafter(MIN_T_OVER_J, 1.0), 1.0),    # the least T/J accepted at J = 1
    (math.nextafter(MIN_T_OVER_J, 1.0) * 1e300, 1e300),
    (TINY, TINY),                                 # both subnormal: T/J = 1
    (4 * TINY, SUBNORMAL_MAX),                    # both subnormal: T/J = 8.9e-16
    (1e300, 1e-300),                              # T/J overflows to inf
])
def test_params_accept_t_over_j_above_the_bound(temperature, coupling_j):
    p = ModelParams(**{**REF, "temperature": temperature, "coupling_j": coupling_j,
                       "coupling_g": 0.09 * coupling_j})
    assert p.temperature / p.coupling_j > MIN_T_OVER_J


def test_t_over_j_bound_keeps_the_last_double_below_one_a_minimum():
    # 1 - m^2 is 2**-52 at the last double m below 1, so F''(m) > 0 there
    # needs T/J > 3 m^2 2**-52, just under the bound: above it, the
    # ferromagnetic minimum has a double to sit on
    m = math.nextafter(1.0, 0.0)
    assert 1.0 - m * m == 2.0**-52
    p = ModelParams(**{**REF, "temperature": math.nextafter(MIN_T_OVER_J, 1.0)})
    assert free_energy_curvature(m, p) > 0.0
    assert stationary_magnetizations(+1, p).ferromagnetic.m == m


def test_delta_g_unconstrained_when_g_zero():
    ModelParams(**{**REF, "coupling_g": 0.0, "delta_g": 0.5})


def test_validate_state_pure_eigenstate():
    SystemState2x2(1.0, 0.0, 0j)


def test_validate_state_pure_superposition_boundary():
    SystemState2x2(0.5, 0.5, 0.5 + 0j)


def test_validate_state_positivity_violation():
    with pytest.raises(CurieWeissError, match="negative eigenvalue: det = "):
        SystemState2x2(0.5, 0.5, 0.6 + 0j)


def test_validate_state_trace_violation():
    with pytest.raises(CurieWeissError, match=r"trace is 1\.1, expected 1"):
        SystemState2x2(0.6, 0.5, 0j)


@pytest.mark.parametrize(
    "state",  # the entries; the state is built in the test, where it raises
    [
        (float("nan"), 0.5, 0j),   # NaN fails every comparison
        (0.5, float("nan"), 0j),
        (0.5, 0.5, complex(float("nan"), 0.0)),
        (0.5, 0.5, complex(0.0, float("inf"))),
    ],
)
def test_validate_state_rejects_non_finite(state):
    with pytest.raises(CurieWeissError, match="non-finite density-matrix entry in "):
        SystemState2x2(*state)


#: the start of each of the state's rejections
STATE_ERRORS = ("^(non-finite density-matrix entry|trace is|negative diagonal entry"
                "|negative eigenvalue)")
NON_FINITE = (complex(math.nan, 0.0), complex(-math.inf, 0.0), complex(0.0, math.nan),
              complex(0.0, math.inf))


@settings(max_examples=300)
@given(r_uu=st.floats(0.0, 1.0) | st.floats(-2.0, 2.0),
       trace_offset=st.sampled_from([0.0, 4e-13, -4e-13, 1e-9, 0.3]),
       rho=st.floats(0.0, 2.0), phase=st.floats(0.0, 2.0 * math.pi),
       poison=st.sampled_from([0j] * 8 + list(NON_FINITE)))
def test_validate_state_accepts_exactly_density_matrices(r_uu, trace_offset, rho, phase, poison):
    # built iff finite, trace 1 and positive semidefinite, within tol = 1e-12;
    # states within 1e-9 of the positivity edge are left out as ambiguous.
    # rho scales |r_ud| against the largest value sqrt(r_uu r_dd) positivity
    # allows; poison puts a non-finite value into r_uu (real) or r_ud (imag)
    radius = rho * math.sqrt(abs(r_uu * (1.0 - r_uu)))
    entries = (r_uu + poison.real, 1.0 - r_uu + trace_offset,
               radius * complex(math.cos(phase), math.sin(phase)) + 1j * poison.imag)
    finite = poison == 0
    if finite:
        uu, dd, ud = entries
        lam_min = 0.5 * (uu + dd) - math.hypot(0.5 * (uu - dd), abs(ud))
        assume(abs(lam_min) > 1e-9)
    if finite and abs(trace_offset) < 1e-12 and lam_min > 0:
        state = SystemState2x2(*entries)
        assert (state.r_uu, state.r_dd, state.r_ud) == entries
    else:
        with pytest.raises(CurieWeissError, match=STATE_ERRORS):
            SystemState2x2(*entries)


#: a state of each rejection class: its entries, and its message.  Unchecked,
#: the last two would have a negative entropy (state_entropy -0.21879 and
#: -0.10484 nats)
STATE_REJECTIONS = {
    "non_finite": ((math.nan, 0.5, 0j), r"non-finite density-matrix entry in "
                                        r"SystemState2x2\(r_uu=nan, r_dd=0\.5, r_ud=0j\)"),
    "trace": ((0.6, 0.5, 0j), r"trace is 1\.1, expected 1"),
    "diagonal": ((1.2, -0.2, 0j), r"negative diagonal entry: 1\.2, -0\.2"),
    "determinant": ((0.5, 0.5, 0.6 + 0j), r"negative eigenvalue: det = -1\.100e-01"),
}


@pytest.mark.parametrize("name", STATE_REJECTIONS)
def test_no_consumer_is_handed_a_state_that_is_not_a_density_matrix(name):
    # each public function that takes a state gets none: building it raises,
    # in the state's own check, before the consumer is called
    entries, message = STATE_REJECTIONS[name]
    params = ModelParams(**REF)
    consumers = {
        "state_entropy": state_entropy,
        "dephased_entropy": dephased_entropy,
        "entropy_budget": lambda state: entropy_budget(state, params, {"branches": []}),
        "assemble_final_state": lambda state: assemble_final_state(state, params, None, None),
        "RunConfig": lambda state: RunConfig(params=params, state=state),
    }
    for consumer, consume in consumers.items():
        with pytest.raises(CurieWeissError, match=f"^{message}$") as info:
            consume(SystemState2x2(*entries))
        raised_in = info.traceback[-1]
        assert (raised_in.path.name, raised_in.name) == ("model.py", "__post_init__"), consumer


@pytest.mark.parametrize("r_uu, r_ud, message", [
    (math.nan, 0j, "non-finite density-matrix entry"),
    (1e17, 0j, r"trace is 0\.0, expected 1"),   # 1 - 1e17 rounds to -1e17
    (1.2, 0j, "negative diagonal entry"),
    (0.5, 0.6, "negative eigenvalue"),
])
def test_from_upper_builds_a_checked_state(r_uu, r_ud, message):
    with pytest.raises(CurieWeissError, match=f"^{message}"):
        SystemState2x2.from_upper(r_uu, r_ud)
    assert SystemState2x2.from_upper(0.3, 0.2j) == SystemState2x2(0.3, 0.7, 0.2j)


def check(report, name):
    """The check of report named name."""
    (found,) = [c for c in report["checks"] if c["name"] == name]
    return found


def test_regime_reference_point_passes():
    rep = validate_regime(ModelParams(**REF))
    assert rep["overall_valid"]
    bath = check(rep, "n_vs_bath")
    # (1/gamma)(g/hbar Gamma)^2 = 1000 * (0.09/50)^2 at hbar = 1
    assert bath["rhs"] == pytest.approx(1000 * (0.09 / 50.0) ** 2, rel=1e-12, abs=0.0)
    assert bath["rhs"] == pytest.approx(3.24e-3, rel=1e-10, abs=0.0)
    assert bath["passed"]
    disp = check(rep, "n_vs_dispersion")  # delta_g = 0: the branch is off
    assert math.isinf(disp["rhs"]) and not disp["passed"] and disp["margin_ratio"] == 0.0


def test_regime_small_n_fails_at_margin_10():
    rep = validate_regime(ModelParams(**{**REF, "n_spins": 10}))
    assert not check(rep, "n_large")["passed"]  # 10 > 10*1 is false: strict margin
    assert not rep["overall_valid"]


@pytest.mark.parametrize("margin", [0.0, -1.0, math.nan, math.inf])
def test_regime_rejects_margin_not_positive_finite(margin):
    with pytest.raises(ConfigError, match="margin must be positive and finite"):
        validate_regime(ModelParams(**REF), margin=margin)


@pytest.mark.parametrize("margin", [0.0, -1.0, math.nan, math.inf])
def test_regime_valid_rejects_margin_not_positive_finite(margin):
    with pytest.raises(ConfigError, match="margin must be positive and finite"):
        regime_valid(ModelParams(**REF), margin)


def test_regime_dispersion_branch():
    p = ModelParams(**{**REF, "gamma": 0.0, "delta_g": 0.01})
    rep = validate_regime(p)
    disp = check(rep, "n_vs_dispersion")
    assert disp["rhs"] == pytest.approx((0.09 / 0.01) ** 2)  # = 81
    assert disp["passed"]
    assert not check(rep, "n_vs_bath")["passed"]
    assert rep["overall_valid"]


def test_regime_gamma_small_reported_not_counted():
    rep = validate_regime(ModelParams(**REF))
    gam = check(rep, "gamma_small")
    assert not gam["counted"]
    assert gam["passed"]


def test_regime_temperature_check_is_against_gamma_j():
    # T >> gamma J, with its right side pinned at J != 1
    rep = validate_regime(ModelParams(**{**REF, "coupling_j": 2.5}))
    assert check(rep, "temperature_vs_gamma_j")["rhs"] == REF["gamma"] * 2.5


@st.composite
def regime_params(draw):
    """Params under which each counted check can fail on its own: few spins,
    no bath (its branch's side is inf), a coupling spread carrying the
    dispersion branch, a cutoff at or below margin T or margin J, T at or
    below margin gamma J, and g at or above J."""
    j = draw(st.sampled_from([0.5, 1.0, 2.5]))
    g = j * draw(st.floats(0.0, 2.0))
    return ModelParams(
        n_spins=draw(st.integers(1, 200) | st.integers(1, 10**12)),
        coupling_j=j,
        coupling_g=g,
        # g * u rounds up to g itself at a subnormal g (5e-324 * 0.75 is
        # 5e-324), which ModelParams rightly rejects: cap it just below g
        delta_g=min(g * draw(st.just(0.0) | st.floats(0.0, 1.0, exclude_max=True)),
                    math.nextafter(g, 0.0)),
        temperature=j * draw(st.floats(1e-4, 5.0)),
        gamma=draw(st.just(0.0) | st.floats(1e-6, 1.0)),
        debye_cutoff=draw(st.floats(0.01, 100.0)),
    )


#: (check, params, margin) with that check's lhs exactly factor * rhs
TIES = [
    ("n_large", dict(n_spins=10), 10.0),
    ("n_vs_bath", dict(n_spins=64, coupling_g=0.5, gamma=2.0**-20, debye_cutoff=64.0), 1.0),
    ("n_vs_dispersion", dict(n_spins=160, coupling_g=0.5, delta_g=0.125, gamma=0.0), 10.0),
    ("cutoff_vs_temperature", dict(temperature=5.0), 10.0),
    ("temperature_vs_gamma_j", dict(temperature=0.15625, gamma=2.0**-6), 10.0),
    ("cutoff_vs_j", dict(debye_cutoff=10.0), 10.0),
    ("j_vs_g", dict(coupling_g=1.0), 10.0),
    ("gamma_small", dict(coupling_j=0.25, temperature=0.5, gamma=1.0), 1.0),
]


def with_ties(test):
    for _, changes, margin in TIES:
        test = example(ModelParams(**{**REF, **changes}), margin)(test)
    return test


@settings(deadline=None, max_examples=300)
@given(regime_params(), st.sampled_from([0.5, 1.0, 10.0]))
@with_ties
# a right side whose square overflows (float ** raises there) is inf
@example(ModelParams(n_spins=1, coupling_j=0.5, coupling_g=0.5, delta_g=5e-301,
                     temperature=0.5, gamma=0.0, debye_cutoff=1.0), 0.5)
@example(ModelParams(**{**REF, "coupling_g": 1e200, "coupling_j": 1e201,
                         "temperature": 3.4e200}), 10.0)
# a subnormal right side that the factor rounds to 0: the margin ratio is inf
@example(ModelParams(**{**REF, "temperature": 5e-324, "coupling_j": 5e-324}), 0.5)
# the least g, whose only smaller spread is 0
@example(ModelParams(**{**REF, "coupling_g": 5e-324, "delta_g": 0.0}), 0.5)
def test_regime_valid_is_the_report_verdict(p, margin):
    report = validate_regime(p, margin)
    assert regime_valid(p, margin) is report["overall_valid"]
    for c in report["checks"]:
        if c["lhs"] == c["required_factor"] * c["rhs"]:
            assert not c["passed"], c["name"]  # each check is a strict >


@pytest.mark.parametrize("name, changes, margin", TIES, ids=[t[0] for t in TIES])
def test_regime_tie_alone_fails_its_check(name, changes, margin):
    # only the tied check fails (and the bath branch fails next to the
    # dispersion one, and vice versa), so the verdict hangs on the strict >
    report = validate_regime(ModelParams(**{**REF, **changes}), margin)
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    tied = check(report, name)
    assert tied["lhs"] == tied["required_factor"] * tied["rhs"]
    assert failed - {"n_vs_bath", "n_vs_dispersion"} <= {name}
    assert name in failed
    assert report["overall_valid"] is not tied["counted"]


#: configs on each branch of the verdict: changes to REF, the checks that
#: fail at margin 10, and the verdict
VERDICTS = {
    "n_large_fails": (dict(n_spins=10), {"n_large", "n_vs_dispersion"}, False),
    "only_bath": ({}, {"n_vs_dispersion"}, True),
    "only_dispersion": (dict(gamma=1e-10, delta_g=0.0045), {"n_vs_bath"}, True),
    "no_suppression": (dict(gamma=1e-10), {"n_vs_bath", "n_vs_dispersion"}, False),
    "chain_row_fails": (dict(debye_cutoff=10.0), {"cutoff_vs_j", "n_vs_dispersion"}, False),
    "only_gamma_small_fails": (dict(gamma=0.1, temperature=2.0, delta_g=0.0045),
                               {"gamma_small"}, True),
}


def reorderings(rows):
    """rows reversed, shuffled, and with a failing uncounted row at each place."""
    yield rows[::-1]
    for seed in range(16):
        shuffled = list(rows)
        random.Random(seed).shuffle(shuffled)
        yield tuple(shuffled)
    uncounted = ("uncounted", 0.0, 1.0, 1.0, None)
    for i in range(len(rows) + 1):
        yield rows[:i] + (uncounted,) + rows[i:]


@pytest.mark.parametrize("name", VERDICTS)
def test_regime_verdict_does_not_depend_on_row_order(monkeypatch, name):
    changes, failing, verdict = VERDICTS[name]
    p = ModelParams(**{**REF, **changes})
    report = validate_regime(p)
    assert {c["name"] for c in report["checks"] if not c["passed"]} == failing
    assert report["overall_valid"] is regime_valid(p, 10.0) is verdict
    for rows in reorderings(model._regime_rows(p, 10.0)):
        monkeypatch.setattr(model, "_regime_rows", lambda params, margin, rows=rows: rows)
        assert validate_regime(p)["overall_valid"] is verdict, rows
        assert regime_valid(p, 10.0) is verdict, rows


def test_regime_deterministic():
    a = validate_regime(ModelParams(**REF))
    b = validate_regime(ModelParams(**REF))
    assert a == b


CONFIG_TEXT = """\
# reference point
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


def test_config_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG_TEXT)
    cfg = load_run_config(path)
    params, state = cfg.params, cfg.state
    assert params.coupling_g == 0.09
    assert params.n_spins == 100000
    assert state.r_uu == 0.5
    assert state.r_dd == 0.5
    assert state.r_ud == 0.5 + 0j


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG_TEXT + "bogus = 1\n")
    with pytest.raises(ConfigError):
        load_run_config(path)


@pytest.mark.parametrize("key", CONFIG_KEYS)
def test_config_rejects_missing_key(tmp_path, key):
    path = tmp_path / "run.cfg"
    path.write_text(re.sub(rf"(?m)^{key}\s*=.*\n", "", CONFIG_TEXT))
    with pytest.raises(ConfigError, match=rf"missing config key '{key}'"):
        load_run_config(path)


def test_config_names_the_first_missing_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("n_spins = 10\nre_r_ud = 0.5\n")
    with pytest.raises(ConfigError, match="missing config key 'coupling_j'"):
        load_run_config(path)


@pytest.mark.parametrize("n_spins", ["100000.9", "nan", "inf"])
def test_config_rejects_non_integer_n_spins(tmp_path, n_spins):
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG_TEXT.replace("= 100000\n", f"= {n_spins}\n"))
    with pytest.raises(ConfigError):
        load_run_config(path)


def test_config_reads_integer_counts_exactly(tmp_path):
    # digits are read as an int; anything else, such as 1e5, as a number
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG_TEXT.replace("= 100000\n", "= 1000000000000000000000000000001\n"))
    assert load_run_config(path).params.n_spins == 10**30 + 1
    path.write_text(CONFIG_TEXT.replace("= 100000\n", "= 1e5\nseed = 7\n"))
    cfg = load_run_config(path)
    assert (cfg.params.n_spins, cfg.seed) == (100000, 7)
    assert type(cfg.params.n_spins) is int and type(cfg.seed) is int


def test_config_mapping_comments_and_duplicates():
    assert read_config_mapping("a = 1 # trailing\n\n# full line\nb=2") == {"a": "1", "b": "2"}
    with pytest.raises(ConfigError):
        read_config_mapping("a = 1\na = 2")
    with pytest.raises(ConfigError):
        read_config_mapping("just words")


def test_regime_margin_ratio_infinite_when_rhs_zero():
    p = ModelParams(**{**REF, "gamma": 0.0, "delta_g": 0.01})
    rep = validate_regime(p)
    assert math.isinf(check(rep, "temperature_vs_gamma_j")["margin_ratio"])
