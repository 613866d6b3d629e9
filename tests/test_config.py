"""INI config parsing: defaults, parameter windows, violation collection,
and line-numbered parse errors."""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fnlslab.config import _SECTIONS, COMMANDS, RunConfig, parse_config
from fnlslab.dynamics import (initial_state, n_preserving_perturbation,
                              stability_experiment)
from fnlslab.errors import (OmegaOutOfRange, ParseError, PositivityViolation,
                            SpeedOutOfRange, ValidationError)
from fnlslab.fields import AntiperiodicField
from fnlslab.kernels import KernelSamples, kernel_kp, positivity_report
from fnlslab.params import ProblemParams
from fnlslab.profiles import solve_defocusing, solve_focusing

MINIMAL = """
[problem]
alpha = 1.5
sigma = 1
gamma = -1
half_period = 3.14159

[solver]
mu = 1
"""


def test_minimal_config_fills_defaults():
    cfg = parse_config(MINIMAL)
    assert isinstance(cfg, RunConfig)
    assert cfg.problem == ProblemParams(alpha=1.5, sigma=1.0, gamma=-1,
                                        half_period=3.14159)
    assert cfg.command is None
    assert cfg.seed == 0
    assert cfg.solver["mu"] == 1.0
    assert cfg.solver["c"] == 0.0
    assert cfg.solver["n_modes"] == 48
    assert cfg.grid == {"n_grid": 1024, "sector_size": 128}
    assert cfg.stability["epsilons"] == [1e-4, 1e-3]
    assert cfg.echo == MINIMAL


def test_full_config_round_trip():
    text = MINIMAL + """
[run]
command = evolve
seed = 17

[evolve]
dt = 5e-5
steps = 100000
log_interval = 1000

[sweep]
parameter = mu
target = 2.0
steps = 6
"""
    cfg = parse_config(text)
    assert cfg.command == "evolve"
    assert cfg.seed == 17
    assert cfg.evolve == {"dt": 5e-5, "steps": 100000, "log_interval": 1000}
    assert cfg.sweep == {"parameter": "mu", "target": 2.0, "steps": 6}


def test_alpha_window_cited_in_rejection():
    text = MINIMAL.replace("alpha = 1.5", "alpha = 2.5")
    with pytest.raises(ValidationError, match=r"\(1, 2\]"):
        parse_config(text)


def test_alpha_lower_endpoint_excluded():
    with pytest.raises(ValidationError, match="alpha"):
        parse_config(MINIMAL.replace("alpha = 1.5", "alpha = 1.0"))


def test_speed_window_relative_to_limit():
    limit = parse_config(MINIMAL).problem.speed_limit
    ok = parse_config(MINIMAL + f"c = {0.9 * limit}\n")
    assert np.isclose(ok.solver["c"], 0.9 * limit)
    with pytest.raises(ValidationError, match=r"\|c\|"):
        parse_config(MINIMAL + f"c = {1.1 * limit}\n")


def test_all_violations_reported_together():
    text = """
[problem]
alpha = 2.5
sigma = -1
gamma = 3
half_period = 0

[solver]
mu = -2
"""
    with pytest.raises(ValidationError) as err:
        parse_config(text)
    msg = str(err.value)
    assert "5 problem(s)" in msg
    for frag in ("alpha", "sigma", "gamma", "half_period", "mu"):
        assert frag in msg


def test_malformed_ini_reports_line():
    with pytest.raises(ParseError, match="line 1"):
        parse_config("[problem\nalpha = 1.5\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_config("[problem]\nalpha = 1.5\nalpha = 1.6\n")


def test_a_line_that_is_no_pair_names_it_from_the_parsing_errors():
    # configparser's ParsingError carries no lineno; the line comes from
    # its first recorded error
    text = MINIMAL.lstrip("\n").replace("3.14159\n", "3.14159\nnot a pair\n")
    assert text.splitlines()[5] == "not a pair"
    with pytest.raises(ParseError, match="^" + re.escape(
            "config line 6: Source contains parsing errors: '<string>'") + "$"):
        parse_config(text)


def test_unknown_section_and_key_rejected():
    with pytest.raises(ValidationError, match=r"unknown section \[widgets\]"):
        parse_config(MINIMAL + "\n[widgets]\nx = 1\n")
    with pytest.raises(ValidationError, match="unknown key solver.frobs"):
        parse_config(MINIMAL + "frobs = 2\n")


def test_missing_problem_section():
    with pytest.raises(ValidationError, match=r"\[problem\]"):
        parse_config("[solver]\nmu = 1\n")


def test_typed_values_rejected_with_kind():
    with pytest.raises(ValidationError, match="integer"):
        parse_config(MINIMAL + "\n[evolve]\nsteps = 2.5\n")
    with pytest.raises(ValidationError, match="number"):
        parse_config(MINIMAL.replace("mu = 1", "mu = fast"))


def test_gamma_must_be_unit_sign():
    with pytest.raises(ValidationError, match=r"\{-1, \+1\}"):
        parse_config(MINIMAL.replace("gamma = -1", "gamma = 0"))


def test_solver_tolerance_window():
    cfg = parse_config(MINIMAL + "tol = 1e-3\n")
    assert cfg.solver["tol"] == 1e-3
    with pytest.raises(ValidationError, match="tol"):
        parse_config(MINIMAL + "tol = 0.5\n")
    with pytest.raises(ValidationError, match="tol"):
        parse_config(MINIMAL + "tol = 0\n")


def test_stability_epsilons_window():
    cfg = parse_config(MINIMAL + "\n[stability]\nepsilons = 1e-5, 1e-4\n")
    assert cfg.stability["epsilons"] == [1e-5, 1e-4]
    with pytest.raises(ValidationError, match="epsilon"):
        parse_config(MINIMAL + "\n[stability]\nepsilons = 0.5\n")


def test_kernel_alpha_window_is_wider_than_problem():
    # kernels admit the full dispersive range, including alpha <= 1
    cfg = parse_config(MINIMAL + "\n[kernels]\nalpha = 0.8\n")
    assert cfg.kernels["alpha"] == 0.8
    with pytest.raises(ValidationError, match=r"kernels.alpha"):
        parse_config(MINIMAL + "\n[kernels]\nalpha = 2.3\n")


def test_sweep_parameter_enum_and_branch_default():
    assert parse_config(MINIMAL).sweep["parameter"] == "c"
    foc = MINIMAL.replace("gamma = -1", "gamma = 1")
    assert parse_config(foc).sweep["parameter"] == "omega"
    with pytest.raises(ValidationError, match="sweep.parameter"):
        parse_config(MINIMAL + "\n[sweep]\nparameter = beta\n")


def test_sweep_target_in_c_keeps_the_speed_window():
    # at T = pi the window is |c| < (pi/T)^(alpha - 1) = 1
    text = MINIMAL.replace("3.14159", repr(math.pi))
    assert parse_config(text + "\n[sweep]\nparameter = c\ntarget = 0.5\n")
    with pytest.raises(ValidationError, match="^" + re.escape(
            "configuration has 1 problem(s):\n"
            "  - sweep.target must satisfy |c| < 1, got 5.0") + "$"):
        parse_config(text + "\n[sweep]\nparameter = c\ntarget = 5\n")


def test_run_command_enum():
    cfg = parse_config(MINIMAL + "\n[run]\ncommand = kernels\n")
    assert cfg.command == "kernels"
    with pytest.raises(ValidationError, match="run.command"):
        parse_config(MINIMAL + "\n[run]\ncommand = frobnicate\n")


def test_overrides_replace_only_given_fields():
    cfg = parse_config(MINIMAL + "\n[run]\ncommand = solve\nseed = 4\n")
    out = cfg.with_overrides(command="evolve", seed=None, out="/tmp/x")
    assert (out.command, out.seed, out.out) == ("evolve", 4, "/tmp/x")
    assert out.problem == cfg.problem
    with pytest.raises(ValidationError, match="command"):
        cfg.with_overrides(command="frobnicate", seed=None, out=None)


def test_command_list_is_fixed():
    assert COMMANDS == ("solve", "spectrum", "kernels", "rearrange",
                        "evolve", "sweep", "report")


def test_negative_seed_rejected():
    with pytest.raises(ValidationError, match="seed"):
        parse_config(MINIMAL + "\n[run]\nseed = -1\n")


@pytest.mark.parametrize("extra, key", [
    ("\n[run]\nseed = inf\n", "run.seed"),
    ("n_modes = -inf\n", "solver.n_modes"),
    ("\n[grid]\nsector_size = 1e400\n", "grid.sector_size"),
    ("\n[stability]\nepsilons = 1e-4, nan\n", "stability.epsilons"),
])
def test_non_finite_values_rejected_by_key(extra, key):
    with pytest.raises(ValidationError, match=key):
        parse_config(MINIMAL + extra)


@pytest.mark.parametrize("section, key", [
    ("kernels", "times"), ("stability", "epsilons"),
])
def test_empty_lists_rejected_by_key(section, key):
    # a list with no numbers would certify nothing, so it is a failed read
    with pytest.raises(ValidationError, match=f"{section}.{key} must be a "
                       "comma-separated list of finite numbers, got ','"):
        parse_config(MINIMAL + f"\n[{section}]\n{key} = ,\n")


@pytest.mark.parametrize("section, key, cap", [
    ("solver", "n_modes", 1024), ("grid", "n_grid", 65536),
    ("grid", "sector_size", 4096), ("kernels", "n", 16384),
    ("rearrange", "n_modes", 1024), ("rearrange", "n_grid", 65536),
    ("rearrange", "trials", 100000), ("sweep", "steps", 10000),
    ("evolve", "steps", 10_000_000),
])
def test_integer_sizes_have_upper_windows(section, key, cap):
    # every size key accepts its cap and names itself above it, so a huge
    # value never reaches an allocation
    head = MINIMAL if section == "solver" else MINIMAL + f"\n[{section}]\n"
    assert getattr(parse_config(head + f"{key} = {cap}\n"), section)[key] == cap
    for value in (cap + 4, 4 * cap, "1e15"):
        with pytest.raises(ValidationError, match=f"{section}.{key}"):
            parse_config(head + f"{key} = {value}\n")


def test_stability_horizon_has_an_upper_window_in_steps():
    # round(horizon_periods * T / dt) is the step count of the run; the
    # window is checked on the product, so each key alone may be large
    head = MINIMAL + "\n[stability]\n"
    T = 3.14159
    cap = parse_config(head + f"horizon_periods = {1e7 * 1e-3 / T!r}\n")
    assert round(cap.stability["horizon_periods"] * T / 1e-3) == 10_000_000
    big = parse_config(head + "horizon_periods = 1e6\ndt = 1\n")
    assert big.stability["horizon_periods"] == 1e6
    for keys in ("horizon_periods = 1e9", "dt = 1e-300",
                 "horizon_periods = 1e300\ndt = 1e-300",
                 f"horizon_periods = {1.0001e7 * 1e-3 / T!r}"):
        with pytest.raises(ValidationError, match=(
                r"stability\.horizon_periods \* T / stability\.dt must be "
                r"at most 10000000 steps, got ")):
            parse_config(head + keys + "\n")


def test_non_finite_half_period_listed_with_other_problems():
    text = MINIMAL.replace("half_period = 3.14159", "half_period = inf")
    with pytest.raises(ValidationError) as exc:
        parse_config(text.replace("mu = 1", "mu = -1"))
    message = str(exc.value)
    assert "2 problem(s)" in message
    assert "problem.half_period" in message and "solver.mu" in message


def test_readme_config_table_matches_keys():
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `\[(\w+)\]` *\| (.*) \|$",
                      text.split("| section", 1)[1].split("\n\n", 1)[0], re.M)
    keys = {}
    for section, cell in rows:
        # drop bracketed defaults, innermost first, so only key names remain
        while (bare := re.sub(r"[(\[][^()\[\]]*[)\]]", "", cell)) != cell:
            cell = bare
        keys[section] = tuple(re.findall(r"`(\w+)`", cell))
    assert keys == {name: names for name, names in _SECTIONS.items()
                    if name != "problem"}


_KEYS = {**{name: keys + ("bogus",) for name, keys in _SECTIONS.items()},
         "widgets": ("x",)}
_VALID = {"alpha": ("1.5", "2"), "sigma": ("1", "0.5"), "gamma": ("-1", "1"),
          "half_period": ("3.14159", "1")}
_POOL = ("inf", "-inf", "nan", "1e400", "-1e400", "", "fast", "1..2", "0x1p3",
         "1, 2", "1e-4, inf", ",", "0", "-1", "1", "2.5", "4", "128", "1e-3",
         "0.1, 1, 10", "solve", "c", "True")


def _problem_value(key):
    return st.sampled_from(_VALID[key]) | st.sampled_from(_POOL)


_problem = st.fixed_dictionaries(
    {}, optional={key: _problem_value(key) for key in _VALID})
_other = st.sampled_from(sorted(_KEYS)).flatmap(
    lambda name: st.tuples(st.just(name), st.dictionaries(
        st.sampled_from(_KEYS[name]), st.sampled_from(_POOL), max_size=5)))


@settings(max_examples=300)
@given(problem=st.none() | _problem,
       others=st.lists(_other, max_size=5, unique_by=lambda s: s[0]))
def test_any_ini_text_parses_or_raises_validation_error(problem, others):
    sections = [] if problem is None else [("problem", problem)]
    sections += [(name, keys) for name, keys in others if name != "problem"]
    text = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for name, keys in sections)
    try:
        cfg = parse_config(text)
    except ValidationError:
        return
    assert isinstance(cfg, RunConfig)


@settings(max_examples=300, deadline=None)
@given(alpha=st.floats(-1.0, 3.0), sigma=st.floats(-2.0, 4.0),
       gamma=st.integers(-3, 3), half_period=st.floats(-5.0, 50.0))
@example(alpha=1.5, sigma=-1.0, gamma=-1, half_period=3.0)
@example(alpha=1.0, sigma=1.0, gamma=0, half_period=0.0)
@example(alpha=2.0, sigma=0.0, gamma=1, half_period=-0.0)
def test_problem_params_raise_exactly_on_config_windows(alpha, sigma, gamma,
                                                       half_period):
    # one table of windows: ProblemParams refuses exactly the values the
    # config reports as problem.* violations, with its first message
    values = {"alpha": alpha, "sigma": sigma, "gamma": gamma,
              "half_period": half_period}
    text = "[problem]\n" + "".join(f"{k} = {v!r}\n" for k, v in values.items())
    try:
        parse_config(text)
        reported = []
    except ValidationError as exc:
        reported = [line.strip()[len("- problem."):]
                    for line in str(exc).splitlines()
                    if line.strip().startswith("- problem.")]
    try:
        ProblemParams(**values)
    except ValidationError as exc:
        assert reported and str(exc) == reported[0]
    else:
        assert reported == []


@pytest.fixture(scope="module")
def small_profile():
    pars = ProblemParams(alpha=1.5, sigma=1.0, gamma=-1, half_period=math.pi)
    return solve_defocusing(pars, mu=1.0, n_modes=16)


_FOCUSING = ProblemParams(alpha=1.5, sigma=1.0, gamma=1, half_period=math.pi)
_NAN = math.nan


@pytest.mark.parametrize("error, call", [
    (ValidationError, lambda p: kernel_kp(1.5, math.pi, _NAN, 64)),
    (ValidationError, lambda p: kernel_kp(1.5, _NAN, 1.0, 64)),
    (PositivityViolation, lambda p: positivity_report(
        KernelSamples(1.5, math.pi, 1.0, np.full(64, _NAN), "Ka"))),
    (ValidationError, lambda p: n_preserving_perturbation(
        p, _NAN, np.random.default_rng(0))),
    (ValidationError, lambda p: initial_state(p.field, _NAN)),
    (ValidationError, lambda p: AntiperiodicField(_NAN, p.field.coeff)),
    (ValidationError, lambda p: stability_experiment(
        p, [0.0 * p.field], horizon=_NAN)),
    (ValidationError, lambda p: stability_experiment(
        p, [0.0 * p.field], horizon=1.0, dt=_NAN)),
    (ValidationError, lambda p: stability_experiment(
        p, [0.0 * p.field], horizon=math.inf)),
    (ValidationError, lambda p: stability_experiment(
        p, [0.0 * p.field], horizon=1.0, dt=math.inf)),
    (ValidationError, lambda p: solve_defocusing(p.params, mu=_NAN, n_modes=16)),
    (SpeedOutOfRange, lambda p: solve_defocusing(p.params, c=_NAN, n_modes=16)),
    (ValidationError, lambda p: solve_focusing(_FOCUSING, 0.5, p0=_NAN, n_modes=16)),
    (OmegaOutOfRange, lambda p: solve_focusing(_FOCUSING, _NAN, n_modes=16)),
], ids=["kernel_kp-t", "kernel_kp-half_period", "positivity_report",
        "n_preserving_perturbation-epsilon", "initial_state-dt", "AntiperiodicField-half_period",
        "stability_experiment-horizon", "stability_experiment-dt",
        "stability_experiment-horizon-inf", "stability_experiment-dt-inf",
        "solve_defocusing-mu", "solve_defocusing-c", "solve_focusing-p0",
        "solve_focusing-omega"])
def test_nan_fails_every_input_guard(small_profile, error, call):
    # each guard is written so that a NaN comparison fails it
    with pytest.raises(error):
        call(small_profile)
