"""Run configuration: INI grammar, window validation, defaults.

Grammar: standard INI sections. `[problem]` is required and carries
alpha, sigma, gamma, half_period.  Everything else is optional:

    [run]        command, seed, out
    [solver]     c, mu, omega, p0, n_modes, tol
    [grid]       n_grid, sector_size
    [kernels]    alpha, times, n          (times: comma list, units of (T/pi)^alpha)
    [evolve]     dt, steps, log_interval
    [sweep]      parameter, target, steps
    [stability]  horizon_periods, dt, epsilons, log_interval
    [rearrange]  trials, n_modes, n_grid

Validation collects every violation before raising, so a config with
three bad windows reports all three at once.  Malformed INI text raises
ParseError naming the offending line.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, replace

from .errors import ParseError, ValidationError
from .params import TOL_PROFILE, ProblemParams

COMMANDS = ("solve", "spectrum", "kernels", "rearrange", "evolve",
            "sweep", "report")

_SECTIONS = {
    "problem": ("alpha", "sigma", "gamma", "half_period"),
    "run": ("command", "seed", "out"),
    "solver": ("c", "mu", "omega", "p0", "n_modes", "tol"),
    "grid": ("n_grid", "sector_size"),
    "kernels": ("alpha", "times", "n"),
    "evolve": ("dt", "steps", "log_interval"),
    "sweep": ("parameter", "target", "steps"),
    "stability": ("horizon_periods", "dt", "epsilons", "log_interval"),
    "rearrange": ("trials", "n_modes", "n_grid"),
}


@dataclass(frozen=True)
class RunConfig:
    """Validated run description; `echo` preserves the raw input text."""

    problem: ProblemParams
    command: str | None
    seed: int
    out: str | None
    solver: dict
    grid: dict
    kernels: dict
    evolve: dict
    sweep: dict
    stability: dict
    rearrange: dict
    echo: str = field(repr=False, default="")

    def with_overrides(self, command=None, seed=None, out=None) -> "RunConfig":
        kw = {}
        if command is not None:
            if command not in COMMANDS:
                raise ValidationError(
                    f"unknown command {command!r}; choose from {', '.join(COMMANDS)}")
            kw["command"] = command
        if seed is not None:
            kw["seed"] = int(seed)
        if out is not None:
            kw["out"] = out
        return replace(self, **kw) if kw else self


class _Collector:
    """Typed option reader that records violations instead of raising."""

    def __init__(self, parser):
        self.parser = parser
        self.problems = []

    def note(self, msg):
        self.problems.append(msg)

    def get(self, section, key, kind, default=None):
        if not self.parser.has_option(section, key):
            return default
        raw = self.parser.get(section, key).strip()
        try:
            if kind is float:
                return _finite(raw)
            if kind is int:
                val = _finite(raw)
                if val != int(val):
                    raise ValueError
                return int(val)
            if kind is list:
                return [_finite(tok) for tok in raw.split(",") if tok.strip()]
            return raw
        except ValueError:
            noun = {float: "a finite number", int: "an integer",
                    list: "a comma-separated list of finite numbers"}[kind]
            self.note(f"{section}.{key} must be {noun}, got {raw!r}")
            return default


def _finite(text: str) -> float:
    """float(text), with inf, nan and overflow (1e400) a ValueError."""
    val = float(text)
    if not math.isfinite(val):
        raise ValueError(text)
    return val


def _window(col, cond, msg):
    if not cond:
        col.note(msg)


def parse_config(text: str) -> RunConfig:
    """Parse and validate INI text into a RunConfig.

    Raises ParseError for malformed text (message names the line) and
    ValidationError listing every window violation found.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        lineno = getattr(exc, "lineno", None)
        if lineno is None:
            errs = getattr(exc, "errors", None)
            if errs:
                lineno = errs[0][0]
        where = f"line {lineno}" if lineno is not None else "unknown line"
        raise ParseError(f"config {where}: {exc.message.splitlines()[0]}") from exc

    col = _Collector(parser)
    for section in parser.sections():
        if section not in _SECTIONS:
            col.note(f"unknown section [{section}]; expected one of "
                     f"{', '.join(sorted(_SECTIONS))}")
            continue
        for key in parser.options(section):
            if key not in _SECTIONS[section]:
                col.note(f"unknown key {section}.{key}")

    if not parser.has_section("problem"):
        col.note("missing required section [problem]")
        raise ValidationError(_summary(col.problems))

    alpha = col.get("problem", "alpha", float)
    sigma = col.get("problem", "sigma", float)
    gamma = col.get("problem", "gamma", int)
    half_period = col.get("problem", "half_period", float)
    fine = True
    for name, val, good, window in (
            ("alpha", alpha, lambda v: 1.0 < v <= 2.0, "(1, 2]"),
            ("sigma", sigma, lambda v: v > 0.0, "(0, inf)"),
            ("gamma", gamma, lambda v: v in (-1, 1), "{-1, +1}"),
            ("half_period", half_period, lambda v: v > 0.0, "(0, inf)")):
        if val is None:
            if not parser.has_option("problem", name):
                col.note(f"problem.{name} is required")
            fine = False
        elif not good(val):
            col.note(f"problem.{name} must lie in {window}, got {val}")
            fine = False
    problem = ProblemParams(alpha=alpha, sigma=sigma, gamma=gamma,
                            half_period=half_period) if fine else None

    command = col.get("run", "command", str)
    if command is not None and command not in COMMANDS:
        col.note(f"run.command must be one of {', '.join(COMMANDS)}, "
                 f"got {command!r}")
    seed = col.get("run", "seed", int, 0)
    out = col.get("run", "out", str)
    _window(col, seed is None or seed >= 0, "run.seed must be nonnegative")

    solver = {
        "c": col.get("solver", "c", float, 0.0),
        "mu": col.get("solver", "mu", float, 1.0),
        "omega": col.get("solver", "omega", float),
        "p0": col.get("solver", "p0", float, 1.0),
        "n_modes": col.get("solver", "n_modes", int, 48),
        "tol": col.get("solver", "tol", float, TOL_PROFILE),
    }
    if problem is not None and solver["c"] is not None:
        _window(col, abs(solver["c"]) < problem.speed_limit,
                f"solver.c must satisfy |c| < (pi/T)^(alpha-1) = "
                f"{problem.speed_limit:.9g}, got {solver['c']}")
    _window(col, solver["mu"] is None or solver["mu"] > 0,
            "solver.mu must be positive")
    _window(col, solver["p0"] is None or solver["p0"] > 0,
            "solver.p0 must be positive")
    _window(col, solver["n_modes"] is None or 4 <= solver["n_modes"] <= 1024,
            "solver.n_modes must lie in [4, 1024]")
    _window(col, solver["tol"] is None or 0 < solver["tol"] <= 1e-3,
            "solver.tol must lie in (0, 1e-3]")

    grid = {
        "n_grid": col.get("grid", "n_grid", int, 1024),
        "sector_size": col.get("grid", "sector_size", int, 128),
    }
    _window(col, grid["n_grid"] is None or
            (8 <= grid["n_grid"] <= 65536 and grid["n_grid"] % 4 == 0),
            "grid.n_grid must be a multiple of 4 in [8, 65536]")
    _window(col, grid["sector_size"] is None or 8 <= grid["sector_size"] <= 4096,
            "grid.sector_size must lie in [8, 4096]")

    # kernels.alpha falls back to problem.alpha at dispatch time
    kernels = {
        "alpha": col.get("kernels", "alpha", float),
        "times": col.get("kernels", "times", list, [0.1, 1.0, 10.0]),
        "n": col.get("kernels", "n", int, 1024),
    }
    _window(col, kernels["alpha"] is None or 0.0 < kernels["alpha"] <= 2.0,
            "kernels.alpha must lie in (0, 2]")
    _window(col, kernels["times"] is None or
            all(t > 0 for t in kernels["times"]),
            "kernels.times must all be positive")
    _window(col, kernels["n"] is None or
            (8 <= kernels["n"] <= 16384 and kernels["n"] % 4 == 0),
            "kernels.n must be a multiple of 4 in [8, 16384]")

    evolve = {
        "dt": col.get("evolve", "dt", float, 1e-4),
        "steps": col.get("evolve", "steps", int, 10000),
        "log_interval": col.get("evolve", "log_interval", int, 1000),
    }
    _window(col, evolve["dt"] is None or evolve["dt"] > 0,
            "evolve.dt must be positive")
    _window(col, evolve["steps"] is None or evolve["steps"] >= 1,
            "evolve.steps must be at least 1")
    _window(col, evolve["log_interval"] is None or evolve["log_interval"] >= 1,
            "evolve.log_interval must be at least 1")

    sweep = {
        "parameter": col.get("sweep", "parameter", str),
        "target": col.get("sweep", "target", float),
        "steps": col.get("sweep", "steps", int, 8),
    }
    if sweep["parameter"] is None and problem is not None:
        sweep["parameter"] = "c" if problem.gamma == -1 else "omega"
    _window(col, sweep["parameter"] in (None, "c", "mu", "omega"),
            f"sweep.parameter must be c, mu, or omega, got {sweep['parameter']!r}")
    if problem is not None and sweep["parameter"] == "c" and \
            sweep["target"] is not None:
        _window(col, abs(sweep["target"]) < problem.speed_limit,
                f"sweep.target must satisfy |c| < {problem.speed_limit:.9g}, "
                f"got {sweep['target']}")
    _window(col, sweep["steps"] is None or sweep["steps"] >= 1,
            "sweep.steps must be at least 1")

    stability = {
        "horizon_periods": col.get("stability", "horizon_periods", float, 100.0),
        "dt": col.get("stability", "dt", float, 1e-3),
        "epsilons": col.get("stability", "epsilons", list, [1e-4, 1e-3]),
        "log_interval": col.get("stability", "log_interval", int, 2000),
    }
    _window(col, stability["horizon_periods"] is None or
            stability["horizon_periods"] > 0,
            "stability.horizon_periods must be positive")
    _window(col, stability["dt"] is None or stability["dt"] > 0,
            "stability.dt must be positive")
    _window(col, stability["epsilons"] is None or
            all(0 < e <= 1e-2 for e in stability["epsilons"]),
            "stability.epsilons must lie in (0, 1e-2]")
    _window(col, stability["log_interval"] is None or
            stability["log_interval"] >= 1,
            "stability.log_interval must be at least 1")

    rearrange = {
        "trials": col.get("rearrange", "trials", int, 100),
        "n_modes": col.get("rearrange", "n_modes", int, 16),
        "n_grid": col.get("rearrange", "n_grid", int, 1024),
    }
    _window(col, rearrange["trials"] is None or 1 <= rearrange["trials"] <= 100000,
            "rearrange.trials must lie in [1, 100000]")
    _window(col, rearrange["n_modes"] is None or 1 <= rearrange["n_modes"] <= 1024,
            "rearrange.n_modes must lie in [1, 1024]")
    _window(col, rearrange["n_grid"] is None or
            (8 <= rearrange["n_grid"] <= 65536 and rearrange["n_grid"] % 4 == 0),
            "rearrange.n_grid must be a multiple of 4 in [8, 65536]")

    if col.problems:
        raise ValidationError(_summary(col.problems))

    return RunConfig(problem=problem, command=command, seed=seed, out=out,
                     solver=solver, grid=grid, kernels=kernels, evolve=evolve,
                     sweep=sweep, stability=stability, rearrange=rearrange,
                     echo=text)


def _summary(problems) -> str:
    head = f"configuration has {len(problems)} problem(s):"
    return "\n".join([head] + [f"  - {p}" for p in problems])
