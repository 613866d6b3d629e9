"""Run configuration: INI grammar, window validation, defaults.

Grammar: standard INI sections.  `[problem]` is required and carries
alpha, sigma, gamma, half_period; every other section and key is
optional.  Each key's kind, default and window is declared once, in
`_KEYS`; the `[problem]` windows are `params.WINDOWS`, which
`ProblemParams` enforces too.  A window is a (condition, rule) pair
reported as "<section>.<key> must <rule>"; `parse_config` writes out
only the checks that involve another value or quote the bad one.
kernels.times is a comma list in units of (T/pi)^alpha.

Validation collects every violation before raising, so a config with
three bad windows reports all three at once.  Malformed INI text raises
ParseError naming the offending line.
"""

from __future__ import annotations

import configparser
import math
from copy import copy
from dataclasses import dataclass, field, replace

from .errors import ParseError, ValidationError
from .params import TOL_PROFILE, WINDOWS, ProblemParams

COMMANDS = ("solve", "spectrum", "kernels", "rearrange", "evolve",
            "sweep", "report")


def _range(lo, hi, step=1):
    """Window of the integers in [lo, hi] that are multiples of step."""
    rule = f"lie in [{lo}, {hi}]" if step == 1 else \
        f"be a multiple of {step} in [{lo}, {hi}]"
    return (lambda v: lo <= v <= hi and v % step == 0, rule)


_POSITIVE = (lambda v: v > 0, "be positive")
_AT_LEAST_1 = (lambda v: v >= 1, "be at least 1")

# steps of one trajectory: evolve.steps, and the stability horizon
# round(horizon_periods * T / dt); a larger count is refused, not run
MAX_STEPS = 10_000_000

# section -> key -> (kind, default, window or None); [problem] windows
# also quote the value, and a [problem] key without a value is required
_KEYS = {
    "problem": {key: (int if key == "gamma" else float, None, window)
                for key, window in WINDOWS.items()},
    "run": {"command": (str, None, None),
            "seed": (int, 0, (lambda v: v >= 0, "be nonnegative")),
            "out": (str, None, None)},
    "solver": {"c": (float, 0.0, None), "mu": (float, 1.0, _POSITIVE),
               "omega": (float, None, None), "p0": (float, 1.0, _POSITIVE),
               "n_modes": (int, 48, _range(4, 1024)),
               "tol": (float, TOL_PROFILE, (lambda v: 0 < v <= 1e-3, "lie in (0, 1e-3]"))},
    "grid": {"n_grid": (int, 1024, _range(8, 65536, 4)),
             "sector_size": (int, 128, _range(8, 4096))},
    # kernels.alpha falls back to problem.alpha at dispatch time
    "kernels": {"alpha": (float, None, (lambda v: 0.0 < v <= 2.0, "lie in (0, 2]")),
                "times": (list, [0.1, 1.0, 10.0],
                          (lambda ts: all(t > 0 for t in ts), "all be positive")),
                "n": (int, 1024, _range(8, 16384, 4))},
    "evolve": {"dt": (float, 1e-4, _POSITIVE),
               "steps": (int, 10000, _range(1, MAX_STEPS)),
               "log_interval": (int, 1000, _AT_LEAST_1)},
    "sweep": {"parameter": (str, None, None), "target": (float, None, None),
              "steps": (int, 8, _range(1, 10000))},
    "stability": {"horizon_periods": (float, 100.0, _POSITIVE),
                  "dt": (float, 1e-3, _POSITIVE),
                  "epsilons": (list, [1e-4, 1e-3],
                               (lambda es: all(0 < e <= 1e-2 for e in es), "lie in (0, 1e-2]")),
                  "log_interval": (int, 2000, _AT_LEAST_1)},
    "rearrange": {"trials": (int, 100, _range(1, 100000)),
                  "n_modes": (int, 16, _range(1, 1024)),
                  "n_grid": (int, 1024, _range(8, 65536, 4))},
}

_SECTIONS = {section: tuple(keys) for section, keys in _KEYS.items()}


def _violation(section, key, val):
    """The message if val lies outside section.key's window, else None."""
    window = _KEYS[section][key][2]
    if val is not None and window is not None and not window[0](val):
        return f"{section}.{key} must {window[1]}"
    return None


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
            if msg := _violation("run", "seed", kw["seed"]):
                raise ValidationError(msg)
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

    def get(self, section, key, kind, default):
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
                vals = [_finite(tok) for tok in raw.split(",") if tok.strip()]
                if not vals:
                    raise ValueError
                return vals
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

    # each section is read whole and then checked, except that run.command
    # is checked as soon as it is read, before run.seed
    values, problem = {}, None
    for section, keys in _KEYS.items():
        before = len(col.problems)
        got = values[section] = {}
        for key, (kind, default, _) in keys.items():
            got[key] = col.get(section, key, kind, copy(default))
            if key == "command" and got[key] not in (None, *COMMANDS):
                col.note(f"run.command must be one of {', '.join(COMMANDS)}, "
                         f"got {got[key]!r}")
        if section == "solver" and problem is not None and \
                not abs(got["c"]) < problem.speed_limit:
            col.note(f"solver.c must satisfy |c| < (pi/T)^(alpha-1) = "
                     f"{problem.speed_limit:.9g}, got {got['c']}")
        if section == "sweep":
            if got["parameter"] is None and problem is not None:
                got["parameter"] = "c" if problem.gamma == -1 else "omega"
            if got["parameter"] not in (None, "c", "mu", "omega"):
                col.note(f"sweep.parameter must be c, mu, or omega, "
                         f"got {got['parameter']!r}")
            if problem is not None and got["parameter"] == "c" and \
                    got["target"] is not None and \
                    not abs(got["target"]) < problem.speed_limit:
                col.note(f"sweep.target must satisfy |c| < "
                         f"{problem.speed_limit:.9g}, got {got['target']}")
        if section == "stability" and problem is not None and \
                got["horizon_periods"] > 0 and got["dt"] > 0:
            steps = got["horizon_periods"] * problem.half_period / got["dt"]
            if not (math.isfinite(steps) and round(steps) <= MAX_STEPS):
                col.note(f"stability.horizon_periods * T / stability.dt must "
                         f"be at most {MAX_STEPS} steps, got {steps:.6g}")
        for key, val in got.items():
            if section == "problem" and val is None and \
                    not parser.has_option(section, key):
                col.note(f"problem.{key} is required")
            elif msg := _violation(section, key, val):
                col.note(msg + (f", got {val}" if section == "problem" else ""))
        if section == "problem" and len(col.problems) == before:
            problem = ProblemParams(**got)

    if col.problems:
        raise ValidationError(_summary(col.problems))

    del values["problem"]
    return RunConfig(problem=problem, **values.pop("run"), **values, echo=text)


def _summary(problems) -> str:
    head = f"configuration has {len(problems)} problem(s):"
    return "\n".join([head] + [f"  - {p}" for p in problems])
