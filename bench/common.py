"""Pieces shared by the three workloads: task records and config text."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

HALF_PERIOD = math.pi


@dataclass
class Task:
    """One user-visible result: a config, the calls that produce it, and
    the check its output must pass.

    `run(config, ctx)` gets the parsed RunConfig and returns the output;
    `check(output)` returns a list of problems, empty when correct.
    `known_fault` names the program fault a task is expected to hit.
    """

    name: str
    config: str
    run: Callable
    check: Callable
    known_fault: str | None = None


def ini(**sections) -> str:
    """INI text from keyword sections, e.g. ini(problem={...}, solver={...})."""
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in keys.items())
        lines.append("")
    return "\n".join(lines)


def problem(alpha, sigma, gamma):
    return {"alpha": alpha, "sigma": sigma, "gamma": gamma,
            "half_period": repr(HALF_PERIOD)}


def solve_profile(config):
    """The configured profile, solved the way the CLI solves it."""
    from fnlslab import profiles

    prob = config.problem
    s = config.solver
    if prob.gamma == -1:
        return profiles.solve_defocusing(prob, c=s["c"], mu=s["mu"],
                                         n_modes=s["n_modes"], tol=s["tol"])
    return profiles.solve_focusing(prob, omega=s["omega"], p0=s["p0"],
                                   n_modes=s["n_modes"], tol=s["tol"])


def sign_changes(values, floor=1e-7):
    """Sign changes of samples, ignoring those below floor * peak."""
    peak = max(abs(float(v)) for v in values)
    live = [v for v in values if abs(v) > floor * peak]
    return sum(1 for a, b in zip(live, live[1:]) if (a > 0) != (b > 0))


def bound(problems, label, value, limit):
    """Record a problem unless value <= limit (NaN fails)."""
    if not value <= limit:
        problems.append(f"{label} = {value:.3e} above {limit:.1e}")
