"""Command-line driver.

One executable, seven commands (solve, spectrum, kernels, rearrange,
evolve, sweep, report), all configured through an INI file; flags can
override the command, seed and output directory.  Exit
codes separate failure kinds so batch scripts can tell them apart:

    0  success
    2  validation problem (bad config, parameter window, malformed INI)
       or a band or grid that does not resolve the run
    3  numerical non-convergence (solver, singular Newton system, a
       blow-up to nan or inf)
    4  a mathematical property that should hold numerically does not

Results go to stdout as deterministic key=value lines; with --out they
are also persisted as report.json + CSV tables + the config echo.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import COMMANDS, RunConfig, parse_config
from .dynamics import (evolve as evolve_state, initial_state,
                       n_preserving_perturbation, orbital_distance,
                       stability_experiment)
from .errors import (ConvergenceError, PropertyViolation, ValidationError)
from .fields import GridSamples, to_grid
from .functionals import charge, kinetic, momentum, potential, x_norm
from .kernels import kernel_ka, kernel_kp, positivity_report
from .profiles import continue_in, gauge_fix, solve_defocusing, solve_focusing
from .rearrange import polya_szego_trials, potential_ordering_check
from .reports import ResultBundle, emit, result_lines
from .spectrum import _nondegeneracy_report, jordan_structure, sector_spectra


def _solve_profile(config: RunConfig):
    prob = config.problem
    s = config.solver
    if prob.gamma == -1:
        return solve_defocusing(prob, c=s["c"], mu=s["mu"],
                                n_modes=s["n_modes"], tol=s["tol"])
    if s["omega"] is None:
        raise ValidationError(
            "solver.omega is required for the focusing branch")
    return solve_focusing(prob, omega=s["omega"], p0=s["p0"],
                          n_modes=s["n_modes"], tol=s["tol"])


def _profile_scalars(prof) -> dict:
    prob = prof.params
    f = prof.field
    return {
        "omega": prof.omega, "c": prof.c, "mu": prof.mu, "p0": prof.p0,
        "residual": prof.residual, "iterations": prof.iterations,
        "objective": prof.objective,
        "charge": charge(f), "momentum": momentum(f),
        "kinetic": kinetic(f, prob.alpha),
        "potential": potential(f, prob.sigma),
        "x_norm": x_norm(f, prob.alpha),
    }


def _profile_tables(prof, config: RunConfig) -> dict:
    f = prof.field
    modes = list(zip(f.wavenumbers.tolist(), f.coeff.real.tolist(),
                     f.coeff.imag.tolist()))
    g = to_grid(f, config.grid["n_grid"])
    grid = list(zip(g.x.tolist(), g.values.real.tolist(),
                    g.values.imag.tolist()))
    return {
        "profile_modes": (("k", "re", "im"), modes),
        "profile_grid": (("x", "re", "im"), grid),
    }


def _cmd_solve(config: RunConfig) -> ResultBundle:
    # canonical gauge so emitted tables are comparable across runs
    prof = gauge_fix(_solve_profile(config))
    return ResultBundle(config=config,
                        results={"profile": _profile_scalars(prof)},
                        tables=_profile_tables(prof, config))


def _cmd_spectrum(config: RunConfig) -> ResultBundle:
    prof = _solve_profile(config)
    size = config.grid["sector_size"]
    spectra = sector_spectra(prof, size)
    rep = _nondegeneracy_report(prof, spectra)
    eig_rows, fun_rows = [], []
    grounds = {}
    for (which, sector), spec in sorted(spectra.items()):
        grounds[f"{which}_{sector}_ground"] = float(spec.eigenvalues[0])
        eig_rows.extend((which, sector, idx, lam)
                        for idx, lam in enumerate(spec.eigenvalues.tolist()))
        for rank in (0, 1):
            vec = spec.eigenvectors[:, rank].tolist()
            fun_rows.extend((which, sector, rank, j, v)
                            for j, v in enumerate(vec))
    results = {
        "morse_plus": rep.morse_plus,
        "morse_minus": rep.morse_minus,
        "ker_plus_residual": rep.ker_plus_residual,
        "ker_minus_residual": rep.ker_minus_residual,
        "ker_alignments": rep.ker_alignments,
        "second_eigenfunction_sign_changes":
            rep.second_eigenfunction_sign_changes,
        "gs_ordering": rep.gs_ordering,
        "sector_grounds": grounds,
    }
    if config.problem.gamma == -1:
        results["jordan"] = jordan_structure(prof)
    results["profile"] = _profile_scalars(prof)
    return ResultBundle(
        config=config, results=results,
        tables={
            "eigenvalues": (("operator", "sector", "index", "value"),
                            eig_rows),
            "eigenfunctions": (("operator", "sector", "rank", "j", "coord"),
                               fun_rows),
        })


def _cmd_kernels(config: RunConfig) -> ResultBundle:
    prob = config.problem
    alpha = config.kernels["alpha"]
    if alpha is None:
        alpha = prob.alpha
    T = prob.half_period
    n = config.kernels["n"]
    unit = (T / np.pi) ** alpha
    per_time = []
    rows = []
    for t_rel in config.kernels["times"]:
        t = float(t_rel) * unit
        kp = kernel_kp(alpha, T, t, n)
        ka = kernel_ka(kp)
        margins = positivity_report(ka)
        margins["t_relative"] = float(t_rel)
        per_time.append(margins)
        rows.extend((t, x, p, a) for x, p, a in zip(
            kp.x.tolist(), kp.grid.tolist(), ka.grid.tolist()))
    results = {"alpha": alpha, "time_unit": unit, "positivity": per_time}
    return ResultBundle(
        config=config, results=results,
        tables={"kernel_samples": (("t", "x", "kp", "ka"), rows)})


def _cmd_rearrange(config: RunConfig) -> ResultBundle:
    prob = config.problem
    rc = config.rearrange
    checks = polya_szego_trials(prob.half_period, prob.alpha, rc["n_modes"],
                                rc["n_grid"], rc["trials"],
                                np.random.default_rng(config.seed))
    violations = sum(not chk["satisfied"] for chk in checks)
    worst = max([0.0] + [chk["violation"] for chk in checks])
    rows = [(trial, chk["kinetic_original"], chk["kinetic_star"],
             chk["violation"], chk["eps_rearr"])
            for trial, chk in enumerate(checks)]
    xs = 2.0 * prob.half_period * np.arange(rc["n_grid"]) / rc["n_grid"]
    vpot = GridSamples(prob.half_period,
                       np.cos(2.0 * np.pi * xs / prob.half_period))
    ordering = potential_ordering_check(vpot, trials=rc["trials"],
                                        n_modes=rc["n_modes"],
                                        seed=config.seed)
    results = {
        "polya_szego": {"trials": rc["trials"], "violations": violations,
                        "max_violation": worst, "n": rc["n_grid"]},
        "potential_ordering": ordering,
    }
    return ResultBundle(
        config=config, results=results,
        tables={"polya_trials": (("trial", "kinetic_original",
                                  "kinetic_star", "violation", "budget"),
                                 rows)})


def _cmd_evolve(config: RunConfig) -> ResultBundle:
    prof = _solve_profile(config)
    ev = config.evolve
    out = evolve_state(initial_state(prof.field, ev["dt"]), config.problem,
                       prof.omega, steps=ev["steps"],
                       log_interval=ev["log_interval"])
    rho = orbital_distance(out.field, prof)
    results = {
        "dt": ev["dt"], "steps": ev["steps"], "time": out.time,
        "rho_final": rho, "flagged": out.flagged, "drift": out.drift(),
        "profile": _profile_scalars(prof),
    }
    rows = [tuple(row) for row in out.conserved_log.tolist()]
    return ResultBundle(
        config=config, results=results,
        tables={"conserved": (("t", "hamiltonian", "charge", "momentum"),
                              rows)})


def _cmd_sweep(config: RunConfig) -> ResultBundle:
    prof = _solve_profile(config)
    sw = config.sweep
    if sw["target"] is None:
        raise ValidationError("sweep.target is required for the sweep command")
    result = continue_in(prof, sw["parameter"], sw["target"], sw["steps"],
                         tol=config.solver["tol"])
    rows = [(float(getattr(p, sw["parameter"])), float(p.omega), float(p.c),
             float(p.mu), charge(p.field), momentum(p.field), p.residual)
            for p in result.profiles]
    results = {
        "parameter": sw["parameter"],
        "target": sw["target"],
        "points": len(result.profiles),
        "failed_at": result.failed_at,
    }
    return ResultBundle(
        config=config, results=results,
        tables={"sweep": (("value", "omega", "c", "mu", "charge",
                           "momentum", "residual"), rows)})


def _cmd_report(config: RunConfig) -> ResultBundle:
    prof = _solve_profile(config)
    st = config.stability
    rng = np.random.default_rng(config.seed)
    perturbations = [n_preserving_perturbation(prof, eps, rng)
                     for eps in st["epsilons"]]
    horizon = st["horizon_periods"] * config.problem.half_period
    rep = stability_experiment(prof, perturbations, horizon=horizon,
                               dt=st["dt"],
                               log_interval=st["log_interval"],
                               spectrum_size=config.grid["sector_size"])
    runs = []
    rows = []
    for i, run in enumerate(rep.orbital_distance_series):
        runs.append({
            "epsilon": float(st["epsilons"][i]),
            "perturbation_norm": run["perturbation_norm"],
            "c_emp": run["c_emp"],
            "drift": run["drift"],
            "secular_fraction": run["secular_fraction"],
            "quadratic_form": run["quadratic_form"],
        })
        rows.extend((i, float(st["epsilons"][i]), t, r)
                    for t, r in zip(run["times"].tolist(), run["rho"].tolist()))
    results = {
        "indices": {"dNdc": rep.dNdc, "dQdomega": rep.dQdomega,
                    "dQdmu": rep.dQdmu},
        "runs": runs,
        "c_emp": rep.c_emp,
        "horizon": horizon,
        "coercivity": rep.coercivity,
        "profile": _profile_scalars(prof),
    }
    return ResultBundle(
        config=config, results=results,
        tables={"rho_series": (("run", "epsilon", "t", "rho"), rows)})


_DISPATCH = {
    "solve": _cmd_solve,
    "spectrum": _cmd_spectrum,
    "kernels": _cmd_kernels,
    "rearrange": _cmd_rearrange,
    "evolve": _cmd_evolve,
    "sweep": _cmd_sweep,
    "report": _cmd_report,
}


def run(config: RunConfig) -> ResultBundle:
    """Dispatch a validated config to its command implementation, once
    its output directory, if it names one, exists."""
    if config.command is None:
        raise ValidationError(
            "no command selected: set run.command in the config or pass "
            "--command")
    if config.out is not None:
        _writing(Path(config.out).mkdir, parents=True, exist_ok=True)
    return _DISPATCH[config.command](config)


def _writing(write, *args, **kwargs):
    """write(*args, **kwargs), an OSError raised as ValidationError."""
    try:
        return write(*args, **kwargs)
    except OSError as exc:
        raise ValidationError(f"cannot write output: {exc}") from exc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fnlslab",
        description="Standing waves, spectra, kernels, rearrangements, and "
                    "evolution for antiperiodic fractional NLS.")
    parser.add_argument("--config", required=True,
                        help="path to an INI run configuration")
    parser.add_argument("--out", default=None,
                        help="directory for report.json, CSV tables, and "
                             "the config echo")
    parser.add_argument("--seed", type=int, default=None,
                        help="override run.seed")
    parser.add_argument("--command", choices=COMMANDS, default=None,
                        help="override run.command")
    args = parser.parse_args(argv)

    try:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except OSError as exc:
            raise ValidationError(f"cannot read config: {exc}") from exc
        config = parse_config(text).with_overrides(
            command=args.command, seed=args.seed, out=args.out)
        bundle = run(config)
        for line in result_lines(bundle):
            print(line)
        if config.out is not None:
            for path in _writing(emit, bundle, config.out):
                print(f"wrote {path}")
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except PropertyViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
