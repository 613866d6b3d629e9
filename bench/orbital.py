"""Workload `orbital`: orbital stability by long split-step runs.

Per alpha in {1.25, 1.5, 1.9} (defocusing, sigma = 1, mu = 1, M = 48)
one task runs stability_experiment on two seeded N-preserving
perturbations (epsilon 1e-4 and 1e-3, dt = 1e-3, a log every 500 steps,
a horizon of four half-periods), and one task evolves the unperturbed
profile and measures its orbit distance, together with that of seeded
translated and phase-rotated copies.  Strang steps on the N = 256 grid
are nearly all of the work; dense eigensolves stay at size 128.
"""

from __future__ import annotations

import numpy as np

import reference as ref
from common import Task, bound, ini, problem, solve_profile

EPSILONS = (1e-4, 1e-3)
COPIES = 3


def _stability(config, ctx):
    from fnlslab import dynamics

    prof = solve_profile(config)
    st = config.stability
    rng = np.random.default_rng(config.seed)
    perts = [dynamics.n_preserving_perturbation(prof, eps, rng)
             for eps in st["epsilons"]]
    rep = dynamics.stability_experiment(
        prof, perts, horizon=st["horizon_periods"] * config.problem.half_period,
        dt=st["dt"], log_interval=st["log_interval"], tol_cons=1e-6,
        spectrum_size=config.grid["sector_size"])
    return {"params": prof.params, "k": prof.field.wavenumbers,
            "coeff": prof.field.coeff.copy(), "epsilons": list(st["epsilons"]),
            "perturbations": [v.coeff.copy() for v in perts],
            "runs": [{key: run[key] for key in
                      ("c_emp", "secular_fraction", "drift", "perturbation_norm")}
                     for run in rep.orbital_distance_series],
            "dNdc": rep.dNdc["value"]}


def check_stability(out):
    problems = []
    pars = out["params"]
    T = pars.half_period
    k = out["k"]
    for eps, v in zip(out["epsilons"], out["perturbations"]):
        total = ref.momentum(k, out["coeff"] + v)
        bound(problems, f"eps={eps}: |N(phi + v)|", abs(total), 1e-13)
        # scaled to eps, then corrected along i phi' by O(eps^2)
        norm = ref.x_norm(k, v, T, pars.alpha)
        bound(problems, f"eps={eps}: | ||v||_X / eps - 1 |", abs(norm / eps - 1.0), eps)
    for eps, v, run in zip(out["epsilons"], out["perturbations"], out["runs"]):
        norm = ref.x_norm(k, v, T, pars.alpha)
        bound(problems, f"eps={eps}: reported ||v||_X error",
              abs(run["perturbation_norm"] - norm), 1e-12 * norm)
        # both Strang substeps are l2 isometries: charge moves by roundoff
        bound(problems, f"eps={eps}: charge drift", run["drift"]["charge"], 1e-10)
        bound(problems, f"eps={eps}: worst drift", max(run["drift"].values()), 1e-6)
        bound(problems, f"eps={eps}: C_emp", run["c_emp"], 50.0)
        if not run["secular_fraction"] < 0.2:
            problems.append(f"eps={eps}: secular fraction "
                            f"{run['secular_fraction']:.3f} not below 0.2")
    ratio = out["runs"][1]["c_emp"] / out["runs"][0]["c_emp"]
    if not 1.0 / 3.0 <= ratio <= 3.0:
        problems.append(f"C_emp ratio {ratio:.3f} outside [1/3, 3]")
    if not abs(out["dNdc"]) > 0.1:
        problems.append(f"dN/dc = {out['dNdc']:.3e} does not stay away from 0")
    return problems


def _equilibrium(config, ctx):
    from fnlslab import dynamics, fields

    prof = solve_profile(config)
    ev = config.evolve
    state = dynamics.evolve(dynamics.initial_state(prof.field, ev["dt"]),
                            prof.params, prof.omega, steps=ev["steps"],
                            log_interval=ev["log_interval"])
    rng = np.random.default_rng(config.seed)
    copies = []
    for _ in range(COPIES):
        x0 = float(rng.uniform(0.0, 2.0 * prof.params.half_period))
        beta = float(rng.uniform(-np.pi, np.pi))
        u = fields.rotate_phase(fields.translate(prof.field, x0), beta)
        copies.append({"x0": x0, "coeff": u.coeff.copy(),
                       "rho": dynamics.orbital_distance(u, prof)})
    return {"params": prof.params, "k": prof.field.wavenumbers,
            "coeff": prof.field.coeff.copy(), "final": state.field.coeff.copy(),
            "rho": dynamics.orbital_distance(state.field, prof),
            "drift": state.drift(), "copies": copies}


def check_equilibrium(out):
    problems = []
    pars = out["params"]
    T = pars.half_period
    k = out["k"]
    bound(problems, "equilibrium orbit distance", out["rho"], 1e-8)
    bound(problems, "equilibrium charge drift", out["drift"]["charge"], 1e-10)
    bound(problems, "equilibrium worst drift", max(out["drift"].values()), 1e-8)
    # The scan can only overestimate the infimum, and by no more than
    # the shift Lipschitz constant ||phi'||_X times its spacing.
    lipschitz = ref.x_norm(k, out["coeff"] * (1j * np.pi * k / T), T, pars.alpha)
    scan, _, spacing = ref.orbit_distance_scan(k, out["final"], out["coeff"], T,
                                               pars.alpha)
    if not -1e-12 <= scan - out["rho"] <= lipschitz * spacing + 1e-12:
        problems.append(f"orbit distance {out['rho']:.3e} does not match the "
                        f"brute-force scan {scan:.3e}")
    scale = ref.x_norm(k, out["coeff"], T, pars.alpha)
    for c in out["copies"]:
        bound(problems, "orbit distance of a symmetry copy", c["rho"], 1e-12 * scale)
        scan, shift, spacing = ref.orbit_distance_scan(k, c["coeff"], out["coeff"],
                                                       T, pars.alpha)
        # a shift by T is a phase rotation by pi: shifts live modulo T
        gap = abs((shift - c["x0"] + 0.5 * T) % T - 0.5 * T)
        if not (c["rho"] <= scan + 1e-12 and gap <= spacing
                and scan <= lipschitz * spacing):
            problems.append(f"symmetry copy at x0 = {c['x0']:.6f}: brute-force "
                            f"scan finds shift {shift:.6f}, distance {scan:.3e}")
    return problems


def tasks(seed, quick=False):
    """The orbital task list; perturbations and copies derive from seed."""
    alphas = (1.5,) if quick else (1.25, 1.5, 1.9)
    out = []
    for i, a in enumerate(alphas):
        base = {"problem": problem(a, 1.0, -1),
                "solver": {"mu": 1, "n_modes": 16 if quick else 48},
                "run": {"seed": 1000 * seed + i}}
        stability = ini(**base, grid={"sector_size": 128},
                        stability={"horizon_periods": 0.5 if quick else 4,
                                   "dt": 1e-3,
                                   "epsilons": ", ".join(map(repr, EPSILONS)),
                                   "log_interval": 500})
        equilibrium = ini(**base, evolve={"dt": 5e-5,
                                          "steps": 2000 if quick else 10000,
                                          "log_interval": 2000})
        out.append(Task(f"stability a={a}", stability, _stability, check_stability))
        out.append(Task(f"equilibrium a={a}", equilibrium, _equilibrium,
                        check_equilibrium))
    return out
