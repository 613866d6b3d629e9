"""Workload `certify`: the paper's nondegeneracy claims over the
criterion-2 grid.

Per grid point one task solves the profile, runs nondegeneracy_check at
sector size 512 and assembles and diagonalizes all four blocks at 512
and 1024 for the basis-doubling check.  One chain task runs
jordan_structure and fredholm_range_checks at each defocusing sigma in
{1, 2} point and at (alpha, sigma) = (1.5, 1/2); one alpha = 2 point is
compared with the Jacobi snoidal closed form.  Dense assembly and
eigh at 512/1024 are nearly all of the work.  No input depends on the
seed.
"""

from __future__ import annotations

import numpy as np

import reference as ref
from common import HALF_PERIOD, Task, bound, ini, problem, sign_changes, solve_profile

OPERATORS = ("L_plus", "L_minus")
SECTORS = ("even", "odd")

# The sigma = 1/2 profile solves to its documented floor (residual ~2e-5
# at 96 modes), but the family derivatives re-solve its neighbours at the
# package default tolerance 1e-9 and raise NonConvergence.
SIGMA_HALF_FAULT = ("neighbour solves of jordan_structure / "
                    "fredholm_range_checks use the default profile "
                    "tolerance, below the sigma = 1/2 floor")

SNOIDAL_M = 0.6


def _solver(alpha, sigma, gamma, quick):
    if gamma == 1:
        return {"omega": 0.5, "p0": 1, "n_modes": 16 if quick else 48}
    if sigma == 0.5:
        return {"mu": 1, "n_modes": 96, "tol": 2e-4}
    return {"mu": 1, "n_modes": 16 if quick else 48}


def _config(alpha, sigma, gamma, size, quick):
    return ini(problem=problem(alpha, sigma, gamma),
               solver=_solver(alpha, sigma, gamma, quick),
               grid={"sector_size": size})


def _point(config, ctx):
    from fnlslab import spectrum

    prof = solve_profile(config)
    size = config.grid["sector_size"]
    rep = spectrum.nondegeneracy_check(prof, size=size)
    blocks = {}
    for which in OPERATORS:
        for sector in SECTORS:
            low = spectrum.eigensolve(spectrum.assemble(prof, which, sector, size))
            high = spectrum.eigensolve(spectrum.assemble(prof, which, sector, 2 * size))
            near = int(np.argmin(np.abs(low.eigenvalues)))
            blocks[(which, sector)] = {
                "low": low.eigenvalues[:8].copy(),
                "high": high.eigenvalues[:8].copy(),
                "ground": low.eigenvectors[:, 0].copy(),
                "near_zero": low.eigenvectors[:, near].copy(),
            }
    f = prof.field
    return {"k": f.wavenumbers, "coeff": f.coeff.copy(), "omega": prof.omega,
            "params": prof.params, "tol": config.solver["tol"], "size": size,
            "report": rep, "blocks": blocks}


def check_point(out):
    problems = []
    pars = out["params"]
    T = pars.half_period
    res = ref.profile_residual(out["k"], out["coeff"], T, pars.alpha,
                               pars.sigma, pars.gamma, out["omega"])
    bound(problems, "direct-sum profile residual", res, out["tol"])

    rep = out["report"]
    morse = (0, 1) if pars.gamma == -1 else (1, 0)
    if (rep.morse_plus, rep.morse_minus) != morse:
        problems.append(f"Morse counts {(rep.morse_plus, rep.morse_minus)} "
                        f"!= {morse}")
    size = out["size"]
    generator = {
        "L_plus": ("odd", ref.sector_coords(
            out["k"], out["coeff"] * (1j * np.pi * out["k"] / T), T, "odd", size)),
        "L_minus": ("even", ref.sector_coords(out["k"], out["coeff"], T,
                                              "even", size)),
    }
    for i, which in enumerate(OPERATORS):
        tolk = rep.ker_alignments[which]["tol_kernel"]
        union = np.concatenate([out["blocks"][(which, s)]["low"] for s in SECTORS])
        if int(np.sum(union < -tolk)) != morse[i]:
            problems.append(f"{which}: {int(np.sum(union < -tolk))} negative "
                            f"eigenvalues, expected {morse[i]}")
        near = int(np.sum(np.abs(union) <= tolk))
        if near != 1 or rep.ker_alignments[which]["near_zero_count"] != 1:
            problems.append(f"{which}: {near} near-zero eigenvalues")
        sector, gen = generator[which]
        vec = out["blocks"][(which, sector)]["near_zero"]
        cosine = abs(float(vec @ gen)) / float(np.linalg.norm(gen))
        if not cosine >= 0.999:
            problems.append(f"{which}: kernel cosine {cosine:.6f} with the "
                            f"symmetry generator below 0.999")
        for s in SECTORS:
            blk = out["blocks"][(which, s)]
            changes = sign_changes(ref.sector_values(s, blk["ground"], T))
            if changes:
                problems.append(f"{which} {s}: ground state changes sign "
                                f"{changes} times")
            shift = float(np.max(np.abs(blk["low"] - blk["high"])))
            bound(problems, f"{which} {s} basis-doubling shift", shift, 1e-8)
    return problems


def _chains(config, ctx):
    from fnlslab import spectrum

    prof = solve_profile(config)
    spectra = spectrum.sector_spectra(prof, config.grid["sector_size"])
    return {"jordan": spectrum.jordan_structure(prof),
            "fredholm": spectrum.fredholm_range_checks(prof, spectra)}


def check_chains(out):
    jo, fr = out["jordan"], out["fredholm"]
    problems = []
    bound(problems, "identity_minus_inf", fr["identity_minus_inf"], 1e-8)
    bound(problems, "identity_plus_inf", fr["identity_plus_inf"], 1e-8)
    bound(problems, "mu_chain_inf", fr["mu_chain_inf"], 1e-5)
    bound(problems, "chain_mu_inf", jo["chain_mu_inf"], 1e-5)
    bound(problems, "chain_c_inf", jo["chain_c_inf"], 1e-5)
    bound(problems, "|dQ/dmu - 1|", abs(jo["dQ_dmu"] - 1.0), 1e-6)
    if not abs(jo["dN_dc"]) > 0.1:
        problems.append(f"dN/dc = {jo['dN_dc']:.3e} does not stay away from 0")
    return problems


def _snoidal(config, ctx):
    from fnlslab import profiles

    prof = profiles.gauge_fix(solve_profile(config))
    return {"k": prof.field.wavenumbers, "coeff": prof.field.coeff.copy(),
            "omega": prof.omega}


def check_snoidal(out):
    problems = []
    x = 2.0 * HALF_PERIOD * np.arange(2048) / 2048
    exact, omega = ref.snoidal(SNOIDAL_M, HALF_PERIOD, x)
    err = float(np.max(np.abs(ref.mode_sum(out["k"], out["coeff"], HALF_PERIOD, x)
                              - exact)))
    bound(problems, "snoidal sup error", err, 1e-6)
    bound(problems, "snoidal omega error", abs(out["omega"] - omega), 1e-8)
    return problems


def tasks(seed, quick=False):
    """The certify task list (the seed does not enter).  Each defocusing
    point is followed by its chain task, so the short tasks are spread
    over the round instead of bunched at its end."""
    alphas = (1.5,) if quick else (1.25, 1.5, 1.9)
    sigmas = (1.0,) if quick else (0.5, 1.0, 2.0)
    size = 64 if quick else 512
    out = []
    for a in alphas:
        for s in sigmas:
            out.append(Task(f"point a={a} s={s} defocusing",
                            _config(a, s, -1, size, quick), _point, check_point))
            if s != 0.5 or a == 1.5:
                out.append(Task(f"chains a={a} s={s}", _config(a, s, -1, 128, quick),
                                _chains, check_chains,
                                SIGMA_HALF_FAULT if s == 0.5 else None))
        out.append(Task(f"point a={a} s=1.0 focusing",
                        _config(a, 1.0, 1, size, quick), _point, check_point))
    mu = ref.snoidal_charge(SNOIDAL_M, HALF_PERIOD)
    out.append(Task("snoidal a=2",
                    ini(problem=problem(2.0, 1.0, -1),
                        solver={"mu": repr(mu), "n_modes": 48, "tol": 1e-12}),
                    _snoidal, check_snoidal))
    return out
