"""End-to-end acceptance checklist.

One test per criterion, with the tolerances pinned in the assertions:

 1. elliptic closed forms reproduce the alpha = 2 solver output
 2. nondegeneracy reports across the (alpha, sigma) grid, both branches
 3. kernel positivity margins and lattice-sum oracles
 4. rearrangement inequalities on random fields with an O(1/N) budget
 5. operator identities, derivative chains, and the Jordan pairings
 6. long-time conservation and equilibrium orbit distance
 7. orbital stability constants from perturbed evolutions
 8. byte-identical seeded reruns of the persisted reports

Each test ends with a one-line summary so `pytest -v -s` reads as a
checklist.  Runtime caps are asserted where the contract sets them.
"""

import time

import numpy as np
import pytest

import fnlslab.cli as cli
from fnlslab.config import parse_config
from fnlslab.dynamics import (evolve, initial_state,
                              n_preserving_perturbation, orbital_distance,
                              stability_experiment)
from fnlslab.errors import OmegaOutOfRange
from fnlslab.fields import random_field, real_part, to_grid
from fnlslab.kernels import kernel_ka, kernel_kp, positivity_report
from fnlslab.params import ProblemParams
from fnlslab.profiles import (gauge_fix, solve_defocusing, solve_focusing)
from fnlslab.rearrange import polya_szego_check, potential_ordering_check
from fnlslab.spectrum import (assemble, fredholm_range_checks,
                              jordan_structure, nondegeneracy_check,
                              sector_spectra)
import oracles

T = np.pi

_CACHE = {}


def defocusing_profile(alpha, sigma=1.0):
    key = (-1, alpha, sigma)
    if key not in _CACHE:
        p = ProblemParams(alpha=alpha, sigma=sigma, gamma=-1, half_period=T)
        # sigma = 1/2 has a kinked nonlinearity; the solver floor is the
        # documented 1/M^2 truncation level, not the Newton tolerance
        if sigma == 0.5:
            _CACHE[key] = solve_defocusing(p, mu=1.0, n_modes=96, tol=2e-4)
        else:
            _CACHE[key] = solve_defocusing(p, mu=1.0, n_modes=48, tol=1e-12)
    return _CACHE[key]


def focusing_profile(alpha, sigma=1.0):
    key = (1, alpha, sigma)
    if key not in _CACHE:
        p = ProblemParams(alpha=alpha, sigma=sigma, gamma=1, half_period=T)
        _CACHE[key] = solve_focusing(p, omega=0.5, p0=1.0, n_modes=48)
    return _CACHE[key]


def test_criterion_1_elliptic_closed_forms():
    worst = 0.0
    p_def = ProblemParams(alpha=2.0, sigma=1.0, gamma=-1, half_period=T)
    for m in (0.3, 0.6, 0.9):
        t0 = time.perf_counter()
        mu = oracles.snoidal_charge(m, T)
        prof = gauge_fix(solve_defocusing(p_def, mu=mu, n_modes=48,
                                          tol=1e-12))
        elapsed = time.perf_counter() - t0
        g = to_grid(prof.field, 2048)
        err = float(np.max(np.abs(g.values - oracles.snoidal_values(
            g.x, m, T))))
        _, _, om_true = oracles.snoidal_params(m, T)
        assert err <= 1e-6
        assert abs(prof.omega - om_true) <= 1e-8
        assert elapsed <= 10.0
        worst = max(worst, err)

    p_foc = ProblemParams(alpha=2.0, sigma=1.0, gamma=1, half_period=T)
    for m in (0.3, 0.6, 0.75):
        t0 = time.perf_counter()
        _, _, om_true = oracles.cnoidal_params(m, T)
        prof = gauge_fix(solve_focusing(p_foc, omega=om_true, p0=1.0,
                                        n_modes=48))
        elapsed = time.perf_counter() - t0
        g = to_grid(prof.field, 2048)
        err = float(np.max(np.abs(g.values - oracles.cnoidal_values(
            g.x, m, T))))
        assert err <= 1e-6
        assert elapsed <= 10.0
        worst = max(worst, err)
    # the m = 0.9 cnoidal frequency exceeds the admissible window; the
    # analogue point is a verified rejection rather than a profile match
    _, _, om_big = oracles.cnoidal_params(0.9, T)
    assert abs(om_big) >= (np.pi / T) ** 2.0
    with pytest.raises(OmegaOutOfRange):
        solve_focusing(p_foc, omega=om_big, p0=1.0, n_modes=48)
    print(f"\ncriterion 1: PASS - six elliptic profiles, worst sup error "
          f"{worst:.2e} (bound 1e-6); m=0.9 focusing rejected at the "
          f"frequency window")


def test_criterion_2_nondegeneracy_grid():
    points = [(a, s, defocusing_profile, (0, 1))
              for a in (1.25, 1.5, 1.9) for s in (0.5, 1.0, 2.0)]
    points += [(a, 1.0, focusing_profile, (1, 0)) for a in (1.25, 1.5, 1.9)]
    worst_shift = 0.0
    for alpha, sigma, solver, morse in points:
        t0 = time.perf_counter()
        prof = solver(alpha, sigma)
        rep = nondegeneracy_check(prof, size=512)
        assert (rep.morse_plus, rep.morse_minus) == morse
        for which in ("L_plus", "L_minus"):
            a = rep.ker_alignments[which]
            assert a["near_zero_count"] == 1
            assert abs(a["eigenvalue"]) <= a["tol_kernel"]
            assert a["cosine"] >= 0.999
        for block in rep.second_eigenfunction_sign_changes.values():
            for sector in block.values():
                assert sector["ground"] == 0  # sign-definite ground
        for which in ("L_plus", "L_minus"):
            for sector in ("even", "odd"):
                lam = np.linalg.eigvalsh(
                    assemble(prof, which, sector, 512))[:8]
                lam2 = np.linalg.eigvalsh(
                    assemble(prof, which, sector, 1024))[:8]
                shift = float(np.max(np.abs(lam - lam2)))
                assert shift <= 1e-8
                worst_shift = max(worst_shift, shift)
        assert time.perf_counter() - t0 <= 60.0
    print(f"\ncriterion 2: PASS - {len(points)} grid points, worst basis-"
          f"doubling shift {worst_shift:.2e} (bound 1e-8)")


def test_criterion_3_kernel_positivity_and_oracles():
    worst_margin = np.inf
    for alpha in (1.1, 1.5, 2.0):
        unit = (T / np.pi) ** alpha
        for t_rel in (0.1, 1.0, 10.0):
            kp = kernel_kp(alpha, T, t_rel * unit, 1024)
            rep = positivity_report(kernel_ka(kp))
            for key in ("interior_min", "decrease_min", "even_pair_min",
                        "odd_pair_min"):
                assert rep[key] > 0.0
                worst_margin = min(worst_margin, rep[key])
    worst_oracle = 0.0
    for t_rel in (0.1, 1.0, 10.0):
        kp = kernel_kp(2.0, T, t_rel, 1024)
        err = float(np.max(np.abs(
            kp.grid - oracles.gaussian_lattice_kernel(kp.x, t_rel, T))))
        assert err <= 1e-10
        worst_oracle = max(worst_oracle, err)
        kp = kernel_kp(1.0, T, t_rel, 1024)
        err = float(np.max(np.abs(
            kp.grid - oracles.poisson_closed_form(kp.x, t_rel, T))))
        assert err <= 1e-10
        worst_oracle = max(worst_oracle, err)
    print(f"\ncriterion 3: PASS - 9 positivity reports (worst margin "
          f"{worst_margin:.2e}), lattice oracles to {worst_oracle:.2e} "
          f"(bound 1e-10)")


def test_criterion_4_rearrangement_inequalities():
    budgets = {}
    for alpha in (1.25, 1.5, 1.9):
        for n in (256, 512, 1024):
            rng = np.random.default_rng(42)
            worst_budget = 0.0
            for _ in range(100):
                f = real_part(random_field(T, 16, rng))
                chk = polya_szego_check(f, alpha, n=n)
                assert chk["satisfied"]
                assert chk["violation"] <= 1e-10
                worst_budget = max(worst_budget, chk["eps_rearr"])
            budgets[(alpha, n)] = worst_budget
        # identical fields at each n: the documented defect must halve
        assert budgets[(alpha, 256)] >= 1.9 * budgets[(alpha, 512)]
        assert budgets[(alpha, 512)] >= 1.9 * budgets[(alpha, 1024)]

    from fnlslab.fields import GridSamples
    ord_budgets = {}
    for n in (256, 512, 1024):
        xs = 2.0 * T * np.arange(n) / n
        vpot = GridSamples(T, np.cos(2.0 * np.pi * xs / T))
        chk = potential_ordering_check(vpot, trials=100, n_modes=16, seed=7)
        assert chk["satisfied"] and chk["violations"] == 0
        ord_budgets[n] = chk["eps_rearr"]
    assert ord_budgets[256] >= 1.9 * ord_budgets[512]
    assert ord_budgets[512] >= 1.9 * ord_budgets[1024]
    print(f"\ncriterion 4: PASS - 900 kinetic + 300 ordering trials, zero "
          f"violations; budget at N=1024 down to "
          f"{max(budgets[(a, 1024)] for a in (1.25, 1.5, 1.9)):.2e}")


def test_criterion_5_identities_and_jordan():
    worst = dict(identity=0.0, chain=0.0, dqdmu=0.0)
    for alpha in (1.25, 1.5, 1.9):
        prof = defocusing_profile(alpha)
        spectra = sector_spectra(prof, 128)
        fr = fredholm_range_checks(prof, spectra)
        assert fr["identity_minus_inf"] <= 1e-8
        assert fr["identity_plus_inf"] <= 1e-8
        assert fr["mu_chain_inf"] <= 1e-5
        jo = jordan_structure(prof)
        assert jo["chain_mu_inf"] <= 1e-5
        assert jo["chain_c_inf"] <= 1e-5
        assert abs(jo["dQ_dmu"] - 1.0) <= 1e-6
        assert abs(jo["dN_dc"]) > 0.1
        worst["identity"] = max(worst["identity"], fr["identity_minus_inf"],
                                fr["identity_plus_inf"])
        worst["chain"] = max(worst["chain"], jo["chain_mu_inf"],
                             jo["chain_c_inf"])
        worst["dqdmu"] = max(worst["dqdmu"], abs(jo["dQ_dmu"] - 1.0))
    print(f"\ncriterion 5: PASS - identities to {worst['identity']:.2e} "
          f"(bound 1e-8), chains to {worst['chain']:.2e} (bound 1e-5), "
          f"dQ/dmu = 1 to {worst['dqdmu']:.2e}")


def test_criterion_6_conservation_and_equilibrium():
    prof = defocusing_profile(1.5)
    state = evolve(initial_state(prof.field, 5e-5), prof.params, prof.omega,
                   steps=100_000, log_interval=10_000)
    rho = orbital_distance(state.field, prof)
    drifts = state.drift()
    assert rho <= 1e-8
    assert max(drifts.values()) <= 1e-8
    assert not state.flagged
    print(f"\ncriterion 6: PASS - 1e5 steps, rho {rho:.2e} and worst drift "
          f"{max(drifts.values()):.2e} (bounds 1e-8)")


def test_criterion_7_orbital_stability():
    epsilons = (1e-4, 1e-3)
    worst_c = 0.0
    for alpha in (1.25, 1.5, 1.9):
        prof = defocusing_profile(alpha)
        rng = np.random.default_rng(2024)
        perturbations = [n_preserving_perturbation(prof, eps, rng)
                         for eps in epsilons]
        rep = stability_experiment(prof, perturbations, horizon=100.0 * T,
                                   dt=1e-3, log_interval=500,
                                   tol_cons=1e-6)
        assert abs(rep.dNdc["value"]) > 0.1  # verified dN/dc != 0
        runs = rep.orbital_distance_series
        for run in runs:
            assert run["c_emp"] <= 50.0
            assert run["secular_fraction"] < 0.2  # no secular trend
            assert max(run["drift"].values()) <= 1e-6
        ratio = runs[1]["c_emp"] / runs[0]["c_emp"]
        assert 1.0 / 3.0 <= ratio <= 3.0
        worst_c = max(worst_c, rep.c_emp)
    print(f"\ncriterion 7: PASS - three points over horizon 100T, "
          f"C_emp {worst_c:.3f} (bound 50), eps-ratio within factor 3")


CFG_REARRANGE = f"""
[problem]
alpha = 1.5
sigma = 1
gamma = -1
half_period = {T!r}

[run]
command = rearrange
seed = 31

[rearrange]
trials = 50
n_modes = 12
n_grid = 512
"""

CFG_REPORT = f"""
[problem]
alpha = 1.5
sigma = 1
gamma = -1
half_period = {T!r}

[run]
command = report
seed = 31

[solver]
mu = 1
n_modes = 32

[grid]
sector_size = 64

[stability]
horizon_periods = 1
dt = 1e-2
epsilons = 1e-4, 1e-3
log_interval = 20
"""

CFG_SOLVE = f"""
[problem]
alpha = 1.5
sigma = 1
gamma = -1
half_period = {T!r}

[run]
command = solve
seed = 31

[solver]
mu = 1
n_modes = 32

[grid]
n_grid = 256
"""


@pytest.mark.parametrize("text", [CFG_REARRANGE, CFG_REPORT, CFG_SOLVE],
                         ids=["rearrange", "report", "solve"])
def test_criterion_8_seeded_reruns_byte_identical(text, tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    dirs = (tmp_path / "first", tmp_path / "second")
    for d in dirs:
        assert cli.main(["--config", str(cfg), "--out", str(d)]) == 0
    names = sorted(p.name for p in dirs[0].iterdir())
    assert "report.json" in names
    for name in names:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
    command = parse_config(text).command
    print(f"\ncriterion 8 [{command}]: PASS - {len(names)} artifacts "
          f"byte-identical across seeded reruns")
