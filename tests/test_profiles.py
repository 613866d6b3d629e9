"""Profile solver tests: elliptic closed-form oracles, branch structure,
gauge fixing, parameter continuation, and the constrained-minimization
degeneracies that shaped the solver design."""

import dataclasses
import functools
import inspect
import re

import numpy as np
import pytest

from fnlslab.errors import (GaugeAmbiguity, NonConvergence, OmegaOutOfRange,
                            SpeedOutOfRange, ValidationError)
from fnlslab import profiles
from fnlslab.fields import (GridSamples, cosine_field, odd_wavenumbers,
                            random_field, real_part, rotate_phase, synthesize,
                            to_grid, to_modes, translate, zero_field)
from fnlslab.functionals import (charge, momentum, moving_frame_energy,
                                 potential, quadratic_energy)
from fnlslab.params import TOL_PROFILE, ProblemParams
from fnlslab.profiles import (StandingProfile, _damped_newton, continue_in,
                              family_tangent, gauge_fix, profile_residual,
                              recovered_omega, solve_defocusing, solve_focusing)
import oracles

T = np.pi


def defoc(alpha=1.5, sigma=1.0):
    return ProblemParams(alpha=alpha, sigma=sigma, gamma=-1, half_period=T)


def foc(alpha=1.5, sigma=1.0):
    return ProblemParams(alpha=alpha, sigma=sigma, gamma=1, half_period=T)


def evenness_defect(f):
    """sup |f(x) - f(-x)| / sup |f| on a grid."""
    g = to_grid(f, max(64, 8 * f.n_modes))
    flip = np.roll(g.values[::-1], 1)  # values at -x_j on the same grid
    scale = np.max(np.abs(g.values))
    return float(np.max(np.abs(g.values - flip)) / max(scale, 1e-300))


# --- closed-form elliptic oracles (alpha = 2, sigma = 1) --------------------

@pytest.mark.parametrize("m", [0.3, 0.6, 0.9])
def test_defocusing_matches_snoidal_oracle(m):
    p = ProblemParams(alpha=2.0, sigma=1.0, gamma=-1, half_period=T)
    _, _, om_true = oracles.snoidal_params(m, T)
    mu = oracles.snoidal_charge(m, T)
    prof = gauge_fix(solve_defocusing(p, c=0.0, mu=mu, n_modes=48))
    g = to_grid(prof.field, 1024)
    ref = oracles.snoidal_values(g.x, m, T)
    assert np.max(np.abs(g.values - ref)) < 1e-6
    assert abs(prof.omega - om_true) < 1e-8
    assert prof.residual < 1e-9


@pytest.mark.parametrize("m", [0.3, 0.6, 0.75])
def test_focusing_matches_cnoidal_oracle(m):
    p = ProblemParams(alpha=2.0, sigma=1.0, gamma=1, half_period=T)
    _, _, om_true = oracles.cnoidal_params(m, T)
    prof = gauge_fix(solve_focusing(p, omega=om_true, p0=1.0, n_modes=48))
    g = to_grid(prof.field, 1024)
    ref = oracles.cnoidal_values(g.x, m, T)
    assert np.max(np.abs(g.values - ref)) < 1e-6
    assert prof.residual < 1e-9


def test_focusing_window_excludes_large_modulus_branch():
    # the m = 0.9 elliptic frequency sits beyond the admissible frequency
    # window, so the constructive contract rejects it rather than solving
    p = ProblemParams(alpha=2.0, sigma=1.0, gamma=1, half_period=T)
    _, _, om_true = oracles.cnoidal_params(0.9, T)
    assert om_true > p.frequency_limit
    with pytest.raises(OmegaOutOfRange):
        solve_focusing(p, omega=om_true, p0=1.0, n_modes=48)


def test_focusing_profile_independent_of_constraint_level():
    # the final profile solves the same equation whatever P level seeded
    # the minimization; only the multiplier rescale differs
    p = ProblemParams(alpha=2.0, sigma=1.0, gamma=1, half_period=T)
    _, _, om = oracles.cnoidal_params(0.6, T)
    f1 = gauge_fix(solve_focusing(p, omega=om, p0=1.0, n_modes=48)).field
    f2 = gauge_fix(solve_focusing(p, omega=om, p0=3.7, n_modes=48)).field
    assert np.max(np.abs(f1.coeff - f2.coeff)) < 1e-12


def test_focusing_hamiltonian_identity():
    # pairing the equation with the profile: K + omega Q = (sigma+1) P
    for sigma in (1.0, 2.0):
        p = foc(alpha=1.8, sigma=sigma)
        prof = solve_focusing(p, omega=0.4, p0=1.0, n_modes=48)
        k = quadratic_energy(prof.field, prof.omega, p.alpha)
        assert abs(k - (sigma + 1.0) * prof.p0) < 1e-10 * max(1.0, abs(k))


# --- branch structure -------------------------------------------------------

def test_c_zero_profile_real_even_decreasing():
    prof = gauge_fix(solve_defocusing(defoc(), c=0.0, mu=1.0, n_modes=48))
    assert prof.field.realness_defect() < 1e-12
    assert evenness_defect(prof.field) < 1e-10
    g = to_grid(prof.field, 512)
    inside = (g.x > 0) & (g.x < T)
    drops = -np.diff(np.real(g.values[inside]))
    assert np.min(drops) > 0.0  # strictly decreasing across the half period


def test_plane_wave_lies_below_real_branch():
    # At fixed charge the constant-modulus single-mode wave minimizes both
    # the kinetic and the potential term, so the real branch is a saddle of
    # the fixed-charge energy in the full complex class.  The solver must
    # return the real branch anyway; freezing both facts here.
    p = defoc()
    prof = solve_defocusing(p, c=0.0, mu=1.0, n_modes=48)
    f = zero_field(T, 4)
    c = f.coeff.copy()
    c[f.n_modes] = np.sqrt(2.0 / T)
    plane = f.with_coeff(c)
    assert abs(charge(plane) - 1.0) < 1e-14
    f_plane = moving_frame_energy(plane, 0.0, p)
    f_branch = prof.objective
    assert abs(f_plane - (1.0 + 1.0 / np.pi)) < 1e-12
    assert f_plane < f_branch - 0.1
    assert prof.field.realness_defect() < 1e-12


def test_minimizer_optimality_constrained_perturbations_defocusing():
    # second variation is nonnegative only orthogonally to BOTH constraint
    # gradients (charge and momentum); random tangent probes there
    p = defoc()
    prof = solve_defocusing(p, c=0.0, mu=1.0, n_modes=32)
    u = prof.field
    base = moving_frame_energy(u, 0.0, p)
    k = u.wavenumbers
    g_q = u.coeff
    g_n = 1j * (1j * np.pi * k / T) * u.coeff  # coefficients of i u'
    rng = np.random.default_rng(20240817)
    T_inner = lambda a, b: np.real(T * np.sum(a * np.conj(b)))
    for _ in range(20):
        v = random_field(T, 32, rng, decay=2.0).coeff
        for g in (g_q, g_n):
            v = v - (T_inner(v, g) / T_inner(g, g)) * g
        v = 1e-3 * v / np.linalg.norm(v)
        pert = u.with_coeff(u.coeff + v)
        pert = pert.with_coeff(pert.coeff * np.sqrt(1.0 / charge(pert)))
        assert moving_frame_energy(pert, 0.0, p) >= base - 1e-12


def test_minimizer_optimality_constrained_perturbations_focusing():
    p = foc(alpha=1.8)
    prof = solve_focusing(p, omega=0.4, p0=1.0, n_modes=32)
    u = prof.field
    sig = p.sigma
    # perturb orthogonally to the potential-constraint gradient
    # |u|^(2 sigma) u, then rescale back onto the P level set
    vals = to_grid(u, 256).values
    g_p = to_modes(GridSamples(T, np.abs(vals) ** (2.0 * sig) * vals),
                   u.n_modes).coeff
    base = quadratic_energy(u, prof.omega, p.alpha)
    p_level = prof.p0
    rng = np.random.default_rng(20240818)
    T_inner = lambda a, b: np.real(T * np.sum(a * np.conj(b)))
    for _ in range(20):
        v = random_field(T, 32, rng, decay=2.0).coeff
        v = v - (T_inner(v, g_p) / T_inner(g_p, g_p)) * g_p
        v = 1e-3 * v / np.linalg.norm(v)
        pert = u.with_coeff(u.coeff + v)
        lam = (p_level / potential(pert, sig)) ** (1.0 / (2.0 * sig + 2.0))
        pert = pert.with_coeff(lam * pert.coeff)
        assert quadratic_energy(pert, prof.omega, p.alpha) >= base - 1e-12


def test_small_mu_bifurcation_from_fundamental_mode():
    # tiny charge: fundamental cosine with a^2 = 4 mu / T and the linear
    # frequency -(pi/T)^alpha
    p = defoc()
    mu = 1e-6
    prof = gauge_fix(solve_defocusing(p, c=0.0, mu=mu, n_modes=24))
    a1 = 2.0 * np.real(prof.field.coeff[prof.field.n_modes])
    assert abs(a1 / (2.0 * np.sqrt(mu / T)) - 1.0) < 1e-10
    assert abs(prof.omega + (np.pi / T) ** 1.5) < 2e-6
    # the frequency correction is linear in mu with negative sign
    prof2 = solve_defocusing(p, c=0.0, mu=1e-4, n_modes=24)
    d1 = prof.omega + (np.pi / T) ** 1.5
    d2 = prof2.omega + (np.pi / T) ** 1.5
    assert d1 < 0 and d2 < 0
    assert abs(d2 / d1 - 100.0) < 1.0


def test_descent_property_against_projected_init():
    p = defoc()
    rng = np.random.default_rng(7)
    init = real_part(random_field(T, 16, rng, decay=1.5)) * 0.5
    proj = init.with_coeff(init.coeff * np.sqrt(1.0 / charge(init)))
    prof = solve_defocusing(p, c=0.0, mu=1.0, n_modes=32, init=init)
    assert prof.objective <= moving_frame_energy(proj, 0.0, p) + 1e-12


def test_smoothness_geometric_coefficient_decay():
    prof = solve_defocusing(defoc(), c=0.0, mu=1.0, n_modes=64)
    a = np.abs(2.0 * np.real(prof.field.coeff[64:]))
    assert np.max(a[32:]) < 1e-12 * np.max(a)


# --- wave-speed continuation -------------------------------------------------

def test_omega_even_in_speed_and_derivative_imaginary():
    p = defoc()
    delta = 1e-3
    gp = gauge_fix(solve_defocusing(p, c=+delta, mu=1.0, n_modes=48))
    gm = gauge_fix(solve_defocusing(p, c=-delta, mu=1.0, n_modes=48))
    assert abs(gp.omega - gm.omega) < 1e-10
    d = (gp.field.coeff - gm.field.coeff) / (2.0 * delta)
    real_part = 0.5 * (d + np.conj(d[::-1]))
    g = to_grid(gp.field.with_coeff(real_part), 512)
    assert np.max(np.abs(g.values)) < 1e-6


def test_conjugation_symmetry_across_speed_sign():
    p = defoc()
    gp = gauge_fix(solve_defocusing(p, c=+0.05, mu=1.0, n_modes=48))
    gm = gauge_fix(solve_defocusing(p, c=-0.05, mu=1.0, n_modes=48))
    mirror = oracles.conjugate_field(gp.field)
    assert np.max(np.abs(gm.field.coeff - mirror.coeff)) < 1e-10


def test_momentum_odd_in_speed_and_nonzero():
    p = defoc()
    pp = solve_defocusing(p, c=+1e-3, mu=1.0, n_modes=48)
    pm = solve_defocusing(p, c=-1e-3, mu=1.0, n_modes=48)
    n_p, n_m = momentum(pp.field), momentum(pm.field)
    assert abs(n_p + n_m) < 1e-10
    assert abs(n_p) > 1e-4  # the branch responds to c at first order


def test_recovered_omega_agrees_with_multiplier():
    p = defoc()
    prof = solve_defocusing(p, c=0.05, mu=1.0, n_modes=48)
    assert abs(recovered_omega(prof.field, prof.c, p) - prof.omega) < 1e-10


def test_recovered_omega_refuses_the_zero_field():
    with pytest.raises(ValidationError, match=re.escape(
            "cannot recover omega from the zero field")):
        recovered_omega(zero_field(T, 4), 0.0, defoc())


@pytest.mark.parametrize("solve, message", [
    (lambda: solve_defocusing(defoc(), mu=1, n_modes=8,
                              init=zero_field(T, 8)),
     "charge collapsed during descent"),
    (lambda: solve_focusing(foc(), omega=0.5, n_modes=8,
                            init=zero_field(T, 8)),
     "potential collapsed during descent"),
], ids=["defocusing", "focusing"])
def test_descent_from_the_zero_field_names_its_collapse(solve, message):
    # the zero field has no charge (defocusing) or potential (focusing)
    # for the descent to renormalize by
    with pytest.raises(NonConvergence, match=f"^{re.escape(message)}$"):
        solve()


def test_continue_in_mu_tracks_constraint():
    p = defoc()
    start = solve_defocusing(p, c=0.0, mu=0.5, n_modes=32)
    sweep = continue_in(start, "mu", 2.0, 6)
    assert sweep.failed_at is None
    assert len(sweep.profiles) == 7
    for prof, mu in zip(sweep.profiles, np.linspace(0.5, 2.0, 7)):
        assert abs(charge(prof.field) - mu) < 1e-12 * max(1.0, mu)
    omegas = [prof.omega for prof in sweep.profiles]
    assert all(np.diff(omegas) < 0.0)  # frequency falls as charge grows


def test_continue_in_c_follows_branch():
    p = defoc()
    start = solve_defocusing(p, c=0.0, mu=1.0, n_modes=48)
    sweep = continue_in(start, "c", 0.4, 8)
    assert sweep.failed_at is None
    assert all(prof.residual < 1e-9 for prof in sweep.profiles)
    omegas = np.array([prof.omega for prof in sweep.profiles])
    assert np.all(np.abs(np.diff(omegas)) < 0.2)  # no branch jumps


def test_continue_in_partial_results_on_failure():
    p = defoc()
    start = solve_defocusing(p, c=0.0, mu=1.0, n_modes=32)
    sweep = continue_in(start, "c", 0.4, 2, tol=1e-16)  # unattainable tol
    assert sweep.failed_at == pytest.approx(0.2)
    assert sweep.profiles == [start]


def _same_profile(a, b):
    """Every field of two profiles equal, coefficients bit for bit."""
    return all(
        np.array_equal(getattr(a, f.name).coeff, getattr(b, f.name).coeff)
        if f.name == "field" else getattr(a, f.name) == getattr(b, f.name)
        for f in dataclasses.fields(a))


def _fresh_step(prev, parameter, value):
    """One continuation step as a public solve, in a workspace of its own."""
    p = prev.params
    if p.gamma == 1:
        return solve_focusing(p, omega=value, p0=prev.p0,
                              n_modes=prev.field.n_modes, init=prev.field)
    c = value if parameter == "c" else prev.c
    mu = value if parameter == "mu" else prev.mu
    return solve_defocusing(p, c=c, mu=mu, n_modes=prev.field.n_modes,
                            init=prev.field)


@pytest.mark.parametrize("branch, parameter, target", [
    ("defocusing", "c", 0.2), ("defocusing", "mu", 2.0),
    ("focusing", "omega", 0.8)])
def test_sweep_steps_match_fresh_solves(branch, parameter, target):
    if branch == "defocusing":
        start = solve_defocusing(defoc(), c=0.0, mu=1.0, n_modes=16)
    else:
        # 16 modes do not resolve this branch past omega = 0.65
        start = solve_focusing(foc(), omega=0.5, p0=1.0, n_modes=32)
    sweep = continue_in(start, parameter, target, 4)
    assert sweep.failed_at is None
    prev = start
    values = np.linspace(getattr(start, parameter), target, 5)[1:]
    for prof, value in zip(sweep.profiles[1:], values):
        fresh = _fresh_step(prev, parameter, value)
        assert _same_profile(prof, fresh)
        prev = fresh


@pytest.mark.parametrize("sigma, n_modes", [(1.0, 129), (2.0, 86)])
def test_workspace_nonlinearity_is_alias_free(sigma, n_modes):
    # a broadband u puts |u|^(2 sigma) u up to wavenumber (2 sigma + 1)(2M - 1);
    # the workspace grid must fold none of it into the band; the reference
    # is a direct mode sum and direct projection on 4096 points
    from fnlslab.profiles import _Workspace

    u = random_field(T, n_modes, np.random.default_rng(5), decay=0.0)
    vals = oracles.direct_synthesis(u.wavenumbers, u.coeff, T, 4096)
    expect = oracles.direct_analysis(np.abs(vals) ** (2 * sigma) * vals,
                                     u.wavenumbers)
    got = _Workspace(defoc(sigma=sigma), n_modes).nonlinear(u.coeff)
    assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))


@pytest.mark.parametrize("branch, parameter, target", [
    ("defocusing", "c", 0.1), ("defocusing", "mu", 1.5),
    ("focusing", "omega", 0.6)])
def test_continuation_is_one_public_solve_per_step(branch, parameter, target,
                                                   monkeypatch):
    # each step calls the branch's public solver once, in the band of the
    # start and from the previous step's field
    if branch == "defocusing":
        start = solve_defocusing(defoc(), c=0.0, mu=1.0, n_modes=16)
    else:
        start = solve_focusing(foc(), omega=0.5, p0=1.0, n_modes=32)
    calls = []

    def counted(name, solve):
        def call(*args, **kwargs):
            prof = solve(*args, **kwargs)
            bound = inspect.signature(solve).bind(*args, **kwargs)
            bound.apply_defaults()
            calls.append((name, bound.arguments["n_modes"], bound.arguments["init"], prof))
            return prof
        return call

    for name in ("solve_defocusing", "solve_focusing"):
        monkeypatch.setattr(profiles, name, counted(name, getattr(profiles, name)))
    sweep = continue_in(start, parameter, target, 4)
    assert sweep.failed_at is None and len(calls) == 4
    solver = f"solve_{branch}"
    for (name, n_modes, init, prof), prev, step in zip(
            calls, sweep.profiles, sweep.profiles[1:]):
        assert (name, n_modes) == (solver, start.field.n_modes)
        assert init is prev.field and prof is step


def test_continue_in_needs_a_step():
    start = solve_defocusing(defoc(), c=0.0, mu=1.0, n_modes=16)
    with pytest.raises(ValidationError, match="^sweep needs at least one step$"):
        continue_in(start, "mu", 1.2, 0)


def test_continue_in_rejects_foreign_parameter():
    p = defoc()
    start = solve_defocusing(p, c=0.0, mu=1.0, n_modes=16)
    with pytest.raises(ValidationError):
        continue_in(start, "omega", 0.5, 4)


# --- gauge fixing -------------------------------------------------------------

def test_gauge_fix_recovers_symmetry_mangled_profile():
    prof = gauge_fix(solve_defocusing(defoc(), c=0.0, mu=1.0, n_modes=48))
    rng = np.random.default_rng(11)
    for _ in range(5):
        beta = float(rng.uniform(0, 2 * np.pi))
        x0 = float(rng.uniform(0, 2 * T))
        mangled = dataclasses.replace(
            prof, field=rotate_phase(translate(prof.field, x0), beta))
        back = gauge_fix(mangled)
        assert np.max(np.abs(back.field.coeff - prof.field.coeff)) < 1e-10


def test_gauge_fix_idempotent():
    prof = gauge_fix(solve_defocusing(defoc(), c=0.0, mu=1.0, n_modes=32))
    again = gauge_fix(prof)
    assert np.max(np.abs(again.field.coeff - prof.field.coeff)) < 1e-13


def test_gauge_fix_centers_shifted_oracle():
    f = oracles.elliptic_field("snoidal", 0.5, T, 40)
    shifted = translate(f, T / 3.0)
    prof = StandingProfile(defoc(2.0), shifted, -1.0, 0.0, charge(shifted),
                           potential(shifted, 1.0), 0.0, 0, 0.0)
    fixed = gauge_fix(prof)
    assert evenness_defect(fixed.field) < 1e-8


def test_gauge_fix_flags_flat_modulus():
    f = zero_field(T, 4)
    c = f.coeff.copy()
    c[f.n_modes] = 1.0  # constant-modulus wave: no translation gauge
    prof = StandingProfile(defoc(), f.with_coeff(c), -1.0, 0.0, 1.0, 1.0,
                           0.0, 0, 0.0)
    with pytest.raises(GaugeAmbiguity):
        gauge_fix(prof)


def test_gauge_fix_flags_vanishing_int_phi_squared():
    # modes k = 1, 5, -3 have a clear modulus peak but no k, -k pair, so
    # int phi^2 = sum c_k c_-k vanishes and no phase maximizes Re phi
    f = zero_field(T, 3)
    c = f.coeff.copy()
    c[np.searchsorted(f.wavenumbers, [1, 5, -3])] = [1.0, 0.1, 0.1]
    prof = StandingProfile(defoc(), f.with_coeff(c), -1.0, 0.0, 1.0, 1.0,
                           0.0, 0, 0.0)
    with pytest.raises(GaugeAmbiguity, match="int phi\\^2 vanishes"):
        gauge_fix(prof)


# --- the damped Newton loop of both polishes ----------------------------------

def test_damped_newton_returns_the_start_when_no_halving_helps():
    calls = []

    def residual(x, omega):
        calls.append((x, omega))
        return np.array([1.0, 1.0])    # never drops

    x0 = np.array([2.0, 3.0])
    x, omega, steps = _damped_newton(x0, 0.5, residual,
                                     lambda x, omega, r: (-x, 1.0))
    assert x is x0 and omega == 0.5 and steps == 0
    assert len(calls) == 1 + 12        # the start and twelve halvings


def test_damped_newton_stops_at_the_relative_residual_test():
    # r = x, and each step halves x exactly: the loop runs until
    # |x| < 1e-13 max(1, |x|), first met at x = 2^-44 (2^-43 > 1e-13)
    x, omega, steps = _damped_newton(np.array([1.0]), 0.0,
                                     lambda x, omega: x,
                                     lambda x, omega, r: (-0.5 * x, 1.0))
    assert steps == 44
    assert x[0] == 2.0 ** -44
    assert omega == 44.0

    def no_step(x, omega, r):
        raise AssertionError("a converged start takes no step")

    _, _, steps = _damped_newton(np.array([4e-14]), 0.0,
                                 lambda x, omega: x, no_step)
    assert steps == 0


def test_real_even_jacobian_is_the_diagonal_minus_gamma_times_the_block(monkeypatch):
    # the step's sector_matrix against the rule it replaced, np.diag(lam +
    # omega) - gamma * block: equal values, though an exact zero off the
    # diagonal may change sign
    jacs, steps = [], []
    build = profiles.sector_matrix
    monkeypatch.setattr(profiles, "sector_matrix",
                        lambda *args: jacs.append(build(*args)) or jacs[-1])
    monkeypatch.setattr(profiles, "_damped_newton",
                        lambda x, omega, residual, step: steps.append(step))
    a = 0.5 ** np.arange(12) * np.random.default_rng(4).standard_normal(12)
    for gamma in (-1, 1):
        ws = profiles._Workspace(ProblemParams(1.5, 1.5, gamma, T), 12)
        profiles._newton_real_even(ws, a, 0.7, None)
        steps[-1](a, 0.7, np.ones(12))
        vals = synthesize(profiles._coeff_from_even_cos(ws, a), ws.bins, ws.N)
        wmat = oracles.cosine_block_reference(4.0 * np.abs(vals) ** 3.0, 12, 1.0)
        assert np.array_equal(jacs[-1], np.diag(ws.lam[12:] + 0.7) - gamma * wmat)


def test_real_even_newton_names_a_singular_system():
    # a = 0 zeroes the charge border of the bordered Jacobian
    ws = profiles._Workspace(ProblemParams(1.5, 1, -1, np.pi), 8)
    with pytest.raises(NonConvergence,
                       match="^singular Newton system: Singular matrix$"):
        profiles._newton_real_even(ws, np.zeros(8), 1.0, 1.0)


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("n_modes", [4, 16, 48])
def test_complex_jacobian_matches_the_fft_column_rule(sigma, n_modes):
    # the Toeplitz-plus-Hankel Jacobian against the one FFT column per unit
    # perturbation it replaced (tests/oracles.py), border excluded
    rng = np.random.default_rng(int(4 * sigma) + n_modes)
    size = 4 * n_modes + 1
    for gamma in (-1, 1):
        ws = profiles._Workspace(ProblemParams(1.5, sigma, gamma, T), n_modes)
        coeff = rng.standard_normal(2 * n_modes) + 1j * rng.standard_normal(2 * n_modes)
        old = oracles.complex_jacobian_reference(ws, coeff, 0.7, 0.13)
        new = profiles._bordered_jacobian(ws, coeff, ws.lam - 0.13 * ws.w + 0.7)
        assert new.shape == (size + 2, size + 2)
        assert np.max(np.abs(new[:size, :size] - old)) <= 1e-14 * np.max(np.abs(old))


def test_traveling_newton_keeps_the_symmetry_and_steps_off_the_orbit(monkeypatch):
    # from the real even c = 0 profile, u(-x) = conj u(x) (real coefficients)
    # holds along the whole branch; a step with a component along the orbit
    # directions i u and u' = i w u would break it.  A translated, rotated
    # start has no such symmetry, so its steps test the orthogonality alone
    steps = []
    newton = profiles._damped_newton

    def recording(x, omega, residual, step):
        def recorded(x, omega, r):
            dx, domega = step(x, omega, r)
            steps.append((x, dx))
            return dx, domega
        return newton(x, omega, residual, recorded)

    monkeypatch.setattr(profiles, "_damped_newton", recording)
    p = defoc()
    base = solve_defocusing(p, mu=1.0, n_modes=48)
    sweep = continue_in(base, "c", 0.2, 16)
    assert sweep.failed_at is None
    solved = sweep.profiles[1:] + [solve_defocusing(p, c, 1.0, 48) for c in (0.05, 0.2)]
    for prof in solved:
        coeff = prof.field.coeff
        assert np.max(np.abs(coeff.imag)) <= 1e-14 * np.max(np.abs(coeff))
    moved = rotate_phase(translate(base.field, 0.3), 0.5)
    assert solve_defocusing(p, 0.1, 1.0, 48, init=moved).residual < 1e-9
    w = np.pi * odd_wavenumbers(48) / T
    traveling = [(x, dx) for x, dx in steps if np.iscomplexobj(dx)]
    assert len(traveling) >= 16 + 2 + 1  # at least one per traveling solve
    for x, dx in traveling:
        for d in (1j * x, 1j * w * x):
            assert abs(np.real(np.vdot(d, dx))) <= 1e-13 * np.linalg.norm(d) * np.linalg.norm(dx)


def test_traveling_newton_names_a_singular_system(monkeypatch):
    # whether parallel border vectors leave an exact zero pivot depends on
    # the LU's rounding, so numpy's solve reports the singular system here
    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    ws = profiles._Workspace(defoc(), 8)
    with pytest.raises(NonConvergence,
                       match="^singular Newton system: Singular matrix$"):
        profiles._newton_complex(ws, cosine_field(T, 1.0, 8).coeff, 1.0, 0.1, 1.0)


# --- family tangents ----------------------------------------------------------

# The slopes whose central differences move at order h^2 along each family;
# the others are pinned by the constraint (dQ/dmu = domega/domega = 1) or by
# the symmetry of the real branch (dN/dmu, domega/dc, dQ/dc, dN/domega = 0).
_MOVING = {"mu": ("field", "omega"), "c": ("field", "momentum"),
           "omega": ("field", "charge")}


@functools.lru_cache(maxsize=None)
def _grid_profile(gamma, alpha, sigma):
    """A criterion-2 grid profile at 48 modes, solved once per module."""
    if gamma == -1:
        return solve_defocusing(defoc(alpha, sigma), mu=1.0, n_modes=48)
    return solve_focusing(foc(alpha, sigma), omega=0.5, n_modes=48)


def _slope_errors(difference, tangent):
    return {key: float(np.max(np.abs(difference[key].coeff - tangent[key].coeff)))
            if key == "field" else abs(difference[key] - tangent[key])
            for key in ("field", "omega", "charge", "momentum")}


@pytest.mark.parametrize("gamma, alpha, sigma, parameter", [
    (-1, a, s, par) for a in (1.25, 1.5, 1.9) for s in (1.0, 2.0) for par in ("mu", "c")
] + [(1, a, 1.0, "omega") for a in (1.25, 1.5, 1.9)])
def test_tangent_is_the_limit_of_central_differences(gamma, alpha, sigma, parameter):
    # central differences of continue_in neighbours (tests/oracles.py) miss
    # the tangent by h^2/6 times the third derivative: halving h quarters
    # every moving error, and the pinned slopes agree to roundoff
    prof = _grid_profile(gamma, alpha, sigma)
    tangent = family_tangent(prof, parameter)
    coarse, fine = (_slope_errors(oracles.family_difference(prof, parameter, h), tangent)
                    for h in (1e-3, 5e-4))
    for key in coarse:
        if key in _MOVING[parameter]:
            assert coarse[key] / fine[key] == pytest.approx(4.0, abs=0.2), key
        else:
            assert max(coarse[key], fine[key]) <= 1e-10, key


def test_a_loosely_solved_profile_gets_its_tangents():
    # Newton polishes to its own floor whatever tol the solve is held to, so
    # a loose tol at a resolved band leaves a profile below TOL_PROFILE
    for loose, tight, parameter in (
            (solve_defocusing(defoc(), mu=1.0, n_modes=48, tol=1e-6),
             _grid_profile(-1, 1.5, 1.0), "c"),
            (solve_focusing(foc(), omega=0.5, n_modes=48, tol=1e-6),
             _grid_profile(1, 1.5, 1.0), "omega")):
        assert loose.residual <= TOL_PROFILE
        got, want = family_tangent(loose, parameter), family_tangent(tight, parameter)
        assert np.array_equal(got["field"].coeff, want["field"].coeff)
        assert [got[k] for k in ("omega", "charge", "momentum")] == \
            [want[k] for k in ("omega", "charge", "momentum")]


def test_tangent_names_a_singular_system_and_a_foreign_parameter(monkeypatch):
    prof = _grid_profile(-1, 1.5, 1.0)
    with pytest.raises(ValidationError, match="parameter 'omega' not available"):
        family_tangent(prof, "omega")

    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    for prof, parameter in ((prof, "mu"), (prof, "c"),
                            (_grid_profile(1, 1.5, 1.0), "omega")):
        with pytest.raises(NonConvergence,
                           match="^singular Newton system: Singular matrix$"):
            family_tangent(prof, parameter)


# --- validation and failure modes ---------------------------------------------

def test_defocusing_input_validation():
    p = defoc()
    with pytest.raises(ValidationError):
        solve_defocusing(p, c=0.0, mu=0.0)
    with pytest.raises(SpeedOutOfRange):
        solve_defocusing(p, c=p.speed_limit, mu=1.0)
    with pytest.raises(ValidationError):
        solve_defocusing(foc(), c=0.0, mu=1.0)


def test_focusing_input_validation():
    p = foc()
    with pytest.raises(ValidationError):
        solve_focusing(p, omega=0.3, p0=0.0)
    with pytest.raises(OmegaOutOfRange):
        solve_focusing(p, omega=p.frequency_limit, p0=1.0)
    with pytest.raises(ValidationError):
        solve_focusing(defoc(), omega=0.3, p0=1.0)


def test_fractional_power_residual_floor_is_honest():
    # half-integer sigma composes to a C^{1,1} nonlinearity at profile
    # zeros; the full-equation residual floors algebraically (~M^-2), so
    # a 1e-5 demand at 48 modes must fail rather than silently loosen
    p = ProblemParams(alpha=1.5, sigma=0.5, gamma=-1, half_period=T)
    with pytest.raises(NonConvergence):
        solve_defocusing(p, c=0.0, mu=1.0, n_modes=48, tol=1e-5)
    prof = solve_defocusing(p, c=0.0, mu=1.0, n_modes=96, tol=1e-4)
    assert prof.residual < 3e-5


def test_profile_residual_detects_wrong_frequency():
    prof = solve_defocusing(defoc(), c=0.0, mu=1.0, n_modes=32)
    bad = profile_residual(prof.field, prof.omega + 0.1, 0.0, prof.params)
    peak = np.max(np.abs(to_grid(prof.field, 512).values))
    assert abs(bad - 0.1 * peak) < 0.02 * peak


def test_quintic_nonlinearity_converges():
    p = defoc(alpha=1.8, sigma=2.0)
    prof = solve_defocusing(p, c=0.0, mu=0.8, n_modes=48)
    assert prof.residual < 1e-9
    pf = foc(alpha=1.8, sigma=2.0)
    prof_f = solve_focusing(pf, omega=0.3, p0=0.5, n_modes=48)
    assert prof_f.residual < 1e-9
