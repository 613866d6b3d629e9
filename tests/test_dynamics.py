import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fnlslab import dynamics
from fnlslab.dynamics import (EvolutionState, coercivity_check, evolve,
                              initial_state, n_preserving_perturbation,
                              orbital_distance, second_variation_form,
                              stability_experiment, stability_indices)
from fnlslab.errors import (BlowupDetected, ConservationDriftExceeded,
                            InconsistentRange, NonConvergence, ValidationError)
from fnlslab.fields import (AntiperiodicField, analyze, cosine_field,
                            derivative, lift, random_field, real_part,
                            rotate_phase, synthesize, translate)
from fnlslab.functionals import charge, inner, kinetic, momentum, x_norm
from fnlslab.params import ProblemParams
from fnlslab.profiles import (StandingProfile, solve_defocusing,
                              solve_focusing)
from fnlslab.spectrum import (assemble, deflated_solve, eigensolve,
                              sector_coords)

T = np.pi


def _defocusing(alpha):
    pars = ProblemParams(alpha=alpha, sigma=1.0, gamma=-1, half_period=T)
    return pars, solve_defocusing(pars, c=0.0, mu=1.0, n_modes=48, tol=1e-12)


@pytest.fixture(scope="module")
def def15():
    return _defocusing(1.5)


@pytest.fixture(scope="module")
def def20():
    return _defocusing(2.0)


# ---------------------------------------------------------------- stepping

def test_profile_is_equilibrium(def15):
    pars, prof = def15
    out = evolve(initial_state(prof.field, 1e-4), pars, prof.omega,
                 steps=10000, log_interval=1000)
    assert not out.flagged
    assert orbital_distance(out.field, prof) < 5e-9
    drift = out.drift()
    assert drift["hamiltonian"] < 1e-9
    assert drift["charge"] < 1e-10
    assert drift["momentum"] < 1e-10


def test_log_rows_take_q_n_k_from_the_functionals(def15):
    pars, prof = def15
    rng = np.random.default_rng(5)
    fields = [prof.field + random_field(T, 48, rng) * 1e-3 for _ in range(3)]
    eng = dynamics._Stepper(fields, pars, prof.omega, 1e-3)
    eng.advance(20)
    rows = eng.log_rows()
    assert len(rows) == 3
    for j, row in enumerate(rows):
        f = eng.field(j)
        # P stays a quadrature on the stepper grid: its h folded samples
        vals = np.abs(synthesize(f.coeff, eng.bins, eng.h))
        p = (T / eng.h) * float(np.sum(vals ** 4.0)) / 4.0
        assert row == (eng.time, kinetic(f, pars.alpha) - pars.gamma * p,
                       charge(f), momentum(f))


def test_charge_conserved_to_roundoff(def15):
    pars, prof = def15
    v = n_preserving_perturbation(prof, 1e-3, np.random.default_rng(0))
    out = evolve(initial_state(prof.field + v, 1e-3), pars, prof.omega,
                 steps=5000, log_interval=500)
    # both substeps are l2 isometries, so only roundoff accumulates
    assert out.drift()["charge"] < 1e-11
    assert out.drift()["momentum"] < 1e-10


def test_strang_is_second_order(def15):
    pars, prof = def15
    w0 = prof.field + n_preserving_perturbation(
        prof, 1e-2, np.random.default_rng(9))
    ref = evolve(initial_state(w0, 1.25e-4), pars, prof.omega,
                 steps=4000, log_interval=4000).field
    errs = []
    for dt, steps in ((2e-3, 250), (1e-3, 500), (5e-4, 1000)):
        out = evolve(initial_state(w0, dt), pars, prof.omega, steps=steps,
                     log_interval=steps).field
        errs.append(x_norm(out - ref, 1.5))
    assert 3.4 < errs[0] / errs[1] < 4.8
    assert 3.4 < errs[1] / errs[2] < 4.8


def test_single_mode_linear_flow_is_exact_phase():
    # on a plane wave a e^(i pi x / T) the flow is linear: |u| = |a| on
    # every sample, so the kick is a global phase and both substeps are
    # exact, turning at gamma |a|^(2 sigma) - (pi/T)^alpha - omega
    a, omega = 0.7, 0.9
    f = AntiperiodicField(T, np.array([0.0, a]))  # k = -1, 1
    for gamma in (1, -1):
        pars = ProblemParams(alpha=1.5, sigma=1.0, gamma=gamma, half_period=T)
        out = evolve(initial_state(f, 1e-3), pars, omega, steps=300,
                     log_interval=300)
        rate = gamma * a ** 2.0 - (np.pi / T) ** pars.alpha - omega
        exact = f.coeff * np.exp(1j * rate * out.time)
        assert np.max(np.abs(out.field.coeff - exact)) < 1e-13


def test_step_chain_matches_unfused_evolve(def15):
    pars, prof = def15
    w0 = prof.field + n_preserving_perturbation(
        prof, 1e-3, np.random.default_rng(2))
    st = initial_state(w0, 1e-3)
    chain = st
    for _ in range(5):
        chain = evolve(chain, pars, prof.omega, steps=1, log_interval=1)
    bulk = evolve(st, pars, prof.omega, steps=5, log_interval=1)
    assert np.array_equal(chain.field.coeff, bulk.field.coeff)
    # fused blocks project the band between kicks at different phases,
    # so they agree with per-step closure only to the dealiasing tail
    fused = evolve(st, pars, prof.omega, steps=5, log_interval=5)
    assert x_norm(fused.field - bulk.field, 1.5) < 1e-9


@settings(max_examples=200)
@given(n_modes=st.integers(1, 64), width=st.sampled_from((1, 2, 6)),
       real=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_stepper_fold_is_the_full_grid_twisted(n_modes, width, real, seed):
    # the stepper's h folded samples, twisted back by exp(2 pi i j / n),
    # are the first half of the full n-point grid's samples and the
    # negated second half; analyze on the folded bins inverts both
    rng = np.random.default_rng(seed)
    fields = [random_field(T, n_modes, rng) for _ in range(width)]
    if real:
        fields = [real_part(f) for f in fields]
    pars = ProblemParams(alpha=1.5, sigma=1.0, gamma=-1, half_period=T)
    eng = dynamics._Stepper(fields, pars, 0.0, 1e-3)
    h, coeff = eng.h, eng.coeff
    n = 2 * h
    folded = synthesize(coeff, eng.bins, h)
    samples = synthesize(coeff, fields[0].wavenumbers % n, n)
    twist = np.exp(2j * np.pi * np.arange(h) / n)[:, None]
    tol = 1e-14 * np.sum(np.abs(coeff), axis=0)
    assert np.all(np.abs(twist * folded - samples[:h]) <= tol)
    assert np.all(np.abs(twist * folded + samples[h:]) <= tol)
    assert np.all(np.abs(analyze(folded, eng.bins, h) - coeff) <= tol)
    assert np.all(np.abs(analyze(samples[:h] / twist, eng.bins, h) - coeff)
                  <= tol)


def _folded_bins(k):
    # the 256-point stepper grid folded to its 128-point first half
    return (k - 1) // 2 % 128, 128


def test_evolve_matches_substep_reference(def15, def20):
    # the fused spectral multiply and the cos/sin kick reproduce
    # analyze -> * lin -> synthesize and the complex exp kick of the
    # oracle on the folded grid bit for bit over blocks of every shape,
    # the short last one included: on both dispersions, both sigma = 1/2
    # and 2, a focusing profile, and a column of a two-trajectory ensemble
    def reference(w0, pars, omega):
        k = w0.wavenumbers
        return oracles.strang_reference(w0.coeff, k, *_folded_bins(k), T,
                                        pars, omega, 1e-3, 1200, 500)

    foc = ProblemParams(alpha=1.5, sigma=1.0, gamma=1, half_period=T)
    focusing = (foc, solve_focusing(foc, omega=0.5, n_modes=48, tol=1e-12))
    for pars, prof in (def15, def20, focusing):
        w0 = prof.field + n_preserving_perturbation(
            prof, 1e-3, np.random.default_rng(3))
        out = evolve(initial_state(w0, 1e-3), pars, prof.omega, steps=1200,
                     log_interval=500)
        assert np.array_equal(out.field.coeff, reference(w0, pars, prof.omega))
    for sigma in (0.5, 2.0):
        pars = ProblemParams(alpha=1.5, sigma=sigma, gamma=-1, half_period=T)
        w0 = random_field(T, 48, np.random.default_rng(4)) * 2.0
        out = evolve(initial_state(w0, 1e-3), pars, 1.0, steps=1200,
                     log_interval=500)
        assert np.array_equal(out.field.coeff, reference(w0, pars, 1.0))
    pars, prof = def15
    pair = [prof.field + n_preserving_perturbation(
        prof, 1e-3, np.random.default_rng(seed)) for seed in (5, 6)]
    eng = dynamics._Stepper(pair, pars, prof.omega, 1e-3)
    for _ in eng.logged_blocks(1200, 500):
        pass
    assert np.array_equal(eng.field(1).coeff,
                          reference(pair[1], pars, prof.omega))


def test_folded_stepper_matches_full_grid_reference(def15):
    # the folded grid is the full 256-point grid's map in exact
    # arithmetic, so the stepper and the full-grid oracle differ by
    # rounding alone.  Per step each route rounds two radix-2 transforms
    # of length at most 2^8, each within 8 eta of the exact one in the l2
    # norm, eta <= 6 u (Higham, Accuracy and Stability of Numerical
    # Algorithms, thm 24.2), and one kick (abs, power, cos, sin, a complex
    # multiply: under 10 u per sample).  Both substeps are l2 isometries,
    # so |c|_2 stays at most sqrt(2M) max|c| of the start, and the two
    # routes part by at most 2 (2 * 8 * 6 + 10) sqrt(2M) u max|c| per
    # step.  The bound is that rate over the whole run, with the orbit's
    # own growth of earlier rounding taken as O(1) on this short, stable
    # horizon.
    pars, prof = def15
    w0 = prof.field + n_preserving_perturbation(
        prof, 1e-3, np.random.default_rng(3))
    steps = 1200
    out = evolve(initial_state(w0, 1e-3), pars, prof.omega, steps=steps,
                 log_interval=500)
    k = w0.wavenumbers
    full = oracles.strang_reference(w0.coeff, k, k % 256, 256, T, pars,
                                    prof.omega, 1e-3, steps, 500)
    diff = np.max(np.abs(out.field.coeff - full))
    u = np.finfo(float).eps / 2
    per_step = (2 * (2 * 8 * 6 + 10) * math.sqrt(len(k)) * u
                * np.max(np.abs(w0.coeff)))
    assert 0.0 < diff <= steps * per_step


def test_pocketfft_binding_matches_np_fft():
    # the stepper calls numpy's private pocketfft gufuncs with the factors
    # np.fft passes them, on the folded rows it steps; a numpy release
    # that moves or changes them must fail here rather than move
    # trajectories
    rng = np.random.default_rng(12)
    for shape in ((1, 128), (2, 128), (6, 128), (1, 256), (2, 256),
                  (6, 256), (1, 512)):
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        spec, back = np.empty_like(x), np.empty_like(x)
        dynamics._fft(x, 1.0, out=spec)
        dynamics._ifft(x, 1.0 / shape[1], out=back)
        assert np.array_equal(spec, np.fft.fft(x, axis=-1))
        assert np.array_equal(back, np.fft.ifft(x, axis=-1))


def test_nan_in_field_trips_guard(def15):
    # a NaN peak fails `peak < inf`
    pars, prof = def15
    coeff = prof.field.coeff.copy()
    coeff[3] = np.nan
    with pytest.raises(BlowupDetected, match="nan"):
        evolve(initial_state(prof.field.with_coeff(coeff), 1e-3), pars,
               prof.omega, steps=10)


def test_blowup_guard_trips(def15):
    # only a non-finite peak trips: an inf amplitude at k = 1 makes every
    # sample inf, and a field of size 1e160 overflows its first kick
    # phase, |u|^2 = inf, so cos and sin make the samples nan
    pars, prof = def15
    coeff = prof.field.coeff.copy()
    coeff[prof.field.n_modes] = np.inf
    with np.errstate(all="ignore"):
        with pytest.raises(BlowupDetected) as inf:
            evolve(initial_state(prof.field.with_coeff(coeff), 1e-3), pars,
                   prof.omega, steps=10)
        with pytest.raises(BlowupDetected) as nan:
            evolve(initial_state(prof.field * 1e160, 1e-3), pars,
                   prof.omega, steps=10)
    assert str(inf.value) == "|u| reached inf at t = 0.000000"
    assert str(nan.value) == "|u| reached nan at t = 0.000000"


@settings(max_examples=100, deadline=None)
@given(n_modes=st.integers(1, 64), sigma=st.sampled_from((1.0, 2.0, 3.0)),
       gamma=st.sampled_from((1, -1)), exponent=st.floats(0.0, 3.0),
       seed=st.integers(0, 2**32 - 1))
def test_stepper_peak_stays_within_the_band_bound(n_modes, sigma, gamma,
                                                  exponent, seed):
    # both substeps are unit-modulus multiplies and the band projection
    # only drops content, so |c|_2 never grows, and on the stepper grid
    # max|u| <= sum|c_k| <= sqrt(2M) |c|_2 <= sqrt(2M) max|u(0)|.  A step
    # rounds four radix-2 transforms of length at most 2^7, each within
    # 7 * 6 u of the exact one in the l2 norm (Higham, thm 24.2), and two
    # kicks of under 10 u each: 256 u per step bounds the slack
    pars = ProblemParams(alpha=1.5, sigma=sigma, gamma=gamma, half_period=T)
    rng = np.random.default_rng(seed)
    f = random_field(T, n_modes, rng, decay=0.0) * 10.0 ** exponent
    eng = dynamics._Stepper([f], pars, 0.7, 1e-2)

    def peak():
        return np.max(np.abs(synthesize(eng.coeff, eng.bins, eng.h)))

    norm0, bound = np.linalg.norm(eng.coeff), math.sqrt(2 * n_modes) * peak()
    u = np.finfo(float).eps / 2
    for step in range(1, 21):
        eng.advance(1)
        slack = 1.0 + 256 * step * u
        assert np.linalg.norm(eng.coeff) <= norm0 * slack
        assert peak() <= bound * slack


def test_drift_flagging(def15):
    # the profile is an equilibrium, so only splitting error drifts H:
    # 9.0e-6 at dt = 0.1 against TOL_CONS = 1e-8 (2.6e-14 at dt = 1e-3)
    pars, prof = def15
    out = evolve(initial_state(prof.field, 0.1), pars, prof.omega,
                 steps=100, log_interval=50)
    assert out.flagged


def test_evolution_state_validation(def15):
    pars, prof = def15
    with pytest.raises(ValidationError, match="positive"):
        initial_state(prof.field, 0.0)
    # an infinite step is bad input, not a blow-up at the first kick
    with pytest.raises(ValidationError, match="finite, got inf"):
        initial_state(prof.field, math.inf)
    with pytest.raises(ValidationError, match="finite, got inf"):
        evolve(EvolutionState(field=prof.field, time=0.0, dt=math.inf,
                              conserved_log=np.zeros((0, 4))),
               pars, prof.omega, steps=1)
    with pytest.raises(ValidationError, match="rows"):
        EvolutionState(field=prof.field, time=0.0, dt=1e-3,
                       conserved_log=np.zeros((2, 3)))
    st = initial_state(prof.field, 1e-3)
    with pytest.raises(ValidationError, match="step"):
        evolve(st, pars, prof.omega, steps=0)
    with pytest.raises(ValidationError, match="interval"):
        evolve(st, pars, prof.omega, steps=5, log_interval=0)


def test_conserved_log_grows_and_time_advances(def15):
    pars, prof = def15
    st = initial_state(prof.field, 1e-3)
    assert st.drift() == {"hamiltonian": 0.0, "charge": 0.0, "momentum": 0.0}
    out = evolve(st, pars, prof.omega, steps=100, log_interval=25)
    assert out.conserved_log.shape == (5, 4)
    assert np.all(np.diff(out.conserved_log[:, 0]) > 0)
    assert out.time == pytest.approx(0.1, abs=1e-12)
    again = evolve(out, pars, prof.omega, steps=25, log_interval=25)
    assert again.conserved_log.shape == (6, 4)


# ------------------------------------------------------- orbital distance

def test_orbit_members_are_at_zero_distance(def15):
    _, prof = def15
    for x0, beta in ((0.7345, 1.234), (-2.9, 0.1), (0.0, 0.0), (3.13, -2.2)):
        g = rotate_phase(translate(prof.field, x0), beta)
        assert orbital_distance(g, prof) < 1e-12


def test_distance_invariant_under_group_action(def15):
    _, prof = def15
    u = prof.field + random_field(T, 48, np.random.default_rng(3)) * 0.05
    r0 = orbital_distance(u, prof)
    for x0, beta in ((1.1, 0.3), (-0.4, 2.0)):
        r1 = orbital_distance(rotate_phase(translate(u, x0), beta), prof)
        assert abs(r1 - r0) <= 1e-12 * r0


def test_perpendicular_ball_geometry(def15):
    # distance to the orbit of a tangent-orthogonal perturbation of size
    # eps falls short of eps only by the orbit curvature, O(eps) relative
    _, prof = def15
    rng = np.random.default_rng(2)
    for eps in (1e-4, 1e-3):
        v = n_preserving_perturbation(prof, eps, rng)
        rho = orbital_distance(prof.field + v, prof)
        size = x_norm(v, 1.5)
        assert rho <= size * (1.0 + 1e-9)
        assert rho >= size * (1.0 - 2e-3)


def test_distance_lifts_the_narrower_band(def15):
    # u on a wider band than the profile: the profile is lifted to it
    _, prof = def15
    u = prof.field + random_field(T, 64, np.random.default_rng(8)) * 0.05
    assert u.n_modes == 64
    wide = dataclasses.replace(prof, field=lift(prof.field, 64))
    assert orbital_distance(u, prof) == orbital_distance(u, wide)


def test_distance_rejects_mismatched_periods(def15):
    _, prof = def15
    other = cosine_field(2.0 * T, 1.0)
    with pytest.raises(ValidationError, match="half-period"):
        orbital_distance(other, prof)


def test_distance_of_zero_field_is_profile_norm(def15):
    # zero correlation has no peak to refine, so the scan shift stands
    _, prof = def15
    rho = orbital_distance(prof.field * 0.0, prof)
    assert math.isfinite(rho)
    assert rho == x_norm(prof.field, 1.5)


# ------------------------------------------------------- perturbations

def test_n_preserving_perturbation_properties(def15):
    _, prof = def15
    phi = prof.field
    dphi = phi.with_coeff(phi.coeff * (1j * np.pi * phi.wavenumbers / T))
    rng = np.random.default_rng(5)
    for eps in (1e-4, 1e-3, 1e-2):
        v = n_preserving_perturbation(prof, eps, rng)
        assert abs(momentum(phi + v)) < 1e-13
        assert abs(x_norm(v, 1.5) - eps) < 1e-4 * eps
        # correction runs along i phi', which is orthogonal to the other
        # three tangent directions, so these projections stay exact
        assert abs(inner(v, phi)) < 1e-12
        assert abs(inner(v, phi * 1j)) < 1e-12
        assert abs(inner(v, dphi)) < 1e-12
    with pytest.raises(ValidationError, match="size"):
        n_preserving_perturbation(prof, 0.5, rng)


def test_n_preserving_perturbation_names_a_flat_momentum(def15, monkeypatch):
    # a momentum that does not move along i phi' leaves no correction
    monkeypatch.setattr(dynamics, "momentum", lambda f: 0.25)
    with pytest.raises(ValidationError,
                       match="^momentum is flat along i phi'; cannot correct$"):
        n_preserving_perturbation(def15[1], 1e-3, np.random.default_rng(0))


# ----------------------------------------------------- indices and forms

def test_stability_indices_defocusing(def15):
    _, prof = def15
    idx = stability_indices(prof)
    assert idx["dNdc"]["value"] == pytest.approx(3.610021541, rel=1e-6)
    assert idx["dQdmu"]["value"] == pytest.approx(1.0, abs=1e-9)
    assert idx["dQdomega"]["value"] == pytest.approx(-1.16767203, rel=1e-6)
    assert idx["lplus_inverse_pairing"] is None


def test_stability_indices_solve_no_neighbours(def15, monkeypatch):
    # every slope is a tangent at the profile: neither public solver, which
    # every continuation step also calls, solves a profile on either branch
    import fnlslab.profiles as profiles

    foc = ProblemParams(alpha=1.5, sigma=1.0, gamma=1, half_period=T)
    focusing = solve_focusing(foc, omega=0.5, n_modes=48)
    solved = []
    for name in ("solve_defocusing", "solve_focusing"):
        monkeypatch.setattr(profiles, name,
                            lambda *args, name=name, **kwargs: solved.append(name))
    for prof in (def15[1], focusing):
        stability_indices(prof)
    assert solved == []


def test_dndc_dual_route(def15, def20):
    # differentiating the profile equation in c at rest gives an imaginary
    # correction i b with L_minus b = -phi' in the odd sector, so
    # dN/dc = -<phi', L_minus^(-1) phi'>; sector coordinates run over
    # [0, 2T), so the dot is halved for the [0, T] functional
    def spectral(prof, size):
        spec = eigensolve(assemble(prof, "L_minus", "odd", size))
        d = sector_coords(derivative(prof.field), "odd", size)
        y, deflated, _ = deflated_solve(prof, "L_minus", "odd", spec, d)
        assert not deflated
        return -0.5 * float(y @ d)

    for _, prof in (def15, def20):
        fd = stability_indices(prof)["dNdc"]["value"]
        at_128 = spectral(prof, 128)
        assert at_128 == pytest.approx(fd, rel=1e-6)
        # restriction converged: growing the sector does not move it
        assert spectral(prof, 192) == pytest.approx(at_128, rel=1e-10)


def test_failed_sector_eigensolve_is_nonconvergence(def15, monkeypatch):
    # spectrum.eigensolve maps LinAlgError to NonConvergence
    op = assemble(def15[1], "L_minus", "odd", 128)

    def broken(matrix):
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", broken)
    with pytest.raises(NonConvergence, match="eigensolve"):
        eigensolve(op)


def test_boost_arithmetic(def15):
    _, prof = def15
    f = prof.field
    b = oracles.boost(f, 1)
    assert charge(b) == pytest.approx(charge(f), rel=1e-14)
    shift = momentum(b) - momentum(f)
    assert shift == pytest.approx(-2.0 * np.pi * charge(f) / T, rel=1e-13)
    back = oracles.boost(b, -1)
    assert x_norm(back - f, 1.5) < 1e-14
    assert oracles.boost(f, 0) is f


def test_boosted_profile_evolves_by_galilean_flow(def20):
    pars, prof = def20
    c = 4.0 * np.pi / T
    w0 = oracles.boost(prof.field, 1)
    out = evolve(initial_state(w0, 1e-4), pars, prof.omega, steps=2000,
                 log_interval=2000)
    t = out.time
    exact = (oracles.boost(translate(prof.field, c * t), 1)
             * np.exp(-1j * c * c * t / 4.0))
    assert x_norm(out.field - exact, 2.0) < 1e-7
    assert not out.flagged


def test_focusing_pairing_matches_slope():
    pars = ProblemParams(alpha=1.8, sigma=1.0, gamma=1, half_period=T)
    prof = solve_focusing(pars, omega=0.5, n_modes=48, tol=1e-12)
    idx = stability_indices(prof)
    assert idx["dNdc"] is None and idx["dQdmu"] is None
    assert idx["dQdomega"]["value"] > 0.0
    pairing = idx["lplus_inverse_pairing"]
    assert pairing["value"] == pytest.approx(-idx["dQdomega"]["value"],
                                             rel=1e-6)
    assert pairing["relative_mismatch"] < 1e-6


@pytest.mark.parametrize("alpha", [1.25, 1.5, 1.9])
def test_focusing_pairing_agrees_to_roundoff(alpha):
    # dQ/domega = <phi, dphi/domega> with L_plus dphi/domega = -phi: the
    # tangent and the deflated solve are one identity
    pars = ProblemParams(alpha=alpha, sigma=1.0, gamma=1, half_period=T)
    prof = solve_focusing(pars, omega=0.5, n_modes=48)
    pairing = stability_indices(prof)["lplus_inverse_pairing"]
    assert pairing["relative_mismatch"] <= 1e-12


def test_focusing_pairing_mismatch_is_inconsistent_range(monkeypatch):
    # a pairing of the wrong sign, +dQ/domega where -dQ/domega is due
    pars = ProblemParams(alpha=1.8, sigma=1.0, gamma=1, half_period=T)
    prof = solve_focusing(pars, omega=0.5, n_modes=16)
    monkeypatch.setattr(dynamics, "_lplus_pairing",
                        lambda p: {"value": 1.0, "deflated": 1, "dropped": 0})
    with pytest.raises(InconsistentRange,
                       match=r"^<L_plus\^-1 phi, phi> = 1\.000000e\+00 vs "
                             r"-dQ/domega = -\d\.\d{6}e[+-]\d\d "
                             r"\(relative mismatch \d\.\d\de[+-]\d\d\)$"):
        stability_indices(prof)


def test_coercivity_blocks_positive(def15):
    _, prof = def15
    rep = coercivity_check(prof, size=128)
    for key in ("L_plus_even", "L_plus_odd", "L_minus_even", "L_minus_odd"):
        assert rep[key] > 0.0
    assert rep["positive"]
    assert rep["minimum"] == pytest.approx(3.88047368, rel=1e-4)
    bigger = coercivity_check(prof, size=160)
    assert bigger["minimum"] == pytest.approx(rep["minimum"], rel=1e-6)


def test_second_variation_matches_sector_route(def15):
    _, prof = def15
    v = n_preserving_perturbation(prof, 1e-3, np.random.default_rng(4))
    a = v.with_coeff((v.coeff + np.conj(v.coeff[::-1])) / 2.0)
    b = v.with_coeff((v.coeff - np.conj(v.coeff[::-1])) / 2.0j)
    size = 128
    sector_route = 0.0
    for fld, which in ((a, "L_plus"), (b, "L_minus")):
        for sector in ("even", "odd"):
            mat = assemble(prof, which, sector, size)
            p = sector_coords(fld, sector, size)
            # sector coordinates integrate over [0, 2T); halve
            sector_route += 0.5 * float(p @ mat @ p)
    direct = second_variation_form(prof, v)
    assert direct == pytest.approx(sector_route, rel=1e-10)
    # constrained perturbations live above the projected minimum
    quotient = direct / inner(v, v)
    assert quotient > 3.5


def test_second_variation_form_samples_bands_past_256_modes(def15):
    # the quadrature grid grows with the band: 300 modes need 2398 points
    _, prof = def15
    v = n_preserving_perturbation(prof, 1e-3, np.random.default_rng(4))
    wide = dataclasses.replace(prof, field=lift(prof.field, 300))
    assert second_variation_form(wide, v) == pytest.approx(
        second_variation_form(prof, v), rel=1e-12)


@pytest.mark.parametrize("sigma, n_modes", [(1.0, 129), (2.0, 86)])
def test_second_variation_form_is_alias_free(sigma, n_modes):
    # broadband phi and v put |phi|^(2 sigma) |v|^2 up to wavenumber
    # (2 sigma + 2)(2M - 1), one band past what 1024 points integrate
    rng = np.random.default_rng(5)
    pars = ProblemParams(alpha=1.5, sigma=sigma, gamma=-1, half_period=T)
    phi = real_part(random_field(T, n_modes, rng, decay=0.0))
    v = random_field(T, n_modes, rng, decay=0.0)
    prof = StandingProfile(params=pars, field=phi, omega=0.7, c=0.0, mu=1.0,
                           p0=1.0, residual=0.0, iterations=0, objective=0.0)
    form, term = oracles.second_variation_reference(prof, v, 4096)
    assert abs(second_variation_form(prof, v) - form) <= 1e-12 * abs(term)


# ------------------------------------------------------------ experiment

def test_stability_experiment_report(def15):
    _, prof = def15
    rng = np.random.default_rng(7)
    vs = [n_preserving_perturbation(prof, e, rng) for e in (1e-4, 1e-3)]
    rep = stability_experiment(prof, vs, horizon=5 * T, dt=1e-3,
                               log_interval=1000)
    assert rep.dNdc["value"] > 0.0
    assert len(rep.orbital_distance_series) == 2
    for run, eps in zip(rep.orbital_distance_series, (1e-4, 1e-3)):
        assert run["perturbation_norm"] == pytest.approx(eps, rel=1e-3)
        # initial distance trails eps by the seed-dependent orbit curvature
        assert run["rho"][0] == pytest.approx(eps, rel=2e-2)
        assert run["c_emp"] < 5.0
        assert max(run["drift"].values()) < 1e-8
        assert run["quadratic_form"] > 0.0
        assert abs(run["secular_fraction"]) < 0.2
    assert rep.c_emp < 5.0
    assert rep.coercivity["positive"]


def test_stability_experiment_is_deterministic_on_rerun(def15):
    _, prof = def15
    vs = [n_preserving_perturbation(prof, 1e-3, np.random.default_rng(s))
          for s in (1, 2)]
    a = stability_experiment(prof, vs, horizon=T, dt=1e-3, log_interval=500)
    b = stability_experiment(prof, vs, horizon=T, dt=1e-3, log_interval=500)
    for ra, rb in zip(a.orbital_distance_series, b.orbital_distance_series):
        assert np.array_equal(ra["rho"], rb["rho"])


def test_stability_experiment_ensemble_equals_single_runs(def15):
    _, prof = def15
    rng = np.random.default_rng(11)
    vs = [n_preserving_perturbation(prof, e, rng) for e in (1e-4, 1e-3, 3e-3)]
    together = stability_experiment(prof, vs, horizon=T, dt=1e-3,
                                    log_interval=500)
    for v, run in zip(vs, together.orbital_distance_series):
        alone = stability_experiment(prof, [v], horizon=T, dt=1e-3,
                                     log_interval=500)
        single = alone.orbital_distance_series[0]
        assert np.array_equal(run["rho"], single["rho"])
        assert np.array_equal(run["times"], single["times"])
        assert run["drift"] == single["drift"]


def test_experiment_drift_is_the_drift_of_its_log(def15):
    # a lone evolve writes each run's log row for row; the run's drift is
    # EvolutionState.drift of that log
    pars, prof = def15
    rng = np.random.default_rng(11)
    vs = [n_preserving_perturbation(prof, e, rng) for e in (1e-4, 1e-3)]
    rep = stability_experiment(prof, vs, horizon=T, dt=1e-3, log_interval=500)
    steps = int(round(T / 1e-3))
    for v, run in zip(vs, rep.orbital_distance_series):
        alone = evolve(initial_state(prof.field + v, 1e-3), pars, prof.omega,
                       steps=steps, log_interval=500)
        assert np.array_equal(alone.conserved_log[:, 0], run["times"])
        assert run["drift"] == alone.drift()


def test_experiment_raises_on_conservation_drift(def15):
    _, prof = def15
    v = n_preserving_perturbation(prof, 1e-3, np.random.default_rng(1))
    with pytest.raises(ConservationDriftExceeded, match="drift"):
        stability_experiment(prof, [v], horizon=T, dt=1e-3,
                             log_interval=500, tol_cons=1e-16)


def test_experiment_drift_raises_at_first_block_past_tolerance(def15,
                                                             monkeypatch):
    _, prof = def15
    v = n_preserving_perturbation(prof, 1e-3, np.random.default_rng(1))
    advanced = []
    advance = dynamics._Stepper.advance

    def counted(self, m):
        advanced.append(m)
        return advance(self, m)

    monkeypatch.setattr(dynamics._Stepper, "advance", counted)
    with pytest.raises(ConservationDriftExceeded,
                       match=r"perturbation 0: .* at t = 0\.500000"):
        stability_experiment(prof, [v], horizon=T, dt=1e-3,
                             log_interval=500, tol_cons=1e-16)
    # one log block of the 3142-step horizon
    assert advanced == [500]


def test_experiment_input_validation(def15):
    _, prof = def15
    with pytest.raises(ValidationError, match="perturbation"):
        stability_experiment(prof, [], horizon=T)
    v = n_preserving_perturbation(prof, 1e-3, np.random.default_rng(1))
    with pytest.raises(ValidationError, match="horizon"):
        stability_experiment(prof, [v], horizon=0.0)
    # a zero interval logged empty blocks without end
    with pytest.raises(ValidationError, match="log interval must be positive"):
        stability_experiment(prof, [v], horizon=T, log_interval=0)
