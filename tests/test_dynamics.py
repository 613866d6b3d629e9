import math

import numpy as np
import pytest

import oracles
from fnlslab import dynamics
from fnlslab.dynamics import (EvolutionState, boost, coercivity_check,
                              dndc_spectral, evolve, galilean_residual,
                              initial_state, n_preserving_perturbation,
                              orbital_distance, second_variation_form,
                              stability_experiment, stability_indices, step)
from fnlslab.errors import (BlowupDetected, ConservationDriftExceeded,
                            ValidationError)
from fnlslab.fields import (cosine_field, random_field, rotate_phase,
                            translate)
from fnlslab.functionals import charge, inner, l2_norm, momentum, x_norm
from fnlslab.params import ProblemParams
from fnlslab.profiles import solve_defocusing, solve_focusing
from fnlslab.spectrum import _even_coords, _odd_coords, _padded, assemble

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
                 steps=4000, log_interval=4000, tol_cons=np.inf).field
    errs = []
    for dt, steps in ((2e-3, 250), (1e-3, 500), (5e-4, 1000)):
        out = evolve(initial_state(w0, dt), pars, prof.omega, steps=steps,
                     log_interval=steps, tol_cons=np.inf).field
        errs.append(x_norm(out - ref, 1.5))
    assert 3.4 < errs[0] / errs[1] < 4.8
    assert 3.4 < errs[1] / errs[2] < 4.8


def test_single_mode_linear_flow_is_exact_phase(def15):
    pars, prof = def15
    f = cosine_field(T, 0.7)
    out = evolve(initial_state(f, 1e-3), pars, prof.omega, steps=300,
                 log_interval=300, nonlinear=False, tol_cons=np.inf)
    sym = (np.pi / T) ** pars.alpha
    exact = f.coeff * np.exp(-1j * (sym + prof.omega) * out.time)
    assert np.max(np.abs(out.field.coeff - exact)) < 1e-13


def test_step_chain_matches_unfused_evolve(def15):
    pars, prof = def15
    w0 = prof.field + n_preserving_perturbation(
        prof, 1e-3, np.random.default_rng(2))
    st = initial_state(w0, 1e-3)
    chain = st
    for _ in range(5):
        chain = step(chain, pars, prof.omega)
    bulk = evolve(st, pars, prof.omega, steps=5, log_interval=1)
    assert np.array_equal(chain.field.coeff, bulk.field.coeff)
    # fused blocks project the band between kicks at different phases,
    # so they agree with per-step closure only to the dealiasing tail
    fused = evolve(st, pars, prof.omega, steps=5, log_interval=5)
    assert x_norm(fused.field - bulk.field, 1.5) < 1e-9


def test_evolve_matches_substep_reference(def15, def20):
    # the fused spectral multiply reproduces analyze -> * lin -> synthesize
    # bit for bit over blocks of every shape, the short last one included
    for pars, prof in (def15, def20):
        w0 = prof.field + n_preserving_perturbation(
            prof, 1e-3, np.random.default_rng(3))
        out = evolve(initial_state(w0, 1e-3), pars, prof.omega, steps=1200,
                     log_interval=500)
        ref = oracles.strang_reference(w0.coeff, w0.wavenumbers, T, pars,
                                       prof.omega, 1e-3, 1200, 500, 256)
        assert np.array_equal(out.field.coeff, ref)


def test_evolve_rejects_grid_that_is_not_a_power_of_two(def15):
    pars, prof = def15
    with pytest.raises(ValidationError, match="768"):
        evolve(initial_state(prof.field, 1e-3), pars, prof.omega, steps=1,
               n_grid=768)


def test_blowup_guard_trips(def15):
    pars, prof = def15
    with pytest.raises(BlowupDetected, match="guard"):
        evolve(initial_state(prof.field, 1e-3), pars, prof.omega,
               steps=10, guard=0.1)


def test_drift_flagging(def15):
    pars, prof = def15
    out = evolve(initial_state(prof.field, 1e-3), pars, prof.omega,
                 steps=100, log_interval=50, tol_cons=1e-16)
    assert out.flagged


def test_evolution_state_validation(def15):
    pars, prof = def15
    with pytest.raises(ValidationError, match="positive"):
        initial_state(prof.field, 0.0)
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


# ----------------------------------------------------- indices and forms

def test_stability_indices_defocusing(def15):
    _, prof = def15
    idx = stability_indices(prof)
    assert idx["dNdc"]["value"] == pytest.approx(3.610021541, rel=1e-6)
    assert idx["dQdmu"]["value"] == pytest.approx(1.0, abs=1e-9)
    assert idx["dQdomega"]["value"] == pytest.approx(-1.16767203, rel=1e-6)
    assert idx["dNdc"]["richardson_rel"] < 1e-4
    assert idx["lplus_inverse_pairing"] is None


def test_stability_indices_solve_each_neighbour_once(def15, monkeypatch):
    import fnlslab.profiles as profiles

    solve = profiles.solve_defocusing
    targets = []

    def counted(*args, **kwargs):
        targets.append((kwargs["c"], kwargs["mu"]))
        return solve(*args, **kwargs)

    monkeypatch.setattr(profiles, "solve_defocusing", counted)
    stability_indices(def15[1])
    # (c, mu) -/+ h and -/+ h/2; the mu pairs serve dQ/dmu and domega/dmu
    assert len(targets) == 8
    assert len(set(targets)) == 8


def test_dndc_dual_route(def15, def20):
    for _, prof in (def15, def20):
        fd = stability_indices(prof)["dNdc"]["value"]
        spectral = dndc_spectral(prof, 128)
        assert spectral == pytest.approx(fd, rel=1e-6)
        # restriction converged: growing the sector does not move it
        assert dndc_spectral(prof, 192) == pytest.approx(spectral, rel=1e-10)


def test_galilean_lattice_residual(def15, def20):
    _, prof2 = def20
    rep = galilean_residual(prof2)
    assert rep["residual"] < 1e-10
    assert rep["momentum_shift_defect"] == 0.0
    assert rep["speed"] == pytest.approx(4.0 * np.pi / T)
    # away from alpha = 2 the boosted field does not solve the equation
    _, prof = def15
    neg = galilean_residual(prof)
    assert neg["residual"] > 0.1
    assert neg["momentum_shift_defect"] == 0.0


def test_boost_arithmetic(def15):
    _, prof = def15
    f = prof.field
    b = boost(f, 1)
    assert charge(b) == pytest.approx(charge(f), rel=1e-14)
    shift = momentum(b) - momentum(f)
    assert shift == pytest.approx(-2.0 * np.pi * charge(f) / T, rel=1e-13)
    back = boost(b, -1)
    assert x_norm(back - f, 1.5) < 1e-14
    assert boost(f, 0) is f


def test_boosted_profile_evolves_by_galilean_flow(def20):
    pars, prof = def20
    c = 4.0 * np.pi / T
    w0 = boost(prof.field, 1)
    out = evolve(initial_state(w0, 1e-4), pars, prof.omega, steps=2000,
                 log_interval=2000)
    t = out.time
    exact = boost(translate(prof.field, c * t), 1) * np.exp(-1j * c * c * t / 4.0)
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
        for sector, coords in (("even", _even_coords(fld)),
                               ("odd", _odd_coords(fld))):
            mat = assemble(prof, which, sector, size).matrix
            p = _padded(coords, size)
            # sector coordinates integrate over [0, 2T); halve
            sector_route += 0.5 * float(p @ mat @ p)
    direct = second_variation_form(prof, v)
    assert direct == pytest.approx(sector_route, rel=1e-10)
    # constrained perturbations live above the projected minimum
    quotient = direct / l2_norm(v) ** 2
    assert quotient > 3.5


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
    assert rep.verdict_inputs["coercivity"]["positive"]
    assert rep.perturbation_size == tuple(
        r["perturbation_norm"] for r in rep.orbital_distance_series)


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
