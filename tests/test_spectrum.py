"""Sector-operator tests: assembly quadrature, eigensolve oracles, the
finite-difference oracle at alpha = 2, kernel/Morse certification on both
branches, range identities, and the two-parameter chain structure."""

import dataclasses
import functools

import numpy as np
import pytest

from fnlslab.errors import (InconsistentRange, ProfileNotReal,
                            SpectralGapTooSmall, ValidationError)
from fnlslab.fields import (apply_multiplier, derivative, evaluate,
                            odd_wavenumbers, rotate_phase, to_grid, zero_field)
from fnlslab.params import ProblemParams
from fnlslab.profiles import StandingProfile, solve_defocusing, solve_focusing
from fnlslab.spectrum import (NondegeneracyReport, SectorOperator,
                              SectorSpectrum, assemble, eigensolve,
                              fredholm_range_checks, jordan_structure,
                              nondegeneracy_check, sector_spectra)
from fnlslab.spectrum import _REFERENCE_N, _sector_values, _sign_changes
import oracles

T = np.pi


def defoc(alpha=1.5, sigma=1.0):
    return ProblemParams(alpha=alpha, sigma=sigma, gamma=-1, half_period=T)


def foc(alpha=1.8, sigma=1.0):
    return ProblemParams(alpha=alpha, sigma=sigma, gamma=1, half_period=T)


@functools.lru_cache(maxsize=None)
def defoc_profile(alpha=1.5, sigma=1.0, mu=1.0, n_modes=48, tol=1e-9):
    return solve_defocusing(defoc(alpha, sigma), mu=mu, n_modes=n_modes, tol=tol)


@functools.lru_cache(maxsize=None)
def foc_profile(alpha=1.8, sigma=1.0, omega=0.5, n_modes=48):
    return solve_focusing(foc(alpha, sigma), omega=omega, p0=1.0, n_modes=n_modes)


@functools.lru_cache(maxsize=None)
def defoc_report(alpha=1.5, sigma=1.0, size=128):
    return nondegeneracy_check(defoc_profile(alpha, sigma), size)


@functools.lru_cache(maxsize=None)
def foc_report(alpha=1.8, sigma=1.0, size=128):
    return nondegeneracy_check(foc_profile(alpha, sigma), size)


def resting_profile(params, field, omega):
    return StandingProfile(params=params, field=field, omega=omega, c=0.0,
                           mu=0.0, p0=0.0, residual=0.0, iterations=0,
                           objective=0.0)


# --- assembly ---------------------------------------------------------------

def test_zero_profile_gives_exact_multiplier_diagonal():
    p = defoc(1.5, 1.0)
    prof = resting_profile(p, zero_field(T, 16), omega=0.7)
    j = np.arange(12)
    lam = (np.pi * (2 * j + 1) / T) ** 1.5 + 0.7
    for sector in ("even", "odd"):
        op = assemble(prof, "L_plus", sector, 12)
        assert np.max(np.abs(op.matrix - np.diag(lam))) < 1e-14
        spec = eigensolve(op)
        assert np.max(np.abs(spec.eigenvalues - np.sort(lam))) < 1e-12


def test_sector_matrices_symmetric_with_dominated_diagonal():
    prof = defoc_profile()
    j = np.arange(96)
    lam = (np.pi * (2 * j + 1) / T) ** 1.5 + prof.omega
    g = to_grid(prof.field, 4096)
    v_sup = 3.0 * np.max(np.abs(g.values)) ** 2  # |V| bound for L_plus, sigma = 1
    for which in ("L_plus", "L_minus"):
        for sector in ("even", "odd"):
            m = assemble(prof, which, sector, 96).matrix
            assert np.array_equal(m, m.T)
            d = np.diag(m)
            assert np.max(np.abs(d - lam)) <= v_sup + 1e-12
            # high modes: potential shift is a vanishing fraction of the diagonal
            assert abs(d[-1] - lam[-1]) / lam[-1] < 0.02


def test_potential_entry_matches_direct_quadrature():
    # entry (2,5) of the even L_minus block against a dense rectangle rule
    prof = defoc_profile()
    op = assemble(prof, "L_minus", "even", 16)
    n = 1 << 17
    x = 2.0 * T * np.arange(n) / n
    phi = evaluate(prof.field, x).real
    v = -prof.params.gamma * np.abs(phi) ** 2
    bj = np.cos(5.0 * np.pi * x / T) / np.sqrt(T)
    bk = np.cos(11.0 * np.pi * x / T) / np.sqrt(T)
    entry = np.sum(v * bj * bk) * (2.0 * T / n)
    assert abs(op.matrix[2, 5] - entry) < 1e-12


def test_assemble_validates_arguments():
    prof = defoc_profile()
    with pytest.raises(ValidationError):
        assemble(prof, "L_zero", "even", 32)
    with pytest.raises(ValidationError):
        assemble(prof, "L_plus", "north", 32)
    with pytest.raises(ValidationError):
        assemble(prof, "L_plus", "even", 0)


def test_complex_or_moving_profiles_rejected():
    prof = defoc_profile()
    tilted = dataclasses.replace(prof, field=rotate_phase(prof.field, 0.4))
    with pytest.raises(ProfileNotReal):
        assemble(tilted, "L_plus", "even", 64)
    moving = dataclasses.replace(prof, c=0.05)
    with pytest.raises(ProfileNotReal):
        nondegeneracy_check(moving, 128)


# --- eigensolve -------------------------------------------------------------

def test_eigensolve_two_by_two_closed_form():
    a, b, d = 0.7, -0.4, 2.1
    op = SectorOperator(sector="even", size=2,
                        matrix=np.array([[a, b], [b, d]]), which="L_plus",
                        params=defoc(), profile=None)
    spec = eigensolve(op)
    half = 0.5 * (a + d)
    disc = np.sqrt(0.25 * (a - d) ** 2 + b * b)
    assert np.allclose(spec.eigenvalues, [half - disc, half + disc],
                       rtol=0.0, atol=1e-14)


def test_eigensolve_reconstructs_random_symmetric():
    rng = np.random.default_rng(20240819)
    raw = rng.standard_normal((50, 50))
    sym = 0.5 * (raw + raw.T)
    op = SectorOperator(sector="odd", size=50, matrix=sym, which="L_minus",
                        params=defoc(), profile=None)
    spec = eigensolve(op)
    rebuilt = spec.eigenvectors @ np.diag(spec.eigenvalues) @ spec.eigenvectors.T
    assert np.max(np.abs(rebuilt - sym)) < 1e-10
    assert np.all(np.diff(spec.eigenvalues) >= 0.0)
    gram = spec.eigenvectors.T @ spec.eigenvectors
    assert np.max(np.abs(gram - np.eye(50))) < 1e-12


def test_eigenpair_residuals_meet_bound():
    prof = defoc_profile()
    op = assemble(prof, "L_minus", "odd", 128)
    spec = eigensolve(op)
    res = op.matrix @ spec.eigenvectors - spec.eigenvectors * spec.eigenvalues
    norm_a = np.max(np.abs(spec.eigenvalues))
    assert np.max(np.linalg.norm(res, axis=0)) <= 1e-9 * norm_a


@pytest.mark.parametrize("size", [8, 128, 2049])  # 4 * 2049 > 8192
@pytest.mark.parametrize("sector", ["even", "odd"])
def test_sector_values_match_dense_sum(sector, size):
    vec = np.random.default_rng(size).standard_normal(size)
    t = np.arange(1, _REFERENCE_N) / _REFERENCE_N
    xs = (t - 0.5) * T if sector == "even" else t * T
    ref = oracles.sector_sum(sector, vec, T, xs)
    got = _sector_values(sector, vec)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert _sign_changes(got) == _sign_changes(ref)


# --- spectra against independent discretizations ----------------------------

def test_sector_union_matches_full_antiperiodic_matrix():
    # assemble the full complex Hermitian discretization on modes
    # k = -(2s-1) ... (2s-1) without the parity split and compare spectra
    prof = defoc_profile(1.6, 1.0, n_modes=32)
    s = 40
    union = np.sort(np.concatenate([
        eigensolve(assemble(prof, "L_minus", sec, s)).eigenvalues
        for sec in ("even", "odd")]))

    n = 1 << 14
    vals = to_grid(prof.field, n).values.real
    v = -prof.params.gamma * np.abs(vals) ** 2
    vhat = np.fft.fft(v) / n
    k = odd_wavenumbers(s)
    full = np.diag(np.abs(np.pi * k / T) ** 1.6 + prof.omega).astype(complex)
    m = (k[:, None] - k[None, :]) // 2
    full += vhat[(2 * m) % n]
    assert np.max(np.abs(full - full.conj().T)) < 1e-13
    lam_full = np.linalg.eigvalsh(full)
    assert np.max(np.abs(np.sort(lam_full) - union)) < 1e-9


@pytest.mark.parametrize("which,strength", [("L_plus", 3.0), ("L_minus", 1.0)])
def test_alpha2_sectors_match_finite_difference_oracle(which, strength):
    m_ell = 0.6
    p = ProblemParams(alpha=2.0, sigma=1.0, gamma=-1, half_period=T)
    mu = oracles.snoidal_charge(m_ell, T)
    prof = solve_defocusing(p, mu=mu, n_modes=48)
    _, _, om_true = oracles.snoidal_params(m_ell, T)

    union = np.sort(np.concatenate([
        eigensolve(assemble(prof, which, sec, 256)).eigenvalues
        for sec in ("even", "odd")]))[:6]
    fd = oracles.fd_lowest_eigs(
        lambda x: om_true + strength * oracles.snoidal_values(x, m_ell, T) ** 2,
        T, 3000, k=6)
    assert np.max(np.abs(union - fd[:6])) < 1e-6


def test_doubling_sector_size_freezes_low_eigenvalues():
    prof = defoc_profile()
    small = sector_spectra(prof, 128)
    large = sector_spectra(prof, 256)
    for key, spec in small.items():
        drift = spec.eigenvalues[:10] - large[key].eigenvalues[:10]
        assert np.max(np.abs(drift)) < 1e-8


# --- nondegeneracy reports ---------------------------------------------------

def test_defocusing_kernel_and_morse_structure():
    rep = defoc_report()
    assert (rep.morse_plus, rep.morse_minus) == (0, 1)
    assert rep.ker_plus_residual < 1e-12
    assert rep.ker_minus_residual < 1e-12
    for which, expected_sector in (("L_plus", "odd"), ("L_minus", "even")):
        a = rep.ker_alignments[which]
        assert a["sector"] == expected_sector
        assert a["near_zero_count"] == 1
        assert abs(a["eigenvalue"]) <= a["tol_kernel"]
        assert a["cosine"] >= 0.999


def test_focusing_kernel_and_morse_structure():
    rep = foc_report()
    assert (rep.morse_plus, rep.morse_minus) == (1, 0)
    assert rep.ker_plus_residual < 1e-12
    assert rep.ker_minus_residual < 1e-12
    for which in ("L_plus", "L_minus"):
        a = rep.ker_alignments[which]
        assert a["near_zero_count"] == 1
        assert a["cosine"] >= 0.999


def test_ground_eigenfunctions_sign_definite():
    for rep in (defoc_report(), foc_report()):
        for which, counts in rep.second_eigenfunction_sign_changes.items():
            assert counts["even"]["ground"] == 0
            assert counts["odd"]["ground"] == 0


def test_second_eigenfunctions_oscillate_at_most_twice():
    rep = defoc_report()
    for which, counts in rep.second_eigenfunction_sign_changes.items():
        assert counts["even"]["second"] <= 2
        assert counts["odd"]["second"] <= 2
    # the second odd eigenfunction of L_minus realizes the bound
    assert rep.second_eigenfunction_sign_changes["L_minus"]["odd"]["second"] == 2


def test_ground_state_ordering_follows_potential_monotonicity():
    rep = defoc_report()
    for which in ("L_plus", "L_minus"):
        o = rep.gs_ordering[which]
        assert o["premise"] == "nonincreasing"
        assert o["consistent"] is True
        assert o["odd_ground"] <= o["even_ground"] + 1e-12
    repf = foc_report()
    for which in ("L_plus", "L_minus"):
        o = repf.gs_ordering[which]
        assert o["premise"] == "nondecreasing"
        assert o["consistent"] is True
        assert o["even_ground"] <= o["odd_ground"] + 1e-12


def test_fractional_sigma_kernel_identification():
    # sigma = 0.5 profiles carry an honest truncation floor (the full-grid
    # residual decays like 1/M^2), yet the Galerkin kernel eigenvalue is
    # second-order accurate and stays well inside tol_kernel.
    p = defoc(1.5, 0.5)
    prof = solve_defocusing(p, mu=1.0, n_modes=96, tol=2e-4)
    rep = nondegeneracy_check(prof, 256)
    assert (rep.morse_plus, rep.morse_minus) == (0, 1)
    for which in ("L_plus", "L_minus"):
        a = rep.ker_alignments[which]
        assert a["near_zero_count"] == 1
        assert abs(a["eigenvalue"]) <= a["tol_kernel"]
        assert a["cosine"] >= 0.999
    # the kernel residual of L_plus phi' inherits the truncation floor
    assert rep.ker_minus_residual < 1e-5
    assert rep.ker_plus_residual < 2e-3


def test_quintic_nondegeneracy():
    rep = defoc_report(1.9, 2.0, size=160)
    assert (rep.morse_plus, rep.morse_minus) == (0, 1)
    assert rep.ker_plus_residual < 1e-10
    assert rep.ker_minus_residual < 1e-10
    for which in ("L_plus", "L_minus"):
        assert rep.ker_alignments[which]["near_zero_count"] == 1
        assert rep.ker_alignments[which]["cosine"] >= 0.999


def test_kernel_tolerance_independent_of_sector_size():
    rep_a = defoc_report(size=128)
    rep_b = defoc_report(size=192)
    for which in ("L_plus", "L_minus"):
        assert rep_a.ker_alignments[which]["tol_kernel"] == \
            rep_b.ker_alignments[which]["tol_kernel"]


def test_nondegeneracy_report_samples_each_potential_once(monkeypatch):
    import fnlslab.spectrum as spectrum

    prof = defoc_profile()
    spectra = sector_spectra(prof, 128)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return to_grid(*args, **kwargs)

    monkeypatch.setattr(spectrum, "to_grid", counted)
    spectrum._nondegeneracy_report(prof, spectra, include_jordan=False)
    # one potential per operator for the kernel scale and the premise,
    # one per re-assembled kernel-residual matrix
    assert len(calls) == 4


def test_degenerate_gap_is_refused():
    # a zero profile with omega at the band edge has a double eigenvalue
    # at zero (one per sector), so kernel identification must abort
    p = defoc(1.5, 1.0)
    prof = resting_profile(p, zero_field(T, 16), omega=-(np.pi / T) ** 1.5)
    with pytest.raises(SpectralGapTooSmall):
        nondegeneracy_check(prof, 16)


def test_sector_size_below_profile_band_rejected():
    prof = defoc_profile()
    with pytest.raises(ValidationError):
        nondegeneracy_check(prof, 8)


# --- range identities and chain structure ------------------------------------

def test_fredholm_range_identities():
    prof = defoc_profile()
    specs = sector_spectra(prof, 128)
    rep = fredholm_range_checks(prof, specs)
    assert rep["identity_minus_inf"] < 1e-12
    assert rep["identity_plus_inf"] < 1e-12
    assert rep["mu_chain_inf"] < 1e-5
    assert rep["c_consistency"] < 1e-5
    assert rep["deflated_components"] == 0
    assert rep["deflated_drop"] < 1e-8


def test_fredholm_detects_rhs_outside_deflated_range():
    prof = defoc_profile()
    specs = dict(sector_spectra(prof, 128))
    spec = specs[("L_minus", "odd")]
    vals = spec.eigenvalues.copy()
    vals[0] = 0.0  # pretend the ground direction is kernel: phi' leans on it
    specs[("L_minus", "odd")] = SectorSpectrum(vals, spec.eigenvectors,
                                               "odd", "L_minus")
    with pytest.raises(InconsistentRange):
        fredholm_range_checks(prof, specs)


def test_range_checks_are_defocusing_only():
    prof = foc_profile()
    specs = sector_spectra(prof, 128)
    with pytest.raises(ValidationError):
        fredholm_range_checks(prof, specs)
    with pytest.raises(ValidationError):
        jordan_structure(prof)


def test_jordan_chain_structure():
    prof = defoc_profile()
    rep = jordan_structure(prof)
    assert rep["chain_mu_inf"] < 1e-5
    assert rep["chain_c_inf"] < 1e-5
    assert abs(rep["dQ_dmu"] - 1.0) < 1e-8
    assert abs(rep["domega_dc"]) < 1e-8
    assert abs(rep["dN_dc"]) > 1e-3
    assert rep["dN_dc_sign"] == np.sign(rep["dN_dc"])
    assert abs(rep["det_comega"] - rep["domega_dmu"]) < 1e-12
    assert abs(rep["det_NQ"] - rep["dN_dc"] * rep["dQ_dmu"]) < 1e-6
    assert abs(rep["domega_dmu"]) > 1e-3


def test_speed_pairing_agrees_with_resolvent_route():
    # dN/dc from the parameter sweep must match -<L_minus^{-1} phi', phi'>
    # evaluated in the odd sector (factor 1/2: sector coordinates live on
    # the doubled period while functionals integrate over (0, T))
    prof = defoc_profile()
    rep = jordan_structure(prof)
    spec = sector_spectra(prof, 128)[("L_minus", "odd")]
    dphi = apply_multiplier(prof.field, derivative(T))
    pos = dphi.coeff[dphi.n_modes:]
    d = np.zeros(spec.size)
    d[:len(pos)] = -2.0 * np.imag(pos) * np.sqrt(T)
    proj = spec.eigenvectors.T @ d
    dual = -0.5 * float(np.sum(proj ** 2 / spec.eigenvalues))
    assert abs(dual - rep["dN_dc"]) / abs(dual) < 1e-5


def test_nondegeneracy_report_can_embed_jordan():
    rep = nondegeneracy_check(defoc_profile(2.0, 1.0, n_modes=32), 64,
                              include_jordan=True)
    assert isinstance(rep, NondegeneracyReport)
    assert rep.jordan is not None
    assert rep.jordan["chain_mu_inf"] < 1e-5
    assert abs(rep.jordan["dQ_dmu"] - 1.0) < 1e-8
