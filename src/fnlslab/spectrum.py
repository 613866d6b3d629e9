"""Sector operators for the linearization about a real standing profile.

At a real even zero-speed profile the Hessian of the action decouples
into two scalar fractional Schroedinger operators,

    L_plus  w = Lambda^alpha w + omega w - gamma (2 sigma + 1) |phi|^(2 sigma) w
    L_minus w = Lambda^alpha w + omega w - gamma |phi|^(2 sigma) w,

acting on the real and imaginary parts of a perturbation.  Both commute
with x -> -x, so the antiperiodic space splits into even and odd sectors
with orthonormal bases sqrt(1/T) cos((2j+1) pi x/T) and
sqrt(1/T) sin((2j+1) pi x/T), j = 0, 1, ...  This module assembles the
dense sector matrices, diagonalizes them, and produces the kernel /
Morse-index / sign-structure / Jordan-chain reports that certify
nondegeneracy of a computed profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ChainDoesNotTerminate, InconsistentRange, NonConvergence,
                     ProfileNotReal, SpectralGapTooSmall, ValidationError)
from .fields import (AntiperiodicField, _monotonicity, derivative,
                     fractional_laplacian, imag_part, sector_matrix, synthesize,
                     to_grid)
from .functionals import _capped, _power_band, _residual_grid
from .params import EPS_REAL, TOL_DEFLATE
from .profiles import family_tangent

_SECTORS = ("even", "odd")
_OPERATORS = ("L_plus", "L_minus")

# Sector sizes up to this bound share one quadrature grid, so doubling the
# basis changes truncation only, never the sampled potential coefficients.
_SHARED_QUAD = 1024

# Sector eigenfunctions are sampled at the interior points T i / _REFERENCE_N
# of their reference interval: (-T/2, T/2) for even ones, (0, T) for odd
# ones (every basis element vanishes at the endpoints).
_REFERENCE_N = 4096

# Grid values below this relative floor count as zero crossings rather than
# sign changes; keeps numerical dust near nodes out of the oscillation count.
_SIGN_FLOOR = 1e-7


@dataclass(frozen=True)
class NondegeneracyReport:
    morse_plus: int
    morse_minus: int
    ker_plus_residual: float
    ker_minus_residual: float
    ker_alignments: dict
    second_eigenfunction_sign_changes: dict
    gs_ordering: dict


def _require_real_resting(profile) -> None:
    if profile.c != 0.0:
        raise ProfileNotReal(
            f"sector split needs c = 0, got c = {profile.c}")
    defect = profile.field.realness_defect()
    if defect > EPS_REAL:
        raise ProfileNotReal(
            f"profile field has realness defect {defect:.3e}")


def _quadrature_size(field: AntiperiodicField, sigma: float, size: int) -> int:
    """Power-of-two grid on which the bins 2m, m < 2 size, of V are alias-free."""
    k = field.max_wavenumber
    need = 4 * max(size, _SHARED_QUAD) + _power_band(sigma, k) + 2
    return _capped(1 << int(math.ceil(math.log2(need))), sigma, field)


def _potential_samples(profile, which: str, n: int) -> np.ndarray:
    """-gamma (2 sigma + 1) |phi|^(2 sigma) or -gamma |phi|^(2 sigma) on the
    quadrature grid (real part of the synthesized profile; the imaginary
    dust is below EPS_REAL by precondition)."""
    pars = profile.params
    strength = pars.gamma * (2.0 * pars.sigma + 1.0 if which == "L_plus" else 1.0)
    vals = to_grid(profile.field, n).values.real
    return -strength * np.abs(vals) ** (2.0 * pars.sigma)


def assemble(profile, which: str, sector: str, size: int) -> np.ndarray:
    """Galerkin matrix of L_plus/L_minus on the even or odd sector, a
    read-only (size, size) float64 array.

    It is fields.sector_matrix of the operator's potential V sampled on the
    shared quadrature grid (trapezoid sums, exact for band-limited
    integrands).
    """
    if which not in _OPERATORS:
        raise ValidationError(f"unknown operator {which!r}; use L_plus or L_minus")
    if sector not in _SECTORS:
        raise ValidationError(f"unknown sector {sector!r}; use even or odd")
    if size < 1:
        raise ValidationError(f"sector size must be positive, got {size}")
    _require_real_resting(profile)

    pars = profile.params
    n = _quadrature_size(profile.field, pars.sigma, size)
    mat = sector_matrix(_potential_samples(profile, which, n), pars.alpha,
                        pars.half_period, profile.omega, sector, size)
    mat.setflags(write=False)
    return mat


def eigensolve(matrix: np.ndarray):
    """Full dense symmetric eigendecomposition of a sector matrix: numpy's
    eigh pair, `.eigenvalues` ascending and `.eigenvectors` as columns."""
    try:
        return np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"dense eigensolve failed: {exc}") from exc


def sector_spectra(profile, size: int) -> dict:
    """Spectra of all four (operator, sector) pairs, keyed by that tuple."""
    return {(which, sector): eigensolve(assemble(profile, which, sector, size))
            for which in _OPERATORS for sector in _SECTORS}


def sector_coords(field: AntiperiodicField, sector: str, size: int) -> np.ndarray:
    """First `size` coordinates of a real field's even (cosine) or odd
    (sine) part in the orthonormal sector basis, zero-padded."""
    pos = field.coeff[field.n_modes:]
    part = np.real(pos) if sector == "even" else -np.imag(pos)
    coords = 2.0 * part * math.sqrt(field.half_period)
    out = np.zeros(size)
    out[:len(coords)] = coords[:size]
    return out


def deflated_solve(profile, which: str, sector: str, spec, rhs: np.ndarray):
    """Solve A y = rhs on the range of the sector matrix A of `which` on
    `sector` from spec, its (eigenvalues, eigenvectors) pair.

    Eigenvalues with |lambda| <= 1e-6 _kernel_scale of the operator are
    deflated.  The share of rhs along deflated eigenvectors is measured
    against TOL_DEFLATE and dropped; a larger share raises InconsistentRange.
    Returns (y, number of deflated directions, dropped share).
    """
    vals, vecs = spec
    keep = np.abs(vals) > 1e-6 * _kernel_scale(profile, _scale_samples(profile, which))
    comp = vecs.T @ rhs
    dropped = float(np.linalg.norm(comp[~keep]) / np.linalg.norm(comp))
    if dropped > TOL_DEFLATE:
        raise InconsistentRange(
            f"{which} ({sector} sector): right-hand side has "
            f"relative component {dropped:.3e} along deflated directions")
    y = vecs[:, keep] @ (comp[keep] / vals[keep])
    return y, int(np.sum(~keep)), dropped


def _scale_samples(profile, which: str) -> np.ndarray:
    """The potential of `which` on the smallest quadrature grid, as read
    by _kernel_scale and the ground-state ordering premise."""
    n = _quadrature_size(profile.field, profile.params.sigma, 1)
    return _potential_samples(profile, which, n)


def _kernel_scale(profile, v: np.ndarray) -> float:
    """Magnitude scale of the low-lying spectrum: first multiplier
    eigenvalue plus |omega| plus the potential sup norm (over the
    samples v of _scale_samples).

    The raw matrix spectral radius grows like size^alpha and would make
    a radius-proportional kernel tolerance meaningless at large sector
    sizes, so the estimate deliberately excludes the high diagonal.
    """
    pars = profile.params
    return (np.pi / pars.half_period) ** pars.alpha + abs(profile.omega) + \
        float(np.max(np.abs(v)))


def _sector_values(sector: str, vec: np.ndarray) -> np.ndarray:
    """sum_j vec_j cos or sin((2j+1) pi x / T) at the interior reference
    points of the sector (see _REFERENCE_N).

    One synthesis of the positive-k modes on the 2T grid of
    _REFERENCE_N r points gives the cosine sum as its real part and the
    sine sum as its imaginary part; r >= 1 keeps the band 2 len(vec) - 1
    alias-free, and the reference points are every r-th grid point.
    """
    size = len(vec)
    r = -(-4 * size // (2 * _REFERENCE_N))
    n = 2 * _REFERENCE_N * r
    vals = synthesize(vec, 2 * np.arange(size) + 1, n)
    i = np.arange(1, _REFERENCE_N)
    if sector == "even":
        return vals[(i - _REFERENCE_N // 2) * r].real
    return vals[i * r].imag


def _sign_changes(values: np.ndarray) -> int:
    peak = np.max(np.abs(values))
    if peak == 0.0:
        return 0
    live = values[np.abs(values) > _SIGN_FLOOR * peak]
    if len(live) < 2:
        return 0
    s = np.sign(live)
    return int(np.sum(s[1:] != s[:-1]))


def nondegeneracy_check(profile, size: int) -> NondegeneracyReport:
    """Kernel, Morse-index, and sign-structure certification.

    Checks, per operator over the sector union: exactly one near-zero
    eigenvalue within tol_kernel = 1e-6 * scale, aligned with the
    symmetry generator (phi' for L_plus, phi for L_minus); Morse index;
    sign-definite sector ground eigenfunctions; at most two sign changes
    of the second sector eigenfunctions; ground-state ordering consistent
    with the monotonicity of the potential on (0, T/2).
    """
    return _nondegeneracy_report(profile, sector_spectra(profile, size))


def _nondegeneracy_report(profile, spectra: dict) -> NondegeneracyReport:
    """The checks of nondegeneracy_check on spectra already computed."""
    _require_real_resting(profile)
    size = len(spectra[("L_plus", "even")].eigenvalues)
    if size < profile.field.n_modes:
        raise ValidationError(
            f"sector size {size} below the profile band {profile.field.n_modes}")
    pars = profile.params
    phi_cos = sector_coords(profile.field, "even", size)
    dphi = derivative(profile.field)
    dphi_sin = sector_coords(dphi, "odd", size)
    generator = {"L_plus": ("odd", dphi_sin), "L_minus": ("even", phi_cos)}

    morse = {}
    alignments = {}
    sign_counts = {}
    ordering = {}
    for which in _OPERATORS:
        v = _scale_samples(profile, which)
        scale = _kernel_scale(profile, v)
        tolk = 1e-6 * scale
        union = np.concatenate([spectra[(which, s)].eigenvalues for s in _SECTORS])
        by_abs = np.sort(np.abs(union))
        if by_abs[1] - by_abs[0] < 10.0 * tolk:
            raise SpectralGapTooSmall(
                f"{which}: |lambda_1 - lambda_0| = {by_abs[1] - by_abs[0]:.3e} "
                f"< {10.0 * tolk:.3e}, kernel identification unreliable")
        morse[which] = int(np.sum(union < -tolk))

        ker_sector, ref = generator[which]
        best_sector = min(_SECTORS,
                          key=lambda s: np.min(np.abs(spectra[(which, s)].eigenvalues)))
        spec = spectra[(which, best_sector)]
        idx = int(np.argmin(np.abs(spec.eigenvalues)))
        vec = spec.eigenvectors[:, idx]
        if best_sector == ker_sector and np.linalg.norm(ref) > 0.0:
            cosine = abs(float(vec @ ref)) / np.linalg.norm(ref)
        else:
            cosine = 0.0
        alignments[which] = {
            "sector": best_sector,
            "eigenvalue": float(spec.eigenvalues[idx]),
            "cosine": cosine,
            "near_zero_count": int(np.sum(np.abs(union) <= tolk)),
            "tol_kernel": tolk,
        }

        counts = {}
        for s in _SECTORS:
            vecs = spectra[(which, s)].eigenvectors
            counts[s] = {"ground": _sign_changes(_sector_values(s, vecs[:, 0])),
                         "second": _sign_changes(_sector_values(s, vecs[:, 1]))}
        sign_counts[which] = counts

        # V is never constant here: a real antiperiodic phi vanishes somewhere
        premise = _monotonicity(v, 1e-10 * max(np.max(np.abs(v)), 1e-300))
        even_ground = float(spectra[(which, "even")].eigenvalues[0])
        odd_ground = float(spectra[(which, "odd")].eigenvalues[0])
        slack = 1e-12 * scale
        if premise == "nonincreasing":
            consistent = bool(odd_ground <= even_ground + slack)
        elif premise == "nondecreasing":
            consistent = bool(even_ground <= odd_ground + slack)
        else:
            consistent = None
        ordering[which] = {"premise": premise, "even_ground": even_ground,
                           "odd_ground": odd_ground, "consistent": consistent}

    a_plus_odd = assemble(profile, "L_plus", "odd", size)
    a_minus_even = assemble(profile, "L_minus", "even", size)
    ker_plus = float(np.linalg.norm(a_plus_odd @ dphi_sin)
                     / np.linalg.norm(dphi_sin))
    ker_minus = float(np.linalg.norm(a_minus_even @ phi_cos)
                      / np.linalg.norm(phi_cos))

    return NondegeneracyReport(
        morse_plus=morse["L_plus"], morse_minus=morse["L_minus"],
        ker_plus_residual=ker_plus, ker_minus_residual=ker_minus,
        ker_alignments=alignments,
        second_eigenfunction_sign_changes=sign_counts,
        gs_ordering=ordering)


def _apply_on_grid(profile, which: str, w: AntiperiodicField,
                   n: int) -> np.ndarray:
    """(Lambda^alpha + omega + V) w on the n-point grid, for any w in its band;
    V w is sampled pointwise, so truncation shows in infinity-norm residuals."""
    pars = profile.params
    lam_w = fractional_laplacian(w, pars.alpha)
    wg = to_grid(w, n).values
    v = _potential_samples(profile, which, n)
    return to_grid(lam_w, n).values + profile.omega * wg + v * wg


def _chain_prologue(profile, message: str):
    """Checks shared by the chain reports: a real resting profile on the
    defocusing branch (else ValidationError(message)).  Returns phi' and
    the fine grid size."""
    _require_real_resting(profile)
    if profile.params.gamma != -1:
        raise ValidationError(message)
    f = profile.field
    return derivative(f), _residual_grid(f, profile.params.sigma)


def _mu_chain(profile, n: int):
    """The charge-family tangent and the chain residual
    L_plus (dphi/dmu) + (domega/dmu) phi on the n-point grid."""
    slope = family_tangent(profile, "mu")
    chain = _apply_on_grid(profile, "L_plus", slope["field"], n) \
        + slope["omega"] * to_grid(profile.field, n).values
    return slope, chain


def fredholm_range_checks(profile, spectra: dict) -> dict:
    """Range identities for the sector operators at a defocusing profile.

    Verifies on a fine grid that L_minus phi' = 2 sigma gamma phi^(2 sigma) phi'
    and L_plus phi = -2 sigma gamma phi^(2 sigma + 1) (rearrangements of the
    profile equation and its x-derivative), that L_plus (dphi/dmu) =
    -(domega/dmu) phi with the family tangents, and that the deflated
    odd-sector solve L_minus y = -phi' reproduces Im dphi/dc.
    """
    dphi, n = _chain_prologue(
        profile, "range checks use the charge/speed parameterization of the "
        "defocusing branch")
    pars = profile.params
    f = profile.field
    fg = to_grid(f, n).values.real
    dg = to_grid(dphi, n).values
    mod = np.abs(fg) ** (2.0 * pars.sigma)
    scale_inf = float(np.max(np.abs(fg)))

    res_minus = _apply_on_grid(profile, "L_minus", dphi, n) \
        - 2.0 * pars.sigma * pars.gamma * mod * dg
    res_plus = _apply_on_grid(profile, "L_plus", f, n) \
        + 2.0 * pars.sigma * pars.gamma * mod * fg
    report = {
        "identity_minus_inf": float(np.max(np.abs(res_minus))),
        "identity_plus_inf": float(np.max(np.abs(res_plus))),
        "field_scale_inf": scale_inf,
    }

    # Parameter derivative chain L_plus (dphi/dmu) + (domega/dmu) phi = 0.
    mu_slope, res_mu = _mu_chain(profile, n)
    report["mu_chain_inf"] = float(np.max(np.abs(res_mu)))
    report["domega_dmu"] = float(mu_slope["omega"])

    # Deflated odd-sector solve against the speed derivative of the field.
    spec = spectra[("L_minus", "odd")]
    size = len(spec.eigenvalues)
    d = sector_coords(dphi, "odd", size)
    y, deflated, dropped = deflated_solve(profile, "L_minus", "odd", spec, -d)
    report["deflated_components"] = deflated
    report["deflated_drop"] = dropped

    dc_imag = imag_part(family_tangent(profile, "c")["field"])
    y_fd = sector_coords(dc_imag, "odd", size)
    denom = max(np.linalg.norm(y), 1e-300)
    report["c_consistency"] = float(np.linalg.norm(y - y_fd) / denom)
    report["dspeed_norm"] = float(np.linalg.norm(y_fd))
    return report


def jordan_structure(profile) -> dict:
    """Height-2 generalized-kernel chains and the parameter Jacobians.

    Confirms numerically that L_plus (dphi/dmu) = -(domega/dmu) phi and
    L_minus Im(dphi/dc) = -phi' (the family tangents of the solver
    branch), that the chains terminate (the pairings dN/dc and dQ/dmu
    stay away from zero) and that the Jacobians d(N,Q)/d(c,mu) and
    d(c,omega)/d(c,mu) are nonsingular.
    """
    dphi, n = _chain_prologue(
        profile, "the two-parameter chain structure lives on the defocusing branch")
    mu, chain_mu = _mu_chain(profile, n)
    c = family_tangent(profile, "c")
    chain_c = _apply_on_grid(profile, "L_minus", imag_part(c["field"]), n) \
        + to_grid(dphi, n).values
    dn_dc, dq_dmu = c["momentum"], mu["charge"]

    if abs(dn_dc) < 1e-8 or abs(dq_dmu) < 1e-8:
        raise ChainDoesNotTerminate(
            f"Fredholm pairing too small: dN/dc = {dn_dc:.3e}, "
            f"dQ/dmu = {dq_dmu:.3e}")

    jac_nq = np.array([[dn_dc, mu["momentum"]], [c["charge"], dq_dmu]])
    jac_comega = np.array([[1.0, 0.0], [c["omega"], mu["omega"]]])
    return {
        "chain_mu_inf": float(np.max(np.abs(chain_mu))),
        "chain_c_inf": float(np.max(np.abs(chain_c))),
        "dN_dc": float(dn_dc),
        "dN_dc_sign": float(np.sign(dn_dc)),
        "dQ_dmu": float(dq_dmu),
        "domega_dmu": float(mu["omega"]),
        "domega_dc": float(c["omega"]),
        "jacobian_NQ": jac_nq.tolist(),
        "jacobian_comega": jac_comega.tolist(),
        "det_NQ": float(np.linalg.det(jac_nq)),
        "det_comega": float(np.linalg.det(jac_comega)),
    }
