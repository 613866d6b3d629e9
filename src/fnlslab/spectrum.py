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
from .fields import (AntiperiodicField, apply_multiplier, cosine_block,
                     derivative, fractional_laplacian, imag_part, synthesize,
                     to_grid)
from .functionals import _default_grid, charge, momentum
from .params import EPS_REAL, ProblemParams
from .profiles import family_pair

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
class SectorOperator:
    """Dense symmetric matrix of L_plus or L_minus on one parity sector."""

    sector: str
    size: int
    matrix: np.ndarray
    which: str
    params: ProblemParams
    profile: object

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class SectorSpectrum:
    eigenvalues: np.ndarray   # ascending
    eigenvectors: np.ndarray  # orthonormal columns, aligned with eigenvalues
    sector: str
    which: str

    @property
    def size(self) -> int:
        return len(self.eigenvalues)


@dataclass(frozen=True)
class NondegeneracyReport:
    morse_plus: int
    morse_minus: int
    ker_plus_residual: float
    ker_minus_residual: float
    ker_alignments: dict
    second_eigenfunction_sign_changes: dict
    gs_ordering: dict
    jordan: dict | None


def _require_real_resting(profile) -> None:
    if profile.c != 0.0:
        raise ProfileNotReal(
            f"sector split needs c = 0, got c = {profile.c}")
    defect = profile.field.realness_defect()
    if defect > EPS_REAL:
        raise ProfileNotReal(
            f"profile field has realness defect {defect:.3e}")


def _quadrature_size(field: AntiperiodicField, sigma: float, size: int) -> int:
    """Grid for the potential matrix entries.

    Needs the FFT bins 2m, m <= 2 size - 1, to be alias-free for the
    potential |phi|^(2 sigma), whose bandwidth is 2 ceil(sigma) (2M - 1)
    for integer sigma (fractional powers get one extra factor of margin).
    """
    fac = math.ceil(sigma) + (0 if float(sigma).is_integer() else 1)
    bandwidth = 2 * fac * (2 * field.n_modes - 1)
    need = 4 * max(size, _SHARED_QUAD) + bandwidth + 2
    need = max(need, 2 * (field.max_wavenumber + 1))
    return 1 << int(math.ceil(math.log2(need)))


def _potential_samples(profile, which: str, n: int) -> np.ndarray:
    """-gamma (2 sigma + 1) |phi|^(2 sigma) or -gamma |phi|^(2 sigma) on the
    quadrature grid (real part of the synthesized profile; the imaginary
    dust is below EPS_REAL by precondition)."""
    pars = profile.params
    strength = pars.gamma * (2.0 * pars.sigma + 1.0 if which == "L_plus" else 1.0)
    vals = to_grid(profile.field, n).values.real
    return -strength * np.abs(vals) ** (2.0 * pars.sigma)


def assemble(profile, which: str, sector: str, size: int) -> SectorOperator:
    """Galerkin matrix of L_plus/L_minus on the even or odd sector.

    Entries are diag(|pi(2j+1)/T|^alpha + omega) plus the potential
    block (w_{|j-k|} +/- w_{j+k+1})/2 with w_m the cosine coefficients
    of V on the shared quadrature grid (trapezoid sums, exact for
    band-limited integrands).
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
    v = _potential_samples(profile, which, n)
    lam = (np.pi * (2 * np.arange(size) + 1) / pars.half_period) ** pars.alpha
    sign = 1.0 if sector == "even" else -1.0
    mat = np.diag(lam + profile.omega) + cosine_block(v, size, sign)
    return SectorOperator(sector=sector, size=size, matrix=mat,
                          which=which, params=pars, profile=profile)


def eigensolve(op: SectorOperator) -> SectorSpectrum:
    """Full dense symmetric eigendecomposition of a sector matrix."""
    try:
        vals, vecs = np.linalg.eigh(op.matrix)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"dense eigensolve failed: {exc}") from exc
    return SectorSpectrum(eigenvalues=vals, eigenvectors=vecs,
                          sector=op.sector, which=op.which)


def sector_spectra(profile, size: int) -> dict:
    """Spectra of all four (operator, sector) pairs, keyed by that tuple."""
    return {(which, sector): eigensolve(assemble(profile, which, sector, size))
            for which in _OPERATORS for sector in _SECTORS}


def _even_coords(field: AntiperiodicField) -> np.ndarray:
    """Coordinates of a real even field in the orthonormal cosine basis."""
    pos = field.coeff[field.n_modes:]
    return 2.0 * np.real(pos) * math.sqrt(field.half_period)


def _odd_coords(field: AntiperiodicField) -> np.ndarray:
    """Coordinates of a real odd field in the orthonormal sine basis."""
    pos = field.coeff[field.n_modes:]
    return -2.0 * np.imag(pos) * math.sqrt(field.half_period)


def _padded(coords: np.ndarray, size: int) -> np.ndarray:
    out = np.zeros(size)
    out[:len(coords)] = coords[:size]
    return out


def _scale_samples(profile, which: str) -> np.ndarray:
    """The potential of `which` on the smallest quadrature grid, as read
    by _kernel_scale and _potential_premise."""
    n = _quadrature_size(profile.field, profile.params.sigma, 1)
    return _potential_samples(profile, which, n)


def _kernel_scale(profile, which: str, v: np.ndarray | None = None) -> float:
    """Magnitude scale of the low-lying spectrum: first multiplier
    eigenvalue plus |omega| plus the potential sup norm (over the
    samples v of _scale_samples, computed when not given).

    The raw matrix spectral radius grows like size^alpha and would make
    a radius-proportional kernel tolerance meaningless at large sector
    sizes, so the estimate deliberately excludes the high diagonal.
    """
    pars = profile.params
    if v is None:
        v = _scale_samples(profile, which)
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


def _potential_premise(v: np.ndarray) -> str:
    """Monotonicity of V on (0, T/2) from its samples v on the 2T grid."""
    quarter = v[:len(v) // 4 + 1]
    slack = 1e-10 * max(np.max(np.abs(v)), 1e-300)
    d = np.diff(quarter)
    if np.all(d <= slack):
        return "nonincreasing"
    if np.all(d >= -slack):
        return "nondecreasing"
    return "none"


def nondegeneracy_check(profile, size: int,
                        include_jordan: bool = False) -> NondegeneracyReport:
    """Kernel, Morse-index, and sign-structure certification.

    Checks, per operator over the sector union: exactly one near-zero
    eigenvalue within tol_kernel = 1e-6 * scale, aligned with the
    symmetry generator (phi' for L_plus, phi for L_minus); Morse index;
    sign-definite sector ground eigenfunctions; at most two sign changes
    of the second sector eigenfunctions; ground-state ordering consistent
    with the monotonicity of the potential on (0, T/2).
    """
    return _nondegeneracy_report(
        profile, sector_spectra(profile, size), include_jordan)


def _nondegeneracy_report(profile, spectra: dict,
                          include_jordan: bool) -> NondegeneracyReport:
    """The checks of nondegeneracy_check on spectra already computed."""
    _require_real_resting(profile)
    size = spectra[("L_plus", "even")].size
    if size < profile.field.n_modes:
        raise ValidationError(
            f"sector size {size} below the profile band {profile.field.n_modes}")
    pars = profile.params
    phi_cos = _padded(_even_coords(profile.field), size)
    dphi = apply_multiplier(profile.field, derivative(pars.half_period))
    dphi_sin = _padded(_odd_coords(dphi), size)
    generator = {"L_plus": ("odd", dphi_sin), "L_minus": ("even", phi_cos)}

    morse = {}
    alignments = {}
    sign_counts = {}
    ordering = {}
    for which in _OPERATORS:
        v = _scale_samples(profile, which)
        scale = _kernel_scale(profile, which, v)
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

        premise = _potential_premise(v)
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

    a_plus_odd = assemble(profile, "L_plus", "odd", size).matrix
    a_minus_even = assemble(profile, "L_minus", "even", size).matrix
    ker_plus = float(np.linalg.norm(a_plus_odd @ dphi_sin)
                     / np.linalg.norm(dphi_sin))
    ker_minus = float(np.linalg.norm(a_minus_even @ phi_cos)
                      / np.linalg.norm(phi_cos))

    jordan = jordan_structure(profile) if include_jordan else None
    return NondegeneracyReport(
        morse_plus=morse["L_plus"], morse_minus=morse["L_minus"],
        ker_plus_residual=ker_plus, ker_minus_residual=ker_minus,
        ker_alignments=alignments,
        second_eigenfunction_sign_changes=sign_counts,
        gs_ordering=ordering, jordan=jordan)


def _apply_on_grid(profile, which: str, w: AntiperiodicField,
                   n: int | None = None) -> np.ndarray:
    """(Lambda^alpha + omega + V) w sampled pointwise on a fine grid.

    Works for any band-limited w, not just sector elements; the product
    V w is evaluated pointwise so truncation shows up honestly in
    infinity-norm residuals.
    """
    pars = profile.params
    if n is None:
        n = 2 * _default_grid(profile.field, pars.sigma)
    n = max(n, 2 * (w.max_wavenumber + 1), 2 * (profile.field.max_wavenumber + 1))
    n += n % 2
    lam_w = apply_multiplier(w, fractional_laplacian(pars.half_period, pars.alpha))
    wg = to_grid(w, n).values
    v = _potential_samples(profile, which, n)
    return to_grid(lam_w, n).values + profile.omega * wg + v * wg


def _mu_chain(profile, h: float, n: int):
    """Charge-family neighbours, domega/dmu, and the chain residual
    L_plus (dphi/dmu) + (domega/dmu) phi on the n-point grid, from
    central differences."""
    lower, upper = family_pair(profile, "mu", h)
    dmu_field = (1.0 / (2.0 * h)) * (upper.field - lower.field)
    domega_dmu = (upper.omega - lower.omega) / (2.0 * h)
    chain = _apply_on_grid(profile, "L_plus", dmu_field, n) \
        + domega_dmu * to_grid(profile.field, n).values
    return (lower, upper), domega_dmu, chain


def fredholm_range_checks(profile, spectra: dict, h: float = 1e-3,
                          deflate_tol: float = 1e-8) -> dict:
    """Range identities for the sector operators at a defocusing profile.

    Verifies on a fine grid that L_minus phi' = 2 sigma gamma phi^(2 sigma) phi'
    and L_plus phi = -2 sigma gamma phi^(2 sigma + 1) (rearrangements of the
    profile equation and its x-derivative), that L_plus (dphi/dmu) =
    -(domega/dmu) phi with finite-difference derivatives, and that the
    deflated odd-sector solve L_minus y = -phi' reproduces Im dphi/dc.
    """
    _require_real_resting(profile)
    pars = profile.params
    if pars.gamma != -1:
        raise ValidationError(
            "range checks use the charge/speed parameterization of the "
            "defocusing branch")

    f = profile.field
    dphi = apply_multiplier(f, derivative(pars.half_period))
    n = 2 * _default_grid(f, pars.sigma)
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
    _, domega_dmu, res_mu = _mu_chain(profile, h, n)
    report["mu_chain_inf"] = float(np.max(np.abs(res_mu)))
    report["domega_dmu"] = float(domega_dmu)

    # Deflated odd-sector solve against the speed derivative of the field.
    spec = spectra[("L_minus", "odd")]
    size = spec.size
    d = _padded(_odd_coords(dphi), size)
    tolk = 1e-6 * _kernel_scale(profile, "L_minus")
    keep = np.abs(spec.eigenvalues) > tolk
    proj = spec.eigenvectors[:, keep].T @ (-d)
    y = spec.eigenvectors[:, keep] @ (proj / spec.eigenvalues[keep])
    dropped = (-d) - spec.eigenvectors[:, keep] @ proj
    rel_drop = float(np.linalg.norm(dropped) / np.linalg.norm(d))
    if rel_drop > deflate_tol:
        raise InconsistentRange(
            f"-phi' has a component {rel_drop:.3e} outside the deflated "
            f"range of L_minus (odd sector)")
    report["deflated_components"] = int(np.sum(~keep))
    report["deflated_drop"] = rel_drop

    c_dn, c_up = family_pair(profile, "c", h)
    dc_field = (1.0 / (2.0 * h)) * (c_up.field - c_dn.field)
    y_fd = _padded(_odd_coords(imag_part(dc_field)), size)
    denom = max(np.linalg.norm(y), 1e-300)
    report["c_consistency"] = float(np.linalg.norm(y - y_fd) / denom)
    report["dspeed_norm"] = float(np.linalg.norm(y_fd))
    return report


def jordan_structure(profile, h: float = 1e-3) -> dict:
    """Height-2 generalized-kernel chains and the parameter Jacobians.

    Confirms numerically that L_plus (dphi/dmu) = -(domega/dmu) phi and
    L_minus Im(dphi/dc) = -phi' (finite differences on the solver
    branch), that the chains terminate (the pairings dN/dc and dQ/dmu
    stay away from zero) and that the Jacobians d(N,Q)/d(c,mu) and
    d(c,omega)/d(c,mu) are nonsingular.
    """
    _require_real_resting(profile)
    pars = profile.params
    if pars.gamma != -1:
        raise ValidationError(
            "the two-parameter chain structure lives on the defocusing branch")

    f = profile.field
    dphi = apply_multiplier(f, derivative(pars.half_period))
    n = 2 * _default_grid(f, pars.sigma)

    (p_dn, p_up), domega_dmu, chain_mu = _mu_chain(profile, h, n)
    dq_dmu = (charge(p_up.field) - charge(p_dn.field)) / (2.0 * h)
    dn_dmu = (momentum(p_up.field) - momentum(p_dn.field)) / (2.0 * h)

    c_dn, c_up = family_pair(profile, "c", h)
    dc_imag = imag_part((1.0 / (2.0 * h)) * (c_up.field - c_dn.field))
    dn_dc = (momentum(c_up.field) - momentum(c_dn.field)) / (2.0 * h)
    dq_dc = (charge(c_up.field) - charge(c_dn.field)) / (2.0 * h)
    domega_dc = (c_up.omega - c_dn.omega) / (2.0 * h)
    chain_c = _apply_on_grid(profile, "L_minus", dc_imag, n) \
        + to_grid(dphi, n).values

    if abs(dn_dc) < 1e-8 or abs(dq_dmu) < 1e-8:
        raise ChainDoesNotTerminate(
            f"Fredholm pairing too small: dN/dc = {dn_dc:.3e}, "
            f"dQ/dmu = {dq_dmu:.3e}")

    jac_nq = np.array([[dn_dc, dn_dmu], [dq_dc, dq_dmu]])
    jac_comega = np.array([[1.0, 0.0], [domega_dc, domega_dmu]])
    return {
        "chain_mu_inf": float(np.max(np.abs(chain_mu))),
        "chain_c_inf": float(np.max(np.abs(chain_c))),
        "dN_dc": float(dn_dc),
        "dN_dc_sign": float(np.sign(dn_dc)),
        "dQ_dmu": float(dq_dmu),
        "domega_dmu": float(domega_dmu),
        "domega_dc": float(domega_dc),
        "jacobian_NQ": jac_nq.tolist(),
        "jacobian_comega": jac_comega.tolist(),
        "det_NQ": float(np.linalg.det(jac_nq)),
        "det_comega": float(np.linalg.det(jac_comega)),
    }
