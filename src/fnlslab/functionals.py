"""Conserved functionals and inner products.

All integrals run over one antiperiod [0, T]; for an antiperiodic field
|u| is T-periodic, so Parseval gives int_0^T |u|^2 = T sum |c_k|^2.
Inner products are real: <u, v> = Re int_0^T u conj(v) dx.

Conventions: charge Q = (1/2) int |u|^2, momentum N = (i/2) int conj(u) u',
kinetic K = (1/2) int |Lambda^(alpha/2) u|^2, potential
P = 1/(2 sigma + 2) int |u|^(2 sigma + 2), hamiltonian H = K - gamma P,
so the defocusing sign gamma = -1 gives H = K + P.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .fields import AntiperiodicField, _aligned, odd_wavenumbers, to_grid
from .params import ProblemParams


def inner(u: AntiperiodicField, v: AntiperiodicField) -> float:
    """Re int_0^T u conj(v) dx = Re[T sum u_k conj(v_k)] over the union band."""
    u, v = _aligned(u, v)
    return float(np.real(u.half_period * np.sum(u.coeff * np.conj(v.coeff))))


def x_norm(u: AntiperiodicField, alpha: float) -> float:
    """Energy-space norm: (int_0^T |u|^2 + |Lambda^(alpha/2) u|^2)^(1/2)."""
    return x_norm_rows(u.half_period, u.coeff[None], alpha)[0]


def x_norm_rows(half_period: float, coeff: np.ndarray, alpha: float) -> list:
    """x_norm of each (rows, 2M) coefficient row, one 1-D sum per row."""
    w = np.abs(np.pi * odd_wavenumbers(coeff.shape[1] // 2) / half_period) ** alpha
    return [float(np.sqrt(half_period * np.sum(row)))
            for row in (1.0 + w) * np.abs(coeff) ** 2]


def charge(u: AntiperiodicField) -> float:
    return 0.5 * u.half_period * float(np.sum(np.abs(u.coeff) ** 2))


def momentum(u: AntiperiodicField) -> float:
    """N(u) = -(pi/2) sum_k k |c_k|^2; vanishes for real fields."""
    return -0.5 * np.pi * float(np.sum(u.wavenumbers * np.abs(u.coeff) ** 2))


def kinetic(u: AntiperiodicField, alpha: float) -> float:
    return kinetic_rows(u.half_period, u.coeff[None], alpha)[0]


def kinetic_rows(half_period: float, coeff: np.ndarray, alpha: float) -> list:
    """kinetic of each (rows, 2M) coefficient row, one 1-D sum per row."""
    w = np.abs(np.pi * odd_wavenumbers(coeff.shape[1] // 2) / half_period) ** alpha
    return [0.5 * half_period * float(np.sum(row))
            for row in w * np.abs(coeff) ** 2]


_GRID_CAP = 1 << 22  # samples of the largest quadrature grid: 64 MiB complex


def _power_band(sigma: float, k_max: int) -> int:
    """Bandwidth charged to |u|^(2 sigma) on the band k_max, which sizes every
    alias-free quadrature grid: 2 sigma k_max, exact for integer sigma.
    Fractional powers are not band-limited; they are charged (2 ceil(sigma)
    + 2) k_max, two factors of margin, and the residual defect is monitored."""
    fac = 2 * sigma if float(sigma).is_integer() else 2 * np.ceil(sigma) + 2
    return int(fac) * k_max


def _capped(n: int, sigma: float, u: AntiperiodicField) -> int:
    if n > _GRID_CAP:
        raise ValidationError(
            f"sigma = {sigma} on the band k_max = {u.max_wavenumber} needs a {n}-point "
            f"quadrature grid, past the cap of {_GRID_CAP} points")
    return n


def _default_grid(u: AntiperiodicField, sigma: float) -> int:
    """Grid on which |u|^(2 sigma) u and |u|^(2 sigma + 2) are alias-free (>= 4M)."""
    k = u.max_wavenumber
    return _capped(_power_band(sigma, k) + 2 * k + 2, sigma, u)


def _residual_grid(u: AntiperiodicField, sigma: float) -> int:
    """Twice _default_grid, for residuals that sample out-of-band content."""
    return _capped(2 * _default_grid(u, sigma), sigma, u)


def potential(u: AntiperiodicField, sigma: float) -> float:
    """P(u) by trapezoid quadrature on the oversampled grid (spectrally exact
    for resolved data; |u|^(2 sigma + 2) is T-periodic so one period is half
    the 2T grid sum); |g|^(2 sigma) |g|^2, not |g|^(2 sigma + 2): reports print it."""
    g = to_grid(u, _default_grid(u, sigma))
    mod = np.abs(g.values) ** (2.0 * sigma)
    dx = 2.0 * u.half_period / g.n
    integral = 0.5 * float(np.sum(mod * np.abs(g.values) ** 2)) * dx
    return integral / (2.0 * sigma + 2.0)


def _potential_sum(values: np.ndarray, half_period: float, sigma: float) -> float:
    """(T/n) sum |u|^(2 sigma + 2) / (2 sigma + 2) over n samples of one 2T
    or T period: P of the focusing solve and the (folded) evolution log."""
    p = (half_period / len(values)) * float(np.sum(np.abs(values) ** (2.0 * sigma + 2.0)))
    return p / (2.0 * sigma + 2.0)


def hamiltonian(u: AntiperiodicField, params: ProblemParams) -> float:
    return kinetic(u, params.alpha) - params.gamma * potential(u, params.sigma)


def moving_frame_energy(u: AntiperiodicField, c: float,
                        params: ProblemParams) -> float:
    """H + c N, the objective minimized at fixed charge."""
    return hamiltonian(u, params) + c * momentum(u)


def quadratic_energy(u: AntiperiodicField, omega: float, alpha: float) -> float:
    """K + omega Q, the objective minimized at fixed potential."""
    return kinetic(u, alpha) + omega * charge(u)
