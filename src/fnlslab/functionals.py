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

from .fields import AntiperiodicField, _aligned, to_grid
from .params import ProblemParams


def inner(u: AntiperiodicField, v: AntiperiodicField) -> float:
    """Re int_0^T u conj(v) dx = Re[T sum u_k conj(v_k)] (equal bands)."""
    if not np.array_equal(u.wavenumbers, v.wavenumbers):
        u, v = _aligned(u, v)
    return float(np.real(u.half_period * np.sum(u.coeff * np.conj(v.coeff))))


def x_norm(u: AntiperiodicField, alpha: float) -> float:
    """Energy-space norm: (int_0^T |u|^2 + |Lambda^(alpha/2) u|^2)^(1/2)."""
    return x_norm_rows(u.half_period, u.wavenumbers, u.coeff[None], alpha)[0]


def x_norm_rows(half_period: float, wavenumbers: np.ndarray,
                coeff: np.ndarray, alpha: float) -> list:
    """x_norm of each coefficient row on one band, one 1-D sum per row."""
    w = np.abs(np.pi * wavenumbers / half_period) ** alpha
    return [float(np.sqrt(half_period * np.sum(row)))
            for row in (1.0 + w) * np.abs(coeff) ** 2]


def charge(u: AntiperiodicField) -> float:
    return 0.5 * u.half_period * float(np.sum(np.abs(u.coeff) ** 2))


def momentum(u: AntiperiodicField) -> float:
    """N(u) = -(pi/2) sum_k k |c_k|^2; vanishes for real fields."""
    return -0.5 * np.pi * float(np.sum(u.wavenumbers * np.abs(u.coeff) ** 2))


def kinetic(u: AntiperiodicField, alpha: float) -> float:
    return kinetic_rows(u.half_period, u.wavenumbers, u.coeff[None], alpha)[0]


def kinetic_rows(half_period: float, wavenumbers: np.ndarray,
                 coeff: np.ndarray, alpha: float) -> list:
    """kinetic of each coefficient row on one band, one 1-D sum per row."""
    w = np.abs(np.pi * wavenumbers / half_period) ** alpha
    return [0.5 * half_period * float(np.sum(row))
            for row in w * np.abs(coeff) ** 2]


def _default_grid(u: AntiperiodicField, sigma: float) -> int:
    """Grid large enough that |u|^(2 sigma) u and |u|^(2 sigma + 2) are
    quadratured without aliasing into the resolved band.

    For integer sigma the product bandwidth is (2 sigma + 2) max|k| and the
    bound is exact; fractional powers are not band-limited, so a margin of
    two extra factors is applied and the residual defect is monitored.
    """
    k_max = u.max_wavenumber
    factor = 2.0 * sigma + 2.0 if float(sigma).is_integer() else 2.0 * np.ceil(sigma) + 4.0
    need = int(factor) * k_max + 2
    n = max(4 * u.n_modes, need)
    return n + (n % 2)


def potential(u: AntiperiodicField, sigma: float) -> float:
    """P(u) by trapezoid quadrature on the oversampled grid (spectrally exact
    for resolved data; |u|^(2 sigma + 2) is T-periodic so one period is half
    the 2T grid sum)."""
    g = to_grid(u, _default_grid(u, sigma))
    mod = np.abs(g.values) ** (2.0 * sigma)
    dx = 2.0 * u.half_period / g.n
    integral = 0.5 * float(np.sum(mod * np.abs(g.values) ** 2)) * dx
    return integral / (2.0 * sigma + 2.0)


def hamiltonian(u: AntiperiodicField, params: ProblemParams) -> float:
    return kinetic(u, params.alpha) - params.gamma * potential(u, params.sigma)


def moving_frame_energy(u: AntiperiodicField, c: float,
                        params: ProblemParams) -> float:
    """H + c N, the objective minimized at fixed charge."""
    return hamiltonian(u, params) + c * momentum(u)


def quadratic_energy(u: AntiperiodicField, omega: float, alpha: float) -> float:
    """K + omega Q, the objective minimized at fixed potential."""
    return kinetic(u, alpha) + omega * charge(u)
