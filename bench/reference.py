"""Reference computations the benchmark checks fnlslab's outputs against.

Everything here works from mode coefficients or closed forms and shares
no code path with the package: transforms are direct mode sums (no FFT),
the alpha = 2 profiles come from Jacobi elliptic functions, the alpha = 2
heat kernel is a Gaussian lattice sum and orbit distances come from a
brute-force shift scan.  The conventions follow the package's
documentation: f(x) = sum_k c_k exp(i pi k x / T) over odd k.
"""

from __future__ import annotations

import numpy as np


def mode_sum(k, coeff, half_period, x):
    """sum_k c_k exp(i pi k x / T) by direct summation at points x."""
    phase = np.exp(1j * np.pi * np.outer(np.asarray(x, float), k) / half_period)
    return phase @ np.asarray(coeff, complex)


def profile_residual(k, coeff, half_period, alpha, sigma, gamma, omega, c=0.0,
                     n_points=1024):
    """sup |Lambda^alpha phi + omega phi + i c phi' - gamma |phi|^(2 sigma) phi|
    on n_points uniform points of [0, 2T), every term by direct mode sum."""
    k = np.asarray(k)
    x = 2.0 * half_period * np.arange(n_points) / n_points
    w = np.pi * k / half_period
    phi = mode_sum(k, coeff, half_period, x)
    lin = mode_sum(k, (np.abs(w) ** alpha + omega - c * w) * coeff,
                   half_period, x)
    return float(np.max(np.abs(lin - gamma * np.abs(phi) ** (2.0 * sigma) * phi)))


def x_norm(k, coeff, half_period, alpha):
    """(int_0^T |u|^2 + |Lambda^(alpha/2) u|^2)^(1/2) from coefficients."""
    w = np.abs(np.pi * np.asarray(k) / half_period) ** alpha
    return float(np.sqrt(half_period * np.sum((1.0 + w) * np.abs(coeff) ** 2)))


def momentum(k, coeff):
    return -0.5 * np.pi * float(np.sum(np.asarray(k) * np.abs(coeff) ** 2))


def sector_values(sector, vec, half_period, n_points=2048):
    """An eigenvector of the cos/sin((2j+1) pi x / T) sector basis, sampled
    on the interior of its reference interval: (-T/2, T/2) for even,
    (0, T) for odd."""
    t = np.arange(1, n_points) / n_points
    x = (t - 0.5) * half_period if sector == "even" else t * half_period
    j = np.arange(len(vec))
    trig = np.cos if sector == "even" else np.sin
    return trig(np.outer(x, (2 * j + 1) * np.pi / half_period)) @ vec


def sector_coords(k, coeff, half_period, sector, size):
    """Coordinates of a real even (odd) field in the orthonormal basis
    sqrt(1/T) cos (sin) ((2j+1) pi x / T), zero-padded to size."""
    k = np.asarray(k)
    pos = np.asarray(coeff)[k > 0]
    part = np.real(pos) if sector == "even" else -np.imag(pos)
    out = np.zeros(size)
    n = min(size, len(pos))
    out[:n] = 2.0 * np.sqrt(half_period) * part[:n]
    return out


# --- Jacobi elliptic closed form: alpha = 2, sigma = 1, defocusing.
#
# phi'' = omega phi + phi^3 is solved by A cd(B x; m), A^2 = 2 m B^2,
# omega = -(1 + m) B^2, antiperiod 2K(m) in the argument: B = 2K(m)/T.


def snoidal(m, half_period, x):
    """(values at x, omega) of the even snoidal profile."""
    from scipy.special import ellipj, ellipk

    b = 2.0 * ellipk(m) / half_period
    a = np.sqrt(2.0 * m) * b
    _, cn, dn, _ = ellipj(b * np.asarray(x, float), m)
    return a * cn / dn, -(1.0 + m) * b * b


def snoidal_charge(m, half_period, n_points=4096):
    """Q = (1/4) int_0^{2T} phi^2 by the periodic trapezoid rule, which is
    spectrally accurate for this analytic periodic integrand."""
    x = 2.0 * half_period * np.arange(n_points) / n_points
    vals, _ = snoidal(m, half_period, x)
    return 0.25 * float(np.sum(vals ** 2)) * (2.0 * half_period / n_points)


def gaussian_lattice_kernel(x, t, half_period, n_images=60):
    """Periodized Gauss-Weierstrass kernel on the 2T torus (alpha = 2)."""
    x = np.asarray(x, float)
    out = np.zeros_like(x)
    for n in range(-n_images, n_images + 1):
        out += np.exp(-(x + 2.0 * half_period * n) ** 2 / (4.0 * t))
    return out / np.sqrt(4.0 * np.pi * t)


def orbit_distance_scan(k, u, v, half_period, alpha, n_shifts=4096):
    """min over shifts s and phases b of ||u - e^(ib) v(. - s)||_X.

    A uniform scan of n_shifts shifts over one period, then a second
    uniform scan of the same size across the two cells around the best
    one; the phase is optimal in closed form at each shift.  Returns
    (distance, shift, spacing of the fine scan).  The distance is taken
    as the norm of the difference, never from the expanded quadratic.
    """
    k = np.asarray(k)
    u = np.asarray(u, complex)
    v = np.asarray(v, complex)
    weight = half_period * (1.0 + np.abs(np.pi * k / half_period) ** alpha)

    def best(shifts):
        moved = v[None, :] * np.exp(-1j * np.pi * np.outer(shifts, k) / half_period)
        z = moved @ (weight * np.conj(u))           # <e^(ib) moved, u> phases
        rot = np.conj(z) / np.maximum(np.abs(z), 1e-300)
        diff = u[None, :] - rot[:, None] * moved
        dist = np.sqrt(np.sum(weight * np.abs(diff) ** 2, axis=1))
        i = int(np.argmin(dist))
        return float(dist[i]), float(shifts[i])

    width = 2.0 * half_period / n_shifts
    _, s0 = best(width * np.arange(n_shifts))
    fine = s0 + width * np.linspace(-1.0, 1.0, n_shifts)
    dist, shift = best(fine)
    return dist, shift % (2.0 * half_period), float(fine[1] - fine[0])
