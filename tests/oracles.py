"""Independent numerical oracles used to pin expected values.

Everything here deliberately avoids the package's FFT/solver paths:
direct O(N M) summation for transforms, Jacobi elliptic closed forms for
the classical-dispersion profiles, finite differences for operators, and
truncated lattice sums for heat kernels.
"""

import numpy as np
from scipy.integrate import quad
from scipy.special import ellipj, ellipk

from fnlslab.fields import AntiperiodicField, GridSamples, odd_wavenumbers, to_modes


def direct_synthesis(k, coeff, half_period, n):
    """Naive evaluation of sum_k c_k exp(i pi k x / T) on the 2T grid."""
    x = 2.0 * half_period * np.arange(n) / n
    out = np.zeros(n, dtype=complex)
    for kk, cc in zip(k, coeff):
        out += cc * np.exp(1j * np.pi * kk * x / half_period)
    return out


def sector_sum(sector, vec, half_period, xs):
    """sum_j vec_j cos or sin((2j+1) pi x / T) at points xs, by a dense
    cos/sin matrix."""
    j = np.arange(len(vec))
    phase = np.outer(xs, (2 * j + 1) * np.pi / half_period)
    basis = np.cos(phase) if sector == "even" else np.sin(phase)
    return basis @ vec


def direct_analysis(values, k):
    """Naive DFT projection onto bins k (values on the uniform 2T grid)."""
    n = len(values)
    j = np.arange(n)
    out = np.zeros(len(k), dtype=complex)
    for i, kk in enumerate(k):
        out[i] = np.sum(values * np.exp(-2j * np.pi * kk * j / n)) / n
    return out


# --- Jacobi elliptic closed forms (classical dispersion alpha = 2, sigma = 1).
#
# Defocusing: phi'' = omega phi + phi^3 is solved by the snoidal wave
# A sn(B x; m) with A^2 = 2 m B^2, omega = -(1 + m) B^2; the antiperiod in
# the argument is 2K(m), so B = 2K(m)/T.  The even representative uses
# sn(u + K) = cd(u).  Focusing: phi'' = omega phi - phi^3 is solved by
# A cn(B x; m) with A^2 = 2 m B^2, omega = (2m - 1) B^2.


def snoidal_params(m, half_period):
    big_k = ellipk(m)
    b = 2.0 * big_k / half_period
    a = np.sqrt(2.0 * m) * b
    omega = -(1.0 + m) * b * b
    return a, b, omega


def cnoidal_params(m, half_period):
    big_k = ellipk(m)
    b = 2.0 * big_k / half_period
    a = np.sqrt(2.0 * m) * b
    omega = (2.0 * m - 1.0) * b * b
    return a, b, omega


def snoidal_values(x, m, half_period):
    """Even snoidal profile A cd(B x; m): maximum A at x = 0."""
    a, b, _ = snoidal_params(m, half_period)
    sn, cn, dn, _ = ellipj(b * np.asarray(x, dtype=float), m)
    return a * cn / dn


def cnoidal_values(x, m, half_period):
    a, b, _ = cnoidal_params(m, half_period)
    _, cn, _, _ = ellipj(b * np.asarray(x, dtype=float), m)
    return a * cn


def elliptic_field(kind, m, half_period, n_modes):
    """Sample the closed form and project to the odd band (tail is tiny)."""
    n = 8 * n_modes
    x = 2.0 * half_period * np.arange(n) / n
    vals = snoidal_values(x, m, half_period) if kind == "sn" else \
        cnoidal_values(x, m, half_period)
    g = GridSamples(half_period, vals.astype(complex))
    return to_modes(g, n_modes, tol=1e-8)


def snoidal_charge(m, half_period):
    """Q of the snoidal profile by adaptive quadrature (no Parseval)."""
    val, err = quad(lambda x: snoidal_values(x, m, half_period) ** 2,
                    0.0, half_period, limit=400, epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-10
    return 0.5 * val


def cnoidal_potential(m, half_period, sigma=1.0):
    val, err = quad(lambda x: np.abs(cnoidal_values(x, m, half_period)) ** (2 * sigma + 2),
                    0.0, half_period, limit=400, epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-10
    return val / (2.0 * sigma + 2.0)


# --- finite-difference discretization of -d^2/dx^2 + V with antiperiodic
# boundary conditions on [0, T): the wrap-around entries flip sign.


def fd_operator_antiperiodic(v_samples, half_period):
    n = len(v_samples)
    h = half_period / n
    main = 2.0 / h ** 2 + np.asarray(v_samples, dtype=float)
    mat = np.diag(main)
    off = -1.0 / h ** 2
    idx = np.arange(n - 1)
    mat[idx, idx + 1] = off
    mat[idx + 1, idx] = off
    mat[0, n - 1] = -off   # antiperiodic wrap: u(-h) = -u(T - h)
    mat[n - 1, 0] = -off
    return mat


def fd_lowest_eigs(v_func, half_period, n, k=10):
    """Lowest k eigenvalues, Richardson-extrapolated from grids n and 2n."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    def eigs(nn):
        x = half_period * (np.arange(nn) + 0.5) / nn
        mat = sp.csc_matrix(fd_operator_antiperiodic(v_func(x), half_period))
        vals = spla.eigsh(mat, k=k, sigma=0.0, which="LM",
                          return_eigenvectors=False)
        return np.sort(vals)

    lam_h = eigs(n)
    lam_h2 = eigs(2 * n)
    return (4.0 * lam_h2 - lam_h) / 3.0


# --- lattice-sum heat kernels on the 2T torus.


def gaussian_lattice_kernel(x, t, half_period, n_images=60):
    """Periodization of the Gauss-Weierstrass kernel (alpha = 2)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for n in range(-n_images, n_images + 1):
        out += np.exp(-(x + 2.0 * half_period * n) ** 2 / (4.0 * t))
    return out / np.sqrt(4.0 * np.pi * t)


def poisson_lattice_kernel(x, t, half_period, n_images=2000):
    """Periodization of the Poisson kernel (alpha = 1).

    The images decay only like 1/n^2, so the truncated sum is completed
    with the midpoint-rule integral of the tail; the leftover error is
    O(f''(n0)) ~ 1e-12 for n0 = 2000.
    """
    x = np.asarray(x, dtype=float)
    ell = 2.0 * half_period
    out = np.zeros_like(x)
    for n in range(-n_images, n_images + 1):
        s = x + ell * n
        out += t / (t * t + s * s)
    # tail: sum_{n > n0} f(n) + f(-n) with f(n) = t / (t^2 + (x + ell n)^2)
    edge = n_images + 0.5
    out += (np.pi / 2 - np.arctan((x + ell * edge) / t)) / ell
    out += (np.pi / 2 + np.arctan((x - ell * edge) / t)) / ell
    return out / np.pi


def poisson_closed_form(x, t, half_period):
    """Same periodization summed exactly: cross-check for the lattice sum."""
    x = np.asarray(x, dtype=float)
    ell = 2.0 * half_period
    a = 2.0 * np.pi * t / ell
    return (1.0 / ell) * np.sinh(a) / (np.cosh(a) - np.cos(2.0 * np.pi * x / ell))


# --- brute-force functional evaluations on fine grids.


def brute_charge(field, n=16384):
    """Q by trapezoid on a fine grid using direct synthesis."""
    vals = direct_synthesis(field.wavenumbers, field.coeff, field.half_period, n)
    dx = 2.0 * field.half_period / n
    return 0.25 * float(np.sum(np.abs(vals) ** 2)) * dx  # half of the 2T integral, halved again


def finite_difference_directional(func, u, v, h):
    """Central difference (func(u + h v) - func(u - h v)) / 2h on fields."""
    return (func(u + h * v) - func(u + (-h) * v)) / (2.0 * h)


def strang_reference(coeff, k, half_period, params, omega, dt, steps,
                     log_interval, n):
    """Final coefficients of one Strang split-step trajectory, stepped one
    substep at a time: every linear substep projects the samples onto the
    band (FFT bins k mod n), multiplies by exp(-i (|pi k/T|^alpha + omega) dt)
    and synthesizes again; half-kicks open and close each block of
    log_interval steps, full kicks join the steps inside it."""
    bins = k % n
    sym = np.abs(np.pi * k / half_period) ** params.alpha
    lin = np.exp(-1j * (sym + omega) * dt)
    rate = params.gamma * dt

    def synthesize(c):
        spec = np.zeros(n, dtype=complex)
        spec[bins] = c
        return np.fft.ifft(spec) * n

    def analyze(values):
        return np.fft.fft(values)[bins] / n

    def kick(values, fraction):
        return values * np.exp((1j * rate * fraction)
                               * np.abs(values) ** (2.0 * params.sigma))

    c = np.asarray(coeff, dtype=complex)
    done = 0
    while done < steps:
        m = min(log_interval, steps - done)
        values = kick(synthesize(c), 0.5)
        for i in range(m):
            values = kick(synthesize(analyze(values) * lin),
                          1.0 if i < m - 1 else 0.5)
        c = analyze(values)
        done += m
    return c
