"""Independent numerical oracles used to pin expected values.

Everything here deliberately avoids the package's FFT/solver paths:
direct O(N M) summation for transforms, Jacobi elliptic closed forms for
the classical-dispersion profiles, finite differences for operators, and
truncated lattice sums for heat kernels.  The Gaussian lattice sum is
the benchmark's own (bench/reference.py, imported by path, read-only).
The exceptions are the route references at the end (Strang steps,
rearrangement trials, the kernels command, sector matrices, kernel pair
certificates, family slopes), which replay a computation one substep or one field at a
time, or as an older route did, to pin the bits of the package's routes.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.integrate import quad
from scipy.special import ellipj, ellipk

from fnlslab import kernels, profiles, spectrum
from fnlslab.errors import PositivityViolation, ValidationError
from fnlslab.functionals import charge, momentum
from fnlslab.fields import (GridSamples, _blocks, analyze,
                            antiperiodic_defects, lift, odd_wavenumbers,
                            random_field, real_part, synthesize, to_grid,
                            to_modes, toeplitz_plus_hankel)


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


def conjugate_field(f):
    """Pointwise complex conjugate: coefficients conjugate and k flips."""
    return f.with_coeff(np.conj(f.coeff[::-1]))


def boost(f, m):
    """f times exp(i 2 pi m x / T): the antiperiodic lattice of Galilean
    phases, shifting every wavenumber by 2m."""
    if m == 0:
        return f
    g = lift(f, f.n_modes + abs(m))
    coeff = np.roll(g.coeff, m)
    if m > 0:
        coeff[:m] = 0.0
    else:
        coeff[m:] = 0.0
    return g.with_coeff(coeff)


def lift_by_search(f, n_modes):
    """Coefficients of lift(f, n_modes), each amplitude placed at its
    wavenumber by search in the wide band, as for any odd band."""
    k = odd_wavenumbers(n_modes)
    c = np.zeros(len(k), dtype=np.complex128)
    idx = np.searchsorted(k, f.wavenumbers)
    c[idx] = f.coeff
    return c


def cosine_by_search(amplitude, n_modes):
    """Coefficients of cosine_field(T, amplitude, n_modes), the two
    amplitudes placed at k = 1 and -1 by search in the band."""
    k = odd_wavenumbers(n_modes)
    c = np.zeros(len(k), dtype=np.complex128)
    c[np.searchsorted(k, [1, -1])] = amplitude / 2.0
    return c


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


def _bench_reference():
    """bench/reference.py, loaded by path without touching bench/."""
    path = Path(__file__).resolve().parents[1] / "bench" / "reference.py"
    spec = importlib.util.spec_from_file_location("bench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Periodization of the Gauss-Weierstrass kernel (alpha = 2).
gaussian_lattice_kernel = _bench_reference().gaussian_lattice_kernel


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


# --- structured matrices gathered through dense index grids.


def cosine_block_dense(w, size, sign):
    """0.5 (w_|j-l| + sign w_{j+l+1}) for j, l < size: the sector potential
    block from its cosine line w (length 2 size), one gather per part."""
    j = np.arange(size)
    toeplitz = w[np.abs(j[:, None] - j[None, :])]
    hankel = w[j[:, None] + j[None, :] + 1]
    return 0.5 * (toeplitz + sign * hankel)


def second_variation_reference(profile, v, n):
    """second_variation_form with the potential term summed over direct
    mode-sum samples on n points, alias-free once n > (2 sigma + 2) max|k|
    for integer sigma.  Returns (form, potential term)."""
    p = profile.params
    T = v.half_period
    w = np.abs(np.pi * v.wavenumbers / T) ** p.alpha
    spectral = T * float(np.sum((w + profile.omega) * np.abs(v.coeff) ** 2))
    phi = direct_synthesis(profile.field.wavenumbers, profile.field.coeff,
                           T, n).real
    vv = direct_synthesis(v.wavenumbers, v.coeff, T, n)
    weight = np.abs(phi) ** (2.0 * p.sigma)
    term = -p.gamma * 0.5 * (2.0 * T / n) * float(np.sum(
        weight * ((2.0 * p.sigma + 1.0) * vv.real**2 + vv.imag**2)))
    return spectral + term, term


# --- grid sizing as two separate rules, before the one alias-free rule of
# functionals._power_band: both functions verbatim, to pin every site's n.

_SHARED_QUAD = 1024


def _default_grid(u, sigma: float) -> int:
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


def _quadrature_size(field, sigma: float, size: int) -> int:
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


def pair_tensor_dense(off, parity):
    """K_a(x - y) +/- K_a(x + y) on the interior offsets of (-T/2, T/2)
    (even) or (0, T) (odd), from the modular offset line off[m] =
    K_a(2T m / N).  Returns (tensor, offsets): entry (i, j) sits at
    x = offsets[i] step, y = offsets[j] step."""
    n = len(off)
    idx = np.arange(-n // 4 + 1, n // 4) if parity == "even" else np.arange(1, n // 2)
    diff = (idx[:, None] - idx[None, :]) % n
    summ = (idx[:, None] + idx[None, :]) % n
    if parity == "even":
        return off[diff] + off[summ], idx
    return off[diff] - off[summ], idx


def strang_reference(coeff, k, bins, n, half_period, params, omega, dt,
                     steps, log_interval):
    """Final coefficients of one Strang split-step trajectory, stepped one
    substep at a time on the n-point grid with c_k at FFT bins `bins`
    (k mod n on the full 2T grid, (k - 1)/2 mod n on the grid folded to
    its first half): every linear substep projects the samples onto the
    band, multiplies by exp(-i (|pi k/T|^alpha + omega) dt) and
    synthesizes again; half-kicks open and close each block of
    log_interval steps, full kicks join the steps inside it."""
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


# --- rearrangement trials one field at a time: the route the rearrange
# command took before its trials ran in blocks, kept as the reference
# for the block route.  Public package calls only, and the star placement
# written out: a stable descending sort, then the rank gather.


def star_reference(vals):
    """Star rearrangement of one real sample vector."""
    n = len(vals)
    idx = np.arange(n)
    m = np.minimum(idx, n - idx)
    ranks = np.where(idx <= n // 2, 2 * m - 1, 2 * m)
    ranks[0] = 0
    return vals[np.argsort(-vals, kind="stable")][ranks]


def hash_reference(vals):
    return np.roll(star_reference(vals), len(vals) // 4)


def polya_szego_reference(f, alpha, n):
    """The Polya-Szego report of one real field."""
    from fnlslab.functionals import kinetic, x_norm

    kin = kinetic(f, alpha)
    vals = to_grid(f, n).values.real.copy()
    star = GridSamples(f.half_period, star_reference(vals))
    hsh = GridSamples(f.half_period, hash_reference(vals))
    kin_star = kinetic(to_modes(star), alpha)
    kin_hash = kinetic(to_modes(hsh), alpha)
    eps = 10.0 * x_norm(f, alpha) / n
    violation = max(0.0, kin_star - kin)
    sv = star.values.real
    j = np.arange(n)
    evenness = float(np.linalg.norm(sv[(n - j) % n] - sv[j])) / (
        float(np.linalg.norm(sv)) or 1.0)
    return {
        "alpha": float(alpha), "n": int(n),
        "kinetic_original": kin, "kinetic_star": kin_star,
        "kinetic_hash": kin_hash, "star_hash_gap": abs(kin_star - kin_hash),
        "violation": violation, "eps_rearr": eps,
        "satisfied": bool(violation <= eps),
        "evenness_defect": evenness,
        "antiperiodic_defect": antiperiodic_defects(star.values[None])[0],
    }


def potential_ordering_reference(vals, half_period, trials, n_modes, seed):
    """The potential-ordering report of an even, T-periodic potential
    sampled as vals (monotone direction as the package decides it)."""
    n = len(vals)
    vmax = float(np.max(np.abs(vals))) or 1.0
    tol = 1e-10 * max(1.0, vmax)
    d = np.diff(vals[: n // 4 + 1])
    down, up = bool(np.all(d <= tol)), bool(np.all(d >= -tol))
    direction = "constant" if down and up else \
        "nonincreasing" if down else "nondecreasing"
    arrange = star_reference if direction == "nondecreasing" else hash_reference
    h = 2.0 * half_period / n
    rng = np.random.default_rng(seed)
    min_gap, budget, violations = math.inf, 0.0, 0
    for _ in range(trials):
        f = real_part(random_field(half_period, n_modes, rng))
        fg = to_grid(f, n).values.real
        fr = arrange(fg)
        gap = h * float(vals @ (fg**2 - fr**2))
        eps = 10.0 * vmax * h * float(np.sum(fg**2)) / n
        budget = max(budget, eps)
        min_gap = min(min_gap, gap)
        if gap < -eps:
            violations += 1
    return {"direction": direction, "trials": int(trials), "n": int(n),
            "min_gap": min_gap, "max_violation": max(0.0, -min_gap),
            "eps_rearr": budget, "violations": int(violations),
            "satisfied": bool(violations == 0)}


def rearrange_reference(config):
    """The rearrange command's bundle, its trials run one field at a time."""
    from fnlslab.reports import ResultBundle

    prob = config.problem
    rc = config.rearrange
    T = prob.half_period
    rng = np.random.default_rng(config.seed)
    rows = []
    violations = 0
    worst = 0.0
    for trial in range(rc["trials"]):
        f = real_part(random_field(T, rc["n_modes"], rng))
        chk = polya_szego_reference(f, prob.alpha, rc["n_grid"])
        violations += 0 if chk["satisfied"] else 1
        worst = max(worst, chk["violation"])
        rows.append((trial, chk["kinetic_original"], chk["kinetic_star"],
                     chk["violation"], chk["eps_rearr"]))
    xs = 2.0 * T * np.arange(rc["n_grid"]) / rc["n_grid"]
    ordering = potential_ordering_reference(
        np.cos(2.0 * np.pi * xs / T), T, rc["trials"], rc["n_modes"],
        config.seed)
    results = {
        "polya_szego": {"trials": rc["trials"], "violations": violations,
                        "max_violation": worst, "n": rc["n_grid"]},
        "potential_ordering": ordering,
    }
    return ResultBundle(
        config=config, results=results,
        tables={"polya_trials": (("trial", "kinetic_original",
                                  "kinetic_star", "violation", "budget"),
                                 rows)})


# --- the kernels command as it ran before kernel_ka took its K_p: the
# old kernel_ka rule verbatim, to pin every byte.


def kernel_ka_reference(alpha, half_period, t, n):
    """K_a as kernel_ka built it from parameters, with a K_p of its own."""
    kp = kernels.kernel_kp(alpha, half_period, t, n)
    ka = kp.grid - np.roll(kp.grid, n // 2)  # fl(b - a) = -fl(a - b): antiperiodic
    return kernels.KernelSamples(alpha=alpha, half_period=half_period, t=t,
                                 grid=ka, kind="Ka")


def kernels_reference(config):
    """The kernels command's bundle, each K_a synthesized apart from its K_p."""
    from fnlslab.reports import ResultBundle

    prob = config.problem
    alpha = config.kernels["alpha"]
    if alpha is None:
        alpha = prob.alpha
    T = prob.half_period
    n = config.kernels["n"]
    unit = (T / np.pi) ** alpha
    per_time = []
    rows = []
    for t_rel in config.kernels["times"]:
        t = float(t_rel) * unit
        kp = kernels.kernel_kp(alpha, T, t, n)
        ka = kernel_ka_reference(alpha, T, t, n)
        margins = kernels.positivity_report(ka)
        margins["t_relative"] = float(t_rel)
        per_time.append(margins)
        rows.extend((t, x, p, a) for x, p, a in zip(
            kp.x.tolist(), kp.grid.tolist(), ka.grid.tolist()))
    results = {"alpha": alpha, "time_unit": unit, "positivity": per_time}
    return ResultBundle(
        config=config, results=results,
        tables={"kernel_samples": (("t", "x", "kp", "ka"), rows)})


# --- sector matrices as spectrum.assemble built them before
# fields.sector_matrix: the potential block by cosine_block, then the
# diagonal added in place; both functions verbatim, to pin every byte.


def cosine_block_reference(samples, size, sign):
    n = len(samples)
    if 2 * (2 * size - 1) >= n:
        raise ValidationError("quadrature grid too small for multiplication matrix")
    w = 2.0 * np.real(analyze(samples, 2 * np.arange(2 * size), n))
    block = toeplitz_plus_hankel(np.concatenate([w[size - 1:0:-1], w[:size]]),
                                 w[1:], sign)
    return np.multiply(block, 0.5, out=block)


def assemble_reference(profile, which, sector, size):
    pars = profile.params
    n = spectrum._quadrature_size(profile.field, pars.sigma, size)
    v = spectrum._potential_samples(profile, which, n)
    lam = (np.pi * (2 * np.arange(size) + 1) / pars.half_period) ** pars.alpha
    sign = 1.0 if sector == "even" else -1.0
    mat = cosine_block_reference(v, size, sign)
    mat.ravel()[:: size + 1] += lam + profile.omega  # the diagonal, in place
    return mat


# --- the pair certificates as kernels.positivity_report scanned them in
# row tiles before it read the minima off one line: the tile scan, its
# tile builder and its tile minimum verbatim, to pin every value and
# every message.


def toeplitz_plus_hankel_rows(tline, hline, sign, rows=slice(None)):
    size = (len(tline) + 1) // 2
    hankel = sliding_window_view(hline, size)[rows]
    out = np.multiply(hankel, sign, out=np.empty(hankel.shape))
    return np.add(sliding_window_view(tline, size)[::-1][rows], out, out=out)


def _first_min(tile, start):
    j = int(np.argmin(tile))
    return tile.flat[j], start + j


def _violation(tag, x, value, extra=""):
    return PositivityViolation(
        f"{tag} at x = {x:+.6f}{extra}: value {value:.6e} is not positive "
        f"(resolution or implementation bug; the sign is provable)")


def positivity_report_reference(ka):
    if ka.kind != "Ka":
        raise ValidationError(f"positivity_report needs a Ka kernel, got {ka.kind}")
    n = ka.n
    kernels._check_grid(n)
    T = ka.half_period
    step = 2.0 * T / n
    off = kernels._offset_view(ka)

    half = np.arange(-n // 4 + 1, n // 4)        # (-T/2, T/2) interior
    vals = off[half % n]
    i_min = int(np.argmin(vals))
    if not vals[i_min] > 0.0:
        raise _violation("K_a", half[i_min] * step, float(vals[i_min]))

    ramp = off[np.arange(0, n // 2 + 1) % n]     # x from 0 to T inclusive
    drops = -np.diff(ramp)
    j_min = int(np.argmin(drops))
    if not drops[j_min] > 0.0:
        raise _violation("monotone decrease of K_a", (j_min + 1) * step,
                         float(drops[j_min]))

    # pairs over offsets lo + (0..m-1): K_a(x - y) is shared, K_a(x + y) is not
    m = n // 2 - 1
    line = np.arange(2 * m - 1)
    tline = off[(m - 1 - line) % n]
    pair_min = {}
    for tag, lo, sign in (("even", -n // 4 + 1, 1.0), ("odd", 1, -1.0)):
        hline = off[(line + 2 * lo) % n]
        found, r0 = [], 0
        for rows in _blocks(m, m):
            found.append(_first_min(toeplitz_plus_hankel_rows(
                tline, hline, sign, slice(r0, r0 + rows)), r0 * m))
            r0 += rows
        low, k = found[int(np.argmin([value for value, _ in found]))]
        pair_min[tag] = float(low)
        if not pair_min[tag] > 0.0:
            xi, yi = divmod(k, m)
            raise _violation(f"{tag} pair kernel", (lo + xi) * step,
                             pair_min[tag], extra=f", y = {(lo + yi) * step:+.6f}")

    return {
        "alpha": ka.alpha,
        "t": ka.t,
        "n": n,
        "interior_min": float(vals[i_min]),
        "decrease_min": float(drops[j_min]),
        "even_pair_min": pair_min["even"],
        "odd_pair_min": pair_min["odd"],
    }


# --- the complex Newton Jacobian as profiles._newton_complex built it
# before the Toeplitz-plus-Hankel rule: one FFT column per unit real and
# imaginary perturbation of each mode (the workspace's old unit columns),
# verbatim, to pin the new rule's values.


def complex_jacobian_reference(ws, coeff, omega, c):
    nm = 2 * ws.M
    basis = np.zeros((nm, 2 * nm), dtype=np.complex128)
    basis[:, :nm] = np.eye(nm)
    basis[:, nm:] = 1j * np.eye(nm)
    vcols = synthesize(basis, ws.bins, ws.N)
    gamma = ws.params.gamma
    sig = ws.params.sigma
    lin = ws.lam + 1j * c * 1j * ws.w  # diagonal of Lambda^alpha + i c d/dx
    vals = synthesize(coeff, ws.bins, ws.N)
    w1 = (sig + 1.0) * np.abs(vals) ** (2.0 * sig)
    mod2 = np.abs(vals) ** 2
    safe = np.where(mod2 > 1e-300, mod2, 1.0)
    w2 = sig * np.abs(vals) ** (2.0 * sig) * np.where(mod2 > 1e-300,
                                                      vals * vals / safe, 0.0)
    prod = w1[:, None] * vcols + w2[:, None] * np.conj(vcols)
    pcols = analyze(prod, ws.bins, ws.N)
    jcols = (lin + omega)[:, None] * basis - gamma * pcols
    jac = np.zeros((2 * nm + 1, 2 * nm + 1))
    jac[:nm, : 2 * nm] = np.real(jcols)
    jac[nm: 2 * nm, : 2 * nm] = np.imag(jcols)
    jac[:nm, 2 * nm] = np.real(coeff)
    jac[nm: 2 * nm, 2 * nm] = np.imag(coeff)
    jac[2 * nm, :nm] = ws.T * np.real(coeff)
    jac[2 * nm, nm: 2 * nm] = ws.T * np.imag(coeff)
    return jac


# --- family slopes by central differences -------------------------------------
# The route the family tangents replaced: the two continue_in neighbours of a
# profile at parameter -/+ h, differenced.


def family_difference(profile, parameter, h):
    """Central differences of step h of the field, omega, Q and N along the
    profile's family, over its warm-started continue_in neighbours."""
    base = getattr(profile, parameter)
    pair = []
    for target in (base - h, base + h):
        sweep = profiles.continue_in(profile, parameter, target, 1)
        assert sweep.failed_at is None, f"neighbour at {parameter} = {target}"
        pair.append(sweep.profiles[-1])
    lower, upper = pair
    return {"field": (1.0 / (2.0 * h)) * (upper.field - lower.field),
            "omega": (upper.omega - lower.omega) / (2.0 * h),
            "charge": (charge(upper.field) - charge(lower.field)) / (2.0 * h),
            "momentum": (momentum(upper.field) - momentum(lower.field)) / (2.0 * h)}
