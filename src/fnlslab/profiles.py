"""Traveling/standing wave profiles by constrained minimization.

Defocusing branch: minimize H + c N over the fixed-charge sphere
{Q = mu}, |c| < (pi/T)^(alpha-1).  Focusing branch: minimize K + omega Q
over {P = p0}, |omega| < (pi/T)^alpha, then rescale the minimizer by
|eta|^(1/(2 sigma)) (eta < 0 the constraint multiplier) so that it
solves the unit-coefficient profile equation

    Lambda^alpha phi + omega phi + i c phi' - gamma |phi|^(2 sigma) phi = 0.

The solver runs projected Barzilai-Borwein descent (gradient
preconditioned by (1 + Lambda^alpha)^(-1), renormalized onto the
constraint after every step) into the basin of a Newton polish on the
Euler-Lagrange system.  Residuals are reported as the infinity norm of
the full profile equation sampled on a refinement of the working grid,
so nonlinearity truncation shows up honestly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (GaugeAmbiguity, NonConvergence, OmegaOutOfRange,
                     SpeedOutOfRange, UnderResolved, ValidationError)
from .fields import (AntiperiodicField, analyze, cosine_field, lift,
                     odd_wavenumbers, real_projection, sector_matrix, synthesize,
                     to_grid, toeplitz_plus_hankel, zero_field)
from .functionals import (_default_grid, _potential_sum, _residual_grid, charge,
                          kinetic, momentum, moving_frame_energy, potential,
                          quadratic_energy)
from .params import MAX_ITER, TOL_PROFILE, ProblemParams

_NEWTON_GATE = 1e-5     # relative projected-gradient size that hands off to Newton
_NEWTON_STEPS = 60      # cap on Newton polish steps


@dataclass(frozen=True)
class StandingProfile:
    """A converged profile together with its run record.

    `mu` is the charge Q and `p0` the potential P of the stored field;
    `objective` is the attained constrained objective (H + cN at fixed Q
    on the defocusing branch, K + omega Q at fixed P on the focusing
    branch) kept so that independent runs can flag branch ambiguity.
    """

    params: ProblemParams
    field: AntiperiodicField
    omega: float
    c: float
    mu: float
    p0: float
    residual: float
    iterations: int
    objective: float


@dataclass(frozen=True)
class Sweep:
    profiles: list
    failed_at: float | None


def recovered_omega(field: AntiperiodicField, c: float, params: ProblemParams) -> float:
    """Frequency consistent with the profile equation, recovered by pairing
    the equation with the field: omega = -(2K + 2cN - gamma(2s+2)P) / (2Q)."""
    q = charge(field)
    if q <= 0:
        raise ValidationError("cannot recover omega from the zero field")
    k = kinetic(field, params.alpha)
    n = momentum(field)
    p = potential(field, params.sigma)
    return -(2.0 * k + 2.0 * c * n - params.gamma * (2.0 * params.sigma + 2.0) * p) / (2.0 * q)


def profile_residual(field: AntiperiodicField, omega: float, c: float,
                     params: ProblemParams) -> float:
    """Infinity norm of Lambda^alpha phi + omega phi + i c phi' - gamma
    |phi|^(2s) phi on the residual grid, the nonlinearity sampled pointwise."""
    n_fine = _residual_grid(field, params.sigma)
    T = field.half_period
    k = field.wavenumbers
    w = np.pi * k / T
    lin_coeff = (np.abs(w) ** params.alpha + omega + 1j * c * (1j * w)) * field.coeff
    lin = to_grid(field.with_coeff(lin_coeff), n_fine).values
    vals = to_grid(field, n_fine).values
    nl = np.abs(vals) ** (2.0 * params.sigma) * vals
    return float(np.max(np.abs(lin - params.gamma * nl)))


# --- low-level mode/grid workspace -----------------------------------------

class _Workspace:
    """Precomputed lattice data for one (params, M, N) combination, built
    by each solve and each tangent for its band."""

    def __init__(self, params: ProblemParams, n_modes: int):
        self.params = params
        self.T = params.half_period
        self.M = n_modes
        k = odd_wavenumbers(n_modes)
        self.w = np.pi * k / self.T
        self.lam = np.abs(self.w) ** params.alpha
        self.N = _default_grid(zero_field(self.T, n_modes), params.sigma)
        self.bins = k % self.N

    def nonlinear(self, coeff: np.ndarray) -> np.ndarray:
        v = synthesize(coeff, self.bins, self.N)
        return analyze(np.abs(v) ** (2.0 * self.params.sigma) * v, self.bins, self.N)

    def field(self, coeff: np.ndarray) -> AntiperiodicField:
        return AntiperiodicField(self.T, coeff)

    def charge(self, coeff) -> float:
        return 0.5 * self.T * float(np.sum(np.abs(coeff) ** 2))

    def inner(self, a, b) -> float:
        return float(np.real(self.T * np.sum(a * np.conj(b))))


def _bb_descent(ws: _Workspace, u: np.ndarray, grad_fn, project_fn, renorm_fn):
    """Projected, preconditioned Barzilai-Borwein descent to the Newton gate.

    The iterates are projected onto the real-field cone every step.  The
    real restriction is structural, not cosmetic: in the full complex
    class the fixed-charge energy descends past the real branch toward
    the constant-modulus single-mode wave (which minimizes kinetic and
    potential terms simultaneously), and roundoff-seeded imaginary noise
    grows exponentially along that direction.  The branch all downstream
    theory lives on is the real one.

    Returns (u, iterations); iterations == MAX_ITER means the gate was
    not reached."""
    pre = 1.0 / (1.0 + ws.lam)
    u = renorm_fn(real_projection(u))
    step = 0.2
    u_prev = None
    d_prev = None
    for it in range(MAX_ITER):
        g = grad_fn(u)
        gt = project_fn(g, u)
        scale = max(float(np.linalg.norm(u)), 1e-30)
        if np.linalg.norm(gt) / scale < _NEWTON_GATE:
            return u, it
        d = project_fn(pre * gt, u)
        if u_prev is not None:
            du = u - u_prev
            dd = d - d_prev
            denom = ws.inner(du, dd)
            if abs(denom) > 1e-300:
                step = abs(ws.inner(du, du) / denom)
            step = min(max(step, 1e-4), 1e3)
        u_prev, d_prev = u, d
        u = renorm_fn(real_projection(u - step * d))
    return u, MAX_ITER


def _even_cos_coeffs(ws: _Workspace, coeff: np.ndarray) -> np.ndarray:
    """cos((2j+1) pi x / T) coefficients of a real even field."""
    pos = coeff[ws.M:]
    return 2.0 * np.real(pos)


def _coeff_from_even_cos(ws: _Workspace, a: np.ndarray) -> np.ndarray:
    c = np.concatenate([a[::-1], a]) / 2.0
    return c.astype(np.complex128)


def _damped_newton(x, omega, residual, step):
    """Damped Newton iteration on the unknowns (x, omega).

    `residual(x, omega)` is the residual vector and `step(x, omega, r)`
    the full Newton update (dx, domega) at residual r.  Stops once
    ||r|| < 1e-13 max(1, ||x||); each step is halved up to 12 times
    until ||r|| drops, and if no halving helps the current iterate is
    returned (the caller verifies the residual).  Returns
    (x, omega, n_steps).
    """
    r = residual(x, omega)
    for it in range(_NEWTON_STEPS):
        norm_r = np.linalg.norm(r)
        if norm_r < 1e-13 * max(1.0, np.linalg.norm(x)):
            return x, omega, it
        dx, domega = step(x, omega, r)
        scale = 1.0
        for _ in range(12):
            x_new = x + scale * dx
            om_new = omega + scale * domega
            r_new = residual(x_new, om_new)
            if np.linalg.norm(r_new) < norm_r:
                x, omega, r = x_new, om_new, r_new
                break
            scale *= 0.5
        else:
            return x, omega, it
    return x, omega, _NEWTON_STEPS


def _newton_solve(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """np.linalg.solve, a singular system raised as NonConvergence."""
    try:
        return np.linalg.solve(jac, rhs)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"singular Newton system: {exc}") from exc


def _even_jacobian(ws: _Workspace, a: np.ndarray, omega: float) -> np.ndarray:
    """The M-square Jacobian in the cosine coefficients a of the real even
    residual: the even-sector matrix of L_plus at the field of a."""
    vals = synthesize(_coeff_from_even_cos(ws, a), ws.bins, ws.N)
    sig = ws.params.sigma
    return sector_matrix(-ws.params.gamma * (2.0 * sig + 1.0) * np.abs(vals) ** (2.0 * sig),
                         ws.params.alpha, ws.T, omega, "even", ws.M)


def _newton_real_even(ws: _Workspace, a: np.ndarray, omega: float,
                      mu: float | None):
    """Newton polish on the real even branch: a solve of the cosine system.

    With `mu` given (defocusing) omega is an unknown and the charge
    constraint closes the system; otherwise omega is held fixed
    (focusing).  Returns (a, omega, n_steps) or raises NonConvergence.
    """
    gamma = ws.params.gamma
    lam_e = ws.lam[ws.M:]

    def residual(a, omega):
        coeff = _coeff_from_even_cos(ws, a)
        nl = ws.nonlinear(coeff)
        r = lam_e * a + omega * a - gamma * _even_cos_coeffs(ws, nl)
        if mu is not None:
            r = np.append(r, 0.25 * ws.T * np.sum(a * a) - mu)
        return r

    def step(a, omega, r):
        jac = _even_jacobian(ws, a, omega)
        if mu is not None:
            jac = np.block([[jac, a[:, None]],
                            [0.5 * ws.T * a[None, :], np.zeros((1, 1))]])
        delta = _newton_solve(jac, -r)
        return delta[: ws.M], (delta[ws.M] if mu is not None else 0.0)

    return _damped_newton(a, omega, residual, step)


def _bordered_jacobian(ws: _Workspace, coeff: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """The (4M+3)-square Newton matrix of the complex branch at coefficients u.

    Rows and columns 0..4M are the Jacobian of (Re, Im) of diag u - gamma
    analyze(|v|^(2s) v) and of the charge in (Re u, Im u, omega).  With
    W1 = fft((s+1)|v|^(2s))/N and W2 = fft(s|v|^(2s) v^2/|v|^2)/N, the
    column of Re u_l is W1[k-l] + W2[k+l] and of Im u_l i (W1[k-l] - W2[k+l]):
    Toeplitz and Hankel blocks of one line of even bins.  The last two rows
    and columns border it with the unit vectors along i u and i w u, the
    phase and translation directions its kernel comes from.
    """
    sig = ws.params.sigma
    nm = 2 * ws.M
    vals = synthesize(coeff, ws.bins, ws.N)
    mod2 = np.abs(vals) ** 2
    pw = np.abs(vals) ** (2.0 * sig)
    phase2 = np.divide(vals * vals, mod2, out=np.zeros_like(vals), where=mod2 > 1e-300)
    lines = -ws.params.gamma * analyze(np.stack([(sig + 1.0) * pw, sig * pw * phase2], axis=1),
                                       2 * np.arange(1 - nm, nm) % ws.N, ws.N)
    re_cols, im_cols = (toeplitz_plus_hankel(lines[::-1, 0], lines[:, 1], sign)
                        for sign in (1.0, -1.0))  # im_cols: the Im u columns / i
    for blk in (re_cols, im_cols):
        blk.ravel()[:: nm + 1] += diag  # the real diagonal, in place
    jac = np.zeros((2 * nm + 3, 2 * nm + 3))
    jac[:nm, :nm], jac[nm: 2 * nm, :nm] = re_cols.real, re_cols.imag
    jac[:nm, nm: 2 * nm], jac[nm: 2 * nm, nm: 2 * nm] = -im_cols.imag, im_cols.real
    ri = np.concatenate([coeff.real, coeff.imag])
    jac[: 2 * nm, 2 * nm], jac[2 * nm, : 2 * nm] = ri, ws.T * ri
    for j, d in enumerate((coeff, ws.w * coeff), 2 * nm + 1):
        jac[: 2 * nm, j] = jac[j, : 2 * nm] = np.concatenate([-d.imag, d.real]) / np.linalg.norm(d)
    return jac


def _newton_complex(ws: _Workspace, coeff: np.ndarray, omega: float, c: float,
                    mu: float):
    """Bordered Newton for the complex traveling branch.

    The Jacobian is singular along the phase and translation orbit; its
    border (see _bordered_jacobian) makes the system square and regular,
    and no step moves along the orbit.
    """
    gamma = ws.params.gamma
    nm = 2 * ws.M
    lin = ws.lam - c * ws.w  # the real diagonal of Lambda^alpha + i c d/dx

    def residual(coeff, omega):
        r = (lin + omega) * coeff - gamma * ws.nonlinear(coeff)
        return np.concatenate([np.real(r), np.imag(r),
                               [ws.charge(coeff) - mu]])

    def step(coeff, omega, r):
        delta = _newton_solve(_bordered_jacobian(ws, coeff, lin + omega),
                              -np.append(r, [0.0, 0.0]))
        return delta[:nm] + 1j * delta[nm: 2 * nm], delta[2 * nm]

    return _damped_newton(coeff, omega, residual, step)


def _refine_peak(f: AntiperiodicField, x: float, dx: float,
                 flat: float) -> float | None:
    """Location of the maximum of |f|^2 near the scan maximum x, by Newton
    on d|f|^2/dx with steps clipped to the scan spacing dx.

    Locating the peak through function values alone stalls at sqrt(eps);
    the derivative root is conditioned like eps itself.  Returns None
    where the curvature of |f|^2 is not below -flat: the peak is too flat
    to locate.
    """
    k = f.wavenumbers
    w = 1j * np.pi * k / f.half_period
    coeffs = (f.coeff, w * f.coeff, w * w * f.coeff)
    for _ in range(50):
        # the mode sum of `evaluate`, with the phases shared by f, f', f''
        phase = np.exp(1j * np.pi * np.outer([x], k) / f.half_period)
        v, v1, v2 = ((phase @ c)[0] for c in coeffs)
        hp = 2.0 * np.real(np.conj(v) * v1)
        hpp = 2.0 * np.real(np.conj(v) * v2) + 2.0 * abs(v1) ** 2
        if not hpp < -flat:
            return None
        step = -hp / hpp
        x += float(np.clip(step, -dx, dx))
        if abs(step) < 1e-15 * f.half_period:
            break
    return x


def _modulus_argmax(f: AntiperiodicField) -> float:
    """Location of max |f| on [0, T): grid scan, then Newton refinement."""
    n = max(64, 8 * f.n_modes)
    g = to_grid(f, n)
    h = np.abs(g.values) ** 2
    x0 = float(g.x[int(np.argmax(h))])
    flat = 1e-8 * float(np.max(h)) * (np.pi / f.half_period) ** 2
    x = _refine_peak(f, x0, 2.0 * f.half_period / n, flat)
    if x is None:
        raise GaugeAmbiguity("flat modulus peak: translation gauge undefined")
    return x % f.half_period


def solve_defocusing(params: ProblemParams, c: float = 0.0, mu: float = 1.0,
                     n_modes: int = 64, tol: float = TOL_PROFILE,
                     init: AntiperiodicField | None = None) -> StandingProfile:
    """Profile on the real-standing-wave branch at fixed charge Q = mu.

    At c = 0 this is the constrained minimizer of H over real
    antiperiodic fields (equivalently of H at fixed Q under the extra
    zero-momentum constraint): real, even, and decreasing away from its
    peak.  Over the full complex class the fixed-charge infimum of
    H + cN is attained at the constant-modulus single-mode wave instead,
    a degenerate object with no translation gauge and a c-independent
    momentum; the solver deliberately stays on the real branch, which is
    the one with a nondegenerate linearization.  For c != 0 the branch is
    continued out of `init`, else c = 0, by Newton iteration (no descent
    phase, which would slide off the branch); intended for small |c|.
    """
    if params.gamma != -1:
        raise ValidationError("defocusing branch requires gamma = -1")
    if not mu > 0:
        raise ValidationError(f"charge constraint must be positive, got {mu}")
    if not abs(c) < params.speed_limit:
        raise SpeedOutOfRange(
            f"|c| = {abs(c)} outside the admissible window (0, {params.speed_limit})")
    ws = _Workspace(params, n_modes)

    def renorm(u):
        q = ws.charge(u)
        if q <= 0:
            raise NonConvergence("charge collapsed during descent")
        return u * math.sqrt(mu / q)

    if abs(c) < 1e-14:
        if init is not None:
            u = lift(init, n_modes).coeff
        else:
            amp = 2.0 * math.sqrt(mu / params.half_period)
            u = cosine_field(params.half_period, amp, n_modes).coeff

        def grad(u):
            return ws.lam * u - params.gamma * ws.nonlinear(u)

        def project(g, u):
            return g - (ws.inner(g, u) / (2.0 * mu)) * u

        u, it_bb = _bb_descent(ws, u, grad, project, renorm)
        omega = recovered_omega(ws.field(u), 0.0, params)
        a = _gauged_cos_coeffs(ws, u)
        a, omega, it_newton = _newton_real_even(ws, a, omega, mu)
        u = _coeff_from_even_cos(ws, a)
    else:
        it_bb = 0
        if init is not None:
            u = renorm(lift(init, n_modes).coeff)
        else:
            base = solve_defocusing(params, 0.0, mu, n_modes, tol)
            it_bb = base.iterations
            u = base.field.coeff
        omega = recovered_omega(ws.field(u), c, params)
        u, omega, it_newton = _newton_complex(ws, u, omega, c, mu)

    return _profile(ws, u, omega, c, it_bb + it_newton, tol,
                    lambda f: moving_frame_energy(f, c, params))


def solve_focusing(params: ProblemParams, omega: float, p0: float = 1.0,
                   n_modes: int = 64, tol: float = TOL_PROFILE,
                   init: AntiperiodicField | None = None) -> StandingProfile:
    """Minimizer of K + omega Q on {P = p0}, from `init` or a cosine,
    rescaled onto the profile equation with unit nonlinearity coefficient."""
    if params.gamma != 1:
        raise ValidationError("focusing branch requires gamma = +1")
    if not p0 > 0:
        raise ValidationError(f"potential constraint must be positive, got {p0}")
    if not abs(omega) < params.frequency_limit:
        raise OmegaOutOfRange(
            f"|omega| = {abs(omega)} outside (0, {params.frequency_limit})")
    ws = _Workspace(params, n_modes)
    sig = params.sigma

    if init is not None:
        u = lift(init, n_modes).coeff
    else:
        u = cosine_field(params.half_period, 1.0, n_modes).coeff

    def renorm(u):
        p = _potential_sum(synthesize(u, ws.bins, ws.N), ws.T, sig)
        if p <= 0:
            raise NonConvergence("potential collapsed during descent")
        return u * (p0 / p) ** (1.0 / (2.0 * sig + 2.0))

    def grad(u):
        return (ws.lam + omega) * u

    def project(g, u):
        n = ws.nonlinear(u)
        denom = ws.inner(n, n)
        return g - (ws.inner(g, n) / denom) * n

    u, it_bb = _bb_descent(ws, u, grad, project, renorm)

    r_omega = quadratic_energy(ws.field(u), omega, params.alpha)
    # negative: |omega| below the frequency limit makes r_omega positive
    eta = -r_omega / ((sig + 1.0) * p0)
    u = u * abs(eta) ** (1.0 / (2.0 * sig))

    a = _gauged_cos_coeffs(ws, u)
    a, omega, it_newton = _newton_real_even(ws, a, omega, None)
    u = _coeff_from_even_cos(ws, a)

    return _profile(ws, u, omega, 0.0, it_bb + it_newton, tol,
                    lambda f: quadratic_energy(f, omega, params.alpha))


def _profile(ws: _Workspace, u: np.ndarray, omega: float, c: float,
             iterations: int, tol: float, objective) -> StandingProfile:
    """The StandingProfile of coefficients u, its residual sampled and
    held to tol; `objective` maps the field to the branch's objective."""
    field = ws.field(u)
    res = profile_residual(field, omega, c, ws.params)
    if res > tol:
        raise NonConvergence(
            f"profile residual {res:.3e} above tolerance {tol:.3e} "
            f"after {iterations} iterations (n_modes={ws.M})")
    return StandingProfile(ws.params, field, omega, c, charge(field),
                           potential(field, ws.params.sigma), res, iterations,
                           objective(field))


def _gauged(f: AntiperiodicField) -> AntiperiodicField:
    """Translate the modulus maximum to x = 0, rotate the global phase to
    maximize the real part, and fix the sign so the field is positive at
    the origin."""
    x0 = _modulus_argmax(f)
    coeff = f.coeff * np.exp(1j * np.pi * f.wavenumbers * x0 / f.half_period)
    big_w = np.sum(coeff * coeff[::-1])
    if abs(big_w) < 1e-12 * np.sum(np.abs(coeff) ** 2):
        raise GaugeAmbiguity("phase gauge undefined: int phi^2 vanishes")
    coeff = coeff * np.exp(-0.5j * np.angle(big_w))
    val0 = np.sum(coeff)  # field value at x = 0
    if np.real(val0) < 0.0:
        coeff = -coeff
    return f.with_coeff(coeff)


def _gauged_cos_coeffs(ws: _Workspace, coeff: np.ndarray) -> np.ndarray:
    """Even-cos coefficients of the real part of the gauged field."""
    return _even_cos_coeffs(ws, real_projection(_gauged(ws.field(coeff)).coeff))


def gauge_fix(p: StandingProfile) -> StandingProfile:
    """Normalize the free symmetries of the profile (see _gauged)."""
    return replace(p, field=_gauged(p.field))


def continue_in(start: StandingProfile, parameter: str, target: float,
                steps: int, tol: float = TOL_PROFILE) -> Sweep:
    """Warm-started parameter sweep from `start` to `target`.

    Each step is a solve_defocusing or solve_focusing call from the
    previous field.  On NonConvergence the sweep stops and returns the
    partial result with `failed_at` set; converged profiles are kept.
    """
    params = start.params
    _check_parameter(params, parameter)
    if steps < 1:
        raise ValidationError("sweep needs at least one step")
    profiles = [start]
    prev = start
    for v in np.linspace(getattr(start, parameter), target, steps + 1)[1:]:
        try:
            if params.gamma == -1:
                c = v if parameter == "c" else prev.c
                mu = v if parameter == "mu" else prev.mu
                prof = solve_defocusing(params, c, mu, start.field.n_modes, tol, prev.field)
            else:
                prof = solve_focusing(params, v, prev.p0, start.field.n_modes, tol, prev.field)
        except NonConvergence:
            return Sweep(profiles, float(v))
        profiles.append(prof)
        prev = prof
    return Sweep(profiles, None)


def _check_parameter(params: ProblemParams, parameter: str) -> None:
    allowed = {"c", "mu"} if params.gamma == -1 else {"omega"}
    if parameter not in allowed:
        raise ValidationError(
            f"parameter {parameter!r} not available on this branch; use {sorted(allowed)}")


def family_tangent(profile: StandingProfile, parameter: str) -> dict:
    """Derivatives of the field, omega, Q and N along the profile's family in
    c or mu (defocusing) or omega (focusing), by the implicit function
    theorem: one solve with the Newton matrix at the profile.  For c and mu
    it is the bordered Jacobian (the tangent stays off the symmetry orbit)
    with the unit charge row or (Re w u, Im w u) as right side; for omega
    the real even step's matrix with right side -a.  A profile above
    TOL_PROFILE is UnderResolved: its band does not resolve the family."""
    params = profile.params
    _check_parameter(params, parameter)
    if profile.residual > TOL_PROFILE:
        raise UnderResolved(
            f"tangent along {parameter}: the profile's residual "
            f"{profile.residual:.3e} is above TOL_PROFILE = {TOL_PROFILE:.0e} "
            f"at n_modes = {profile.field.n_modes}")
    ws = _Workspace(params, profile.field.n_modes)
    u = profile.field.coeff
    nm = 2 * ws.M
    if params.gamma == 1:
        a = _even_cos_coeffs(ws, u)
        du = _coeff_from_even_cos(ws, _newton_solve(_even_jacobian(ws, a, profile.omega), -a))
        domega = 1.0
    else:
        rhs = np.zeros(2 * nm + 3)
        if parameter == "mu":
            rhs[2 * nm] = 1.0
        else:
            rhs[: 2 * nm] = np.concatenate([(ws.w * u).real, (ws.w * u).imag])
        jac = _bordered_jacobian(ws, u, ws.lam - profile.c * ws.w + profile.omega)
        delta = _newton_solve(jac, rhs)
        du, domega = delta[:nm] + 1j * delta[nm: 2 * nm], float(delta[2 * nm])
    dot = np.real(np.conj(u) * du)
    return {"field": ws.field(du), "omega": domega,
            "charge": ws.T * float(np.sum(dot)),
            "momentum": -np.pi * float(np.sum(profile.field.wavenumbers * dot))}
