"""Co-rotating time evolution and empirical orbital-stability runs.

In the frame rotating at the profile frequency the flow is

    i w_t = Lambda^alpha w + omega w - gamma |w|^(2 sigma) w,

so a computed standing profile is a genuine equilibrium and distance to
its group orbit measures stability directly, without phase winding.
The integrator is Strang splitting with two exact substeps: the
nonlinear part only rotates the pointwise phase (|w| is invariant), and
the linear part is a diagonal Fourier multiplier.  All error is
splitting error; charge is conserved to roundoff because both substeps
are l2 isometries.  The stepper advances a (K, B) ensemble of
coefficient columns with one FFT pair per substep, so the perturbations
of a stability experiment run together; every column is bit-identical
to a lone run, and the experiment stops at the first log block whose
drift passes its tolerance.

Orbital distance is the infimum of the energy-norm gap over phase
rotations and translations: the phase minimization is closed-form and
the translation is a spectral cross-correlation scan refined by Newton
steps on the slope of the correlation modulus.

Stability indices (dN/dc, dQ/domega, dQ/dmu) come from warm-started
continuation with central differences at two step sizes and a
Richardson agreement check; the focusing index is cross-checked against
the deflated solve of L_plus y = phi, whose pairing with phi equals
-dQ/domega.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (BlowupDetected, ConservationDriftExceeded,
                     InconsistentRange, StepTooLarge, ValidationError)
from .fields import (AntiperiodicField, analyze, evaluate, lift, random_field,
                     synthesize, to_grid, translate)
from .functionals import charge, inner, momentum, x_norm
from .params import ProblemParams
from .profiles import StandingProfile, _refine_peak, family_pair
from .spectrum import _even_coords, _kernel_scale, _odd_coords, _padded, assemble

# hard ceiling on |u| during focusing runs, relative to the initial peak
GUARD_FACTOR = 1e3
# conserved-quantity drift beyond this flags the run
TOL_CONS = 1e-8


@dataclass(frozen=True)
class EvolutionState:
    """Field snapshot plus the conserved-quantity history of its run.

    conserved_log rows are (time, hamiltonian, charge, momentum); the
    run is flagged when any relative drift exceeded the tolerance it
    was evolved under.
    """

    field: AntiperiodicField
    time: float
    dt: float
    conserved_log: np.ndarray
    flagged: bool = False

    def __post_init__(self):
        log = np.atleast_2d(np.asarray(self.conserved_log, dtype=float))
        if log.size == 0:
            log = np.zeros((0, 4))
        if log.shape[1] != 4:
            raise ValidationError("conserved_log rows are (t, H, Q, N)")
        log.setflags(write=False)
        object.__setattr__(self, "conserved_log", log)

    def drift(self) -> dict:
        """Drift of each conserved quantity against the first row.

        Each deviation is normalized by the largest initial magnitude
        among the three, not its own: momentum starts at zero on real
        data and its own-relative drift would be meaningless.
        """
        if len(self.conserved_log) < 2:
            return {"hamiltonian": 0.0, "charge": 0.0, "momentum": 0.0}
        first = self.conserved_log[0, 1:]
        dev = np.max(np.abs(self.conserved_log[:, 1:] - first), axis=0)
        return _relative_drift(first, dev)


def _relative_drift(first: np.ndarray, dev: np.ndarray) -> dict:
    """The drift dict of EvolutionState.drift from the first (H, Q, N)
    and the largest deviation of each from it."""
    scale = np.maximum(np.abs(first), max(np.max(np.abs(first)), 1e-300))
    rel = dev / scale
    return {"hamiltonian": float(rel[0]), "charge": float(rel[1]),
            "momentum": float(rel[2])}


def initial_state(field: AntiperiodicField, dt: float) -> EvolutionState:
    if dt <= 0.0:
        raise ValidationError(f"time step must be positive, got {dt}")
    return EvolutionState(field=field, time=0.0, dt=dt,
                          conserved_log=np.zeros((0, 4)))


class _Stepper:
    """Fused Strang splitting of an ensemble on a fixed dealiasing grid.

    The coefficients are a (K, B) array, one column per trajectory over
    a shared band.  Every column gets exactly the arithmetic of a lone
    trajectory, so B runs cost one transform call per substep.
    """

    def __init__(self, fields, params: ProblemParams, omega: float,
                 dt: float, n_grid: int | None = None,
                 guard: float = math.inf, nonlinear: bool = True):
        if dt <= 0.0:
            raise ValidationError(f"time step must be positive, got {dt}")
        head = fields[0]
        T = head.half_period
        k = head.wavenumbers
        if n_grid is None:
            n_grid = max(256, 1 << int(math.ceil(math.log2(4 * head.n_modes))))
        if n_grid < 2 * (head.max_wavenumber + 1):
            raise ValidationError(
                f"grid of size {n_grid} cannot hold wavenumbers up to {head.max_wavenumber}")
        if n_grid & (n_grid - 1):
            raise ValidationError(
                f"grid size {n_grid} is not a power of two; the fused "
                f"linear substep is exact only for powers of two")
        self.params = params
        self.T = T
        self.k = k
        self.n = n_grid
        self.bins = k % n_grid
        self.sym = np.abs(np.pi * k / T) ** params.alpha
        lin = np.exp(-1j * (self.sym + omega) * dt)
        # lin on all n bins (zero off the band) and in every column, so the
        # multiply is the same contiguous loop as a lone trajectory's
        self.full = np.zeros((n_grid, len(fields)), dtype=complex)
        self.full[self.bins] = lin[:, None]
        self.dt = dt
        self.guard = guard
        self.rate = params.gamma * dt if nonlinear else 0.0
        self.two_sigma = 2.0 * params.sigma
        self.coeff = np.stack([f.coeff for f in fields], axis=1).astype(complex)
        self.time = 0.0
        self.steps_taken = 0

    def _kick(self, vals, fraction):
        amp = np.abs(vals)
        peak = float(np.max(amp))
        if not peak <= self.guard:
            raise BlowupDetected(
                f"|u| reached {peak:.3e} (guard {self.guard:.3e}) at t = "
                f"{self.time:.6f}")
        if self.rate != 0.0:
            vals *= np.exp((1j * self.rate * fraction) * amp**self.two_sigma)
        return vals

    def advance(self, m: int):
        """m fused Strang steps; half-kicks only open and close the block.

        Fusing two adjacent half-kicks into one is exact in continuum
        but differs from per-step closure at the dealiasing-tail level,
        because the band projection between them sees a different phase.
        Each linear substep is one multiply of the full spectrum by
        `full`: since n is a power of two, the 1/n of analyze and the n
        of synthesize are exact, and the result equals
        synthesize(analyze(vals) * lin) bit for bit.
        """
        if m < 1:
            return
        bins, n, full = self.bins, self.n, self.full
        vals = self._kick(synthesize(self.coeff, bins, n), 0.5)
        for i in range(m):
            spec = np.fft.fft(vals, axis=0)
            spec *= full
            vals = self._kick(np.fft.ifft(spec, axis=0), 1.0 if i < m - 1 else 0.5)
            self.time += self.dt
        self.coeff = analyze(vals, bins, n)
        self.steps_taken += m

    def _conserved(self, c):
        T = self.T
        q = 0.5 * T * float(np.sum(np.abs(c) ** 2))
        nmom = -0.5 * np.pi * float(np.sum(self.k * np.abs(c) ** 2))
        kin = 0.5 * T * float(np.sum(self.sym * np.abs(c) ** 2))
        vals = synthesize(c, self.bins, self.n)
        p = (T / self.n) * float(np.sum(np.abs(vals) ** (self.two_sigma + 2.0)))
        p /= self.two_sigma + 2.0
        return q, nmom, kin - self.params.gamma * p

    def field(self, j: int = 0) -> AntiperiodicField:
        return AntiperiodicField(self.T, self.k, self.coeff[:, j].copy())

    def log_rows(self) -> list:
        """(t, H, Q, N) of every column at the current state."""
        rows = []
        for c in self.coeff.T:
            q, nmom, ham = self._conserved(np.ascontiguousarray(c))
            rows.append((self.time, ham, q, nmom))
        return rows

    def logged_blocks(self, steps: int, log_interval: int):
        """Advance `steps` steps in blocks of log_interval, yielding the
        log rows after each block."""
        done = 0
        while done < steps:
            m = min(log_interval, steps - done)
            self.advance(m)
            done += m
            yield self.log_rows()


def evolve(state: EvolutionState, params: ProblemParams, omega: float,
           steps: int, log_interval: int = 100, n_grid: int | None = None,
           guard: float = math.inf, nonlinear: bool = True,
           tol_cons: float = TOL_CONS) -> EvolutionState:
    """Advance `steps` Strang steps, logging conserved quantities.

    Returns a new state whose log extends the input's; the flag is set
    when any relative drift over the whole log exceeds tol_cons.
    """
    if steps < 1:
        raise ValidationError(f"need at least one step, got {steps}")
    if log_interval < 1:
        raise ValidationError(f"log interval must be positive, got {log_interval}")
    eng = _Stepper([state.field], params, omega, state.dt, n_grid=n_grid,
                   guard=guard, nonlinear=nonlinear)
    eng.time = state.time
    rows = list(state.conserved_log) or eng.log_rows()
    rows.extend(block[0] for block in eng.logged_blocks(steps, log_interval))
    out = EvolutionState(field=eng.field(), time=eng.time, dt=state.dt,
                         conserved_log=np.array(rows))
    drift = max(out.drift().values())
    if drift > tol_cons:
        out = EvolutionState(field=out.field, time=out.time, dt=out.dt,
                             conserved_log=out.conserved_log, flagged=True)
    return out


def step(state: EvolutionState, params: ProblemParams, omega: float,
         n_grid: int | None = None, guard: float = math.inf) -> EvolutionState:
    """A single Strang step; convenience wrapper over evolve."""
    return evolve(state, params, omega, steps=1, log_interval=1,
                  n_grid=n_grid, guard=guard)


def boost(f: AntiperiodicField, m: int) -> AntiperiodicField:
    """Multiply by exp(i 2 pi m x / T): the antiperiodic lattice of
    Galilean phases, shifting every wavenumber by 2m."""
    if m == 0:
        return f
    g = lift(f, f.n_modes + abs(m))
    coeff = np.roll(g.coeff, m)
    if m > 0:
        coeff[:m] = 0.0
    else:
        coeff[m:] = 0.0
    return g.with_coeff(coeff)


def orbital_distance(u: AntiperiodicField, phi: StandingProfile) -> float:
    """Energy-norm distance from u to the group orbit of the profile.

    Phase is minimized in closed form; translation by a 512-point
    spectral scan of the cross-correlation, refined by Newton on the
    slope of its modulus; where the correlation peak is flat the scan
    shift stands.  The returned value is the norm of the
    coefficient-space difference at the optimal (phase, shift), not the
    expanded quadratic, so tiny distances are not lost to cancellation
    of the O(1) norms.
    """
    alpha = phi.params.alpha
    v = phi.field
    if u.half_period != v.half_period:
        raise ValidationError("mismatched half-periods")
    if u.n_modes != v.n_modes:
        band = max(u.n_modes, v.n_modes)
        u = lift(u, band)
        v = lift(v, band)
    # A_k = T (1 + |pi k/T|^alpha) u_k conj(v_k); the optimal-phase inner
    # product at shift x0 is |sum_k A_k e^(i pi k x0 / T)|
    T = u.half_period
    w = np.abs(np.pi * u.wavenumbers / T) ** alpha
    corr = u.with_coeff(T * (1.0 + w) * u.coeff * np.conj(v.coeff))
    nscan = 512
    spec = np.zeros(nscan, dtype=complex)
    np.add.at(spec, u.wavenumbers % nscan, corr.coeff)
    scan = np.abs(np.fft.ifft(spec) * nscan)
    width = 2.0 * T / nscan
    shift = int(np.argmax(scan)) * width
    refined = _refine_peak(corr, shift, width, 0.0)
    if refined is not None:
        shift = refined
    phase = complex(evaluate(corr, shift)[0])
    if abs(phase) > 0.0:
        beta = math.atan2(phase.imag, phase.real)
    else:
        beta = 0.0
    moved = translate(v, shift) * complex(math.cos(beta), math.sin(beta))
    return x_norm(u - moved, alpha)


def _project_off(v: AntiperiodicField, directions) -> AntiperiodicField:
    for d in directions:
        v = v - d * (inner(v, d) / inner(d, d))
    return v


def _derivative_field(f: AntiperiodicField) -> AntiperiodicField:
    return f.with_coeff(f.coeff * (1j * np.pi * f.wavenumbers / f.half_period))


def n_preserving_perturbation(profile: StandingProfile, epsilon: float,
                              rng: np.random.Generator) -> AntiperiodicField:
    """Random perturbation v with N(phi + v) = 0 exactly and ||v||_X ~ epsilon.

    The draw is projected off the symmetry tangents and constraint
    gradients {phi, i phi, phi', i phi'}, scaled to epsilon, then
    corrected along i phi' by the exact root of the quadratic
    s -> N(phi + v + s i phi').
    """
    if epsilon <= 0.0 or epsilon > 1e-2:
        raise ValidationError(
            f"perturbation size must lie in (0, 1e-2], got {epsilon}")
    phi = profile.field
    dphi = _derivative_field(phi)
    tangents = (phi, phi * 1j, dphi, dphi * 1j)
    v = _project_off(random_field(phi.half_period, phi.n_modes, rng), tangents)
    v = v * (epsilon / x_norm(v, profile.params.alpha))
    idphi = dphi * 1j

    def n_of(s):
        return momentum(phi + v + idphi * s)

    # N is exactly quadratic along s; fit, then take the root nearer
    # zero via the cancellation-free formula (the quadratic coefficient
    # is N(i phi') = 0 up to roundoff, so the naive formula returns -0.0)
    g0, gp, gm = n_of(0.0), n_of(1.0), n_of(-1.0)
    a = 0.5 * (gp + gm) - g0
    b = 0.5 * (gp - gm)
    if b == 0.0 and a == 0.0:
        raise ValidationError("momentum is flat along i phi'; cannot correct")
    disc = math.sqrt(max(b * b - 4.0 * a * g0, 0.0))
    q = -0.5 * (b + math.copysign(disc, b)) if b != 0.0 else 0.5 * disc
    s = g0 / q if q != 0.0 else 0.0
    if a != 0.0 and abs(q / a) < abs(s):
        s = q / a
    slope = b + 2.0 * a * s
    if slope != 0.0:
        s -= n_of(s) / slope
    return v + idphi * s


def _richardson_index(parameter, pairs, functional, h, rtol):
    """Central differences of `functional` over the family pairs at steps
    h and h/2, accepted when they agree to rtol."""
    (lo1, hi1), (lo2, hi2) = pairs
    d1 = (functional(hi1) - functional(lo1)) / (2.0 * h)
    d2 = (functional(hi2) - functional(lo2)) / (2.0 * (0.5 * h))
    scale = max(abs(d2), 1e-12)
    rel = abs(d1 - d2) / scale
    if rel > rtol:
        raise StepTooLarge(
            f"central differences at steps {h} and {h/2} disagree by "
            f"{rel:.2e} (> {rtol:.1e}) for {parameter}")
    return {"value": d2, "step": 0.5 * h, "richardson_rel": rel}


def _lplus_pairing(profile: StandingProfile, size: int = 128,
                   deflate_tol: float = 1e-8) -> dict:
    """<L_plus^(-1) phi, phi> over [0, T] by deflated even-sector solve."""
    op = assemble(profile, "L_plus", "even", size)
    vals, vecs = np.linalg.eigh(op.matrix)
    p = _padded(_even_coords(profile.field), size)
    tolk = 1e-6 * _kernel_scale(profile, "L_plus")
    keep = np.abs(vals) > tolk
    comp = vecs.T @ p
    dropped = float(np.linalg.norm(comp[~keep]) / np.linalg.norm(comp))
    if dropped > deflate_tol:
        raise InconsistentRange(
            f"phi has relative component {dropped:.2e} along deflated "
            f"L_plus directions")
    y = vecs[:, keep] @ (comp[keep] / vals[keep])
    # sector coordinates integrate over [0, 2T): halve for [0, T]
    return {"value": 0.5 * float(y @ p), "deflated": int(np.sum(~keep)),
            "dropped": dropped}


def stability_indices(profile: StandingProfile, h: float = 1e-3,
                      rtol: float = 1e-4, size: int = 128) -> dict:
    """Slopes of the conserved quantities along the profile's family.

    Defocusing families are parameterized by (c, mu) with Q = mu pinned,
    so dQ/domega follows from the chain rule through domega/dmu.  The
    focusing family is parameterized by omega directly and the slope is
    cross-checked against -<L_plus^(-1) phi, phi> from a deflated
    even-sector solve; disagreement an order beyond the Richardson
    tolerance raises InconsistentRange.
    """
    out = {"dNdc": None, "dQdomega": None, "dQdmu": None,
           "lplus_inverse_pairing": None}

    def pairs(parameter):
        return [family_pair(profile, parameter, step) for step in (h, 0.5 * h)]

    if profile.params.gamma == -1:
        out["dNdc"] = _richardson_index(
            "c", pairs("c"), lambda p: momentum(p.field), h, rtol)
        mu_pairs = pairs("mu")
        out["dQdmu"] = _richardson_index(
            "mu", mu_pairs, lambda p: charge(p.field), h, rtol)
        domega = _richardson_index("mu", mu_pairs, lambda p: p.omega, h, rtol)
        out["dQdomega"] = {"value": 1.0 / domega["value"],
                           "step": domega["step"],
                           "richardson_rel": domega["richardson_rel"],
                           "via": "1 / (domega/dmu)"}
    else:
        out["dQdomega"] = _richardson_index(
            "omega", pairs("omega"), lambda p: charge(p.field), h, rtol)
        pairing = _lplus_pairing(profile, size=size)
        agree = abs(pairing["value"] + out["dQdomega"]["value"])
        agree /= max(abs(out["dQdomega"]["value"]), 1e-12)
        pairing["relative_mismatch"] = agree
        if agree > 10.0 * rtol:
            raise InconsistentRange(
                f"<L_plus^-1 phi, phi> = {pairing['value']:.6e} vs "
                f"-dQ/domega = {-out['dQdomega']['value']:.6e} "
                f"(relative mismatch {agree:.2e})")
        out["lplus_inverse_pairing"] = pairing
    return out


def dndc_spectral(profile: StandingProfile, size: int = 128) -> float:
    """dN/dc of the fixed-charge family from first-order perturbation.

    Differentiating the profile equation in c at the resting point gives
    an imaginary correction i b with L_minus b = -phi' in the odd
    sector, so dN/dc = -<phi', L_minus^(-1) phi'>.  The sector
    coordinate dot runs over [0, 2T); halve for the [0, T] functional.
    """
    op = assemble(profile, "L_minus", "odd", size)
    vals, vecs = np.linalg.eigh(op.matrix)
    tolk = 1e-9 * _kernel_scale(profile, "L_minus")
    if np.min(np.abs(vals)) < tolk:
        raise InconsistentRange(
            "L_minus has a near-kernel odd direction; dN/dc is singular")
    d = _padded(_odd_coords(_derivative_field(profile.field)), size)
    comp = vecs.T @ d
    return -0.5 * float(np.sum(comp**2 / vals))


def galilean_residual(profile: StandingProfile) -> dict:
    """Profile-equation residual of the first lattice boost of phi.

    For alpha = 2 the boosted field exp(i 2 pi x / T) phi solves the
    moving-frame equation at speed 4 pi / T and frequency
    omega + (2 pi / T)^2 exactly; away from alpha = 2 the residual is
    order one.  Returns both the residual norm and the shifted momentum
    defect N(boosted) - N(phi) + 2 pi mu / T, which is arithmetic and
    vanishes for every alpha.
    """
    from .functionals import gradient, l2_norm
    T = profile.params.half_period
    lattice_speed = 4.0 * np.pi / T
    b = boost(profile.field, 1)
    omega_b = profile.omega + (lattice_speed / 2.0) ** 2
    grad = gradient(b, lattice_speed, omega_b, profile.params)
    shift = momentum(b) - momentum(profile.field) \
        + 2.0 * np.pi * charge(profile.field) / T
    return {"residual": l2_norm(grad), "speed": lattice_speed,
            "omega": omega_b, "momentum_shift_defect": abs(shift)}


def coercivity_check(profile: StandingProfile, size: int = 128) -> dict:
    """Projected minima of the second-variation blocks.

    The constrained set splits by parity and component: the real part
    is orthogonal to phi (even) and phi' (odd), the imaginary part to
    the same pair.  Each sector matrix is restricted to the orthogonal
    complement of its constraint vector and the smallest eigenvalue
    recorded; all four strictly positive is the convexity backing the
    empirical stability runs (the L2-quotient version of the lemma).
    """
    p_even = _padded(_even_coords(profile.field), size)
    d_odd = _padded(_odd_coords(_derivative_field(profile.field)), size)
    out = {}
    for which in ("L_plus", "L_minus"):
        for sector, q in (("even", p_even), ("odd", d_odd)):
            a = assemble(profile, which, sector, size).matrix
            qn = q / np.linalg.norm(q)
            full = np.linalg.qr(
                np.column_stack([qn, np.eye(size)]))[0]
            basis = full[:, 1:size]
            restricted = basis.T @ a @ basis
            out[f"{which}_{sector}"] = float(
                np.linalg.eigvalsh(restricted)[0])
    out["minimum"] = min(out.values())
    out["positive"] = bool(out["minimum"] > 0.0)
    out["size"] = int(size)
    return out


def second_variation_form(profile: StandingProfile, v: AntiperiodicField,
                          n_grid: int = 1024) -> float:
    """<delta^2 E0(phi) v, v> over [0, T] for a complex perturbation v.

    Equals <L_plus a, a> + <L_minus b, b> for v = a + i b on a real
    resting profile: kinetic and omega terms are spectral, the
    potential terms use grid quadrature.
    """
    params = profile.params
    alpha = params.alpha
    T = v.half_period
    w = np.abs(np.pi * v.wavenumbers / T) ** alpha
    quad = T * float(np.sum((w + profile.omega) * np.abs(v.coeff) ** 2))
    phi_vals = to_grid(profile.field, n_grid).values.real
    v_vals = to_grid(lift(v, max(v.n_modes, profile.field.n_modes)),
                     n_grid).values
    a2 = v_vals.real**2
    b2 = v_vals.imag**2
    pot = np.abs(phi_vals) ** (2.0 * params.sigma)
    h = 2.0 * T / n_grid
    quad -= params.gamma * 0.5 * h * float(
        pot @ ((2.0 * params.sigma + 1.0) * a2 + b2))
    return quad


@dataclass(frozen=True)
class StabilityReport:
    """Indices, per-perturbation trajectories, and verdict inputs."""

    dNdc: dict | None
    dQdomega: dict | None
    dQdmu: dict | None
    orbital_distance_series: tuple
    perturbation_size: tuple
    verdict_inputs: dict

    @property
    def c_emp(self) -> float:
        return max(run["c_emp"] for run in self.orbital_distance_series)


def stability_experiment(profile: StandingProfile, perturbations,
                         horizon: float, dt: float = 1e-3,
                         log_interval: int = 500,
                         tol_cons: float = 1e-6,
                         spectrum_size: int = 128) -> StabilityReport:
    """Evolve perturbed profiles and log orbit distances and drifts.

    perturbations is an iterable of AntiperiodicField; all trajectories
    advance together as one ensemble (phi + v lifted to a common band),
    each column bit-identical to a run of its own.  After every log
    block each run's (t, H, Q, N) row and orbit distance are logged and
    its drift checked: the first run past tol_cons raises
    ConservationDriftExceeded there, not at the horizon.  The report
    carries the stability indices, the coercivity quadratic form
    evaluated at each perturbation, and the projected-eigensolve minima
    as verdict inputs.
    """
    perturbations = list(perturbations)
    if not perturbations:
        raise ValidationError("need at least one perturbation")
    if horizon <= 0.0:
        raise ValidationError(f"horizon must be positive, got {horizon}")
    indices = stability_indices(profile)
    peak = float(np.max(np.abs(to_grid(profile.field, 512).values)))
    guard = GUARD_FACTOR * peak

    starts = [profile.field + v for v in perturbations]
    band = max(f.n_modes for f in starts)
    starts = [lift(f, band) for f in starts]
    steps = max(1, int(round(horizon / dt)))
    eng = _Stepper(starts, profile.params, profile.omega, dt, guard=guard)
    logs = [[row] for row in eng.log_rows()]
    rhos = [[orbital_distance(f, profile)] for f in starts]
    first = [np.array(log[0][1:]) for log in logs]
    dev = [np.zeros(3) for _ in logs]
    for rows in eng.logged_blocks(steps, log_interval):
        for i, row in enumerate(rows):
            logs[i].append(row)
            dev[i] = np.maximum(dev[i], np.abs(np.array(row[1:]) - first[i]))
            worst = max(_relative_drift(first[i], dev[i]).values())
            if worst > tol_cons:
                raise ConservationDriftExceeded(
                    f"perturbation {i}: relative drift {worst:.3e} exceeds "
                    f"{tol_cons:.1e} at t = {eng.time:.6f}, step "
                    f"{eng.steps_taken} of {steps}")
            rhos[i].append(orbital_distance(eng.field(i), profile))

    runs = []
    for v, log, rho, first_i, dev_i in zip(perturbations, logs, rhos, first, dev):
        size = x_norm(v, profile.params.alpha)
        times = np.array(log)[:, 0]
        rho = np.array(rho)
        slope = float(np.polyfit(times, rho, 1)[0]) if len(times) > 2 else 0.0
        runs.append({
            "perturbation_norm": size,
            "times": times,
            "rho": rho,
            "c_emp": float(np.max(rho) / size),
            "secular_slope": slope,
            "secular_fraction": slope * float(times[-1]) / max(float(np.max(rho)), 1e-300),
            "drift": _relative_drift(first_i, dev_i),
            "quadratic_form": second_variation_form(profile, v),
        })
    coercivity = coercivity_check(profile, size=spectrum_size)
    verdict = {
        "coercivity": coercivity,
        "dNdc": None if indices["dNdc"] is None else indices["dNdc"]["value"],
        "dQdomega": None if indices["dQdomega"] is None
        else indices["dQdomega"]["value"],
    }
    return StabilityReport(
        dNdc=indices["dNdc"],
        dQdomega=indices["dQdomega"],
        dQdmu=indices["dQdmu"],
        orbital_distance_series=tuple(runs),
        perturbation_size=tuple(r["perturbation_norm"] for r in runs),
        verdict_inputs=verdict,
    )
