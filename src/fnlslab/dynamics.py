"""Co-rotating time evolution and empirical orbital-stability runs.

In the frame rotating at the profile frequency the flow is

    i w_t = Lambda^alpha w + omega w - gamma |w|^(2 sigma) w,

so a computed standing profile is a genuine equilibrium and distance to
its group orbit measures stability directly, without phase winding.
The integrator is Strang splitting with two exact substeps: the kick
only rotates the pointwise phase (|w| is invariant), and the linear part
is a diagonal Fourier multiplier.  Both are l2 isometries on the grid
and the band projection only drops what a kick pushes past the band, so
charge never grows (on a resolved field it holds to roundoff) and an
M-mode field's peak stays within sqrt(2M) times its start: a run can
blow up only to nan or inf.  The stepper advances a (K, B) ensemble of
coefficient columns with one FFT pair per substep, so the perturbations
of a stability experiment run together; every column is bit-identical
to a lone run, and the experiment stops at the first log block whose
drift passes its tolerance.  A log block holds the samples as (B, n/2)
rows, the grid folded by antiperiodicity (see _Stepper), and steps them
in place, in buffers allocated once per block, by kernel calls only:
numpy's pocketfft gufuncs and locally bound ufuncs.

Orbital distance is the infimum of the energy-norm gap over phase
rotations and translations: the phase minimization is closed-form and
the translation is a spectral cross-correlation scan refined by Newton
steps on the slope of the correlation modulus.

Stability indices (dN/dc, dQ/domega, dQ/dmu) come from the family
tangents, one solve with the Newton matrix at the profile each; the
focusing index is cross-checked against the deflated solve of
L_plus y = phi, whose pairing with phi equals -dQ/domega.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.fft._pocketfft_umath import fft as _fft, ifft as _ifft

from .errors import (BlowupDetected, ConservationDriftExceeded,
                     InconsistentRange, ValidationError)
from .fields import (AntiperiodicField, analyze, derivative, evaluate, lift,
                     random_field, synthesize, to_grid, translate)
from .functionals import (_default_grid, _potential_sum, charge, inner, kinetic,
                          momentum, x_norm)
from .params import ProblemParams
from .profiles import StandingProfile, _refine_peak, family_tangent
from .spectrum import assemble, deflated_solve, eigensolve, sector_coords

# conserved-quantity drift beyond this flags the run
TOL_CONS = 1e-8
# even-sector size of the focusing cross-check <L_plus^(-1) phi, phi>
_PAIRING_SIZE = 128
# relative mismatch allowed between that pairing and -dQ/domega
_PAIRING_TOL = 1e-3
# smallest quadrature grid of second_variation_form
_FORM_GRID = 1024


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
        return _drift(self.conserved_log)


def _drift(log: np.ndarray) -> dict:
    """EvolutionState.drift of the (t, H, Q, N) rows of `log`."""
    if len(log) < 2:
        return {"hamiltonian": 0.0, "charge": 0.0, "momentum": 0.0}
    first = log[0, 1:]
    dev = np.max(np.abs(log[:, 1:] - first), axis=0)
    scale = np.maximum(np.abs(first), max(np.max(np.abs(first)), 1e-300))
    rel = dev / scale
    return {"hamiltonian": float(rel[0]), "charge": float(rel[1]),
            "momentum": float(rel[2])}


def _check_step(dt: float) -> None:
    if not dt > 0.0:
        raise ValidationError(f"time step must be positive, got {dt}")
    if not dt < math.inf:
        raise ValidationError(f"time step must be finite, got {dt}")


def initial_state(field: AntiperiodicField, dt: float) -> EvolutionState:
    _check_step(dt)
    return EvolutionState(field=field, time=0.0, dt=dt,
                          conserved_log=np.zeros((0, 4)))


class _Stepper:
    """Fused Strang splitting of an ensemble on a folded dealiasing grid.

    The coefficients are a (K, B) array, one column per trajectory over
    a shared band, transposed to (B, h) samples only at block edges;
    `full` is (B, h) too.  The samples are w_j = exp(-2 pi i j/n) u_j at
    x_j = 2T j/n, j < h = n/2, with c_k at FFT bin (k - 1)/2 mod h: the
    same map as stepping all n, since u_(j+h) = -u_j keeps |w| = |u| and
    the even bins the n-point grid zeroes hold nothing.  Every row gets
    exactly the arithmetic of a lone trajectory, so B runs cost one
    pocketfft call per transform.  By the module's sqrt(2M) bound only a
    non-finite sample raises BlowupDetected.
    """

    def __init__(self, fields, params: ProblemParams, omega: float, dt: float):
        _check_step(dt)
        head = fields[0]
        T = head.half_period
        k = head.wavenumbers
        # n >= 4M = 2 (max|k| + 1), so h >= 2M holds the band, and a power
        # of two: the fused linear substep is exact only for powers of two
        n = max(256, 1 << int(math.ceil(math.log2(4 * head.n_modes))))
        self.params = params
        self.T = T
        self.h = h = n // 2
        self.bins = (k - 1) // 2 % h
        lin = np.exp(-1j * (np.abs(np.pi * k / T) ** params.alpha + omega) * dt)
        # lin on all h bins (zero off the band), one row per trajectory, so
        # each row's multiply is the same contiguous loop as a lone run's
        self.full = np.zeros((len(fields), h), dtype=complex)
        self.full[:, self.bins] = lin
        self.dt = dt
        self.rate = params.gamma * dt
        self.two_sigma = 2.0 * params.sigma
        self.coeff = np.stack([f.coeff for f in fields], axis=1).astype(complex)
        self.time = 0.0
        self.steps_taken = 0

    def advance(self, m: int):
        """m fused Strang steps; half-kicks only open and close the block.

        Fusing two adjacent half-kicks into one is exact in continuum
        but differs from per-step closure at the dealiasing-tail level,
        because the band projection between them sees a different phase.
        The (B, h) samples are stepped in place by ufuncs bound to locals,
        in buffers allocated once per block.  A linear substep multiplies
        the spectrum by `full`; h is a power of two, so this equals
        synthesize(analyze(vals) * lin) on the folded bins bit for bit.
        The transforms are the one private numpy binding: the pocketfft
        gufuncs under np.fft.fft/ifft, with the same factors 1 and 1/h, so
        the same bits without about 2 us of Python per call (a test pins
        them).  A kick checks that the peak is finite, then rotates by
        theta = rate fraction |vals|^(2 sigma) as cos + i sin, bit for bit
        exp(0 + i theta).
        """
        if m < 1:
            return
        h, full, dt = self.h, self.full, self.dt
        rate, two_sigma, inv_h = self.rate, self.two_sigma, 1.0 / h
        fft, ifft, absolute, power = _fft, _ifft, np.absolute, np.power
        multiply, cos, sin, peak_of = np.multiply, np.cos, np.sin, np.maximum.reduce
        vals = np.ascontiguousarray(synthesize(self.coeff, self.bins, h).T)
        spec, rot = np.empty_like(vals), np.empty_like(vals)
        amp, theta = np.empty(vals.shape), np.empty(vals.shape)
        rot_re, rot_im = rot.real, rot.imag
        for i in range(m + 1):
            if i:
                fft(vals, 1.0, out=spec)
                multiply(spec, full, out=spec)
                ifft(spec, inv_h, out=vals)
            absolute(vals, out=amp)
            peak = peak_of(amp, axis=None)
            if not peak < math.inf:
                raise BlowupDetected(
                    f"|u| reached {peak:.3e} at t = {self.time:.6f}")
            power(amp, two_sigma, out=theta)
            multiply(theta, rate * (1.0 if 0 < i < m else 0.5), out=theta)
            cos(theta, out=rot_re)
            sin(theta, out=rot_im)
            multiply(vals, rot, out=vals)
            if i:
                self.time += dt
        self.coeff = analyze(vals.T, self.bins, h)
        self.steps_taken += m

    def field(self, j: int = 0) -> AntiperiodicField:
        return AntiperiodicField(self.T, self.coeff[:, j])

    def log_rows(self) -> list:
        """(t, H, Q, N) of every column at the current state: Q, N and K
        from the functionals, P by quadrature on the folded stepper grid."""
        rows = []
        for j in range(self.coeff.shape[1]):
            f = self.field(j)
            p = _potential_sum(synthesize(f.coeff, self.bins, self.h), self.T,
                               self.params.sigma)
            ham = kinetic(f, self.params.alpha) - self.params.gamma * p
            rows.append((self.time, ham, charge(f), momentum(f)))
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
           steps: int, log_interval: int = 100) -> EvolutionState:
    """Advance `steps` Strang steps, logging conserved quantities.

    Returns a new state whose log extends the input's; the flag is set
    when any relative drift over the whole log exceeds TOL_CONS.  Raises
    BlowupDetected if a sample turns nan or inf.
    """
    if steps < 1:
        raise ValidationError(f"need at least one step, got {steps}")
    if log_interval < 1:
        raise ValidationError(f"log interval must be positive, got {log_interval}")
    eng = _Stepper([state.field], params, omega, state.dt)
    eng.time = state.time
    rows = list(state.conserved_log) or eng.log_rows()
    rows.extend(block[0] for block in eng.logged_blocks(steps, log_interval))
    out = EvolutionState(field=eng.field(), time=eng.time, dt=state.dt,
                         conserved_log=np.array(rows))
    return replace(out, flagged=bool(max(out.drift().values()) > TOL_CONS))


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


def n_preserving_perturbation(profile: StandingProfile, epsilon: float,
                              rng: np.random.Generator) -> AntiperiodicField:
    """Random perturbation v with N(phi + v) = 0 exactly and ||v||_X ~ epsilon.

    The draw is projected off the symmetry tangents and constraint
    gradients {phi, i phi, phi', i phi'}, scaled to epsilon, then
    corrected along i phi' by the exact root of the quadratic
    s -> N(phi + v + s i phi').
    """
    if not 0.0 < epsilon <= 1e-2:
        raise ValidationError(
            f"perturbation size must lie in (0, 1e-2], got {epsilon}")
    phi = profile.field
    dphi = derivative(phi)
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


def _lplus_pairing(profile: StandingProfile) -> dict:
    """<L_plus^(-1) phi, phi> over [0, T] by deflated even-sector solve."""
    size = _PAIRING_SIZE
    spec = eigensolve(assemble(profile, "L_plus", "even", size))
    p = sector_coords(profile.field, "even", size)
    y, deflated, dropped = deflated_solve(profile, "L_plus", "even", spec, p)
    # sector coordinates integrate over [0, 2T): halve for [0, T]
    return {"value": 0.5 * float(y @ p), "deflated": deflated,
            "dropped": dropped}


def stability_indices(profile: StandingProfile) -> dict:
    """Slopes of the conserved quantities along the profile's family.

    Defocusing families are parameterized by (c, mu) with Q = mu pinned,
    so dQ/domega follows from the chain rule through domega/dmu.  The
    focusing family is parameterized by omega directly and the slope is
    cross-checked against -<L_plus^(-1) phi, phi> from a deflated
    even-sector solve; a relative mismatch above _PAIRING_TOL raises
    InconsistentRange.
    """
    if profile.params.gamma == -1:
        mu = family_tangent(profile, "mu")
        return {"dNdc": {"value": family_tangent(profile, "c")["momentum"]},
                "dQdomega": {"value": 1.0 / mu["omega"], "via": "1 / (domega/dmu)"},
                "dQdmu": {"value": mu["charge"]}, "lplus_inverse_pairing": None}
    dqdomega = family_tangent(profile, "omega")["charge"]
    pairing = _lplus_pairing(profile)
    agree = abs(pairing["value"] + dqdomega) / max(abs(dqdomega), 1e-12)
    pairing["relative_mismatch"] = agree
    if agree > _PAIRING_TOL:
        raise InconsistentRange(
            f"<L_plus^-1 phi, phi> = {pairing['value']:.6e} vs "
            f"-dQ/domega = {-dqdomega:.6e} (relative mismatch {agree:.2e})")
    return {"dNdc": None, "dQdomega": {"value": dqdomega}, "dQdmu": None,
            "lplus_inverse_pairing": pairing}


def coercivity_check(profile: StandingProfile, size: int = 128) -> dict:
    """Projected minima of the second-variation blocks.

    The constrained set splits by parity and component: the real part
    is orthogonal to phi (even) and phi' (odd), the imaginary part to
    the same pair.  Each sector matrix is restricted to the orthogonal
    complement of its constraint vector and the smallest eigenvalue
    recorded; all four strictly positive is the convexity backing the
    empirical stability runs (the L2-quotient version of the lemma).
    """
    p_even = sector_coords(profile.field, "even", size)
    d_odd = sector_coords(derivative(profile.field), "odd", size)
    out = {}
    for which in ("L_plus", "L_minus"):
        for sector, q in (("even", p_even), ("odd", d_odd)):
            a = assemble(profile, which, sector, size)
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


def second_variation_form(profile: StandingProfile,
                          v: AntiperiodicField) -> float:
    """<delta^2 E0(phi) v, v> over [0, T] for a complex perturbation v.

    Equals <L_plus a, a> + <L_minus b, b> for v = a + i b on a real
    resting profile: kinetic and omega terms are spectral, the
    potential terms use grid quadrature on the alias-free grid of
    functionals._default_grid for the common band (at least 1024 points).
    """
    params = profile.params
    alpha = params.alpha
    T = v.half_period
    w = np.abs(np.pi * v.wavenumbers / T) ** alpha
    quad = T * float(np.sum((w + profile.omega) * np.abs(v.coeff) ** 2))
    lifted = lift(v, max(v.n_modes, profile.field.n_modes))
    n_grid = max(_FORM_GRID, _default_grid(lifted, params.sigma))
    phi_vals = to_grid(profile.field, n_grid).values.real
    v_vals = to_grid(lifted, n_grid).values
    a2 = v_vals.real**2
    b2 = v_vals.imag**2
    pot = np.abs(phi_vals) ** (2.0 * params.sigma)
    h = 2.0 * T / n_grid
    quad -= params.gamma * 0.5 * h * float(
        pot @ ((2.0 * params.sigma + 1.0) * a2 + b2))
    return quad


@dataclass(frozen=True)
class StabilityReport:
    """Indices, per-perturbation trajectories, and the coercivity check."""

    dNdc: dict | None
    dQdomega: dict | None
    dQdmu: dict | None
    orbital_distance_series: tuple
    coercivity: dict

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
    ConservationDriftExceeded there, not at the horizon, and a sample
    that turns nan or inf raises BlowupDetected.  The report
    carries the stability indices, the coercivity quadratic form
    evaluated at each perturbation, and the projected-eigensolve minima
    of coercivity_check.
    """
    perturbations = list(perturbations)
    if not perturbations:
        raise ValidationError("need at least one perturbation")
    if not horizon > 0.0:
        raise ValidationError(f"horizon must be positive, got {horizon}")
    if not dt > 0.0:
        raise ValidationError(f"time step must be positive, got {dt}")
    if log_interval < 1:
        raise ValidationError(f"log interval must be positive, got {log_interval}")
    if not (math.isfinite(dt) and math.isfinite(horizon / dt)):
        raise ValidationError(
            f"horizon / dt must be a finite step count, got {horizon} / {dt}")
    indices = stability_indices(profile)
    starts = [profile.field + v for v in perturbations]
    band = max(f.n_modes for f in starts)
    starts = [lift(f, band) for f in starts]
    steps = max(1, int(round(horizon / dt)))
    eng = _Stepper(starts, profile.params, profile.omega, dt)
    # one (t, H, Q, N) log per run, filled a row per block
    logs = np.empty((len(starts), 1 + -(-steps // log_interval), 4))
    logs[:, 0] = eng.log_rows()
    rhos = [[orbital_distance(f, profile)] for f in starts]
    for j, rows in enumerate(eng.logged_blocks(steps, log_interval), 1):
        logs[:, j] = rows
        for i in range(len(starts)):
            worst = max(_drift(logs[i, :j + 1]).values())
            if worst > tol_cons:
                raise ConservationDriftExceeded(
                    f"perturbation {i}: relative drift {worst:.3e} exceeds "
                    f"{tol_cons:.1e} at t = {eng.time:.6f}, step "
                    f"{eng.steps_taken} of {steps}")
            rhos[i].append(orbital_distance(eng.field(i), profile))

    runs = []
    for v, log, rho in zip(perturbations, logs, rhos):
        size = x_norm(v, profile.params.alpha)
        times = log[:, 0]
        rho = np.array(rho)
        slope = float(np.polyfit(times, rho, 1)[0]) if len(times) > 2 else 0.0
        runs.append({
            "perturbation_norm": size,
            "times": times,
            "rho": rho,
            "c_emp": float(np.max(rho) / size),
            "secular_slope": slope,
            "secular_fraction": slope * float(times[-1]) / max(float(np.max(rho)), 1e-300),
            "drift": _drift(log),
            "quadratic_form": second_variation_form(profile, v),
        })
    return StabilityReport(
        dNdc=indices["dNdc"],
        dQdomega=indices["dQdomega"],
        dQdmu=indices["dQdmu"],
        orbital_distance_series=tuple(runs),
        coercivity=coercivity_check(profile, size=spectrum_size),
    )
