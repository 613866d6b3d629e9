"""Symmetric decreasing rearrangements on the 2T-periodic grid.

The star rearrangement sorts the N cell values of a real 2T-periodic
sample vector and redistributes them symmetrically outward from x = 0:
largest at 0, the next two at +dx and -dx, and so on.  The hash
rearrangement is the star output shifted by half the antiperiod, T/2.
Both preserve the sample multiset exactly, so every l^p norm survives
to roundoff; for antiperiodic input the sorted multiset is
antisymmetric and the placement reproduces the sign pairing exactly,
which keeps the output antiperiodic to roundoff as well.  Evenness of
the star output holds only up to a one-cell asymmetry (ranks 2m-1 and
2m land on +-m dx), an O(1/N) defect that the inequality budgets below
account for.

The two inequality drivers are report-style: fractional kinetic energy
does not increase under rearrangement (checked spectrally after
projecting the rearranged samples back onto the resolved band), and
integrals of V f^2 against an even T-periodic potential monotone on
(0, T/2) move the predicted way.  On the grid the potential inequality
is a finite rearrangement inequality (oppositely sorted pairing
minimizes), so it holds to roundoff; the kinetic one inherits an
O(1/N) aliasing budget from the band projection.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (ComplexInput, MonotonicityUnverified, SamplingError,
                     ValidationError)
from .fields import (AntiperiodicField, GridSamples, _blocks, _monotonicity,
                     antiperiodic_defects, grid_rows, modes_rows,
                     random_rows, real_projection, realness_defects)
from .functionals import kinetic_rows, x_norm_rows
from .params import EPS_REAL

# multiplies norm/N in the grid-defect budget for rearrangement checks
_DEFECT_FACTOR = 10.0


def _real_rows(values: np.ndarray) -> np.ndarray:
    """Real parts of complex sample rows, refused if any row carries a
    nonnegligible imaginary part."""
    scale = np.max(np.abs(values), axis=1)
    scale[scale == 0.0] = 1.0
    if np.any(np.max(np.abs(values.imag), axis=1) > EPS_REAL * scale):
        raise ComplexInput("samples have nonnegligible imaginary part")
    return values.real.copy()


def _real_samples(g: GridSamples) -> np.ndarray:
    if not isinstance(g, GridSamples):
        raise ValidationError("rearrangement acts on GridSamples")
    return _real_rows(g.values[None])


def _star_ranks(n: int) -> np.ndarray:
    # index j holds the rank-r sorted value: r(0) = 0, r(+m) = 2m - 1,
    # r(-m) = 2m, with +m meaning j = m and -m meaning j = n - m
    idx = np.arange(n)
    m = np.minimum(idx, n - idx)
    ranks = np.where(idx <= n // 2, 2 * m - 1, 2 * m)
    ranks[0] = 0
    return ranks


def _star_rows(vals: np.ndarray) -> np.ndarray:
    """Star rearrangement of each row of real (rows, n) samples: a stable
    sort along the rows, then one gather of the sorted values by rank."""
    n = vals.shape[1]
    if n % 4 != 0 or n < 8:
        raise SamplingError(f"rearrangement grid must be a multiple of 4, got {n}")
    order = np.argsort(-vals, axis=1, kind="stable")
    return np.take_along_axis(vals, order[:, _star_ranks(n)], axis=1)


def _hash_rows(vals: np.ndarray) -> np.ndarray:
    """Hash rearrangement of each row: the star rows shifted by T/2."""
    return np.roll(_star_rows(vals), vals.shape[1] // 4, axis=1)


def rearrange_star(g: GridSamples) -> GridSamples:
    """Even symmetric decreasing rearrangement of the sample multiset."""
    star = _star_rows(_real_samples(g))[0]
    return GridSamples(g.half_period, star)


def rearrange_hash(g: GridSamples) -> GridSamples:
    """Star rearrangement shifted by T/2; odd when the input is antiperiodic."""
    hsh = _hash_rows(_real_samples(g))[0]
    return GridSamples(g.half_period, hsh)


def _cell_asymmetry_rows(vals: np.ndarray) -> list:
    """Relative l2 size of g(-x) - g(x) of each real sample row: for star
    output the one-cell placement asymmetry (ranks 2m-1 and 2m land on
    +-m dx), which decays like 1/N."""
    n = vals.shape[1]
    mirrored = vals[:, (n - np.arange(n)) % n] - vals
    return [float(np.linalg.norm(d)) / (float(np.linalg.norm(v)) or 1.0)
            for d, v in zip(mirrored, vals)]


def polya_szego_check(f: AntiperiodicField, alpha: float, n: int = 1024) -> dict:
    """Fractional kinetic energy under star and hash rearrangement.

    The rearranged samples are projected back onto the resolved odd
    band before the spectral energy is taken; the budget eps_rearr
    covers the projection of the merely continuous rearranged function.
    Star and hash energies agree to roundoff (the shift is a phase).
    """
    return _polya_szego_rows(f.half_period, f.coeff[None], alpha, n)[0]


def polya_szego_trials(half_period: float, alpha: float, n_modes: int,
                       n: int, trials: int,
                       rng: np.random.Generator) -> list:
    """polya_szego_check of `trials` fields
    real_part(random_field(half_period, n_modes, rng)), drawn in order.

    The trials run in blocks of at most fields._BLOCK_SAMPLES grid samples;
    each check is bit for bit the one of its field alone.
    """
    checks = []
    for rows in _blocks(trials, n):
        coeff = real_projection(random_rows(n_modes, rng, rows))
        checks += _polya_szego_rows(half_period, coeff, alpha, n)
    return checks


def _polya_szego_rows(half_period, coeff, alpha, n) -> list:
    """polya_szego_check of each row of a (rows, 2M) coefficient block.

    Synthesis, sorting, the rank gathers and the analysis of the star and
    hash rows act on the whole block; the sums and norms are per row.
    """
    if any(d > EPS_REAL for d in realness_defects(coeff)):
        raise ComplexInput("kinetic comparison needs a real-valued field")
    kin = kinetic_rows(half_period, coeff, alpha)
    star = _star_rows(_real_rows(grid_rows(coeff, n)))
    star_samples = star.astype(np.complex128)
    kin_star = kinetic_rows(half_period, modes_rows(star_samples), alpha)
    kin_hash = kinetic_rows(half_period, modes_rows(
        np.roll(star_samples, n // 4, axis=1)), alpha)
    norms = x_norm_rows(half_period, coeff, alpha)
    checks = []
    for kin_f, kin_s, kin_h, norm, evenness, anti in zip(
            kin, kin_star, kin_hash, norms, _cell_asymmetry_rows(star),
            antiperiodic_defects(star_samples)):
        eps = _DEFECT_FACTOR * norm / n
        violation = max(0.0, kin_s - kin_f)
        checks.append({
            "alpha": float(alpha),
            "n": int(n),
            "kinetic_original": kin_f,
            "kinetic_star": kin_s,
            "kinetic_hash": kin_h,
            "star_hash_gap": abs(kin_s - kin_h),
            "violation": violation,
            "eps_rearr": eps,
            "satisfied": bool(violation <= eps),
            "evenness_defect": evenness,
            "antiperiodic_defect": anti,
        })
    return checks


def potential_ordering_check(V: GridSamples, trials: int, n_modes: int = 16,
                             seed: int = 0) -> dict:
    """int V f^2 against the rearrangement matched to V's monotonicity.

    Nonincreasing V on (0, T/2) pairs with the hash rearrangement
    (largest |f| pushed to T/2 where V is smallest); nondecreasing V
    pairs with star.  On the grid both are exact finite rearrangement
    inequalities, so the expected margin is roundoff, far inside the
    reported O(1/N) budget.  The trials real_part(random_field(T,
    n_modes, rng)) run in blocks, like polya_szego_trials.
    """
    vals = _real_samples(V)[0]
    n = V.n
    if n % 4 != 0 or n < 8:
        raise SamplingError(f"potential grid must be a multiple of 4, got {n}")
    if trials < 1:
        raise ValidationError(f"need at least one trial, got {trials}")
    vmax = float(np.max(np.abs(vals))) or 1.0
    tol = 1e-10 * max(1.0, vmax)
    half = n // 2
    if float(np.max(np.abs(vals[half:] - vals[:half]))) > tol:
        raise ValidationError("potential must be T-periodic on the 2T grid")
    j = np.arange(n)
    if float(np.max(np.abs(vals[(n - j) % n] - vals[j]))) > tol:
        raise ValidationError("potential must be even about x = 0")
    direction = _monotonicity(vals, tol)
    if direction == "none":
        raise MonotonicityUnverified(
            "potential is not monotone on (0, T/2) at the grid resolution")

    h = 2.0 * V.half_period / n
    rng = np.random.default_rng(seed)
    rearranger = _star_rows if direction == "nondecreasing" else _hash_rows
    min_gap = math.inf
    budget = 0.0
    violations = 0
    for rows in _blocks(trials, n):
        coeff = real_projection(random_rows(n_modes, rng, rows))
        fg = grid_rows(coeff, n).real
        sq = fg**2
        for sq_row, gap_row in zip(sq, sq - rearranger(fg)**2):
            gap = h * float(vals @ gap_row)
            eps = _DEFECT_FACTOR * vmax * h * float(np.sum(sq_row)) / n
            budget = max(budget, eps)
            min_gap = min(min_gap, gap)
            if gap < -eps:
                violations += 1
    return {
        "direction": direction,
        "trials": int(trials),
        "n": int(n),
        "min_gap": min_gap,
        "max_violation": max(0.0, -min_gap),
        "eps_rearr": budget,
        "violations": int(violations),
        "satisfied": bool(violations == 0),
    }
