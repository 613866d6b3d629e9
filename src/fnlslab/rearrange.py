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
from .fields import (AntiperiodicField, GridSamples, random_field, real_part,
                     to_grid, to_modes)
from .functionals import kinetic, x_norm
from .params import EPS_REAL

# multiplies norm/N in the grid-defect budget for rearrangement checks
_DEFECT_FACTOR = 10.0


def _real_samples(g: GridSamples) -> np.ndarray:
    if not isinstance(g, GridSamples):
        raise ValidationError("rearrangement acts on GridSamples")
    return g.real_values()


def _star_ranks(n: int) -> np.ndarray:
    # index j holds the rank-r sorted value: r(0) = 0, r(+m) = 2m - 1,
    # r(-m) = 2m, with +m meaning j = m and -m meaning j = n - m
    idx = np.arange(n)
    m = np.minimum(idx, n - idx)
    ranks = np.where(idx <= n // 2, 2 * m - 1, 2 * m)
    ranks[0] = 0
    return ranks


def rearrange_star(g: GridSamples) -> GridSamples:
    """Even symmetric decreasing rearrangement of the sample multiset."""
    vals = _real_samples(g)
    n = len(vals)
    if n % 4 != 0 or n < 8:
        raise SamplingError(f"rearrangement grid must be a multiple of 4, got {n}")
    order = np.argsort(-vals, kind="stable")
    return GridSamples(g.half_period, vals[order][_star_ranks(n)])


def rearrange_hash(g: GridSamples) -> GridSamples:
    """Star rearrangement shifted by T/2; odd when the input is antiperiodic."""
    star = rearrange_star(g)
    return GridSamples(g.half_period, np.roll(star.values, star.n // 4))


def cell_asymmetry(g: GridSamples) -> float:
    """Relative l2 size of g(-x) - g(x) on the grid.

    For star output this is the one-cell placement asymmetry (ranks
    2m-1 and 2m land on +-m dx) and decays like 1/N.
    """
    vals = g.values.real
    n = g.n
    scale = float(np.linalg.norm(vals)) or 1.0
    j = np.arange(n)
    return float(np.linalg.norm(vals[(n - j) % n] - vals[j])) / scale


def rearrangement_budget(f: AntiperiodicField, alpha: float, n: int) -> float:
    """Grid-defect allowance for kinetic comparisons, O(norm / N)."""
    return _DEFECT_FACTOR * x_norm(f, alpha) / n


def polya_szego_check(f: AntiperiodicField, alpha: float, n: int = 1024) -> dict:
    """Fractional kinetic energy under star and hash rearrangement.

    The rearranged samples are projected back onto the resolved odd
    band before the spectral energy is taken; the budget eps_rearr
    covers the projection of the merely continuous rearranged function.
    Star and hash energies agree to roundoff (the shift is a phase).
    """
    if f.realness_defect() > EPS_REAL:
        raise ComplexInput("kinetic comparison needs a real-valued field")
    kin = kinetic(f, alpha)
    g = to_grid(f, n)
    star = rearrange_star(g)
    hsh = rearrange_hash(g)
    kin_star = kinetic(to_modes(star), alpha)
    kin_hash = kinetic(to_modes(hsh), alpha)
    eps = rearrangement_budget(f, alpha, n)
    violation = max(0.0, kin_star - kin)
    return {
        "alpha": float(alpha),
        "n": int(n),
        "kinetic_original": kin,
        "kinetic_star": kin_star,
        "kinetic_hash": kin_hash,
        "star_hash_gap": abs(kin_star - kin_hash),
        "violation": violation,
        "eps_rearr": eps,
        "satisfied": bool(violation <= eps),
        "evenness_defect": cell_asymmetry(star),
        "antiperiodic_defect": star.antiperiodic_defect(),
    }


def _monotone_direction(v: np.ndarray, slack: float) -> str:
    d = np.diff(v)
    down = bool(np.all(d <= slack))
    up = bool(np.all(d >= -slack))
    if down and up:
        return "constant"
    if down:
        return "nonincreasing"
    if up:
        return "nondecreasing"
    raise MonotonicityUnverified(
        "potential is not monotone on (0, T/2) at the grid resolution")


def potential_ordering_check(V: GridSamples, trials: int, n_modes: int = 16,
                             seed: int = 0) -> dict:
    """int V f^2 against the rearrangement matched to V's monotonicity.

    Nonincreasing V on (0, T/2) pairs with the hash rearrangement
    (largest |f| pushed to T/2 where V is smallest); nondecreasing V
    pairs with star.  On the grid both are exact finite rearrangement
    inequalities, so the expected margin is roundoff, far inside the
    reported O(1/N) budget.
    """
    vals = _real_samples(V)
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
    direction = _monotone_direction(vals[: n // 4 + 1], tol)

    T = V.half_period
    h = 2.0 * T / n
    rng = np.random.default_rng(seed)
    rearranger = rearrange_star if direction == "nondecreasing" else rearrange_hash
    min_gap = math.inf
    budget = 0.0
    violations = 0
    for _ in range(trials):
        f = real_part(random_field(T, n_modes, rng))
        fg = to_grid(f, n).values.real
        fr = rearranger(GridSamples(T, fg)).values.real
        gap = h * float(vals @ (fg**2 - fr**2))
        eps = _DEFECT_FACTOR * vmax * h * float(np.sum(fg**2)) / n
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
