"""Periodized fractional heat kernels and their positivity certificates.

The semigroup e^(-Lambda^alpha t) on 2T-periodic functions has the kernel

    K_p(x, t) = (1/2T) sum_n e^(-|pi n/T|^alpha t) e^(i pi n x/T),

normalized so that K_p integrates to one over a period.  Restricted to
antiperiodic data the convolution collapses onto half the period with
the antiperiodized kernel K_a(x,t) = K_p(x,t) - K_p(x-T,t), and further
onto the parity sectors with G_even/odd(x,y) = K_a(x-y) +/- K_a(x+y).
Positivity of K_a on (-T/2,T/2) and of the sector combinations on their
squares is what makes the sector ground states sign-definite; this
module evaluates the kernels spectrally and certifies those signs on
grids with recorded margins, the pair signs in O(N) time and memory.

Samples live on the centered grid x_j = -T + 2T j/N, j = 0..N-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (PositivityViolation, SamplingError, UnderResolved,
                     ValidationError)
from .fields import synthesize

# Fourier terms below this size are dropped from the kernel synthesis.
_TERM_FLOOR = 1e-16
# Truncation-tail budget in kernel units; worse means the grid is too
# coarse for the requested diffusion time.
_TAIL_BUDGET = 1e-12


@dataclass(frozen=True)
class KernelSamples:
    """Real kernel samples on the centered grid of one 2T period.  A float64
    array is kept without a copy and frozen: grids reach 2^22 samples."""

    alpha: float
    half_period: float
    t: float
    grid: np.ndarray
    kind: str

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        g.setflags(write=False)
        object.__setattr__(self, "grid", g)

    @property
    def n(self) -> int:
        return len(self.grid)

    @property
    def x(self) -> np.ndarray:
        n = self.n
        return -self.half_period + 2.0 * self.half_period * np.arange(n) / n


def _check_grid(n: int) -> None:
    if n < 8 or n % 4 != 0:
        raise SamplingError(f"kernel grid must be a multiple of 4, >= 8, got {n}")


def kernel_kp(alpha: float, half_period: float, t: float, n: int) -> KernelSamples:
    """Periodized kernel by direct Fourier synthesis on the centered grid.

    Terms below 1e-16 are dropped; if the symbol has not decayed below
    the tail budget at the grid's band edge the evaluation refuses with
    UnderResolved instead of silently aliasing.
    """
    if not 0.0 < alpha <= 2.0:
        raise ValidationError(f"alpha must lie in (0, 2], got {alpha}")
    if not half_period > 0.0:
        raise ValidationError(f"half_period must be positive, got {half_period}")
    if not t > 0.0:
        raise ValidationError(f"diffusion time must be positive, got {t}")
    _check_grid(n)
    T = half_period
    m = np.arange(1, n // 2)
    sym = np.exp(-(np.pi * m / T) ** alpha * t)

    probe = np.arange(n // 2, n // 2 + 8192)
    tail = float(np.sum(np.exp(-(np.pi * probe / T) ** alpha * t))) / T
    if tail > _TAIL_BUDGET:
        needed = T / np.pi * (-math.log(_TERM_FLOOR)) ** (1.0 / alpha) * t ** (-1.0 / alpha)
        raise UnderResolved(
            f"kernel tail {tail:.2e} beyond the band edge at N = {n}; "
            f"t = {t:.3e} needs roughly {2 * int(needed) + 2} grid points")

    sym[sym < _TERM_FLOOR] = 0.0
    # centered grid: e^(i pi n x_j / T) = (-1)^n e^(2 pi i n j / N)
    terms = sym * np.where(m % 2 == 0, 1.0, -1.0)
    vals = synthesize(np.concatenate([[1.0], terms, terms]),
                      np.concatenate([[0], m, n - m]), n) / (2.0 * T)
    peak = float(np.max(np.abs(vals.real)))
    if float(np.max(np.abs(vals.imag))) > 1e-14 * max(1.0, peak):
        raise SamplingError("kernel synthesis lost the even symmetry")
    return KernelSamples(alpha=alpha, half_period=T, t=t,
                         grid=vals.real, kind="Kp")


def kernel_ka(kp: KernelSamples) -> KernelSamples:
    """Antiperiodized kernel K_a(x,t) = K_p(x,t) - K_p(x-T,t) of a K_p."""
    if kp.kind != "Kp":
        raise ValidationError(f"kernel_ka needs a Kp kernel, got {kp.kind}")
    # fl(b - a) = -fl(a - b): antiperiodic
    return replace(kp, grid=kp.grid - np.roll(kp.grid, kp.n // 2), kind="Ka")


def _offset_view(ka: KernelSamples) -> np.ndarray:
    """off[m] = K_a(2T m / N) with modular index m (grid is centered)."""
    return np.roll(ka.grid, -(ka.n // 2))


def _floor(ka: KernelSamples) -> tuple[float, float]:
    """The roundoff floor N u max K_p of K_p(x) - K_p(x - T), and t_max,
    where the leading mode's first drop (2/T) e^(-(pi/T)^alpha t)
    (1 - cos(2 pi/N)) meets that floor (past t_max, max K_p = 1/2T)."""
    n, T = ka.n, ka.half_period
    floor = n * 0.5 * np.finfo(float).eps / (2.0 * T)
    t_max = math.log(4.0 * math.sin(math.pi / n) ** 2 / (T * floor)) / (math.pi / T) ** ka.alpha
    return floor, t_max


def _fault(ka: KernelSamples, tag: str, x: float, value: float, extra: str = ""):
    """UnderResolved for a margin within the roundoff floor past t_max (see
    _floor), whatever its sign; any other failed margin is a PositivityViolation."""
    floor, t_max = _floor(ka)
    if abs(value) < floor and ka.t > t_max:
        return UnderResolved(
            f"{tag} at x = {x:+.6f}{extra}: value {value:.6e} is within the "
            f"roundoff floor {floor:.1e} of K_p(x) - K_p(x - T) at N = {ka.n}; "
            f"t = {ka.t:.6g} is past t = {t_max:.3g}, the largest this grid resolves")
    return PositivityViolation(
        f"{tag} at x = {x:+.6f}{extra}: value {value:.6e} is not positive "
        f"(resolution or implementation bug; the sign is provable)")


def positivity_report(ka: KernelSamples) -> dict:
    """The four sign certificates for an antiperiodized kernel.

    (i) K_a > 0 on the interior of (-T/2, T/2); (ii) strictly decreasing
    on (0, T); (iii) K_a(x-y) + K_a(x+y) > 0 on (-T/2, T/2)^2;
    (iv) K_a(x-y) - K_a(x+y) > 0 on (0, T)^2.  Tensor grids exclude a
    one-cell boundary margin; minima are recorded as margins.  A pair
    tensor's minimum is the minimum over x - y of K_a(x - y) plus the
    least +/-K_a(x + y) that difference meets, in O(N) time and memory;
    only a minimum that is not positive scans the rows, one at a time, to
    name the first NaN, else the first minimum in row order.  A failed
    margin within the roundoff floor of a t the grid cannot resolve,
    positive or not, is UnderResolved (see _fault).
    The grid must be a multiple of 4, at least 8, as kernel_kp requires.
    """
    if ka.kind != "Ka":
        raise ValidationError(f"positivity_report needs a Ka kernel, got {ka.kind}")
    n = ka.n
    _check_grid(n)
    T = ka.half_period
    step = 2.0 * T / n
    off = _offset_view(ka)
    floor, t_max = _floor(ka)
    cut = floor if ka.t > t_max else 0.0         # past t_max a margin must reach the floor

    half = np.arange(-n // 4 + 1, n // 4)        # (-T/2, T/2) interior
    vals = off[half % n]
    i_min = int(np.argmin(vals))
    if not (vals[i_min] > 0.0 and vals[i_min] >= cut):
        raise _fault(ka, "K_a", half[i_min] * step, float(vals[i_min]))

    ramp = off[np.arange(0, n // 2 + 1) % n]     # x from 0 to T inclusive
    drops = -np.diff(ramp)
    j_min = int(np.argmin(drops))
    if not (drops[j_min] > 0.0 and drops[j_min] >= cut):
        raise _fault(ka, "monotone decrease of K_a", (j_min + 1) * step,
                         float(drops[j_min]))

    # entry (j, l) of a pair tensor over offsets lo + (0..m-1) is
    # t[j - l] + y[j + l]; for d = j - l, s = j + l runs over the window
    # |d|, |d| + 2, .., 2m - 2 - |d|, so, rounding being monotone, the
    # tensor minimum is min_d (t[d] + w[|d|]) with w the window minima of y
    m = n // 2 - 1
    d = np.arange(1 - m, m)
    t = off[d % n]
    pair_min = {}
    for tag, lo, sign in (("even", -n // 4 + 1, 1.0), ("odd", 1, -1.0)):
        y = sign * off[(np.arange(2 * m - 1) + 2 * lo) % n]
        ends = np.minimum(y, y[::-1])[:m]       # a window's ends pair up
        w = np.empty(m)
        for p in (0, 1):                         # nested windows, centre out
            w[p::2] = np.minimum.accumulate(ends[p::2][::-1])[::-1]
        pair_min[tag] = float(np.min(t + w[np.abs(d)]))
        if not (pair_min[tag] > 0.0 and pair_min[tag] >= cut):
            # row j is t[j - l] + y[j + l] over l; name its first NaN, else
            # the first minimum in row order
            lows = [np.min(t[j:j + m][::-1] + y[j:j + m]) for j in range(m)]
            xi = int(np.argmin(lows))
            row = t[xi:xi + m][::-1] + y[xi:xi + m]
            yi = int(np.argmin(row))
            raise _fault(ka, f"{tag} pair kernel", (lo + xi) * step,
                             float(row[yi]), extra=f", y = {(lo + yi) * step:+.6f}")

    return {
        "alpha": ka.alpha,
        "t": ka.t,
        "n": n,
        "interior_min": float(vals[i_min]),
        "decrease_min": float(drops[j_min]),
        "even_pair_min": pair_min["even"],
        "odd_pair_min": pair_min["odd"],
    }
