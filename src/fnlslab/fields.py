"""Antiperiodic fields on the odd Fourier lattice.

A T-antiperiodic function, f(x + T) = -f(x), is exactly a 2T-periodic
function whose Fourier support lies on the odd lattice:

    f(x) = sum_k c_k exp(i pi k x / T),   k odd, |k| <= 2M - 1.

A field is T and the 2M amplitudes of this full odd band, which is
derived from their number.  Fields are immutable; grids are uniform with
x_j = 2T j / N over one 2T period.  Transforms go through the FFT with
coefficients placed at bins k mod N, so grid sampling and mode
extraction are exact (to roundoff) for band-limited data.  Real fields
satisfy c_{-k} = conj(c_k).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import AntiperiodicityViolation, SamplingError, ValidationError
from .params import EPS_ANTI


def odd_wavenumbers(n_modes: int) -> np.ndarray:
    """Odd integers -(2M-1), ..., -1, 1, ..., 2M-1 for M = n_modes."""
    if n_modes < 1:
        raise ValidationError(f"need at least one mode, got {n_modes}")
    return np.arange(-(2 * n_modes - 1), 2 * n_modes, 2, dtype=np.int64)


@dataclass(frozen=True)
class AntiperiodicField:
    """2M complex amplitudes, coeff[j] at k = 2j - (2M - 1): the full odd
    band |k| <= 2M - 1, derived from len(coeff) = 2M and never stored.
    The field keeps a read-only copy of the coefficients it is given."""

    half_period: float
    coeff: np.ndarray  # complex amplitudes, k ascending

    def __post_init__(self):
        c = np.array(self.coeff, dtype=np.complex128)
        if c.ndim != 1 or len(c) < 2 or len(c) % 2:
            raise ValidationError(f"coeff must be 1-d of even length >= 2, got {c.shape}")
        if not self.half_period > 0:
            raise ValidationError(f"half_period must be positive, got {self.half_period}")
        c.setflags(write=False)
        object.__setattr__(self, "coeff", c)

    @property
    def n_modes(self) -> int:
        return len(self.coeff) // 2

    @property
    def wavenumbers(self) -> np.ndarray:
        return odd_wavenumbers(self.n_modes)

    @property
    def max_wavenumber(self) -> int:
        return 2 * self.n_modes - 1

    def with_coeff(self, coeff: np.ndarray) -> "AntiperiodicField":
        return AntiperiodicField(self.half_period, coeff)

    # Basic linear algebra.  Operands must share T; bands are unioned.
    def __add__(self, other: "AntiperiodicField") -> "AntiperiodicField":
        a, b = _aligned(self, other)
        return a.with_coeff(a.coeff + b.coeff)

    def __sub__(self, other: "AntiperiodicField") -> "AntiperiodicField":
        a, b = _aligned(self, other)
        return a.with_coeff(a.coeff - b.coeff)

    def __mul__(self, scalar: complex) -> "AntiperiodicField":
        return self.with_coeff(self.coeff * scalar)

    __rmul__ = __mul__

    def realness_defect(self) -> float:
        """Relative size of c_k - conj(c_{-k}); zero for real fields."""
        return realness_defects(self.coeff[None])[0]


@dataclass(frozen=True)
class GridSamples:
    """Complex samples at x_j = 2T j / N, j = 0..N-1.  A complex128 array
    is kept without a copy and frozen: grids reach 2^22 samples."""

    half_period: float
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        if v.ndim != 1:
            raise ValidationError("values must be a 1-d array")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def x(self) -> np.ndarray:
        return 2.0 * self.half_period * np.arange(self.n) / self.n


# Row forms.  A (rows, ...) block holds one field or sample vector per
# row.  Every sum and norm is a 1-D call on one row: a reduction along
# axis 1 sums in another order, so only this way is row i bit for bit
# what the one-field form gives.

def _row_ratios(numerators, denominators) -> list:
    """float(norm(a) / norm(b)) of row pairs, 0.0 where norm(b) is 0."""
    out = []
    for a, b in zip(numerators, denominators):
        scale = np.linalg.norm(b)
        out.append(0.0 if scale == 0.0 else float(np.linalg.norm(a) / scale))
    return out


def realness_defects(coeff: np.ndarray) -> list:
    """realness_defect of each coefficient row."""
    return _row_ratios(coeff - np.conj(coeff[:, ::-1]), coeff)


def antiperiodic_defects(values: np.ndarray) -> list:
    """Relative norm of f(x + T) + f(x) of each complex sample row on its
    grid (N even required)."""
    n = values.shape[1]
    if n % 2 != 0:
        raise SamplingError("antiperiodicity check needs an even grid")
    half = n // 2
    return _row_ratios(values[:, half:] + values[:, :half], values)


def _monotonicity(v: np.ndarray, slack: float) -> str:
    """Monotonicity on (0, T/2) of samples v on the 2T grid, up to slack
    per grid step: constant, nonincreasing, nondecreasing or none."""
    d = np.diff(v[:len(v) // 4 + 1])
    down = bool(np.all(d <= slack))
    up = bool(np.all(d >= -slack))
    if down and up:
        return "constant"
    return "nonincreasing" if down else "nondecreasing" if up else "none"


def synthesize(coeff: np.ndarray, bins, n: int) -> np.ndarray:
    """Samples on the n-point grid of coefficients placed at FFT `bins`.

    Works along the leading axis, so a (len(bins), B) array synthesizes
    B columns at once.
    """
    spec = np.zeros((n, *coeff.shape[1:]), dtype=np.complex128)
    spec[bins] = coeff
    return np.fft.ifft(spec, axis=0) * n


def analyze(values: np.ndarray, bins, n: int) -> np.ndarray:
    """Coefficients at FFT `bins` (any index into the n bins) of samples
    on the n-point grid, along the leading axis; inverse of synthesize."""
    return np.fft.fft(values, axis=0)[bins] / n


# a block of rows (rearrangement trials) holds at most this many samples:
# 64 rows of 1024, one row of 65536, 512 KB of floats
_BLOCK_SAMPLES = 2 ** 16


def _blocks(count: int, width: int) -> list:
    """Row counts of the successive blocks that cover `count` rows of
    `width` samples each."""
    rows = max(1, _BLOCK_SAMPLES // width)
    return [min(rows, count - start) for start in range(0, count, rows)]


def toeplitz_plus_hankel(tline, hline, sign: float) -> np.ndarray:
    """T + sign H, T[j, l] = tline[s-1-j+l] and H[j, l] = hline[j+l] for
    j, l < s (lines of length 2s - 1), from window views into one array."""
    size = (len(tline) + 1) // 2
    hankel = sliding_window_view(hline, size)
    out = np.multiply(hankel, sign, out=np.empty(hankel.shape, hankel.dtype))
    return np.add(sliding_window_view(tline, size)[::-1], out, out=out)


def sector_matrix(samples: np.ndarray, alpha: float, half_period: float,
                  omega: float, sector: str, size: int) -> np.ndarray:
    """Matrix of Lambda^alpha + omega + V, V real even T-periodic, in the cos
    ("even") or sin ("odd") ((2j+1) pi x / T) basis, j < size: the diagonal
    (pi (2j+1) / T)^alpha + omega plus 0.5 (w_|j-l| +/- w_{j+l+1}), w_m = (1/T)
    int_0^{2T} V cos(2 pi m x / T) dx by trapezoid sums over the n samples of V
    on the 2T grid; T and H are window views of w, the one (size, size) array."""
    n = len(samples)
    if 2 * (2 * size - 1) >= n:
        raise ValidationError("quadrature grid too small for multiplication matrix")
    w = 2.0 * np.real(analyze(samples, 2 * np.arange(2 * size), n))
    mat = toeplitz_plus_hankel(np.concatenate([w[size - 1:0:-1], w[:size]]),
                               w[1:], 1.0 if sector == "even" else -1.0)
    np.multiply(mat, 0.5, out=mat)
    lam = (np.pi * (2 * np.arange(size) + 1) / half_period) ** alpha
    mat.ravel()[:: size + 1] += lam + omega  # the diagonal, in place
    return mat


def to_grid(f: AntiperiodicField, n: int) -> GridSamples:
    """Sample a field at N uniform points of its 2T period.

    N must be even and large enough that every stored mode sits strictly
    inside the grid band (N >= 2 (max|k| + 1)); otherwise bins would
    collide and sampling would alias.
    """
    return GridSamples(f.half_period, grid_rows(f.coeff[None], n)[0])


def grid_rows(coeff: np.ndarray, n: int) -> np.ndarray:
    """to_grid of each (rows, 2M) coefficient row: (rows, n) samples."""
    k_max = coeff.shape[1] - 1
    if n % 2 != 0:
        raise SamplingError(f"grid size must be even, got {n}")
    if n < 2 * (k_max + 1):
        raise SamplingError(f"grid size {n} too small for modes up to |k| = {k_max}")
    bins = odd_wavenumbers(coeff.shape[1] // 2) % n
    return np.ascontiguousarray(synthesize(coeff.T, bins, n).T)


def to_modes(g: GridSamples, n_modes: int | None = None,
             tol: float = EPS_ANTI) -> AntiperiodicField:
    """Extract odd-lattice coefficients from grid samples.

    Even-bin content is the antiperiodicity defect: it is measured
    against `tol` (relative) and discarded.  `n_modes` defaults to the
    full resolved odd band, M = N // 4.
    """
    return AntiperiodicField(g.half_period, modes_rows(g.values[None], n_modes, tol)[0])


def modes_rows(values: np.ndarray, n_modes: int | None = None,
               tol: float = EPS_ANTI) -> np.ndarray:
    """to_modes of each complex sample row: the (rows, 2 n_modes)
    coefficients; the first row past `tol` raises."""
    n = values.shape[1]
    if n % 2 != 0 or n < 4:
        raise SamplingError(f"grid size must be even and >= 4, got {n}")
    if n_modes is None:
        n_modes = n // 4
    if n_modes < 1:
        raise SamplingError(f"grid of size {n} resolves no odd modes")
    k = odd_wavenumbers(n_modes)
    if k[-1] > n // 2 - 1:
        raise SamplingError(
            f"requested modes up to |k| = {k[-1]} but grid resolves |k| <= {n // 2 - 1}"
        )
    spec = np.ascontiguousarray(analyze(values.T, slice(None), n).T)
    for defect in _row_ratios(spec[:, 0::2], spec):
        if defect > tol:
            raise AntiperiodicityViolation(
                f"even-mode energy fraction {defect:.3e} exceeds tolerance {tol:.3e}"
            )
    return spec[:, k % n]


def derivative(f: AntiperiodicField) -> AntiperiodicField:
    """f', the Fourier multiplier i pi k / T."""
    return f.with_coeff(f.coeff * (1j * (np.pi / f.half_period) * f.wavenumbers))


def fractional_laplacian(f: AntiperiodicField, alpha: float) -> AntiperiodicField:
    """Lambda^alpha f, the Fourier multiplier |pi k / T|^alpha."""
    w = np.pi / f.half_period
    return f.with_coeff(f.coeff * np.abs(w * f.wavenumbers) ** alpha)


def evaluate(f: AntiperiodicField, x: np.ndarray) -> np.ndarray:
    """Direct mode-sum evaluation at arbitrary points (O(NM); small inputs)."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    phase = np.exp(1j * np.pi * np.outer(x, f.wavenumbers) / f.half_period)
    return phase @ f.coeff


def translate(f: AntiperiodicField, x0: float) -> AntiperiodicField:
    """f(. - x0); modes pick up the phase exp(-i pi k x0 / T)."""
    return f.with_coeff(f.coeff * np.exp(-1j * np.pi * f.wavenumbers * x0 / f.half_period))


def rotate_phase(f: AntiperiodicField, beta: float) -> AntiperiodicField:
    return f.with_coeff(f.coeff * np.exp(1j * beta))


def real_part(f: AntiperiodicField) -> AntiperiodicField:
    return f.with_coeff(real_projection(f.coeff))


def real_projection(coeff: np.ndarray) -> np.ndarray:
    """Nearest coefficients of a real field (c_{-k} = conj c_k), along
    the last axis, so a (rows, 2M) block projects row by row."""
    return 0.5 * (coeff + np.conj(coeff[..., ::-1]))


def imag_part(f: AntiperiodicField) -> AntiperiodicField:
    """Im f as a real field (not i Im f)."""
    return f.with_coeff(0.5j * (np.conj(f.coeff[::-1]) - f.coeff))


def zero_field(half_period: float, n_modes: int) -> AntiperiodicField:
    return AntiperiodicField(half_period, np.zeros_like(odd_wavenumbers(n_modes), complex))


def cosine_field(half_period: float, amplitude: float,
                 n_modes: int = 1) -> AntiperiodicField:
    """amplitude * cos(pi x / T) embedded in an M-mode band."""
    f = zero_field(half_period, n_modes)
    c = f.coeff.copy()
    c[n_modes - 1:n_modes + 1] = amplitude / 2.0  # k = -1, 1
    return f.with_coeff(c)


def random_field(half_period: float, n_modes: int, rng: np.random.Generator,
                 decay: float = 2.0) -> AntiperiodicField:
    """Random smooth field with |c_k| ~ (1 + |k|)^(-decay)."""
    return AntiperiodicField(half_period, random_rows(n_modes, rng, 1, decay)[0])


def random_rows(n_modes: int, rng: np.random.Generator, rows: int,
                decay: float = 2.0) -> np.ndarray:
    """Coefficients of `rows` successive random_field draws, one per row:
    the generator is read in the same order, so row i is the i-th call."""
    k = odd_wavenumbers(n_modes)
    sig = (1.0 + np.abs(k)) ** (-decay)
    draws = rng.standard_normal((rows, 2, len(k)))
    return sig * (draws[:, 0] + 1j * draws[:, 1])


def lift(f: AntiperiodicField, n_modes: int) -> AntiperiodicField:
    """Re-embed into a band of at least M modes (zero padding)."""
    if n_modes < f.n_modes:
        raise ValidationError("lift cannot shrink the band; use to_modes for projection")
    pad = n_modes - f.n_modes
    c = np.zeros(2 * n_modes, dtype=np.complex128)
    c[pad:pad + len(f.coeff)] = f.coeff
    return AntiperiodicField(f.half_period, c)


def _aligned(u: AntiperiodicField, v: AntiperiodicField):
    if u.half_period != v.half_period:
        raise ValidationError("fields live on different tori")
    m = max(u.n_modes, v.n_modes)
    return lift(u, m), lift(v, m)
