"""Problem parameters and tolerance constants."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError

# Default tolerances used across the package.
EPS_FFT = 1e-12      # transform round-trip accuracy (relative)
EPS_REAL = 1e-10     # realness defect (relative)
EPS_ANTI = 1e-10     # antiperiodicity / even-mode defect (relative)
TOL_PROFILE = 1e-9   # profile-equation residual, infinity norm
TOL_DEFLATE = 1e-8   # right-hand-side share allowed in deflated directions
MAX_ITER = 20000     # cap on descent iterations in the profile solvers

# The window of each ProblemParams field as a (condition, rule) pair, in
# field order; a value outside it is reported as "<field> must <rule>".
WINDOWS = {"alpha": (lambda v: 1.0 < v <= 2.0, "lie in (1, 2]"),
           "sigma": (lambda v: 0.0 < v < math.inf, "lie in (0, inf)"),
           "gamma": (lambda v: v in (-1, 1), "lie in {-1, +1}"),
           "half_period": (lambda v: 0.0 < v < math.inf, "lie in (0, inf)")}


@dataclass(frozen=True)
class ProblemParams:
    """Half-period, dispersion order, nonlinearity power, sign.

    The field lives on x in [0, 2T) with f(x + T) = -f(x); `half_period`
    is T.  `alpha` is the order of the fractional dispersion, restricted
    to (1, 2] (2 included for classical-limit oracle runs).  `sigma` is
    the nonlinearity power in |u|^(2 sigma) u, and `gamma` is +1 for the
    focusing sign, -1 for the defocusing sign.
    """

    alpha: float
    sigma: float
    gamma: int
    half_period: float

    def __post_init__(self):
        for key, (inside, rule) in WINDOWS.items():
            val = getattr(self, key)
            if not inside(val):
                raise ValidationError(f"{key} must {rule}, got {val}")

    @property
    def fundamental_wavenumber(self) -> float:
        """pi/T, the smallest admissible frequency magnitude."""
        return math.pi / self.half_period

    @property
    def speed_limit(self) -> float:
        """(pi/T)^(alpha-1), the admissible |c| window for traveling waves."""
        return self.fundamental_wavenumber ** (self.alpha - 1.0)

    @property
    def frequency_limit(self) -> float:
        """(pi/T)^alpha, the admissible |omega| window for the focusing branch."""
        return self.fundamental_wavenumber ** self.alpha
