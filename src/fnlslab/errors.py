"""Exception hierarchy.

Three fault categories matter operationally and map to CLI exit codes:
validation problems (bad parameters or config, exit 2), convergence
failures (exit 3), and violated mathematical properties (exit 4).
"""


class FnlslabError(Exception):
    """Base class for all package errors."""


class ValidationError(FnlslabError):
    """Input, parameter, or configuration outside its admissible window."""


class ParseError(ValidationError):
    """Malformed config text; message carries the offending line."""


class SamplingError(ValidationError):
    """Grid too coarse (or odd-sized) for the requested mode content."""


class UnderResolved(ValidationError):
    """Series truncation tail too large for the requested grid."""


class SpeedOutOfRange(ValidationError):
    """Requested wave speed outside the admissible window."""


class OmegaOutOfRange(ValidationError):
    """Requested frequency outside the admissible window."""


class ComplexInput(ValidationError):
    """Real-valued input required."""


class ProfileNotReal(ValidationError):
    """Operation requires a real profile (zero-speed branch)."""


class ConvergenceError(FnlslabError):
    """Iteration failed to reach its tolerance."""


class NonConvergence(ConvergenceError):
    """Solver hit its iteration cap before the stopping test was met."""


class BlowupDetected(ConvergenceError):
    """A sample turned nan or inf during evolution."""


class PropertyViolation(FnlslabError):
    """A mathematical property that should hold numerically does not."""


class AntiperiodicityViolation(PropertyViolation):
    """Even-mode content above tolerance in antiperiodic data."""


class PositivityViolation(PropertyViolation):
    """Claimed-positive quantity came out nonpositive."""


class GaugeAmbiguity(PropertyViolation):
    """Phase/translation normalization has no well-separated optimum."""


class SpectralGapTooSmall(PropertyViolation):
    """Near-zero eigenvalue cannot be separated from its neighbor."""


class InconsistentRange(PropertyViolation):
    """Solvability (Fredholm) condition violated by the computed data."""


class ChainDoesNotTerminate(PropertyViolation):
    """Generalized-kernel chain does not close at the expected height."""


class MonotonicityUnverified(PropertyViolation):
    """Potential fails the grid monotonicity precondition."""


class ConservationDriftExceeded(PropertyViolation):
    """Conserved quantity drifted beyond tolerance during evolution."""
