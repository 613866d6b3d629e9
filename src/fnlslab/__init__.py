"""Numerical laboratory for antiperiodic standing waves of fractional NLS.

The equation under study is i u_t - Lambda^alpha u + gamma |u|^(2 sigma) u = 0
on the space of T-antiperiodic fields, with Lambda the Calderon operator
(Fourier symbol |pi k / T|).  The package computes traveling/standing wave
profiles by constrained minimization, the spectrum of the linearization,
fractional heat kernels and their positivity structure, rearrangement
inequalities, and split-step time evolution with orbital-distance tracking.

The package loads in two tiers.  `import fnlslab` loads only `params`,
`errors` and `config`, which need no numpy, so a config can be parsed and
validated without it.  The first access to any other attribute (an
export, a submodule, `dir()` or `from fnlslab import *`) loads the numeric
tier as one unit: every remaining module and export at once, after which
the package is exactly what an eager import of all modules builds.
"""

from importlib import import_module as _import_module

from .params import ProblemParams, EPS_ANTI, EPS_FFT, EPS_REAL, MAX_ITER, TOL_PROFILE
from .config import COMMANDS, RunConfig, parse_config

__version__ = "0.1.0"

# The numeric tier: module -> the names the package exports from it.  It
# loads as one unit because the benchmark tracer looks every traced module
# up in sys.modules and patches each binding of a name, the package's too.
_NUMERIC = {
    "fields": ("AntiperiodicField", "GridSamples", "cosine_field", "derivative",
               "evaluate", "fractional_laplacian", "imag_part", "lift",
               "odd_wavenumbers", "random_field", "real_part", "rotate_phase",
               "to_grid", "translate", "zero_field"),
    "functionals": ("charge", "hamiltonian", "inner", "kinetic", "momentum",
                    "moving_frame_energy", "potential", "quadratic_energy",
                    "x_norm"),
    "profiles": ("StandingProfile", "Sweep", "continue_in", "gauge_fix",
                 "profile_residual", "recovered_omega", "solve_defocusing",
                 "solve_focusing"),
    "spectrum": ("NondegeneracyReport", "assemble", "eigensolve",
                 "fredholm_range_checks", "jordan_structure",
                 "nondegeneracy_check", "sector_spectra"),
    "kernels": ("KernelSamples", "kernel_ka", "kernel_kp", "positivity_report"),
    "rearrange": ("potential_ordering_check", "rearrange_hash", "rearrange_star"),
    "dynamics": ("EvolutionState", "StabilityReport", "coercivity_check", "evolve",
                 "initial_state", "n_preserving_perturbation", "orbital_distance",
                 "second_variation_form", "stability_experiment",
                 "stability_indices"),
    "reports": ("ResultBundle", "emit", "render_report", "report_dict"),
    "cli": ("main", "run"),
}


def _load():
    """Import the numeric tier, bind its exports in one step, and remove
    the module hooks, so later misses raise as on any module."""
    modules = {name: _import_module(f".{name}", __name__) for name in _NUMERIC}
    namespace = globals()
    namespace.update({export: getattr(modules[name], export)
                      for name, exports in _NUMERIC.items() for export in exports})
    namespace.pop("__getattr__", None)
    namespace.pop("__dir__", None)


def __getattr__(name):
    _load()
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__():
    _load()
    return sorted(globals())
