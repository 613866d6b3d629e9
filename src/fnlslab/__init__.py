"""Numerical laboratory for antiperiodic standing waves of fractional NLS.

The equation under study is i u_t - Lambda^alpha u + gamma |u|^(2 sigma) u = 0
on the space of T-antiperiodic fields, with Lambda the Calderon operator
(Fourier symbol |pi k / T|).  The package computes traveling/standing wave
profiles by constrained minimization, the spectrum of the linearization,
fractional heat kernels and their positivity structure, rearrangement
inequalities, and split-step time evolution with orbital-distance tracking.
"""

from .params import ProblemParams, EPS_ANTI, EPS_FFT, EPS_REAL, MAX_ITER, TOL_PROFILE
from .fields import (AntiperiodicField, GridSamples, cosine_field, derivative,
                     evaluate, fractional_laplacian, imag_part, lift,
                     odd_wavenumbers, random_field, real_part, rotate_phase,
                     to_grid, translate, zero_field)
from .functionals import (charge, hamiltonian, inner, kinetic, momentum,
                          moving_frame_energy, potential, quadratic_energy,
                          x_norm)
from .profiles import (StandingProfile, Sweep, continue_in, gauge_fix,
                       profile_residual, recovered_omega, solve_defocusing,
                       solve_focusing)
from .spectrum import (NondegeneracyReport, SectorOperator, SectorSpectrum,
                       assemble, eigensolve, fredholm_range_checks,
                       jordan_structure, nondegeneracy_check, sector_spectra)
from .kernels import KernelSamples, kernel_ka, kernel_kp, positivity_report
from .rearrange import (potential_ordering_check, rearrange_hash,
                        rearrange_star)
from .dynamics import (EvolutionState, StabilityReport, coercivity_check,
                       evolve, initial_state, n_preserving_perturbation,
                       orbital_distance, second_variation_form,
                       stability_experiment, stability_indices)
from .config import COMMANDS, RunConfig, parse_config
from .reports import ResultBundle, emit, render_report, report_dict
from .cli import main, run

__version__ = "0.1.0"
