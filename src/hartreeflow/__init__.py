"""Spectral solver and experiment harness for coupled nonlinear Hartree systems.

Computes mass-constrained ground states of m-coupled systems with the
attractive kernel |x|^(-alpha) on a periodic box, propagates the associated
time-dependent system, and verifies the variational structure numerically:
negativity of the constrained infimum, strict subadditivity in the masses,
positivity of the Lagrange multipliers, phase factorisation of complex
minimisers, and orbital stability of the minimiser set.  Every solve also
reports its virial residual, how far it is from the identity 2K = sP that
holds at every constrained critical point of the continuum problem.
"""

__version__ = "0.1.0"

from .params import (
    InvalidParameterError,
    SystemParams,
    ValidationClause,
    ValidationReport,
    validate_assumptions,
)
from .grid import (
    Field,
    Grid,
    MultiField,
    SizeMismatchError,
    grad_norm_sq,
    grid_for,
    h1_norm_sq,
    inner,
    lp_norm,
    read_snapshot,
    write_snapshot,
)
from .hartree import (
    EnergyBreakdown,
    Kernel,
    SingularKernelError,
    build_kernel,
    convolve_density,
    el_residual,
    energy_gradient,
    pair_interaction,
    total_energy,
    virial_residual,
)
from .minimize import (
    GroundState,
    GroundStateStack,
    PhaseFactorization,
    ZeroMassError,
    extract_multipliers,
    gaussian_init,
    ground_state,
    phase_factorize,
    project_masses,
)
from .evolve import (
    EvolutionTrace,
    NanAbortError,
    evolve,
    orbit_distance,
)
from .analysis import (
    ConcentrationProfile,
    Infimum,
    ScanResult,
    StabilityReport,
    SubadditivityRecord,
    concentration_profile,
    cross_term_check,
    default_cases_m3,
    default_mass_pairs_m2,
    infimum_value,
    stability_experiment,
    strict_scaling_check,
    subadditivity_scan,
)
from .cli import ConfigError, RunConfig, load_config, run
