"""Numerical toolkit for the special Lagrangian equation on masked grids.

Discrete Legendre-Fenchel transforms, the angle rotation of (semi)convex
potentials, residual evaluators of the arctangent operator family, a damped
Newton Dirichlet solver, and viscosity/maximum-principle audits.
"""

from .audits import (
    AuditReport,
    BmField,
    JetCheckConfig,
    MetricField,
    bm_field,
    check_rotation_preserves_subsolution,
    check_rotation_preserves_supersolution,
    check_subsolution,
    check_supersolution,
    coefficient_audit,
    coefficient_sweep,
    coefficient_values,
    hessian_bound_harness,
    induced_metric,
    laplace_beltrami,
    subharmonicity_trial,
)
from .conjugate import (
    DomainMask,
    SlopeSet,
    auto_slope_grid,
    check_slope_increase,
    check_sum_rule,
    conjugate_brute,
    conjugate_fast,
    slope_domain,
    subdifferential,
    tight_subdifferential,
)
from .eigen import Spectrum, eigen_decompose, eigvals_sym
from .errors import (
    ConvexityError,
    FieldError,
    FileFormatError,
    GridError,
    LinearSolveError,
    PhaseError,
    RotationError,
    SlagLabError,
    SlopeGridError,
)
from .fields import GridSpec, PotentialField, osc, sample_potential
from .fileio import convert, load_field, read_csv, read_pf1, save_field, write_csv, write_pf1
from .hessians import HessianField, gradient_field, hessian_field, semiconvexity_modulus
from .operators import (
    ProblemSpec,
    ResidualField,
    ma_residual,
    mar_residual,
    phase_classify,
    slag_linearization,
    slag_residual,
)
from .reports import SolveReport
from .rotation import (
    RotatedPotential,
    RotationParams,
    gradient_map,
    rotate,
    rotate_spectrum,
    unrotate,
)
from .solver import (
    MollifierSpec,
    SolverConfig,
    dilate_grid,
    extend_convex,
    mollify,
    scale_potential,
    solve_dirichlet,
    subsolution_preservation_trial,
)

__version__ = "0.1.0"
