"""Spectral solver and verification toolkit for flat cylinders R x N.

The package separates variables over a flat torus cross section N: the
cross_section module enumerates the spectrum, mode_ode solves the radial
systems in closed form, green_kernel measures the weighted-norm blow-up
of their decaying inverses near the spectral gap, divergence_solver and
deformation_solver handle the gauge and kernel structure of the
deformation operator, three_circles certifies tube-decay inequalities,
and fd_oracle cross-checks everything on finite-difference grids.  The
cli module drives all of it from job configs.
"""

__version__ = "0.1.0"

from .cross_section import Mode, Spectrum, TorusCrossSection, build_spectrum
from .deformation_solver import (
    KernelBasisElement,
    KernelDecomposition,
    classify_kernel,
    parallel_space_dimension,
    solve_reduced_system,
    trace_absorption_field,
)
from .divergence_solver import (
    DivergenceConfig,
    GaugeField,
    decompose_one_form,
    gauge_residual,
    lie_derivative_metric,
    modified_divergence,
    solve_gauge,
)
from .errors import (
    CertificateFailure,
    CylspecError,
    InvalidInput,
    InvalidParams,
    MemoryGuard,
    NonInvertibleSector,
    NotInKernel,
    ResonantRate,
    ResonantTau,
)
from .fd_oracle import (
    GridField,
    StencilConfig,
    fd_operator,
    nonlinear_ricci,
    quadratic_remainder_scan,
    sample,
)
from .fields import TensorField, linearized_ricci
from .green_kernel import BoundFit, estimate_weighted_bound, weighted_sup_norm
from .mode_ode import RadialProfile, solve_mixed_mode, solve_scalar_mode
from .three_circles import (
    MonotonicityReport,
    ThreeCirclesParams,
    TubeNormSeries,
    monotonicity_classify,
    project_out_parallel,
    sharpness_probe,
    three_circles_check,
    tube_norm,
)

__all__ = [
    "__version__",
    "Mode",
    "Spectrum",
    "TorusCrossSection",
    "build_spectrum",
    "KernelBasisElement",
    "KernelDecomposition",
    "classify_kernel",
    "parallel_space_dimension",
    "solve_reduced_system",
    "trace_absorption_field",
    "DivergenceConfig",
    "GaugeField",
    "decompose_one_form",
    "gauge_residual",
    "lie_derivative_metric",
    "modified_divergence",
    "solve_gauge",
    "CertificateFailure",
    "CylspecError",
    "InvalidInput",
    "InvalidParams",
    "MemoryGuard",
    "NonInvertibleSector",
    "NotInKernel",
    "ResonantRate",
    "ResonantTau",
    "GridField",
    "StencilConfig",
    "fd_operator",
    "nonlinear_ricci",
    "quadratic_remainder_scan",
    "sample",
    "TensorField",
    "linearized_ricci",
    "BoundFit",
    "estimate_weighted_bound",
    "weighted_sup_norm",
    "RadialProfile",
    "solve_mixed_mode",
    "solve_scalar_mode",
    "MonotonicityReport",
    "ThreeCirclesParams",
    "TubeNormSeries",
    "monotonicity_classify",
    "project_out_parallel",
    "sharpness_probe",
    "three_circles_check",
    "tube_norm",
]
