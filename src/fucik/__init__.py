"""Fucik spectrum of nonlocal Dirichlet operators on an interval.

Computes asymmetric eigenvalue curves (solutions of A u = alpha u+ - beta u-)
for fractional-kernel and classical operators through a max/min variational
characterization, and solves semilinear problems at or near those curves with
a resonance check of Landesman-Lazer type.
"""

from .errors import (
    BracketExhausted,
    ConfigError,
    DegenerateSplit,
    DimensionMismatch,
    EmptySeries,
    FactorizationFailure,
    FucikError,
    MaxIterations,
    MeshTooCoarse,
    MissingLimits,
    NoCrossing,
    NonPositiveKernel,
    OrderOutOfRange,
    RadiusTooSmall,
    RegimeViolation,
)
from .oracle import (
    ShootingResult,
    brute_force_max_low,
    brute_force_sphere_min,
    classical_curve,
)
from .spectrum import (
    CurveBranch,
    FucikParams,
    FucikPoint,
    beta_of_alpha,
    eigen_residual,
    fucik_energy,
    fucik_gradient,
    maximize_low,
    minimize_on_sphere,
    reduced_energy,
    reduced_gradient,
    swap,
    trace_curve,
)
from .operator import (
    ConditionCheck,
    EigenBasis,
    Field,
    GalerkinOperator,
    Kernel,
    Mesh1D,
    ValidationReport,
    assemble,
    basis_document,
    eigenpairs,
    load_basis,
    save_basis,
    split,
    to_field,
    validate_kernel,
)
from .cli import (
    RunConfig,
    Series,
    config_from_args,
    main,
    parse_kernel,
    plot_svg,
    run,
)
from .semilinear import (
    CONVERGED,
    DIVERGING_RAY,
    MAX_ITERATIONS,
    NONRESONANCE,
    OUT_OF_SCOPE,
    RESONANCE,
    GLLReport,
    Nonlinearity,
    NonlinearityReport,
    ResidualReport,
    SaddleResult,
    SemilinearProblem,
    build_problem,
    check_gll,
    classify,
    problem_from_dict,
    residual_report,
    semilinear_energy,
    semilinear_gradient,
    solve,
)

__version__ = "0.1.0"
