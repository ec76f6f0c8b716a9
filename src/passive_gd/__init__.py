"""Passivity-based step-size certification and simulation for gradient descent."""

from .bench import (
    MethodSpec,
    MonteCarloSpec,
    SummaryStats,
    default_methods,
    export_histogram,
    run_monte_carlo,
)
from .errors import (
    ContractionError,
    ConvergenceError,
    DegenerateSectorError,
    DivergenceError,
    InvalidParameterError,
    LineSearchError,
    PassiveGdError,
    ShapeError,
)
from .functions import (
    SectorFunction,
    diag_quadratic,
    oscillatory,
    quadratic,
    row_gradient,
    row_value,
    sector_membership_scan,
)
from .interconnect import (
    LoopTrace,
    delta_bar_operator,
    evaluate_delta_bar,
    loop_equivalence_report,
    run_transformed,
)
from .lti import PositiveRealCertificate, gd_passivity_certificate
from .optim import (
    ArmijoAlpha,
    ArmijoParams,
    ArmijoS,
    FixedAlpha,
    FixedS,
    GradNorm,
    MaxIter,
    PairedGrad,
    RunTrace,
    Termination,
    gd_run,
    gsgd_run,
)
from .passivity import (
    Classification,
    PassivityIndices,
    StepSizeVerdict,
    Verdict,
    certify_step_size,
    empirical_passivity_margin,
    nabla_indices,
    transformed_indices,
)
from .signals import Signal, random_unit_energy

__version__ = "0.1.0"
