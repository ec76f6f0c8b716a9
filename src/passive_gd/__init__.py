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
    AlgebraicLoopError,
    ContractionError,
    ConvergenceError,
    DegenerateSectorError,
    DivergenceError,
    HorizonError,
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
    shifted_gradient,
)
from .interconnect import (
    FeedbackLoop,
    LoopTrace,
    delta_bar_operator,
    evaluate_delta_bar,
    loop_equivalence_report,
    run_transformed,
    run_untransformed,
)
from .lti import (
    PositiveRealCertificate,
    StateSpaceRealization,
    gd_passivity_certificate,
    gd_realization,
    modified_gd_realization,
    positive_real_check,
    simulate,
)
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
    armijo_alpha,
    armijo_s,
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
from .signals import (
    Signal,
    inner_product_truncated,
    norm_sq_truncated,
    random_unit_energy,
    truncate,
)

__version__ = "0.1.0"
