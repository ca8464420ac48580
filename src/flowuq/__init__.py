"""flowuq: uncertainty quantification for counterfactuals computed from
noisily measured dyadic flows.

The pipeline: calibrate a spike-and-slab measurement-error model from the
observed flows (or a mirror panel), draw posterior flow matrices, re-estimate
the structural parameter on each draw, push every draw through the
counterfactual model, and report quantile intervals of the outcome draws.
"""

from .armington import (
    ArmingtonModel,
    EquilibriumResult,
    SolverOptions,
    solve_counterfactual,
    welfare_change_pct,
)
from .calibration import (
    CalibratedParams,
    MirrorPanel,
    calibrate_baseline,
    calibrate_mirror,
    estimate_me_variance,
    estimate_prior_means,
    estimate_prior_variances,
    estimate_zero_probs,
    ingest_mirror_csv,
    posterior_draw,
    posterior_log_variance,
    resolve_missing,
    sample_flow_matrix,
    shrink_variances,
    shrinkage_weight,
    spike_weight,
)
from .core import (
    Aggregates,
    CounterfactualSpec,
    DistanceMatrix,
    DrawSet,
    EstimatorResult,
    FlowMatrix,
    IdentityModel,
    derive_aggregates,
    evaluate_model,
)
from .engine import (
    Interval,
    LowDimSmoother,
    SvdSmoother,
    UqConfig,
    draw_rng,
    interval_c1,
    interval_c2,
    point_estimate,
    run_algorithm1,
    run_algorithm3,
)
from .errors import (
    BadQuantileGrid,
    Collinear,
    DataError,
    FlowUqError,
    IdentificationError,
    InsufficientData,
    InvalidElasticity,
    LengthMismatch,
    ModelEvaluationFailed,
    NoConvergence,
    NotPSD,
    ParseError,
    RankTooLarge,
    Separation,
    TooFewDraws,
    TooManyFailures,
    ZeroDiagonal,
    ZeroMarginal,
)
from .gravity import (
    GravityFit,
    PpmlFit,
    dyadic_variance,
    fit_log_gravity,
    fit_ppml,
    independent_variance,
    sample_theta,
)
from .robustness import (
    AttenuationSimConfig,
    GravityPartialPlot,
    NormalityDiagnostic,
    RobustLevels,
    gravity_partial_plot,
    normality_diagnostic,
    robust_interval,
    robust_interval_levels,
    robust_quantile_levels,
    run_attenuation_sim,
)

__version__ = "0.1.0"
