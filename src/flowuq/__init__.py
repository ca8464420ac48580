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
    solve_counterfactual,
    solve_counterfactual_many,
    welfare_change_pct,
)
from .calibration import (
    MirrorPanel,
    calibrate_baseline,
    calibrate_mirror,
    estimate_me_variance,
    estimate_prior_means,
    estimate_prior_variances,
    estimate_zero_probs,
    ingest_mirror_csv,
    posterior_log_variance,
    resolve_missing,
    sample_flow_matrix,
    shrink_variances,
    shrinkage_weight,
    spike_weight,
)
from .core import (
    Aggregates,
    CalibratedParams,
    CounterfactualSpec,
    DistanceMatrix,
    DrawSet,
    EstimatorResult,
    FlowMatrix,
    IdentityModel,
    derive_aggregates,
    evaluate_model,
    evaluate_model_many,
)
from .engine import (
    LowDimSmoother,
    UqConfig,
    draw_rng,
    point_estimate,
    run_algorithm1,
    run_uq,
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
    Separation,
    TooFewDraws,
    TooManyFailures,
    ZeroDiagonal,
    ZeroMarginal,
)
from .gravity import (
    GravityFit,
    PpmlEstimator,
    PpmlFit,
    fit_log_gravity,
    fit_ppml,
    fit_ppml_many,
    independent_variance,
    sample_theta,
)
from .intervals import (
    Interval,
    RobustLevels,
    interval_c1,
    interval_c2,
    robust_interval,
    robust_interval_levels,
    robust_quantile_levels,
)
from .robustness import (
    AttenuationSimConfig,
    GravityPartialPlot,
    NormalityDiagnostic,
    gravity_partial_plot,
    normality_diagnostic,
    run_attenuation_sim,
)

__version__ = "0.1.0"
