"""Bootstrap composition of the two posteriors into uncertainty intervals.

The draw loop is the same in every variant: sample a data matrix from the
measurement-error posterior, re-estimate the structural parameter on it and
draw the parameter from N(theta_hat, Sigma_hat), evaluate the counterfactual.
Modes fix one leg ("only-ee" keeps the observed data, estimated once;
"only-me" keeps the point estimate).  The one smoother,
:class:`LowDimSmoother`, transforms the matrix the model evaluates; the
parameter is always estimated on the unsmoothed one.  :func:`run_uq` is the
``flowuq uq`` pipeline: it fits the observed matrix, picks the estimator the
mode needs, runs the loop and evaluates the point estimate.
The loop runs in batches of draws, as many as fit a budget of stacked n x n
cells chosen from a measured sweep of batch sizes (``_BATCH_CELLS``: 40
draws at n = 30, 3 at n = 100).  A batch's matrices are estimated
together when the estimator has a ``many`` method (as
``gravity.PpmlEstimator`` does), and one by one otherwise.  Its (draw,
parameter) pairs -- one per draw, or the inner draws of the
interval-of-intervals -- are evaluated in groups through the model's
``many`` method when it has one (as ``armington.ArmingtonModel`` does, with
one stacked Newton per group), and one call per pair otherwise.

Reproducibility contract: every draw b has its own counter-based RNG streams
keyed by (seed, b), so the result is a pure function of (inputs, seed, B) no
matter how the loop is scheduled across workers and batches.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .calibration import sample_flow_matrix
from .core import (
    CalibratedParams,
    CounterfactualSpec,
    DrawSet,
    FlowMatrix,
    EstimatorResult,
    ModelFunction,
    evaluate_model,
    evaluate_model_many,
)
from .errors import DataError, ModelEvaluationFailed, TooManyFailures
from .gravity import PpmlEstimator, fit_log_gravity, fit_ppml, sample_theta
from .intervals import Interval, _check_grid, _order_stats

Estimator = Callable[[FlowMatrix], EstimatorResult]

MODES = ("only-ee", "only-me", "ee+me")
INTERVAL_KINDS = ("c1", "c2", "robust")


@dataclass(frozen=True)
class UqConfig:
    """Bootstrap configuration: the draw counts, interval kind, mode, seed
    and worker count of :func:`run_algorithm1`.

    ``b`` and ``alpha`` must put alpha/2*b on the integer grid so the
    interval endpoints are bona fide order statistics.  ``b_inner`` controls
    the nested draw count used for the conservative interval-of-intervals
    (defaults to ``b``).
    """

    b: int
    alpha: float = 0.05
    seed: int = 0
    mode: str = "ee+me"
    interval_kind: str = "c1"
    robust_c: float = 1.0
    b_inner: int | None = None
    max_failure_fraction: float = 0.05
    workers: int = 1

    def __post_init__(self):
        if self.b < 1:
            raise DataError("draw count must be positive")
        if self.seed < 0:
            raise DataError("seed must be non-negative")
        if not 0 < self.alpha < 1:
            raise DataError("alpha must be in (0, 1)")
        if self.mode not in MODES:
            raise DataError(f"mode must be one of {MODES}")
        if self.interval_kind not in INTERVAL_KINDS:
            raise DataError(f"interval kind must be one of {INTERVAL_KINDS}")
        if self.robust_c < 1:
            raise DataError("robust c must be >= 1")
        if not 0 <= self.max_failure_fraction < 1:
            raise DataError("max failure fraction must be in [0, 1)")
        if self.workers < 1:
            raise DataError("workers must be >= 1")
        _check_grid(self.b, self.alpha)
        if self.interval_kind == "c2":
            _check_grid(self.inner_draws, self.alpha)

    @property
    def inner_draws(self) -> int:
        return self.b if self.b_inner is None else self.b_inner


def draw_rng(seed: int, draw: int, substream: int) -> np.random.Generator:
    """Independent generator for one (draw, substream) cell.

    Substream 0 feeds data sampling, 1 feeds parameter sampling; keeping them
    apart means switching measurement error off cannot perturb the parameter
    draws."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(draw, substream))
    return np.random.Generator(np.random.PCG64(ss))


# ---------------------------------------------------------------------------
# Smoother


@dataclass(frozen=True)
class LowDimSmoother:
    """Replace off-diagonal flows with fitted values of the two-way gravity
    regression (the natural low-dimensional model here); own flows are kept,
    distance to self being ill-defined."""

    distances: object

    def __call__(self, flows: FlowMatrix) -> FlowMatrix:
        fit = fit_log_gravity(flows, self.distances)
        values = np.exp(fit.mu)
        np.fill_diagonal(values, np.diag(flows.values))
        return flows.replace_values(values)


# ---------------------------------------------------------------------------
# Draw loop


# A batch of draws is estimated together, and its (draw, parameter) pairs are
# evaluated in groups of the same size; the size keeps the stacked n x n
# grids within this many cells: 360 draws at n = 10, 40 at n = 30, 10 at
# n = 60, 3 at n = 100 and one from n = 135 on.  A sweep of batch sizes at
# n = 10, 30, 60 and 100 (BENCH_stacked_draws.json) found the per-draw cost
# of PPML plus the Newton solve lowest between about 30,000 and 48,000 cells
# at every size, and higher on both sides of that range at n = 60 and 100.
# PPML holds about 15 grids per draw at its peak, so a batch's working memory
# stays near 4 MB.
_BATCH_CELLS = 36000


def _batch_size(n: int) -> int:
    return max(1, _BATCH_CELLS // (n * n))


@dataclass(frozen=True)
class _LoopContext:
    """Everything a worker needs to produce draws; must stay picklable."""

    flows_obs: FlowMatrix
    params: CalibratedParams | None
    estimator: Estimator | EstimatorResult | None
    model: ModelFunction
    cf_spec: CounterfactualSpec
    cfg: UqConfig
    smoother: Callable[[FlowMatrix], FlowMatrix] | None
    theta_fixed: np.ndarray | None  # set in only-me mode
    # Set in only-ee mode: the matrix the model evaluates and its estimate,
    # the same on every draw.
    data_fixed: tuple[FlowMatrix, EstimatorResult] | None


def _estimate(estimator: Estimator | EstimatorResult, flows: FlowMatrix) -> EstimatorResult:
    return estimator if isinstance(estimator, EstimatorResult) else estimator(flows)


def _estimate_many(
    estimator: Estimator | EstimatorResult, flows: list[FlowMatrix]
) -> list[EstimatorResult]:
    """Estimates of a batch of matrices: through the estimator's ``many``
    when it has one, else one call per matrix."""
    if isinstance(estimator, EstimatorResult):
        return [estimator] * len(flows)
    many = getattr(estimator, "many", None)
    if many is not None:
        return many(flows)
    return [estimator(f) for f in flows]


def _theta_draws(ctx: _LoopContext, b: int, est: EstimatorResult | None) -> list[np.ndarray]:
    """The parameter draws of draw b: the point estimate alone in only-me
    mode (``est`` is None), else one draw from this b's estimate, or
    ``cfg.inner_draws`` of them for the interval-of-intervals.  The first
    one gives this b's outcome draw, so c1 and c2 share the same draw set
    under the same seed."""
    cfg = ctx.cfg
    if est is None:
        return [ctx.theta_fixed]
    theta_rng = draw_rng(cfg.seed, b, 1)
    n_theta = cfg.inner_draws if cfg.interval_kind == "c2" else 1
    return [sample_theta(est, theta_rng) for _ in range(n_theta)]


def _run_chunk(ctx: _LoopContext, draws: Sequence[int]):
    """The draw loop, over batches of ``_batch_size(n)`` draws: sample each
    draw's flow matrix from its own stream, estimate the batch's matrices
    together, sample each draw's parameters, then evaluate the model on every
    (draw, parameter) pair of the batch, ``_batch_size(n)`` pairs at a time
    (see ``evaluate_model_many``).  An estimator error is raised for the
    batch before any of its draws is evaluated.

    Returns (b, (gamma or None, the outcomes of every parameter draw that
    evaluated, degenerate count)) for each draw b; draw b fails when its
    first parameter draw does."""
    cfg = ctx.cfg
    size = _batch_size(ctx.flows_obs.n)
    results = []
    for start in range(0, len(draws), size):
        batch = draws[start : start + size]
        if cfg.mode == "only-ee":
            flows_eval, est = ctx.data_fixed
            drawn = [(flows_eval, est, 0)] * len(batch)
        else:
            sampled = [
                sample_flow_matrix(ctx.flows_obs, ctx.params, draw_rng(cfg.seed, b, 0))
                for b in batch
            ]
            flows_b = [flows for flows, _ in sampled]
            evals = flows_b if ctx.smoother is None else [ctx.smoother(f) for f in flows_b]
            if cfg.mode == "only-me":
                ests = [None] * len(batch)
            else:
                ests = _estimate_many(ctx.estimator, flows_b)
            drawn = list(zip(evals, ests, (degenerate for _, degenerate in sampled)))
        thetas = [_theta_draws(ctx, b, est) for b, (_, est, _) in zip(batch, drawn)]
        pairs = [(f, theta) for (f, _, _), ts in zip(drawn, thetas) for theta in ts]
        outcomes = []
        for i in range(0, len(pairs), size):
            group = pairs[i : i + size]
            outcomes += evaluate_model_many(
                ctx.model, [f for f, _ in group], [t for _, t in group], ctx.cf_spec
            )
        first = 0
        for b, (_, _, degenerate), ts in zip(batch, drawn, thetas):
            outs = outcomes[first : first + len(ts)]
            first += len(ts)
            if isinstance(outs[0], ModelEvaluationFailed):
                results.append((b, (None, None, degenerate)))
            else:
                gammas = [g for g in outs if not isinstance(g, ModelEvaluationFailed)]
                results.append((b, (gammas[0], np.asarray(gammas), degenerate)))
    return results


def _run_loop(ctx: _LoopContext):
    cfg = ctx.cfg
    order = list(range(1, cfg.b + 1))
    if cfg.workers > 1:
        chunk = math.ceil(len(order) / (cfg.workers * 4))
        chunks = [order[i : i + chunk] for i in range(0, len(order), chunk)]
        results = []
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            for part in pool.map(_run_chunk, [ctx] * len(chunks), chunks):
                results.extend(part)
    else:
        results = _run_chunk(ctx, order)
    results.sort(key=lambda item: item[0])
    return [item[1] for item in results]


def _compose(ctx: _LoopContext, results, labels) -> tuple[DrawSet, tuple[Interval, ...]]:
    cfg = ctx.cfg
    kept = [r for r in results if r[0] is not None]
    failed = cfg.b - len(kept)
    if failed > cfg.max_failure_fraction * cfg.b or not kept:
        raise TooManyFailures(failed, cfg.b, cfg.max_failure_fraction)
    stacked = np.vstack([np.atleast_1d(r[0]) for r in kept])
    if labels is None or len(labels) != stacked.shape[1]:
        labels = tuple(str(q) for q in range(stacked.shape[1]))
    draw_set = DrawSet(
        draws=stacked,
        b=cfg.b,
        seed=cfg.seed,
        mode=cfg.mode,
        draws_failed=failed,
        labels=labels,
    )

    # Ranks come from the nominal draw counts, so failed draws are handled
    # by the clamping rule in ``intervals``.
    if cfg.interval_kind == "c2":
        inner = [_order_stats(r[1], cfg.alpha, 1.0, cfg.inner_draws) for r in kept]
        lowers, uppers = map(np.array, zip(*inner))
        lo, _ = _order_stats(lowers, cfg.alpha, 1.0, cfg.b)
        _, hi = _order_stats(uppers, cfg.alpha, 1.0, cfg.b)
        kind = "c2"
    elif cfg.interval_kind == "robust":
        lo, hi = _order_stats(stacked, cfg.alpha, cfg.robust_c, cfg.b)
        kind = f"robust(c={cfg.robust_c:g})"
    else:
        lo, hi = _order_stats(stacked, cfg.alpha, 1.0, cfg.b)
        kind = "c1"
    intervals = tuple(
        Interval(float(a), float(b), cfg.alpha, kind, draw_set.draws_used, failed)
        for a, b in zip(lo, hi)
    )
    return draw_set, intervals


def run_algorithm1(
    flows_obs: FlowMatrix,
    params: CalibratedParams | None,
    estimator: Estimator | EstimatorResult,
    model: ModelFunction,
    cf_spec: CounterfactualSpec,
    cfg: UqConfig,
    smoother: Callable[[FlowMatrix], FlowMatrix] | None = None,
) -> tuple[DrawSet, tuple[Interval, ...]]:
    """The empirical-Bayes bootstrap: per draw, sample data from the
    measurement-error posterior, sample the parameter from its normal
    sampling distribution estimated on that draw, evaluate the model, and
    build the configured interval.

    Returns the draw set and one interval per outcome coordinate.  Passing
    an :class:`EstimatorResult` instead of a callable estimator uses the
    fixed-external-estimator variant: the parameter is sampled independently
    of the data draw.  A callable estimator with a ``many`` method gets each
    batch of drawn matrices in one call and must return what one call per
    matrix would; so must a model's ``many`` (see ``core.ModelFunction``),
    which gets the batch's (matrix, parameter) pairs.  Failed model
    evaluations are skipped and counted; more than
    ``cfg.max_failure_fraction`` of them aborts.

    With a ``smoother`` each drawn matrix is smoothed before the model
    evaluates it; the parameter is still estimated on the unsmoothed draw.
    """
    if cfg.mode != "only-ee" and params is None:
        raise DataError("data sampling requires calibrated parameters")
    if params is not None and params.has_periods:
        raise DataError("slice per-period parameters with for_period() first")
    theta_fixed = data_fixed = None
    if cfg.mode == "only-me":
        if estimator is None:
            raise DataError("only-me mode needs an estimator for the point estimate")
        theta_fixed = _estimate(estimator, flows_obs).theta_hat
    elif cfg.mode == "only-ee":
        # The data are fixed, so smooth and estimate once for every draw.
        flows_eval = smoother(flows_obs) if smoother is not None else flows_obs
        data_fixed = (flows_eval, _estimate(estimator, flows_obs))
    ctx = _LoopContext(
        flows_obs=flows_obs,
        params=params,
        estimator=estimator,
        model=model,
        cf_spec=cf_spec,
        cfg=cfg,
        smoother=smoother,
        theta_fixed=theta_fixed,
        data_fixed=data_fixed,
    )
    results = _run_loop(ctx)
    return _compose(ctx, results, flows_obs.labels)


def point_estimate(
    flows_obs: FlowMatrix,
    estimator: Estimator | EstimatorResult,
    model: ModelFunction,
    cf_spec: CounterfactualSpec,
) -> np.ndarray:
    """g evaluated at the observed data and the point estimate."""
    return evaluate_model(model, flows_obs, _estimate(estimator, flows_obs).theta_hat, cf_spec)


def run_uq(
    flows_obs: FlowMatrix,
    params: CalibratedParams | None,
    estimation: np.ndarray | EstimatorResult,
    model: ModelFunction,
    cf_spec: CounterfactualSpec,
    cfg: UqConfig,
    smoother: Callable[[FlowMatrix], FlowMatrix] | None = None,
    include_diagonal: bool = False,
) -> tuple[DrawSet, tuple[Interval, ...], np.ndarray]:
    """The ``flowuq uq`` pipeline: the draw set, one interval per outcome
    and the point estimate g at the observed data.

    ``estimation`` is either the log costs, on which PPML estimates the
    elasticity, or an external :class:`EstimatorResult`.  With log costs the
    observed matrix is fitted once; in ee+me every drawn matrix is
    re-estimated by a :class:`PpmlEstimator` started at that fit, and in the
    other modes, which estimate only the observed matrix, the loop takes the
    observed fit as it is.  The point estimate uses the observed fit (or the
    external estimate) and the unsmoothed observed matrix.
    """
    if isinstance(estimation, EstimatorResult):
        observed = estimator = estimation
    else:
        fit = fit_ppml(flows_obs, estimation, include_diagonal=include_diagonal)
        observed = fit.to_estimator_result()
        estimator = (
            PpmlEstimator(estimation, fit, include_diagonal) if cfg.mode == "ee+me" else observed
        )
    draw_set, intervals = run_algorithm1(
        flows_obs, params, estimator, model, cf_spec, cfg, smoother=smoother
    )
    return draw_set, intervals, point_estimate(flows_obs, observed, model, cf_spec)
