"""Bootstrap composition of the two posteriors into uncertainty intervals.

The draw loop is the same in every variant: sample a data matrix from the
measurement-error posterior, re-estimate the structural parameter on it and
draw the parameter from N(theta_hat, Sigma_hat), evaluate the counterfactual.
Modes fix one leg, which holds the observed matrix's estimate, made once
("only-ee" keeps the observed data and draws from that estimate; "only-me"
keeps its theta_hat).  The one smoother, :class:`LowDimSmoother`,
transforms the matrix the model evaluates; the parameter is always
estimated on the unsmoothed one.  :func:`run_uq` is the
``flowuq uq`` pipeline: it fits the observed matrix, picks the estimator the
mode needs, evaluates the point estimate and runs the loop.
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
from .gravity import PpmlEstimator, fit_log_gravity, fit_ppml
from .intervals import Interval, check_kind, compose

Estimator = Callable[[FlowMatrix], EstimatorResult]

MODES = ("only-ee", "only-me", "ee+me")


@dataclass(frozen=True)
class UqConfig:
    """Bootstrap configuration: the draw counts, interval kind, mode, seed
    and worker count of :func:`run_algorithm1`.

    ``b`` and ``alpha`` must put alpha/2*b on the integer grid so the
    interval endpoints are bona fide order statistics.  ``b_inner`` controls
    the nested draw count used for the conservative interval-of-intervals
    (defaults to ``b``).  ``intervals.check_kind`` checks the interval kind
    against these draw counts here, before any draw.
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
        if self.mode not in MODES:
            raise DataError(f"mode must be one of {MODES}")
        if not 0 <= self.max_failure_fraction < 1:
            raise DataError("max failure fraction must be in [0, 1)")
        if self.workers < 1:
            raise DataError("workers must be >= 1")
        check_kind(self.alpha, self.interval_kind, self.robust_c, self.b, self.inner_draws)

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
        return FlowMatrix(values, flows.labels)


# ---------------------------------------------------------------------------
# Draw loop


# A batch of draws is estimated together, and its (draw, parameter) pairs are
# evaluated in groups of the same size; the size keeps the stacked n x n
# grids within this many cells: 360 draws at n = 10, 40 at n = 30, 10 at
# n = 60, 3 at n = 100 and one from n = 135 on.  A sweep of batch sizes at
# n = 10, 30, 60 and 100 (BENCH_stacked_draws.json) found the per-draw cost
# of PPML plus the Newton solve lowest between about 30,000 and 48,000 cells
# at every size, and higher on both sides of that range at n = 60 and 100.
# PPML's traced peak is 8.3 grids per draw at n = 30 (2.4 MB for 40 draws)
# and at most 8.8 grids at n = 100 and 300, under the Newton batch's 9.7, so
# a batch's working memory stays near 2.5 MB.
_BATCH_CELLS = 36000


def _batch_size(n: int) -> int:
    return max(1, _BATCH_CELLS // (n * n))


@dataclass(frozen=True)
class _LoopContext:
    """Everything a worker needs to produce draws; must stay picklable."""

    flows_obs: FlowMatrix
    params: CalibratedParams | None
    # Outside ee+me, the observed matrix's estimate, the same on every draw.
    estimator: Estimator | EstimatorResult
    model: ModelFunction
    cf_spec: CounterfactualSpec
    cfg: UqConfig
    smoother: Callable[[FlowMatrix], FlowMatrix] | None
    # Set in only-ee mode: the matrix the model evaluates on every draw.
    flows_fixed: FlowMatrix | None


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


def _theta_draws(cfg: UqConfig, b: int, est: EstimatorResult) -> Sequence[np.ndarray]:
    """The parameter draws of draw b: the point estimate alone in only-me
    mode, else one draw from this b's estimate, or ``cfg.inner_draws`` of
    them for the interval-of-intervals.  The first one gives this b's
    outcome draw, so c1 and c2 share the same draw set under the same
    seed."""
    if cfg.mode == "only-me":
        return [est.theta_hat]
    n_theta = cfg.inner_draws if cfg.interval_kind == "c2" else 1
    return est.draws(draw_rng(cfg.seed, b, 1), n_theta)


def _run_chunk(ctx: _LoopContext, draws: Sequence[int]):
    """The draw loop, over batches of ``_batch_size(n)`` draws: sample the
    batch's flow matrices in one call, each draw from its own stream,
    estimate them together, sample each draw's parameters, then evaluate the
    model on every (draw, parameter) pair of the batch, ``_batch_size(n)``
    pairs at a time (see ``evaluate_model_many``).  An estimator error is
    raised for the batch before any of its draws is evaluated.

    Returns (b, outcomes) for each draw b: the (m, q) outcomes of the
    parameter draws of b that evaluated, in draw order, or None when its
    first parameter draw fails, which fails draw b."""
    cfg = ctx.cfg
    size = _batch_size(ctx.flows_obs.n)
    results = []
    for start in range(0, len(draws), size):
        batch = draws[start : start + size]
        if cfg.mode == "only-ee":
            evals, ests = [ctx.flows_fixed] * len(batch), [ctx.estimator] * len(batch)
        else:
            flows_b, _ = sample_flow_matrix(
                ctx.flows_obs, ctx.params, [draw_rng(cfg.seed, b, 0) for b in batch]
            )
            evals = flows_b if ctx.smoother is None else [ctx.smoother(f) for f in flows_b]
            ests = _estimate_many(ctx.estimator, flows_b)
        thetas = [_theta_draws(cfg, b, est) for b, est in zip(batch, ests)]
        pairs = [(f, theta) for f, ts in zip(evals, thetas) for theta in ts]
        outcomes = []
        for i in range(0, len(pairs), size):
            group = pairs[i : i + size]
            outcomes += evaluate_model_many(
                ctx.model, [f for f, _ in group], [t for _, t in group], ctx.cf_spec
            )
        first = 0
        for b, ts in zip(batch, thetas):
            outs = outcomes[first : first + len(ts)]
            first += len(ts)
            evaluated = [g for g in outs if not isinstance(g, ModelEvaluationFailed)]
            failed = isinstance(outs[0], ModelEvaluationFailed)
            results.append((b, None if failed else np.asarray(evaluated)))
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


def _compose(ctx: _LoopContext, results) -> tuple[DrawSet, tuple[Interval, ...]]:
    cfg = ctx.cfg
    kept = [r for r in results if r is not None]
    failed = cfg.b - len(kept)
    if failed > cfg.max_failure_fraction * cfg.b or not kept:
        raise TooManyFailures(failed, cfg.b, cfg.max_failure_fraction)
    stacked = np.vstack([r[0] for r in kept])
    # Outcomes are named by location when there is one per location.
    labels = ctx.flows_obs.labels if ctx.flows_obs.n == stacked.shape[1] else ()
    draw_set = DrawSet(draws=stacked, draws_failed=failed, labels=labels)
    return draw_set, compose(
        kept, cfg.alpha, cfg.interval_kind, cfg.robust_c, cfg.b, cfg.inner_draws
    )


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
    if params is not None:
        params._refuse_other_locations(flows_obs)
    if estimator is None:
        raise DataError(f"{cfg.mode} mode needs an estimator")
    # With one leg fixed, the observed matrix is smoothed (only-ee) and
    # estimated once for every draw.
    flows_fixed = None
    if cfg.mode == "only-ee":
        flows_fixed = smoother(flows_obs) if smoother is not None else flows_obs
    if cfg.mode != "ee+me":
        estimator = _estimate_many(estimator, [flows_obs])[0]
    ctx = _LoopContext(
        flows_obs=flows_obs,
        params=params,
        estimator=estimator,
        model=model,
        cf_spec=cf_spec,
        cfg=cfg,
        smoother=smoother,
        flows_fixed=flows_fixed,
    )
    results = _run_loop(ctx)
    return _compose(ctx, results)


def point_estimate(
    flows_obs: FlowMatrix,
    estimator: Estimator | EstimatorResult,
    model: ModelFunction,
    cf_spec: CounterfactualSpec,
) -> np.ndarray:
    """g evaluated at the observed data and the point estimate."""
    (est,) = _estimate_many(estimator, [flows_obs])
    return evaluate_model(model, flows_obs, est.theta_hat, cf_spec)


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
    external estimate) and the unsmoothed observed matrix.  Parameters over
    other locations than the flows' are refused before anything is fitted.
    """
    if params is not None:
        params._refuse_other_locations(flows_obs)
    if isinstance(estimation, EstimatorResult):
        observed = estimator = estimation
    else:
        fit = fit_ppml(flows_obs, estimation, include_diagonal=include_diagonal)
        observed = fit.to_estimator_result()
        estimator = (
            PpmlEstimator(estimation, fit, include_diagonal) if cfg.mode == "ee+me" else observed
        )
    # The point estimate runs the model's own checks once, on the observed
    # data, so an input it refuses stops the run before any draw.
    point = point_estimate(flows_obs, observed, model, cf_spec)
    draw_set, intervals = run_algorithm1(
        flows_obs, params, estimator, model, cf_spec, cfg, smoother=smoother
    )
    return draw_set, intervals, point
