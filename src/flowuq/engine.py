"""Bootstrap composition of the two posteriors into uncertainty intervals.

The draw loop is the same in every variant: sample a data matrix from the
measurement-error posterior, sample a structural parameter from the
estimation-error posterior, evaluate the counterfactual.  Modes fix one leg
("only-ee" keeps the observed data, "only-me" keeps the point estimate);
smoothing variants transform the drawn matrix before the model sees it.

Reproducibility contract: every draw b has its own counter-based RNG streams
keyed by (seed, b), so the result is a pure function of (inputs, seed, B) no
matter how the loop is scheduled across workers.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .calibration import CalibratedParams, sample_flow_matrix
from .core import (
    CounterfactualSpec,
    DrawSet,
    FlowMatrix,
    EstimatorResult,
    ModelFunction,
    evaluate_model,
)
from .errors import (
    BadQuantileGrid,
    DataError,
    ModelEvaluationFailed,
    RankTooLarge,
    TooManyFailures,
)
from .gravity import fit_log_gravity, sample_theta

Estimator = Callable[[FlowMatrix], EstimatorResult]

MODES = ("only-ee", "only-me", "ee+me")
INTERVAL_KINDS = ("c1", "c2", "robust")


@dataclass(frozen=True)
class UqConfig:
    """Bootstrap configuration.

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
    smooth_for_estimation: bool = False
    positive_theta: bool = False

    def __post_init__(self):
        if self.b < 1:
            raise DataError("draw count must be positive")
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
        _order_stat_ranks(self.b, self.alpha)
        if self.interval_kind == "c2":
            _order_stat_ranks(self.inner_draws, self.alpha)

    @property
    def inner_draws(self) -> int:
        return self.b if self.b_inner is None else self.b_inner


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float
    alpha: float
    kind: str
    draws_used: int
    draws_failed: int = 0

    def __post_init__(self):
        if self.lo > self.hi:
            raise DataError("interval endpoints out of order")

    @property
    def width(self) -> float:
        return self.hi - self.lo


def draw_rng(seed: int, draw: int, substream: int) -> np.random.Generator:
    """Independent generator for one (draw, substream) cell.

    Substream 0 feeds data sampling, 1 feeds parameter sampling; keeping them
    apart means switching measurement error off cannot perturb the parameter
    draws."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(draw, substream))
    return np.random.Generator(np.random.PCG64(ss))


def _order_stat_ranks(b: int, alpha: float) -> tuple[int, int]:
    lo = alpha / 2.0 * b
    lo_rank = round(lo)
    if abs(lo - lo_rank) > 1e-9 or lo_rank < 1:
        raise BadQuantileGrid(
            f"alpha/2 * B = {lo:g} is not a positive integer; "
            "choose B and alpha so the order statistics exist"
        )
    return lo_rank, b - lo_rank


def interval_c1(draws: Sequence[float], alpha: float) -> Interval:
    """Equal-tailed interval from the (a/2*B)-th and ((1-a/2)*B)-th order
    statistics of the draws (1-indexed; ties broken by stable sort)."""
    arr = np.asarray(draws, dtype=float)
    if arr.ndim != 1:
        raise DataError("interval_c1 expects a one-dimensional draw set")
    lo_rank, hi_rank = _order_stat_ranks(arr.shape[0], alpha)
    s = np.sort(arr, kind="stable")
    return Interval(
        lo=float(s[lo_rank - 1]),
        hi=float(s[hi_rank - 1]),
        alpha=alpha,
        kind="c1",
        draws_used=arr.shape[0],
    )


def interval_c2(
    per_draw_intervals: Sequence[tuple[float, float]], alpha: float
) -> Interval:
    """Conservative interval-of-intervals: the a/2 quantile of the lower
    bounds paired with the 1-a/2 quantile of the upper bounds."""
    arr = np.asarray(per_draw_intervals, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise DataError("interval_c2 expects (lower, upper) pairs")
    lo_rank, hi_rank = _order_stat_ranks(arr.shape[0], alpha)
    lowers = np.sort(arr[:, 0], kind="stable")
    uppers = np.sort(arr[:, 1], kind="stable")
    return Interval(
        lo=float(lowers[lo_rank - 1]),
        hi=float(uppers[hi_rank - 1]),
        alpha=alpha,
        kind="c2",
        draws_used=arr.shape[0],
    )


def _clamped_order_stats(sorted_vals: np.ndarray, b_nominal: int, alpha: float):
    """Order-statistic endpoints with ranks computed on the nominal draw
    count; when draws failed, ranks are clamped into the available range,
    erring toward a wider interval."""
    lo_rank, hi_rank = _order_stat_ranks(b_nominal, alpha)
    used = sorted_vals.shape[0]
    lo_rank = min(lo_rank, used)
    hi_rank = min(hi_rank, used)
    return float(sorted_vals[lo_rank - 1]), float(sorted_vals[hi_rank - 1])


# ---------------------------------------------------------------------------
# Smoothers


@dataclass(frozen=True)
class SvdSmoother:
    """Truncated-SVD matrix approximation keeping the top ``rank`` singular
    values.  Negative entries of the reconstruction are clamped to zero
    (flows are non-negative)."""

    rank: int

    def __post_init__(self):
        if self.rank < 1:
            raise DataError("rank must be >= 1")

    def __call__(self, flows: FlowMatrix) -> FlowMatrix:
        if self.rank > flows.n:
            raise RankTooLarge(
                f"rank {self.rank} exceeds matrix dimension {flows.n}"
            )
        u, s, vt = np.linalg.svd(flows.values, full_matrices=False)
        approx = (u[:, : self.rank] * s[: self.rank]) @ vt[: self.rank]
        return flows.replace_values(np.clip(approx, 0.0, None))


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
    want_inner: bool


def _estimate(ctx: _LoopContext, flows: FlowMatrix) -> EstimatorResult:
    if isinstance(ctx.estimator, EstimatorResult):
        return ctx.estimator
    return ctx.estimator(flows)


def _one_draw(ctx: _LoopContext, b: int):
    """Returns (gamma or None, inner interval or None, degenerate count)."""
    cfg = ctx.cfg
    degenerate = 0
    if cfg.mode == "only-ee":
        flows_b = ctx.flows_obs
    else:
        flows_b, degenerate = sample_flow_matrix(
            ctx.flows_obs, ctx.params, draw_rng(cfg.seed, b, 0)
        )
    flows_eval = ctx.smoother(flows_b) if ctx.smoother is not None else flows_b
    flows_est = flows_eval if cfg.smooth_for_estimation else flows_b

    if cfg.mode == "only-me":
        theta_draws = None
    else:
        est_b = _estimate(ctx, flows_est)
        theta_rng = draw_rng(cfg.seed, b, 1)
        n_theta = cfg.inner_draws if ctx.want_inner else 1
        theta_draws = [
            sample_theta(est_b, theta_rng, positive=cfg.positive_theta)
            for _ in range(n_theta)
        ]

    def evaluate(theta):
        return evaluate_model(ctx.model, flows_eval, theta, ctx.cf_spec)

    if cfg.mode == "only-me":
        try:
            return evaluate(ctx.theta_fixed), None, degenerate
        except ModelEvaluationFailed:
            return None, None, degenerate

    if not ctx.want_inner:
        try:
            return evaluate(theta_draws[0]), None, degenerate
        except ModelEvaluationFailed:
            return None, None, degenerate

    # Inner sampling for the interval-of-intervals: the first inner draw
    # doubles as this b's outcome draw so the two interval kinds share the
    # same draw set under the same seed.
    gammas = []
    first = None
    first_failed = False
    for m, theta in enumerate(theta_draws):
        try:
            val = evaluate(theta)
        except ModelEvaluationFailed:
            if m == 0:
                first_failed = True
            continue
        if m == 0:
            first = val
        gammas.append(val)
    if first_failed or not gammas:
        return None, None, degenerate
    return first, np.asarray(gammas), degenerate


def _run_chunk(ctx: _LoopContext, draws: Sequence[int]):
    return [(b, _one_draw(ctx, b)) for b in draws]


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
    draws = [r[0] for r in results if r[0] is not None]
    failed = sum(1 for r in results if r[0] is None)
    if failed > cfg.max_failure_fraction * cfg.b or not draws:
        raise TooManyFailures(failed, cfg.b, cfg.max_failure_fraction)
    stacked = np.vstack([np.atleast_1d(d) for d in draws])
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

    intervals = []
    for q in range(stacked.shape[1]):
        col = stacked[:, q]
        if cfg.interval_kind == "c1":
            lo, hi = _clamped_order_stats(
                np.sort(col, kind="stable"), cfg.b, cfg.alpha
            )
            kind = "c1"
        elif cfg.interval_kind == "robust":
            from .robustness import robust_interval

            base = robust_interval(col, cfg.alpha, cfg.robust_c)
            lo, hi, kind = base.lo, base.hi, base.kind
        else:
            lowers, uppers = [], []
            for r in results:
                if r[0] is None:
                    continue
                if r[1] is None:
                    # Point-mass parameter distribution (only-me): the inner
                    # interval degenerates to the draw itself.
                    val = float(np.atleast_1d(r[0])[q])
                    lowers.append(val)
                    uppers.append(val)
                    continue
                s = np.sort(r[1][:, q], kind="stable")
                lo_b, hi_b = _clamped_order_stats(s, cfg.inner_draws, cfg.alpha)
                lowers.append(lo_b)
                uppers.append(hi_b)
            lo, _ = _clamped_order_stats(
                np.sort(np.asarray(lowers), kind="stable"), cfg.b, cfg.alpha
            )
            _, hi = _clamped_order_stats(
                np.sort(np.asarray(uppers), kind="stable"), cfg.b, cfg.alpha
            )
            kind = "c2"
        intervals.append(
            Interval(lo, hi, cfg.alpha, kind, draw_set.draws_used, failed)
        )
    return draw_set, tuple(intervals)


def _prepare_theta_fixed(ctx_estimator, flows_obs, mode):
    if mode != "only-me":
        return None
    if isinstance(ctx_estimator, EstimatorResult):
        return ctx_estimator.theta_hat
    if ctx_estimator is None:
        raise DataError("only-me mode needs an estimator for the point estimate")
    return ctx_estimator(flows_obs).theta_hat


def run_algorithm1(
    flows_obs: FlowMatrix,
    params: CalibratedParams | None,
    estimator: Estimator | EstimatorResult,
    model: ModelFunction,
    cf_spec: CounterfactualSpec,
    cfg: UqConfig,
    smoother: Callable[[FlowMatrix], FlowMatrix] | None = None,
) -> tuple[DrawSet, tuple[Interval, ...]]:
    """General bootstrap: per draw, sample data from the measurement-error
    posterior, sample the parameter from its sampling distribution evaluated
    on that draw, evaluate the model, and build the configured interval.

    Returns the draw set and one interval per outcome coordinate.  Passing
    an :class:`EstimatorResult` instead of a callable estimator uses the
    fixed-external-estimator variant: the parameter is sampled independently
    of the data draw.  Failed model evaluations are skipped and counted;
    more than ``cfg.max_failure_fraction`` of them aborts.

    With a ``smoother`` each drawn matrix is smoothed before the model
    evaluates it.  The parameter is estimated on the unsmoothed draw unless
    ``cfg.smooth_for_estimation`` says otherwise (the procedure is ambiguous
    on this point, so it is a switch).
    """
    if cfg.mode != "only-ee" and params is None:
        raise DataError("data sampling requires calibrated parameters")
    if params is not None and params.has_periods:
        raise DataError("slice per-period parameters with for_period() first")
    ctx = _LoopContext(
        flows_obs=flows_obs,
        params=params,
        estimator=estimator,
        model=model,
        cf_spec=cf_spec,
        cfg=cfg,
        smoother=smoother,
        theta_fixed=_prepare_theta_fixed(estimator, flows_obs, cfg.mode),
        want_inner=cfg.interval_kind == "c2" and cfg.mode != "only-me",
    )
    results = _run_loop(ctx)
    return _compose(ctx, results, flows_obs.labels)


def run_algorithm3(
    flows_obs: FlowMatrix,
    params: CalibratedParams,
    estimator: Estimator,
    model: ModelFunction,
    cf_spec: CounterfactualSpec,
    cfg: UqConfig,
) -> tuple[DrawSet, tuple[Interval, ...]]:
    """Default empirical-Bayes bootstrap: spike-and-slab posterior draws of
    the flows with the parameter re-estimated (and normally sampled) on every
    drawn matrix."""
    if isinstance(estimator, EstimatorResult) or not callable(estimator):
        raise DataError(
            "the default approach re-estimates on each draw; pass a callable"
        )
    return run_algorithm1(flows_obs, params, estimator, model, cf_spec, cfg)


def point_estimate(
    flows_obs: FlowMatrix,
    estimator: Estimator | EstimatorResult,
    model: ModelFunction,
    cf_spec: CounterfactualSpec,
) -> np.ndarray:
    """g evaluated at the observed data and the point estimate."""
    theta = (
        estimator.theta_hat
        if isinstance(estimator, EstimatorResult)
        else estimator(flows_obs).theta_hat
    )
    return evaluate_model(model, flows_obs, theta, cf_spec)
