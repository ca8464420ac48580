"""Order-statistic intervals of bootstrap draws.

Every interval kind uses one rule.  Sort the draws.  The lower endpoint is
the draw at rank floor(L * B + 1e-12), the upper endpoint the draw at rank
ceil(U * B - 1e-12).  Ranks count from 1.  (L, U) =
``robust_interval_levels(alpha, c)`` are the robust quantile levels for a
density-ratio factor c, finite and >= 1, and B is the nominal draw count.

* ``c1``, equal-tailed: the rule at c = 1, where (L, U) = (alpha/2,
  1 - alpha/2).  B and alpha must put alpha/2 * B on the integer grid, so
  the endpoints are bona fide order statistics.
* ``c2``, the interval of intervals: the rule at c = 1 on each draw's inner
  draws gives one (lower, upper) pair per draw.  The interval is the lower
  endpoint of the lower bounds and the upper endpoint of the upper bounds.
* ``robust(c)``: the rule at the robust levels for c >= 1.  If the true
  likelihood (or prior) is within a multiplicative factor c of the assumed
  log-normal one, posterior quantiles can move as far as these relabelled
  levels, so a robust interval is wider empirical quantiles of the same
  draws.  At c = 1 it equals c1.

The public functions take B to be the number of draws they are given.  The
bootstrap engine passes the nominal B of its configuration (and the nominal
inner draw count for c2's inner draws).  When draws failed, fewer draws are
present than B, and each rank is clamped to the number present.  This acts
as if every failed draw lay above all the present draws.  For the upper
endpoint that is the widest choice.  For the lower endpoint it is the
narrowest: the lower rank keeps its nominal value among fewer draws.

An :class:`Interval` is its two endpoints.  The level, the kind and the draw
counts are the same for every outcome of a bootstrap run, so they stay with
the run's configuration and draw set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BadQuantileGrid, DataError, TooFewDraws


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise DataError("interval endpoints out of order")


# ---------------------------------------------------------------------------
# Density-ratio-class quantile levels


def robust_quantile_levels(alpha_tail: float, c: float) -> tuple[float, float]:
    """Worst-case relabelling of a single quantile level.

    For the alpha_tail-quantile under any likelihood within factor c of the
    assumed one, the infimum is the nominal alpha/(alpha + (1-alpha) c^2)
    quantile and the supremum the alpha c^2/(1-alpha + alpha c^2) quantile.
    c = 1 returns (alpha, alpha): robust equals nominal.
    """
    if not 0 < alpha_tail < 1:
        raise DataError("quantile level must be in (0, 1)")
    if not 1 <= c < math.inf:  # NaN fails it
        raise DataError(f"density-ratio bound c must be finite and >= 1, got c = {c}")
    c2 = c * c
    inf_level = alpha_tail / (alpha_tail + (1.0 - alpha_tail) * c2)
    sup_level = alpha_tail * c2 / (1.0 - alpha_tail + alpha_tail * c2)
    return inf_level, sup_level


def robust_interval_levels(alpha: float, c: float) -> tuple[float, float]:
    """Quantile levels (lower, upper) of the robust two-sided interval for
    coverage 1 - alpha: the infimum of the alpha/2-quantile and the supremum
    of the (1-alpha/2)-quantile.  They bracket the nominal levels."""
    if not 0 < alpha < 1:
        raise DataError("alpha must be in (0, 1)")
    lower = robust_quantile_levels(alpha / 2.0, c)[0]
    upper = robust_quantile_levels(1.0 - alpha / 2.0, c)[1]
    if not lower <= alpha / 2.0 <= 1.0 - alpha / 2.0 <= upper:
        raise DataError(f"robust levels at c = {c:g} must bracket the nominal levels")
    return lower, upper


# ---------------------------------------------------------------------------
# The order-statistic rule


def _check_grid(b: int, alpha: float) -> None:
    """Raise BadQuantileGrid unless alpha/2 * b is a positive integer."""
    lo = alpha / 2.0 * b
    if abs(lo - round(lo)) > 1e-9 or round(lo) < 1:
        raise BadQuantileGrid(
            f"alpha/2 * B = {lo:g} is not a positive integer; "
            "choose B and alpha so the order statistics exist"
        )


def _ranks(alpha: float, c: float, b: int) -> tuple[int, int]:
    """Ranks (from 1) of the lower and upper endpoints among ``b`` draws at
    the robust levels for factor ``c``."""
    lower, upper = robust_interval_levels(alpha, c)
    lo_rank = math.floor(lower * b + 1e-12)
    if lo_rank < 1:
        raise TooFewDraws(
            f"need B * {lower:.4g} >= 1 to resolve the lower tail at c = {c:g} (B = {b})"
        )
    return lo_rank, math.ceil(upper * b - 1e-12)


def _order_stats(draws: np.ndarray, alpha: float, c: float, b: int):
    """Lower and upper endpoints of the draws along axis 0 at the robust
    levels for factor ``c``, ranked on ``b`` nominal draws and clamped into
    the draws present.  Ties are broken by a stable sort."""
    lo_rank, hi_rank = _ranks(alpha, c, b)
    s = np.sort(draws, axis=0, kind="stable")
    used = s.shape[0]
    return s[min(lo_rank, used) - 1], s[min(hi_rank, used) - 1]


def interval_c1(draws: Sequence[float], alpha: float) -> Interval:
    """Equal-tailed interval from the (a/2*B)-th and ((1-a/2)*B)-th order
    statistics of the draws (1-indexed; ties broken by stable sort)."""
    arr = np.asarray(draws, dtype=float)
    if arr.ndim != 1:
        raise DataError("interval_c1 expects a one-dimensional draw set")
    _check_grid(arr.shape[0], alpha)
    lo, hi = _order_stats(arr, alpha, 1.0, arr.shape[0])
    return Interval(float(lo), float(hi))


def interval_c2(
    per_draw_intervals: Sequence[tuple[float, float]], alpha: float
) -> Interval:
    """Conservative interval-of-intervals: the a/2 quantile of the lower
    bounds paired with the 1-a/2 quantile of the upper bounds."""
    arr = np.asarray(per_draw_intervals, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise DataError("interval_c2 expects (lower, upper) pairs")
    _check_grid(arr.shape[0], alpha)
    lo, _ = _order_stats(arr[:, 0], alpha, 1.0, arr.shape[0])
    _, hi = _order_stats(arr[:, 1], alpha, 1.0, arr.shape[0])
    return Interval(float(lo), float(hi))


def robust_interval(draws, alpha: float, c: float) -> Interval:
    """Empirical quantiles of the draws at the robust levels.

    Contains the nominal equal-tailed interval for every c >= 1 and is
    monotone in c on a fixed draw set.  Raises TooFewDraws when the lower
    level cannot be resolved (B * level < 1).
    """
    arr = np.asarray(draws, dtype=float)
    if arr.ndim != 1:
        raise DataError("robust_interval expects a one-dimensional draw set")
    lo, hi = _order_stats(arr, alpha, c, arr.shape[0])
    return Interval(float(lo), float(hi))
