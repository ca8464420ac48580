"""Order-statistic intervals of bootstrap draws, and rank comparisons.

Every interval kind uses one rule, :func:`endpoints`: sort the draws and take
those at ranks floor(L * B * (1 + 1e-12)) and ceil(U * B * (1 - 1e-12)),
counted from 1.  The slack is relative, so an integer L * B gives its own
rank at any B.  (L, U) = ``robust_interval_levels(alpha, c)`` are the robust
quantile levels for a density-ratio factor c, finite and >= 1, and B is the
nominal draw count.

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

The engine checks a kind against its draw counts with :func:`check_kind` and
builds every kind with :func:`compose`, which ranks on the nominal counts;
:func:`kind_name` names a kind in ``interval.json``.
When draws failed, each rank is clamped to the draws present, as if every
failed draw lay above them: the widest upper endpoint, the narrowest lower.
An :class:`Interval` is its two endpoints; the level, kind and draw counts
stay with the run's configuration and draw set.  :func:`rank_reversals`
compares the columns of a draw set pair by pair.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import DrawSet
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
    lo_rank = math.floor(lower * b * (1 + 1e-12))
    if lo_rank < 1:
        raise TooFewDraws(
            f"need B * {lower:.4g} >= 1 to resolve the lower tail at c = {c:g} (B = {b})"
        )
    return lo_rank, math.ceil(upper * b * (1 - 1e-12))


def endpoints(draws, alpha: float, c: float = 1.0, b: int | None = None):
    """Lower and upper endpoints of the draws along axis 0 of a (B,) or
    (B, q) array at the robust levels for factor ``c`` (c = 1: equal-tailed),
    ranked on ``b`` nominal draws (default: the draws given) and clamped into
    the draws present.  Ties are broken by a stable sort."""
    s = np.sort(np.asarray(draws, dtype=float), axis=0, kind="stable")
    used = s.shape[0]
    if used == 0:
        raise TooFewDraws("no draws to take endpoints of")
    lo_rank, hi_rank = _ranks(alpha, c, used if b is None else b)
    return s[min(lo_rank, used) - 1], s[min(hi_rank, used) - 1]


# ---------------------------------------------------------------------------
# Interval kinds


INTERVAL_KINDS = ("c1", "c2", "robust")


def check_kind(alpha: float, kind: str, c: float, b: int, b_inner: int) -> None:
    """Refuse an interval kind that ``b`` draws (and ``b_inner`` inner draws
    for c2) cannot resolve: an unknown kind, alpha outside (0, 1), c not
    finite and >= 1, alpha/2 * B off the integer grid, or a robust lower
    tail below the first draw."""
    if kind not in INTERVAL_KINDS:
        raise DataError(f"interval kind must be one of {INTERVAL_KINDS}")
    robust_interval_levels(alpha, c)
    _check_grid(b, alpha)
    if kind == "c2":
        _check_grid(b_inner, alpha)
    elif kind == "robust":
        _ranks(alpha, c, b)


def kind_name(kind: str, c: float) -> str:
    """The interval kind as ``interval.json`` names it: ``"c1"``, ``"c2"``
    or ``"robust(c=...)"``."""
    return f"robust(c={c:g})" if kind == "robust" else kind


def compose(
    per_draw: Sequence[np.ndarray], alpha: float, kind: str, c: float, b: int, b_inner: int
) -> tuple[Interval, ...]:
    """One interval per outcome from ``per_draw``, each kept draw's (m, q)
    outcomes of its parameter draws that evaluated, the draw's own first.
    c1 and robust rank the first rows on ``b``; c2 ranks each draw's rows on
    ``b_inner``, then its lower and upper bounds on ``b``."""
    if kind == "c2":
        inner = [endpoints(rows, alpha, 1.0, b_inner) for rows in per_draw]
        lowers, uppers = map(np.array, zip(*inner))
        lo, _ = endpoints(lowers, alpha, 1.0, b)
        _, hi = endpoints(uppers, alpha, 1.0, b)
    else:
        first = np.array([rows[0] for rows in per_draw])
        lo, hi = endpoints(first, alpha, c if kind == "robust" else 1.0, b)
    return tuple(Interval(float(x), float(y)) for x, y in zip(lo, hi))


# ---------------------------------------------------------------------------
# Rank comparisons


def rank_reversals(draw_set: DrawSet) -> list[dict]:
    """The ``ranks.json`` pairs of a draw set's columns, in column order,
    each keyed in this order: the higher by draw mean (the first on a tie),
    the lower, how often the higher's draw is below (a reversal) or equal to
    the lower's, and both means."""
    labels = draw_set.labels
    if len(labels) < 2:
        raise DataError("need at least two outcome columns to compare ranks")
    columns = draw_set.draws.T
    pairs = []
    for a, b in itertools.combinations(range(len(labels)), 2):
        # Order by draw mean; a reversal is a strict flip of that order.
        if columns[a].mean() < columns[b].mean():
            a, b = b, a
        hi, lo = columns[a], columns[b]
        pairs.append(
            {
                "higher": labels[a],
                "lower": labels[b],
                "reversal_frequency": float(np.mean(hi < lo)),
                "tie_frequency": float(np.mean(hi == lo)),
                "mean_higher": float(hi.mean()),
                "mean_lower": float(lo.mean()),
            }
        )
    return pairs
