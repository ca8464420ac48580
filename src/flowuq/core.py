"""Shared domain types and the abstract counterfactual-function contract.

The data object throughout is an n-by-n matrix of non-negative dyadic flows
(currency per period, vehicles per day, ...), with the calibrated parameters
of its measurement error (:class:`CalibratedParams`); all operations are
agnostic to the flow unit.  A counterfactual model is any callable mapping
``(flows, theta, cf_spec) -> outcome vector``; the bootstrap engine never
needs to know what the model does internally.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DataError,
    FlowUqError,
    ModelEvaluationFailed,
    NotPSD,
    ZeroMarginal,
)

# A counterfactual model: (flows, theta, cf_spec) -> vector of outcomes.
# Must be deterministic: identical inputs give identical outputs.  A model may
# also have a ``many(flows_seq, thetas, cf_spec)`` method that evaluates a
# batch of (flows, theta) pairs over the same locations at once.  It returns
# a list with one entry per pair: what a call on that pair alone returns, or
# the FlowUqError that call raises.  ``evaluate_model_many`` uses it.
ModelFunction = Callable[["FlowMatrix", np.ndarray, "CounterfactualSpec"], np.ndarray]


def _as_square_matrix(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DataError(f"{name} must be a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{name} contains non-finite entries")
    return arr


def _default_labels(n: int) -> tuple[str, ...]:
    return tuple(str(i) for i in range(n))


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class FlowMatrix:
    """Non-negative dyadic flows between n labelled locations.

    The diagonal holds own flows and may be positive.  Instances are
    immutable after construction and safe to share across workers.
    """

    values: np.ndarray
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        arr = _as_square_matrix(self.values, "flows")
        if np.any(arr < 0):
            raise DataError("flows must be non-negative")
        labels = tuple(self.labels) if self.labels else _default_labels(arr.shape[0])
        if len(labels) != arr.shape[0]:
            raise DataError(
                f"{len(labels)} labels for a {arr.shape[0]}x{arr.shape[0]} matrix"
            )
        if len(set(labels)) != len(labels):
            raise DataError("location labels must be unique")
        object.__setattr__(self, "values", _freeze(arr))
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def replace_values(self, values: np.ndarray) -> "FlowMatrix":
        """New FlowMatrix with the same labels and different entries."""
        return FlowMatrix(values, self.labels)


@dataclass(frozen=True)
class DistanceMatrix:
    """Bilateral distances; strictly positive off the diagonal, symmetry not
    required."""

    values: np.ndarray
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        arr = _as_square_matrix(self.values, "distances")
        off = ~np.eye(arr.shape[0], dtype=bool)
        if np.any(arr[off] <= 0):
            raise DataError("off-diagonal distances must be strictly positive")
        labels = tuple(self.labels) if self.labels else _default_labels(arr.shape[0])
        if len(labels) != arr.shape[0]:
            raise DataError("label count does not match matrix dimension")
        object.__setattr__(self, "values", _freeze(arr))
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class CounterfactualSpec:
    """Proportional trade-cost changes; entries > 0, 1 means unchanged."""

    tau_prop: np.ndarray

    def __post_init__(self):
        arr = _as_square_matrix(self.tau_prop, "counterfactual spec")
        if np.any(arr <= 0):
            raise DataError("proportional cost changes must be strictly positive")
        object.__setattr__(self, "tau_prop", _freeze(arr))

    @property
    def n(self) -> int:
        return self.tau_prop.shape[0]

    @staticmethod
    def uniform_increase(n: int, pct: float) -> "CounterfactualSpec":
        """Raise all off-diagonal costs by ``pct`` (0.1 = 10%), diagonal 1."""
        tau = np.ones((n, n)) + pct * (1.0 - np.eye(n))
        return CounterfactualSpec(tau)


@dataclass(frozen=True)
class EstimatorResult:
    """Point estimate and sampling variance of a structural parameter."""

    theta_hat: np.ndarray
    sigma_hat: np.ndarray

    def __post_init__(self):
        theta = np.atleast_1d(np.asarray(self.theta_hat, dtype=float))
        sigma = np.atleast_2d(np.asarray(self.sigma_hat, dtype=float))
        if theta.ndim != 1:
            raise DataError("theta_hat must be a vector")
        d = theta.shape[0]
        if sigma.shape != (d, d):
            raise DataError(f"sigma_hat must be {d}x{d}, got {sigma.shape}")
        if not np.all(np.isfinite(theta)) or not np.all(np.isfinite(sigma)):
            raise DataError("estimator result contains non-finite entries")
        scale = max(1.0, float(np.max(np.abs(sigma))))
        if np.max(np.abs(sigma - sigma.T)) > 1e-10 * scale:
            raise NotPSD("sigma_hat is not symmetric within 1e-10")
        eigvals = np.linalg.eigvalsh(0.5 * (sigma + sigma.T))
        if eigvals.size and eigvals.min() < -1e-10 * scale:
            raise NotPSD(
                f"sigma_hat has eigenvalue {eigvals.min():.3e} below -1e-10"
            )
        object.__setattr__(self, "theta_hat", _freeze(theta))
        object.__setattr__(self, "sigma_hat", _freeze(sigma))

    @property
    def dim(self) -> int:
        return self.theta_hat.shape[0]


@dataclass(frozen=True)
class CalibratedParams:
    """Calibrated prior and measurement-error parameters, one set per dyad.

    ``mu`` is (n, n) in the baseline regime or (T, n, n) in the mirror-panel
    regime (slice with :meth:`for_period` before sampling).  Shrunk variance
    matrices, when present, take precedence in the posterior.
    """

    p: np.ndarray
    b: np.ndarray
    mu: np.ndarray
    s2: np.ndarray
    sigma2: np.ndarray
    s2_shrunk: np.ndarray | None = None
    sigma2_shrunk: np.ndarray | None = None
    mu_defined: np.ndarray | None = None
    me_observed: np.ndarray | None = None
    labels: tuple[str, ...] = ()
    periods: tuple[int, ...] | None = None

    def __post_init__(self):
        n = np.shape(self.p)[0]
        for name in ("p", "b", "s2", "sigma2", "s2_shrunk", "sigma2_shrunk"):
            arr = getattr(self, name)
            probability = name in ("p", "b")
            if arr is None and not probability:
                continue
            arr = np.asarray(arr, dtype=float)
            if arr.shape != (n, n):
                raise DataError(f"{name} must be {n}x{n}")
            if probability and not np.all((arr >= 0) & (arr <= 1)):  # NaN fails it
                raise DataError(f"{name} entries must be probabilities in [0, 1]")
            if not np.all(arr >= 0):  # NaN fails it
                raise DataError(f"{name} must be non-negative, not NaN")
            object.__setattr__(self, name, _freeze(arr))
        mu = np.asarray(self.mu, dtype=float)
        if mu.shape[-2:] != (n, n) or mu.ndim not in (2, 3):
            raise DataError("mu must be (n, n) or (T, n, n)")
        if mu.ndim == 3:
            if self.periods is None or len(self.periods) != mu.shape[0]:
                raise DataError("per-period mu requires matching periods")
        object.__setattr__(self, "mu", _freeze(mu))
        for name in ("mu_defined", "me_observed"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=bool))
        labels = tuple(self.labels) if self.labels else _default_labels(n)
        if len(labels) != n:
            raise DataError("label count does not match parameter matrices")
        object.__setattr__(self, "labels", labels)
        if self.periods is not None:
            object.__setattr__(self, "periods", tuple(int(t) for t in self.periods))

    @property
    def n(self) -> int:
        return self.p.shape[0]

    @property
    def has_periods(self) -> bool:
        return self.mu.ndim == 3

    def for_period(self, period: int) -> "CalibratedParams":
        """Slice per-period prior means down to a single period."""
        if not self.has_periods:
            return self
        if self.periods is None or period not in self.periods:
            raise DataError(f"period {period} not in calibrated periods")
        t = self.periods.index(period)
        return replace(self, mu=self.mu[t], periods=None)

    def effective_s2(self) -> np.ndarray:
        return self.s2 if self.s2_shrunk is None else self.s2_shrunk

    def effective_sigma2(self) -> np.ndarray:
        return self.sigma2 if self.sigma2_shrunk is None else self.sigma2_shrunk


@dataclass(frozen=True)
class Aggregates:
    """Income, expenditure, deficit ratios and expenditure shares implied by
    a flow matrix."""

    income: np.ndarray        # Y_i = sum_l F_il (row sums)
    expenditure: np.ndarray   # E_i = sum_k F_ki (column sums)
    deficit_ratio: np.ndarray  # kappa_i = (E_i - Y_i) / Y_i
    shares: np.ndarray        # lambda_ij = F_ij / E_j


@dataclass(frozen=True)
class DrawSet:
    """Bootstrap draws of the counterfactual outcome vector.

    ``draws`` has one row per successful draw (ordered by draw index) and one
    column per outcome coordinate.  ``b`` is the requested draw count, so
    ``len(draws) + draws_failed == b``.
    """

    draws: np.ndarray
    b: int
    seed: int
    mode: str  # "only-ee" | "only-me" | "ee+me"
    draws_failed: int = 0
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        arr = np.asarray(self.draws, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.shape[0] == 0:
            raise DataError("a draw set must contain at least one draw")
        if not np.all(np.isfinite(arr)):
            raise DataError(
                "draw sets must be finite; failed draws are counted separately"
            )
        if arr.shape[0] + self.draws_failed != self.b:
            raise DataError("draws_used + draws_failed must equal b")
        labels = tuple(self.labels) if self.labels else _default_labels(arr.shape[1])
        if len(labels) != arr.shape[1]:
            raise DataError("one label per outcome coordinate required")
        object.__setattr__(self, "draws", _freeze(arr))
        object.__setattr__(self, "labels", labels)

    @property
    def draws_used(self) -> int:
        return self.draws.shape[0]

    @property
    def n_outcomes(self) -> int:
        return self.draws.shape[1]

    def column(self, q: int) -> np.ndarray:
        return self.draws[:, q]


def derive_aggregates(flows: FlowMatrix) -> Aggregates:
    """Income Y_i, expenditure E_i, deficit ratio kappa_i and expenditure
    shares lambda_ij implied by a flow matrix.

    Raises ZeroMarginal when any Y_i or E_j is zero, since kappa and the
    shares are then undefined.
    """
    f = flows.values
    income = f.sum(axis=1)
    expenditure = f.sum(axis=0)
    if np.any(income == 0):
        bad = [flows.labels[i] for i in np.flatnonzero(income == 0)]
        raise ZeroMarginal(f"zero total income for {bad}")
    if np.any(expenditure == 0):
        bad = [flows.labels[j] for j in np.flatnonzero(expenditure == 0)]
        raise ZeroMarginal(f"zero total expenditure for {bad}")
    kappa = (expenditure - income) / income
    shares = f / expenditure[None, :]
    return Aggregates(
        income=_freeze(income),
        expenditure=_freeze(expenditure),
        deficit_ratio=_freeze(kappa),
        shares=_freeze(shares),
    )


def evaluate_model(
    g: ModelFunction,
    flows: FlowMatrix,
    theta: np.ndarray,
    cf_spec: CounterfactualSpec,
) -> np.ndarray:
    """Evaluate a counterfactual model, converting any model error into a
    structured ModelEvaluationFailed.

    The bootstrap engine relies on this: a non-converged or otherwise failed
    evaluation must surface as a skippable failure, never as a bogus value.
    """
    out = _checked_outcome(_call_model(g, flows, _as_theta(theta), cf_spec))
    if isinstance(out, ModelEvaluationFailed):
        raise out
    return out


def evaluate_model_many(
    g: ModelFunction,
    flows_seq: Sequence[FlowMatrix],
    thetas: Sequence[np.ndarray],
    cf_spec: CounterfactualSpec,
) -> list[np.ndarray | ModelEvaluationFailed]:
    """``evaluate_model`` on each (flows, theta) pair, through the model's
    ``many`` when it has one and one call per pair otherwise.  A failed pair
    gets its ModelEvaluationFailed in place of an outcome vector."""
    thetas = [_as_theta(theta) for theta in thetas]
    many = getattr(g, "many", None)
    if many is not None:
        raw = many(flows_seq, thetas, cf_spec)
    else:
        raw = [_call_model(g, f, theta, cf_spec) for f, theta in zip(flows_seq, thetas)]
    return [_checked_outcome(out) for out in raw]


def _as_theta(theta) -> np.ndarray:
    return np.atleast_1d(np.asarray(theta, dtype=float))


def _call_model(g, flows, theta, cf_spec):
    """The model's outcome, or the FlowUqError it raised."""
    try:
        return g(flows, theta, cf_spec)
    except FlowUqError as exc:
        return exc


def _checked_outcome(out) -> np.ndarray | ModelEvaluationFailed:
    """A model's raw result as a finite outcome vector, or the failure."""
    if isinstance(out, ModelEvaluationFailed):
        return out
    if isinstance(out, FlowUqError):
        failure = ModelEvaluationFailed(f"{type(out).__name__}: {out}")
        failure.__cause__ = out
        return failure
    out = np.atleast_1d(np.asarray(out, dtype=float))
    if not np.all(np.isfinite(out)):
        return ModelEvaluationFailed("model returned non-finite outcomes")
    return out


def solve_stack(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.solve`` on a stack of systems, (k, n, n) and (k, n, m),
    where a singular system fails alone.

    Returns the solutions and a (k,) mask of the singular systems, whose
    solutions are NaN.  When the stacked solve raises, every system is solved
    alone; LAPACK solves each slice of a stack as it solves that slice by
    itself, so the other solutions do not depend on the stack.
    """
    try:
        return np.linalg.solve(a, b), np.zeros(len(a), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    x = np.full(b.shape, np.nan)
    singular = np.zeros(len(a), dtype=bool)
    for j in range(len(a)):
        try:
            x[j] = np.linalg.solve(a[j], b[j])
        except np.linalg.LinAlgError:
            singular[j] = True
    return x, singular


class IdentityModel:
    """Trivial model g(D, theta) = theta; used for testing plumbing."""

    def __call__(
        self, flows: FlowMatrix, theta: np.ndarray, cf_spec: CounterfactualSpec
    ) -> np.ndarray:
        return np.atleast_1d(np.asarray(theta, dtype=float))
