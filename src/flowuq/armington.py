"""Built-in exact-hat-algebra model: CES/Armington counterfactual equilibrium.

Given baseline flows, an elasticity and proportional trade-cost changes, the
solver finds proportional income changes y_i from the goods-market-clearing
fixed point

    y_i Y_i = sum_j  [ (tau_ij y_i)^(-eps) / sum_k lam_kj (tau_kj y_k)^(-eps) ]
              * lam_ij * E^cf_j ,        E^cf_j = y_j Y_j + (E_j - Y_j),

then recovers proportional share changes and welfare changes
W_i = (lam^cf_ii)^(-1/eps).  Trade deficits are held fixed in level across
equilibria (the convention that keeps the system exactly solvable for any
valid flow matrix; holding the deficit/income ratio fixed instead makes the
equations inconsistent whenever trade is unbalanced, and the two coincide on
balanced data).  Summing the equations shows any solution family is
one-dimensional; we pin it by holding world income fixed
(sum_i y_i Y_i = sum_i Y_i).  With balanced trade the system is homogeneous
and the convention provably cancels in shares and welfare; with deficits,
the fixed deficit levels are denominated in baseline world income, which is
the standard practice this normalization encodes.

The solver is Newton in x = log y on the log defects log(supply_i / y_i Y_i),
with the analytic Jacobian (eps Pi diag(E^cf) Pi' + Pi diag(y Y)) / supply
- (1 + eps) I, Pi = lam^cf * lam, and the world-income normalization in place
of the last equation, which Walras' Law makes redundant.  A step-halving line
search keeps every counterfactual expenditure positive and the squared norm
of the system falling.  When it stalls, or a stage takes more than
``_STAGE_STEPS`` steps, continuation solves smaller shocks tau^s
(s = 1/2, 1/4, ...) and restarts from their solution;
``EquilibriumResult.iterations`` counts Newton steps over all stages.

``solve_counterfactual_many`` is the one implementation: it runs this Newton
for a stack of flow matrices and elasticities at once, solving the k Newton
systems of a step as one stack, while every system keeps its own line
search, continuation stages, step budget and stop reason.  Every slice's
result equals ``solve_counterfactual`` on that slice alone, bit for bit, and
``solve_counterfactual`` is a batch of one.  ``ArmingtonModel.many`` is the
bootstrap's batched entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CounterfactualSpec, FlowMatrix, derive_aggregates, solve_stack
from .errors import (
    DataError,
    FlowUqError,
    InvalidElasticity,
    NoConvergence,
    ZeroDiagonal,
)

_TOL = 1e-10            # sup-norm of the log market-clearing defects
_MAX_STEPS = 100        # Newton steps, summed over the continuation stages
_STAGE_STEPS = 25       # Newton steps a stage may take before the shock narrows
_MAX_HALVINGS = 30      # step halvings before the line search stalls
_MIN_STAGE = 2.0**-20   # narrowest continuation stage


@dataclass(frozen=True)
class EquilibriumResult:
    y_prop: np.ndarray        # proportional income changes, normalized
    lambda_prop: np.ndarray   # proportional share changes lam^cf_ij
    welfare_prop: np.ndarray  # proportional welfare changes W_i
    residual: float           # sup-norm log defect at the solution
    iterations: int           # Newton steps over all continuation stages


def _share_changes(
    log_tau: np.ndarray, log_y: np.ndarray, shares: np.ndarray, epsilon
) -> np.ndarray:
    """lam^cf_ij for a candidate y, computed stably in logs; the arguments may
    carry a leading stack axis."""
    epsilon = np.asarray(epsilon)[..., None, None]
    logp = -epsilon * (log_tau + log_y[..., :, None])
    m = logp.max(axis=-2)
    p = np.exp(logp - m[..., None, :])
    denom = (shares * p).sum(axis=-2)
    return p / denom[..., None, :]


def _defects(log_tau, log_y, shares, income, deficit, epsilon):
    """At a candidate log y: the log market-clearing defects, the Newton system
    (world income in place of the last defect), Pi and E^cf; the arguments may
    carry a leading stack axis.  Meaningful only where every counterfactual
    expenditure E^cf is positive."""
    y_income = np.exp(log_y) * income
    exp_cf = y_income + deficit
    pi = _share_changes(log_tau, log_y, shares, epsilon) * shares
    defect = np.log((pi @ exp_cf[..., None])[..., 0] / y_income)
    world = np.log(y_income.sum(axis=-1) / income.sum(axis=-1))
    system = np.concatenate([defect[..., :-1], world[..., None]], axis=-1)
    return defect, system, pi, exp_cf


def _newton_steps(log_y, pi, exp_cf, income, epsilon, g):
    """Newton steps of a stack of systems at their current points, and the
    mask of the singular systems (their steps are NaN)."""
    y_income = np.exp(log_y) * income
    supply = (pi @ exp_cf[:, :, None])[:, :, 0]
    jac = (epsilon[:, None, None] * (pi * exp_cf[:, None, :])) @ pi.transpose(0, 2, 1)
    jac += pi * y_income[:, None, :]
    jac /= supply[:, :, None]
    jac.reshape(len(jac), -1)[:, :: jac.shape[1] + 1] -= (1.0 + epsilon)[:, None]
    jac[:, -1] = y_income / y_income.sum(axis=1)[:, None]
    step, singular = solve_stack(jac, -g[:, :, None])
    return step[:, :, 0], singular


def _rows(mask: np.ndarray):
    """An index for the rows a mask selects: a plain slice when it selects
    every row, so that the arrays are viewed rather than copied."""
    return slice(None) if mask.all() else mask


def _line_search(log_tau, log_y, step, g, args):
    """Step halving for a stack of Newton steps: each system halves its own
    step, at most ``_MAX_HALVINGS`` times, until the trial point keeps every
    counterfactual expenditure positive and shrinks the squared norm of the
    system.

    Returns the accepted steps, the ``_defects`` at the accepted points (rows
    of the other systems are undefined), the mask of systems that accepted a
    step, and the mask of those that tried a step with positive expenditure.
    """
    k = len(log_y)
    trial = None
    accepted, positive_seen = np.zeros(k, dtype=bool), np.zeros(k, dtype=bool)
    norm = (g * g).sum(axis=1)
    todo = np.ones(k, dtype=bool)
    for _ in range(_MAX_HALVINGS):
        rows = _rows(todo)
        with np.errstate(all="ignore"):  # an overlong step may overflow
            t = _defects(log_tau[rows], log_y[rows] + step[rows], *(a[rows] for a in args))
            positive = (t[3] > 0).all(axis=1)
            ok = positive & ((t[1] * t[1]).sum(axis=1) < norm[rows])
        hit = np.flatnonzero(todo)[ok]
        if trial is None:  # the first attempt covers every system
            trial = t
        else:
            for dest, src in zip(trial, t):
                dest[hit] = src[ok]
        accepted[hit] = True
        positive_seen[rows] |= positive
        todo[hit] = False
        if not todo.any():
            break
        step[todo] *= 0.5
    return step, trial, accepted, positive_seen


def _continuation(log_tau, shares, income, deficit, epsilon):
    """Newton with continuation on tau^s for a stack of systems.

    Each system runs stages of at most ``_STAGE_STEPS`` Newton steps within
    its own budget of ``_MAX_STEPS``.  A stage on the shock tau^s starts from
    the solution of the last solved shock tau^done (y = 1 at first).  When it
    converges at s < 1 the next stage aims at the full shock; when it stops,
    the next one aims halfway between done and s, until the budget is spent
    or the stage would be narrower than ``_MIN_STAGE``.  A stage stops on the
    step cap, a singular Newton system, or a line search that could not
    shrink the system's norm, either because no halved step kept every
    counterfactual expenditure positive ("positivity bound") or because the
    positive ones did not reduce it ("line-search stall").  Each round takes
    one Newton step in every live stage, solving their systems as one stack.

    Returns one entry per system: (log y, residual, steps), or NoConvergence
    whose reason is what stopped the last stage, and also what stopped the
    stage before it when the two differ.
    """
    k, n = income.shape
    out: list = [None] * k
    base = np.zeros((k, n))         # log y at tau^done, where a stage starts
    done, s = np.zeros(k), np.ones(k)
    steps = np.zeros(k, dtype=int)  # Newton steps of the finished stages
    stall: list = [None] * k        # what stopped the last failed stage
    # The unfinished systems' current stages, one row per system in ``ids``.
    ids = np.arange(k)
    args = (shares, income, deficit, epsilon)
    x, lt = np.empty((k, n)), np.empty((k, n, n))  # lt: the stage's s * log tau
    defect, g, pi, exp_cf = np.empty((k, n)), np.empty((k, n)), np.empty((k, n, n)), np.empty((k, n))
    taken, cap = np.zeros(k, dtype=int), np.zeros(k, dtype=int)
    fresh = np.ones(k, dtype=bool)  # rows starting a stage
    while ids.size:
        if fresh.any():
            rows, new = _rows(fresh), ids[fresh]
            lt[rows] = s[new, None, None] * log_tau
            x[rows] = base[new]
            taken[rows] = 0
            cap[rows] = np.minimum(_STAGE_STEPS, _MAX_STEPS - steps[new])
            defect[rows], g[rows], pi[rows], exp_cf[rows] = _defects(
                lt[rows], x[rows], *(a[rows] for a in args)
            )
        residual = np.abs(defect).max(axis=1)
        converged = np.maximum(residual, np.abs(g[:, -1])) <= _TOL
        capped = ~converged & (taken == cap)
        stops = {i: None for i in np.flatnonzero(converged)}
        stops.update({i: "step cap" for i in np.flatnonzero(capped)})
        moving = ~(converged | capped)
        if moving.any():
            rows = _rows(moving)
            _, income, _, epsilon = args
            step, singular = _newton_steps(
                x[rows], pi[rows], exp_cf[rows], income[rows], epsilon[rows], g[rows]
            )
            if singular.any():
                at = np.flatnonzero(moving)[singular]
                stops.update({i: "singular Newton system" for i in at})
                moving[at] = False
                rows, step = _rows(moving), step[~singular]
            step, trial, accepted, positive_seen = _line_search(
                lt[rows], x[rows], step, g[rows], tuple(a[rows] for a in args)
            )
            if not accepted.all():
                at = np.flatnonzero(moving)[~accepted]
                for i, positive in zip(at, positive_seen[~accepted]):
                    stops[i] = "line-search stall" if positive else "positivity bound"
                moving[at] = False
                rows, step = _rows(moving), step[accepted]
                trial = tuple(a[accepted] for a in trial)
            x[rows] += step
            taken[rows] += 1
            defect[rows], g[rows], pi[rows], exp_cf[rows] = trial

        fresh[:] = False
        finished = np.zeros(len(ids), dtype=bool)
        for i, stop in stops.items():
            j = ids[i]
            steps[j] += taken[i]
            if stop is None and s[j] == 1.0:
                out[j] = (x[i].copy(), float(residual[i]), int(steps[j]))
                finished[i] = True
            elif stop is None:
                base[j], done[j], s[j] = x[i], s[j], 1.0
                fresh[i] = True
            elif steps[j] < _MAX_STEPS and s[j] - done[j] > _MIN_STAGE:
                s[j], stall[j] = 0.5 * (done[j] + s[j]), stop
                fresh[i] = True
            else:
                out[j] = NoConvergence(
                    int(steps[j]),
                    float(residual[i]),
                    what="counterfactual solver (continuation solved the shock tau^s "
                    f"up to s = {done[j]:.6g} and failed at s = {s[j]:.6g})",
                    reason=stop if stall[j] in (None, stop) else f"{stop} after {stall[j]}",
                )
                finished[i] = True
        if finished.any():
            keep = ~finished
            ids, x, lt, defect, g, pi, exp_cf, taken, cap, fresh = (
                a[keep] for a in (ids, x, lt, defect, g, pi, exp_cf, taken, cap, fresh)
            )
            args = tuple(a[keep] for a in args)
    return out


def solve_counterfactual(
    flows: FlowMatrix, cf_spec: CounterfactualSpec, epsilon: float
) -> EquilibriumResult:
    """Solve the counterfactual income fixed point and derived changes.

    Parameters
    ----------
    flows : FlowMatrix
        Baseline flows; own flows must be positive (welfare is undefined for
        a zero own share).
    cf_spec : CounterfactualSpec
        Proportional cost changes, diagonal exactly 1.
    epsilon : float
        Trade elasticity, > 0.

    Raises
    ------
    InvalidElasticity, ZeroDiagonal, DataError
    NoConvergence
        When Newton with continuation cannot reach the full shock; the
        message names the last solved share s of the shock tau^s, the share
        it failed at, and what stopped Newton there (``reason``).
    """
    (result,) = solve_counterfactual_many(
        flows.values[None], cf_spec, [epsilon], labels=flows.labels
    )
    if isinstance(result, FlowUqError):
        raise result
    return result


def solve_counterfactual_many(
    values: np.ndarray,
    cf_spec: CounterfactualSpec,
    epsilons,
    labels: tuple[str, ...] = (),
) -> list[EquilibriumResult | FlowUqError]:
    """``solve_counterfactual`` for a (k, n, n) stack of flow matrices over
    the same ``labels``, with one elasticity per matrix.

    Returns one entry per slice: its ``EquilibriumResult``, or the error that
    ``solve_counterfactual`` raises on that slice alone, with the same class
    and message.  A malformed stack raises ``DataError``.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 3 or values.shape[1] != values.shape[2]:
        raise DataError(f"flows must be a (k, n, n) stack, got shape {values.shape}")
    k, n = values.shape[:2]
    epsilons = np.asarray(epsilons, dtype=float)
    if epsilons.shape != (k,):
        raise DataError(f"need {k} elasticities, got shape {epsilons.shape}")
    tau = cf_spec.tau_prop
    if n != cf_spec.n:
        problem = "flow matrix and counterfactual spec sizes differ"
    elif np.max(np.abs(np.diag(tau) - 1.0)) > 1e-12:
        problem = "own trade costs are fixed at 1; diagonal must be 1"
    else:
        problem = None

    # Income, expenditure and shares of the whole stack at once.  A slice
    # that fails any check of the solo path is redone alone, which gives its
    # error that path's class and message.  Positive own shares imply
    # positive income and expenditure.
    income, expenditure = values.sum(axis=2), values.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        shares = values / expenditure[:, None, :]
    fast = (
        ~(epsilons <= 0)
        & np.isfinite(values).all(axis=(1, 2))
        & (values >= 0).all(axis=(1, 2))
        & (np.diagonal(shares, axis1=1, axis2=2) > 0).all(axis=1)
    )
    if problem is not None or (labels and (len(labels) != n or len(set(labels)) != n)):
        fast[:] = False
    results: list = [None] * k
    for j in np.flatnonzero(~fast):
        try:
            if epsilons[j] <= 0:
                raise InvalidElasticity(f"elasticity must be > 0, got {epsilons[j]}")
            if problem is not None:
                raise DataError(problem)
            flows = FlowMatrix(values[j], labels)
            agg = derive_aggregates(flows)
            zero = np.diag(agg.shares) <= 0
            if zero.any():
                bad = [flows.labels[i] for i in np.flatnonzero(zero)]
                raise ZeroDiagonal(f"zero own flow for {bad}")
        except FlowUqError as exc:
            results[j] = exc
    idx = np.array([j for j in range(k) if results[j] is None], dtype=int)
    if not idx.size:
        return results

    shares, income = shares[idx], income[idx]
    deficit = expenditure[idx] - income
    log_tau = np.log(tau)
    solved = _continuation(log_tau, shares, income, deficit, epsilons[idx])
    for j, shares_j, outcome in zip(idx, shares, solved):
        if isinstance(outcome, NoConvergence):
            results[j] = outcome
            continue
        log_y, residual, steps = outcome
        lam_cf = _share_changes(log_tau, log_y, shares_j, epsilons[j])
        cf_share_cols = (lam_cf * shares_j).sum(axis=0)
        if np.max(np.abs(cf_share_cols - 1.0)) > 1e-8:
            results[j] = NoConvergence(steps, residual, what="share reconstruction")
            continue
        results[j] = EquilibriumResult(
            y_prop=np.exp(log_y),
            lambda_prop=lam_cf,
            welfare_prop=np.diag(lam_cf) ** (-1.0 / epsilons[j]),
            residual=residual,
            iterations=steps,
        )
    return results


def welfare_change_pct(result: EquilibriumResult) -> np.ndarray:
    """Percentage welfare changes 100 * (W_i - 1)."""
    return 100.0 * (result.welfare_prop - 1.0)


@dataclass(frozen=True)
class ArmingtonModel:
    """ModelFunction adapter: theta[0] is the trade elasticity, the outcome
    vector is the percentage welfare change of every location.  ``many``
    solves a batch of (flows, theta) pairs through
    ``solve_counterfactual_many``."""

    def __call__(
        self, flows: FlowMatrix, theta: np.ndarray, cf_spec: CounterfactualSpec
    ) -> np.ndarray:
        epsilon = float(np.atleast_1d(theta)[0])
        result = solve_counterfactual(flows, cf_spec, epsilon)
        return welfare_change_pct(result)

    def many(self, flows_seq, thetas, cf_spec: CounterfactualSpec) -> list:
        if not flows_seq:
            return []
        results = solve_counterfactual_many(
            np.stack([flows.values for flows in flows_seq]),
            cf_spec,
            [float(np.atleast_1d(theta)[0]) for theta in thetas],
            labels=flows_seq[0].labels,
        )
        return [
            r if isinstance(r, FlowUqError) else welfare_change_pct(r) for r in results
        ]
