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

A world whose trade graph (i and j linked when either ships to the other)
splits into blocs that trade with no one outside has one such family per
bloc, since each bloc's equations sum to its own Walras' law.  Such a world
is solved bloc by bloc, each holding its own income fixed, which also holds
world income fixed; an autarkic location keeps y = 1 and its welfare.

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

from .core import CounterfactualSpec, FlowMatrix, _rows, solve_stack
from .errors import (
    DataError,
    FlowUqError,
    InvalidElasticity,
    NoConvergence,
    ZeroDiagonal,
    ZeroMarginal,
)
from .gravity import _components

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
    carry a leading stack axis.  The steps work in place on one new grid."""
    epsilon = np.asarray(epsilon)[..., None, None]
    p = log_tau + log_y[..., :, None]
    p *= -epsilon
    p -= p.max(axis=-2)[..., None, :]
    np.exp(p, out=p)
    p /= (shares * p).sum(axis=-2)[..., None, :]
    return p


def _defects(log_tau, log_y, shares, income, deficit, epsilon):
    """At a candidate log y: the log market-clearing defects, the Newton system
    (world income in place of the last defect), Pi and E^cf; the arguments may
    carry a leading stack axis.  Meaningful only where every counterfactual
    expenditure E^cf is positive."""
    y_income = np.exp(log_y) * income
    exp_cf = y_income + deficit
    pi = _share_changes(log_tau, log_y, shares, epsilon)
    pi *= shares
    defect = np.log((pi @ exp_cf[..., None])[..., 0] / y_income)
    world = np.log(y_income.sum(axis=-1) / income.sum(axis=-1))
    system = np.concatenate([defect[..., :-1], world[..., None]], axis=-1)
    return defect, system, pi, exp_cf


def _newton_steps(log_y, pi, exp_cf, income, epsilon, g):
    """Newton steps of a stack of systems at their current points, and the
    mask of the singular systems (their steps are NaN)."""
    y_income = np.exp(log_y) * income
    supply = (pi @ exp_cf[:, :, None])[:, :, 0]
    work = pi * exp_cf[:, None, :]
    work *= epsilon[:, None, None]
    jac = work @ pi.transpose(0, 2, 1)
    jac += np.multiply(pi, y_income[:, None, :], out=work)
    jac /= supply[:, :, None]
    jac.reshape(len(jac), -1)[:, :: jac.shape[1] + 1] -= (1.0 + epsilon)[:, None]
    jac[:, -1] = y_income / y_income.sum(axis=1)[:, None]
    step, singular = solve_stack(jac, -g[:, :, None])
    return step[:, :, 0], singular


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
    # Each system's current stage, one row per system; ``live`` marks the
    # systems not yet finished.
    live = np.ones(k, dtype=bool)
    args = (shares, income, deficit, epsilon)
    x, lt = np.empty((k, n)), np.empty((k, n, n))  # lt: the stage's s * log tau
    defect, g, pi, exp_cf = np.empty((k, n)), np.empty((k, n)), np.empty((k, n, n)), np.empty((k, n))
    taken, cap = np.zeros(k, dtype=int), np.zeros(k, dtype=int)
    fresh = np.ones(k, dtype=bool)  # rows starting a stage
    while live.any():
        if fresh.any():
            rows = _rows(fresh)
            lt[rows] = s[rows, None, None] * log_tau
            x[rows] = base[rows]
            taken[rows] = 0
            cap[rows] = np.minimum(_STAGE_STEPS, _MAX_STEPS - steps[rows])
            defect[rows], g[rows], pi[rows], exp_cf[rows] = _defects(
                lt[rows], x[rows], *(a[rows] for a in args)
            )
        residual = np.abs(defect).max(axis=1)
        converged = live & (np.maximum(residual, np.abs(g[:, -1])) <= _TOL)
        capped = live & ~converged & (taken == cap)
        stops = {i: None for i in np.flatnonzero(converged)}
        stops.update({i: "step cap" for i in np.flatnonzero(capped)})
        moving = live & ~(converged | capped)
        if moving.any():
            rows = _rows(moving)
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
        for i, stop in stops.items():
            steps[i] += taken[i]
            if stop is None and s[i] == 1.0:
                out[i] = (x[i].copy(), float(residual[i]), int(steps[i]))
                live[i] = False
            elif stop is None:
                base[i], done[i], s[i] = x[i], s[i], 1.0
                fresh[i] = True
            elif steps[i] < _MAX_STEPS and s[i] - done[i] > _MIN_STAGE:
                s[i], stall[i] = 0.5 * (done[i] + s[i]), stop
                fresh[i] = True
            else:
                out[i] = NoConvergence(
                    int(steps[i]),
                    float(residual[i]),
                    what="counterfactual solver (continuation solved the shock tau^s "
                    f"up to s = {done[i]:.6g} and failed at s = {s[i]:.6g})",
                    reason=stop if stall[i] in (None, stop) else f"{stop} after {stall[i]}",
                )
                live[i] = False
    return out


def _solve_by_bloc(log_tau, shares, income, deficit, epsilon, blocs):
    """``_continuation`` for one world whose trade graph splits: each bloc of
    locations with the same label in ``blocs`` is solved as its own world.
    Returns (log y, the largest residual, the Newton steps of every bloc), or
    the first bloc's NoConvergence."""
    log_y, residual, steps = np.zeros(len(income)), 0.0, 0
    for label in np.unique(blocs):
        c = np.flatnonzero(blocs == label)
        (outcome,) = _continuation(
            log_tau[np.ix_(c, c)],
            shares[np.ix_(c, c)][None],
            income[c][None],
            deficit[c][None],
            np.array([epsilon]),
        )
        if isinstance(outcome, NoConvergence):
            return outcome
        log_y[c] = outcome[0]
        residual, steps = max(residual, outcome[1]), steps + outcome[2]
    return log_y, residual, steps


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
        Trade elasticity, finite and > 0.

    Raises
    ------
    InvalidElasticity, ZeroDiagonal, DataError
    NoConvergence
        When Newton with continuation cannot reach the full shock; the
        message names the last solved share s of the shock tau^s, the share
        it failed at, and what stopped Newton there (``reason``).
    """
    (result,) = solve_counterfactual_many([flows], cf_spec, [epsilon])
    if isinstance(result, FlowUqError):
        raise result
    return result


def solve_counterfactual_many(
    flows_seq, cf_spec: CounterfactualSpec, epsilons
) -> list[EquilibriumResult | FlowUqError]:
    """``solve_counterfactual`` for a sequence of k ``FlowMatrix`` of one
    size, with one elasticity per matrix.

    Returns one entry per matrix: its ``EquilibriumResult``, or the error
    that ``solve_counterfactual`` raises on that matrix alone, with the same
    class and message.
    """
    values = np.stack([flows.values for flows in flows_seq])
    k, n = values.shape[:2]
    epsilons = np.asarray(epsilons, dtype=float)
    if epsilons.shape != (k,):
        raise DataError(f"need {k} elasticities, got shape {epsilons.shape}")
    tau = cf_spec.tau_prop
    same_size = n == cf_spec.n

    # Income, expenditure and shares of the whole stack at once, for the
    # solve and for the checks.  A slice that fails the fast check is checked
    # again in the solo path's order, which gives its error that path's class
    # and message.  Positive own shares imply positive income and expenditure.
    income, expenditure = values.sum(axis=2), values.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        shares = values / expenditure[:, None, :]
    valid_epsilon = (epsilons > 0) & (epsilons < np.inf)  # NaN fails it
    fast = same_size & valid_epsilon & (np.diagonal(shares, axis1=1, axis2=2) > 0).all(axis=1)
    results: list = [None] * k
    for j in np.flatnonzero(~fast):
        try:
            if not valid_epsilon[j]:
                raise InvalidElasticity(
                    f"elasticity must be finite and > 0, got {epsilons[j]}"
                )
            if not same_size:
                raise DataError("flow matrix and counterfactual spec sizes differ")
            for error, what, zero in (
                (ZeroMarginal, "total income", income[j] == 0),
                (ZeroMarginal, "total expenditure", expenditure[j] == 0),
                (ZeroDiagonal, "own flow", np.diag(shares[j]) <= 0),
            ):
                if zero.any():
                    bad = [flows_seq[j].labels[i] for i in np.flatnonzero(zero)]
                    raise error(f"zero {what} for {bad}")
        except FlowUqError as exc:
            results[j] = exc
    idx = np.array([j for j in range(k) if results[j] is None], dtype=int)
    if not idx.size:
        return results

    shares, income = shares[idx], income[idx]
    deficit = expenditure[idx] - income
    log_tau = np.log(tau)
    # Trade blocs, each labelled by its smallest member: a slice with a
    # nonzero label splits and is solved bloc by bloc.
    blocs = _components(values[idx] > 0)[0]
    whole = (blocs == 0).all(axis=1)
    solved = [None] * len(idx)
    rows = _rows(whole)
    for i, outcome in zip(
        np.flatnonzero(whole),
        _continuation(log_tau, *(a[rows] for a in (shares, income, deficit, epsilons[idx]))),
    ):
        solved[i] = outcome
    for i in np.flatnonzero(~whole):
        solved[i] = _solve_by_bloc(
            log_tau, shares[i], income[i], deficit[i], epsilons[idx[i]], blocs[i]
        )
    # The share and welfare changes of every solved slice as one stack.
    ok = []
    for i, outcome in enumerate(solved):
        if isinstance(outcome, NoConvergence):
            results[idx[i]] = outcome
        else:
            ok.append(i)
    log_y = np.array([solved[i][0] for i in ok]).reshape(len(ok), n)
    eps = epsilons[idx[ok]]
    lam_cf = _share_changes(log_tau, log_y, shares[ok], eps)
    y_prop = np.exp(log_y)
    for r, i in enumerate(ok):
        results[idx[i]] = EquilibriumResult(
            y_prop=y_prop[r],
            lambda_prop=lam_cf[r],
            # A power with a scalar exponent: NumPy rounds x ** -1.0 (at an
            # elasticity of 1) differently from an elementwise power.
            welfare_prop=np.diagonal(lam_cf[r]) ** (-1.0 / eps[r]),
            residual=solved[i][1],
            iterations=solved[i][2],
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
            flows_seq, cf_spec, [float(np.atleast_1d(theta)[0]) for theta in thetas]
        )
        return [
            r if isinstance(r, FlowUqError) else welfare_change_pct(r) for r in results
        ]
