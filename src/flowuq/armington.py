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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CounterfactualSpec, FlowMatrix, derive_aggregates
from .errors import DataError, InvalidElasticity, NoConvergence, ZeroDiagonal

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
    log_tau: np.ndarray, log_y: np.ndarray, shares: np.ndarray, epsilon: float
) -> np.ndarray:
    """lam^cf_ij for a candidate y, computed stably in logs."""
    logp = -epsilon * (log_tau + log_y[:, None])
    m = logp.max(axis=0)
    p = np.exp(logp - m[None, :])
    denom = (shares * p).sum(axis=0)
    return p / denom[None, :]


def _defects(log_tau, log_y, shares, income, deficit, epsilon):
    """At a candidate log y: the log market-clearing defects, the Newton system
    (world income in place of the last defect), Pi and E^cf; None when some
    counterfactual expenditure is not positive."""
    y_income = np.exp(log_y) * income
    exp_cf = y_income + deficit
    if not np.all(exp_cf > 0):
        return None
    pi = _share_changes(log_tau, log_y, shares, epsilon) * shares
    defect = np.log(pi @ exp_cf / y_income)
    system = np.append(defect[:-1], np.log(y_income.sum() / income.sum()))
    return defect, system, pi, exp_cf


def _newton(log_tau, log_y, shares, income, deficit, epsilon, max_steps):
    """Newton with line search from log_y, a point with positive expenditure.
    Returns (log_y, residual, steps, stop): ``stop`` is None on convergence,
    else why Newton stopped -- the step cap, a singular Newton system, or a
    line search that could not shrink the system's norm, either because no
    halved step kept every counterfactual expenditure positive ("positivity
    bound") or because the positive ones did not reduce it ("line-search
    stall")."""
    args = (shares, income, deficit, epsilon)
    defect, g, pi, exp_cf = _defects(log_tau, log_y, *args)
    for steps in range(max_steps + 1):
        residual = float(np.max(np.abs(defect)))
        if max(residual, abs(g[-1])) <= _TOL:
            return log_y, residual, steps, None
        if steps == max_steps:
            return log_y, residual, steps, "step cap"
        y_income = np.exp(log_y) * income
        jac = (epsilon * (pi * exp_cf) @ pi.T + pi * y_income) / (pi @ exp_cf)[:, None]
        jac[np.diag_indices_from(jac)] -= 1.0 + epsilon
        jac[-1] = y_income / y_income.sum()
        try:
            step = np.linalg.solve(jac, -g)
        except np.linalg.LinAlgError:
            return log_y, residual, steps, "singular Newton system"
        positive = False
        for _ in range(_MAX_HALVINGS):
            with np.errstate(all="ignore"):  # an overlong step may overflow
                trial = _defects(log_tau, log_y + step, *args)
                if trial is not None and trial[1] @ trial[1] < g @ g:
                    break
            positive = positive or trial is not None
            step = 0.5 * step
        else:
            return log_y, residual, steps, "line-search stall" if positive else "positivity bound"
        log_y, (defect, g, pi, exp_cf) = log_y + step, trial


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
    if epsilon <= 0:
        raise InvalidElasticity(f"elasticity must be > 0, got {epsilon}")
    if flows.n != cf_spec.n:
        raise DataError("flow matrix and counterfactual spec sizes differ")
    tau = cf_spec.tau_prop
    if np.max(np.abs(np.diag(tau) - 1.0)) > 1e-12:
        raise DataError("own trade costs are fixed at 1; diagonal must be 1")

    agg = derive_aggregates(flows)
    if np.any(np.diag(agg.shares) <= 0):
        bad = [flows.labels[i] for i in np.flatnonzero(np.diag(agg.shares) <= 0)]
        raise ZeroDiagonal(f"zero own flow for {bad}")

    args = (agg.shares, agg.income, agg.expenditure - agg.income, epsilon)
    log_tau = np.log(tau)
    # Continuation: when Newton stalls on the shock tau^s, the next stage
    # starts from the last solved shock tau^done and aims halfway back.
    # ``stall`` is what stopped the last stage that failed before the current
    # one, reported along with the final stop when the two differ.
    log_y, done, s, steps, stall = np.zeros(flows.n), 0.0, 1.0, 0, None
    while True:
        log_y_s, residual, k, stop = _newton(
            s * log_tau, log_y, *args, min(_STAGE_STEPS, _MAX_STEPS - steps)
        )
        steps += k
        if stop is None and s == 1.0:
            break
        if stop is None:
            log_y, done, s = log_y_s, s, 1.0
        elif steps < _MAX_STEPS and s - done > _MIN_STAGE:
            s, stall = 0.5 * (done + s), stop
        else:
            raise NoConvergence(
                steps,
                residual,
                what="counterfactual solver (continuation solved the shock tau^s "
                f"up to s = {done:.6g} and failed at s = {s:.6g})",
                reason=stop if stall in (None, stop) else f"{stop} after {stall}",
            )

    lam_cf = _share_changes(log_tau, log_y_s, agg.shares, epsilon)
    cf_share_cols = (lam_cf * agg.shares).sum(axis=0)
    if np.max(np.abs(cf_share_cols - 1.0)) > 1e-8:
        raise NoConvergence(steps, residual, what="share reconstruction")

    return EquilibriumResult(
        y_prop=np.exp(log_y_s),
        lambda_prop=lam_cf,
        welfare_prop=np.diag(lam_cf) ** (-1.0 / epsilon),
        residual=residual,
        iterations=steps,
    )


def welfare_change_pct(result: EquilibriumResult) -> np.ndarray:
    """Percentage welfare changes 100 * (W_i - 1)."""
    return 100.0 * (result.welfare_prop - 1.0)


@dataclass(frozen=True)
class ArmingtonModel:
    """ModelFunction adapter: theta[0] is the trade elasticity, the outcome
    vector is the percentage welfare change of every location."""

    def __call__(
        self, flows: FlowMatrix, theta: np.ndarray, cf_spec: CounterfactualSpec
    ) -> np.ndarray:
        epsilon = float(np.atleast_1d(theta)[0])
        result = solve_counterfactual(flows, cf_spec, epsilon)
        return welfare_change_pct(result)
