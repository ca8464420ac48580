"""Independent reference implementations used to check the library.

These deliberately avoid the code paths they verify: the equilibrium oracle
uses a general nonlinear least-squares root finder instead of the package's
Newton iteration on the log market-clearing defects, the posterior oracle
does numerical Bayes on a grid instead of conjugate algebra, the variance
oracle enumerates dyad pairs instead of node sums, and the fixed-effects
regressions are rebuilt on a dense dummy design instead of the library's
concentrated projection, and the params.json document is built as a dict
for ``json.dumps`` instead of the library's streaming writer.
"""

from __future__ import annotations

import numpy as np
from scipy import optimize


def armington_oracle(flows: np.ndarray, tau_prop: np.ndarray, epsilon: float):
    """Solve the counterfactual system with a dense least-squares root find
    at tight tolerance; returns (y, lambda_cf, welfare).

    All n market-clearing equations (deficits fixed in level) plus the
    world-income normalization are solved jointly; the residual must vanish
    to near machine precision or the oracle aborts.
    """
    f = np.asarray(flows, dtype=float)
    n = f.shape[0]
    income = f.sum(axis=1)
    expenditure = f.sum(axis=0)
    deficit = expenditure - income
    lam = f / expenditure[None, :]

    def shares_cf(y):
        # least_squares probes very large y on the way; the power overflows
        # there, and the residual check below judges the root it returns.
        with np.errstate(over="ignore"):
            p = (tau_prop * y[:, None]) ** (-epsilon)
        return p / (lam * p).sum(axis=0)[None, :]

    def equations(y):
        lcf = shares_cf(y)
        r = y * income - (lcf * lam) @ (y * income + deficit)
        return np.append(r, y @ income - income.sum())

    sol = optimize.least_squares(
        equations, np.ones(n), xtol=1e-15, ftol=1e-15, gtol=1e-15
    )
    resid = equations(sol.x)
    assert np.max(np.abs(resid)) < 1e-10 * max(1.0, income.sum()), resid
    y = sol.x
    lcf = shares_cf(y)
    welfare = np.diag(lcf) ** (-1.0 / epsilon)
    return y, lcf, welfare


def posterior_grid_oracle(
    f_obs: float, mu: float, s2: float, sigma2: float, points: int = 10_000
):
    """Numerical Bayes update of a normal prior on log F with a normal
    likelihood for log F-tilde; returns grid posterior (mean, variance)."""
    log_f = np.log(f_obs)
    lo = min(mu - 8 * np.sqrt(s2), log_f - 8 * np.sqrt(sigma2))
    hi = max(mu + 8 * np.sqrt(s2), log_f + 8 * np.sqrt(sigma2))
    x = np.linspace(lo, hi, points)
    log_post = -0.5 * (x - mu) ** 2 / s2 - 0.5 * (log_f - x) ** 2 / sigma2
    w = np.exp(log_post - log_post.max())
    w /= w.sum()
    mean = float(w @ x)
    var = float(w @ (x - mean) ** 2)
    return mean, var


def dyadic_meat_enumeration(scores: np.ndarray, oidx: np.ndarray, didx: np.ndarray):
    """Sum s_d s_e' over every ordered pair of dyads sharing >= 1 location."""
    m, k = scores.shape
    meat = np.zeros((k, k))
    for d in range(m):
        nodes_d = {int(oidx[d]), int(didx[d])}
        for e in range(m):
            if nodes_d & {int(oidx[e]), int(didx[e])}:
                meat += np.outer(scores[d], scores[e])
    return meat


def dyad_indices(n: int, include_diagonal: bool = False):
    """Row-major (origin, destination) index arrays for all dyads."""
    oidx, didx = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    oidx, didx = oidx.ravel(), didx.ravel()
    if not include_diagonal:
        keep = oidx != didx
        oidx, didx = oidx[keep], didx[keep]
    return oidx, didx


def twoway_design(oidx, didx, n: int, extra=None) -> np.ndarray:
    """Dense design [extra | origin dummies 1..n-1 | destination dummies
    0..n-1] for dyads (oidx, didx); the first origin effect is dropped."""
    m = len(oidx)
    cols = 0 if extra is None else 1
    x = np.zeros((m, cols + 2 * n - 1))
    if extra is not None:
        x[:, 0] = extra
    for row, (o, d) in enumerate(zip(oidx, didx)):
        if o > 0:
            x[row, cols + o - 1] = 1.0
        x[row, cols + n - 1 + d] = 1.0
    return x


def ppml_scores_bread(y, mu, x):
    """Per-dyad PPML scores (y - mu) x and the inverse Hessian of the
    pseudo-likelihood, (x' diag(mu) x)^-1, on a dense design."""
    scores = (y - mu)[:, None] * x
    bread = np.linalg.inv(x.T @ (mu[:, None] * x))
    return scores, bread


def normal_equations_ols(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """OLS through the literal normal equations."""
    return np.linalg.solve(x.T @ x, x.T @ y)


def simulate_mirror_zeros(
    p: float, b: float, t: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Forward-simulate one dyad's pair of zero/positive report indicators."""
    true_zero = rng.random(t) < p
    spur1 = rng.random(t) < b
    spur2 = rng.random(t) < b
    r1 = np.where(true_zero | spur1, 0.0, 1.0)
    r2 = np.where(true_zero | spur2, 0.0, 1.0)
    return r1, r2


def params_json_doc(params) -> dict:
    """The params.json document of calibrated parameters as a plain dict:
    one entry per dyad keyed ``"origin->destination"``, NaN as None, optional
    matrices only when present, and ``mu`` keyed by period text when the
    means are per period."""

    def num(x):
        x = float(x)
        return None if np.isnan(x) else x

    dyads = {}
    for i, o in enumerate(params.labels):
        for j, d in enumerate(params.labels):
            entry = {name: num(getattr(params, name)[i, j]) for name in ("p", "b", "s2", "sigma2")}
            for name in ("s2_shrunk", "sigma2_shrunk"):
                if getattr(params, name) is not None:
                    entry[name] = num(getattr(params, name)[i, j])
            for name in ("mu_defined", "me_observed"):
                if getattr(params, name) is not None:
                    entry[name] = bool(getattr(params, name)[i, j])
            if params.has_periods:
                entry["mu"] = {str(t): num(params.mu[k, i, j]) for k, t in enumerate(params.periods)}
            else:
                entry["mu"] = num(params.mu[i, j])
            dyads[f"{o}->{d}"] = entry
    periods = None if params.periods is None else list(params.periods)
    return {"labels": list(params.labels), "periods": periods, "dyads": dyads}
