"""Structural-parameter estimation from dyadic flows.

Every regression here has origin and destination fixed effects, and all of
them go through one weighted two-way projection on the n x n grid,
``_twoway_fe``.  It concentrates the origin effects out of the normal
equations and solves the remaining destination block (the Frisch-Waugh-
Lovell concentration of ppmlhdfe), so no dummy design is ever built and a
slope is the regression of one partialled variable on another.

* ``fit_ppml`` -- Poisson pseudo-maximum-likelihood with origin and
  destination fixed effects, robust to zero flows.  Each iteratively
  reweighted least-squares step partials log cost and the working response
  on the fixed effects with weights mu and regresses one on the other.  The
  negated coefficient on log cost is the trade elasticity.  Its sampling
  variance is built from the per-dyad influence values
  psi = x~ (y - mu) / h, where x~ is log cost partialled with the final
  weights and h = sum mu x~^2.  The dyadic variance sums psi_d psi_e over
  every ordered pair of dyads sharing at least one location (each dyad with
  itself and with its mirror included).
* ``fit_log_gravity`` -- least squares of log flows on log distance plus
  two-way fixed effects, restricted to positive flows.  This is the
  workhorse behind the empirical-Bayes prior means.

``sample_theta`` draws structural parameters from the normal (or log-normal,
for parameters known to be positive) sampling distribution of an estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DistanceMatrix, EstimatorResult, FlowMatrix
from .errors import (
    Collinear,
    DataError,
    InsufficientData,
    NoConvergence,
    NotPSD,
    Separation,
)

_FE_DIVERGENCE_BOUND = 30.0


def dyad_indices(n: int, include_diagonal: bool = False):
    """Row-major (origin, destination) index arrays for all dyads."""
    oidx, didx = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    oidx, didx = oidx.ravel(), didx.ravel()
    if not include_diagonal:
        keep = oidx != didx
        oidx, didx = oidx[keep], didx[keep]
    return oidx, didx


def _twoway_fe(w: np.ndarray, v: np.ndarray, labels: tuple[np.ndarray, np.ndarray]):
    """Weighted projection of values on origin and destination fixed effects.

    ``w`` (n, n) holds the weights, zero outside the sample; ``v`` (n, n, k)
    holds k finite value columns, ignored outside the sample; ``labels`` are
    the sample's component labels from ``_components(w > 0)``.  Each column
    gets the minimiser of sum w_ij (v_ij - a_i - b_j)^2.  With r and c the
    row and column sums of w, and p and q those of w * v, the origin effects
    are a = (p - w b) / r, which leaves the destination block

        (diag(c) - w' diag(1/r) w) b = q - w' diag(1/r) p.

    That block is singular along the destination indicator of each connected
    component of the sample (origins and destinations joined by sampled
    dyads; an absent location is a component of its own).  Adding those
    indicators makes it regular without moving the fitted values.

    Returns ``(a, b, linked)``: effects of shape (n, k), normalised to
    a[0] = 0 on the component of origin 0 and to zero-sum destination effects
    on every other component, zero for absent locations; and the (n, n) mask
    of dyads whose fitted value a_i + b_j is identified, their origin and
    destination lying in one component.
    """
    comp_o, comp_d = labels
    r = w.sum(axis=1)
    r = np.where(r > 0, r, 1.0)[:, None]  # an absent origin has a zero row
    c = w.sum(axis=0)
    wv = w[:, :, None] * v
    p, q = wv.sum(axis=1), wv.sum(axis=0)
    w_r = w / r
    schur = np.diag(c) - w.T @ w_r
    schur += (c.max() or 1.0) * (comp_d[:, None] == comp_d[None, :])
    b = np.linalg.solve(schur, q - w_r.T @ p)
    a = (p - w @ b) / r

    shift = a[0].copy()
    a[comp_o == comp_o[0]] -= shift
    b[comp_d == comp_o[0]] += shift
    return a, b, comp_o[:, None] == comp_d[None, :]


def _components(sample: np.ndarray):
    """Connected-component labels of the origins and the destinations in the
    bipartite graph whose edges are the sampled dyads.

    Every node starts with its own label and takes the smallest label among
    its neighbours until nothing changes, which leaves each component
    labelled by its smallest member; this takes about one round per step of
    the graph's diameter.
    """
    n = sample.shape[0]
    comp_o, comp_d = np.arange(n), np.arange(n, 2 * n)
    unsampled = np.where(sample, 0, 2 * n)  # lifts non-edges above every label
    while True:
        new_d = np.minimum(comp_d, (unsampled + comp_o[:, None]).min(axis=0))
        new_o = np.minimum(comp_o, (unsampled + new_d[None, :]).min(axis=1))
        if (new_o == comp_o).all() and (new_d == comp_d).all():
            return comp_o, comp_d
        comp_o, comp_d = new_o, new_d


def _require_variation(h: float, total: float, what: str):
    """Raise Collinear when the partialled regressor's weighted sum of
    squares ``h`` is nil next to the raw one (residual norm below 1e-8 of
    the regressor's)."""
    if h <= 1e-16 * total:
        raise Collinear(f"{what} lies in the span of the fixed effects")


@dataclass(frozen=True)
class PpmlFit:
    """Converged PPML fit plus the influence values the variances need.

    ``influence`` is the n x n grid of psi_ij = x~_ij (y_ij - mu_ij) / h,
    zero off the sample: the per-dyad influence of the log-cost coefficient.
    By Frisch-Waugh-Lovell, 1/h is that coefficient's entry of the inverse
    Hessian and psi is its row of the inverse Hessian times the per-dyad
    score, so every sandwich variance of the elasticity is a sum of psi
    products.
    """

    epsilon_hat: float
    fe_origin: np.ndarray
    fe_dest: np.ndarray
    influence: np.ndarray         # n x n influence values, zero off the sample
    variance: float               # sampling variance of epsilon_hat
    variance_psd_projected: bool  # whether the dyadic pair sum was negative
    mu_hat: np.ndarray            # fitted mean flows, dyad_indices order
    n: int
    deviance: float
    iterations: int


@dataclass(frozen=True)
class GravityFit:
    beta_hat: float
    fe_origin: np.ndarray
    fe_dest: np.ndarray
    residual_variance: float  # 1/N (maximum-likelihood) convention
    adj_r2: float
    mu: np.ndarray            # fitted log-means, NaN diagonal and unidentified
    n_obs: int


def _poisson_deviance(y: np.ndarray, mu: np.ndarray) -> float:
    with np.errstate(divide="ignore", invalid="ignore"):
        ylogy = np.where(y > 0, y * np.log(np.where(y > 0, y / mu, 1.0)), 0.0)
    return float(2.0 * np.sum(ylogy - (y - mu)))


def fit_ppml(
    flows: FlowMatrix,
    log_costs: np.ndarray,
    include_diagonal: bool = False,
    variance_mode: str = "dyadic",
    dev_tol: float = 1e-12,
    max_iter: int = 200,
) -> PpmlFit:
    """Poisson pseudo-likelihood fit of flows on log costs with two-way FEs.

    Zeros in the flows are fine; that is the point of PPML.  The elasticity
    estimate is the negated coefficient on ``log_costs``.  Each iteration
    takes the weighted least-squares step by partialling, with step-halving
    on the linear predictor whenever the deviance would rise.

    Raises
    ------
    Collinear
        When ``log_costs`` has no variation beyond the fixed effects.
    Separation
        When a fixed effect diverges (|FE| > 30, with the first origin
        effect normalised to zero) during iteration.
    NoConvergence
        When the iteration cap is hit or the first-order conditions fail.
    """
    n = flows.n
    log_costs = np.asarray(log_costs, dtype=float)
    if log_costs.shape != (n, n):
        raise DataError("log_costs must be n x n")
    if variance_mode not in ("dyadic", "independent"):
        raise DataError(f"unknown variance mode {variance_mode!r}")
    oidx, didx = dyad_indices(n, include_diagonal)
    y = flows.values[oidx, didx]
    cost = log_costs[oidx, didx]
    if not np.all(np.isfinite(cost)):
        raise DataError("log_costs must be finite on included dyads")
    # Standard GLM warm start: pull the mean toward the sample average.
    mu = 0.5 * (y + y.mean())
    sample = np.zeros((n, n), dtype=bool)
    sample[oidx, didx] = mu > 0  # and every later mu = exp(eta) > 0 there
    labels = _components(sample)

    def partial(mu, *columns):
        """The columns partialled on the fixed effects with weights mu, and
        those fixed effects."""
        w = np.zeros((n, n))
        w[oidx, didx] = mu
        v = np.zeros((n, n, len(columns)))
        v[oidx, didx] = np.stack(columns, axis=-1)
        a, b, _ = _twoway_fe(w, v, labels)
        return v[oidx, didx] - a[oidx] - b[didx], a, b

    def predictor(coef):
        return coef[0] * cost + coef[1 : n + 1][oidx] + coef[n + 1 :][didx]

    eta = np.log(mu)
    dev = _poisson_deviance(y, mu)
    coef = None  # [slope, origin effects, destination effects]
    converged = False
    iteration = 0
    for iteration in range(1, max_iter + 1):
        z = eta + (y - mu) / mu
        resid, a, b = partial(mu, cost, z)
        xt, zt = resid[:, 0], resid[:, 1]
        h = float(mu @ (xt * xt))
        _require_variation(h, float(mu @ (cost * cost)), "log cost")
        slope = float((mu * xt) @ zt) / h
        coef_new = np.concatenate(
            [[slope], a[:, 1] - slope * a[:, 0], b[:, 1] - slope * b[:, 0]]
        )
        if coef is None:
            coef_try, dev_try = coef_new, None
        else:
            step = 1.0
            while True:
                coef_try = coef + step * (coef_new - coef)
                dev_try = _poisson_deviance(
                    y, np.exp(np.clip(predictor(coef_try), -700, 700))
                )
                if dev_try <= dev + dev_tol * max(1.0, abs(dev)) or step < 1e-8:
                    break
                step *= 0.5
        if np.max(np.abs(coef_try[1:])) > _FE_DIVERGENCE_BOUND:
            raise Separation(
                "a fixed effect exceeded "
                f"{_FE_DIVERGENCE_BOUND:g} during PPML iteration"
            )
        coef = coef_try
        eta = np.clip(predictor(coef), -700, 700)
        mu = np.exp(eta)
        dev_new = _poisson_deviance(y, mu) if dev_try is None else dev_try
        if abs(dev - dev_new) < dev_tol * max(1.0, abs(dev)):
            dev = dev_new
            converged = True
            break
        dev = dev_new
    if not converged:
        raise NoConvergence(max_iter, abs(dev), what="PPML")

    # First-order conditions: the score sums for the slope and for every
    # origin and destination effect.
    u = y - mu
    foc = max(
        abs(float(u @ cost)),
        float(np.abs(np.bincount(oidx, u, n)).max()),
        float(np.abs(np.bincount(didx, u, n)).max()),
    )
    if foc > 1e-8 * max(1.0, float(np.max(y))):
        raise NoConvergence(iteration, foc, what="PPML first-order conditions")

    xt = partial(mu, cost)[0][:, 0]
    influence = np.zeros((n, n))
    influence[oidx, didx] = xt * u / float(mu @ (xt * xt))
    var, projected = _influence_variance(influence, dyadic=variance_mode == "dyadic")
    return PpmlFit(
        epsilon_hat=-float(coef[0]),
        fe_origin=coef[1 : n + 1],
        fe_dest=coef[n + 1 :],
        influence=influence,
        variance=var,
        variance_psd_projected=projected,
        mu_hat=mu,
        n=n,
        deviance=dev,
        iterations=iteration,
    )


def _influence_variance(psi: np.ndarray, dyadic: bool):
    """Sandwich variance of the elasticity from its influence grid.

    The dyadic sum runs over ordered pairs of dyads sharing a location.  It
    is computed through per-location sums T_a of the influence values of the
    dyads touching a: summing T_a^2 counts each sharing pair once per shared
    location, so pairs sharing two locations (an off-diagonal dyad with
    itself or with its mirror) are counted twice and corrected afterwards.

    The pair sum can be negative in finite samples; the variance of interest
    is a single quadratic form, so the projection onto the feasible (PSD)
    set reduces to clamping that scalar at zero.  Clamping the full matrix
    spectrum instead would systematically inflate the variance.
    """
    if dyadic:
        own = np.diag(psi)
        t = psi.sum(axis=1) + psi.sum(axis=0) - own
        off = psi - np.diag(own)
        var = float(t @ t - np.sum(off * off) - np.sum(off * off.T))
    else:
        var = float(np.sum(psi * psi))
    return max(var, 0.0), var < 0.0


def dyadic_variance(fit: PpmlFit) -> float:
    """Dyadic-dependence-robust sampling variance of the elasticity."""
    return _influence_variance(fit.influence, dyadic=True)[0]


def independent_variance(fit: PpmlFit) -> float:
    """Heteroskedasticity-robust variance ignoring dyadic dependence.  Tends
    to understate uncertainty relative to the dyadic version."""
    return _influence_variance(fit.influence, dyadic=False)[0]


def _log_gravity_ols(flows: np.ndarray, log_dist: np.ndarray) -> GravityFit:
    """OLS of log flows on log distance and two-way fixed effects over the
    positive off-diagonal flows, on whatever locations appear in them.

    ``mu`` holds the fitted log-mean of every dyad whose origin and
    destination effects are jointly identified by the sample, and NaN on the
    others and on the diagonal.  The parameter count behind ``adj_r2`` is one
    slope plus a dummy for each origin and destination in the sample, less
    one.
    """
    n = flows.shape[0]
    off = ~np.eye(n, dtype=bool)
    sample = (flows > 0) & off
    log_dist = np.where(off, log_dist, 0.0)
    x = np.where(sample, log_dist, 0.0)
    y = np.log(np.where(sample, flows, 1.0))
    xy = np.stack([x, y], axis=-1)
    a, b, linked = _twoway_fe(sample.astype(float), xy, _components(sample))
    resid = (xy - a[:, None, :] - b[None, :, :])[sample]
    h = float(resid[:, 0] @ resid[:, 0])
    _require_variation(h, float(np.sum(x * x)), "log distance")
    beta = float(resid[:, 0] @ resid[:, 1]) / h
    fe_origin = a[:, 1] - beta * a[:, 0]
    fe_dest = b[:, 1] - beta * b[:, 0]
    mu = beta * log_dist + fe_origin[:, None] + fe_dest[None, :]
    mu[~(linked & off)] = np.nan

    y_obs = y[sample]
    e = y_obs - mu[sample]
    n_obs = y_obs.shape[0]
    ssr = float(e @ e)
    tss = float(np.sum((y_obs - y_obs.mean()) ** 2))
    r2 = 1.0 if tss == 0 else 1.0 - ssr / tss
    k = int(sample.any(axis=1).sum() + sample.any(axis=0).sum())
    adj_r2 = (
        1.0 - (1.0 - r2) * (n_obs - 1) / (n_obs - k) if n_obs > k else float("nan")
    )
    return GravityFit(
        beta_hat=beta,
        fe_origin=fe_origin,
        fe_dest=fe_dest,
        residual_variance=ssr / n_obs,
        adj_r2=adj_r2,
        mu=mu,
        n_obs=n_obs,
    )


def fit_log_gravity(flows: FlowMatrix, distances: DistanceMatrix) -> GravityFit:
    """OLS of log flows on log distance with two-way FEs, positive flows only.

    Diagonal dyads are excluded (distance to self is ill-defined).  Every
    origin and destination must have at least one positive flow, and the
    positive flows must connect all of them, otherwise the fixed effects --
    needed to predict prior means on all dyads -- are not identified.
    """
    n = flows.n
    if distances.n != n:
        raise DataError("flow and distance matrices have different sizes")
    sample = (flows.values > 0) & ~np.eye(n, dtype=bool)
    if not np.any(sample):
        raise InsufficientData("no positive off-diagonal flows")
    for name, present in (("origin", sample.any(axis=1)), ("destination", sample.any(axis=0))):
        if not present.all():
            labels = [flows.labels[i] for i in np.flatnonzero(~present)]
            raise InsufficientData(f"no positive flow for {name}s {labels}")
    with np.errstate(divide="ignore"):
        fit = _log_gravity_ols(flows.values, np.log(distances.values))
    unlinked = np.isnan(fit.mu) & ~np.eye(n, dtype=bool)
    if np.any(unlinked):
        i, j = np.argwhere(unlinked)[0]
        raise InsufficientData(
            "positive flows split the locations into groups with no flow "
            f"between them; {int(unlinked.sum())} dyads such as "
            f"{flows.labels[i]}->{flows.labels[j]} have no identified prior mean"
        )
    return fit


def _psd_factor(sigma: np.ndarray) -> np.ndarray:
    sigma = 0.5 * (sigma + sigma.T)
    try:
        return np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        pass
    vals, vecs = np.linalg.eigh(sigma)
    scale = max(1.0, float(np.max(np.abs(vals))) if vals.size else 1.0)
    if vals.min() < -1e-10 * scale:
        raise NotPSD(
            f"covariance has eigenvalue {vals.min():.3e}; not PSD within 1e-10"
        )
    return vecs * np.sqrt(np.clip(vals, 0.0, None))[None, :]


def sample_theta(
    est: EstimatorResult, rng: np.random.Generator, positive: bool = False
) -> np.ndarray:
    """One draw from the sampling distribution of the estimate.

    Default is N(theta_hat, sigma_hat).  With ``positive=True`` the draw is
    log-normal, parameterized so its median is theta_hat (log-covariance from
    the delta method), for parameters known to be non-negative.
    """
    z = rng.standard_normal(est.dim)
    if not positive:
        return est.theta_hat + _psd_factor(est.sigma_hat) @ z
    if np.any(est.theta_hat <= 0):
        raise DataError("log-normal sampling requires a positive theta_hat")
    inv = 1.0 / est.theta_hat
    log_cov = est.sigma_hat * np.outer(inv, inv)
    return np.exp(np.log(est.theta_hat) + _psd_factor(log_cov) @ z)
