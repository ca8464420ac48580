"""Structural-parameter estimation from dyadic flows.

Every regression here has origin and destination fixed effects, and all of
them go through one weighted two-way projection on n x n grids,
``_twoway_fe``, which takes a batch of weightings and solves their
concentrated systems as one stack.  It concentrates the origin effects out
of the normal equations and solves the remaining destination block (the
Frisch-Waugh-Lovell concentration of ppmlhdfe), so no dummy design is ever
built and a slope is the regression of one partialled variable on another.

* ``fit_ppml_many`` -- Poisson pseudo-maximum-likelihood with origin and
  destination fixed effects, robust to zero flows, for a stack of flow
  matrices at once; ``fit_ppml`` is a batch of one, and ``PpmlEstimator``
  is the bootstrap's estimator plug-in on top of it, whose fits start at
  the fit of the observed matrix.  Each iteratively reweighted
  least-squares step partials log cost and the working response on the
  fixed effects with weights mu and regresses one on the other.  The
  negated coefficient on log cost is the trade elasticity.  Its sampling
  variance is built from the per-dyad influence values
  psi = x~ (y - mu) / h, where x~ is log cost partialled with the final
  weights and h = sum mu x~^2.  The dyadic variance sums psi_d psi_e over
  every ordered pair of dyads sharing at least one location (each dyad with
  itself and with its mirror included).
* ``fit_log_gravity`` -- least squares of log flows on log distance plus
  two-way fixed effects, restricted to positive flows.  This is the
  workhorse behind the empirical-Bayes prior means.

``sample_theta`` draws structural parameters from the normal sampling
distribution N(theta_hat, sigma_hat) of an estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DistanceMatrix, EstimatorResult, FlowMatrix, solve_stack
from .errors import (
    Collinear,
    DataError,
    InsufficientData,
    NoConvergence,
    NotPSD,
    Separation,
)

_FE_DIVERGENCE_BOUND = 30.0
_MAX_ITER = 200  # IRLS iterations before a fit counts as not converged


def _twoway_fe(w: np.ndarray, v: np.ndarray, labels: tuple[np.ndarray, np.ndarray]):
    """Weighted projection of values on origin and destination fixed effects,
    for a batch of k weightings of one sample.

    ``w`` (k, n, n) holds the weights, zero outside the sample; ``v``
    (k, m, n, n) holds m finite value grids per weighting, ignored outside
    the sample; ``labels`` are the sample's component labels from
    ``_components``, which every weighting in the batch shares.  Each value
    grid gets the minimiser of sum w_ij (v_ij - a_i - b_j)^2.  With r and c
    the row and column sums of w, and p and q those of w * v, the origin
    effects are a = (p - w b) / r, which leaves the destination block

        (diag(c) - w' diag(1/r) w) b = q - w' diag(1/r) p.

    That block is singular along the destination indicator of each connected
    component of the sample (origins and destinations joined by sampled
    dyads; an absent location is a component of its own).  Adding those
    indicators makes it regular without moving the fitted values.  The k
    blocks are solved as one stack.  A block can still be numerically
    singular when the weights span many orders of magnitude, as PPML's
    fitted means do on a separating sample; that weighting fails alone.

    Returns ``(a, b, linked, singular)``: effects of shape (k, m, n),
    normalised to a[0] = 0 on the component of origin 0 and to zero-sum
    destination effects on every other component, zero for absent
    locations; the (n, n) mask of dyads whose fitted value a_i + b_j is
    identified, their origin and destination lying in one component; and
    the (k,) mask of the weightings whose block is singular, whose effects
    are NaN.
    """
    comp_o, comp_d = labels
    k, m, n = v.shape[:3]
    r = w.sum(axis=2)
    r = np.where(r > 0, r, 1.0)[:, :, None]  # an absent origin has a zero row
    c = w.sum(axis=1)
    wv = w[:, None] * v
    # p and q as (k, n, m).  Both add their terms in index order by reducing
    # a middle axis; p first moves its summation axis there in a contiguous
    # copy, since a reduction along the last axis (or over a strided view of
    # it) adds pairwise and rounds differently.  The two share one buffer,
    # which leaves p strided along the locations: the product w_r' p below
    # is a BLAS matrix-vector product when m = 1, whose rounding depends on
    # that stride, and at unit stride the fits would move in the last bit.
    pq = np.empty((k, m, n, 2))
    np.ascontiguousarray(wv.transpose(0, 1, 3, 2)).sum(axis=2, out=pq[..., 0])
    wv.sum(axis=2, out=pq[..., 1])
    p, q = pq[..., 0].transpose(0, 2, 1), pq[..., 1].transpose(0, 2, 1)
    w_r = w / r
    schur = -(w.transpose(0, 2, 1) @ w_r)
    schur.reshape(len(schur), n * n)[:, :: n + 1] += c  # the diagonal
    c_max = c.max(axis=1)
    schur += np.where(c_max > 0, c_max, 1.0)[:, None, None] * (
        comp_d[:, None] == comp_d[None, :]
    )
    b, singular = solve_stack(schur, q - w_r.transpose(0, 2, 1) @ p)
    a = ((p - w @ b) / r).transpose(0, 2, 1)
    b = b.transpose(0, 2, 1)

    shift = a[:, :, 0].copy()
    a[:, :, comp_o == comp_o[0]] -= shift[:, :, None]
    b[:, :, comp_d == comp_o[0]] += shift[:, :, None]
    return a, b, comp_o[:, None] == comp_d[None, :], singular


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


def _lacks_variation(h, total):
    """Whether a partialled regressor's weighted sum of squares ``h`` is nil
    next to the raw one ``total`` (residual norm below 1e-8 of the
    regressor's)."""
    return h <= 1e-16 * total


def _collinear(what: str) -> Collinear:
    return Collinear(f"{what} lies in the span of the fixed effects")


def _singular_projection() -> Separation:
    return Separation(
        "the fixed-effects projection became singular during PPML iteration: "
        "the fitted means vanish on part of the sample"
    )


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
    mu_hat: np.ndarray            # n x n fitted mean flows, zero off the sample
    n: int
    deviance: float
    iterations: int

    def to_estimator_result(self) -> EstimatorResult:
        """The elasticity estimate and its variance."""
        return EstimatorResult(
            theta_hat=np.array([self.epsilon_hat]), sigma_hat=np.array([[self.variance]])
        )


@dataclass(frozen=True)
class GravityFit:
    beta_hat: float
    fe_origin: np.ndarray
    fe_dest: np.ndarray
    residual_variance: float  # 1/N (maximum-likelihood) convention
    adj_r2: float
    mu: np.ndarray            # fitted log-means, NaN diagonal and unidentified
    n_obs: int


def _grid_sum(x: np.ndarray) -> np.ndarray:
    """Sum of each (n, n) slice of a stack, added in the same order whatever
    the stack's length, so a slice sums alike alone and in a batch."""
    return np.add.reduce(x.reshape(x.shape[0], x.shape[1] * x.shape[2]), axis=1)


def _poisson_deviance(y: np.ndarray, mu: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Poisson deviance of each slice of a stack, ``pos`` marking y > 0;
    dyads with y = mu = 0 (off the sample) add nothing."""
    ratio = np.divide(y, mu, out=np.ones_like(y), where=pos)
    return 2.0 * _grid_sum(y * np.log(ratio) - (y - mu))


def fit_ppml(
    flows: FlowMatrix,
    log_costs: np.ndarray,
    include_diagonal: bool = False,
    variance_mode: str = "dyadic",
    dev_tol: float = 1e-12,
) -> PpmlFit:
    """Poisson pseudo-likelihood fit of flows on log costs with two-way FEs.

    Zeros in the flows are fine; that is the point of PPML.  The elasticity
    estimate is the negated coefficient on ``log_costs``.  This is
    ``fit_ppml_many`` on a batch of one; the errors are documented there.
    """
    return fit_ppml_many(
        flows.values[None], log_costs, include_diagonal, variance_mode, dev_tol
    )[0]


def fit_ppml_many(
    values: np.ndarray,
    log_costs: np.ndarray,
    include_diagonal: bool = False,
    variance_mode: str = "dyadic",
    dev_tol: float = 1e-12,
    start: PpmlFit | None = None,
) -> list[PpmlFit]:
    """PPML fits of a (k, n, n) stack of flow matrices on shared log costs,
    run as one batched IRLS.

    Flows, means, the linear predictor and the weights are n x n grids with
    weight zero off the sample (the diagonal, unless included).  Each
    iteration partials log cost and the working response on the fixed
    effects for every live fit at once and regresses one on the other.  Every
    fit has its own step-halving on the linear predictor, taken whenever its
    deviance would rise, and its own convergence test, and it leaves the
    iteration with its state frozen once it converges.  Every slice's fit
    equals the fit of that slice alone (a batch of one with the same
    ``start``), bit for bit.

    Without ``start`` every fit begins at the standard GLM start, as
    ``fit_ppml`` does; with it, every fit begins at that fit's coefficients.
    The bootstrap starts the fits of its drawn matrices at the fit of the
    observed one, which they lie close to, and they converge in fewer
    iterations to the same estimates within the convergence tolerance.

    Raises
    ------
    DataError
        On a malformed stack, or log costs that are not finite where used.
    InsufficientData
        When no included dyad of a slice has a positive flow.
    Collinear
        When ``log_costs`` has no variation beyond the fixed effects.
    Separation
        When a fixed effect diverges (|FE| > 30, with the first origin
        effect normalised to zero) during iteration, or the fitted means
        vanish on part of the sample so that the fixed-effects projection
        becomes singular.
    NoConvergence
        When the iteration cap is hit or the first-order conditions fail.

    When several slices fail, the error raised is that of the lowest failing
    slice, the one ``fit_ppml`` raises on that slice alone.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 3 or values.shape[1] != values.shape[2]:
        raise DataError(f"flows must be a (k, n, n) stack, got shape {values.shape}")
    if not np.all(np.isfinite(values)) or np.any(values < 0):
        raise DataError("flows must be finite and non-negative")
    k, n = values.shape[:2]
    log_costs = np.asarray(log_costs, dtype=float)
    if log_costs.shape != (n, n):
        raise DataError("log_costs must be n x n")
    if variance_mode not in ("dyadic", "independent"):
        raise DataError(f"unknown variance mode {variance_mode!r}")
    if start is not None and start.n != n:
        raise DataError(f"the start fit has {start.n} locations, the flows {n}")
    mask = np.ones((n, n), dtype=bool) if include_diagonal else ~np.eye(n, dtype=bool)
    if not np.all(np.isfinite(log_costs[mask])):
        raise DataError("log_costs must be finite on included dyads")
    on = mask.astype(float)
    cost = np.where(mask, log_costs, 0.0)
    cost2 = cost * cost
    labels = _components(mask)

    def trial(y, pos, s, o, d):
        """Linear predictor, mean and deviance of candidate coefficients."""
        eta = s[:, None, None] * cost + o[:, :, None] + d[:, None, :]
        np.minimum(np.maximum(eta, -700.0, out=eta), 700.0, out=eta)
        mu = np.exp(eta) * on
        return eta, mu, _poisson_deviance(y, mu, pos)

    # Results, filled in as fits leave the iteration, and the failures.
    slope, fe_o, fe_d = np.zeros(k), np.zeros((k, n)), np.zeros((k, n))
    mu_hat, deviance = np.zeros((k, n, n)), np.zeros(k)
    iterations = np.zeros(k, dtype=int)
    failures: dict[int, Exception] = {}

    # The live fits' state, one row per fit in ``idx``.
    y = values * on
    pos = y > 0
    has_flow = pos.any(axis=(1, 2))
    for j in np.flatnonzero(~has_flow):
        failures[int(j)] = InsufficientData("no positive flow on the included dyads")
    idx = np.flatnonzero(has_flow)
    idx = idx[idx < min(failures, default=k)]
    y, pos = y[idx], pos[idx]
    if start is None:
        # Standard GLM start: pull the mean toward the sample average.  Its
        # support, and so that of every later mu = exp(eta), is the whole mask.
        mu = 0.5 * (y + (_grid_sum(y) / mask.sum())[:, None, None]) * on
        eta = np.log(np.where(mask, mu, 1.0))
        dev = _poisson_deviance(y, mu, pos)
        s, o, d = np.zeros(len(idx)), np.zeros((len(idx), n)), np.zeros((len(idx), n))
    else:
        s = np.full(len(idx), -start.epsilon_hat)
        o = np.tile(start.fe_origin, (len(idx), 1))
        d = np.tile(start.fe_dest, (len(idx), 1))
        eta, mu, dev = trial(y, pos, s, o, d)

    for iteration in range(1, _MAX_ITER + 1):
        if not idx.size:
            break
        v = np.empty((len(idx), 2, n, n))
        v[:, 0] = cost
        np.divide(y - mu, np.where(mask, mu, 1.0), out=v[:, 1])
        v[:, 1] += eta  # the working response z = eta + (y - mu) / mu
        a, b, _, singular = _twoway_fe(mu, v, labels)
        v -= a[:, :, :, None]
        v -= b[:, :, None, :]
        xt, zt = v[:, 0], v[:, 1]  # the partialled grids
        h = _grid_sum(mu * (xt * xt))
        lacking = _lacks_variation(h, _grid_sum(mu * cost2))
        for j in idx[singular]:
            failures[int(j)] = _singular_projection()
        for j in idx[lacking]:
            failures[int(j)] = _collinear("log cost")
        dropped = singular | lacking
        if dropped.any():
            idx, y, pos, mu, eta, dev, s, o, d, xt, zt, h, a, b = (
                x[~dropped] for x in (idx, y, pos, mu, eta, dev, s, o, d, xt, zt, h, a, b)
            )
        s_new = _grid_sum((mu * xt) * zt) / h
        o_new = a[:, 1] - s_new[:, None] * a[:, 0]
        d_new = b[:, 1] - s_new[:, None] * b[:, 0]
        if iteration == 1:
            s, o, d = s_new, o_new, d_new
            eta_t, mu_t, dev_t = trial(y, pos, s, o, d)
        else:  # halve each fit's step until its deviance does not rise
            bound = dev + dev_tol * np.maximum(1.0, np.abs(dev))
            s_t, o_t, d_t = np.empty_like(s), np.empty_like(o), np.empty_like(d)
            eta_t, mu_t, dev_t = np.empty_like(eta), np.empty_like(mu), np.empty_like(dev)
            todo, step = np.arange(len(idx)), 1.0
            while todo.size:
                s_t[todo] = s[todo] + step * (s_new[todo] - s[todo])
                o_t[todo] = o[todo] + step * (o_new[todo] - o[todo])
                d_t[todo] = d[todo] + step * (d_new[todo] - d[todo])
                eta_t[todo], mu_t[todo], dev_t[todo] = trial(
                    y[todo], pos[todo], s_t[todo], o_t[todo], d_t[todo]
                )
                todo = todo[~(dev_t[todo] <= bound[todo])] if step >= 1e-8 else todo[:0]
                step *= 0.5
            s, o, d = s_t, o_t, d_t
        separated = np.maximum(np.abs(o).max(axis=1), np.abs(d).max(axis=1)) > _FE_DIVERGENCE_BOUND
        for j in idx[separated]:
            failures[int(j)] = Separation(
                f"a fixed effect exceeded {_FE_DIVERGENCE_BOUND:g} during PPML iteration"
            )
        converged = np.abs(dev - dev_t) < dev_tol * np.maximum(1.0, np.abs(dev))
        eta, mu, dev = eta_t, mu_t, dev_t
        done = converged & ~separated
        rows = idx[done]
        slope[rows], fe_o[rows], fe_d[rows] = s[done], o[done], d[done]
        mu_hat[rows], deviance[rows], iterations[rows] = mu[done], dev[done], iteration
        # A fit after the first failure can no longer decide the error raised.
        keep = ~(converged | separated) & (idx < min(failures, default=k))
        if not keep.all():
            idx, y, pos, mu, eta, dev, s, o, d = (
                x[keep] for x in (idx, y, pos, mu, eta, dev, s, o, d)
            )
    for j, dev_j in zip(idx, dev):
        failures[int(j)] = NoConvergence(_MAX_ITER, abs(float(dev_j)), what="PPML")

    # First-order conditions of the fits below the first failure, which all
    # converged: the score sums for the slope and every fixed effect.
    m = min(failures, default=k)
    u = values[:m] * on - mu_hat[:m]
    foc = np.maximum(
        np.abs(_grid_sum(u * cost)),
        np.maximum(np.abs(u.sum(axis=2)).max(axis=1), np.abs(u.sum(axis=1)).max(axis=1)),
    )
    for j in range(m):
        if foc[j] > 1e-8 * max(1.0, float(values[j][mask].max())):
            failures[j] = NoConvergence(
                int(iterations[j]), float(foc[j]), what="PPML first-order conditions"
            )
    if failures:
        raise failures[min(failures)]

    a, b, _, singular = _twoway_fe(mu_hat, np.broadcast_to(cost, (k, 1, n, n)), labels)
    if singular.any():  # no slice failed before, so this is the lowest failure
        raise _singular_projection()
    xt = cost - a[:, 0, :, None] - b[:, 0, None, :]
    influence = (xt * u) * on / _grid_sum(mu_hat * (xt * xt))[:, None, None]
    fits = []
    for j in range(k):
        var, projected = _influence_variance(influence[j], dyadic=variance_mode == "dyadic")
        fits.append(
            PpmlFit(
                epsilon_hat=-float(slope[j]),
                fe_origin=fe_o[j],
                fe_dest=fe_d[j],
                influence=influence[j],
                variance=var,
                variance_psd_projected=projected,
                mu_hat=mu_hat[j],
                n=n,
                deviance=float(deviance[j]),
                iterations=int(iterations[j]),
            )
        )
    return fits


@dataclass(frozen=True, eq=False)
class PpmlEstimator:
    """Bootstrap estimator plug-in: the PPML elasticity and its sampling
    variance on a flow matrix, against fixed log costs.  Every fit starts its
    IRLS at ``start``, the fit of the observed matrix, which a drawn matrix
    lies close to.  ``many`` fits a batch of matrices in one IRLS with the
    same results as one call per matrix.  Picklable, so a process pool can
    ship it."""

    log_costs: np.ndarray
    start: PpmlFit
    include_diagonal: bool = False

    def __call__(self, flows: FlowMatrix) -> EstimatorResult:
        return self.many([flows])[0]

    def many(self, flows_seq) -> list[EstimatorResult]:
        fits = fit_ppml_many(
            np.stack([flows.values for flows in flows_seq]),
            self.log_costs,
            include_diagonal=self.include_diagonal,
            start=self.start,
        )
        return [fit.to_estimator_result() for fit in fits]


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
    xy = np.stack([x, y])
    a, b, linked, _ = _twoway_fe(sample.astype(float)[None], xy[None], _components(sample))
    a, b = a[0], b[0]
    x_res, y_res = (xy - a[:, :, None] - b[:, None, :])[:, sample]
    h = float(x_res @ x_res)
    if _lacks_variation(h, float(np.sum(x * x))):
        raise _collinear("log distance")
    beta = float(x_res @ y_res) / h
    fe_origin = a[1] - beta * a[0]
    fe_dest = b[1] - beta * b[0]
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


def sample_theta(est: EstimatorResult, rng: np.random.Generator) -> np.ndarray:
    """One draw from the sampling distribution N(theta_hat, sigma_hat) of
    the estimate."""
    z = rng.standard_normal(est.dim)
    return est.theta_hat + _psd_factor(est.sigma_hat) @ z
