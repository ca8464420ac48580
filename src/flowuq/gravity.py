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
  matrices at once, which returns each matrix's fit or its own error, as
  ``armington.solve_counterfactual_many`` does; ``fit_ppml`` is a batch of
  one that raises its error, and ``PpmlEstimator`` is the bootstrap's
  estimator plug-in on top of it, whose fits start at the fit of the
  observed matrix and end by the warm stop rule (below).  Each iteratively
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

The warm stop rule takes a few Newton steps from the full-sample estimate,
as the k-step bootstrap of Andrews (2002, Econometrica) does, instead of
iterating every drawn matrix to the deviance tolerance.  A fit started at
the observed fit stops once a full step moves the slope by less than
10^-2.5 of the start fit's standard error se and no fixed effect by 0.01,
which under Newton's quadratic convergence leaves the slope about
(step / se)^2 se < 1e-5 se from its converged value.  Unless it then meets
the first-order conditions, its slope's next Newton step must lie within
1e-4 se, the score bound, or the fit fails alone with NoConvergence.
Against full IRLS its elasticity moves by less than the score bound and its
variance by less than 1e-3 of itself; measured on the bootstrap's draws at
n = 10 to 100, by at most 1.9e-5 se and 6.4e-5.  The fits take about 3
iterations instead of 4 to 5.  The observed fit and the point estimate run
full IRLS.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DistanceMatrix, EstimatorResult, FlowMatrix, solve_stack
from .errors import (
    Collinear,
    DataError,
    FlowUqError,
    InsufficientData,
    NoConvergence,
    Separation,
)

_FE_DIVERGENCE_BOUND = 30.0
_MAX_ITER = 200  # IRLS iterations before a fit counts as not converged
_DEV_TOL = 1e-12  # relative deviance change at which IRLS stops
# The warm stop rule (see the module docstring): a warm fit stops after a
# full step of d in the slope, d^2 < _WARM_STOP times the start fit's
# variance, and of less than _WARM_FE_STEP in every fixed effect; it must
# then keep its slope's next Newton step within _WARM_SCORE start standard
# errors unless it meets the first-order conditions.
_WARM_STOP = 1e-5
_WARM_FE_STEP = 1e-2
_WARM_SCORE = 1e-4


def _twoway_fe(
    w: np.ndarray, v: np.ndarray, labels: tuple[np.ndarray, np.ndarray], scratch=None
):
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

    ``scratch`` is a pair of C-contiguous (k, n, n) grids the projection may
    overwrite; without it the projection allocates its own.

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
    prod, schur = np.empty((2,) + w.shape) if scratch is None else scratch
    r = w.sum(axis=2)
    r = np.where(r > 0, r, 1.0)[:, :, None]  # an absent origin has a zero row
    c = w.sum(axis=1)
    w_t = w.transpose(0, 2, 1)
    # p and q as (k, n, m).  Both add their terms in index order by reducing
    # the middle axis of a product grid; for p the product is written
    # transposed, since a reduction along the last axis (or over a strided
    # view of it) adds pairwise and rounds differently.  The two share one
    # buffer, which leaves p strided along the locations: the product w_r' p
    # below is a BLAS matrix-vector product when m = 1, whose rounding
    # depends on that stride, and at unit stride the fits would move in the
    # last bit.
    pq = np.empty((k, m, n, 2))
    for i in range(m):
        np.multiply(w, v[:, i], out=prod).sum(axis=1, out=pq[:, i, :, 1])
        np.multiply(w_t, v[:, i].transpose(0, 2, 1), out=prod).sum(axis=1, out=pq[:, i, :, 0])
    p, q = pq[..., 0].transpose(0, 2, 1), pq[..., 1].transpose(0, 2, 1)
    w_r = np.divide(w, r, out=prod)
    np.negative(np.matmul(w_t, w_r, out=schur), out=schur)
    rhs = q - w_r.transpose(0, 2, 1) @ p
    schur.reshape(k, n * n)[:, :: n + 1] += c  # the diagonal
    c_max = c.max(axis=1)
    schur += np.multiply(
        np.where(c_max > 0, c_max, 1.0)[:, None, None],
        comp_d[:, None] == comp_d[None, :],
        out=prod,
    )
    b, singular = solve_stack(schur, rhs)
    a = ((p - w @ b) / r).transpose(0, 2, 1)
    b = b.transpose(0, 2, 1)

    shift = a[:, :, 0].copy()
    a[:, :, comp_o == comp_o[0]] -= shift[:, :, None]
    b[:, :, comp_d == comp_o[0]] += shift[:, :, None]
    return a, b, comp_o[:, None] == comp_d[None, :], singular


def _components(sample: np.ndarray):
    """Connected-component labels of the origins and the destinations in the
    bipartite graph whose edges are the sampled dyads; ``sample`` may carry a
    leading stack axis, and so do the labels then.

    Every node starts with its own label and takes the smallest label among
    its neighbours until nothing changes, which leaves each component
    labelled by its smallest member; this takes about one round per step of
    the graph's diameter.
    """
    n = sample.shape[-1]
    comp_o, comp_d = np.arange(n), np.arange(n, 2 * n)
    unsampled = np.where(sample, 0, 2 * n)  # lifts non-edges above every label
    while True:
        new_d = np.minimum(comp_d, (unsampled + comp_o[..., :, None]).min(axis=-2))
        new_o = np.minimum(comp_o, (unsampled + new_d[..., None, :]).min(axis=-1))
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


def _no_flow_for(has_origin: np.ndarray, has_dest: np.ndarray, labels, what: str) -> str | None:
    """The refusal of a sample that leaves origins, else destinations,
    without a positive ``what``, naming them; None when every one has one."""
    for name, present in (("origin", has_origin), ("destination", has_dest)):
        if not present.all():
            missing = [labels[i] for i in np.flatnonzero(~present)]
            return f"no positive {what} for {name}s {missing}"
    return None


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
    variance: float               # dyadic-robust variance of epsilon_hat
    variance_psd_projected: bool  # whether the dyadic pair sum was negative
    mu_hat: np.ndarray            # n x n fitted mean flows, zero off the sample
    deviance: float
    iterations: int

    def to_estimator_result(self) -> EstimatorResult:
        """The elasticity estimate and its variance."""
        return EstimatorResult(
            theta_hat=np.array([self.epsilon_hat]), sigma_hat=np.array([[self.variance]])
        )


@dataclass(frozen=True)
class GravityFit:
    """Least-squares gravity fit of log flows on log distance with two-way
    fixed effects, over the positive off-diagonal flows.

    ``x_res`` and ``y_res`` are log distance and log flow on the sample, in
    row-major dyad order, with the fixed effects partialled out: the scatter
    whose least-squares slope is ``beta_hat`` (Frisch-Waugh-Lovell), which
    ``robustness.gravity_partial_plot`` bins.
    """

    beta_hat: float
    fe_origin: np.ndarray
    fe_dest: np.ndarray
    residual_variance: float  # 1/N (maximum-likelihood) convention
    adj_r2: float
    mu: np.ndarray            # fitted log-means, NaN diagonal and unidentified
    x_res: np.ndarray         # partialled log distance on the sample
    y_res: np.ndarray         # partialled log flow on the sample


def _grid_sum(x: np.ndarray) -> np.ndarray:
    """Sum of each (n, n) slice of a stack, added in the same order whatever
    the stack's length, so a slice sums alike alone and in a batch."""
    return np.add.reduce(x.reshape(x.shape[0], x.shape[1] * x.shape[2]), axis=1)


def _poisson_deviance(y: np.ndarray, mu: np.ndarray, pos: np.ndarray, work) -> np.ndarray:
    """Poisson deviance of each slice of a stack, ``pos`` marking y > 0;
    dyads with y = mu = 0 (off the sample) add nothing.  The terms are
    formed in ``work``, two grids of the stack's shape."""
    ratio, diff = work
    ratio.fill(1.0)
    with np.errstate(over="ignore"):  # mu underflows on a separating fit
        np.divide(y, mu, out=ratio, where=pos)
    np.log(ratio, out=ratio)
    ratio *= y
    ratio -= np.subtract(y, mu, out=diff)
    return 2.0 * _grid_sum(ratio)


def fit_ppml(
    flows: FlowMatrix, log_costs: np.ndarray, include_diagonal: bool = False
) -> PpmlFit:
    """Poisson pseudo-likelihood fit of flows on log costs with two-way FEs.

    Zeros in the flows are fine; that is the point of PPML.  The elasticity
    estimate is the negated coefficient on ``log_costs``.  This is
    ``fit_ppml_many`` on a batch of one, which raises the error that
    ``fit_ppml_many`` returns for the matrix; the errors are documented there.
    """
    (fit,) = fit_ppml_many([flows], log_costs, include_diagonal)
    if isinstance(fit, FlowUqError):
        raise fit
    return fit


def fit_ppml_many(
    flows_seq,
    log_costs: np.ndarray,
    include_diagonal: bool = False,
    start: PpmlFit | None = None,
) -> list[PpmlFit | FlowUqError]:
    """PPML fits of a sequence of k ``FlowMatrix`` of one size on shared log
    costs, run as one batched IRLS.

    Flows, means, the linear predictor and the weights are n x n grids with
    weight zero off the sample (the diagonal, unless included).  Each
    iteration partials log cost and the working response on the fixed
    effects for every fit still iterating at once and regresses one on the
    other.  Every fit has its own step-halving on the linear predictor,
    taken whenever its deviance would rise, and its own convergence test;
    once it converges or fails it stops, keeping its last state.

    The IRLS runs in a working set of (k, n, n) grids allocated once: the
    flows, the linear predictor and the mean, a candidate pair of the two
    (also the projection's scratch), and the partialled log cost and
    working response (also the deviance's terms once the slope is known),
    seven grids in all; a step is accepted by swapping the candidate pair
    with the state.  The fits still iterating hold the leading rows, so
    every step works on a slice of the stack.  With the log costs and the
    returned fits, the traced peak of the draw loop's batches is 8.3, 8.4
    and 8.8 grids per fit at n = 30, 100 and 300 (40, 3 and 1 fits).

    Without ``start`` every fit begins at the standard GLM start, as
    ``fit_ppml`` does, and runs to a relative deviance change of 1e-12.
    With it, every fit begins at that fit's coefficients and may also end
    by the warm stop rule (see the module docstring): once a step taken in
    full moves the slope by d with d^2 below ``_WARM_STOP`` times the start
    fit's variance and no fixed effect by ``_WARM_FE_STEP``.  Such a fit
    meets the first-order conditions below or the score bound: its slope's
    next Newton step, the sum of its influence values, within
    ``_WARM_SCORE`` of the start fit's standard error.  The bootstrap starts
    the fits of its drawn matrices at the fit of the observed one, which
    they lie close to.

    Returns one entry per matrix: its ``PpmlFit``, or the error that
    ``fit_ppml`` raises on that matrix alone, with the same class and
    message.  A fit equals the fit of its matrix alone (a batch of one with
    the same ``start``), bit for bit.  The errors of a matrix are:

    InsufficientData
        When no included dyad has a positive flow.
    Collinear
        When ``log_costs`` has no variation beyond the fixed effects.
    Separation
        Before iterating, when the included positive flows leave an origin
        or a destination without one (the message names them, as
        ``fit_log_gravity`` does); during iteration, when a fixed effect
        diverges (|FE| > 30, with the first origin effect normalised to
        zero) or the fitted means vanish on part of the sample so that the
        fixed-effects projection becomes singular.
    NoConvergence
        When the iteration cap is hit or the first-order conditions fail
        (a score sum above 1e-8 of the largest flow), and for a warm fit
        the score bound too.

    Raises
    ------
    DataError
        On log costs that are not n x n or not finite where used, or a
        ``start`` fit of another size.
    """
    y = np.stack([flows.values for flows in flows_seq])
    k, n = y.shape[:2]
    log_costs = np.asarray(log_costs, dtype=float)
    if log_costs.shape != (n, n):
        raise DataError("log_costs must be n x n")
    if start is not None and len(start.fe_origin) != n:
        raise DataError(f"the start fit has {len(start.fe_origin)} locations, the flows {n}")
    mask = np.ones((n, n), dtype=bool) if include_diagonal else ~np.eye(n, dtype=bool)
    if not np.all(np.isfinite(log_costs[mask])):
        raise DataError("log_costs must be finite on included dyads")
    failures, fit_at, s, o, d, dev, iterations, mu, influence = _ppml_irls(
        y, np.where(mask, log_costs, 0.0), mask, start, [flows.labels for flows in flows_seq]
    )
    fits: list = [failures.get(j) for j in range(k)]
    var, projected = _influence_variance(influence)
    for r, j in enumerate(fit_at):
        if fits[j] is None:
            fits[j] = PpmlFit(
                epsilon_hat=-float(s[r]),
                fe_origin=o[r],
                fe_dest=d[r],
                influence=influence[r],
                variance=float(var[r]),
                variance_psd_projected=bool(projected[r]),
                mu_hat=mu[r],
                deviance=float(dev[r]),
                iterations=int(iterations[r]),
            )
    return fits


def _ppml_irls(y: np.ndarray, cost: np.ndarray, mask: np.ndarray, start: PpmlFit | None, names):
    """The batched IRLS of ``fit_ppml_many`` on the (k, n, n) flows ``y``,
    which it overwrites, and the log costs ``cost``, zero off the ``mask``
    of included dyads; ``names`` holds each fit's location labels.  Every
    fit runs to its own end.  Returns the errors of the failed fits by fit
    index, and the per-row coefficients, deviances, iteration counts, fitted
    means and influence grids, where row r holds fit ``fit_at[r]`` (the
    first ``len(fit_at)`` rows, which hold every converged fit)."""
    k, n = y.shape[:2]
    labels = _components(mask)
    # The working set.  Row r of every grid and per-fit vector holds the fit
    # ``fit_at[r]``; the fits still iterating hold rows [:nl].  A fit that
    # stops moves behind them with the state it stopped with, which ``mu_t``
    # keeps too, so that accepting a step can swap whole buffers.
    np.multiply(y, mask, out=y)  # zero off the sample
    pos = y > 0
    eta, mu, eta_t, mu_t = (np.empty((k, n, n)) for _ in range(4))
    v = np.empty((2, k, n, n))

    def trial(rows, s, o, d):
        """Linear predictor and mean of candidate coefficients for ``rows``,
        into the candidate pair; returns their deviance."""
        eta_c, mu_c = eta_t[rows], mu_t[rows]
        np.multiply(s[:, None, None], cost, out=eta_c)
        eta_c += o[:, :, None]
        eta_c += d[:, None, :]
        np.minimum(np.maximum(eta_c, -700.0, out=eta_c), 700.0, out=eta_c)
        np.multiply(np.exp(eta_c, out=mu_c), mask, out=mu_c)
        return _poisson_deviance(y[rows], mu_c, pos[rows], v[:, rows])

    def retire(keep, *extra):
        """Swap the rows of the live fits that ``keep`` marks to the front of
        the live rows, in the state and in ``extra``; the others, behind
        them, keep their mean in ``mu_t`` too.  Returns the new live count."""
        kept = int(keep.sum())
        front = np.flatnonzero(~keep[:kept])
        back = kept + np.flatnonzero(keep[kept:])
        for x in (y, pos, eta, mu, s, o, d, dev, iterations, fit_at) + extra:
            x[front], x[back] = x[back], x[front]
        mu_t[kept : len(keep)] = mu[kept : len(keep)]
        return kept

    failures: dict[int, Exception] = {}
    has_origin, has_dest = pos.any(axis=2), pos.any(axis=1)
    live = has_origin.any(axis=1)
    for j in np.flatnonzero(~live):
        failures[int(j)] = InsufficientData("no positive flow on the included dyads")
    # A location without positive flow has no finite fixed effect: its
    # fitted means can only fall toward zero, so the fit separates.
    reached = has_origin.all(axis=1) & has_dest.all(axis=1)
    for j in np.flatnonzero(live & ~reached):
        failures[int(j)] = Separation(_no_flow_for(has_origin[j], has_dest[j], names[j], "flow"))
    live &= reached
    if start is None:
        # Standard GLM start: pull the mean toward the sample average.  Its
        # support, and so that of every later mu = exp(eta), is the whole
        # mask (nothing for a fit without flow, which never iterates).
        np.add(y, (_grid_sum(y) / mask.sum())[:, None, None], out=mu)
        np.multiply(np.multiply(mu, 0.5, out=mu), mask, out=mu)
        eta.fill(0.0)
        np.log(mu, out=eta, where=mu > 0)
        dev = _poisson_deviance(y, mu, pos, v)
        s, o, d = np.zeros(k), np.zeros((k, n)), np.zeros((k, n))
    else:
        s = np.full(k, -start.epsilon_hat)
        o, d = np.tile(start.fe_origin, (k, 1)), np.tile(start.fe_dest, (k, 1))
        dev = trial(slice(None), s, o, d)
        eta, eta_t, mu, mu_t = eta_t, eta, mu_t, mu
    iterations = np.zeros(k, dtype=int)
    fit_at = np.arange(k)
    nl = retire(live)

    for iteration in range(1, _MAX_ITER + 1):
        if nl == 0:
            break
        w, xt, zt = mu[:nl], v[0, :nl], v[1, :nl]
        xt[...] = cost
        np.subtract(y[:nl], w, out=zt)
        np.divide(zt, w, out=zt, where=mask)
        zt += eta[:nl]  # the working response z = eta + (y - mu) / mu
        a, b, _, singular = _twoway_fe(
            w, v[:, :nl].transpose(1, 0, 2, 3), labels, (eta_t[:nl], mu_t[:nl])
        )
        for i, x in enumerate((xt, zt)):  # partialled in place
            x -= a[:, i, :, None]
            x -= b[:, i, None, :]
        work = eta_t[:nl]
        h = _grid_sum(np.multiply(np.multiply(xt, xt, out=work), w, out=work))
        total = _grid_sum(np.multiply(w, np.multiply(cost, cost, out=work), out=work))
        lacking = _lacks_variation(h, total)
        for j in fit_at[:nl][singular]:
            failures[int(j)] = _singular_projection()
        for j in fit_at[:nl][lacking]:
            failures[int(j)] = _collinear("log cost")
        dropped = singular | lacking
        if dropped.any():
            nl = retire(~dropped, v[0], v[1], a, b, h)
            w, xt, zt, a, b, h, work = mu[:nl], xt[:nl], zt[:nl], a[:nl], b[:nl], h[:nl], work[:nl]
        s_new = _grid_sum(np.multiply(np.multiply(w, xt, out=work), zt, out=work)) / h
        o_new = a[:, 1] - s_new[:, None] * a[:, 0]
        d_new = b[:, 1] - s_new[:, None] * b[:, 0]
        s_l, o_l, d_l, dev_l = s[:nl], o[:nl], d[:nl], dev[:nl]
        full = np.ones(nl, dtype=bool)  # the fits that take the full step
        if iteration == 1:
            s_t, o_t, d_t = s_new, o_new, d_new
            dev_t = trial(slice(nl), s_t, o_t, d_t)
        else:  # halve each fit's step until its deviance does not rise
            bound = dev_l + _DEV_TOL * np.maximum(1.0, np.abs(dev_l))
            s_t, o_t, d_t = np.empty_like(s_l), np.empty_like(o_l), np.empty_like(d_l)
            dev_t = np.empty_like(dev_l)
            todo, step = np.arange(nl), 1.0
            while todo.size:
                s_t[todo] = s_l[todo] + step * (s_new[todo] - s_l[todo])
                o_t[todo] = o_l[todo] + step * (o_new[todo] - o_l[todo])
                d_t[todo] = d_l[todo] + step * (d_new[todo] - d_l[todo])
                # Every fit takes the full step first; the few that halve
                # further are tried one row at a time.
                for rows in [slice(nl)] if todo.size == nl else [slice(r, r + 1) for r in todo]:
                    dev_t[rows] = trial(rows, s_t[rows], o_t[rows], d_t[rows])
                todo = todo[~(dev_t[todo] <= bound[todo])] if step >= 1e-8 else todo[:0]
                full[todo] = False
                step *= 0.5
        fe_max = np.maximum(np.abs(o_t).max(axis=1), np.abs(d_t).max(axis=1))
        separated = fe_max > _FE_DIVERGENCE_BOUND
        for j in fit_at[:nl][separated]:
            failures[int(j)] = Separation(
                f"a fixed effect exceeded {_FE_DIVERGENCE_BOUND:g} during PPML iteration"
            )
        converged = np.abs(dev_l - dev_t) < _DEV_TOL * np.maximum(1.0, np.abs(dev_l))
        if start is not None:  # the warm stop rule
            fe_step = np.maximum(np.abs(o_t - o_l).max(axis=1), np.abs(d_t - d_l).max(axis=1))
            converged |= (
                full
                & (np.square(s_t - s_l) < _WARM_STOP * start.variance)
                & (fe_step < _WARM_FE_STEP)
            )
        s_l[:], o_l[:], d_l[:], dev_l[:] = s_t, o_t, d_t, dev_t
        iterations[:nl] = iteration
        eta, eta_t, mu, mu_t = eta_t, eta, mu_t, mu
        keep = ~(converged | separated)
        if not keep.all():
            nl = retire(keep)
    for r in range(nl):
        failures[int(fit_at[r])] = NoConvergence(_MAX_ITER, abs(float(dev[r])), what="PPML")

    # The converged fits take the leading m rows.  Their first-order
    # conditions: the score sums for the slope and every fixed effect.
    m = retire(np.isin(fit_at, list(failures), invert=True))
    largest = y[:m].reshape(m, n * n).max(axis=1)  # y is zero off the sample
    u = np.subtract(y[:m], mu[:m], out=eta_t[:m])
    foc = np.maximum(
        np.abs(_grid_sum(np.multiply(u, cost, out=v[0, :m]))),
        np.maximum(np.abs(u.sum(axis=2)).max(axis=1), np.abs(u.sum(axis=1)).max(axis=1)),
    )
    unsettled = foc > 1e-8 * np.maximum(1.0, largest)

    a, b, _, singular = _twoway_fe(
        mu[:m], np.broadcast_to(cost, (m, 1, n, n)), labels, (eta[:m], mu_t[:m])
    )
    xt = np.subtract(cost, a[:, 0, :, None], out=y[:m])
    xt -= b[:, 0, None, :]
    h = _grid_sum(np.multiply(mu[:m], np.multiply(xt, xt, out=eta[:m]), out=eta[:m]))
    influence = np.multiply(np.multiply(xt, u, out=u), mask, out=u)
    influence /= h[:, None, None]
    if start is None:
        for r in np.flatnonzero(unsettled):
            failures[int(fit_at[r])] = NoConvergence(
                int(iterations[r]), float(foc[r]), what="PPML first-order conditions"
            )
    else:
        # A warm fit that the stop rule ended may instead meet the score
        # bound: the slope's next Newton step, which by Frisch-Waugh-Lovell
        # is the sum of its influence values, within _WARM_SCORE of the start
        # fit's standard error.
        step = np.abs(_grid_sum(influence))
        for r in np.flatnonzero(unsettled & ~(step <= _WARM_SCORE * np.sqrt(start.variance))):
            failures[int(fit_at[r])] = NoConvergence(
                int(iterations[r]), float(step[r]), what="warm-started PPML score bound"
            )
    for j in fit_at[:m][singular]:
        failures.setdefault(int(j), _singular_projection())
    return failures, fit_at[:m], s, o, d, dev, iterations, mu, influence


@dataclass(frozen=True, eq=False)
class PpmlEstimator:
    """Bootstrap estimator plug-in: the PPML elasticity and its sampling
    variance on a flow matrix, against fixed log costs.  Every fit starts its
    IRLS at ``start``, the fit of the observed matrix, which a drawn matrix
    lies close to, and ends by the warm stop rule of ``fit_ppml_many``: its
    elasticity lies within the score bound, 1e-4 of the start fit's standard
    error, of the converged one, or the fit fails.  ``many`` fits a batch of
    matrices in one IRLS with the same results as one call per matrix; when
    fits fail it raises the error of the lowest failing matrix, which aborts
    the bootstrap.  Picklable, so a process pool can ship it."""

    log_costs: np.ndarray
    start: PpmlFit
    include_diagonal: bool = False

    def __call__(self, flows: FlowMatrix) -> EstimatorResult:
        return self.many([flows])[0]

    def many(self, flows_seq) -> list[EstimatorResult]:
        fits = fit_ppml_many(flows_seq, self.log_costs, self.include_diagonal, self.start)
        for fit in fits:
            if isinstance(fit, FlowUqError):
                raise fit
        return [fit.to_estimator_result() for fit in fits]


def _influence_variance(psi: np.ndarray):
    """Sandwich variances of the elasticity from a (k, n, n) stack of
    influence grids: the (k,) variances and the mask of those projected.

    The dyadic sum runs over ordered pairs of dyads sharing a location.  It
    is computed through per-location sums T_a of the influence values of the
    dyads touching a: summing T_a^2 counts each sharing pair once per shared
    location, so pairs sharing two locations (an off-diagonal dyad with
    itself or with its mirror) are counted twice and corrected afterwards.
    Every sum adds in the same order whatever the stack's length, so a
    slice's variance is the same alone and in a stack.

    The pair sum can be negative in finite samples; the variance of interest
    is a single quadratic form, so the projection onto the feasible (PSD)
    set reduces to clamping that scalar at zero.  Clamping the full matrix
    spectrum instead would systematically inflate the variance.
    """
    k, n = psi.shape[:2]
    own = np.diagonal(psi, axis1=1, axis2=2)
    t = psi.sum(axis=2) + psi.sum(axis=1) - own
    off = psi.copy()
    off.reshape(k, n * n)[:, :: n + 1] = 0.0
    var = (t[:, None, :] @ t[:, :, None])[:, 0, 0]
    var -= _grid_sum(off * off)
    var -= _grid_sum(off * off.transpose(0, 2, 1))
    return np.maximum(var, 0.0), var < 0.0


def independent_variance(fit: PpmlFit) -> float:
    """Heteroskedasticity-robust variance ignoring dyadic dependence.  Tends
    to understate uncertainty relative to the dyadic version."""
    return float(_grid_sum((fit.influence * fit.influence)[None])[0])


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
    m = y_obs.shape[0]
    ssr = float(e @ e)
    tss = float(np.sum((y_obs - y_obs.mean()) ** 2))
    r2 = 1.0 if tss == 0 else 1.0 - ssr / tss
    k = int(sample.any(axis=1).sum() + sample.any(axis=0).sum())
    adj_r2 = (
        1.0 - (1.0 - r2) * (m - 1) / (m - k) if m > k else float("nan")
    )
    return GravityFit(
        beta_hat=beta,
        fe_origin=fe_origin,
        fe_dest=fe_dest,
        residual_variance=ssr / m,
        adj_r2=adj_r2,
        mu=mu,
        x_res=x_res,
        y_res=y_res,
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
    if message := _no_flow_for(sample.any(axis=1), sample.any(axis=0), flows.labels, "flow"):
        raise InsufficientData(message)
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
