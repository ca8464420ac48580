"""Spike-and-slab measurement-error model and its empirical-Bayes calibration.

The model for a dyad (i, j): the true flow is zero with probability p_ij,
otherwise log-normal around a gravity mean; an observed zero despite a
positive true flow occurs with probability b_ij, otherwise the observation
is the true flow times log-normal noise with variance sigma2_ij.  Conjugacy
gives a closed-form posterior for the true flow given the noisy one:

    observed zero:     spike at 0 w.p. p/(p + b(1-p)), else exp N(mu, s2)
    observed positive: exp N(w log f + (1-w) mu, (1/s2 + 1/sigma2)^-1),
                       w = s2/(s2 + sigma2).

Two calibration regimes fill in the parameters: a baseline regime that takes
the measurement-error variance from domain knowledge and fits the prior from
a single cross-section, and a mirror-panel regime that identifies everything
from two independent noisy reports per dyad and period.  Both produce a
:class:`flowuq.core.CalibratedParams`; :func:`ingest_mirror_csv` reads a
panel with :func:`flowuq.dataio.read_mirror_csv` and resolves its gaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CalibratedParams, DistanceMatrix, FlowMatrix, _freeze
from .dataio import read_mirror_csv
from .errors import DataError, InsufficientData
from .gravity import GravityFit, _components, _log_gravity_ols, _twoway_fe, fit_log_gravity

VARIANCE_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# Posterior sampling


def shrinkage_weight(s2: float | np.ndarray, sigma2: float | np.ndarray):
    """Weight on the observed log flow in the posterior mean, s2/(s2 + sigma2).

    Takes scalars or arrays.  Both variances are floored at 1e-12 so the
    weight stays finite.
    """
    s2 = np.maximum(s2, VARIANCE_FLOOR)
    sigma2 = np.maximum(sigma2, VARIANCE_FLOOR)
    return s2 / (s2 + sigma2)


def posterior_log_variance(
    s2: float | np.ndarray, sigma2: float | np.ndarray
):
    """Posterior variance of the log flow, (1/s2 + 1/sigma2)^-1, with both
    variances floored at 1e-12.  Takes scalars or arrays."""
    s2 = np.maximum(s2, VARIANCE_FLOOR)
    sigma2 = np.maximum(sigma2, VARIANCE_FLOOR)
    return 1.0 / (1.0 / s2 + 1.0 / sigma2)


def spike_weight(p: float | np.ndarray, b: float | np.ndarray):
    """Posterior probability of a true zero given an observed zero,
    p/(p + b(1-p)).  Takes scalars or arrays.

    The degenerate case p = b = 0 (an observed zero the model says cannot
    happen) is resolved as a true zero: weight 1.
    """
    p = np.asarray(p, dtype=float)
    denom = p + np.asarray(b, dtype=float) * (1.0 - p)
    return np.where(denom > 0, p / np.where(denom > 0, denom, 1.0), 1.0)[()]


def sample_flow_matrix(
    flows_obs: FlowMatrix, params: CalibratedParams, rng: np.random.Generator
) -> tuple[FlowMatrix, int]:
    """One posterior draw of the whole true flow matrix.

    Consumes exactly n*n standard normals followed by n*n uniforms from
    ``rng`` regardless of the data, so draw streams are reproducible.  Exact
    special cases (measurement-error variance exactly zero, spike draws)
    return the observed flow or zero verbatim, which is what lets
    no-measurement-error runs reproduce estimation-error-only runs bit for
    bit.  Returns the draw and the count of degenerate observed zeros
    (p = b = 0) that were resolved as true zeros.
    """
    if params.has_periods:
        raise DataError("slice per-period parameters with for_period() first")
    f = flows_obs.values
    n = flows_obs.n
    if params.n != n:
        raise DataError("parameter matrices do not match the flow matrix size")
    z = rng.standard_normal((n, n))
    u = rng.random((n, n))

    s2 = params.effective_s2()
    sigma2 = params.effective_sigma2()
    mu = params.mu
    finite_mu = np.isfinite(mu)
    out = np.zeros((n, n))
    pos = f > 0

    # Positive observations: conjugate log-normal update.
    exact_obs = pos & (sigma2 == 0)
    exact_prior = pos & (s2 == 0) & ~exact_obs
    generic = pos & ~exact_obs & ~exact_prior
    if np.any((generic | exact_prior) & ~finite_mu):
        raise DataError("posterior update needs a finite prior mean")
    s2_g, sigma2_g = s2[generic], sigma2[generic]
    w = shrinkage_weight(s2_g, sigma2_g)
    mean = w * np.log(f[generic]) + (1.0 - w) * mu[generic]
    sd = np.sqrt(posterior_log_variance(s2_g, sigma2_g))
    out[generic] = np.exp(mean + sd * z[generic])
    out[exact_obs] = f[exact_obs]
    out[exact_prior] = np.exp(mu[exact_prior])

    # Observed zeros: an exactly-measured zero is a true zero (the model has
    # no channel for a spurious one without reporting noise); otherwise draw
    # the spike-or-slab, counting the contradictory p = b = 0 entries.
    zero = ~pos
    hold = zero & (sigma2 == 0)
    degenerate = zero & ~hold & (params.p == 0) & (params.b == 0)
    slab = zero & ~hold & ~degenerate
    slab[slab] = ~(u[slab] < spike_weight(params.p[slab], params.b[slab]))
    if np.any(slab & ~finite_mu):
        raise DataError("slab draw needs a finite prior mean")
    out[slab] = np.exp(mu[slab] + np.sqrt(s2[slab]) * z[slab])

    return flows_obs.replace_values(out), int(np.count_nonzero(degenerate))


# ---------------------------------------------------------------------------
# Baseline calibration (measurement-error variance from domain knowledge)


def calibrate_baseline(
    flows_obs: FlowMatrix,
    distances: DistanceMatrix,
    sigma2_common: float,
    p,
    b,
) -> tuple[CalibratedParams, GravityFit]:
    """Calibrate with a constant, externally supplied ME variance.

    The prior mean is the fitted two-way gravity regression on positive
    flows; the common prior variance is the residual variance less the ME
    variance, floored at zero.  Zero-flow probabilities p and b must be
    supplied (scalars broadcast).  Diagonal dyads are excluded from the fit
    and are held fixed under posterior sampling.

    Returns the parameters and the gravity fit behind them, whose summary
    and partial-regression scatter the command-line diagnostics report.
    """
    if not 0 <= sigma2_common < math.inf:  # NaN fails it
        raise DataError("measurement-error variance must be finite and >= 0")
    n = flows_obs.n
    fit = fit_log_gravity(flows_obs, distances)
    s2_hat = max(fit.residual_variance - sigma2_common, 0.0)

    off = ~np.eye(n, dtype=bool)
    p_arr = np.where(off, np.broadcast_to(np.asarray(p, dtype=float), (n, n)), 0.0)
    b_arr = np.where(off, np.broadcast_to(np.asarray(b, dtype=float), (n, n)), 0.0)
    s2 = np.where(off, s2_hat, 0.0)
    sigma2 = np.where(off, sigma2_common, 0.0)
    params = CalibratedParams(
        p=p_arr,
        b=b_arr,
        mu=fit.mu,
        s2=s2,
        sigma2=sigma2,
        mu_defined=off,
        labels=flows_obs.labels,
    )
    return params, fit


# ---------------------------------------------------------------------------
# Mirror-panel calibration


@dataclass(frozen=True)
class MirrorPanel:
    """Two independent noisy reports of each off-diagonal dyad per period.

    A panel is resolved when it is built: it refuses NaN, so reports with
    missing entries go through :func:`resolve_missing` first (as
    :func:`ingest_mirror_csv` does), and every calibration estimator takes
    any panel.  ``na_copied`` and ``na_zeroed`` count the entries that rule
    filled.  Off-diagonal entries must not be negative or infinite; diagonal
    entries are ignored.
    """

    report1: np.ndarray  # (T, n, n)
    report2: np.ndarray  # (T, n, n)
    labels: tuple[str, ...]
    periods: tuple[int, ...]
    na_copied: int = 0
    na_zeroed: int = 0

    def __post_init__(self):
        r1 = np.asarray(self.report1, dtype=float)
        r2 = np.asarray(self.report2, dtype=float)
        if r1.ndim != 3 or r1.shape != r2.shape or r1.shape[1] != r1.shape[2]:
            raise DataError("reports must be matching (T, n, n) arrays")
        t, n, _ = r1.shape
        if t < 1:
            raise DataError("a mirror panel needs at least one period")
        if len(self.labels) != n or len(self.periods) != t:
            raise DataError("labels/periods do not match the report arrays")
        off = ~np.eye(n, dtype=bool)
        for name, arr in (("report1", r1), ("report2", r2)):
            if np.any(np.isnan(arr)):
                raise DataError(
                    f"{name} has missing entries; apply resolve_missing first"
                )
            vals = arr[:, off]
            if np.any(np.isinf(vals)):
                raise DataError(f"{name} contains infinite flows")
            if np.any(vals < 0):
                raise DataError(f"{name} contains negative flows")
        if not np.any((r1 > 0) & (r2 > 0) & off[None, :, :]):
            raise DataError(
                "panel has no dyad-period with two positive reports; "
                "measurement-error variance is unidentified"
            )
        object.__setattr__(self, "report1", _freeze(r1))
        object.__setattr__(self, "report2", _freeze(r2))
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "periods", tuple(int(x) for x in self.periods))

    @property
    def n(self) -> int:
        return self.report1.shape[1]

    @property
    def t(self) -> int:
        return self.report1.shape[0]


def resolve_missing(
    report1: np.ndarray, report2: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Apply the two-step missing-data rule to (T, n, n) report arrays whose
    missing entries are NaN.

    First, for dyads where one side is missing in every period while the
    other side is positive in every period, copy the positive side across.
    Then set all remaining missing entries to zero.  Returns the resolved
    reports, the number of off-diagonal entries copied and the number
    zeroed.
    """
    r1 = np.array(report1, dtype=float)
    r2 = np.array(report2, dtype=float)
    t, n = r1.shape[:2]
    off = ~np.eye(n, dtype=bool)
    copied = 0
    for a, other in ((r1, r2), (r2, r1)):
        all_na = np.all(np.isnan(a), axis=0) & off
        all_pos = np.all(~np.isnan(other) & (other > 0), axis=0)
        fix = all_na & all_pos
        if np.any(fix):
            copied += int(np.count_nonzero(fix)) * t
            a[:, fix] = other[:, fix]
    zeroed = int(np.count_nonzero(np.isnan(r1[:, off]))) + int(
        np.count_nonzero(np.isnan(r2[:, off]))
    )
    r1[np.isnan(r1)] = 0.0
    r2[np.isnan(r2)] = 0.0
    return r1, r2, copied, zeroed


def estimate_zero_probs(panel: MirrorPanel) -> tuple[np.ndarray, np.ndarray]:
    """True-zero and spurious-zero probabilities per dyad.

    Uses the time frequencies of (two zeros, one zero, no zeros) per dyad.
    The interior closed form applies when all three frequencies are strictly
    inside (0, 1); the six boundary configurations get their own closed
    forms, including the no-double-zero case b = z1/(2 - z1).
    """
    r1, r2 = panel.report1, panel.report2
    t = panel.t
    c2 = ((r1 == 0) & (r2 == 0)).sum(axis=0)
    c0 = ((r1 > 0) & (r2 > 0)).sum(axis=0)
    c1 = t - c2 - c0
    z2, z1, z0 = c2 / t, c1 / t, c0 / t

    p = np.zeros((panel.n, panel.n))
    b = np.zeros((panel.n, panel.n))

    only_zeros = c2 == t
    only_one = c1 == t
    only_pos = c0 == t
    no_double_pos = (c0 == 0) & ~only_zeros & ~only_one
    no_single = (c1 == 0) & ~only_zeros & ~only_pos
    no_double_zero = (c2 == 0) & ~only_one & ~only_pos
    interior = (c2 > 0) & (c1 > 0) & (c0 > 0)

    p[only_zeros] = 1.0
    # only_one: p = 0, b = 0.5
    b[only_one] = 0.5
    # only_pos: p = b = 0 (already)
    p[no_double_pos] = z2[no_double_pos]
    b[no_double_pos] = z1[no_double_pos]
    p[no_single] = z2[no_single]
    with np.errstate(divide="ignore", invalid="ignore"):
        b = np.where(no_double_zero, z1 / (2.0 - z1), b)
        denom = z1 + 2.0 * z0
        p = np.where(
            interior, np.maximum(1.0 - denom**2 / (4.0 * np.where(z0 > 0, z0, 1.0)), 0.0), p
        )
        b = np.where(interior, z1 / np.where(denom > 0, denom, 1.0), b)

    diag = np.eye(panel.n, dtype=bool)
    p[diag] = 0.0
    b[diag] = 0.0
    return p, b


def estimate_me_variance(panel: MirrorPanel) -> tuple[np.ndarray, np.ndarray]:
    """Measurement-error variance per dyad from mirror discrepancies.

    The log difference of two positive reports is N(0, 2 sigma2), so half
    the mean squared log difference over double-positive periods estimates
    sigma2.  Dyads with no double-positive period get 0; the returned mask
    records which dyads were actually identified.
    """
    r1, r2 = panel.report1, panel.report2
    both = (r1 > 0) & (r2 > 0)
    counts = both.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.where(both, np.log(np.where(both, r1, 1.0)) - np.log(np.where(both, r2, 1.0)), 0.0)
    total = (d**2).sum(axis=0)
    sigma2 = np.where(counts > 0, 0.5 * total / np.maximum(counts, 1), 0.0)
    observed = counts > 0
    diag = np.eye(panel.n, dtype=bool)
    sigma2[diag] = 0.0
    observed = observed & ~diag
    return sigma2, observed


@dataclass(frozen=True)
class PriorMeans:
    """Per-period prior means, the per-period gravity fit summaries, and the
    last period's whole fit, whose partial-regression scatter the
    command-line diagnostics report."""

    mu: np.ndarray        # (T, n, n), NaN where undefined
    defined: np.ndarray   # (n, n): dyad has at least one positive period
    beta: np.ndarray      # (T,) log-distance coefficients
    adj_r2: np.ndarray    # (T,)
    last_fit: GravityFit  # the fit of period T


def estimate_prior_means(
    panel: MirrorPanel, distances: DistanceMatrix
) -> PriorMeans:
    """Prior log-means from within-period gravity regressions.

    Each period's fit runs on the locations present in it, so a location
    absent in a period does not stop the others from being fitted.
    Positive dyad-periods get the within-period fitted value.  Zero
    dyad-periods are imputed with the across-period average of the dyad's
    fitted values over its positive periods.  Dyads never positive stay NaN
    and are flagged undefined (their posterior never needs a slab mean when
    the true-zero probability is one).
    """
    n, t = panel.n, panel.t
    if distances.n != n:
        raise DataError("distance matrix size does not match the panel")
    flows = panel.report1  # report 1 is the observed-flow convention
    off = ~np.eye(n, dtype=bool)
    with np.errstate(divide="ignore"):
        log_dist = np.log(distances.values)
    mu = np.full((t, n, n), np.nan)
    beta = np.empty(t)
    adj = np.empty(t)
    for k in range(t):
        pos = (flows[k] > 0) & off
        if not np.any(pos):
            raise InsufficientData(
                f"period {panel.periods[k]} has no positive flows"
            )
        fit = _log_gravity_ols(flows[k], log_dist)
        mu[k][pos] = fit.mu[pos]
        beta[k], adj[k] = fit.beta_hat, fit.adj_r2

    pos_any = (flows > 0).any(axis=0) & off
    n_pos = (flows > 0).sum(axis=0)
    with np.errstate(invalid="ignore"):
        avg = np.nansum(np.where(flows > 0, mu, 0.0), axis=0) / np.maximum(n_pos, 1)
    for k in range(t):
        fill = pos_any & ~(flows[k] > 0)
        mu[k][fill] = avg[fill]
    return PriorMeans(mu=mu, defined=pos_any, beta=beta, adj_r2=adj, last_fit=fit)


def estimate_prior_variances(
    panel: MirrorPanel, mu: np.ndarray, sigma2: np.ndarray
) -> np.ndarray:
    """Prior variance per dyad: residual variance of positive log flows
    around the prior means, less the ME variance, floored at zero.

    Variances use the 1/N maximum-likelihood convention.

    The estimator is biased downward, for two reasons: the residuals are
    in-sample residuals of a per-period gravity fit with about 2n parameters
    on n(n-1) dyads, and each dyad's residuals are demeaned over time with
    the 1/N convention.  So the floor is hit often on small panels.  Mean
    ratio of estimated to true s2 on ``mirror_world`` (seeds 0-59; 0-9 at
    n=60), and the share of seeds that leave some location with no positive
    estimate in a role:

        (n, T)     s2 est/true   seeds with an all-zero location
        (5, 4)     0.21          35/60
        (6, 5)     0.32          15/60
        (8, 6)     0.45           2/60
        (60, 20)   0.87           0/10

    The estimator is kept as it is, as the reference that the benchmark's
    recorded s2 means are checked against, until that reference is
    re-recorded with a bias-corrected estimator.
    """
    flows = panel.report1
    t, n = panel.t, panel.n
    if mu.shape != (t, n, n):
        raise DataError("mu must be the (T, n, n) prior-mean array")
    pos = flows > 0
    counts = pos.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        resid = np.where(pos, np.log(np.where(pos, flows, 1.0)) - mu, 0.0)
    mean_r = resid.sum(axis=0) / np.maximum(counts, 1)
    var = (resid**2).sum(axis=0) / np.maximum(counts, 1) - mean_r**2
    s2 = np.where(counts > 0, np.maximum(var - sigma2, 0.0), 0.0)
    s2[np.eye(n, dtype=bool)] = 0.0
    return s2


def _twoway_log_fit(values: np.ndarray, what: str, keep_empty: bool) -> np.ndarray:
    """Fit log(values) = origin FE + destination FE on the positive
    off-diagonal estimates and return exp(fitted) for every off-diagonal dyad
    whose fitted value is identified.

    A fitted value is identified when the positive estimates connect the
    dyad's origin and destination, through a chain of dyads sharing a
    location.  A location with no positive estimate in a role is the usual
    way to break that, but the positive estimates can also fall into
    separate groups of locations.  With ``keep_empty`` the dyads without an
    identified fitted value keep zero, and the fit runs on the rest; this is
    for estimates whose zeros are data (prior variances floored at zero).
    Without it the fit raises InsufficientData; this is for estimates whose
    zeros mean "not identified" (ME variances with no double-positive
    period).
    """
    n = values.shape[0]
    off = ~np.eye(n, dtype=bool)
    mask = off & np.isfinite(values) & (values > 0)
    if not keep_empty:
        for role, has in (("origin", mask.any(axis=1)), ("destination", mask.any(axis=0))):
            if not has.all():
                raise InsufficientData(
                    f"no positive {what} estimate for {role} index "
                    f"{np.flatnonzero(~has).tolist()}"
                )
    log_v = np.log(np.where(mask, values, 1.0))
    labels = _components(mask)
    fe_o, fe_d, linked, _ = _twoway_fe(mask.astype(float)[None], log_v[None, None], labels)
    fe_o, fe_d = fe_o[0, 0], fe_d[0, 0]
    identified = linked & off
    if not keep_empty and not identified[off].all():
        raise InsufficientData(
            f"positive {what} estimates split the locations into unconnected "
            f"groups; {int(np.count_nonzero(off & ~identified))} dyads join two groups"
        )
    return np.where(identified, np.exp(fe_o[:, None] + fe_d[None, :]), 0.0)


def shrink_variances(
    sigma2: np.ndarray, s2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Replace raw variance estimates by fitted values from two-way
    multiplicative fixed-effects models, log ves = k_i + k_j + error.

    Pools information across dyads sharing a reporter; zero estimates are
    excluded from the log regression but still receive a positive fitted
    value when both their origin and destination have a positive estimate.

    The two variances treat a location with no positive estimate in a role
    differently, because their zeros mean different things:

    - Prior variance (s2): a zero is an estimate floored at zero by
      ``estimate_prior_variances``, which is data, and ``sample_flow_matrix``
      has an exact path for s2 = 0.  A location whose s2 estimates are all
      zero in a role keeps zero on those dyads, and so does a dyad whose
      origin and destination the positive estimates do not connect; the fit
      runs on the rest.
    - ME variance (sigma2): a zero means the dyad has no double-positive
      period, so sigma2 is not identified there (``estimate_me_variance``).
      A location with no positive sigma2 estimate in a role, or positive
      estimates that leave some dyad's origin and destination unconnected,
      raise InsufficientData.
    """
    return (
        _twoway_log_fit(np.asarray(sigma2, dtype=float), "ME variance", keep_empty=False),
        _twoway_log_fit(np.asarray(s2, dtype=float), "prior variance", keep_empty=True),
    )


def calibrate_mirror(
    panel: MirrorPanel, distances: DistanceMatrix, shrink: bool = True
) -> tuple[CalibratedParams, PriorMeans]:
    """Full mirror-panel calibration: zero probabilities, ME variances,
    per-period prior means and variances, and (optionally) variance
    shrinkage across reporters.

    Returns the parameters and the prior means with the per-period gravity
    fits behind them (``PriorMeans``), which the command-line summary and
    diagnostics report.
    """
    p, b = estimate_zero_probs(panel)
    sigma2, observed = estimate_me_variance(panel)
    means = estimate_prior_means(panel, distances)
    s2 = estimate_prior_variances(panel, means.mu, sigma2)
    sigma2_shrunk = s2_shrunk = None
    if shrink:
        sigma2_shrunk, s2_shrunk = shrink_variances(sigma2, s2)
    params = CalibratedParams(
        p=p,
        b=b,
        mu=means.mu,
        s2=s2,
        sigma2=sigma2,
        s2_shrunk=s2_shrunk,
        sigma2_shrunk=sigma2_shrunk,
        mu_defined=means.defined,
        me_observed=observed,
        labels=panel.labels,
        periods=panel.periods,
    )
    return params, means


# ---------------------------------------------------------------------------
# Mirror CSV ingestion


def ingest_mirror_csv(path) -> MirrorPanel:
    """Read a mirror panel from CSV (:func:`flowuq.dataio.read_mirror_csv`)
    and apply the missing-data rule: a blank report and a dyad-period absent
    from the file are missing, and become zeros unless the copy rule fires."""
    labels, periods, report1, report2 = read_mirror_csv(path)
    r1, r2, copied, zeroed = resolve_missing(report1, report2)
    return MirrorPanel(r1, r2, labels, periods, na_copied=copied, na_zeroed=zeroed)
