"""Robust-Bayes quantile bounds, the attenuation simulation, and
model-adequacy diagnostics.

The robust bounds answer: if the true likelihood (or prior) is within a
multiplicative factor c of the assumed log-normal one, how far can posterior
quantiles move?  The answer is a pure relabelling of quantile levels, so a
robust interval is just wider empirical quantiles of the same draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

from .calibration import CalibratedParams
from .core import DistanceMatrix, FlowMatrix
from .engine import Interval, draw_rng
from .errors import DataError, FlowUqError, TooFewDraws
from .gravity import _twoway_fe, fit_log_gravity


# ---------------------------------------------------------------------------
# Density-ratio-class quantile bounds


def robust_quantile_levels(alpha_tail: float, c: float) -> tuple[float, float]:
    """Worst-case relabelling of a single quantile level.

    For the alpha_tail-quantile under any likelihood within factor c of the
    assumed one, the infimum is the nominal alpha/(alpha + (1-alpha) c^2)
    quantile and the supremum the alpha c^2/(1-alpha + alpha c^2) quantile.
    c = 1 returns (alpha, alpha): robust equals nominal.
    """
    if not 0 < alpha_tail < 1:
        raise DataError("quantile level must be in (0, 1)")
    if c < 1:
        raise DataError("density-ratio bound c must be >= 1")
    c2 = c * c
    inf_level = alpha_tail / (alpha_tail + (1.0 - alpha_tail) * c2)
    sup_level = alpha_tail * c2 / (1.0 - alpha_tail + alpha_tail * c2)
    return inf_level, sup_level


@dataclass(frozen=True)
class RobustLevels:
    """Two-sided robust interval levels for coverage 1 - alpha."""

    lower_level: float
    upper_level: float
    c: float
    alpha: float

    def __post_init__(self):
        half = self.alpha / 2.0
        if not self.lower_level <= half <= 1 - half <= self.upper_level:
            raise DataError("robust levels must bracket the nominal levels")


def robust_interval_levels(alpha: float, c: float) -> RobustLevels:
    """Quantile levels for the robust two-sided interval: the infimum of the
    alpha/2-quantile and the supremum of the (1-alpha/2)-quantile."""
    if not 0 < alpha < 1:
        raise DataError("alpha must be in (0, 1)")
    lower = robust_quantile_levels(alpha / 2.0, c)[0]
    upper = robust_quantile_levels(1.0 - alpha / 2.0, c)[1]
    return RobustLevels(lower_level=lower, upper_level=upper, c=c, alpha=alpha)


def robust_interval(draws, alpha: float, c: float) -> Interval:
    """Empirical quantiles of the draws at the robust levels.

    Contains the nominal equal-tailed interval for every c >= 1 and is
    monotone in c on a fixed draw set.  Raises TooFewDraws when the lower
    level cannot be resolved (B * level < 1).
    """
    arr = np.asarray(draws, dtype=float)
    if arr.ndim != 1:
        raise DataError("robust_interval expects a one-dimensional draw set")
    levels = robust_interval_levels(alpha, c)
    b = arr.shape[0]
    lo_rank = int(np.floor(levels.lower_level * b + 1e-12))
    if lo_rank < 1:
        raise TooFewDraws(
            f"need B * {levels.lower_level:.4g} >= 1 to resolve the lower tail"
        )
    hi_rank = int(np.ceil(levels.upper_level * b - 1e-12))
    s = np.sort(arr, kind="stable")
    return Interval(
        lo=float(s[lo_rank - 1]),
        hi=float(s[min(hi_rank, b) - 1]),
        alpha=alpha,
        kind=f"robust(c={c:g})",
        draws_used=b,
    )


# ---------------------------------------------------------------------------
# Attenuation simulation


@dataclass(frozen=True)
class AttenuationSimConfig:
    """Monte Carlo design for the attenuation-bias exercise.

    Locations sit on a line, dist_ij = |i - j|; log costs load on log
    distance with coefficient rho; true log flows are normal around
    -epsilon * log cost; observations add log-normal noise.  Reference-scale
    settings are m_reps=10^5 and b_draws=1000 with rho=0.5, epsilon=5 and
    s = sigma = 0.1; desk-scale runs shrink m_reps and b_draws.
    """

    m_reps: int = 2000
    b_draws: int = 200
    n: int = 50
    rho: float = 0.5
    epsilon: float = 5.0
    s: float = 0.1
    sigma: float = 0.1
    seed: int = 0
    mu_zero_ablation: bool = False  # shrink toward 0, not the gravity fit

    def __post_init__(self):
        if min(self.m_reps, self.b_draws, self.n) < 1:
            raise DataError("m_reps, b_draws and n must be positive")
        if self.epsilon <= 0 or self.s <= 0:
            raise DataError("epsilon and s must be positive")
        if self.sigma < 0:
            raise DataError("sigma must be non-negative")
        if self.rho == 0:
            raise DataError("rho must be nonzero")  # negative is unusual but allowed


def run_attenuation_sim(cfg: AttenuationSimConfig) -> np.ndarray:
    """Median posterior bias of the implied elasticity, one value per rep.

    Per rep: simulate true and noisy log flows, fit the prior slope by OLS
    of noisy log flows on log distance, draw posterior log-flow matrices,
    and for each draw compute the implied elasticity as the negated OLS
    slope on log costs.  Shrinking toward the fitted gravity prior leaves
    the implied elasticity centered at the truth; the mu-zero ablation
    (shrink toward a constant) is the contrast and is not part of the
    reference procedure.
    """
    i, j = np.meshgrid(np.arange(cfg.n), np.arange(cfg.n), indexing="ij")
    off = i != j
    log_dist = np.log(np.abs(i - j)[off].astype(float))
    xc = log_dist - log_dist.mean()
    denom = float(xc @ xc)
    if denom <= 0:
        raise DataError("degenerate distance design")
    if cfg.sigma == 0:
        w, post_var = 1.0, 0.0  # exact observation: posterior collapses on it
    else:
        w = cfg.s**2 / (cfg.s**2 + cfg.sigma**2)
        post_var = 1.0 / (1.0 / cfg.s**2 + 1.0 / cfg.sigma**2)
    m = log_dist.shape[0]

    biases = np.empty(cfg.m_reps)
    for rep in range(cfg.m_reps):
        rng = draw_rng(cfg.seed, rep, 0)
        log_f = -cfg.epsilon * cfg.rho * log_dist + cfg.s * rng.standard_normal(m)
        log_ft = log_f + cfg.sigma * rng.standard_normal(m)
        beta_hat = float(xc @ log_ft) / denom
        prior = 0.0 if cfg.mu_zero_ablation else beta_hat * log_dist
        post_mean = w * log_ft + (1.0 - w) * prior
        z = rng.standard_normal((cfg.b_draws, m))
        draws = post_mean[None, :] + np.sqrt(post_var) * z
        slopes = (draws @ xc) / denom / cfg.rho  # slope on log cost
        biases[rep] = float(np.median(-slopes - cfg.epsilon))
    return biases


# ---------------------------------------------------------------------------
# Model-adequacy diagnostics


@dataclass(frozen=True)
class NormalityDiagnostic:
    residuals: np.ndarray
    mean: float
    variance: float
    skewness: float
    excess_kurtosis: float
    ks_distance: float
    bin_edges: np.ndarray
    bin_counts: np.ndarray
    n_zero_variance: int = 0


def residual_summary(
    residuals: np.ndarray, bins: int = 30, n_zero_variance: int = 0
) -> NormalityDiagnostic:
    """Summary statistics and histogram counts for standardized residuals."""
    z = np.asarray(residuals, dtype=float)
    if z.size == 0:
        return NormalityDiagnostic(
            residuals=np.empty(0),
            mean=float("nan"),
            variance=float("nan"),
            skewness=float("nan"),
            excess_kurtosis=float("nan"),
            ks_distance=float("nan"),
            bin_edges=np.empty(0),
            bin_counts=np.empty(0, dtype=int),
            n_zero_variance=n_zero_variance,
        )
    counts, edges = np.histogram(z, bins=bins)
    return NormalityDiagnostic(
        residuals=z,
        mean=float(z.mean()),
        variance=float(z.var()),
        skewness=float(stats.skew(z)),
        excess_kurtosis=float(stats.kurtosis(z)),
        ks_distance=float(stats.kstest(z, "norm").statistic),
        bin_edges=edges,
        bin_counts=counts,
        n_zero_variance=n_zero_variance,
    )


def normality_diagnostic(
    flows_obs: FlowMatrix, params: CalibratedParams, bins: int = 30
) -> NormalityDiagnostic:
    """Standardized residuals of positive log flows against the calibrated
    prior-plus-noise scale, with summary statistics for the normal check.

    Entries whose total variance is zero cannot be standardized and are
    excluded (counted).  An empty positive subsample yields empty output.
    """
    if params.has_periods:
        raise DataError("slice per-period parameters with for_period() first")
    f = flows_obs.values
    n = flows_obs.n
    off = ~np.eye(n, dtype=bool)
    total_var = params.effective_s2() + params.effective_sigma2()
    use = off & (f > 0) & np.isfinite(params.mu)
    zero_var = use & (total_var <= 0)
    use = use & (total_var > 0)
    if not np.any(use):
        return residual_summary(
            np.empty(0), bins, int(np.count_nonzero(zero_var))
        )
    z = (np.log(f[use]) - params.mu[use]) / np.sqrt(total_var[use])
    return residual_summary(z, bins, int(np.count_nonzero(zero_var)))


@dataclass(frozen=True)
class GravityPartialPlot:
    x: np.ndarray           # log distance, fixed effects partialled out
    y: np.ndarray           # log flow, fixed effects partialled out
    slope: float            # equals the gravity fit's distance coefficient
    bin_centers: np.ndarray
    bin_means: np.ndarray
    bin_counts: np.ndarray


def gravity_partial_plot(
    flows_obs: FlowMatrix, distances: DistanceMatrix, bins: int = 20
) -> GravityPartialPlot:
    """Partial log flows and log distances on the two-way fixed effects and
    return the scatter, its OLS slope, and binned means for a nonparametric
    overlay.

    By the Frisch-Waugh identity the scatter slope equals the gravity
    regression's distance coefficient; this is checked to 1e-10 and a
    violation is reported as an internal error.
    """
    fit = fit_log_gravity(flows_obs, distances)  # also runs the data checks
    n = flows_obs.n
    sample = (flows_obs.values > 0) & ~np.eye(n, dtype=bool)
    v = np.zeros((n, n, 2))
    v[sample, 0] = np.log(distances.values[sample])
    v[sample, 1] = np.log(flows_obs.values[sample])
    fe_o, fe_d, _ = _twoway_fe(sample.astype(float), v)
    res = (v - fe_o[:, None, :] - fe_d[None, :, :])[sample]
    x_res, y_res = res[:, 0], res[:, 1]
    sxx = float(x_res @ x_res)
    slope = float(x_res @ y_res) / sxx
    if abs(slope - fit.beta_hat) > 1e-10 * max(1.0, abs(fit.beta_hat)):
        raise FlowUqError(
            "Frisch-Waugh identity violated: partialled slope "
            f"{slope} vs fit {fit.beta_hat}"
        )
    edges = np.linspace(x_res.min(), x_res.max(), bins + 1)
    idx = np.clip(np.digitize(x_res, edges) - 1, 0, bins - 1)
    sums = np.bincount(idx, weights=y_res, minlength=bins)
    counts = np.bincount(idx, minlength=bins)
    with np.errstate(invalid="ignore"):
        means = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return GravityPartialPlot(
        x=x_res,
        y=y_res,
        slope=slope,
        bin_centers=centers,
        bin_means=means,
        bin_counts=counts,
    )
