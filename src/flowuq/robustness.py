"""The attenuation simulation and model-adequacy diagnostics.

The robust-Bayes quantile bounds live with the other interval kinds in
:mod:`flowuq.intervals`.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .calibration import posterior_log_variance, shrinkage_weight
from .core import CalibratedParams, FlowMatrix
from .engine import draw_rng
from .errors import DataError
from .gravity import GravityFit


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
        if self.seed < 0:
            raise DataError("seed must be non-negative")
        # Each check is written so that NaN fails it.
        if not (0 < self.epsilon < math.inf and 0 < self.s < math.inf):
            raise DataError("epsilon and s must be finite and positive")
        if not 0 <= self.sigma < math.inf:
            raise DataError("sigma must be finite and non-negative")
        if not (math.isfinite(self.rho) and self.rho != 0):  # negative is allowed
            raise DataError("rho must be finite and nonzero")


def run_attenuation_sim(cfg: AttenuationSimConfig) -> np.ndarray:
    """Median posterior bias of the implied elasticity, one value per rep.

    Per rep: simulate true and noisy log flows, fit the prior slope by OLS
    of noisy log flows on log distance, draw posterior log-flow matrices,
    and for each draw compute the implied elasticity as the negated OLS
    slope on log costs.  Shrinking toward the fitted gravity prior leaves
    the implied elasticity centered at the truth; the mu-zero ablation
    (shrink toward a constant) is the contrast and is not part of the
    reference procedure.

    The posterior is the sampler's (``calibration.shrinkage_weight`` and
    ``posterior_log_variance``), whose 1e-12 floor on each variance binds
    when s or sigma is below 1e-6; sigma = 0 is an exact observation.
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
        w = float(shrinkage_weight(cfg.s**2, cfg.sigma**2))
        post_var = float(posterior_log_variance(cfg.s**2, cfg.sigma**2))
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


# math.erfc element-wise, for the normal CDF Phi(x) = erfc(-x / sqrt 2) / 2.
_erfc = np.frompyfunc(math.erfc, 1, 1)

# Histogram bins of the standardized residuals, and of the partialled log
# distance in the gravity plot's binned means.
_RESIDUAL_BINS = 30
_PARTIAL_PLOT_BINS = 20


def residual_summary(residuals: np.ndarray, n_zero_variance: int = 0) -> NormalityDiagnostic:
    """Summary statistics and histogram counts for standardized residuals.

    With the population central moments m_k = mean((z - mean(z))^k):

    - ``variance`` is m2;
    - ``skewness`` is m3 / m2^1.5;
    - ``excess_kurtosis`` is m4 / m2^2 - 3;
    - ``ks_distance`` is the one-sample Kolmogorov-Smirnov distance to
      N(0, 1): over the sorted z_(1) <= ... <= z_(n), the largest of
      i/n - Phi(z_(i)) and Phi(z_(i)) - (i - 1)/n, with
      Phi(x) = erfc(-x / sqrt 2) / 2.

    Skewness and kurtosis are NaN when m2 <= (eps * mean)^2, eps the float64
    machine epsilon: a spread at rounding level of the mean, zero for a
    constant sample.  These are the definitions of ``scipy.stats.skew``,
    ``scipy.stats.kurtosis`` and ``scipy.stats.kstest(z, "norm")``, which
    the tests use as the oracle.
    """
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
    mean = z.mean()
    d = z - mean
    d2 = d**2
    m2, m3, m4 = d2.mean(), (d2 * d).mean(), (d2**2).mean()
    if m2 <= (np.finfo(float).eps * mean) ** 2:
        skewness = excess_kurtosis = float("nan")
    else:
        with np.errstate(all="ignore"):  # powers of m2 can underflow to 0
            skewness = float(m3 / m2**1.5)
            excess_kurtosis = float(m4 / m2**2 - 3.0)
    n = z.size
    cdf = 0.5 * _erfc(-np.sort(z) / math.sqrt(2.0)).astype(float)
    ks = max(
        (np.arange(1.0, n + 1) / n - cdf).max(), (cdf - np.arange(0.0, n) / n).max()
    )
    counts, edges = np.histogram(z, bins=_RESIDUAL_BINS)
    return NormalityDiagnostic(
        residuals=z,
        mean=float(mean),
        variance=float(m2),
        skewness=skewness,
        excess_kurtosis=excess_kurtosis,
        ks_distance=float(ks),
        bin_edges=edges,
        bin_counts=counts,
        n_zero_variance=n_zero_variance,
    )


def _standardized_residuals(
    flows_obs: FlowMatrix, mu: np.ndarray, total_var: np.ndarray
) -> tuple[np.ndarray, int]:
    """(log f - mu) / sqrt(total_var) on the positive off-diagonal flows with
    a finite prior mean and a positive total variance, and the number of
    such flows left out for a zero total variance."""
    f = flows_obs.values
    use = ~np.eye(flows_obs.n, dtype=bool) & (f > 0) & np.isfinite(mu)
    zero_var = use & (total_var <= 0)
    use &= total_var > 0
    z = (np.log(f[use]) - mu[use]) / np.sqrt(total_var[use])
    return z, int(np.count_nonzero(zero_var))


def normality_diagnostic(
    flows_obs: FlowMatrix | Sequence[FlowMatrix],
    params: CalibratedParams,
) -> NormalityDiagnostic:
    """Standardized residuals of positive log flows against the calibrated
    prior-plus-noise scale, with summary statistics for the normal check.

    With per-period parameters, ``flows_obs`` is a sequence of flow
    matrices, one per period of ``params.periods`` and in that order; the
    residuals of all periods are pooled into one summary.

    Entries whose total variance is zero cannot be standardized and are
    excluded (counted).  An empty positive subsample yields empty output.
    Parameters over other locations than the flows' are a DataError.
    """
    single = isinstance(flows_obs, FlowMatrix)
    flows = [flows_obs] if single else list(flows_obs)
    mus = list(params.mu) if params.has_periods else [params.mu]
    if single == params.has_periods or len(flows) != len(mus):
        raise DataError(
            "pass one flow matrix with single-period parameters or one per "
            "period with per-period parameters (for_period() slices them)"
        )
    for f in flows:
        params._refuse_other_locations(f)
    total_var = params.effective_s2() + params.effective_sigma2()
    parts = [_standardized_residuals(f, mu, total_var) for f, mu in zip(flows, mus)]
    return residual_summary(
        np.concatenate([z for z, _ in parts]), sum(k for _, k in parts)
    )


@dataclass(frozen=True)
class GravityPartialPlot:
    bin_centers: np.ndarray
    bin_means: np.ndarray
    bin_counts: np.ndarray


def gravity_partial_plot(fit: GravityFit) -> GravityPartialPlot:
    """Binned means of a gravity fit's partial-regression scatter, for a
    nonparametric overlay on it.

    The scatter is the fit's log distance and log flow with the fixed
    effects partialled out (``x_res``, ``y_res``); by the Frisch-Waugh-Lovell
    theorem its least-squares slope is the fit's distance coefficient.  The
    means are over ``_PARTIAL_PLOT_BINS`` equal-width bins of the partialled
    log distance; an empty bin has a NaN mean.
    """
    x_res, y_res = fit.x_res, fit.y_res
    edges = np.linspace(x_res.min(), x_res.max(), _PARTIAL_PLOT_BINS + 1)
    idx = np.clip(np.digitize(x_res, edges) - 1, 0, _PARTIAL_PLOT_BINS - 1)
    sums = np.bincount(idx, weights=y_res, minlength=_PARTIAL_PLOT_BINS)
    counts = np.bincount(idx, minlength=_PARTIAL_PLOT_BINS)
    with np.errstate(invalid="ignore"):
        means = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return GravityPartialPlot(bin_centers=centers, bin_means=means, bin_counts=counts)
