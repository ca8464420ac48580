"""Synthetic worlds for tests, examples and the CLI walk-through.

Nothing here ships real data; the generators produce flow systems whose true
parameters are known, which is what coverage experiments and end-to-end
checks need.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import MirrorPanel
from .core import CalibratedParams, CounterfactualSpec, DistanceMatrix, FlowMatrix


def _line_distances(n: int) -> np.ndarray:
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    d = np.abs(i - j).astype(float)
    np.fill_diagonal(d, 1.0)
    return d


@dataclass(frozen=True)
class ArmingtonScenario:
    """A gravity world with known elasticity and noise levels.

    True flows are log-normal around the gravity mean ``mu``; observed flows
    multiply in log-normal measurement error.  ``params`` is the exactly
    correct calibration (oracle parameters), so coverage experiments isolate
    the uncertainty propagation rather than calibration error.  Own flows
    are generated once and observed without error.
    """

    n: int
    epsilon: float
    rho: float
    s2: float
    sigma2: float
    mu: np.ndarray          # gravity log-means, NaN diagonal
    own_flows: np.ndarray   # fixed positive diagonal
    distances: DistanceMatrix
    log_costs: np.ndarray
    params: CalibratedParams
    cf_spec: CounterfactualSpec
    labels: tuple[str, ...]

    def draw_world(self, rng: np.random.Generator) -> tuple[FlowMatrix, FlowMatrix]:
        """One (true, observed) flow-matrix pair."""
        n = self.n
        off = ~np.eye(n, dtype=bool)
        true = np.zeros((n, n))
        true[off] = np.exp(
            self.mu[off] + np.sqrt(self.s2) * rng.standard_normal(np.count_nonzero(off))
        )
        np.fill_diagonal(true, self.own_flows)
        obs = true.copy()
        obs[off] = true[off] * np.exp(
            np.sqrt(self.sigma2) * rng.standard_normal(np.count_nonzero(off))
        )
        return (
            FlowMatrix(true, self.labels),
            FlowMatrix(obs, self.labels),
        )


def armington_world(
    n: int = 10,
    seed: int = 0,
    epsilon: float = 5.0,
    rho: float = 0.5,
    s2: float = 0.1,
    sigma2: float = 0.05,
    cost_increase: float = 0.1,
) -> ArmingtonScenario:
    """Build a synthetic gravity world on a line of ``n`` locations."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    labels = tuple(f"L{i:02d}" for i in range(n))
    dist = _line_distances(n)
    log_costs = rho * np.log(dist)
    np.fill_diagonal(log_costs, 0.0)

    fe_o = rng.normal(0.0, 0.3, size=n)
    fe_d = rng.normal(0.0, 0.3, size=n)
    mu = 1.0 + fe_o[:, None] + fe_d[None, :] - epsilon * log_costs
    np.fill_diagonal(mu, np.nan)
    # Own flows dominate a location's spending, as in trade data.
    own = np.exp(3.0 + fe_o + fe_d)

    off = ~np.eye(n, dtype=bool)
    params = CalibratedParams(
        p=np.zeros((n, n)),
        b=np.zeros((n, n)),
        mu=mu,
        s2=np.where(off, s2, 0.0),
        sigma2=np.where(off, sigma2, 0.0),
        mu_defined=off,
        labels=labels,
    )
    return ArmingtonScenario(
        n=n,
        epsilon=epsilon,
        rho=rho,
        s2=s2,
        sigma2=sigma2,
        mu=mu,
        own_flows=own,
        distances=DistanceMatrix(dist, labels),
        log_costs=log_costs,
        params=params,
        cf_spec=CounterfactualSpec.uniform_increase(n, cost_increase),
        labels=labels,
    )


@dataclass(frozen=True)
class MirrorScenario:
    panel: MirrorPanel
    distances: DistanceMatrix
    p: np.ndarray
    b: np.ndarray
    s2: np.ndarray
    sigma2: np.ndarray
    labels: tuple[str, ...]
    periods: tuple[int, ...]


def mirror_world(
    n: int = 8,
    t: int = 6,
    seed: int = 0,
    p_zero: float = 0.0,
    b_zero: float = 0.0,
) -> MirrorScenario:
    """Panel of paired noisy reports generated from the spike-and-slab model
    with multiplicative (reporter-specific) variance structure."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    labels = tuple(f"C{i:02d}" for i in range(n))
    periods = tuple(2000 + k for k in range(t))
    dist = _line_distances(n)
    off = ~np.eye(n, dtype=bool)

    kap_s_o = rng.normal(-1.6, 0.25, size=n)
    kap_s_d = rng.normal(-1.6, 0.25, size=n)
    kap_v_o = rng.normal(-1.8, 0.25, size=n)
    kap_v_d = rng.normal(-1.8, 0.25, size=n)
    s2 = np.exp(kap_s_o[:, None] + kap_s_d[None, :])
    sigma2 = np.exp(kap_v_o[:, None] + kap_v_d[None, :])
    s2[~off] = 0.0
    sigma2[~off] = 0.0

    p = np.where(off, p_zero, 0.0)
    b = np.where(off, b_zero, 0.0)

    r1 = np.zeros((t, n, n))
    r2 = np.zeros((t, n, n))
    for k in range(t):
        beta_t = -1.0 + 0.05 * k
        a_o = rng.normal(2.0, 0.3, size=n)
        a_d = rng.normal(2.0, 0.3, size=n)
        mu_t = beta_t * np.log(dist) + a_o[:, None] + a_d[None, :]
        true = np.exp(mu_t + np.sqrt(s2) * rng.standard_normal((n, n)))
        true[rng.random((n, n)) < p] = 0.0
        for arr in (r1, r2):
            noise = np.exp(np.sqrt(sigma2) * rng.standard_normal((n, n)))
            rep = np.where(true > 0, true * noise, 0.0)
            rep[(true > 0) & (rng.random((n, n)) < b)] = 0.0
            rep[~off] = 0.0
            arr[k] = rep
    panel = MirrorPanel(report1=r1, report2=r2, labels=labels, periods=periods)
    return MirrorScenario(
        panel=panel,
        distances=DistanceMatrix(dist, labels),
        p=p,
        b=b,
        s2=s2,
        sigma2=sigma2,
        labels=labels,
        periods=periods,
    )
