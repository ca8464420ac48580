import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowuq import (
    AttenuationSimConfig,
    CalibratedParams,
    Collinear,
    DataError,
    DistanceMatrix,
    FlowMatrix,
    MirrorPanel,
    TooFewDraws,
    estimate_prior_means,
    fit_log_gravity,
    gravity_partial_plot,
    calibrate_mirror,
    endpoints,
    normality_diagnostic,
    robust_interval_levels,
    robust_quantile_levels,
    run_attenuation_sim,
)
from flowuq.robustness import residual_summary
from flowuq.scenarios import mirror_world

from .oracles import twoway_design


class TestRobustLevels:
    def test_paper_quantile_levels(self):
        lower, upper = robust_interval_levels(alpha=0.05, c=1.5)
        assert abs(lower - 0.05 / 4.4375) < 1e-12
        assert abs(upper - 4.3875 / 4.4375) < 1e-12
        # Rounded to the usual presentation: the 1.1% and 98.9% quantiles.
        assert round(lower, 3) == 0.011
        assert round(upper, 3) == 0.989

    def test_c_equal_one_is_nominal(self):
        inf_level, sup_level = robust_quantile_levels(0.05, 1.0)
        assert inf_level == pytest.approx(0.05, abs=1e-15)
        assert sup_level == pytest.approx(0.05, abs=1e-15)
        lower, upper = robust_interval_levels(alpha=0.05, c=1.0)
        assert lower == pytest.approx(0.025, abs=1e-15)
        assert upper == pytest.approx(0.975, abs=1e-15)

    def test_closed_form_example_c2(self):
        inf_level, _ = robust_quantile_levels(0.05, 2.0)
        assert abs(inf_level - 0.05 / (0.05 + 0.95 * 4.0)) < 1e-15
        assert abs(inf_level - 0.012987012987) < 1e-9

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=0.01, max_value=0.5),
        st.floats(min_value=1.0, max_value=5.0),
        st.floats(min_value=1.0, max_value=5.0),
    )
    def test_monotone_in_c(self, alpha_tail, c1, c2):
        lo_c, hi_c = sorted((c1, c2))
        inf1, sup1 = robust_quantile_levels(alpha_tail, lo_c)
        inf2, sup2 = robust_quantile_levels(alpha_tail, hi_c)
        assert inf2 <= inf1 <= alpha_tail <= sup1 <= sup2

    def test_bracket_invariant(self):
        lower, upper = robust_interval_levels(alpha=0.1, c=2.0)
        assert lower <= 0.05 <= 0.95 <= upper

    @pytest.mark.parametrize("c", [0.5, math.nan, math.inf])
    def test_c_must_be_finite_and_at_least_one(self, c):
        with pytest.raises(DataError, match="c must be finite and >= 1"):
            robust_quantile_levels(0.05, c)
        with pytest.raises(DataError, match="c must be finite and >= 1"):
            robust_interval_levels(0.05, c)

    @pytest.mark.parametrize("alpha_tail", [0.0, 1.0, math.nan])
    def test_quantile_level_must_be_inside_the_unit_interval(self, alpha_tail):
        with pytest.raises(DataError, match=re.escape("quantile level must be in (0, 1)")):
            robust_quantile_levels(alpha_tail, 1.5)

    def test_levels_whose_square_overflows_are_refused(self):
        # c * c is infinite: the upper level would be inf / inf.
        with pytest.raises(DataError, match=r"at c = 1e\+200 must bracket"):
            robust_interval_levels(0.05, 1e200)


class TestRobustInterval:
    def test_c_equal_one_matches_c1(self):
        rng = np.random.default_rng(0)
        draws = rng.normal(0, 1, 1000)
        assert endpoints(draws, alpha=0.05, c=1.0) == endpoints(draws, alpha=0.05)

    def test_contains_nominal_and_monotone(self):
        rng = np.random.default_rng(1)
        draws = rng.standard_t(5, size=2000)
        prev = endpoints(draws, alpha=0.05)
        for c in (1.2, 1.5, 2.0, 3.0):
            rob = endpoints(draws, alpha=0.05, c=c)
            assert rob[0] <= prev[0] and rob[1] >= prev[1]
            prev = rob

    def test_paper_levels_on_empirical_quantiles(self):
        draws = np.arange(1.0, 100001.0)
        lo, hi = endpoints(draws, alpha=0.05, c=1.5)
        assert lo == np.floor(0.05 / 4.4375 * 100000)
        assert hi == np.ceil(4.3875 / 4.4375 * 100000)

    def test_too_few_draws(self):
        with pytest.raises(TooFewDraws):
            endpoints(np.arange(10.0), alpha=0.05, c=3.0)


class TestAttenuationSim:
    def test_gravity_prior_unbiased_quick(self):
        cfg = AttenuationSimConfig(m_reps=200, b_draws=100, n=30, seed=5)
        biases = run_attenuation_sim(cfg)
        assert biases.shape == (200,)
        assert abs(biases.mean()) < 0.05

    def test_constant_prior_ablation_biased(self):
        cfg = AttenuationSimConfig(
            m_reps=100, b_draws=100, n=30, seed=5, mu_zero_ablation=True
        )
        biases = run_attenuation_sim(cfg)
        assert abs(biases.mean()) > 0.05
        # shrinking toward zero halves the slope at s = sigma
        assert biases.mean() < 0.0

    def test_zero_measurement_error_is_pure_sampling_noise(self):
        cfg = AttenuationSimConfig(m_reps=50, b_draws=20, n=30, sigma=0.0, seed=2)
        biases = run_attenuation_sim(cfg)
        assert abs(biases.mean()) < 0.02

    def test_seed_determinism(self):
        cfg = AttenuationSimConfig(m_reps=20, b_draws=50, n=20, seed=123)
        a = run_attenuation_sim(cfg)
        b = run_attenuation_sim(cfg)
        assert np.array_equal(a, b)

    def test_negative_rho_allowed(self):
        cfg = AttenuationSimConfig(m_reps=5, b_draws=20, n=15, rho=-0.5, seed=0)
        biases = run_attenuation_sim(cfg)
        assert np.all(np.isfinite(biases))

    @pytest.mark.parametrize("field", ["epsilon", "s", "sigma", "rho"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameters_are_data_errors(self, field, value):
        with pytest.raises(DataError, match=field):
            AttenuationSimConfig(m_reps=1, b_draws=2, n=5, **{field: value})


def _diag_params(n, mu, s2, sigma2):
    off = ~np.eye(n, dtype=bool)
    return CalibratedParams(
        p=np.zeros((n, n)),
        b=np.zeros((n, n)),
        mu=np.where(off, mu, np.nan),
        s2=np.where(off, s2, 0.0),
        sigma2=np.where(off, sigma2, 0.0),
    )


class TestNormalityDiagnostic:
    def test_exact_lognormal_ks_small(self):
        n = 101  # 10100 positive dyads
        rng = np.random.default_rng(0)
        off = ~np.eye(n, dtype=bool)
        mu = rng.normal(1.0, 0.5, size=(n, n))
        total_var = 0.3
        values = np.where(
            off, np.exp(mu + np.sqrt(total_var) * rng.standard_normal((n, n))), 0.0
        )
        np.fill_diagonal(values, 1.0)
        params = _diag_params(n, mu, 0.2, 0.1)
        diag = normality_diagnostic(FlowMatrix(values), params)
        assert diag.residuals.size == n * (n - 1)
        assert diag.ks_distance < 0.02
        assert abs(diag.mean) < 0.05
        assert abs(diag.variance - 1.0) < 0.05

    def test_heavy_tails_flagged(self):
        n = 60
        rng = np.random.default_rng(1)
        off = ~np.eye(n, dtype=bool)
        mu = np.ones((n, n))
        noise = rng.standard_t(3, size=(n, n)) * np.sqrt(0.3)
        values = np.where(off, np.exp(mu + noise), 0.0)
        np.fill_diagonal(values, 1.0)
        params = _diag_params(n, mu, 0.2, 0.1)
        diag = normality_diagnostic(FlowMatrix(values), params)
        assert diag.excess_kurtosis > 1.0

    def test_empty_positive_subsample(self):
        n = 3
        values = np.eye(n)  # only diagonal flows
        params = _diag_params(n, 0.0, 0.1, 0.1)
        diag = normality_diagnostic(FlowMatrix(values), params)
        assert diag.residuals.size == 0
        assert np.isnan(diag.ks_distance)

    def test_histogram_counts_cover_all_residuals(self):
        n = 30
        rng = np.random.default_rng(2)
        off = ~np.eye(n, dtype=bool)
        mu = np.zeros((n, n))
        values = np.where(off, np.exp(rng.normal(0, 0.5, (n, n))), 0.0)
        np.fill_diagonal(values, 1.0)
        diag = normality_diagnostic(FlowMatrix(values), _diag_params(n, 0.0, 0.2, 0.05))
        assert diag.bin_counts.sum() == diag.residuals.size

    def test_per_period_parameters_pool_the_periods(self):
        scen = mirror_world(n=6, t=4, seed=3)
        params, _ = calibrate_mirror(scen.panel, scen.distances)
        flows = [FlowMatrix(r, scen.labels) for r in scen.panel.report1]
        pooled = normality_diagnostic(flows, params)
        parts = [
            normality_diagnostic(f, params.for_period(t)) for f, t in zip(flows, scen.periods)
        ]
        assert np.array_equal(pooled.residuals, np.concatenate([d.residuals for d in parts]))
        assert pooled.n_zero_variance == sum(d.n_zero_variance for d in parts)
        single = residual_summary(pooled.residuals)
        for field in ("mean", "variance", "skewness", "excess_kurtosis", "ks_distance"):
            assert getattr(pooled, field) == getattr(single, field)
        assert np.array_equal(pooled.bin_counts, single.bin_counts)
        with pytest.raises(DataError):
            normality_diagnostic(flows[0], params)
        with pytest.raises(DataError):
            normality_diagnostic(flows[:-1], params)
        with pytest.raises(DataError):
            normality_diagnostic(flows, params.for_period(scen.periods[0]))


def _scipy_statistics(z):
    # scipy is the independent oracle here; the package never imports it.
    from scipy import stats

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # near-constant samples
        return stats.skew(z), stats.kurtosis(z), stats.kstest(z, "norm").statistic


def _assert_matches_scipy(z):
    diag = residual_summary(np.asarray(z, dtype=float))
    got = (diag.skewness, diag.excess_kurtosis, diag.ks_distance)
    np.testing.assert_allclose(got, _scipy_statistics(z), rtol=1e-12, atol=0, equal_nan=True)
    return diag


class TestResidualSummary:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-1e3, max_value=1e3, allow_subnormal=False),
            min_size=1,
            max_size=300,
        )
    )
    def test_matches_scipy_on_any_sample(self, values):
        _assert_matches_scipy(values)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(1, 5000),
        st.integers(0, 2**32 - 1),
        st.floats(min_value=1.5, max_value=50.0),
        st.floats(min_value=-3.0, max_value=3.0),
    )
    def test_matches_scipy_on_heavy_tailed_samples(self, n, seed, df, shift):
        rng = np.random.default_rng(seed)
        _assert_matches_scipy(shift + rng.standard_t(df, n))

    def test_single_residual(self):
        diag = _assert_matches_scipy([0.3])
        assert np.isnan(diag.skewness) and np.isnan(diag.excess_kurtosis)
        assert diag.ks_distance == pytest.approx(0.6179114221889526, rel=1e-14)

    def test_constant_sample_has_nan_moments(self):
        # The mean of 0.1 repeated is not exactly 0.1, so m2 is not exactly
        # zero; the spread is at rounding level and the moments are NaN.
        for z in (np.full(7, 0.1), np.zeros(4), np.full(3, -2.5)):
            diag = _assert_matches_scipy(z)
            assert np.isnan(diag.skewness) and np.isnan(diag.excess_kurtosis)
            assert np.isfinite(diag.ks_distance)

    def test_two_point_sample(self):
        diag = _assert_matches_scipy([1.0, 2.0])
        assert diag.skewness == 0.0
        assert diag.excess_kurtosis == -2.0
        assert diag.variance == 0.25
        # m2 underflows to a subnormal whose powers are 0: NaN, quietly.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            tiny = _assert_matches_scipy([0.0, 1e-160])
        assert np.isnan(tiny.skewness) and np.isnan(tiny.excess_kurtosis)


class TestGravityPartialPlot:
    def world(self, n=8, seed=0, noise=0.0):
        rng = np.random.default_rng(seed)
        dist = np.exp(rng.uniform(0.2, 2.0, (n, n)))
        np.fill_diagonal(dist, 1.0)
        fe = rng.normal(1.0, 0.4, n)
        values = np.exp(
            -1.3 * np.log(dist)
            + fe[:, None]
            + fe[None, :]
            + noise * rng.standard_normal((n, n))
        )
        np.fill_diagonal(values, 0.0)
        return FlowMatrix(values), DistanceMatrix(dist)

    def test_exact_gravity_points_on_line(self):
        flows, dist = self.world()
        fit = fit_log_gravity(flows, dist)
        assert abs(fit.beta_hat + 1.3) < 1e-10
        assert np.max(np.abs(fit.y_res - fit.beta_hat * fit.x_res)) < 1e-10

    def test_slope_equals_gravity_beta(self):
        # Frisch-Waugh-Lovell: the scatter's own least-squares slope is the
        # gravity fit's distance coefficient.
        flows, dist = self.world(seed=3, noise=0.4)
        fit = fit_log_gravity(flows, dist)
        x, y = fit.x_res, fit.y_res
        assert abs(float(x @ y) / float(x @ x) - fit.beta_hat) < 1e-10

    @staticmethod
    def oracle_scatter(values, dist):
        """Residuals of log distance and log flow on origin and destination
        dummies, by dense least squares over the positive off-diagonal
        flows in row-major order."""
        n = values.shape[0]
        oidx, didx = np.nonzero((values > 0) & ~np.eye(n, dtype=bool))
        dummies = twoway_design(oidx, didx, n)
        out = []
        for v in (np.log(dist[oidx, didx]), np.log(values[oidx, didx])):
            coef = np.linalg.lstsq(dummies, v, rcond=None)[0]
            out.append(v - dummies @ coef)
        return out

    def test_scatter_is_the_dummy_regression_residuals(self):
        # A sparse world, and a panel period in which location 2 has no
        # positive flow (its dummies are empty columns for the oracle).
        flows, dist = self.world(seed=6, noise=0.3)
        values = np.array(flows.values)
        values[np.random.default_rng(1).random(values.shape) < 0.2] = 0.0
        values[np.arange(8), (np.arange(8) + 1) % 8] = 1.0  # keep them connected
        scen = mirror_world(n=6, t=3, seed=3)
        r1 = np.array(scen.panel.report1)
        r1[-1, 2, :] = r1[-1, :, 2] = 0.0
        panel = MirrorPanel(r1, scen.panel.report2, scen.labels, scen.periods)
        last_fit = estimate_prior_means(panel, scen.distances).last_fit
        cases = [
            (fit_log_gravity(FlowMatrix(values), dist), values, dist.values),
            (last_fit, r1[-1], scen.distances.values),
        ]
        for fit, v, d in cases:
            x, y = self.oracle_scatter(v, d)
            assert fit.x_res.shape == x.shape
            assert np.max(np.abs(fit.x_res - x)) < 1e-10
            assert np.max(np.abs(fit.y_res - y)) < 1e-10

    def test_binned_means_track_line(self):
        flows, dist = self.world(seed=4, noise=0.0)
        fit = fit_log_gravity(flows, dist)
        plot = gravity_partial_plot(fit)
        mask = plot.bin_counts > 0
        assert np.max(
            np.abs(plot.bin_means[mask] - fit.beta_hat * plot.bin_centers[mask])
        ) < 0.2  # bin centers vs in-bin means differ by at most the bin width

    def test_constant_distance_collinear(self):
        flows, _ = self.world(seed=5, noise=0.2)
        const_dist = DistanceMatrix(np.full((8, 8), 2.0))
        with pytest.raises(Collinear):  # the fit the plot needs is refused
            gravity_partial_plot(fit_log_gravity(flows, const_dist))
