import functools

import numpy as np
import pytest

from flowuq import (
    BadQuantileGrid,
    CounterfactualSpec,
    DataError,
    EstimatorResult,
    FlowMatrix,
    ModelEvaluationFailed,
    RankTooLarge,
    TooManyFailures,
    UqConfig,
    interval_c1,
    interval_c2,
    point_estimate,
    run_algorithm1,
    run_algorithm3,
)
from flowuq.armington import ArmingtonModel
from flowuq.engine import LowDimSmoother, SvdSmoother
from flowuq.gravity import fit_ppml
from flowuq.scenarios import armington_world


# Module-level models/estimators so multi-worker runs can pickle them.


class ConstantModel:
    def __init__(self, value):
        self.value = value

    def __call__(self, flows, theta, cf_spec):
        return np.array([self.value])


class ThetaPassThrough:
    def __call__(self, flows, theta, cf_spec):
        return np.atleast_1d(theta)[:1]


class FailAboveThreshold:
    """Fails whenever a particular drawn entry exceeds the threshold;
    deterministic in the draw."""

    def __init__(self, threshold):
        self.threshold = threshold

    def __call__(self, flows, theta, cf_spec):
        if flows.values[0, 1] > self.threshold:
            raise ModelEvaluationFailed("entry above threshold")
        return np.array([float(flows.values[0, 1])])


def mean_flow_estimator(flows, se=0.1):
    return EstimatorResult(
        theta_hat=np.array([float(np.log(flows.values[flows.values > 0]).mean())]),
        sigma_hat=np.array([[se**2]]),
    )


def ppml_estimator(flows, log_costs):
    fit = fit_ppml(flows, log_costs)
    return EstimatorResult(
        theta_hat=np.array([fit.epsilon_hat]), sigma_hat=np.array([[fit.variance]])
    )


def small_world():
    scen = armington_world(n=5, seed=7, s2=0.05, sigma2=0.03)
    rng = np.random.default_rng(99)
    _, flows_obs = scen.draw_world(rng)
    return scen, flows_obs


class TestIntervalOps:
    def test_c1_order_statistics(self):
        draws = np.random.default_rng(0).permutation(np.arange(1.0, 1001.0))
        iv = interval_c1(draws, alpha=0.05)
        assert (iv.lo, iv.hi) == (25.0, 975.0)

    def test_c1_constant_draws(self):
        iv = interval_c1(np.full(200, 3.5), alpha=0.05)
        assert (iv.lo, iv.hi) == (3.5, 3.5)

    def test_c1_bad_grid(self):
        with pytest.raises(BadQuantileGrid):
            interval_c1(np.arange(10.0), alpha=0.05)

    def test_c2_shifted_intervals(self):
        pairs = [(float(k), float(k) + 10.0) for k in range(1, 1001)]
        iv = interval_c2(pairs, alpha=0.05)
        assert (iv.lo, iv.hi) == (25.0, 985.0)

    def test_c2_identical_inner_intervals(self):
        iv = interval_c2([(1.0, 2.0)] * 100, alpha=0.1)
        assert (iv.lo, iv.hi) == (1.0, 2.0)


class TestSmoothers:
    def test_rank_one_is_identity(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        b = np.array([2.0, 1.0, 0.5, 1.5])
        flows = FlowMatrix(np.outer(a, b))
        smoothed = SvdSmoother(1)(flows)
        assert np.max(np.abs(smoothed.values - flows.values)) < 1e-12

    def test_truncation_rank_and_defect(self):
        rng = np.random.default_rng(1)
        values = rng.uniform(0.5, 3.0, size=(6, 6))
        flows = FlowMatrix(values)
        rank = 2
        smoothed = SvdSmoother(rank)(flows)
        s_full = np.linalg.svd(values, compute_uv=False)
        s_smooth = np.linalg.svd(smoothed.values, compute_uv=False)
        assert np.sum(s_smooth > 1e-10 * s_smooth[0]) <= rank
        defect = np.linalg.norm(values - smoothed.values)
        assert abs(defect - np.sqrt(np.sum(s_full[rank:] ** 2))) < 1e-10

    def test_rank_too_large(self):
        flows = FlowMatrix(np.ones((3, 3)))
        with pytest.raises(RankTooLarge):
            SvdSmoother(4)(flows)

    def test_negative_entries_clamped(self):
        rng = np.random.default_rng(2)
        values = rng.uniform(0.0, 1.0, size=(5, 5))
        values[0, 1] = 40.0  # spiky entry forces sign structure in rank 1
        smoothed = SvdSmoother(1)(FlowMatrix(values))
        assert np.all(smoothed.values >= 0.0)

    def test_lowdim_smoother_fits_gravity(self):
        scen, flows_obs = small_world()
        smoothed = LowDimSmoother(scen.distances)(flows_obs)
        off = ~np.eye(5, dtype=bool)
        assert np.all(smoothed.values[off] > 0)
        assert np.array_equal(np.diag(smoothed.values), np.diag(flows_obs.values))


class TestEngine:
    def cfg(self, **kw):
        base = dict(b=100, alpha=0.1, seed=3)
        base.update(kw)
        return UqConfig(**base)

    def test_constant_model_degenerate_interval(self):
        scen, flows_obs = small_world()
        ds, ivs = run_algorithm1(
            flows_obs,
            scen.params,
            EstimatorResult(theta_hat=[2.0], sigma_hat=[[0.1]]),
            ConstantModel(3.25),
            scen.cf_spec,
            self.cfg(),
        )
        assert (ivs[0].lo, ivs[0].hi) == (3.25, 3.25)
        assert ds.draws_used == 100

    def test_only_ee_fixes_data(self):
        scen, flows_obs = small_world()
        estimator = functools.partial(mean_flow_estimator, se=0.2)
        ds, _ = run_algorithm1(
            flows_obs,
            None,
            estimator,
            ThetaPassThrough(),
            scen.cf_spec,
            self.cfg(mode="only-ee"),
        )
        theta_hat = mean_flow_estimator(flows_obs).theta_hat[0]
        # Data fixed: every theta draw is centered on the same estimate.
        assert abs(ds.draws.mean() - theta_hat) < 0.1

    def test_only_me_fixes_theta(self):
        scen, flows_obs = small_world()
        estimator = functools.partial(mean_flow_estimator, se=0.5)
        ds, _ = run_algorithm1(
            flows_obs,
            scen.params,
            estimator,
            ThetaPassThrough(),
            scen.cf_spec,
            self.cfg(mode="only-me"),
        )
        theta_hat = mean_flow_estimator(flows_obs).theta_hat[0]
        assert np.all(ds.draws == theta_hat)

    def test_mode_nesting_zero_me_variance(self):
        # With no measurement error anywhere, combined draws equal the
        # estimation-error-only draws bit for bit under the same seed.
        scen = armington_world(n=5, seed=11, sigma2=0.0)
        rng = np.random.default_rng(5)
        _, flows_obs = scen.draw_world(rng)
        estimator = functools.partial(mean_flow_estimator, se=0.3)
        cfg_ee = self.cfg(mode="only-ee")
        cfg_both = self.cfg(mode="ee+me")
        ds_ee, _ = run_algorithm1(
            flows_obs, scen.params, estimator, ThetaPassThrough(), scen.cf_spec, cfg_ee
        )
        ds_both, _ = run_algorithm1(
            flows_obs, scen.params, estimator, ThetaPassThrough(), scen.cf_spec, cfg_both
        )
        assert np.array_equal(ds_ee.draws, ds_both.draws)

    def test_seed_determinism_across_worker_counts(self):
        scen, flows_obs = small_world()
        estimator = functools.partial(mean_flow_estimator, se=0.2)
        runs = []
        for workers in (1, 3):
            ds, ivs = run_algorithm1(
                flows_obs,
                scen.params,
                estimator,
                ThetaPassThrough(),
                scen.cf_spec,
                self.cfg(workers=workers, b=60, alpha=0.1),
            )
            runs.append((ds, ivs))
        assert np.array_equal(runs[0][0].draws, runs[1][0].draws)
        assert runs[0][1][0] == runs[1][1][0]

    def test_failure_accounting_and_limit(self):
        scen, flows_obs = small_world()
        model = FailAboveThreshold(np.median(flows_obs.values[0, 1]) * 1.01)
        est = EstimatorResult(theta_hat=[1.0], sigma_hat=[[0.0]])
        cfg = self.cfg(max_failure_fraction=0.9)
        ds, ivs = run_algorithm1(
            flows_obs, scen.params, est, model, scen.cf_spec, cfg
        )
        assert ds.draws_used + ds.draws_failed == cfg.b
        assert ds.draws_failed > 0
        assert ivs[0].draws_failed == ds.draws_failed
        with pytest.raises(TooManyFailures):
            run_algorithm1(
                flows_obs,
                scen.params,
                est,
                model,
                scen.cf_spec,
                self.cfg(max_failure_fraction=0.0),
            )

    def test_smoother_none_matches_algorithm1(self):
        scen, flows_obs = small_world()
        est = EstimatorResult(theta_hat=[4.0], sigma_hat=[[0.04]])
        cfg = self.cfg(b=40, alpha=0.1)
        ds1, _ = run_algorithm1(
            flows_obs, scen.params, est, ArmingtonModel(), scen.cf_spec, cfg
        )
        ds2, _ = run_algorithm1(
            flows_obs, scen.params, est, ArmingtonModel(), scen.cf_spec, cfg,
            smoother=None,
        )
        assert np.array_equal(ds1.draws, ds2.draws)

    def test_algorithm2_smooths_evaluation_not_estimation(self):
        scen, flows_obs = small_world()
        cfg = self.cfg(b=20, alpha=0.1)
        estimator = functools.partial(mean_flow_estimator, se=1e-9)
        smoother = SvdSmoother(1)

        ds_raw, _ = run_algorithm1(
            flows_obs, scen.params, estimator, ThetaPassThrough(), scen.cf_spec, cfg
        )
        ds_smooth, _ = run_algorithm1(
            flows_obs,
            scen.params,
            estimator,
            ThetaPassThrough(),
            scen.cf_spec,
            cfg,
            smoother=smoother,
        )
        # Theta still estimated on the raw draw: pass-through outcomes match.
        assert np.allclose(ds_raw.draws, ds_smooth.draws)

        ds_est_smooth, _ = run_algorithm1(
            flows_obs,
            scen.params,
            estimator,
            ThetaPassThrough(),
            scen.cf_spec,
            UqConfig(b=20, alpha=0.1, seed=3, smooth_for_estimation=True),
            smoother=smoother,
        )
        assert not np.allclose(ds_raw.draws, ds_est_smooth.draws)

    def test_algorithm3_requires_callable(self):
        scen, flows_obs = small_world()
        with pytest.raises(DataError):
            run_algorithm3(
                flows_obs,
                scen.params,
                EstimatorResult(theta_hat=[1.0], sigma_hat=[[0.1]]),
                ConstantModel(0.0),
                scen.cf_spec,
                self.cfg(),
            )

    def test_c2_wider_than_c1_same_draws(self):
        scen, flows_obs = small_world()
        estimator = functools.partial(mean_flow_estimator, se=0.25)
        cfg1 = self.cfg(b=60, alpha=0.1, interval_kind="c1")
        cfg2 = self.cfg(b=60, alpha=0.1, interval_kind="c2", b_inner=60)
        ds1, iv1 = run_algorithm1(
            flows_obs, scen.params, estimator, ThetaPassThrough(), scen.cf_spec, cfg1
        )
        ds2, iv2 = run_algorithm1(
            flows_obs, scen.params, estimator, ThetaPassThrough(), scen.cf_spec, cfg2
        )
        assert np.array_equal(ds1.draws, ds2.draws)
        assert iv2[0].width >= iv1[0].width
        assert iv2[0].lo <= iv1[0].lo <= iv1[0].hi <= iv2[0].hi

    def test_point_estimate(self):
        scen, flows_obs = small_world()
        est = EstimatorResult(theta_hat=[4.0], sigma_hat=[[0.04]])
        pt = point_estimate(flows_obs, est, ArmingtonModel(), scen.cf_spec)
        assert pt.shape == (5,)
        assert np.all(pt < 0)  # higher costs hurt everyone here

    def test_full_armington_ppml_pipeline(self):
        scen, flows_obs = small_world()
        estimator = functools.partial(ppml_estimator, log_costs=scen.log_costs)
        ds, ivs = run_algorithm3(
            flows_obs,
            scen.params,
            estimator,
            ArmingtonModel(),
            scen.cf_spec,
            self.cfg(b=40, alpha=0.1),
        )
        assert ds.draws.shape == (40, 5)
        assert len(ivs) == 5
        for iv in ivs:
            assert iv.lo <= iv.hi


class TestUqConfigValidation:
    def test_grid_checked_at_construction(self):
        with pytest.raises(BadQuantileGrid):
            UqConfig(b=10, alpha=0.05)  # alpha/2 * B = 0.25
        with pytest.raises(BadQuantileGrid):
            UqConfig(b=100, alpha=0.05)  # 2.5
        with pytest.raises(DataError):
            UqConfig(b=100, alpha=0.1, mode="everything")
        with pytest.raises(DataError):
            UqConfig(b=100, alpha=0.1, robust_c=0.5)
        cfg = UqConfig(b=100, alpha=0.1, interval_kind="c2", b_inner=200)
        assert cfg.inner_draws == 200
        with pytest.raises(BadQuantileGrid):
            UqConfig(b=100, alpha=0.1, interval_kind="c2", b_inner=30)
