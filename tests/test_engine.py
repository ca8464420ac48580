import functools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowuq import (
    BadQuantileGrid,
    Collinear,
    CounterfactualSpec,
    DataError,
    EstimatorResult,
    FlowMatrix,
    IdentityModel,
    InsufficientData,
    ModelEvaluationFailed,
    Separation,
    TooFewDraws,
    TooManyFailures,
    UqConfig,
    evaluate_model,
    endpoints,
    point_estimate,
    run_algorithm1,
    run_uq,
    sample_flow_matrix,
)
from flowuq import engine
from flowuq.armington import ArmingtonModel
from flowuq.engine import MODES, LowDimSmoother, draw_rng
from flowuq.gravity import PpmlEstimator, fit_ppml
from flowuq.intervals import compose
from flowuq.scenarios import armington_world

from .oracles import order_statistic_interval


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


class FailOnThetas:
    """Passes theta through, except that it fails on the listed values of
    its first coordinate; deterministic in the draw."""

    def __init__(self, values):
        self.values = frozenset(float(v) for v in values)

    def __call__(self, flows, theta, cf_spec):
        if float(theta[0]) in self.values:
            raise ModelEvaluationFailed("listed parameter draw")
        return np.atleast_1d(theta)


class CallsOnly:
    """A model without its ``many`` method: the engine calls it per pair."""

    def __init__(self, model):
        self.model = model

    def __call__(self, flows, theta, cf_spec):
        return self.model(flows, theta, cf_spec)


class Counting:
    """Wraps an estimator, smoother or model and counts its calls."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


def mean_flow_estimator(flows, se=0.1):
    return EstimatorResult(
        theta_hat=np.array([float(np.log(flows.values[flows.values > 0]).mean())]),
        sigma_hat=np.array([[se**2]]),
    )


def cell_estimator(flows, se=0.1):
    """Reads one off-diagonal cell, which the gravity smoother changes (the
    mean log flow is left unchanged by its two-way fixed-effects fit)."""
    return EstimatorResult(
        theta_hat=np.array([float(np.log(flows.values[0, 1]))]),
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
        assert endpoints(draws, alpha=0.05) == (25.0, 975.0)

    def test_c1_constant_draws(self):
        assert endpoints(np.full(200, 3.5), alpha=0.05) == (3.5, 3.5)

    @pytest.mark.parametrize(
        "alpha, b, lo, hi", [(0.29, 200_000, 29_000, 171_000), (0.36, 10**6, 180_000, 820_000)]
    )
    def test_c1_ranks_are_exact_at_large_b(self, alpha, b, lo, hi):
        # alpha/2 * B is a whole number, but alpha/2 * B rounds to within
        # more than 1e-12 of it at these sizes.
        assert endpoints(np.arange(1.0, b + 1.0), alpha) == (lo, hi)

    def test_c2_shifted_intervals(self):
        # Draw k's 40 inner draws give the inner interval (k, k + 10).
        inner = np.r_[0.0, np.full(37, 5.0), 10.0, 20.0][:, None]
        (iv,) = compose([k + inner for k in range(1, 1001)], 0.05, "c2", 1.0, 1000, 40)
        assert (iv.lo, iv.hi) == (25.0, 985.0)

    @pytest.mark.parametrize("b", [None, 20])
    def test_no_draws(self, b):
        with pytest.raises(TooFewDraws):
            endpoints(np.empty(0), 0.1, b=b)

    def test_c2_identical_inner_intervals(self):
        inner = np.r_[1.0, np.full(17, 1.5), 2.0, 3.0][:, None]
        (iv,) = compose([inner] * 100, 0.1, "c2", 1.0, 100, 20)
        assert (iv.lo, iv.hi) == (1.0, 2.0)


class TestSmoothers:
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

    def test_only_ee_smooths_and_estimates_once(self):
        scen, flows_obs = small_world()
        estimator = Counting(functools.partial(cell_estimator, se=0.2))
        smoother = Counting(LowDimSmoother(scen.distances))
        cfg = self.cfg(mode="only-ee", b=40, alpha=0.1)
        ds, _ = run_algorithm1(
            flows_obs, None, estimator, ThetaPassThrough(), scen.cf_spec, cfg, smoother=smoother
        )
        assert (estimator.calls, smoother.calls) == (1, 1)
        # Draw b is still a draw from the observed data's estimate on b's own
        # parameter stream, as when every draw re-estimated.
        est = cell_estimator(flows_obs, se=0.2)
        assert est.theta_hat[0] != cell_estimator(smoother.fn(flows_obs)).theta_hat[0]
        expected = [est.draws(draw_rng(cfg.seed, b, 1), 1)[0] for b in range(1, 41)]
        assert np.array_equal(ds.draws, np.array(expected))

    def test_only_me_estimates_once(self):
        # The observed matrix is estimated once, unsmoothed, and every draw
        # evaluates the smoothed drawn matrix at that estimate.
        scen, flows_obs = small_world()
        estimator = Counting(functools.partial(cell_estimator, se=0.2))
        smoother = Counting(LowDimSmoother(scen.distances))
        cfg = self.cfg(mode="only-me", b=40, alpha=0.1)
        ds, _ = run_algorithm1(
            flows_obs, scen.params, estimator, ThetaPassThrough(), scen.cf_spec, cfg,
            smoother=smoother,
        )
        assert (estimator.calls, smoother.calls) == (1, 40)
        theta_hat = cell_estimator(flows_obs).theta_hat[0]
        assert theta_hat != cell_estimator(smoother.fn(flows_obs)).theta_hat[0]
        assert np.all(ds.draws == theta_hat)

    @pytest.mark.parametrize("mode", MODES)
    def test_a_missing_estimator_is_a_data_error(self, mode):
        scen, flows_obs = small_world()
        with pytest.raises(DataError, match=re.escape(f"{mode} mode needs an estimator")):
            run_algorithm1(
                flows_obs, scen.params, None, ThetaPassThrough(), scen.cf_spec,
                self.cfg(mode=mode),
            )

    @pytest.mark.parametrize("mode", ["only-me", "ee+me"])
    def test_sampling_without_params_is_a_data_error(self, mode):
        scen, flows_obs = small_world()
        with pytest.raises(DataError, match="data sampling requires calibrated parameters"):
            run_algorithm1(
                flows_obs, None, mean_flow_estimator, ThetaPassThrough(), scen.cf_spec,
                self.cfg(mode=mode),
            )

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
        estimator = functools.partial(cell_estimator, se=1e-9)
        smoother = LowDimSmoother(scen.distances)

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
        # Theta still estimated on the raw draw: pass-through outcomes match,
        # though smoothing moves the cell the estimator reads.
        assert np.allclose(ds_raw.draws, ds_smooth.draws)
        assert not np.isclose(
            cell_estimator(flows_obs).theta_hat[0],
            cell_estimator(smoother(flows_obs)).theta_hat[0],
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
        assert iv2[0].hi - iv2[0].lo >= iv1[0].hi - iv1[0].lo
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
        ds, ivs = run_algorithm1(
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
        # The batched estimator, whose fits start at the observed fit, gives
        # the draws of one such fit per draw, and those of cold fits within
        # the IRLS tolerance.
        estimator = PpmlEstimator(scen.log_costs, fit_ppml(flows_obs, scen.log_costs))
        ds_batched, ivs_batched = run_algorithm1(
            flows_obs,
            scen.params,
            estimator,
            ArmingtonModel(),
            scen.cf_spec,
            self.cfg(b=40, alpha=0.1),
        )
        ds_single, ivs_single = run_algorithm1(
            flows_obs,
            scen.params,
            lambda flows: estimator(flows),
            ArmingtonModel(),
            scen.cf_spec,
            self.cfg(b=40, alpha=0.1),
        )
        assert np.array_equal(ds_single.draws, ds_batched.draws)
        assert ivs_single == ivs_batched
        np.testing.assert_allclose(ds_batched.draws, ds.draws, rtol=1e-10, atol=0)

    def test_failed_reestimate_aborts_the_run(self):
        # Constant log costs make every re-fit of a drawn matrix Collinear,
        # from a start at the fit on the world's own log costs: the first
        # batch's estimator error aborts the run before any model call.
        scen, flows_obs = small_world()
        start = fit_ppml(flows_obs, scen.log_costs)
        model = Counting(ArmingtonModel())
        with pytest.raises(Collinear):
            run_algorithm1(
                flows_obs,
                scen.params,
                PpmlEstimator(np.full((5, 5), 0.7), start),
                model,
                scen.cf_spec,
                self.cfg(b=40, alpha=0.1),
            )
        assert model.calls == 0

        # With two failing matrices in a batch, the lower one's error.
        estimator = PpmlEstimator(scen.log_costs, start)
        separating = FlowMatrix(flows_obs.values * np.exp(40.0 * (np.arange(5) == 2)))
        empty = FlowMatrix(np.zeros((5, 5)))
        for first, second, error in (
            (separating, empty, Separation),
            (empty, separating, InsufficientData),
        ):
            with pytest.raises(error):
                estimator.many([flows_obs, first, flows_obs, second])

    def test_models_with_and_without_many_give_the_per_draw_loop(self):
        # Whether the model evaluates a batch's pairs through ``many`` or
        # call by call, the draws are those of one evaluate_model call per
        # parameter draw, in draw order: draw b keeps the outcome of its first
        # parameter draw and fails with it (a negative elasticity draw is an
        # invalid elasticity).
        scen, flows_obs = small_world()
        est = EstimatorResult(theta_hat=[1.0], sigma_hat=[[0.4]])
        for kw, n_theta in ((dict(), 1), (dict(interval_kind="c2", b_inner=20), 20)):
            cfg = self.cfg(b=40, alpha=0.1, max_failure_fraction=0.5, **kw)
            expected = []
            for b in range(1, 41):
                stream = [draw_rng(cfg.seed, b, 0)]
                (flows_b,), _ = sample_flow_matrix(flows_obs, scen.params, stream)
                theta_rng = draw_rng(cfg.seed, b, 1)
                thetas = [est.draws(theta_rng, 1)[0] for _ in range(n_theta)]
                try:
                    expected.append(evaluate_model(ArmingtonModel(), flows_b, thetas[0], scen.cf_spec))
                except ModelEvaluationFailed:
                    pass
            assert len(expected) < 40
            for model in (ArmingtonModel(), CallsOnly(ArmingtonModel())):
                ds, _ = run_algorithm1(flows_obs, scen.params, est, model, scen.cf_spec, cfg)
                assert np.array_equal(ds.draws, np.array(expected))
                assert ds.draws_failed == 40 - len(expected)
        for kw in (dict(interval_kind="c2", b_inner=20), dict(mode="only-me")):
            cfg = self.cfg(b=40, alpha=0.1, max_failure_fraction=0.5, **kw)
            batched, called = (
                run_algorithm1(flows_obs, scen.params, est, model, scen.cf_spec, cfg)
                for model in (ArmingtonModel(), CallsOnly(ArmingtonModel()))
            )
            assert np.array_equal(batched[0].draws, called[0].draws)
            assert batched[1] == called[1]


class TestRunUq:
    def test_fits_the_observed_matrix_once_and_reestimates_only_in_ee_me(self, monkeypatch):
        # With log costs, every mode fits the observed matrix once, and only
        # ee+me re-estimates, on the drawn matrices; with an external
        # estimate nothing is fitted.  The point estimate is g at the
        # observed matrix and the observed fit.
        scen, flows_obs = small_world()
        fitted, estimated = [], []
        real_fit, real_many = engine.fit_ppml, PpmlEstimator.many

        def counted_fit(flows, *args, **kwargs):
            fitted.append(flows)
            return real_fit(flows, *args, **kwargs)

        def counted_many(self, flows_seq):
            estimated.extend(flows_seq)
            return real_many(self, flows_seq)

        monkeypatch.setattr(engine, "fit_ppml", counted_fit)
        monkeypatch.setattr(PpmlEstimator, "many", counted_many)
        external = EstimatorResult(theta_hat=[4.0], sigma_hat=[[0.04]])
        observed = fit_ppml(flows_obs, scen.log_costs).to_estimator_result()
        for mode in MODES:
            cfg = UqConfig(b=20, alpha=0.1, seed=3, mode=mode)
            for estimation, est in ((scen.log_costs, observed), (external, external)):
                fitted.clear()
                estimated.clear()
                ds, ivs, point = run_uq(
                    flows_obs, scen.params, estimation, ArmingtonModel(), scen.cf_spec, cfg
                )
                costs = estimation is scen.log_costs
                assert [f is flows_obs for f in fitted] == ([True] if costs else []), mode
                assert len(estimated) == (cfg.b if costs and mode == "ee+me" else 0), mode
                assert all(f is not flows_obs for f in estimated)
                expected = point_estimate(flows_obs, est, ArmingtonModel(), scen.cf_spec)
                assert np.array_equal(point, expected)
                assert (ds.draws.shape, len(ivs)) == ((cfg.b, 5), 5)


def c2_oracle(inner, alpha, b, b_inner):
    """The c2 interval of each outcome by the oracle, from each kept draw's
    (m, q) inner outcomes: each draw's inner interval ranked on ``b_inner``,
    then the lower end of the lower bounds and the upper end of the upper
    bounds, ranked on ``b``."""
    per_draw = np.array(
        [[order_statistic_interval(col, alpha, b=b_inner) for col in rows.T] for rows in inner]
    )
    return [
        (
            order_statistic_interval(lows, alpha, b=b)[0],
            order_statistic_interval(highs, alpha, b=b)[1],
        )
        for lows, highs in zip(per_draw[:, :, 0].T, per_draw[:, :, 1].T)
    ]


class TestEngineIntervals:
    """The engine's intervals are the oracle's order statistics; with failed
    draws it ranks on the nominal B."""

    ALPHA = 0.1
    EST = EstimatorResult(
        theta_hat=[2.0, -1.0], sigma_hat=[[0.1, 0.02], [0.02, 0.3]]
    )
    FLOWS = FlowMatrix(np.ones((3, 3)))
    CF = CounterfactualSpec.uniform_increase(3, 0.0)

    def run(self, model, alpha=ALPHA, **kw):
        cfg = UqConfig(alpha=alpha, mode="only-ee", **kw)
        return run_algorithm1(self.FLOWS, None, self.EST, model, self.CF, cfg)

    def inner_thetas(self, seed, b, b_inner):
        """Each draw's parameter draws, rebuilt from its parameter stream."""
        rngs = (draw_rng(seed, d, 1) for d in range(1, b + 1))
        return [np.array([self.EST.draws(rng, 1)[0] for _ in range(b_inner)]) for rng in rngs]

    def test_robust_with_a_failed_draw(self):
        # One failed draw out of B = 40 is within the 5% tolerance.  Ranked
        # on the 39 survivors, the 2.5% tail would need B * 0.025 >= 1.
        ds, _ = self.run(IdentityModel(), b=40, seed=5)
        model = FailOnThetas([ds.draws[17, 0]])
        _, c1 = self.run(model, alpha=0.05, b=40, seed=5)
        ds_r, robust = self.run(
            model, alpha=0.05, b=40, seed=5, interval_kind="robust", robust_c=1.0
        )
        assert ds_r.draws_failed == 1
        assert [(iv.lo, iv.hi) for iv in robust] == [(iv.lo, iv.hi) for iv in c1]

    def test_c2_with_failed_inner_evaluations(self):
        b, b_inner, seed = 40, 20, 11
        thetas = self.inner_thetas(seed, b, b_inner)
        # Draw 3 fails on its first parameter draw, which fails the draw;
        # draws 5 and 8 fail on inner parameter draws only and are kept.
        failing = [thetas[2][0, 0], thetas[4][1, 0], thetas[4][7, 0], thetas[7][19, 0]]
        ds, c2 = self.run(
            FailOnThetas(failing), b=b, seed=seed, interval_kind="c2", b_inner=b_inner
        )
        assert (ds.draws_used, ds.draws_failed) == (b - 1, 1)
        inner = [t[~np.isin(t[:, 0], failing)] for k, t in enumerate(thetas) if k != 2]
        assert [len(t) for t in inner].count(b_inner) == b - 3
        assert [(iv.lo, iv.hi) for iv in c2] == c2_oracle(inner, self.ALPHA, b, b_inner)

    @settings(max_examples=40, deadline=None)
    @given(
        b=st.sampled_from([20, 40, 60, 100, 200]),
        c=st.floats(min_value=1.0, max_value=3.0),
        seed=st.integers(min_value=0, max_value=2**16),
        data=st.data(),
    )
    def test_engine_intervals_match_the_oracle(self, b, c, seed, data):
        ds, c1 = self.run(IdentityModel(), b=b, seed=seed)
        expected = [order_statistic_interval(col, self.ALPHA) for col in ds.draws.T]
        assert [(iv.lo, iv.hi) for iv in c1] == expected

        b_inner = 20
        _, c2 = self.run(IdentityModel(), b=b, seed=seed, interval_kind="c2", b_inner=b_inner)
        expected = c2_oracle(self.inner_thetas(seed, b, b_inner), self.ALPHA, b, b_inner)
        assert [(iv.lo, iv.hi) for iv in c2] == expected

        robust = dict(b=b, seed=seed, interval_kind="robust", robust_c=c)
        expected = [order_statistic_interval(col, self.ALPHA, c) for col in ds.draws.T]
        if None in expected:
            with pytest.raises(TooFewDraws):
                self.run(IdentityModel(), **robust)
        else:
            assert [(iv.lo, iv.hi) for iv in self.run(IdentityModel(), **robust)[1]] == expected

        # Fail up to the 5% tolerance: c1 ranks the survivors on the nominal
        # B, and robust at c = 1 still equals c1.
        fail = data.draw(
            st.lists(st.integers(0, b - 1), unique=True, max_size=b // 20)
        )
        model = FailOnThetas(ds.draws[fail, 0])
        ds_f, c1_f = self.run(model, b=b, seed=seed)
        _, robust_f = self.run(
            model, b=b, seed=seed, interval_kind="robust", robust_c=1.0
        )
        assert ds_f.draws_failed == len(fail)
        expected = [order_statistic_interval(col, self.ALPHA, b=b) for col in ds_f.draws.T]
        assert [(iv.lo, iv.hi) for iv in c1_f] == expected
        assert [(iv.lo, iv.hi) for iv in robust_f] == expected


class TestUqConfigValidation:
    def test_grid_checked_at_construction(self):
        with pytest.raises(BadQuantileGrid):
            UqConfig(b=10, alpha=0.05)  # alpha/2 * B = 0.25
        with pytest.raises(BadQuantileGrid):
            UqConfig(b=100, alpha=0.05)  # 2.5
        with pytest.raises(DataError):
            UqConfig(b=100, alpha=0.1, mode="everything")
        for c in (0.5, np.nan, np.inf):
            for kind in ("c1", "robust"):
                with pytest.raises(DataError, match="c must be finite and >= 1"):
                    UqConfig(b=100, alpha=0.1, interval_kind=kind, robust_c=c)
        with pytest.raises(TooFewDraws, match="at c = 40"):
            UqConfig(b=200, alpha=0.05, interval_kind="robust", robust_c=40.0)
        cfg = UqConfig(b=100, alpha=0.1, interval_kind="c2", b_inner=200)
        assert cfg.inner_draws == 200
        with pytest.raises(BadQuantileGrid):
            UqConfig(b=100, alpha=0.1, interval_kind="c2", b_inner=30)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("b", 0, "draw count must be positive"),
            ("max_failure_fraction", 1.0, "max failure fraction must be in [0, 1)"),
            ("workers", 0, "workers must be >= 1"),
            ("interval_kind", "c3", "interval kind must be one of ('c1', 'c2', 'robust')"),
        ],
    )
    def test_out_of_range_settings(self, field, value, message):
        with pytest.raises(DataError, match=re.escape(message)) as info:
            UqConfig(**{"b": 40, "alpha": 0.05, field: value})
        assert info.type is DataError

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.05, np.nan])
    def test_alpha_outside_the_unit_interval(self, alpha):
        with pytest.raises(DataError, match=re.escape("alpha must be in (0, 1)")):
            UqConfig(b=40, alpha=alpha)
