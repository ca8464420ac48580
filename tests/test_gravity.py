import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowuq import (
    Collinear,
    DataError,
    DistanceMatrix,
    EstimatorResult,
    FlowMatrix,
    FlowUqError,
    InsufficientData,
    NoConvergence,
    NotPSD,
    PpmlEstimator,
    Separation,
    dyadic_variance,
    fit_log_gravity,
    fit_ppml,
    independent_variance,
    sample_flow_matrix,
    sample_theta,
)
from flowuq import engine, gravity
from flowuq.gravity import _components, _twoway_fe, fit_ppml_many
from flowuq.scenarios import armington_world

from .oracles import (
    dyad_indices,
    dyadic_meat_enumeration,
    normal_equations_ols,
    ppml_scores_bread,
    twoway_design,
)


def gravity_flows(n, epsilon, rng, noise_sd=0.0, include_diagonal=False):
    """Flows generated from the two-way multiplicative model with random
    log costs; returns (FlowMatrix, log_costs)."""
    fe_o = rng.normal(0.0, 0.4, size=n)
    fe_d = rng.normal(0.0, 0.4, size=n)
    log_costs = rng.uniform(0.0, 0.5, size=(n, n))
    np.fill_diagonal(log_costs, 0.0)
    log_mu = fe_o[:, None] + fe_d[None, :] - epsilon * log_costs
    noise = noise_sd * rng.standard_normal((n, n))
    values = np.exp(log_mu + noise)
    if not include_diagonal:
        np.fill_diagonal(values, 0.0)
    return FlowMatrix(values), log_costs


def ppml_rebuild(fit, flows, log_costs, include_diagonal=False):
    """Dense per-dyad scores and inverse Hessian of a PPML fit, rebuilt from
    its fitted means alone; returns (scores, bread, oidx, didx)."""
    oidx, didx = dyad_indices(flows.n, include_diagonal)
    x = twoway_design(oidx, didx, flows.n, extra=log_costs[oidx, didx])
    scores, bread = ppml_scores_bread(
        flows.values[oidx, didx], fit.mu_hat[oidx, didx], x
    )
    return scores, bread, oidx, didx


class TestPpml:
    @pytest.mark.filterwarnings("error")
    def test_no_positive_flow_is_insufficient_data(self):
        # Only own flows are positive, and they are excluded by default.
        with pytest.raises(InsufficientData):
            fit_ppml(FlowMatrix(5.0 * np.eye(4)), np.ones((4, 4)))

    def test_exact_recovery(self):
        rng = np.random.default_rng(11)
        flows, log_costs = gravity_flows(8, 5.0, rng)
        fit = fit_ppml(flows, log_costs)
        assert abs(fit.epsilon_hat - 5.0) < 1e-6
        assert fit.variance < 1e-10
        # Noiseless fit: per-dyad scores vanish too.
        scores = ppml_rebuild(fit, flows, log_costs)[0]
        assert np.max(np.abs(scores)) < 1e-6

    def test_singular_projection_fails_its_slice_alone(self, monkeypatch):
        # On the heavy-noise world the fitted means of the empty origin fall
        # to ~1e-17 of the largest, and the fixed-effects block turns
        # singular before any effect exceeds the separation bound.
        flows, log_costs = singular_world()
        with pytest.raises(Separation, match="projection became singular") as single:
            fit_ppml(flows, log_costs)

        # The weighting that was singular fails alone in a stack: the other
        # slices get their own projections, bit for bit.
        seen = []
        real = gravity._twoway_fe

        def recording(w, v, labels):
            out = real(w, v, labels)
            if out[3].any():
                seen.append((w[out[3]][0], v[out[3]][0], labels))
            return out

        monkeypatch.setattr(gravity, "_twoway_fe", recording)
        with pytest.raises(Separation):
            fit_ppml(flows, log_costs)
        monkeypatch.undo()
        w_bad, v_bad, labels = seen[0]
        rng = np.random.default_rng(3)
        w = np.exp(rng.normal(0.0, 1.0, (4,) + w_bad.shape)) * (w_bad > 0)
        v = rng.normal(size=(4,) + v_bad.shape)
        w[2], v[2] = w_bad, v_bad
        a, b, _, singular = _twoway_fe(w, v, labels)
        assert singular.tolist() == [False, False, True, False]
        assert np.isnan(a[2]).all() and np.isnan(b[2]).all()
        for j in (0, 1, 3):
            a_j, b_j, _, singular_j = _twoway_fe(w[j : j + 1], v[j : j + 1], labels)
            assert not singular_j.any()
            assert np.array_equal(a[j], a_j[0]) and np.array_equal(b[j], b_j[0])

        # In a batch of fits the lowest failing slice's error is raised.
        good = [gravity_flows(flows.n, 2.0, rng)[0].values for _ in range(3)]
        separating = good[2] * np.exp(40.0 * (np.arange(flows.n) == 2))
        with pytest.raises(Separation, match="exceeded") as sep:
            fit_ppml(FlowMatrix(separating), log_costs)
        for stack, expected in (
            ([good[0], good[1], flows.values, separating], single),
            ([good[0], separating, flows.values, good[1]], sep),
        ):
            with pytest.raises(Separation) as info:
                fit_ppml_many(np.stack(stack), log_costs)
            assert str(info.value) == str(expected.value)

    def test_warm_start_matches_cold_fits(self):
        # Draws around an observed matrix, fitted from the observed fit: the
        # estimates agree with cold fits within the IRLS tolerance, in fewer
        # iterations; a separating draw still separates.
        world = armington_world(n=12, seed=4)
        _, observed = world.draw_world(np.random.default_rng(1))
        start = fit_ppml(observed, world.log_costs)
        rng = np.random.default_rng(2)
        stack = np.stack(
            [sample_flow_matrix(observed, world.params, rng)[0].values for _ in range(6)]
        )
        cold = fit_ppml_many(stack, world.log_costs)
        warm = fit_ppml_many(stack, world.log_costs, start=start)
        for c, w in zip(cold, warm):
            assert abs(w.epsilon_hat - c.epsilon_hat) <= 1e-10 * abs(c.epsilon_hat)
            assert abs(w.variance - c.variance) <= 1e-10 * c.variance
        assert sum(w.iterations for w in warm) < sum(c.iterations for c in cold)
        for single, batched in zip(stack, warm):
            assert_same_fit(fit_ppml_many(single[None], world.log_costs, start=start)[0], batched)

        estimator = PpmlEstimator(world.log_costs, start)
        many = estimator.many([FlowMatrix(values) for values in stack])
        for values, est, fit in zip(stack, many, warm):
            one = estimator(FlowMatrix(values))
            assert np.array_equal(one.theta_hat, est.theta_hat)
            assert np.array_equal(one.sigma_hat, est.sigma_hat)
            assert est.theta_hat[0] == fit.epsilon_hat

        separating = stack[0] * np.exp(40.0 * (np.arange(12) == 2))
        with pytest.raises(Separation):
            fit_ppml_many(np.stack([stack[1], separating]), world.log_costs, start=start)
        with pytest.raises(DataError):
            fit_ppml_many(stack[:, :5, :5], world.log_costs[:5, :5], start=start)

    def test_collinear_costs(self):
        rng = np.random.default_rng(1)
        flows, _ = gravity_flows(5, 2.0, rng, noise_sd=0.1)
        with pytest.raises(Collinear):
            fit_ppml(flows, np.full((5, 5), 0.7))

    def test_first_order_conditions(self):
        rng = np.random.default_rng(2)
        flows, log_costs = gravity_flows(7, 3.0, rng, noise_sd=0.5)
        fit = fit_ppml(flows, log_costs)
        scores = ppml_rebuild(fit, flows, log_costs)[0]
        foc = np.abs(scores.sum(axis=0)).max()
        assert foc <= 1e-8 * max(1.0, float(np.max(flows.values)))

    def test_first_order_condition_guard(self):
        # A loose deviance tolerance stops IRLS after 5 iterations with score
        # sums of 1.7e-5, which the first-order-condition check rejects.
        world = armington_world(n=10, seed=0)
        _, observed = world.draw_world(np.random.default_rng(1))
        with pytest.raises(NoConvergence, match="first-order conditions") as info:
            fit_ppml(observed, world.log_costs, dev_tol=1e-3)
        assert info.value.iterations == 5

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(3)
        flows, log_costs = gravity_flows(6, 4.0, rng, noise_sd=0.3)
        fit1 = fit_ppml(flows, log_costs)
        fit2 = fit_ppml(
            FlowMatrix(flows.values * 1e6, flows.labels), log_costs
        )
        assert abs(fit1.epsilon_hat - fit2.epsilon_hat) < 1e-8
        # Only the destination fixed effects absorb the scale shift.
        assert np.allclose(fit2.fe_dest - fit1.fe_dest, np.log(1e6), atol=1e-7)
        assert np.allclose(fit2.fe_origin, fit1.fe_origin, atol=1e-7)

    def test_zeros_handled(self):
        rng = np.random.default_rng(4)
        flows, log_costs = gravity_flows(6, 3.0, rng, noise_sd=0.4)
        values = np.array(flows.values)
        oidx, didx = dyad_indices(6)
        drop = rng.choice(len(oidx), size=5, replace=False)
        values[oidx[drop], didx[drop]] = 0.0
        fit = fit_ppml(FlowMatrix(values), log_costs)
        assert np.isfinite(fit.epsilon_hat)
        assert np.all(fit.mu_hat[oidx, didx] > 0)
        assert np.all(np.diag(fit.mu_hat) == 0.0)  # off the sample

    def test_separation(self):
        # One destination attracts astronomically more flow than the rest;
        # its fixed effect runs away past the divergence bound.
        n = 5
        rng = np.random.default_rng(5)
        flows, log_costs = gravity_flows(n, 2.0, rng, noise_sd=0.1)
        values = np.array(flows.values)
        values[:, 2] *= np.exp(40.0)
        with pytest.raises(Separation):
            fit_ppml(FlowMatrix(values), log_costs)

    def test_fe_normalization_is_inert(self):
        # Re-solving with a different dropped origin dummy moves the fixed
        # effects but not the elasticity.
        rng = np.random.default_rng(6)
        flows, log_costs = gravity_flows(6, 3.5, rng, noise_sd=0.2)
        fit = fit_ppml(flows, log_costs)
        relabel = list(reversed(range(6)))
        flows_r = FlowMatrix(flows.values[np.ix_(relabel, relabel)])
        fit_r = fit_ppml(flows_r, log_costs[np.ix_(relabel, relabel)])
        assert abs(fit.epsilon_hat - fit_r.epsilon_hat) < 1e-7


def singular_world():
    """A heavy-noise PPML world (origin 0 exports nothing) on which the
    weighted fixed-effects block turns singular during IRLS."""
    rng = np.random.default_rng(41)
    n = int(rng.integers(3, 7))
    noise_sd = rng.uniform(3, 8)
    zero_frac = rng.choice([0.0, 0.3, 0.6])
    flows, log_costs = gravity_flows(n, 3.0, rng, noise_sd)
    log_costs = log_costs * rng.uniform(1, 10)
    values = flows.values * (rng.random((n, n)) >= zero_frac)
    return FlowMatrix(values), log_costs


def assert_same_fit(single, batched):
    """Two PPML fits agree bit for bit."""
    for field in ("epsilon_hat", "variance", "variance_psd_projected", "deviance", "iterations"):
        assert getattr(single, field) == getattr(batched, field), field
    for field in ("fe_origin", "fe_dest", "influence", "mu_hat"):
        assert np.array_equal(getattr(single, field), getattr(batched, field)), field


class TestPpmlMany:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(3, 8),
        k=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
        noise_sd=st.floats(0.0, 1.5),
        zero_frac=st.sampled_from([0.0, 0.1, 0.3]),
        include_diagonal=st.booleans(),
        variance_mode=st.sampled_from(["dyadic", "independent"]),
    )
    def test_matches_single_fits(
        self, n, k, seed, noise_sd, zero_frac, include_diagonal, variance_mode
    ):
        rng = np.random.default_rng(seed)
        log_costs = gravity_flows(n, 3.0, rng)[1]
        stack = []
        for _ in range(k):
            flows = gravity_flows(n, 3.0, rng, noise_sd, include_diagonal)[0]
            stack.append(flows.values * (rng.random((n, n)) >= zero_frac))
        singles = []
        for values in stack:
            try:
                singles.append(
                    fit_ppml(FlowMatrix(values), log_costs, include_diagonal, variance_mode)
                )
            except FlowUqError as exc:  # the batch must raise the first failure
                with pytest.raises(type(exc)) as info:
                    fit_ppml_many(np.stack(stack), log_costs, include_diagonal, variance_mode)
                assert str(info.value) == str(exc)
                return
        fits = fit_ppml_many(np.stack(stack), log_costs, include_diagonal, variance_mode)
        assert len(fits) == k
        for single, batched in zip(singles, fits):
            assert_same_fit(single, batched)

    def test_step_halving_is_per_fit(self):
        # Heavy multiplicative noise: the full IRLS step raises the deviance
        # at some iteration of the second and third slices (they halve their
        # steps, a different number of times), never for the clean slices.
        rng = np.random.default_rng(2024)
        n = 5
        log_costs = rng.uniform(0.0, 2.0, (n, n))
        np.fill_diagonal(log_costs, 0.0)
        noisy = []
        for _ in range(47):
            log_mu = (
                rng.normal(0, 0.4, (n, 1)) + rng.normal(0, 0.4, n) - 3.0 * log_costs
                + rng.uniform(3, 7) * rng.standard_normal((n, n))
            )
            values = np.exp(log_mu) * (rng.random((n, n)) >= 0.2)
            np.fill_diagonal(values, 0.0)
            noisy.append(values)
        clean = np.exp(-3.0 * log_costs)
        np.fill_diagonal(clean, 0.0)
        stack = np.stack([clean, noisy[1], noisy[46], 2.0 * clean])
        fits = fit_ppml_many(stack, log_costs)
        for values, batched in zip(stack, fits):
            assert_same_fit(fit_ppml(FlowMatrix(values), log_costs), batched)
        assert fits[1].iterations != fits[2].iterations

    def test_lowest_failing_slice_decides(self, monkeypatch):
        # With five IRLS iterations allowed, noiseless slices converge and a
        # noisy slice does not; a slice with one dominant destination
        # separates within those five.
        monkeypatch.setattr(gravity, "_MAX_ITER", 5)
        rng = np.random.default_rng(5)
        log_costs = rng.uniform(0.0, 0.5, size=(6, 6))

        def flows(noise_sd):
            log_mu = rng.normal(0.0, 0.4, (6, 1)) + rng.normal(0.0, 0.4, 6) - 2.0 * log_costs
            values = np.exp(log_mu + noise_sd * rng.standard_normal((6, 6)))
            np.fill_diagonal(values, 0.0)
            return values

        good = [flows(0.0) for _ in range(4)]
        separating = flows(0.1)
        separating[:, 2] *= np.exp(40.0)
        slow = flows(2.0)
        for values in good:
            fit_ppml(FlowMatrix(values), log_costs)  # converges in time
        with pytest.raises(Separation) as sep:
            fit_ppml(FlowMatrix(separating), log_costs)
        with pytest.raises(NoConvergence) as cap:
            fit_ppml(FlowMatrix(slow), log_costs)
        assert cap.value.iterations == 5

        for first, second, expected in ((separating, slow, sep), (slow, separating, cap)):
            stack = np.stack([good[0], good[1], first, good[2], second, good[3]])
            with pytest.raises(type(expected.value)) as info:
                fit_ppml_many(stack, log_costs)
            assert str(info.value) == str(expected.value)

    def test_singular_projection_fails_its_slice_alone(self, monkeypatch):
        # On the heavy-noise world the fitted means of the empty origin fall
        # to ~1e-17 of the largest, and the fixed-effects block turns
        # singular before any effect exceeds the separation bound.
        flows, log_costs = singular_world()
        with pytest.raises(Separation, match="projection became singular") as single:
            fit_ppml(flows, log_costs)

        # The weighting that was singular fails alone in a stack: the other
        # slices get their own projections, bit for bit.
        seen = []
        real = gravity._twoway_fe

        def recording(w, v, labels):
            out = real(w, v, labels)
            if out[3].any():
                seen.append((w[out[3]][0], v[out[3]][0], labels))
            return out

        monkeypatch.setattr(gravity, "_twoway_fe", recording)
        with pytest.raises(Separation):
            fit_ppml(flows, log_costs)
        monkeypatch.undo()
        w_bad, v_bad, labels = seen[0]
        rng = np.random.default_rng(3)
        w = np.exp(rng.normal(0.0, 1.0, (4,) + w_bad.shape)) * (w_bad > 0)
        v = rng.normal(size=(4,) + v_bad.shape)
        w[2], v[2] = w_bad, v_bad
        a, b, _, singular = _twoway_fe(w, v, labels)
        assert singular.tolist() == [False, False, True, False]
        assert np.isnan(a[2]).all() and np.isnan(b[2]).all()
        for j in (0, 1, 3):
            a_j, b_j, _, singular_j = _twoway_fe(w[j : j + 1], v[j : j + 1], labels)
            assert not singular_j.any()
            assert np.array_equal(a[j], a_j[0]) and np.array_equal(b[j], b_j[0])

        # In a batch of fits the lowest failing slice's error is raised.
        good = [gravity_flows(flows.n, 2.0, rng)[0].values for _ in range(3)]
        separating = good[2] * np.exp(40.0 * (np.arange(flows.n) == 2))
        with pytest.raises(Separation, match="exceeded") as sep:
            fit_ppml(FlowMatrix(separating), log_costs)
        for stack, expected in (
            ([good[0], good[1], flows.values, separating], single),
            ([good[0], separating, flows.values, good[1]], sep),
        ):
            with pytest.raises(Separation) as info:
                fit_ppml_many(np.stack(stack), log_costs)
            assert str(info.value) == str(expected.value)

    def test_warm_start_matches_cold_fits(self):
        # Draws around an observed matrix, fitted from the observed fit: the
        # estimates agree with cold fits within the IRLS tolerance, in fewer
        # iterations; a separating draw still separates.
        world = armington_world(n=12, seed=4)
        _, observed = world.draw_world(np.random.default_rng(1))
        start = fit_ppml(observed, world.log_costs)
        rng = np.random.default_rng(2)
        stack = np.stack(
            [sample_flow_matrix(observed, world.params, rng)[0].values for _ in range(6)]
        )
        cold = fit_ppml_many(stack, world.log_costs)
        warm = fit_ppml_many(stack, world.log_costs, start=start)
        for c, w in zip(cold, warm):
            assert abs(w.epsilon_hat - c.epsilon_hat) <= 1e-10 * abs(c.epsilon_hat)
            assert abs(w.variance - c.variance) <= 1e-10 * c.variance
        assert sum(w.iterations for w in warm) < sum(c.iterations for c in cold)
        for single, batched in zip(stack, warm):
            assert_same_fit(fit_ppml_many(single[None], world.log_costs, start=start)[0], batched)

        estimator = PpmlEstimator(world.log_costs, start)
        many = estimator.many([FlowMatrix(values) for values in stack])
        for values, est, fit in zip(stack, many, warm):
            one = estimator(FlowMatrix(values))
            assert np.array_equal(one.theta_hat, est.theta_hat)
            assert np.array_equal(one.sigma_hat, est.sigma_hat)
            assert est.theta_hat[0] == fit.epsilon_hat

        separating = stack[0] * np.exp(40.0 * (np.arange(12) == 2))
        with pytest.raises(Separation):
            fit_ppml_many(np.stack([stack[1], separating]), world.log_costs, start=start)
        with pytest.raises(DataError):
            fit_ppml_many(stack[:, :5, :5], world.log_costs[:5, :5], start=start)

    def test_draw_loop_batch_at_n100_matches_single_fits(self):
        # The draw loop's batches hold more than one draw at n = 100; such a
        # batch of drawn matrices, fitted in one IRLS from the observed fit,
        # gives every slice's fit alone, bit for bit.
        k = engine._batch_size(100)
        assert k > 1
        world = armington_world(n=100, seed=3)
        _, observed = world.draw_world(np.random.default_rng(1))
        start = fit_ppml(observed, world.log_costs)
        rng = np.random.default_rng(2)
        stack = np.stack(
            [sample_flow_matrix(observed, world.params, rng)[0].values for _ in range(k)]
        )
        fits = fit_ppml_many(stack, world.log_costs, start=start)
        for single, batched in zip(stack, fits):
            assert_same_fit(fit_ppml_many(single[None], world.log_costs, start=start)[0], batched)

    def test_collinear_costs(self):
        rng = np.random.default_rng(1)
        stack = np.stack([gravity_flows(5, 2.0, rng, noise_sd=0.1)[0].values for _ in range(3)])
        with pytest.raises(Collinear):
            fit_ppml_many(stack, np.full((5, 5), 0.7))

    def test_rejects_malformed_stacks(self):
        log_costs = np.zeros((3, 3))
        for values in (np.ones((3, 3)), np.ones((2, 3, 4)), -np.ones((1, 3, 3))):
            with pytest.raises(DataError):
                fit_ppml_many(values, log_costs)


class TestDyadicVariance:
    def test_matches_enumeration_small_n(self):
        for n, seed in ((3, 0), (4, 1)):
            rng = np.random.default_rng(seed)
            flows, log_costs = gravity_flows(n, 2.0, rng, noise_sd=0.6)
            fit = fit_ppml(flows, log_costs)
            scores, bread, oidx, didx = ppml_rebuild(fit, flows, log_costs)
            meat = dyadic_meat_enumeration(scores, oidx, didx)
            var_oracle = max(float((bread @ meat @ bread)[0, 0]), 0.0)
            assert abs(dyadic_variance(fit) - var_oracle) < 1e-12 * max(
                1.0, var_oracle
            )
            assert dyadic_variance(fit) >= 0.0
            var_indep = float((bread @ scores.T @ scores @ bread)[0, 0])
            assert abs(independent_variance(fit) - var_indep) < 1e-12 * max(
                1.0, var_indep
            )
            # The influence grid is the slope row of the bread times the scores.
            psi = np.zeros((n, n))
            psi[oidx, didx] = scores @ bread[:, 0]
            assert np.max(np.abs(fit.influence - psi)) < 1e-10 * max(
                1.0, np.max(np.abs(psi))
            )

    def test_includes_diagonal_dyads(self):
        rng = np.random.default_rng(7)
        flows, log_costs = gravity_flows(4, 2.0, rng, noise_sd=0.5, include_diagonal=True)
        fit = fit_ppml(flows, log_costs, include_diagonal=True)
        scores, bread, oidx, didx = ppml_rebuild(
            fit, flows, log_costs, include_diagonal=True
        )
        meat = dyadic_meat_enumeration(scores, oidx, didx)
        var_oracle = max(float((bread @ meat @ bread)[0, 0]), 0.0)
        assert abs(dyadic_variance(fit) - var_oracle) < 1e-12 * max(1.0, var_oracle)

    def test_zero_residuals_zero_variance(self):
        rng = np.random.default_rng(8)
        flows, log_costs = gravity_flows(6, 3.0, rng)
        fit = fit_ppml(flows, log_costs)
        assert dyadic_variance(fit) < 1e-12
        assert independent_variance(fit) < 1e-12

    def test_close_to_independent_variance_under_independence(self):
        # With independent noise the node-sharing cross terms average out:
        # the two variance estimates agree within 25% relative once averaged
        # over replications.
        rng = np.random.default_rng(9)
        dyadic_avg, indep_avg = 0.0, 0.0
        reps = 20
        for _ in range(reps):
            flows, log_costs = gravity_flows(14, 3.0, rng, noise_sd=0.3)
            fit = fit_ppml(flows, log_costs)
            dyadic_avg += dyadic_variance(fit) / reps
            indep_avg += independent_variance(fit) / reps
        assert abs(dyadic_avg - indep_avg) < 0.25 * indep_avg


class TestLogGravity:
    def exact_fit(self, n=7, beta=-1.0, seed=10):
        rng = np.random.default_rng(seed)
        dist = np.exp(rng.uniform(0.0, 2.0, size=(n, n)))
        np.fill_diagonal(dist, 1.0)
        fe_o = rng.normal(2.0, 0.5, size=n)
        fe_d = rng.normal(2.0, 0.5, size=n)
        values = np.exp(beta * np.log(dist) + fe_o[:, None] + fe_d[None, :])
        np.fill_diagonal(values, 0.0)
        return FlowMatrix(values), DistanceMatrix(dist)

    def test_exact_log_linear(self):
        flows, dist = self.exact_fit(beta=-1.0)
        fit = fit_log_gravity(flows, dist)
        assert abs(fit.beta_hat + 1.0) < 1e-10
        assert fit.residual_variance < 1e-20
        assert abs(fit.adj_r2 - 1.0) < 1e-12

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(12)
        flows, dist = self.exact_fit(seed=12)
        values = np.array(flows.values)
        off = ~np.eye(flows.n, dtype=bool)
        # heteroskedastic multiplicative noise
        values[off] *= np.exp(0.3 * rng.standard_normal(off.sum()) * rng.uniform(0.5, 1.5, off.sum()))
        flows = FlowMatrix(values)
        fit = fit_log_gravity(flows, dist)
        oidx, didx = np.nonzero(off & (values > 0))
        x = twoway_design(oidx, didx, flows.n, extra=np.log(dist.values[oidx, didx]))
        beta_oracle = normal_equations_ols(x, np.log(values[oidx, didx]))
        assert abs(fit.beta_hat - beta_oracle[0]) < 1e-10

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(13)
        flows, dist = self.exact_fit(seed=13)
        values = np.array(flows.values)
        off = ~np.eye(flows.n, dtype=bool)
        values[off] *= np.exp(0.4 * rng.standard_normal(off.sum()))
        flows = FlowMatrix(values)
        fit = fit_log_gravity(flows, dist)
        oidx, didx = np.nonzero(off & (values > 0))
        x = twoway_design(oidx, didx, flows.n, extra=np.log(dist.values[oidx, didx]))
        fitted = (
            fit.beta_hat * np.log(dist.values[oidx, didx])
            + fit.fe_origin[oidx]
            + fit.fe_dest[didx]
        )
        resid = np.log(values[oidx, didx]) - fitted
        assert np.max(np.abs(x.T @ resid)) < 1e-10 * max(1.0, np.abs(resid).sum())

    def test_prior_variance_decomposition_anchor(self):
        # Residual variance 0.151 with ME variance 0.05 leaves 0.101 for the
        # prior; the decomposition is a plain subtraction with a zero floor.
        assert abs(max(0.151 - 0.05, 0.0) - 0.101) < 1e-12
        assert max(0.04 - 0.05, 0.0) == 0.0
        assert max(0.151 - 0.0, 0.0) == 0.151

    def test_insufficient_data(self):
        flows, dist = self.exact_fit()
        no_exports = np.array(flows.values)
        no_exports[3, :] = 0.0  # origin 3 exports nothing
        # Every location trades, but only within {0, 1, 2} and within
        # {3, 4, 5, 6}: a dyad joining the groups has no identified mean.
        group = np.arange(7) < 3
        unconnected = np.where(group[:, None] == group[None, :], flows.values, 0.0)
        for values in (no_exports, unconnected):
            with pytest.raises(InsufficientData):
                fit_log_gravity(FlowMatrix(values), dist)

    def test_positive_flows_only(self):
        # Zeros are excluded, not log-transformed.
        flows, dist = self.exact_fit()
        values = np.array(flows.values)
        values[0, 1] = 0.0
        fit = fit_log_gravity(FlowMatrix(values), dist)
        assert np.isfinite(fit.beta_hat)
        assert fit.n_obs == np.count_nonzero(values[~np.eye(7, dtype=bool)])


class TestTwowayProjection:
    def test_matches_dense_lstsq_with_absent_locations(self):
        rng = np.random.default_rng(14)
        n = 7
        w = rng.uniform(0.5, 2.0, (n, n)) * (rng.random((n, n)) < 0.7)
        np.fill_diagonal(w, 0.0)
        w[2, :] = 0.0  # origin 2 absent
        w[:, 5] = 0.0  # destination 5 absent
        # Every location present, but dyads only within {0, 1, 2} and
        # within {3, 4, 5, 6}.
        group = np.arange(n) < 3
        same = group[:, None] == group[None, :]
        w_groups = np.where(same, rng.uniform(0.5, 2.0, (n, n)), 0.0)
        np.fill_diagonal(w_groups, 0.0)
        cases = (
            (w, np.outer(w.any(axis=1), w.any(axis=0))),
            (w_groups, same),
        )
        for weights, linked_expected in cases:
            v = rng.normal(size=(n, n, 2))
            a, b, linked, singular = _twoway_fe(
                weights[None], v.transpose(2, 0, 1)[None], _components(weights > 0)
            )
            assert not singular.any()
            a, b = a[0].T, b[0].T
            oidx, didx = np.nonzero(weights > 0)
            x = twoway_design(oidx, didx, n)
            sw = np.sqrt(weights[oidx, didx])
            for k in range(2):
                coef = np.linalg.lstsq(x * sw[:, None], v[oidx, didx, k] * sw, rcond=None)[0]
                fitted = a[oidx, k] + b[didx, k]
                assert np.max(np.abs(fitted - x @ coef)) < 1e-10
            assert np.all(a[0] == 0.0)
            assert np.all(a[~weights.any(axis=1)] == 0.0)
            assert np.all(b[~weights.any(axis=0)] == 0.0)
            assert np.array_equal(linked, linked_expected)


class TestSampleTheta:
    def test_degenerate_variance(self):
        est = EstimatorResult(theta_hat=[2.26], sigma_hat=[[0.0]])
        rng = np.random.default_rng(0)
        assert sample_theta(est, rng) == pytest.approx(2.26)

    def test_moments_match_paper_scale_estimate(self):
        est = EstimatorResult(theta_hat=[2.26], sigma_hat=[[0.52**2]])
        rng = np.random.default_rng(123)
        draws = np.array([sample_theta(est, rng)[0] for _ in range(100_000)])
        assert abs(draws.mean() - 2.26) < 0.01
        assert abs(draws.std() - 0.52) < 0.01

    def test_seed_determinism(self):
        est = EstimatorResult(theta_hat=[1.0, 2.0], sigma_hat=np.eye(2) * 0.25)
        a = [sample_theta(est, np.random.default_rng(42)) for _ in range(3)]
        b = [sample_theta(est, np.random.default_rng(42)) for _ in range(3)]
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_not_psd(self):
        est = EstimatorResult(theta_hat=[1.0], sigma_hat=[[1.0]])
        object.__setattr__(est, "sigma_hat", np.array([[-1.0]]))
        rng = np.random.default_rng(0)
        with pytest.raises(NotPSD):
            sample_theta(est, rng)
