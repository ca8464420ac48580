import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowuq import (
    Collinear,
    DataError,
    DistanceMatrix,
    FlowMatrix,
    FlowUqError,
    InsufficientData,
    NoConvergence,
    PpmlEstimator,
    PpmlFit,
    Separation,
    fit_log_gravity,
    fit_ppml,
    independent_variance,
    sample_flow_matrix,
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

    @pytest.mark.parametrize(
        "log_costs, message",
        [
            (np.zeros((3, 3)), "log_costs must be n x n"),
            (np.where(np.eye(4, dtype=bool), 0.0, np.inf), "must be finite on included dyads"),
        ],
        ids=["shape", "infinite"],
    )
    def test_malformed_log_costs_are_data_errors(self, log_costs, message):
        with pytest.raises(DataError, match=message) as info:
            fit_ppml(FlowMatrix(np.ones((4, 4))), log_costs)
        assert info.type is DataError

    def test_exact_recovery(self):
        rng = np.random.default_rng(11)
        flows, log_costs = gravity_flows(8, 5.0, rng)
        fit = fit_ppml(flows, log_costs)
        assert abs(fit.epsilon_hat - 5.0) < 1e-6
        assert fit.variance < 1e-10
        # Noiseless fit: per-dyad scores vanish too.
        scores = ppml_rebuild(fit, flows, log_costs)[0]
        assert np.max(np.abs(scores)) < 1e-6

    def test_location_without_positive_flow_separates_up_front(self):
        # Origin 2 of the heavy-noise world exports nothing: its effect has
        # no finite value, so the fit is refused before it iterates, naming
        # the origin as the log-linear gravity fit does; likewise a
        # destination.  In a batch each slice keeps its own outcome.
        flows, log_costs = singular_world()
        with pytest.raises(Separation, match=r"no positive flow for origins \['2'\]") as single:
            fit_ppml(flows, log_costs)
        with pytest.raises(InsufficientData, match=r"no positive flow for origins \['2'\]"):
            fit_log_gravity(flows, DistanceMatrix(np.exp(log_costs) + np.eye(flows.n)))
        lonely, _ = gravity_flows(flows.n, 2.0, np.random.default_rng(5), 0.3, True)
        lonely = np.array(lonely.values)
        lonely[:, 3] = 0.0
        with pytest.raises(Separation, match=r"no positive flow for destinations \['3'\]"):
            fit_ppml(FlowMatrix(lonely), log_costs)
        # Only included flows count: an own flow reaches its destination
        # only when the diagonal is in the sample.
        lonely[3, 3] = 1.0
        with pytest.raises(Separation, match=r"no positive flow for destinations \['3'\]"):
            fit_ppml(FlowMatrix(lonely), log_costs)
        assert fit_ppml(FlowMatrix(lonely), log_costs, include_diagonal=True).iterations > 0

        rng = np.random.default_rng(3)
        good = [gravity_flows(flows.n, 2.0, rng)[0].values for _ in range(3)]
        separating = good[2] * np.exp(40.0 * (np.arange(flows.n) == 2))
        with pytest.raises(Separation, match="exceeded") as sep:
            fit_ppml(FlowMatrix(separating), log_costs)
        for stack, at_empty, at_sep in (
            ([good[0], good[1], flows.values, separating], 2, 3),
            ([good[0], separating, flows.values, good[1]], 2, 1),
        ):
            for start in (None, fit_ppml(FlowMatrix(good[0]), log_costs)):
                fits = fit_ppml_many(matrices(stack), log_costs, start=start)
                assert str(fits[at_empty]) == str(single.value)
                assert str(fits[at_sep]) == str(sep.value)
                for values, fit in zip(stack, fits):
                    assert_same_outcome(fit_alone(FlowMatrix(values), log_costs, start=start), fit)

    def test_singular_projection_fails_its_slice_alone(self, monkeypatch):
        # Fitted means that vanish on part of the sample can split it in
        # two: origins 0 and 1 reach only destinations 2 and 3, and origins 2
        # and 3 only destinations 0 and 1.  With weights 0 and 1 the weighted
        # fixed-effects block is exactly singular, and that weighting fails
        # alone in a stack: the others get their own projections, bit for bit.
        n = 4
        labels = _components(~np.eye(n, dtype=bool))
        w_bad = np.zeros((n, n))
        w_bad[:2, 2:] = w_bad[2:, :2] = 1.0
        rng = np.random.default_rng(3)
        w = np.exp(rng.normal(0.0, 1.0, (4, n, n))) * ~np.eye(n, dtype=bool)
        v = rng.normal(size=(4, 2, n, n))
        w[2] = w_bad
        a, b, _, singular = _twoway_fe(w, v, labels)
        assert singular.tolist() == [False, False, True, False]
        assert np.isnan(a[2]).all() and np.isnan(b[2]).all()
        for j in (0, 1, 3):
            a_j, b_j, _, singular_j = _twoway_fe(w[j : j + 1], v[j : j + 1], labels)
            assert not singular_j.any()
            assert np.array_equal(a[j], a_j[0]) and np.array_equal(b[j], b_j[0])

        # A fit whose projection turns singular mid-iteration fails alone
        # with the singular-projection error.  Refusing locations without
        # flow leaves no known matrix that reaches it, so the projection
        # reports the heaviest weighting singular from the third iteration.
        real, calls = gravity._twoway_fe, []

        def singular_when_heavy(w, v, labels, *scratch):
            a, b, linked, singular = real(w, v, labels, *scratch)
            calls.append(None)
            if len(calls) >= 3:
                singular = singular | (w.sum(axis=(1, 2)) > 1e5)
            return a, b, linked, singular

        log_costs = rng.uniform(0.0, 0.5, (n, n))
        stack = [gravity_flows(n, 2.0, rng, 0.3)[0].values for _ in range(3)]
        stack[1] = stack[1] * 1e6
        monkeypatch.setattr(gravity, "_twoway_fe", singular_when_heavy)
        fits = fit_ppml_many(matrices(stack), log_costs)
        assert isinstance(fits[1], Separation)
        assert "projection became singular" in str(fits[1])
        monkeypatch.undo()
        for j in (0, 2):
            assert_same_fit(fit_ppml(FlowMatrix(stack[j]), log_costs), fits[j])

    def test_warm_start_matches_cold_fits(self):
        # Draws around an observed matrix, fitted from the observed fit: the
        # estimates agree with cold fits within the warm stop rule's declared
        # bound, in fewer iterations; a separating draw still separates.
        world = armington_world(n=12, seed=4)
        _, observed = world.draw_world(np.random.default_rng(1))
        start = fit_ppml(observed, world.log_costs)
        rng = np.random.default_rng(2)
        draws, _ = sample_flow_matrix(observed, world.params, [rng] * 6)
        stack = np.stack([d.values for d in draws])
        cold = fit_ppml_many(matrices(stack), world.log_costs)
        warm = fit_ppml_many(matrices(stack), world.log_costs, start=start)
        for c, w in zip(cold, warm):
            se = np.sqrt(start.variance)
            assert abs(w.epsilon_hat - c.epsilon_hat) <= gravity._WARM_SCORE * se
            assert abs(w.variance - c.variance) <= WARM_VARIANCE_BOUND * c.variance
        assert sum(w.iterations for w in warm) < sum(c.iterations for c in cold)
        for single, batched in zip(stack, warm):
            alone = fit_ppml_many([FlowMatrix(single)], world.log_costs, start=start)
            assert_same_fit(alone[0], batched)

        estimator = PpmlEstimator(world.log_costs, start)
        many = estimator.many(matrices(stack))
        for values, est, fit in zip(stack, many, warm):
            one = estimator(FlowMatrix(values))
            assert np.array_equal(one.theta_hat, est.theta_hat)
            assert np.array_equal(one.sigma_hat, est.sigma_hat)
            assert est.theta_hat[0] == fit.epsilon_hat

        separating = stack[0] * np.exp(40.0 * (np.arange(12) == 2))
        fits = fit_ppml_many(matrices([stack[1], separating]), world.log_costs, start=start)
        assert_same_fit(warm[1], fits[0])
        assert isinstance(fits[1], Separation)
        assert_same_outcome(fit_alone(FlowMatrix(separating), world.log_costs, start=start), fits[1])
        with pytest.raises(DataError):
            fit_ppml_many(matrices(stack[:, :5, :5]), world.log_costs[:5, :5], start=start)

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

    def test_first_order_condition_guard(self, monkeypatch):
        # A loose deviance tolerance stops IRLS after 5 iterations with score
        # sums of 1.7e-5, which the first-order-condition check rejects.
        world = armington_world(n=10, seed=0)
        _, observed = world.draw_world(np.random.default_rng(1))
        monkeypatch.setattr(gravity, "_DEV_TOL", 1e-3)
        with pytest.raises(NoConvergence, match="first-order conditions") as info:
            fit_ppml(observed, world.log_costs)
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

    def test_overflowing_deviance_is_halved_away(self):
        # Flows spanning 18 orders of magnitude on the singular world's log
        # costs: one full step's fitted means underflow where a flow is
        # positive, so y / mu overflows and that trial's deviance is
        # infinite.  Step halving rejects it, with no warning, and the fit
        # separates a few iterations later, alone and beside a clean fit.
        values = np.array([
            [0.0, 564.1289768084856, 1.9364704053808356e-05, 0.0003560173778841396,
             8.481263868108828e-08],
            [5.76356758863535, 0.0, 0.3485341034449002, 3.588486837726577e-05,
             78277598097.51564],
            [0.000958182131387694, 26411.54550803015, 0.0, 28282.830848024307,
             241.93005409509848],
            [0.003963066443626403, 23843769.894473676, 0.4401145028695913, 0.0,
             9.618430056563335e-05],
            [0.19100769125354886, 1191.8175143329872, 0.5874505392633331,
             3764359.772210726, 0.0],
        ])
        log_costs = singular_world()[1]
        with pytest.raises(Separation, match="exceeded") as alone:
            fit_ppml(FlowMatrix(values), log_costs)
        clean = gravity_flows(5, 2.0, np.random.default_rng(0))[0]
        fits = fit_ppml_many([clean, FlowMatrix(values)], log_costs)
        assert_same_fit(fit_ppml(clean, log_costs), fits[0])
        assert_same_outcome(alone.value, fits[1])

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
    """A heavy-noise PPML world, n = 5, in which origin 2 exports nothing and
    destination 1 receives nothing; such a fit is refused before IRLS."""
    rng = np.random.default_rng(41)
    n = int(rng.integers(3, 7))
    noise_sd = rng.uniform(3, 8)
    zero_frac = rng.choice([0.0, 0.3, 0.6])
    flows, log_costs = gravity_flows(n, 3.0, rng, noise_sd)
    log_costs = log_costs * rng.uniform(1, 10)
    values = flows.values * (rng.random((n, n)) >= zero_frac)
    return FlowMatrix(values), log_costs


def warm_batch(rng, n, k, noise_sd, spread, zero_frac, include_diagonal):
    """A bootstrap-like warm batch: an observed matrix with noise around the
    gravity model, k matrices scattered around it by multiplicative noise of
    sd ``spread`` with a share ``zero_frac`` of zeros, and the observed fit,
    at which their fits start.  Returns (matrices, log costs, observed,
    start)."""
    observed, log_costs = gravity_flows(n, 3.0, rng, noise_sd, include_diagonal)
    start = fit_ppml(observed, log_costs, include_diagonal)
    stack = [
        observed.values
        * np.exp(spread * rng.standard_normal((n, n)))
        * (rng.random((n, n)) >= zero_frac)
        for _ in range(k)
    ]
    return matrices(stack), log_costs, observed, start


# The warm stop rule's declared tolerance against full IRLS: the elasticity
# within the score bound, _WARM_SCORE se of the start fit, and the variance
# within this share of itself.
WARM_VARIANCE_BOUND = 1e-3


def matrices(stack):
    """The flow matrices of a stack of values, as ``fit_ppml_many`` takes them."""
    return [FlowMatrix(values) for values in stack]


def assert_same_fit(single, batched):
    """Two PPML fits agree bit for bit."""
    for field in ("epsilon_hat", "variance", "variance_psd_projected", "deviance", "iterations"):
        assert getattr(single, field) == getattr(batched, field), field
    for field in ("fe_origin", "fe_dest", "influence", "mu_hat"):
        assert np.array_equal(getattr(single, field), getattr(batched, field)), field


def fit_alone(flows, log_costs, include_diagonal=False, start=None):
    """One matrix fitted alone: its fit or the error ``fit_ppml`` raises, or
    with a ``start`` the outcome of ``fit_ppml_many`` on it alone."""
    if start is not None:
        return fit_ppml_many([flows], log_costs, include_diagonal, start)[0]
    try:
        return fit_ppml(flows, log_costs, include_diagonal)
    except FlowUqError as exc:
        return exc


def assert_same_outcome(single, batched):
    """A slice of a batched fit equals the fit of that slice alone, bit for
    bit: the same fit, or an error of the same class and message."""
    if isinstance(single, FlowUqError):
        assert type(batched) is type(single)
        assert str(batched) == str(single)
        return
    assert isinstance(batched, PpmlFit), batched
    assert_same_fit(single, batched)


class TestPpmlMany:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(3, 8),
        kinds=st.lists(st.sampled_from(["plain", "separating", "empty"]), min_size=1, max_size=5),
        seed=st.integers(0, 2**32 - 1),
        noise_sd=st.floats(0.0, 1.5),
        zero_frac=st.sampled_from([0.0, 0.1, 0.3]),
        include_diagonal=st.booleans(),
        warm=st.booleans(),
        max_iter=st.sampled_from([gravity._MAX_ITER, 4]),
    )
    def test_matches_single_fits(
        self, n, kinds, seed, noise_sd, zero_frac, include_diagonal, warm, max_iter
    ):
        # A mixed batch: fits that converge, fits with one destination scaled
        # by e^40 (which separate), fits without flow and, under a cap of 4
        # iterations, capped fits.  Every slice gets the outcome of that slice
        # alone.
        rng = np.random.default_rng(seed)
        exact, log_costs = gravity_flows(n, 3.0, rng, 0.0, include_diagonal)
        start = fit_ppml(exact, log_costs, include_diagonal) if warm else None
        stack = []
        for kind in kinds:
            flows = gravity_flows(n, 3.0, rng, noise_sd, include_diagonal)[0]
            values = flows.values * (rng.random((n, n)) >= zero_frac)
            if kind == "separating":
                values = values * np.exp(40.0 * (np.arange(n) == rng.integers(n)))
            stack.append(0.0 * values if kind == "empty" else values)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gravity, "_MAX_ITER", max_iter)
            fits = fit_ppml_many(matrices(stack), log_costs, include_diagonal, start)
            assert len(fits) == len(kinds)
            for kind, values, fit in zip(kinds, stack, fits):
                single = fit_alone(FlowMatrix(values), log_costs, include_diagonal, start)
                assert_same_outcome(single, fit)
                if kind == "empty":
                    assert isinstance(fit, InsufficientData)
                elif isinstance(fit, PpmlFit):
                    assert independent_variance(single) == independent_variance(fit)

    @settings(max_examples=40, deadline=None)
    # Batch matrix 4 gives destination 0 no positive flow: a cold fit can
    # reach its first-order conditions with an effect near -30 while the warm
    # fit crosses the separation bound, so both are refused before IRLS.
    @example(n=4, seed=2**32 - 1, noise_sd=1.0, spread=0.5, zero_frac=0.3, include_diagonal=False)
    @given(
        n=st.integers(4, 12),
        seed=st.integers(0, 2**32 - 1),
        noise_sd=st.floats(0.2, 1.0),
        spread=st.floats(0.05, 0.5),
        zero_frac=st.sampled_from([0.0, 0.1, 0.3]),
        include_diagonal=st.booleans(),
    )
    def test_warm_stop_rule_keeps_the_declared_bound(
        self, n, seed, noise_sd, spread, zero_frac, include_diagonal
    ):
        # Warm batches around a noisy observed matrix: the fits the stop rule
        # ends early lie within the declared bound of full IRLS (cold fits),
        # and every slice equals its fit alone, bit for bit.
        # (A start whose variance is clamped to zero never stops a fit early:
        # such fits run full IRLS, within its tolerance of the cold ones.)
        rng = np.random.default_rng(seed)
        stack, log_costs, _, start = warm_batch(
            rng, n, 5, noise_sd, spread, zero_frac, include_diagonal
        )
        fits = fit_ppml_many(stack, log_costs, include_diagonal, start)
        se = np.sqrt(start.variance)
        for flows, fit in zip(stack, fits):
            assert_same_outcome(fit_alone(flows, log_costs, include_diagonal, start), fit)
            cold = fit_alone(flows, log_costs, include_diagonal)
            if isinstance(cold, FlowUqError):
                continue
            assert isinstance(fit, PpmlFit), fit
            tol = 1e-10 * abs(cold.epsilon_hat)
            assert abs(fit.epsilon_hat - cold.epsilon_hat) <= gravity._WARM_SCORE * se + tol
            tol = 1e-10 * cold.variance
            assert abs(fit.variance - cold.variance) <= WARM_VARIANCE_BOUND * cold.variance + tol

    def test_warm_stop_rule_ends_most_fits_early(self):
        # On such batches the rule stops most fits an iteration or more
        # before full IRLS, and the elasticities it leaves are far inside the
        # score bound.
        early, fitted, worst = 0, 0, 0.0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            stack, log_costs, _, start = warm_batch(rng, 15, 5, 0.5, 0.2, 0.1, False)
            full = fit_ppml_many(stack, log_costs)
            for warm, cold in zip(fit_ppml_many(stack, log_costs, start=start), full):
                fitted += 1
                early += warm.iterations < cold.iterations
                se = np.sqrt(start.variance)
                worst = max(worst, abs(warm.epsilon_hat - cold.epsilon_hat) / se)
        assert early >= 0.8 * fitted
        assert worst <= 0.1 * gravity._WARM_SCORE

    def test_warm_fit_missing_the_score_bound_fails_alone(self, monkeypatch):
        # With the score bound tightened far below what the stop rule leaves,
        # each fit the rule ends fails alone with NoConvergence, and the
        # observed matrix itself, whose fit meets the first-order conditions
        # at once, still converges beside them.
        rng = np.random.default_rng(7)
        stack, log_costs, observed, start = warm_batch(rng, 30, 4, 0.5, 0.3, 0.1, False)
        stack.insert(2, observed)
        passing = fit_ppml_many(stack, log_costs, start=start)
        assert all(isinstance(fit, PpmlFit) for fit in passing)
        monkeypatch.setattr(gravity, "_WARM_SCORE", 1e-12)
        fits = fit_ppml_many(stack, log_costs, start=start)
        assert_same_fit(passing[2], fits[2])
        failed = [fit for fit in fits if isinstance(fit, NoConvergence)]
        assert len(failed) == 4
        assert all("warm-started PPML score bound" in str(fit) for fit in failed)
        for flows, fit in zip(stack, fits):
            assert_same_outcome(fit_alone(flows, log_costs, start=start), fit)

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
        fits = fit_ppml_many(matrices(stack), log_costs)
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

        # Every slice of a batch gets its own outcome.
        for first, second, expected in ((separating, slow, sep), (slow, separating, cap)):
            stack = [good[0], good[1], first, good[2], second, good[3]]
            fits = fit_ppml_many(matrices(stack), log_costs)
            assert str(fits[2]) == str(expected.value)
            for values, fit in zip(stack, fits):
                assert_same_outcome(fit_alone(FlowMatrix(values), log_costs), fit)

        # The estimator plug-in, whose fits start at that of good[0], raises
        # the lower failing slice's error; rescaled copies of good[0] converge
        # from there within the cap.
        estimator = PpmlEstimator(log_costs, fit_ppml(FlowMatrix(good[0]), log_costs))
        for first, second in ((separating, slow), (slow, separating)):
            stack = [good[0], 1.1 * good[0], first, 1.001 * good[0], second, good[0]]
            warm = [fit_alone(FlowMatrix(v), log_costs, start=estimator.start) for v in stack]
            assert [isinstance(fit, FlowUqError) for fit in warm] == [
                False, False, True, False, True, False
            ]
            assert str(warm[2]) != str(warm[4])
            with pytest.raises(type(warm[2])) as info:
                estimator.many(matrices(stack))
            assert str(info.value) == str(warm[2])

    def test_fits_that_stop_and_fail_mid_iteration_leave_the_others_alone(self, monkeypatch):
        # On one world's log costs: a clean and a noisy fit that converge at
        # iterations 5 and 6, a slow fit stopped by a cap of 36 iterations,
        # and a heavy-noise slice whose fixed effect passes the separation
        # bound at iteration 16 while the slow fit still iterates beside it.
        # The rows of the fits that
        # stop are reordered in place each time; every slice gets the outcome
        # it reaches alone, the slow fit's capped deviance included.
        monkeypatch.setattr(gravity, "_MAX_ITER", 36)
        _, log_costs = singular_world()
        n = len(log_costs)
        clean = gravity_flows(n, 2.0, np.random.default_rng(0))[0]
        noisy = gravity_flows(n, 2.0, np.random.default_rng(1), 3.0)[0]
        slow = gravity_flows(n, 2.0, np.random.default_rng(767), 6.0)[0]
        assert [fit_ppml(f, log_costs).iterations for f in (clean, noisy)] == [5, 6]
        with pytest.raises(NoConvergence) as alone:
            fit_ppml(slow, log_costs)
        assert alone.value.iterations == 36
        separating = gravity_flows(n, 2.0, np.random.default_rng(58), 6.0)[0]
        with pytest.raises(Separation, match="exceeded"):
            fit_ppml(separating, log_costs)
        monkeypatch.setattr(gravity, "_MAX_ITER", 15)
        with pytest.raises(NoConvergence):
            fit_ppml(separating, log_costs)
        monkeypatch.setattr(gravity, "_MAX_ITER", 36)

        stack = [clean, slow, separating, noisy]
        fits = fit_ppml_many(stack, log_costs)
        assert [type(fit) for fit in fits] == [PpmlFit, NoConvergence, Separation, PpmlFit]
        assert fits[1].residual == alone.value.residual
        for flows, fit in zip(stack, fits):
            assert_same_outcome(fit_alone(flows, log_costs), fit)
        for flows, batched in zip((noisy, clean, noisy), fit_ppml_many([noisy, clean, noisy], log_costs)):
            assert_same_fit(fit_ppml(flows, log_costs), batched)

    def test_working_set_is_fixed(self):
        # A batch of warm-started draws that the stop rule ends at iteration
        # 3.  The IRLS holds seven (k, n, n) grids and the log costs; numpy's
        # 64 KiB iteration buffers add about two grids at this size, which is
        # below the 256 KiB at which numpy starts eliding temporaries, so
        # every temporary counts.  A loop that gathers, scatters or allocates whole
        # stacks per iteration peaks near 18 grids per fit here.
        world = armington_world(n=30, seed=3)
        _, observed = world.draw_world(np.random.default_rng(1))
        start = fit_ppml(observed, world.log_costs)
        rng = np.random.default_rng(2)
        draws = sample_flow_matrix(observed, world.params, [rng] * 8)[0]
        fit_ppml_many(draws, world.log_costs, start=start)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            fits = fit_ppml_many(draws, world.log_costs, start=start)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert {fit.iterations for fit in fits} == {3}
        assert peak / (8 * 30 * 30 * 8) < 12

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
        draws, _ = sample_flow_matrix(observed, world.params, [rng] * k)
        stack = np.stack([d.values for d in draws])
        fits = fit_ppml_many(matrices(stack), world.log_costs, start=start)
        for single, batched in zip(stack, fits):
            alone = fit_ppml_many([FlowMatrix(single)], world.log_costs, start=start)
            assert_same_fit(alone[0], batched)

    def test_collinear_costs(self):
        # Constant log costs fail every slice, each with the error it raises
        # alone.
        rng = np.random.default_rng(1)
        stack = [gravity_flows(5, 2.0, rng, noise_sd=0.1)[0] for _ in range(3)]
        log_costs = np.full((5, 5), 0.7)
        fits = fit_ppml_many(stack, log_costs)
        assert all(isinstance(fit, Collinear) for fit in fits)
        for flows, fit in zip(stack, fits):
            assert_same_outcome(fit_alone(flows, log_costs), fit)


class TestDyadicVariance:
    def test_matches_enumeration_small_n(self):
        for n, seed in ((3, 0), (4, 1)):
            rng = np.random.default_rng(seed)
            flows, log_costs = gravity_flows(n, 2.0, rng, noise_sd=0.6)
            fit = fit_ppml(flows, log_costs)
            scores, bread, oidx, didx = ppml_rebuild(fit, flows, log_costs)
            meat = dyadic_meat_enumeration(scores, oidx, didx)
            var_oracle = max(float((bread @ meat @ bread)[0, 0]), 0.0)
            assert abs(fit.variance - var_oracle) < 1e-12 * max(
                1.0, var_oracle
            )
            assert fit.variance >= 0.0
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
        assert abs(fit.variance - var_oracle) < 1e-12 * max(1.0, var_oracle)

    def test_zero_residuals_zero_variance(self):
        rng = np.random.default_rng(8)
        flows, log_costs = gravity_flows(6, 3.0, rng)
        fit = fit_ppml(flows, log_costs)
        assert fit.variance < 1e-12
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
            dyadic_avg += fit.variance / reps
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
        cases = [
            (no_exports, dist, InsufficientData, r"no positive flow for origins \['3'\]"),
            (unconnected, dist, InsufficientData, "24 dyads such as 0->3 have no identified"),
            (np.eye(7), dist, InsufficientData, "no positive off-diagonal flows"),
            (flows.values, DistanceMatrix(np.ones((3, 3))), DataError, "different sizes"),
        ]
        for values, distances, error, message in cases:
            with pytest.raises(error, match=message) as info:
                fit_log_gravity(FlowMatrix(values), distances)
            assert info.type is error

    def test_positive_flows_only(self):
        # Zeros are excluded, not log-transformed.
        flows, dist = self.exact_fit()
        values = np.array(flows.values)
        values[0, 1] = 0.0
        fit = fit_log_gravity(FlowMatrix(values), dist)
        assert np.isfinite(fit.beta_hat)
        assert fit.x_res.size == np.count_nonzero(values[~np.eye(7, dtype=bool)])


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

