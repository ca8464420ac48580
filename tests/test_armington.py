import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowuq import (
    CounterfactualSpec,
    DataError,
    EquilibriumResult,
    EstimatorResult,
    FlowMatrix,
    FlowUqError,
    InvalidElasticity,
    NoConvergence,
    UqConfig,
    ZeroDiagonal,
    derive_aggregates,
    run_algorithm1,
    sample_flow_matrix,
    solve_counterfactual,
    welfare_change_pct,
)
from flowuq import engine
from flowuq.armington import (
    _STAGE_STEPS,
    _TOL,
    ArmingtonModel,
    _defects,
    _share_changes,
    solve_counterfactual_many,
)
from flowuq.scenarios import armington_world

from .oracles import armington_oracle


def symmetric_world(n=4):
    return FlowMatrix(np.ones((n, n)))


def asymmetric_world():
    # Hand-chosen 3-country instance: asymmetric flows, balanced trade
    # (row sums equal column sums), so every deficit convention coincides.
    values = np.array(
        [
            [5.0, 1.0, 2.0],
            [2.0, 4.0, 2.0],
            [1.0, 3.0, 5.0],
        ]
    )
    return FlowMatrix(values, labels=("A", "B", "C"))


def unbalanced_world():
    values = np.array(
        [
            [5.0, 1.0, 2.0],
            [0.5, 4.0, 1.5],
            [1.0, 0.6, 6.0],
        ]
    )
    return FlowMatrix(values, labels=("A", "B", "C"))


def test_identity_counterfactual_exact():
    res = solve_counterfactual(
        symmetric_world(), CounterfactualSpec(np.ones((4, 4))), epsilon=2.0
    )
    assert np.array_equal(res.y_prop, np.ones(4))
    assert np.array_equal(res.welfare_prop, np.ones(4))
    assert np.array_equal(res.lambda_prop, np.ones((4, 4)))


def test_symmetric_increase_matches_oracle():
    flows = symmetric_world()
    spec = CounterfactualSpec.uniform_increase(4, 0.1)
    res = solve_counterfactual(flows, spec, epsilon=2.0)
    # All welfare changes equal by symmetry, and below one.
    assert np.max(np.abs(res.welfare_prop - res.welfare_prop[0])) < 1e-12
    assert np.all(res.welfare_prop < 1.0)
    _, _, w_oracle = armington_oracle(flows.values, spec.tau_prop, 2.0)
    assert np.max(np.abs(res.welfare_prop - w_oracle)) < 1e-10


def test_asymmetric_instance_matches_oracle():
    flows = asymmetric_world()
    tau = np.array(
        [
            [1.0, 1.2, 1.05],
            [1.3, 1.0, 0.9],
            [1.1, 1.25, 1.0],
        ]
    )
    spec = CounterfactualSpec(tau)
    res = solve_counterfactual(flows, spec, epsilon=3.5)
    y_o, lam_o, w_o = armington_oracle(flows.values, tau, 3.5)
    assert np.max(np.abs(res.welfare_prop - w_o)) < 1e-8
    assert np.max(np.abs(res.y_prop - y_o)) < 1e-8
    assert np.max(np.abs(res.lambda_prop - lam_o)) < 1e-8


def test_scale_invariance():
    for flows in (asymmetric_world(), unbalanced_world()):
        spec = CounterfactualSpec.uniform_increase(3, 0.1)
        res1 = solve_counterfactual(flows, spec, epsilon=4.0)
        res2 = solve_counterfactual(
            FlowMatrix(flows.values * 1e6, flows.labels), spec, epsilon=4.0
        )
        assert np.max(np.abs(res1.y_prop - res2.y_prop)) < 1e-9
        assert np.max(np.abs(res1.welfare_prop - res2.welfare_prop)) < 1e-9


def test_unbalanced_world_matches_oracle():
    flows = unbalanced_world()
    spec = CounterfactualSpec.uniform_increase(3, 0.1)
    res = solve_counterfactual(flows, spec, epsilon=4.0)
    y_o, _, w_o = armington_oracle(flows.values, spec.tau_prop, 4.0)
    assert np.max(np.abs(res.y_prop - y_o)) < 1e-8
    assert np.max(np.abs(res.welfare_prop - w_o)) < 1e-8


def test_share_reconstruction_and_residual():
    flows = asymmetric_world()
    spec = CounterfactualSpec.uniform_increase(3, 0.2)
    res = solve_counterfactual(flows, spec, epsilon=2.5)
    assert res.residual <= _TOL
    shares = derive_aggregates(flows).shares
    cols = (res.lambda_prop * shares).sum(axis=0)
    assert np.max(np.abs(cols - 1.0)) < 1e-8
    assert np.all(res.y_prop > 0)


def test_normalization_convention_cancels_when_balanced():
    # With balanced trade the system is homogeneous: every rescaling of a
    # solution still solves it and reproduces the same shares and welfare,
    # so the world-income normalization is a pure labelling choice.
    flows = asymmetric_world()  # balanced by construction
    spec = CounterfactualSpec.uniform_increase(3, 0.15)
    res = solve_counterfactual(flows, spec, epsilon=3.0)
    agg = derive_aggregates(flows)
    deficit = agg.expenditure - agg.income
    assert np.max(np.abs(deficit)) < 1e-12
    for c in (0.5, 2.0):
        log_y = np.log(c * res.y_prop)
        defect = _defects(
            np.log(spec.tau_prop), log_y, agg.shares, agg.income, deficit, 3.0
        )[0]
        assert np.max(np.abs(defect)) < 1e-8  # still a solution
        scaled = _share_changes(np.log(spec.tau_prop), log_y, agg.shares, 3.0)
        assert np.max(np.abs(scaled - res.lambda_prop)) < 1e-12


def test_monotone_sanity_uniform_increase():
    for n in (3, 5, 8):
        flows = symmetric_world(n)
        spec = CounterfactualSpec.uniform_increase(n, 0.1)
        res = solve_counterfactual(flows, spec, epsilon=4.0)
        assert np.all(res.welfare_prop <= 1.0)


def test_welfare_change_pct_values():
    flows = symmetric_world()
    res = solve_counterfactual(flows, CounterfactualSpec(np.ones((4, 4))), 2.0)
    assert np.allclose(welfare_change_pct(res), 0.0)
    # The percentage map is 100*(W-1): a welfare ratio of 0.9453 is -5.47%.
    assert np.isclose(100.0 * (0.9453 - 1.0), -5.47)
    assert np.isclose(100.0 * (1.1 - 1.0), 10.0)


def test_error_conditions():
    flows = symmetric_world()
    spec = CounterfactualSpec.uniform_increase(4, 0.1)
    with pytest.raises(InvalidElasticity):
        solve_counterfactual(flows, spec, epsilon=0.0)
    with pytest.raises(ZeroDiagonal):
        solve_counterfactual(
            FlowMatrix([[0.0, 1.0], [1.0, 1.0]]),
            CounterfactualSpec.uniform_increase(2, 0.1),
            2.0,
        )
    # Location 0 runs a trade surplus of 9.9 on an income of 11, so its
    # expenditure stays positive only while its income stays above 0.9 of
    # baseline; a fivefold cost on its exports leaves no such equilibrium.
    # Continuation solves part of the shock, and the error says how much.
    surplus = FlowMatrix([[1.0, 10.0], [0.1, 1.0]])
    tau = np.array([[1.0, 5.0], [1.0, 1.0]])
    with pytest.raises(NoConvergence) as info:
        solve_counterfactual(surplus, CounterfactualSpec(tau), epsilon=5.0)
    found = re.search(r"tau\^s up to s = (\S+) and failed at s = (\S+)\)", str(info.value))
    assert found, str(info.value)
    done, failed = float(found[1]), float(found[2])
    assert 0.0 < done < failed <= 1.0
    solve_counterfactual(surplus, CounterfactualSpec(tau**done), epsilon=5.0)
    assert info.value.iterations > 0 and info.value.residual > _TOL
    # Every stalled stage stopped at the positivity bound (no halved step
    # keeps the surplus location's expenditure positive); the last stage ran
    # out of steps.  The error says both.
    assert info.value.reason == "step cap after positivity bound"
    assert "stopped by step cap after positivity bound" in str(info.value)


def test_singular_newton_system_is_no_convergence(monkeypatch):
    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(NoConvergence, match="stopped by singular Newton system") as info:
        solve_counterfactual(
            unbalanced_world(), CounterfactualSpec.uniform_increase(3, 0.1), 2.0
        )
    assert info.value.reason == "singular Newton system"


def test_zero_off_diagonal_flows_propagate_benignly():
    values = np.array([[3.0, 0.0, 1.0], [1.0, 3.0, 0.0], [0.0, 1.0, 3.0]])
    spec = CounterfactualSpec.uniform_increase(3, 0.1)
    res = solve_counterfactual(FlowMatrix(values), spec, epsilon=2.0)
    y_o, _, w_o = armington_oracle(values, spec.tau_prop, 2.0)
    assert np.max(np.abs(res.welfare_prop - w_o)) < 1e-8


def test_large_shock_solved_through_continuation():
    # Newton from y = 1 stalls on this shock: the line search cannot reduce
    # the defects.  The solver reaches it through smaller shocks tau^s.
    values = np.array([[33.0, 0.27, 0.03], [3.4, 3.8, 3.5], [0.0, 0.0, 5.8]])
    tau = np.array([[1.0, 1.0, 1.1], [0.96, 1.0, 2.0], [1.8, 1.3, 1.0]])
    res = solve_counterfactual(FlowMatrix(values), CounterfactualSpec(tau), 10.0)
    y_o, _, w_o = armington_oracle(values, tau, 10.0)
    assert np.max(np.abs(res.y_prop - y_o)) < 1e-8
    assert np.max(np.abs(res.welfare_prop - w_o)) < 1e-8


def test_slow_newton_stage_narrows_the_shock():
    # Location 1 exports nothing, so after the shock location 0 must regain
    # its export level through a large relative income change.  Newton from
    # y = 1 makes slow progress and used to spend all 100 steps on the full
    # shock; a stage now gets _STAGE_STEPS steps before continuation narrows
    # it, and the half shock solves in five.  (The random-world property test
    # below found this world: n=2, seed=500, epsilon=9.0, zero_frac=0.5.)
    values = np.array([[3.96607921, 0.42001585], [0.0, 3.95696025]])
    tau = np.array([[1.0, 1.41756127], [1.14561936, 1.0]])
    res = solve_counterfactual(FlowMatrix(values), CounterfactualSpec(tau), 9.0)
    y_o, _, w_o = armington_oracle(values, tau, 9.0)
    assert np.max(np.abs(res.y_prop - y_o)) < 1e-8
    assert np.max(np.abs(res.welfare_prop - w_o)) < 1e-8
    assert res.iterations > _STAGE_STEPS


@pytest.mark.parametrize("n", [10, 30, 60, 100])
def test_gravity_world_matches_oracle(n):
    world = armington_world(n=n)
    _, observed = world.draw_world(np.random.default_rng(0))
    res = solve_counterfactual(observed, world.cf_spec, world.epsilon)
    y_o, _, w_o = armington_oracle(observed.values, world.cf_spec.tau_prop, world.epsilon)
    assert res.residual <= _TOL
    assert np.max(np.abs(res.y_prop - y_o)) < 1e-8
    assert np.max(np.abs(res.welfare_prop - w_o)) < 1e-8


def random_unbalanced_world(rng, n, zero_frac):
    """Lognormal flows with up to ``zero_frac`` of them zero, larger own
    flows, and cost changes between 0.7 and 1.5."""
    values = np.exp(rng.normal(0.0, 1.0, (n, n)))
    values[rng.random((n, n)) < zero_frac] = 0.0
    np.fill_diagonal(values, np.exp(rng.normal(2.0, 0.5, n)))
    tau = rng.uniform(0.7, 1.5, (n, n))
    np.fill_diagonal(tau, 1.0)
    return values, tau


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 80),
    seed=st.integers(0, 2**32 - 1),
    epsilon=st.floats(0.5, 15.0),
    zero_frac=st.floats(0.0, 0.5),
)
def test_random_unbalanced_worlds_solve(n, seed, epsilon, zero_frac):
    values, tau = random_unbalanced_world(np.random.default_rng(seed), n, zero_frac)
    res = solve_counterfactual(FlowMatrix(values), CounterfactualSpec(tau), epsilon)
    _, _, w_o = armington_oracle(values, tau, epsilon)
    assert np.max(np.abs(res.welfare_prop - w_o)) < 1e-8


def test_bootstrap_at_n80_has_no_failed_draws():
    world = armington_world(n=80)
    _, observed = world.draw_world(np.random.default_rng(0))
    estimate = EstimatorResult(theta_hat=[5.0], sigma_hat=[[0.2**2]])
    cfg = UqConfig(b=40, alpha=0.05, seed=0, mode="ee+me", max_failure_fraction=0.99)
    draws, _ = run_algorithm1(
        observed, world.params, estimate, ArmingtonModel(), world.cf_spec, cfg
    )
    assert draws.draws_failed == 0


def solve_alone(values, tau, epsilon):
    """``solve_counterfactual`` on one matrix: its result or its error."""
    try:
        return solve_counterfactual(FlowMatrix(values), CounterfactualSpec(tau), epsilon)
    except FlowUqError as exc:
        return exc


def assert_same_outcome(single, batched):
    """A slice of a batched solve equals the solve of that slice alone, bit
    for bit: the same result, or an error of the same class and message."""
    if isinstance(single, FlowUqError):
        assert type(batched) is type(single)
        assert str(batched) == str(single)
        return
    assert isinstance(batched, EquilibriumResult), batched
    for field in ("y_prop", "lambda_prop", "welfare_prop"):
        assert np.array_equal(getattr(single, field), getattr(batched, field)), field
    assert (single.residual, single.iterations) == (batched.residual, batched.iterations)


def autarkic_world():
    # Location 0 trades with no one else, which makes the Newton system of
    # the counterfactual singular.
    return np.array([[7.0, 0.0, 0.0], [0.0, 4.0, 3.5], [0.0, 1.0, 3.0]])


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 12),
    k=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    shock=st.sampled_from([1.0, 3.0, 6.0]),
    data=st.data(),
)
def test_many_matches_single_solves(n, k, seed, shock, data):
    # Worlds from the generator above on one cost change, raised to a power
    # so that larger shocks need continuation or fail; some slices get an
    # invalid elasticity, a zero own flow or an autarkic location.
    rng = np.random.default_rng(seed)
    tau = random_unbalanced_world(rng, n, 0.0)[1] ** shock
    stack, epsilons = [], []
    for _ in range(k):
        values = random_unbalanced_world(rng, n, rng.uniform(0.0, 0.5))[0]
        kind = data.draw(st.sampled_from(["plain"] * 4 + ["epsilon", "diagonal", "autarky"]))
        epsilon = rng.uniform(0.5, 15.0)
        if kind == "epsilon":
            epsilon = -epsilon
        elif kind == "diagonal":
            values[n - 1, n - 1] = 0.0
        elif kind == "autarky":
            values[0, 1:] = values[1:, 0] = 0.0
        stack.append(values)
        epsilons.append(epsilon)
    batched = solve_counterfactual_many(np.stack(stack), CounterfactualSpec(tau), epsilons)
    assert len(batched) == k
    for values, epsilon, result in zip(stack, epsilons, batched):
        assert_same_outcome(solve_alone(values, tau, epsilon), result)


def test_many_runs_each_slice_through_its_own_stages():
    # The large-shock world needs continuation, and the surplus world
    # fails after it; in a stack with worlds that solve directly, every slice
    # gets what it gets alone.
    large = np.array([[33.0, 0.27, 0.03], [3.4, 3.8, 3.5], [0.0, 0.0, 5.8]])
    tau = np.array([[1.0, 1.0, 1.1], [0.96, 1.0, 2.0], [1.8, 1.3, 1.0]])
    stack = [asymmetric_world().values, large, unbalanced_world().values, large, autarkic_world()]
    epsilons = [3.5, 10.0, 4.0, 0.0, 10.0]
    results = solve_counterfactual_many(np.stack(stack), CounterfactualSpec(tau), epsilons)
    for values, epsilon, result in zip(stack, epsilons, results):
        assert_same_outcome(solve_alone(values, tau, epsilon), result)
    assert isinstance(results[1], EquilibriumResult)
    assert isinstance(results[3], InvalidElasticity)
    assert results[4].reason == "singular Newton system"

    surplus = np.array([[1.0, 10.0], [0.1, 1.0]])
    tau = np.array([[1.0, 5.0], [1.0, 1.0]])
    stack = [np.ones((2, 2)), surplus, np.array([[2.0, 1.0], [0.5, 3.0]])]
    results = solve_counterfactual_many(np.stack(stack), CounterfactualSpec(tau), [5.0] * 3)
    for values, result in zip(stack, results):
        assert_same_outcome(solve_alone(values, tau, 5.0), result)
    assert results[1].reason == "step cap after positivity bound"
    assert isinstance(results[0], EquilibriumResult)
    assert isinstance(results[2], EquilibriumResult)


def test_many_checks_each_slice_as_it_is_checked_alone():
    # Aggregates come from the whole stack at once; every slice that fails a
    # check of the solo path gets the solo error, and the rest still solve.
    spec = CounterfactualSpec.uniform_increase(3, 0.1)
    good = asymmetric_world().values
    nan, negative, no_income = good.copy(), good.copy(), good.copy()
    nan[0, 1] = np.nan
    negative[1, 2] = -1.0
    no_income[2] = 0.0
    stack = [good, nan, negative, good, no_income, good, good]
    epsilons = [4.0, 4.0, 4.0, 0.0, 4.0, np.nan, 2.5]
    results = solve_counterfactual_many(np.stack(stack), spec, epsilons)
    for values, epsilon, result in zip(stack, epsilons, results):
        assert_same_outcome(solve_alone(values, spec.tau_prop, epsilon), result)
    assert [type(r).__name__ for r in results[:5]] == [
        "EquilibriumResult", "DataError", "DataError", "InvalidElasticity", "ZeroMarginal"
    ]
    assert isinstance(results[6], EquilibriumResult)
    for result in solve_counterfactual_many(
        np.stack([good, good]), spec, [4.0, 4.0], labels=("A", "A", "B")
    ):
        assert isinstance(result, DataError) and "unique" in str(result)


def test_many_matches_single_solves_at_the_draw_loop_batch_n100():
    # The draw loop's batches hold more than one draw at n = 100; such a
    # batch of posterior draws, each with its own elasticity, solves as each
    # slice solves alone, bit for bit.
    k = engine._batch_size(100)
    assert k > 1
    world = armington_world(n=100, seed=3)
    _, observed = world.draw_world(np.random.default_rng(1))
    rng = np.random.default_rng(2)
    stack = [sample_flow_matrix(observed, world.params, rng)[0].values for _ in range(k)]
    epsilons = rng.uniform(3.0, 7.0, k)
    tau = world.cf_spec.tau_prop
    results = solve_counterfactual_many(np.stack(stack), world.cf_spec, epsilons)
    for values, epsilon, result in zip(stack, epsilons, results):
        assert isinstance(result, EquilibriumResult), result
        assert_same_outcome(solve_alone(values, tau, epsilon), result)


def test_singular_newton_system_fails_its_slice_alone(monkeypatch):
    # The autarkic slice makes the stacked Newton solve raise; the stack is
    # then solved slice by slice, and only that slice fails.
    solve, stacked_raises = np.linalg.solve, []

    def spy(a, b):
        try:
            return solve(a, b)
        except np.linalg.LinAlgError:
            stacked_raises.append(a.ndim == 3 and len(a) > 1)
            raise

    monkeypatch.setattr(np.linalg, "solve", spy)
    spec = CounterfactualSpec.uniform_increase(3, 0.1)
    stack = [asymmetric_world().values, unbalanced_world().values, autarkic_world(), np.ones((3, 3))]
    results = solve_counterfactual_many(np.stack(stack), spec, [4.0, 2.5, 4.0, 3.0])
    assert any(stacked_raises)
    assert [isinstance(r, FlowUqError) for r in results] == [False, False, True, False]
    assert results[2].reason == "singular Newton system"
    for values, epsilon, result in zip(stack, [4.0, 2.5, 4.0, 3.0], results):
        assert_same_outcome(solve_alone(values, spec.tau_prop, epsilon), result)


def test_model_many_matches_calls():
    spec = CounterfactualSpec.uniform_increase(3, 0.1)
    flows = [asymmetric_world(), FlowMatrix(autarkic_world(), ("A", "B", "C")), unbalanced_world()]
    thetas = [np.array([4.0]), np.array([4.0]), np.array([-1.0])]
    outcomes = ArmingtonModel().many(flows, thetas, spec)
    assert np.array_equal(outcomes[0], ArmingtonModel()(flows[0], thetas[0], spec))
    for f, theta, out in zip(flows[1:], thetas[1:], outcomes[1:]):
        with pytest.raises(type(out), match=re.escape(str(out))):
            ArmingtonModel()(f, theta, spec)
    assert ArmingtonModel().many([], [], spec) == []
