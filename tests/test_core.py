import re

import numpy as np
import pytest

from flowuq import (
    CounterfactualSpec,
    DataError,
    DrawSet,
    EstimatorResult,
    FlowMatrix,
    IdentityModel,
    InvalidElasticity,
    ModelEvaluationFailed,
    NotPSD,
    evaluate_model,
)
from flowuq.armington import ArmingtonModel
from flowuq.calibration import MirrorPanel
from flowuq.core import CalibratedParams, DistanceMatrix, evaluate_model_many, solve_stack
from flowuq.intervals import Interval


def test_flow_matrix_validation():
    with pytest.raises(DataError):
        FlowMatrix([[1.0, 2.0]])  # not square
    with pytest.raises(DataError):
        FlowMatrix([[1.0, -1.0], [0.0, 1.0]])
    with pytest.raises(DataError):
        FlowMatrix([[np.inf, 1.0], [0.0, 1.0]])
    with pytest.raises(DataError):
        FlowMatrix([[1.0, np.nan], [0.0, 1.0]])


_ZEROS = np.zeros((3, 3))
# Each labelled type, built over 3 locations (or 3 outcomes) with the given labels.
_LABELLED = {
    "FlowMatrix": lambda labels: FlowMatrix(np.ones((3, 3)), labels),
    "DistanceMatrix": lambda labels: DistanceMatrix(np.ones((3, 3)), labels),
    "CalibratedParams": lambda labels: CalibratedParams(
        p=_ZEROS, b=_ZEROS, mu=_ZEROS, s2=_ZEROS, sigma2=_ZEROS, labels=labels
    ),
    "DrawSet": lambda labels: DrawSet(draws=np.ones((2, 3)), labels=labels),
    "MirrorPanel": lambda labels: MirrorPanel(
        np.ones((1, 3, 3)), np.ones((1, 3, 3)), labels, periods=(2000,)
    ),
}


@pytest.mark.parametrize("build", _LABELLED.values(), ids=_LABELLED.keys())
def test_every_labelled_type_has_one_label_rule(build):
    assert build(()).labels == ("0", "1", "2")
    assert build(["a", "b", "c"]).labels == ("a", "b", "c")
    with pytest.raises(DataError, match=r"labels must be unique; repeated: \['a'\]"):
        build(("a", "b", "a"))
    with pytest.raises(DataError, match="expected 3 labels, got 2"):
        build(("a", "b"))


def _params(**fields):
    return CalibratedParams(**{"p": _ZEROS, "b": _ZEROS, "mu": _ZEROS, "s2": _ZEROS,
                               "sigma2": _ZEROS, **fields})


_ONES = np.ones((1, 3, 3))
# Each value type built from input that breaks one of its rules, and the
# DataError it raises.
_REFUSED = {
    "distance-not-positive": (lambda: DistanceMatrix([[1.0, 0.0], [2.0, 1.0]]),
                              "off-diagonal distances must be strictly positive"),
    "theta-not-a-vector": (lambda: EstimatorResult(theta_hat=np.ones((2, 2)), sigma_hat=np.eye(2)),
                           "theta_hat must be a vector"),
    "sigma-shape": (lambda: EstimatorResult(theta_hat=[1.0, 2.0], sigma_hat=np.eye(3)),
                    "sigma_hat must be 2x2, got (3, 3)"),
    "theta-not-finite": (lambda: EstimatorResult(theta_hat=[np.nan], sigma_hat=[[1.0]]),
                         "estimator result contains non-finite entries"),
    "field-shape": (lambda: _params(s2=np.zeros((2, 2))), "s2 must be 3x3"),
    "mu-shape": (lambda: _params(mu=np.zeros((3, 2))), "mu must be (n, n) or (T, n, n)"),
    "mu-periods": (lambda: _params(mu=np.zeros((2, 3, 3)), periods=(2000,)),
                   "per-period mu requires matching periods"),
    "periods-without-per-period-mu": (lambda: _params(periods=(2000,)),
                                      "periods go only with a (T, n, n) mu"),
    "unknown-period": (
        lambda: _params(mu=np.zeros((2, 3, 3)), periods=(2000, 2001)).for_period(1999),
        "period 1999 not in calibrated periods",
    ),
    "no-draws": (lambda: DrawSet(draws=np.empty((0, 2))),
                 "a draw set must contain at least one draw"),
    "panel-shapes": (lambda: MirrorPanel(_ONES, np.ones((1, 2, 2)), (), (2000,)),
                     "reports must be matching (T, n, n) arrays"),
    "panel-no-period": (lambda: MirrorPanel(_ONES[:0], _ONES[:0], (), ()),
                        "a mirror panel needs at least one period"),
    "panel-periods": (lambda: MirrorPanel(_ONES, _ONES, (), (2000, 2001)),
                      "periods do not match the report arrays"),
    "panel-negative": (lambda: MirrorPanel(_ONES, -_ONES, (), (2000,)),
                       "report2 contains negative flows"),
    "panel-no-double-positive": (lambda: MirrorPanel(_ONES, 0 * _ONES, (), (2000,)),
                                 "panel has no dyad-period with two positive reports"),
    "interval-order": (lambda: Interval(lo=1.0, hi=0.5), "interval endpoints out of order"),
}


@pytest.mark.parametrize("build, message", _REFUSED.values(), ids=_REFUSED.keys())
def test_value_types_refuse_input_that_breaks_their_rules(build, message):
    with pytest.raises(DataError, match=re.escape(message)) as info:
        build()
    assert info.type is DataError


def test_flow_matrix_immutable():
    fm = FlowMatrix(np.ones((2, 2)))
    with pytest.raises(ValueError):
        fm.values[0, 0] = 5.0


def test_estimator_result_validation():
    est = EstimatorResult(theta_hat=[2.26], sigma_hat=[[0.52**2]])
    assert est.dim == 1
    with pytest.raises(NotPSD):
        EstimatorResult(theta_hat=[0.0, 0.0], sigma_hat=[[1.0, 0.0], [0.5, 1.0]])
    with pytest.raises(NotPSD):
        EstimatorResult(theta_hat=[0.0, 0.0], sigma_hat=[[1.0, 2.0], [2.0, 1.0]])


class TestEstimatorResultDraws:
    def test_degenerate_variance(self):
        est = EstimatorResult(theta_hat=[2.26], sigma_hat=[[0.0]])
        rng = np.random.default_rng(0)
        assert est.draws(rng, 1)[0] == pytest.approx(2.26)

    def test_moments_match_paper_scale_estimate(self):
        est = EstimatorResult(theta_hat=[2.26], sigma_hat=[[0.52**2]])
        rng = np.random.default_rng(123)
        draws = np.array([est.draws(rng, 1)[0, 0] for _ in range(100_000)])
        assert abs(draws.mean() - 2.26) < 0.01
        assert abs(draws.std() - 0.52) < 0.01

    def test_seed_determinism(self):
        est = EstimatorResult(theta_hat=[1.0, 2.0], sigma_hat=np.eye(2) * 0.25)
        a = [est.draws(np.random.default_rng(42), 1)[0] for _ in range(3)]
        b = [est.draws(np.random.default_rng(42), 1)[0] for _ in range(3)]
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_k_draws_are_k_single_draws(self):
        # One call for k draws takes the normals of k calls for one, and
        # each row is its own product with the factor: bit for bit the same.
        est = EstimatorResult(theta_hat=[2.0, -1.0], sigma_hat=[[0.1, 0.02], [0.02, 0.3]])
        many = est.draws(np.random.default_rng(7), 25)
        rng = np.random.default_rng(7)
        one_by_one = np.array([est.draws(rng, 1)[0] for _ in range(25)])
        assert many.shape == (25, 2)
        assert np.array_equal(many, one_by_one)
        assert not np.array_equal(many[0], many[1])
        zero = EstimatorResult(theta_hat=[2.0, -1.0], sigma_hat=np.zeros((2, 2)))
        assert np.array_equal(zero.draws(np.random.default_rng(7), 3), [[2.0, -1.0]] * 3)

    def test_factor_of_a_singular_variance(self):
        # A singular sigma_hat has no Cholesky factor; its eigen-factor
        # reproduces it, and draws stay on its range.
        sigma = np.array([[1.0, 1.0], [1.0, 1.0]])
        est = EstimatorResult(theta_hat=[0.0, 0.0], sigma_hat=sigma)
        assert np.allclose(est.factor @ est.factor.T, sigma)
        draws = est.draws(np.random.default_rng(0), 10)
        assert np.allclose(draws[:, 0], draws[:, 1])


def test_counterfactual_spec_validation():
    with pytest.raises(DataError):
        CounterfactualSpec(np.zeros((2, 2)))
    own = np.ones((2, 2))
    own[1, 1] = 1.1
    with pytest.raises(DataError, match="own trade costs are fixed at 1; diagonal must be 1"):
        CounterfactualSpec(own)
    spec = CounterfactualSpec.uniform_increase(3, 0.1)
    assert np.allclose(np.diag(spec.tau_prop), 1.0)
    assert np.allclose(spec.tau_prop[0, 1], 1.1)


def test_evaluate_model_identity():
    fm = FlowMatrix(np.ones((2, 2)))
    spec = CounterfactualSpec(np.ones((2, 2)))
    out = evaluate_model(IdentityModel(), fm, np.array([3.0, 4.0]), spec)
    assert np.allclose(out, [3.0, 4.0])


def test_evaluate_model_no_change_counterfactual():
    fm = FlowMatrix(np.ones((4, 4)))
    spec = CounterfactualSpec(np.ones((4, 4)))
    out = evaluate_model(ArmingtonModel(), fm, np.array([2.0]), spec)
    assert np.max(np.abs(out)) < 1e-12


def test_evaluate_model_wraps_failures():
    fm = FlowMatrix(np.ones((2, 2)))
    spec = CounterfactualSpec(np.ones((2, 2)))

    def bad_model(flows, theta, cf):
        return np.array([np.nan])

    with pytest.raises(ModelEvaluationFailed):
        evaluate_model(bad_model, fm, np.array([1.0]), spec)
    # Elasticity <= 0 is a model error surfaced as a structured failure.
    with pytest.raises(ModelEvaluationFailed) as info:
        evaluate_model(ArmingtonModel(), fm, np.array([-1.0]), spec)
    assert "InvalidElasticity" in str(info.value)


def test_evaluate_model_many_checks_every_pair():
    # Through ``many`` and call by call, each pair gets what evaluate_model
    # gives it, with failures in place of outcomes.
    spec = CounterfactualSpec(np.ones((2, 2)))
    flows = [FlowMatrix(np.ones((2, 2)))] * 3
    thetas = [np.array([1.0]), np.array([np.nan]), np.array([-1.0])]

    class Batched:
        def __call__(self, flows, theta, cf_spec):
            if theta[0] < 0:
                raise InvalidElasticity("negative")
            return theta

        def many(self, flows_seq, thetas, cf_spec):
            return [
                InvalidElasticity("negative") if t[0] < 0 else t for t in thetas
            ]

    class CallsOnly:
        def __call__(self, flows, theta, cf_spec):
            return Batched()(flows, theta, cf_spec)

    for model in (Batched(), CallsOnly()):
        first, nan, negative = evaluate_model_many(model, flows, thetas, spec)
        assert np.array_equal(first, [1.0])
        assert isinstance(nan, ModelEvaluationFailed)
        assert isinstance(negative, ModelEvaluationFailed)
        assert str(negative) == "InvalidElasticity: negative"
        assert isinstance(negative.__cause__, InvalidElasticity)


def test_solve_stack_singular_system_fails_alone():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 3, 3))
    a[2] = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]]
    b = rng.normal(size=(4, 3, 2))
    x, singular = solve_stack(a, b)
    assert singular.tolist() == [False, False, True, False]
    assert np.isnan(x[2]).all()
    for j in (0, 1, 3):
        assert np.array_equal(x[j], np.linalg.solve(a[j], b[j]))
        assert np.array_equal(x[j], np.linalg.solve(a[j : j + 1], b[j : j + 1])[0])
    x, singular = solve_stack(a[[0, 1, 3]], b[[0, 1, 3]])
    assert not singular.any()


def test_model_determinism():
    rng = np.random.default_rng(3)
    fm = FlowMatrix(rng.uniform(0.5, 2.0, size=(5, 5)))
    spec = CounterfactualSpec.uniform_increase(5, 0.1)
    model = ArmingtonModel()
    a = evaluate_model(model, fm, np.array([3.0]), spec)
    b = evaluate_model(model, fm, np.array([3.0]), spec)
    assert np.array_equal(a, b)


def test_drawset_accounting():
    ds = DrawSet(draws=np.arange(8.0), draws_failed=2)
    assert ds.draws_used == 8
    assert ds.draws.shape[1] == 1
    with pytest.raises(DataError):
        DrawSet(draws=np.array([1.0, np.nan]))
