import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowuq import (
    DataError,
    DistanceMatrix,
    FlowMatrix,
    InsufficientData,
    MirrorPanel,
    ParseError,
    calibrate_baseline,
    calibrate_mirror,
    estimate_me_variance,
    estimate_prior_means,
    estimate_prior_variances,
    estimate_zero_probs,
    fit_log_gravity,
    ingest_mirror_csv,
    posterior_log_variance,
    sample_flow_matrix,
    shrink_variances,
    shrinkage_weight,
    spike_weight,
)
from flowuq.calibration import CalibratedParams, resolve_missing

from .oracles import posterior_grid_oracle, simulate_mirror_zeros, twoway_design


def panel_from_reports(r1, r2, periods=None):
    r1 = np.asarray(r1, dtype=float)
    t, n, _ = r1.shape
    return MirrorPanel(
        report1=r1,
        report2=np.asarray(r2, dtype=float),
        labels=tuple(f"C{i}" for i in range(n)),
        periods=tuple(periods) if periods else tuple(range(t)),
    )


def constant_params(n, p=0.0, b=0.0, mu=0.5, s2=0.1, sigma2=0.05):
    """The same prior and measurement-error parameters on every off-diagonal
    dyad; the diagonal is held fixed."""
    off = ~np.eye(n, dtype=bool)
    return CalibratedParams(
        p=np.where(off, p, 0.0),
        b=np.where(off, b, 0.0),
        mu=np.where(off, mu, np.nan),
        s2=np.where(off, s2, 0.0),
        sigma2=np.where(off, sigma2, 0.0),
    )


_PANEL = panel_from_reports(np.ones((2, 3, 3)), np.ones((2, 3, 3)))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda rng: sample_flow_matrix(
            FlowMatrix(np.ones((3, 3))),
            replace(constant_params(3), mu=np.zeros((2, 3, 3)), periods=(2000, 2001)),
            [rng],
        ), "slice per-period parameters with for_period() first"),
        (lambda rng: sample_flow_matrix(FlowMatrix(np.ones((2, 2))), constant_params(3), [rng]),
         "params and flows cover different locations"),
        # b = 1 makes every observed zero a slab draw, which needs a mean.
        (lambda rng: sample_flow_matrix(
            FlowMatrix(np.eye(2)), constant_params(2, b=1.0, mu=np.nan), [rng]
        ), "slab draw needs a finite prior mean"),
        (lambda rng: estimate_prior_means(_PANEL, DistanceMatrix(np.ones((2, 2)))),
         "distance matrix size does not match the panel"),
        (lambda rng: estimate_prior_variances(_PANEL, np.zeros((3, 3)), np.zeros((3, 3))),
         "mu must be the (T, n, n) prior-mean array"),
    ],
    ids=["per-period", "size", "slab-without-mean", "distance-size", "mu-shape"],
)
def test_calibration_steps_refuse_inputs_that_do_not_fit(call, message):
    with pytest.raises(DataError, match=re.escape(message)) as info:
        call(np.random.default_rng(0))
    assert info.type is DataError


def off_diagonal_draws(f_obs, params, seed):
    """Off-diagonal entries of one posterior draw of a matrix whose every
    entry is observed as ``f_obs``."""
    n = params.n
    (draw,), _ = sample_flow_matrix(
        FlowMatrix(np.full((n, n), f_obs)), params, [np.random.default_rng(seed)]
    )
    return draw.values[~np.eye(n, dtype=bool)]


def reference_draw(flows_obs, params, rng):
    """One posterior draw, dyad group by dyad group, from n * n normals and
    then n * n uniforms of ``rng``: the reference for the sampler's streams."""
    f, n = flows_obs.values, flows_obs.n
    z, u = rng.standard_normal((n, n)), rng.random((n, n))
    s2, sigma2, mu = params.effective_s2(), params.effective_sigma2(), params.mu
    out = np.zeros((n, n))
    pos = f > 0
    exact_obs = pos & (sigma2 == 0)
    exact_prior = pos & (s2 == 0) & ~exact_obs
    generic = pos & ~exact_obs & ~exact_prior
    w = shrinkage_weight(s2[generic], sigma2[generic])
    mean = w * np.log(f[generic]) + (1.0 - w) * mu[generic]
    sd = np.sqrt(posterior_log_variance(s2[generic], sigma2[generic]))
    out[generic] = np.exp(mean + sd * z[generic])
    out[exact_obs] = f[exact_obs]
    out[exact_prior] = np.exp(mu[exact_prior])
    zero = ~pos
    hold = zero & (sigma2 == 0)
    degenerate = zero & ~hold & (params.p == 0) & (params.b == 0)
    slab = zero & ~hold & ~degenerate
    slab[slab] = ~(u[slab] < spike_weight(params.p[slab], params.b[slab]))
    out[slab] = np.exp(mu[slab] + np.sqrt(s2[slab]) * z[slab])
    return out


def mixed_params_and_flows(n=7, seed=11):
    """Parameters and observed flows that reach every branch of the sampler:
    positive flows with sigma2 = 0 (kept), with s2 = 0 (the prior mean) and
    with both variances positive; zeros held by sigma2 = 0, degenerate zeros
    (p = b = 0) and spike-or-slab zeros with p, b > 0; NaN means where no
    draw reads them."""
    rng = np.random.default_rng(seed)
    values = np.exp(rng.normal(0.0, 1.0, (n, n))) * (rng.random((n, n)) >= 0.35)
    p = rng.uniform(0.05, 0.6, (n, n)) * (rng.random((n, n)) >= 0.2)
    b = rng.uniform(0.05, 0.4, (n, n)) * (rng.random((n, n)) >= 0.2)
    s2 = rng.uniform(0.05, 0.5, (n, n)) * (rng.random((n, n)) >= 0.15)
    sigma2 = rng.uniform(0.05, 0.5, (n, n)) * (rng.random((n, n)) >= 0.15)
    mu = rng.normal(0.0, 1.0, (n, n))
    values[0, 1], p[0, 1], b[0, 1], sigma2[0, 1] = 0.0, 0.0, 0.0, 0.2  # degenerate
    values[0, 2], sigma2[0, 2] = 0.0, 0.0  # held
    values[0, 3], p[0, 3], b[0, 3], sigma2[0, 3] = 0.0, 0.3, 0.2, 0.2  # spike or slab
    values[1, 0], sigma2[1, 0] = 2.0, 0.0  # kept
    values[1, 2], s2[1, 2], sigma2[1, 2] = 2.0, 0.0, 0.2  # the prior mean
    values[1, 3], s2[1, 3], sigma2[1, 3] = 2.0, 0.2, 0.2  # the conjugate update
    mu[np.eye(n, dtype=bool)] = np.nan
    sigma2[np.eye(n, dtype=bool)] = 0.0
    values[np.eye(n, dtype=bool)] = 1.0
    return CalibratedParams(p=p, b=b, mu=mu, s2=s2, sigma2=sigma2), FlowMatrix(values)


class TestPosteriorDraw:
    # A 317 x 317 matrix has 100,172 off-diagonal dyads: one call draws them.
    N_LARGE = 317

    def test_shrinkage_anchor(self):
        # s2 = 0.101, sigma2 = 0.05: weight on the observation is 0.669,
        # on the prior 0.331, and the posterior log variance is 0.033.
        w = shrinkage_weight(0.101, 0.05)
        assert abs(w - 0.669) < 5e-4
        assert abs((1 - w) - 0.331) < 5e-4
        assert abs(posterior_log_variance(0.101, 0.05) - 0.033) < 5e-4

    def test_formulas_take_arrays(self):
        s2 = np.array([[0.101, 0.0], [1e-14, 2.0]])
        sigma2 = np.array([[0.05, 0.3], [0.0, 2.0]])
        p = np.array([[0.3, 0.0], [0.0, 1.0]])
        b = np.array([[0.2, 0.0], [0.4, 0.0]])
        w = shrinkage_weight(s2, sigma2)
        var = posterior_log_variance(s2, sigma2)
        q = spike_weight(p, b)
        assert w.shape == var.shape == q.shape == (2, 2)
        for i in range(2):
            for j in range(2):
                assert w[i, j] == shrinkage_weight(s2[i, j], sigma2[i, j])
                assert var[i, j] == posterior_log_variance(s2[i, j], sigma2[i, j])
                assert q[i, j] == spike_weight(p[i, j], b[i, j])
        assert q[0, 1] == 1.0  # p = b = 0 resolves as a true zero
        assert q[1, 0] == 0.0

    def test_tiny_measurement_error_concentrates(self):
        params = constant_params(15, mu=0.0, s2=0.2, sigma2=1e-12)
        draws = off_diagonal_draws(2.0, params, seed=1)
        assert np.max(np.abs(draws - 2.0)) < 1e-4

    def test_quadrature_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            f_obs = float(np.exp(rng.normal(1.0, 1.0)))
            mu = float(rng.normal(0.0, 1.0))
            s2 = float(rng.uniform(0.02, 0.5))
            sigma2 = float(rng.uniform(0.02, 0.5))
            mean_o, var_o = posterior_grid_oracle(f_obs, mu, s2, sigma2)
            w = shrinkage_weight(s2, sigma2)
            mean_c = w * np.log(f_obs) + (1 - w) * mu
            var_c = posterior_log_variance(s2, sigma2)
            assert abs(mean_c - mean_o) < 1e-4
            assert abs(var_c - var_o) < 1e-4

    def test_conjugacy_moments(self):
        # Log draws are exactly normal with the closed-form moments; check
        # by z-test at five sigma over about 1e5 dyads.
        f_obs, mu, s2, sigma2 = 3.0, 0.4, 0.15, 0.08
        params = constant_params(self.N_LARGE, mu=mu, s2=s2, sigma2=sigma2)
        draws = np.log(off_diagonal_draws(f_obs, params, seed=3))
        n = draws.size
        w = shrinkage_weight(s2, sigma2)
        mean_c = w * np.log(f_obs) + (1 - w) * mu
        var_c = posterior_log_variance(s2, sigma2)
        z_mean = (draws.mean() - mean_c) / np.sqrt(var_c / n)
        assert abs(z_mean) < 5.0
        # variance of the sample variance of a normal: 2 var^2 / n
        z_var = (draws.var() - var_c) / np.sqrt(2.0 * var_c**2 / n)
        assert abs(z_var) < 5.0

    @settings(max_examples=80, deadline=None)
    @given(
        st.floats(min_value=1e-10, max_value=10.0),
        st.floats(min_value=1e-10, max_value=10.0),
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=0.05, max_value=20.0),
    )
    def test_shrinkage_direction(self, s2, sigma2, mu, f_obs):
        # Posterior log-mean is a convex combination of log f and mu.
        w = shrinkage_weight(s2, sigma2)
        assert 0.0 <= w <= 1.0
        m = w * np.log(f_obs) + (1 - w) * mu
        lo, hi = min(np.log(f_obs), mu), max(np.log(f_obs), mu)
        assert lo - 1e-12 <= m <= hi + 1e-12
        assert posterior_log_variance(s2, sigma2) <= min(s2, sigma2) + 1e-12

    def test_spike_weight_frequency(self):
        # p = 0.3, b = 0.2: spike weight 0.3/(0.3 + 0.2*0.7) = 0.682.
        q = spike_weight(0.3, 0.2)
        assert abs(q - 0.68181818) < 1e-8
        params = constant_params(self.N_LARGE, p=0.3, b=0.2, s2=0.1, sigma2=0.1)
        draws = off_diagonal_draws(0.0, params, seed=4)
        assert abs(np.mean(draws == 0.0) - q) < 0.01


class TestSampleFlowMatrix:
    def test_streams_draw_as_they_do_alone(self):
        # k streams in one call give the k draws of the streams alone, bit for
        # bit, which are the reference's; each stream takes n * n normals then
        # n * n uniforms; the degenerate zeros are counted once per stream.
        params, flows = mixed_params_and_flows()
        n, f, pos = flows.n, flows.values, flows.values > 0
        s2, sigma2 = params.s2, params.sigma2
        off = ~np.eye(n, dtype=bool)
        for group in (
            pos & off & (sigma2 == 0),
            pos & (s2 == 0) & (sigma2 > 0),
            pos & (s2 > 0) & (sigma2 > 0),
            ~pos & (sigma2 == 0),
            ~pos & (sigma2 > 0) & (params.p == 0) & (params.b == 0),
            ~pos & (sigma2 > 0) & (params.p > 0) & (params.b > 0),
        ):
            assert group.any()
        k = 5
        streams = [np.random.default_rng(seed) for seed in range(k)]
        draws, degenerate = sample_flow_matrix(flows, params, streams)
        assert len(draws) == k
        for seed, (draw, stream) in enumerate(zip(draws, streams)):
            (alone,), count = sample_flow_matrix(flows, params, [np.random.default_rng(seed)])
            assert np.array_equal(draw.values, alone.values)
            expected = reference_draw(flows, params, np.random.default_rng(seed))
            assert np.array_equal(draw.values, expected)
            assert draw.labels == flows.labels
            used = np.random.default_rng(seed)
            used.standard_normal((n, n)), used.random((n, n))
            assert stream.random() == used.random()
        assert count > 0 and degenerate == k * count
        assert np.all(draws[0].values[pos & off & (sigma2 == 0)] == f[pos & off & (sigma2 == 0)])

    def test_zero_me_variance_reproduces_observation(self):
        rng = np.random.default_rng(0)
        flows = FlowMatrix(np.random.default_rng(1).uniform(0.5, 2.0, (4, 4)))
        (draw,), degenerate = sample_flow_matrix(flows, constant_params(4, sigma2=0.0), [rng])
        assert np.array_equal(draw.values, flows.values)
        assert degenerate == 0

    def test_diagonal_held_fixed(self):
        rng = np.random.default_rng(2)
        flows = FlowMatrix(np.random.default_rng(3).uniform(0.5, 2.0, (4, 4)))
        (draw,), _ = sample_flow_matrix(flows, constant_params(4), [rng])
        assert np.array_equal(np.diag(draw.values), np.diag(flows.values))
        off = ~np.eye(4, dtype=bool)
        assert np.all(draw.values[off] != flows.values[off])

    def test_degenerate_zero_counted(self):
        rng = np.random.default_rng(4)
        values = np.ones((3, 3))
        values[0, 1] = 0.0
        values[1, 2] = 0.0
        flows = FlowMatrix(values)
        (draw,), degenerate = sample_flow_matrix(flows, constant_params(3), [rng])
        assert degenerate == 2
        assert draw.values[0, 1] == 0.0 and draw.values[1, 2] == 0.0

    def test_exact_prior_needs_a_finite_prior_mean(self):
        # A positive observation with s2 = 0 takes exp(mu) verbatim; where the
        # calibration left mu undefined that is an error of the sampler, not
        # a non-finite draw.
        params = constant_params(3)
        mu, s2 = params.mu.copy(), params.s2.copy()
        mu[0, 1], s2[0, 1] = np.nan, 0.0
        params = CalibratedParams(
            p=params.p, b=params.b, mu=mu, s2=s2, sigma2=params.sigma2
        )
        with pytest.raises(DataError, match="posterior update needs a finite prior mean"):
            sample_flow_matrix(FlowMatrix(np.ones((3, 3))), params, [np.random.default_rng(0)])

    def test_rng_consumption_is_data_independent(self):
        # Same seed, different observed zeros: subsequent rng state matches.
        params = constant_params(3, p=0.5, b=0.2)
        a = np.random.default_rng(9)
        b = np.random.default_rng(9)
        f1 = FlowMatrix(np.ones((3, 3)))
        values = np.ones((3, 3))
        values[0, 1] = 0.0
        f2 = FlowMatrix(values)
        sample_flow_matrix(f1, params, [a])
        sample_flow_matrix(f2, params, [b])
        assert a.standard_normal() == b.standard_normal()


class TestCalibrateBaseline:
    def world(self, n=6, seed=0, beta=-1.2):
        rng = np.random.default_rng(seed)
        dist = np.exp(rng.uniform(0.2, 2.0, (n, n)))
        np.fill_diagonal(dist, 1.0)
        fe = rng.normal(1.0, 0.4, n)
        values = np.exp(beta * np.log(dist) + fe[:, None] + fe[None, :])
        values *= np.exp(0.3 * rng.standard_normal((n, n)))
        np.fill_diagonal(values, 1.0)
        return FlowMatrix(values), DistanceMatrix(dist)

    def test_variance_decomposition(self):
        flows, dist = self.world()
        fit = fit_log_gravity(flows, dist)
        params, _ = calibrate_baseline(flows, dist, sigma2_common=0.05, p=0.0, b=0.0)
        off = ~np.eye(6, dtype=bool)
        expected = max(fit.residual_variance - 0.05, 0.0)
        assert np.allclose(params.s2[off], expected)
        assert np.allclose(params.sigma2[off], 0.05)
        # All noise: prior variance floors at zero.
        params_hi, _ = calibrate_baseline(flows, dist, fit.residual_variance + 1.0, 0, 0)
        assert np.all(params_hi.s2[off] == 0.0)
        # No noise: everything is signal.
        params_lo, _ = calibrate_baseline(flows, dist, 0.0, 0, 0)
        assert np.allclose(params_lo.s2[off], fit.residual_variance)

    def test_prior_means_are_gravity_fitted_values(self):
        flows, dist = self.world(seed=1)
        fit = fit_log_gravity(flows, dist)
        params, own = calibrate_baseline(flows, dist, 0.02, 0.0, 0.0)
        off = ~np.eye(6, dtype=bool)
        assert np.allclose(params.mu[off], fit.mu[off])
        assert np.all(np.isnan(np.diag(params.mu)))
        # The returned fit is the one the prior means come from.
        assert own.beta_hat == fit.beta_hat
        np.testing.assert_array_equal(own.mu, params.mu)
        np.testing.assert_array_equal(own.x_res, fit.x_res)

    @pytest.mark.parametrize(
        "sigma2, p, b",
        [(np.nan, 0.0, 0.0), (np.inf, 0.0, 0.0), (-0.1, 0.0, 0.0), (0.05, np.nan, 0.0),
         (0.05, 0.0, np.nan), (0.05, 1.5, 0.0)],
    )
    def test_non_finite_or_out_of_range_parameters_are_data_errors(self, sigma2, p, b):
        flows, dist = self.world()
        with pytest.raises(DataError):
            calibrate_baseline(flows, dist, sigma2, p, b)


@pytest.mark.parametrize("name", ["p", "b", "s2", "sigma2"])
def test_calibrated_params_refuse_nan(name):
    with pytest.raises(DataError, match=f"^{name} "):
        constant_params(3, **{name: np.nan})


@pytest.mark.parametrize("name", ["p", "b", "s2", "sigma2"])
def test_calibrated_params_refuse_infinity(name):
    with pytest.raises(DataError, match=f"^{name} "):
        constant_params(3, **{name: np.inf})


@pytest.mark.parametrize("name", ["s2_shrunk", "sigma2_shrunk"])
def test_calibrated_params_refuse_infinite_shrunk_variances(name):
    with pytest.raises(DataError, match=f"^{name} "):
        replace(constant_params(3), **{name: np.full((3, 3), np.inf)})


@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_calibrated_params_refuse_infinite_prior_means(value):
    # A NaN mean marks a dyad without a prior mean; an infinite one is an error.
    assert np.isnan(constant_params(3, mu=np.nan).mu).all()
    with pytest.raises(DataError, match="^mu "):
        constant_params(3, mu=value)


class TestZeroProbs:
    def test_six_edge_cases(self):
        t = 10
        shells = {
            "case1": (np.zeros(t), np.zeros(t), (1.0, 0.0)),
            "case3": (np.ones(t), np.ones(t), (0.0, 0.0)),
        }
        for _, (r1, r2, expected) in shells.items():
            panel = self._two_dyad_panel(r1, r2)
            p, b = estimate_zero_probs(panel)
            assert (p[0, 1], b[0, 1]) == expected

        # case 2: always exactly one zero
        r1 = np.array([1.0, 0.0] * 5)
        r2 = np.array([0.0, 1.0] * 5)
        p, b = estimate_zero_probs(self._two_dyad_panel(r1, r2))
        assert (p[0, 1], b[0, 1]) == (0.0, 0.5)

        # case 4: double zeros and single zeros, never double positive
        r1 = np.array([0.0] * 6 + [1.0] * 4)
        r2 = np.array([0.0] * 6 + [0.0] * 4)
        p, b = estimate_zero_probs(self._two_dyad_panel(r1, r2))
        assert (p[0, 1], b[0, 1]) == (0.6, 0.4)

        # case 5: double zeros and double positives, no single zeros
        r1 = np.array([0.0] * 3 + [1.0] * 7)
        r2 = np.array([0.0] * 3 + [1.0] * 7)
        p, b = estimate_zero_probs(self._two_dyad_panel(r1, r2))
        assert (p[0, 1], b[0, 1]) == (0.3, 0.0)

        # case 6: single zeros and double positives, no double zeros
        r1 = np.array([0.0] * 4 + [1.0] * 6)
        r2 = np.array([1.0] * 4 + [1.0] * 6)
        p, b = estimate_zero_probs(self._two_dyad_panel(r1, r2))
        assert p[0, 1] == 0.0
        assert abs(b[0, 1] - 0.4 / 1.6) < 1e-15

    @staticmethod
    def _two_dyad_panel(r1_vals, r2_vals):
        t = len(r1_vals)
        r1 = np.zeros((t, 2, 2))
        r2 = np.zeros((t, 2, 2))
        # dyad (0, 1) carries the pattern; (1, 0) stays double-positive so
        # the panel invariant (some double-positive dyad) holds.
        r1[:, 0, 1] = r1_vals
        r2[:, 0, 1] = r2_vals
        r1[:, 1, 0] = 1.0
        r2[:, 1, 0] = 1.0
        return panel_from_reports(r1, r2)

    def test_interior_example_and_forward_model(self):
        # Frequencies (z2, z1, z0) = (0.25, 0.5, 0.25) invert to (0, 0.5).
        r1 = np.array([0.0] * 5 + [1.0] * 5 + [0.0] * 2 + [1.0] * 8)
        r2 = np.array([0.0] * 5 + [0.0] * 5 + [1.0] * 2 + [1.0] * 8)
        # counts: double zero 5, single zero 7, double positive 8 over T=20
        panel = self._two_dyad_panel(r1, r2)
        p, b = estimate_zero_probs(panel)
        z2, z1, z0 = 5 / 20, 7 / 20, 8 / 20
        assert abs(b[0, 1] - z1 / (z1 + 2 * z0)) < 1e-15
        # plug-back reproduces the observed frequencies exactly
        ph, bh = p[0, 1], b[0, 1]
        assert abs(ph + (1 - ph) * bh**2 - z2) < 1e-12
        assert abs(2 * (1 - ph) * (1 - bh) * bh - z1) < 1e-12
        assert abs((1 - ph) * (1 - bh) ** 2 - z0) < 1e-12

    def test_exact_quarter_half_quarter(self):
        r1 = np.array([0.0, 1.0, 0.0, 1.0])
        r2 = np.array([0.0, 0.0, 1.0, 1.0])
        p, b = estimate_zero_probs(self._two_dyad_panel(r1, r2))
        assert p[0, 1] == 0.0
        assert b[0, 1] == 0.5

    def test_forward_simulation_recovers_truth(self):
        rng = np.random.default_rng(42)
        for p_true, b_true in ((0.3, 0.2), (0.0, 0.25)):
            r1v, r2v = simulate_mirror_zeros(p_true, b_true, 100_000, rng)
            p, b = estimate_zero_probs(self._two_dyad_panel(r1v, r2v))
            assert abs(p[0, 1] - p_true) < 0.02
            assert abs(b[0, 1] - b_true) < 0.02


class TestMeVariance:
    def test_identical_reports(self):
        rng = np.random.default_rng(0)
        r = np.exp(rng.normal(0, 1, (5, 3, 3)))
        for k in range(5):
            np.fill_diagonal(r[k], 0.0)
        panel = panel_from_reports(r, r.copy())
        sigma2 = estimate_me_variance(panel)
        off = ~np.eye(3, dtype=bool)
        assert np.all(sigma2[off] == 0.0)

    def test_constant_log_difference(self):
        t = 6
        r1 = np.full((t, 2, 2), np.e**0.2)
        r2 = np.ones((t, 2, 2))
        for k in range(t):
            np.fill_diagonal(r1[k], 0.0)
            np.fill_diagonal(r2[k], 0.0)
        sigma2 = estimate_me_variance(panel_from_reports(r1, r2))
        assert abs(sigma2[0, 1] - 0.02) < 1e-12

    def test_swap_invariance(self):
        rng = np.random.default_rng(1)
        r1 = np.exp(rng.normal(0, 1, (4, 3, 3)))
        r2 = np.exp(rng.normal(0, 1, (4, 3, 3)))
        for k in range(4):
            np.fill_diagonal(r1[k], 0.0)
            np.fill_diagonal(r2[k], 0.0)
        s_a = estimate_me_variance(panel_from_reports(r1, r2))
        s_b = estimate_me_variance(panel_from_reports(r2, r1))
        assert np.array_equal(s_a, s_b)

    def test_no_double_positive_flagged_zero(self):
        t = 4
        r1 = np.zeros((t, 2, 2))
        r2 = np.zeros((t, 2, 2))
        r1[:, 1, 0] = 1.0
        r2[:, 1, 0] = 1.0
        r1[:, 0, 1] = 1.0  # report2 stays zero: never double positive
        sigma2 = estimate_me_variance(panel_from_reports(r1, r2))
        assert sigma2[0, 1] == 0.0

    def test_unbiased_quick(self):
        rng = np.random.default_rng(2)
        t, n_dyads = 50, 200
        true = 0.1
        estimates = np.empty(n_dyads)
        for d in range(n_dyads):
            base = rng.normal(2.0, 1.0, t)
            l1 = base + np.sqrt(true) * rng.standard_normal(t)
            l2 = base + np.sqrt(true) * rng.standard_normal(t)
            diff = l1 - l2
            estimates[d] = 0.5 * np.mean(diff**2)
        assert abs(estimates.mean() - true) < 0.005


class TestPriorMeans:
    def world(self, n=5, seed=0):
        rng = np.random.default_rng(seed)
        dist = np.exp(rng.uniform(0.2, 2.0, (n, n)))
        np.fill_diagonal(dist, 1.0)
        return DistanceMatrix(dist), rng

    def test_single_period_equals_gravity_fit(self):
        dist, rng = self.world()
        values = np.exp(
            -1.0 * np.log(dist.values)
            + rng.normal(1, 0.3, 5)[:, None]
            + rng.normal(1, 0.3, 5)[None, :]
        )
        values *= np.exp(0.2 * rng.standard_normal((5, 5)))
        np.fill_diagonal(values, 0.0)
        r = values[None, :, :]
        panel = panel_from_reports(r, r.copy())
        means = estimate_prior_means(panel, dist)
        fit = fit_log_gravity(FlowMatrix(values), dist)
        off = ~np.eye(5, dtype=bool)
        assert np.allclose(means.mu[0][off], fit.mu[off])
        assert abs(means.beta[0] - fit.beta_hat) < 1e-12

    def test_imputation_across_periods(self):
        dist, rng = self.world(seed=1)
        t = 3
        r = np.empty((t, 5, 5))
        for k in range(t):
            values = np.exp(
                (-0.8 - 0.1 * k) * np.log(dist.values)
                + rng.normal(1, 0.3, 5)[:, None]
                + rng.normal(1, 0.3, 5)[None, :]
            )
            np.fill_diagonal(values, 0.0)
            r[k] = values
        # dyad (0, 1) positive in periods 0 and 2 only
        r[1, 0, 1] = 0.0
        panel = panel_from_reports(r, r.copy())
        means = estimate_prior_means(panel, dist)
        expected = 0.5 * (means.mu[0, 0, 1] + means.mu[2, 0, 1])
        assert abs(means.mu[1, 0, 1] - expected) < 1e-12
        assert np.all(np.isfinite(means.mu[:, 0, 1]))

    def test_never_positive_dyad_is_undefined(self):
        dist, rng = self.world(seed=2)
        r = np.exp(rng.normal(1.0, 0.5, (2, 5, 5)))
        for k in range(2):
            np.fill_diagonal(r[k], 0.0)
        r[:, 0, 1] = 0.0
        panel = panel_from_reports(r, r.copy())
        means = estimate_prior_means(panel, dist)
        assert np.all(np.isnan(means.mu[:, 0, 1]))

    def test_exact_log_linear_zero_residuals(self):
        dist, rng = self.world(seed=3)
        r = np.empty((2, 5, 5))
        for k in range(2):
            values = np.exp(
                (-1.0 + 0.2 * k) * np.log(dist.values) + 1.0
            )
            np.fill_diagonal(values, 0.0)
            r[k] = values
        panel = panel_from_reports(r, r.copy())
        means = estimate_prior_means(panel, dist)
        sigma2 = np.zeros((5, 5))
        s2 = estimate_prior_variances(panel, means.mu, sigma2)
        off = ~np.eye(5, dtype=bool)
        assert np.max(s2[off]) < 1e-20


    def test_absent_location_matches_dense_fit(self):
        dist, rng = self.world(seed=4)
        r = np.empty((2, 5, 5))
        for k in range(2):
            r[k] = np.exp(
                -1.0 * np.log(dist.values)
                + rng.normal(1, 0.3, 5)[:, None]
                + rng.normal(1, 0.3, 5)[None, :]
                + 0.3 * rng.standard_normal((5, 5))
            )
            np.fill_diagonal(r[k], 0.0)
        r[0, 3, :] = 0.0  # origin 3 exports nothing in period 0
        r[0, :, 1] = 0.0  # destination 1 imports nothing in period 0
        panel = panel_from_reports(r, r.copy())
        means = estimate_prior_means(panel, dist)
        pos = r[0] > 0
        oidx, didx = np.nonzero(pos)
        x = twoway_design(oidx, didx, 5, extra=np.log(dist.values[oidx, didx]))
        coef = np.linalg.lstsq(x, np.log(r[0][oidx, didx]), rcond=None)[0]
        assert np.max(np.abs(means.mu[0][pos] - x @ coef)) < 1e-10
        assert abs(means.beta[0] - coef[0]) < 1e-10
        # Dyads of the absent locations take their period-1 fitted values.
        assert means.mu[0, 3, 0] == means.mu[1, 3, 0]
        assert means.mu[0, 0, 1] == means.mu[1, 0, 1]


class TestPriorVariances:
    def test_truncation_branches(self):
        rng = np.random.default_rng(0)
        dist = DistanceMatrix(np.exp(rng.uniform(0.2, 1.5, (4, 4))))
        r = np.exp(rng.normal(1.0, 0.5, (3, 4, 4)))
        for k in range(3):
            np.fill_diagonal(r[k], 0.0)
        panel = panel_from_reports(r, r.copy())
        means = estimate_prior_means(panel, dist)
        huge = np.full((4, 4), 100.0)
        assert np.all(estimate_prior_variances(panel, means.mu, huge) == 0.0)

    def test_recovers_simulated_variance(self):
        rng = np.random.default_rng(1)
        t = 100
        s2_true, sigma2_true = 0.05, 0.05
        n_dyads = 400
        est = np.empty(n_dyads)
        for d in range(n_dyads):
            mu = rng.normal(1.0, 0.2)
            log_true = mu + np.sqrt(s2_true) * rng.standard_normal(t)
            log_obs = log_true + np.sqrt(sigma2_true) * rng.standard_normal(t)
            resid = log_obs - mu
            est[d] = max(resid.var() - sigma2_true, 0.0)
        assert abs(est.mean() - s2_true) < 0.1 * s2_true


# Refusals name locations by label.
LABELS = tuple(f"L{i}" for i in range(8))


class TestShrinkVariances:
    def test_exact_multiplicative_recovered(self):
        rng = np.random.default_rng(0)
        n = 5
        ko = rng.normal(-2.0, 0.3, n)
        kd = rng.normal(-2.0, 0.3, n)
        v = np.exp(ko[:, None] + kd[None, :])
        off = ~np.eye(n, dtype=bool)
        v[~off] = 0.0
        shrunk_sigma, shrunk_s = shrink_variances(v, v, LABELS[:n])
        assert np.max(np.abs(shrunk_sigma[off] - v[off])) < 1e-10
        assert np.max(np.abs(shrunk_s[off] - v[off])) < 1e-10

    def test_noisy_multiplicative_less_dispersed(self):
        rng = np.random.default_rng(1)
        n = 8
        ko = rng.normal(-2.0, 0.3, n)
        kd = rng.normal(-2.0, 0.3, n)
        off = ~np.eye(n, dtype=bool)
        v = np.exp(ko[:, None] + kd[None, :] + 0.6 * rng.standard_normal((n, n)))
        v[~off] = 0.0
        shrunk, _ = shrink_variances(v, v, LABELS[:n])
        assert np.log(shrunk[off]).var() < np.log(v[off]).var()
        assert np.all(shrunk[off] > 0)

    def test_missing_location_errors(self):
        n = 4
        off = ~np.eye(n, dtype=bool)
        v = np.where(off, 0.1, 0.0)
        v[2, :] = 0.0  # location 2 never appears as origin with a positive value
        with pytest.raises(InsufficientData, match=r"ME variance estimate for origins \['L2'\]"):
            shrink_variances(v, np.where(off, 0.1, 0.0), LABELS[:n])

    def test_all_zero_prior_variance_location_keeps_zero(self):
        rng = np.random.default_rng(2)
        n = 6
        ko = rng.normal(-2.0, 0.3, n)
        kd = rng.normal(-2.0, 0.3, n)
        off = ~np.eye(n, dtype=bool)
        v = np.exp(ko[:, None] + kd[None, :])
        v[~off] = 0.0
        # Origin 0 carries the normalised fixed effect; destination 3 is
        # any other location.  Both have only floored (zero) estimates.
        emptied_locations = np.zeros((n, n), dtype=bool)
        emptied_locations[0, :] = emptied_locations[:, 3] = True
        # Every location has positive estimates, but only within {0, 1, 2}
        # and within {3, 4, 5}: no estimate links a dyad across the groups.
        group = np.arange(n) < 3
        unconnected = group[:, None] != group[None, :]
        refusals = (
            r"no positive ME variance estimate for origins \['L0'\]",
            r"unconnected groups; 18 dyads such as L0->L3 join two groups",
        )
        for emptied, message in zip((emptied_locations & off, unconnected), refusals):
            s2 = np.where(emptied, 0.0, v)
            _, shrunk_s = shrink_variances(v, s2, LABELS[:n])
            assert np.all(shrunk_s[emptied] == 0.0)
            assert np.max(np.abs(shrunk_s[off & ~emptied] - v[off & ~emptied])) < 1e-10
            assert np.all(shrunk_s[~off] == 0.0)
            with pytest.raises(InsufficientData, match=message):
                shrink_variances(s2, v, LABELS[:n])


class TestMirrorCsv:
    def write(self, tmp_path, rows, header="origin,destination,year,flow_report1,flow_report2"):
        path = tmp_path / "mirror.csv"
        path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
        return path

    def test_round_trip_no_missing(self, tmp_path):
        rows = [
            "A,B,2000,1.5,1.4",
            "B,A,2000,2.0,2.1",
            "A,B,2001,1.6,1.7",
            "B,A,2001,2.2,2.3",
        ]
        panel = ingest_mirror_csv(self.write(tmp_path, rows))
        assert panel.labels == ("A", "B")
        assert panel.periods == (2000, 2001)
        assert panel.report1[0, 0, 1] == 1.5
        assert panel.report2[1, 1, 0] == 2.3
        assert panel.na_zeroed == 0 and panel.na_copied == 0

    def test_all_na_side_copied(self, tmp_path):
        rows = [
            "A,B,2000,1.5,",
            "A,B,2001,1.6,",
            "B,A,2000,2.0,2.1",
            "B,A,2001,2.2,2.3",
        ]
        panel = ingest_mirror_csv(self.write(tmp_path, rows))
        assert np.array_equal(panel.report2[:, 0, 1], panel.report1[:, 0, 1])
        assert panel.na_copied == 2

    def test_scattered_na_becomes_zero(self, tmp_path):
        rows = [
            "A,B,2000,1.5,1.4",
            "A,B,2001,,1.7",
            "B,A,2000,2.0,2.1",
            "B,A,2001,2.2,2.3",
        ]
        panel = ingest_mirror_csv(self.write(tmp_path, rows))
        assert panel.report1[1, 0, 1] == 0.0
        assert panel.na_zeroed == 1

    def test_parse_error_carries_row(self, tmp_path):
        rows = ["A,B,2000,1.5,1.4", "B,A,not_a_year,2.0,2.1"]
        with pytest.raises(ParseError) as info:
            ingest_mirror_csv(self.write(tmp_path, rows))
        assert info.value.row == 3
        rows = ["A,B,2000,-1.0,1.4"]
        with pytest.raises(ParseError):
            ingest_mirror_csv(self.write(tmp_path, rows))

    def test_quoted_labels_blank_lines_and_blank_cells(self, tmp_path):
        rows = [
            '"Paris, FR",B,2000,1.5,1.4',
            "",
            '   ,  ,  ',
            ' , ,\t, , ',
            'B,"Paris, FR",2000,  ,2.1',
            "  ",
            '"Paris, FR",B,2001,1.6,1.7',
            'B,"Paris, FR",2001,2.2,2.3',
        ]
        panel = ingest_mirror_csv(self.write(tmp_path, rows))
        assert panel.labels == ("B", "Paris, FR")
        assert panel.periods == (2000, 2001)
        assert panel.report1[0, 1, 0] == 1.5
        assert panel.report2[1, 0, 1] == 2.3
        # The whitespace-only cell is missing; the mirror side is not
        # positive in every period, so it becomes a zero.
        assert panel.report1[0, 0, 1] == 0.0
        assert panel.na_zeroed == 1 and panel.na_copied == 0

    @pytest.mark.parametrize(
        "rows, row",
        [
            (["A,B,2000,1.5,1.4", "B,A,2000,2.0"], 3),  # field count
            (["A,B,2000,1.5,1.4,0"], 2),
            (["A,B,2000,1.5,1.4", "", "B,A,not_a_year,2.0,2.1"], 4),  # bad year
            (["A,B,2000,1.5,oops"], 2),  # bad flow
            (["A,B,2000,-1.0,1.4"], 2),  # negative flow
            (["A,B,2000,1.5,1.4", "B,A,2000,inf,1.0"], 3),  # non-finite flow
            (["A,B,2000,1.5,1.4", "B,A,2000,1.0,-Infinity"], 3),
            (["A,B,2000,1.5,1.4", "B,A,2000,nan,1.0"], 3),
            (["A,B,2000,1.5,NaN"], 2),
            (["A,A,2000,1.5,1.4"], 2),  # own flow
            # A duplicate is reported at its second row, after all rows parse.
            (["A,B,2000,1.5,1.4", "B,A,2000,1,1", "A,B,2001,1,1", " A , B ,2000,1,1"], 5),
            (["A,B,2000,1,1", "A,B,2000,2,2", "A,B,2000,3,3"], 3),
            (["A,B,2000,1,1", "A,B,2000,2,2", "B,A,2000,x,1"], 4),
            ([], 2),  # no data rows
            (["", "  "], 2),
        ],
    )
    def test_parse_error_rows(self, tmp_path, rows, row):
        with pytest.raises(ParseError) as info:
            ingest_mirror_csv(self.write(tmp_path, rows))
        assert info.value.row == row

    def test_parse_error_messages(self, tmp_path):
        cases = [
            (["A,B,2000,1.5,inf"], "non-finite flow 'inf'"),
            (["A,B,2000,1.5, nan "], "non-finite flow 'nan'"),
            (["A,B,2000,x ,1"], "bad flow 'x'"),
            (["A,B,2000,1,1", "A,B,2000,1,1"], "duplicate dyad-period ('A', 'B', 2000)"),
        ]
        for rows, message in cases:
            with pytest.raises(ParseError, match=re.escape(message)):
                ingest_mirror_csv(self.write(tmp_path, rows))
        with pytest.raises(ParseError) as info:
            ingest_mirror_csv(self.write(tmp_path, ["A,B,2000,1,1"], header="origin,dest,year,a,b"))
        assert info.value.row == 1

    def test_panel_rejects_infinite_reports(self):
        r1 = np.ones((1, 2, 2))
        r2 = np.ones((1, 2, 2))
        r2[0, 1, 0] = np.inf
        with pytest.raises(DataError, match="infinite"):
            MirrorPanel(report1=r1, report2=r2, labels=("A", "B"), periods=(0,))
        r2[0, 1, 0] = -np.inf
        with pytest.raises(DataError, match="infinite"):
            MirrorPanel(report1=r2, report2=r1, labels=("A", "B"), periods=(0,))

    def test_resolve_missing_zeroes_only_nan(self):
        big = np.finfo(float).max
        r1 = np.array([[[np.nan, big], [np.nan, np.nan]], [[0.0, 2.5], [0.0, 0.0]]])
        r2 = np.array([[[0.0, 1.0], [3.0, 0.0]], [[0.0, np.nan], [4.0, 0.0]]])
        out1, out2, copied, zeroed = resolve_missing(r1, r2)
        np.testing.assert_array_equal(out1, [[[0, big], [0, 0]], [[0, 2.5], [0, 0]]])
        np.testing.assert_array_equal(out2, [[[0, 1.0], [3.0, 0]], [[0, 0], [4.0, 0]]])
        assert zeroed == 2 and copied == 0
        assert np.isnan(r1[0, 1, 0]), "the inputs are left as they were"

    def test_panel_refuses_missing_reports(self):
        r1 = np.ones((2, 2, 2))
        r2 = np.ones((2, 2, 2))
        r2[1, 0, 1] = np.nan
        with pytest.raises(DataError, match="report2 has missing entries"):
            MirrorPanel(report1=r1, report2=r2, labels=("A", "B"), periods=(0, 1))
        r1[0, 1, 1] = np.nan  # on the diagonal as well
        with pytest.raises(DataError, match="report1 has missing entries"):
            MirrorPanel(r1, np.ones((2, 2, 2)), labels=("A", "B"), periods=(0, 1))

    def test_resolve_missing_order(self):
        # The copy rule fires before the zero rule.
        r1 = np.full((2, 2, 2), np.nan)
        r2 = np.zeros((2, 2, 2))
        r1[:, 1, 0] = 5.0
        r2[:, 0, 1] = 3.0
        r2[:, 1, 0] = np.nan
        out1, out2, copied, zeroed = resolve_missing(r1, r2)
        # (0,1): report1 all-NA, report2 all-positive -> copied
        assert np.array_equal(out1[:, 0, 1], [3.0, 3.0])
        # (1,0): report2 all-NA, report1 all-positive -> copied
        assert np.array_equal(out2[:, 1, 0], [5.0, 5.0])
        assert copied == 4
        assert zeroed == 0


def panel_without_report1_flows_in(period):
    """``mirror_world(n=5, t=4, seed=2)`` with every report-1 flow of one
    period zero."""
    from flowuq.scenarios import mirror_world

    scen = mirror_world(n=5, t=4, seed=2)
    report1 = np.array(scen.panel.report1)
    report1[scen.panel.periods.index(period)] = 0.0
    return scen, replace(scen.panel, report1=report1)


class TestCalibrateMirror:
    def test_refuses_a_period_without_positive_flows(self):
        scen, panel = panel_without_report1_flows_in(2002)
        with pytest.raises(InsufficientData, match="period 2002 has no positive flows"):
            calibrate_mirror(panel, scen.distances)

    def test_full_pipeline_on_synthetic_panel(self):
        from flowuq.scenarios import mirror_world

        scen = mirror_world(n=6, t=8, seed=3)
        params, means = calibrate_mirror(scen.panel, scen.distances)
        off = ~np.eye(6, dtype=bool)
        assert params.has_periods and params.periods == scen.periods
        assert np.all(params.p[off] == 0.0)  # no zeros simulated
        assert np.all(params.sigma2_shrunk[off] > 0)
        assert np.all(params.s2_shrunk[off] > 0)
        # ME variance estimates should be in the vicinity of the truth.
        ratio = params.sigma2[off].mean() / scen.sigma2[off].mean()
        assert 0.5 < ratio < 2.0
        sliced = params.for_period(scen.periods[-1])
        assert not sliced.has_periods
        flows = FlowMatrix(scen.panel.report1[-1], scen.labels)
        rng = np.random.default_rng(0)
        (draw,), degenerate = sample_flow_matrix(flows, sliced, [rng])
        assert degenerate == 0
        assert np.all(draw.values[off] > 0)
        # The last period's fit comes back whole.
        last = fit_log_gravity(flows, scen.distances)
        assert means.last_fit.beta_hat == last.beta_hat == means.beta[-1]
        np.testing.assert_array_equal(means.last_fit.x_res, last.x_res)
        np.testing.assert_array_equal(means.last_fit.y_res, last.y_res)
