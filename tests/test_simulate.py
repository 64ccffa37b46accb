import numpy as np
import pytest
from scipy.linalg import solve_discrete_lyapunov

from sparselag import (FrequencyGrid, MaturityGrid, SyntheticSpec, US_MATURITIES,
                       predict_panel, recovery_spec, simulate_lagged_regression,
                       simulate_var1, var1_spectral_density)
from sparselag import simulate
from sparselag.model import LaggedRegressionFit
from oracles import loop_var1_deviations


def _spec(**overrides):
    base = dict(
        maturity_grid=MaturityGrid(np.array(US_MATURITIES)),
        n_times=200,
        ar_coef=np.array([[0.5]]),
        innovation_cov=np.array([[1.0]]),
        macro_mean=np.zeros(1),
        seed=3,
    )
    base.update(overrides)
    return SyntheticSpec(**base)


class TestSimulateVar1:
    def test_zero_coefficient_gives_iid(self):
        spec = _spec(ar_coef=np.array([[0.0]]), n_times=20000)
        macro = simulate_var1(spec)
        x = macro.values[:, 0]
        lag1 = np.corrcoef(x[1:], x[:-1])[0, 1]
        assert abs(lag1) <= 0.03

    def test_ar_09_autocorrelation(self):
        spec = _spec(ar_coef=np.array([[0.9]]), n_times=50000, seed=11)
        x = simulate_var1(spec).values[:, 0]
        lag1 = np.corrcoef(x[1:], x[:-1])[0, 1]
        assert lag1 == pytest.approx(0.9, abs=0.02)

    def test_deterministic(self):
        spec = _spec(n_times=500)
        a = simulate_var1(spec)
        b = simulate_var1(spec)
        assert np.array_equal(a.values, b.values)

    def test_mean_shift(self):
        spec = _spec(macro_mean=np.array([10.0]), n_times=20000)
        assert simulate_var1(spec).values.mean() == pytest.approx(10.0, abs=0.2)

    def test_nonstationary_rejected(self):
        with pytest.raises(ValueError, match="spectral radius"):
            _spec(ar_coef=np.array([[1.1]]))

    def test_bad_covariance_rejected(self):
        with pytest.raises(ValueError, match="positive definite"):
            _spec(innovation_cov=np.array([[-1.0]]))

    @pytest.mark.parametrize("field, value, message", [
        ("ar_coef", np.array([[np.nan]]), "ar_coef must be finite"),
        ("innovation_cov", np.array([[np.inf]]), "innovation_cov must be finite"),
        ("macro_mean", np.array([np.nan]), "macro_mean must be finite"),
        ("curve_error_scale", np.nan, "finite and nonnegative"),
        ("noise_sd", np.inf, "finite and nonnegative"),
        ("noise_sd", -0.1, "finite and nonnegative"),
        ("seed", -1, "seed must be nonnegative"),
    ])
    def test_non_finite_or_negative_values_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            _spec(**{field: value})


class TestDiagonalFastPath:
    """A diagonal A runs as scalar recursions; outputs must equal the matrix loop."""

    def test_coupled_coefficients_keep_the_matrix_loop(self):
        spec = _spec(ar_coef=np.array([[0.6, 0.2], [-0.1, 0.4]]),
                     innovation_cov=np.array([[1.0, 0.3], [0.3, 2.0]]), macro_mean=np.zeros(2),
                     n_times=700)
        fast = simulate._var1_deviations(spec, np.random.default_rng(4), spec.n_times)
        loop = loop_var1_deviations(spec, np.random.default_rng(4), spec.n_times)
        assert np.array_equal(fast, loop)

    def test_lagged_regression_equals_matrix_loop_run(self, monkeypatch):
        d = 5
        spec = _spec(ar_coef=np.diag([0.7, -0.3, 0.0, 0.5, 0.9]),
                     innovation_cov=0.5 * np.eye(d) + 0.5, macro_mean=np.arange(d, dtype=float),
                     filter_fns={(-2, 0): lambda t: t, (0, 4): lambda t: 1.0 - t,
                                 (2, 2): lambda t: 0.5 + 0 * t},
                     mean_fn=lambda t: 1.0 + t, curve_error_scale=0.2, noise_sd=0.05,
                     n_times=300, seed=17)
        p_fast, m_fast, t_fast = simulate_lagged_regression(spec)
        monkeypatch.setattr(simulate, "_var1_deviations", loop_var1_deviations)
        p_loop, m_loop, t_loop = simulate_lagged_regression(spec)
        assert np.array_equal(p_fast.values, p_loop.values)
        assert np.array_equal(m_fast.values, m_loop.values)
        assert np.array_equal(t_fast.regression_curves, t_loop.regression_curves)
        assert np.array_equal(t_fast.mean_at_maturities, t_loop.mean_at_maturities)
        assert t_fast.filter_at_maturities.keys() == t_loop.filter_at_maturities.keys()
        for key, vals in t_fast.filter_at_maturities.items():
            assert np.array_equal(vals, t_loop.filter_at_maturities[key])


class TestVar1SpectralDensity:
    def test_white_noise_flat(self):
        grid = FrequencyGrid(32)
        mats = var1_spectral_density(np.zeros((2, 2)), np.eye(2), grid)
        expected = np.eye(2) / (2 * np.pi)
        assert mats.shape == (32, 2, 2) and np.abs(mats - expected).max() <= 1e-14

    def test_ar_half_at_zero_frequency(self):
        grid = FrequencyGrid(64)
        mats = var1_spectral_density(np.array([[0.5]]), np.array([[1.0]]), grid)
        at_zero = mats[32, 0, 0]    # node 32 is omega = 0
        assert at_zero.real == pytest.approx(1.0 / (2 * np.pi * 0.25), rel=1e-12)
        assert abs(at_zero.imag) <= 1e-15

    def test_integral_recovers_lag_zero_covariance(self):
        a = np.array([[0.6, 0.15], [-0.1, 0.3]])
        cov = np.array([[1.0, 0.3], [0.3, 2.0]])
        grid = FrequencyGrid(512)
        mats = var1_spectral_density(a, cov, grid)
        integral = mats.sum(axis=0).real * grid.quadrature_weight
        r0 = solve_discrete_lyapunov(a, cov)
        assert np.abs(integral - r0).max() <= 0.01 * np.abs(r0).max()

    def test_hermitian_positive_definite(self, rng):
        a = np.array([[0.5, 0.2], [0.0, 0.4]])
        mats = var1_spectral_density(a, np.eye(2), FrequencyGrid(64))
        for k in range(0, 64, 7):
            m = mats[k]
            assert np.abs(m - m.conj().T).max() <= 1e-14
            assert np.linalg.eigvalsh(m).min() > 0


class TestSimulateLaggedRegression:
    def test_overflowing_mean_raises_a_typed_error_without_a_warning(self):
        # RuntimeWarnings are errors under the test settings: a leaked one would fail here
        spec = _spec(mean_fn=lambda t: 1e308 * (10.0 + t), n_times=50)
        with pytest.raises(ValueError, match="observed values must all be finite"):
            simulate_lagged_regression(spec)

    def test_pure_mean_when_everything_off(self):
        spec = _spec(mean_fn=lambda t: 2.0 + t, n_times=50)
        panel, macro, truth = simulate_lagged_regression(spec)
        expected = 2.0 + np.linspace(0, 1, 9)
        assert np.abs(panel.values - expected).max() == 0.0
        assert np.array_equal(truth.regression_curves, panel.values)

    def test_regression_identity_without_noise(self):
        spec = _spec(filter_fns={(0, 0): lambda t: 1.0 - t, (2, 0): lambda t: 0.5 * t},
                     mean_fn=lambda t: 1.0 + 0.5 * t, n_times=60)
        panel, macro, truth = simulate_lagged_regression(spec)
        tau_tilde = np.linspace(0, 1, 9)
        # interior t: rebuild the curve from the returned regressors and the truth
        for t in range(3, 58):   # one-based t, away from the window edges
            expected = (1.0 + 0.5 * tau_tilde
                        + (1.0 - tau_tilde) * macro.values[t - 1, 0]
                        + 0.5 * tau_tilde * macro.values[t - 3, 0])
            assert np.allclose(panel.values[t - 1], expected, atol=1e-12)

    def test_each_curve_function_is_evaluated_once(self):
        calls = []

        def counted(name, fn):
            def curve(t):
                calls.append(name)
                return fn(t)
            return curve

        spec = _spec(mean_fn=counted("mean", lambda t: 1.0 + t), n_times=30, noise_sd=0.1,
                     filter_fns={(0, 0): counted("b0", lambda t: 1.0 - t), (-1, 0): counted("b-1", lambda t: t * t)})
        panel, macro, truth = simulate_lagged_regression(spec)
        assert sorted(calls) == ["b-1", "b0", "mean"]
        tau_tilde = np.linspace(0, 1, 9)
        assert np.array_equal(truth.mean_at_maturities, 1.0 + tau_tilde)
        assert np.array_equal(truth.filter_at_maturities[(-1, 0)], tau_tilde * tau_tilde)
        # the curves are built from the same evaluations that the truth holds
        x = macro.values[:, 0]
        expected = (truth.mean_at_maturities + np.outer(x, truth.filter_at_maturities[(0, 0)])
                    + np.outer(np.append(x[1:], np.nan), truth.filter_at_maturities[(-1, 0)]))
        assert np.allclose(truth.regression_curves[:-1], expected[:-1], rtol=0, atol=1e-12)

    def test_truth_consistency_with_predict_panel(self):
        spec = _spec(filter_fns={(0, 0): lambda t: 1.0 - t, (1, 0): lambda t: 0.25 + 0 * t},
                     mean_fn=lambda t: 4.0 + t * t, n_times=40)
        panel, macro, truth = simulate_lagged_regression(spec)
        h_true = 1
        coef = np.zeros((3, 9, 1))            # lags -1, 0, +1
        coef[1, :, 0] = 1.0 - truth.tau_warped
        coef[2, :, 0] = 0.25
        fit = LaggedRegressionFit(
            filter_coef=coef,
            eval_tau=spec.maturity_grid.maturities.copy(),
            eval_warped=truth.tau_warped,
            mean_curve=truth.mean_at_maturities,
            macro_means=np.zeros(1),
        )
        pred = predict_panel(fit, macro)
        for t in range(1 + h_true, 40 - h_true + 1):
            assert np.abs(pred[t - 1] - panel.values[t - 1]).max() <= 1e-10

    def test_lag_zero_filter_consistent_at_every_t(self):
        spec = _spec(filter_fns={(0, 0): lambda t: 1.0 - t}, n_times=30)
        panel, macro, truth = simulate_lagged_regression(spec)
        fit = LaggedRegressionFit(
            filter_coef=(1.0 - truth.tau_warped)[None, :, None],
            eval_tau=spec.maturity_grid.maturities.copy(),
            eval_warped=truth.tau_warped,
            mean_curve=truth.mean_at_maturities,
            macro_means=np.zeros(1),
        )
        pred = predict_panel(fit, macro)
        for t in range(1, 31):
            assert np.abs(pred[t - 1] - panel.values[t - 1]).max() <= 1e-10

    def test_deterministic_outputs(self):
        spec = recovery_spec(seed=5)
        p1, m1, _ = simulate_lagged_regression(spec)
        p2, m2, _ = simulate_lagged_regression(spec)
        assert np.array_equal(p1.values, p2.values)
        assert np.array_equal(m1.values, m2.values)

    def test_noise_scales_are_applied(self):
        quiet = _spec(noise_sd=0.0, n_times=100)
        loud = _spec(noise_sd=0.5, n_times=100)
        p_quiet, _, t_quiet = simulate_lagged_regression(quiet)
        p_loud, _, t_loud = simulate_lagged_regression(loud)
        assert np.array_equal(t_quiet.regression_curves, t_loud.regression_curves)
        resid = p_loud.values - t_loud.regression_curves
        assert np.std(resid) == pytest.approx(0.5, rel=0.2)

    def test_recovery_spec_shape(self):
        spec = recovery_spec()
        assert spec.n_times == 2000 and spec.n_series == 1
        assert spec.max_filter_lag == 0
        null = recovery_spec(null_model=True)
        assert not null.filter_fns

    def test_filter_fns_are_the_specs_own(self):
        fns = {(0, 0): lambda t: 1.0 - t}
        spec = _spec(filter_fns=fns, n_times=30)
        fns[(0, 3)] = fns[(0, 0)]        # a series the spec does not have, added after validation
        assert list(spec.filter_fns) == [(0, 0)] and spec.max_filter_lag == 0
        assert list(simulate_lagged_regression(spec)[2].filter_at_maturities) == [(0, 0)]
        with pytest.raises(TypeError):
            spec.filter_fns[(0, 3)] = fns[(0, 0)]
