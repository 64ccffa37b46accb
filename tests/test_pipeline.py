from dataclasses import fields, replace

import numpy as np
import pytest

import sparselag
from sparselag import (Config, FrequencyResponseField, LaggedRegressionFit, analyze, build_warp,
                       estimate_autocovariances, r_squared, recovery_spec, simulate_lagged_regression,
                       warp_apply)
from sparselag.pipeline import evaluation_grid
from conftest import random_macro_panel, random_sparse_panel


class TestEvaluationGrid:
    def test_knots_always_present(self):
        grid, knot_idx = evaluation_grid(101, 9)
        knots = np.linspace(0, 1, 9)
        assert np.array_equal(grid[knot_idx], knots)
        assert grid[0] == 0.0 and grid[-1] == 1.0
        assert np.all(np.diff(grid) > 0)

    def test_collapses_exact_duplicates(self):
        grid, _ = evaluation_grid(9, 9)
        assert grid.size == 9


class TestAnalyze:
    def test_defaults_resolved_from_panel(self, rng):
        panel = random_sparse_panel(rng, 120, 6, missing_frac=0.05)
        macro = random_macro_panel(rng, 120, 2)
        result = analyze(panel, macro)
        assert result.config.q == 11    # ceil(sqrt(120))
        assert isinstance(result.r_squared, float)
        assert result.fit.filter_coef.shape[0] == 25

    def test_horizon_mismatch_rejected(self, rng):
        panel = random_sparse_panel(rng, 30, 4)
        macro = random_macro_panel(rng, 31, 1)
        with pytest.raises(ValueError, match="horizons"):
            analyze(panel, macro)

    def test_oversized_span_rejected(self, rng):
        panel = random_sparse_panel(rng, 30, 4)
        macro = random_macro_panel(rng, 30, 1)
        with pytest.raises(ValueError, match="exceeds the horizon"):
            analyze(panel, macro, Config(b_mu=0.5, b_r=0.5, q=31))

    @pytest.mark.parametrize("b_mu, macro_scale, message", [
        (1e-200, 1.0, "fewer than 2 observed knots"),
        (0.5, 1e200, "autocovariance at lag"),
    ])
    def test_overflow_raises_a_typed_error_without_a_warning(self, rng, b_mu, macro_scale,
                                                             message):
        # RuntimeWarnings are errors under the test settings: a leaked one would fail here
        panel = random_sparse_panel(rng, 30, 4)
        macro = random_macro_panel(rng, 30, 1)
        macro = replace(macro, values=macro.values * macro_scale)
        with pytest.raises(ValueError, match=message):
            analyze(panel, macro, Config(b_mu=b_mu, b_r=0.5, q=5))

    def test_deterministic(self, rng):
        spec = replace(recovery_spec(seed=4), n_times=150)
        panel, macro, _ = simulate_lagged_regression(spec)
        a = analyze(panel, macro)
        b = analyze(panel, macro)
        assert np.array_equal(a.fit.filter_coef, b.fit.filter_coef)
        assert a.r_squared == b.r_squared

    def test_diagnostics_populated(self, rng):
        spec = replace(recovery_spec(seed=9), n_times=150)
        panel, macro, _ = simulate_lagged_regression(spec)
        result = analyze(panel, macro)
        d = result.diagnostics
        assert d.max_imag_residual < 1e-10
        assert d.truncation_tail_mass >= 0.0
        assert result.spectral_density.condition_numbers.shape == (512,)
        assert d.max_condition_number == 1.0    # scalar regressor

    def test_symmetry_invariants_on_random_instances(self, rng):
        for _ in range(5):
            t_len = int(rng.integers(40, 80))
            panel = random_sparse_panel(rng, t_len, int(rng.integers(3, 6)))
            macro = random_macro_panel(rng, t_len, int(rng.integers(1, 4)))
            cfg = Config.defaults(t_len, panel.n_maturities, n_omega=64, n_eval=9)
            result = analyze(panel, macro, cfg)
            n = 64
            pair = (-np.arange(n)) % n
            f = result.spectral_density.values
            assert np.abs(f[pair] - np.conj(f)).max() <= 1e-12 * max(1, np.abs(f).max())
            g = result.cross_spectral.values
            assert np.abs(g[pair] - np.conj(g)).max() <= 1e-10 * max(1, np.abs(g).max())
            b = result.frequency_response.values
            assert np.abs(b[pair] - np.conj(b)).max() <= 1e-8 * max(1, np.abs(b).max())

    def test_spectral_fields_stay_knot_factored(self):
        spec = replace(recovery_spec(seed=5), n_times=150)
        panel, macro, _ = simulate_lagged_regression(spec)
        result = analyze(panel, macro, Config.defaults(150, panel.n_maturities, n_omega=64))
        for field in (result.cross_spectral, result.frequency_response):
            assert "values" not in vars(field) and "half" not in vars(field)
            assert field.knot_values.shape[0] == 33            # the nodes k = 0..N/2
            values = field.values
            assert not values.flags.writeable and not field.half.flags.writeable
            assert not field.operator.flags.writeable
            # the real operator applied to the interleaved real and imaginary parts
            product = (field.operator @ field.knot_values.view(float)).view(complex)
            assert np.array_equal(field.half, product)
            assert np.array_equal(values, field.grid.mirror(product))
            assert field.values is values
        # the density's knots are its half, as are those of any field with the identity operator,
        # which is read-only too
        density, b = result.spectral_density, result.frequency_response
        identity_built = FrequencyResponseField.from_knots(density.grid, b.half, np.eye(b.half.shape[1]))
        for field in (density, identity_built):
            assert field.half is field.knot_values and not field.half.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                field.operator[0, 0] = 5.0

    def test_condition_numbers_are_read_only(self, rng):
        panel = random_sparse_panel(rng, 60, 4)
        macro = random_macro_panel(rng, 60, 2)
        result = analyze(panel, macro, Config.defaults(60, 4, n_omega=64))
        conds = result.spectral_density.condition_numbers
        assert result.diagnostics.max_condition_number == conds.max()
        assert type(result.diagnostics.max_condition_number) is float
        assert not conds.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            conds[0] = 0.0

    def test_each_quantity_has_one_attribute(self, rng):
        panel = random_sparse_panel(rng, 40, 4)
        macro = random_macro_panel(rng, 40, 2)
        result = analyze(panel, macro, Config.defaults(40, 4, n_omega=32))
        assert [f.name for f in fields(result)] == [
            "config", "fit", "r_squared", "spectral_density", "cross_spectral", "frequency_response",
            "diagnostics"]
        # the fit is the model alone; the result scores it on the analyzed panels
        assert "r_squared" not in [f.name for f in fields(LaggedRegressionFit)]
        assert type(result.r_squared) is float and result.r_squared == r_squared(panel, result.fit, macro)
        assert [f.name for f in fields(result.diagnostics)] == [
            "max_imag_residual", "truncation_tail_mass", "max_condition_number"]
        assert not hasattr(result.spectral_density, "matrices")
        assert not hasattr(sparselag, "empirical_mean") and "empirical_mean" not in sparselag.__all__
        assert not hasattr(sparselag.mv_spectral, "empirical_mean")
        # the objects the result no longer carries are rebuilt from the inputs, bit for bit
        assert np.array_equal(warp_apply(build_warp(panel.maturity_grid), result.fit.eval_warped),
                              result.fit.eval_tau)
        acov = estimate_autocovariances(macro, result.config.q)
        assert np.array_equal(acov.mean, result.fit.macro_means)

    def test_analyze_builds_the_fit_once(self, rng, monkeypatch):
        panel = random_sparse_panel(rng, 40, 4)
        macro = random_macro_panel(rng, 40, 2)
        built = []
        check = LaggedRegressionFit.__post_init__
        monkeypatch.setattr(LaggedRegressionFit, "__post_init__", lambda fit: built.append(check(fit)))
        for _ in range(3):
            analyze(panel, macro, Config.defaults(40, 4, n_omega=32))
        assert len(built) == 3
