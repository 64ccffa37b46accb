from dataclasses import replace

import numpy as np
import pytest

from sparselag import (DegenerateTotal, FrequencyGrid, FrequencyResponseField,
                       IllConditioned, LaggedRegressionFit, MacroPanel, ResidualImaginary,
                       SparseYieldPanel, SpectralDensityField, build_warp,
                       filter_coefficients, frequency_response, predict_curve, predict_panel,
                       r_squared)
from sparselag.cross_spectral import CrossSpectralField
from sparselag.lagreg import _eval_indices, _predict_columns
from conftest import random_macro_panel
from oracles import loop_prediction


def _white_field(grid, d, scale=1.0):
    mats = np.broadcast_to(np.eye(d) * scale, (grid.n_nodes, d, d)).astype(complex).copy()
    return SpectralDensityField(grid=grid, matrices=mats)


def _random_hpd_field(rng, grid, d):
    lags = np.arange(-2, 3)
    base = rng.standard_normal((lags.size, d, d))
    base = base + np.transpose(base[::-1], (0, 2, 1))        # R_{-h} = R_h'
    phases = np.exp(-1j * np.outer(grid.nodes, lags))
    mats = np.einsum("kl,lab->kab", phases, base)
    mats = mats + 8.0 * np.eye(d)                             # push to positive definite
    return SpectralDensityField(grid=grid, matrices=mats)


class TestFrequencyResponse:
    def test_scalar_division(self, rng):
        grid = FrequencyGrid(16)
        f_spec = _white_field(grid, 1, scale=0.4)
        c = 2.5
        cross = CrossSpectralField(grid, c * np.broadcast_to(f_spec.matrices[:, :, 0], (16, 1)).reshape(16, 1, 1).copy())
        resp = frequency_response(cross, f_spec, 1e8)
        assert np.abs(resp.values - c).max() <= 1e-12

    def test_white_regressors(self, rng):
        grid = FrequencyGrid(32)
        d = 3
        spec = _white_field(grid, d, scale=1 / (2 * np.pi))
        lags = np.arange(-2, 3)
        coef = rng.standard_normal((lags.size, 4, d))
        values = np.einsum("kl,lrd->krd", np.exp(-1j * np.outer(grid.nodes, lags)), coef)
        cross = CrossSpectralField(grid, values)
        resp = frequency_response(cross, spec, 1e8)
        assert np.abs(resp.values - 2 * np.pi * values).max() <= 1e-10

    def test_random_hermitian_solve_residual(self, rng):
        grid = FrequencyGrid(32)
        d = 3
        spec = _random_hpd_field(rng, grid, d)
        lags = np.arange(-1, 2)
        coef = rng.standard_normal((lags.size, 5, d))
        values = np.einsum("kl,lrd->krd", np.exp(-1j * np.outer(grid.nodes, lags)), coef)
        cross = CrossSpectralField(grid, values)
        resp = frequency_response(cross, spec, 1e10)
        reproduced = np.einsum("krd,kde->kre", resp.values, spec.matrices)
        assert np.abs(reproduced - cross.values).max() <= 1e-10

    def test_ill_conditioned_aborts_with_frequency(self, rng):
        grid = FrequencyGrid(8)
        # perfectly collinear regressors: singular spectral matrix at every node
        base = np.array([[1.0, 1.0], [1.0, 1.0]])
        mats = np.broadcast_to(base, (8, 2, 2)).astype(complex).copy()
        spec = SpectralDensityField(grid=grid, matrices=mats)
        cross = CrossSpectralField(grid, np.zeros((8, 2, 2), dtype=complex))
        with pytest.raises(IllConditioned) as err:
            frequency_response(cross, spec, 1e8)
        assert err.value.cond > 1e8
        assert -np.pi <= err.value.omega < np.pi

    def test_grid_mismatch_rejected(self, rng):
        spec = _white_field(FrequencyGrid(16), 1)
        cross = CrossSpectralField(FrequencyGrid(8), np.zeros((8, 2, 1), dtype=complex))
        with pytest.raises(ValueError, match="grid"):
            frequency_response(cross, spec, 1e8)


class TestFilterCoefficients:
    def test_constant_response_is_lag_zero(self):
        grid = FrequencyGrid(64)
        values = np.full((64, 3, 2), 1.75, dtype=complex)
        resp = FrequencyResponseField(grid=grid, values=values)
        coef, max_imag = filter_coefficients(resp, 5)
        assert np.abs(coef[5] - 1.75).max() <= 1e-12
        mask = np.ones(11, dtype=bool)
        mask[5] = False
        assert np.abs(coef[mask]).max() <= 1e-12
        assert max_imag <= 1e-14

    def test_shift_filter(self):
        grid = FrequencyGrid(64)
        values = np.exp(-1j * grid.nodes)[:, None, None] * np.ones((1, 1))
        resp = FrequencyResponseField(grid=grid, values=values)
        coef, _ = filter_coefficients(resp, 3)
        assert coef[4, 0, 0] == pytest.approx(1.0, abs=1e-12)   # lag +1
        mask = np.ones(7, dtype=bool)
        mask[4] = False
        assert np.abs(coef[mask]).max() <= 1e-12

    def test_round_trip_from_known_coefficients(self, rng):
        grid = FrequencyGrid(128)
        lags = np.arange(-2, 3)
        coef = rng.standard_normal((5, 4, 3))
        values = np.einsum("ln,lrd->nrd", np.exp(-1j * np.outer(lags, grid.nodes)), coef)
        resp = FrequencyResponseField(grid=grid, values=values)
        recovered, _ = filter_coefficients(resp, 2)
        assert np.abs(recovered - coef).max() <= 1e-12

    def test_grid_too_coarse_rejected(self):
        grid = FrequencyGrid(16)
        resp = FrequencyResponseField(grid=grid, values=np.ones((16, 1, 1), dtype=complex))
        with pytest.raises(ValueError, match="n_omega"):
            filter_coefficients(resp, 8)

    def test_broken_symmetry_raises(self):
        grid = FrequencyGrid(16)
        # constant imaginary response integrates to an imaginary lag-0 coefficient
        values = np.full((16, 1, 1), 1j)
        resp = FrequencyResponseField.__new__(FrequencyResponseField)
        object.__setattr__(resp, "grid", grid)
        object.__setattr__(resp, "eval_warped", np.array([0.0]))
        object.__setattr__(resp, "eval_tau", np.array([0.0]))
        object.__setattr__(resp, "values", values)
        object.__setattr__(resp, "condition_numbers", None)
        with pytest.raises(ResidualImaginary):
            filter_coefficients(resp, 2)


def _toy_fit(us_grid, coef, mean=None, d=1):
    warp = build_warp(us_grid)
    eval_warped = np.linspace(0, 1, 9)
    coef = np.asarray(coef, dtype=float)
    h_max = (coef.shape[0] - 1) // 2
    return LaggedRegressionFit(
        filter_coef=coef,
        lags=np.arange(-h_max, h_max + 1),
        eval_tau=us_grid.maturities.copy(),
        eval_warped=eval_warped,
        mean_curve=np.full(9, 5.0) if mean is None else np.asarray(mean, dtype=float),
        macro_means=np.zeros(d),
        warp=warp,
    )


class TestPrediction:
    def test_zero_filter_returns_mean(self, us_grid, rng):
        fit = _toy_fit(us_grid, np.zeros((5, 9, 1)))
        macro = random_macro_panel(rng, 12, 1)
        for t in (1, 6, 12):
            assert np.array_equal(predict_curve(fit, macro, t), fit.mean_curve)

    def test_mean_regressors_return_mean(self, us_grid, rng):
        coef = rng.standard_normal((5, 9, 2))
        fit = _toy_fit(us_grid, coef, d=2)
        macro = MacroPanel(values=np.zeros((10, 2)), series_names=("a", "b"))
        assert np.abs(predict_curve(fit, macro, 4) - fit.mean_curve).max() <= 1e-14

    def test_matches_loop_oracle_with_imputation(self, us_grid, rng):
        coef = rng.standard_normal((7, 9, 2))
        fit = _toy_fit(us_grid, coef, d=2)
        macro = random_macro_panel(rng, 15, 2)
        for t in (1, 2, 8, 14, 15):   # boundary rows exercise the imputation
            expected = loop_prediction(fit, macro.values, fit.macro_means, t)
            assert np.allclose(predict_curve(fit, macro, t), expected, atol=1e-12)

    def test_panel_prediction_matches_per_time(self, us_grid, rng):
        coef = rng.standard_normal((5, 9, 1))
        fit = _toy_fit(us_grid, coef)
        macro = random_macro_panel(rng, 10, 1)
        stacked = predict_panel(fit, macro)
        for t in range(1, 11):
            assert np.allclose(stacked[t - 1], predict_curve(fit, macro, t), atol=1e-12)

    def test_prediction_affine_in_regressors(self, us_grid, rng):
        coef = rng.standard_normal((3, 9, 1))
        fit = _toy_fit(us_grid, coef, mean=np.zeros(9))   # zero mean: deviations are exact
        base = random_macro_panel(rng, 8, 1)
        doubled = MacroPanel(values=2.0 * base.values, series_names=base.series_names)
        dev1 = predict_panel(fit, base) - fit.mean_curve
        dev2 = predict_panel(fit, doubled) - fit.mean_curve
        assert np.array_equal(dev2, 2.0 * dev1)

    def test_time_index_validated(self, us_grid, rng):
        fit = _toy_fit(us_grid, np.zeros((3, 9, 1)))
        macro = random_macro_panel(rng, 5, 1)
        with pytest.raises(ValueError, match="time index"):
            predict_curve(fit, macro, 0)
        with pytest.raises(ValueError, match="time index"):
            predict_curve(fit, macro, 6)

    def test_eval_subset_lookup(self, us_grid, rng):
        coef = rng.standard_normal((3, 9, 1))
        fit = _toy_fit(us_grid, coef)
        macro = random_macro_panel(rng, 5, 1)
        full = predict_curve(fit, macro, 3)
        sub = predict_curve(fit, macro, 3, eval_points=[1 / 12, 30.0])
        assert np.array_equal(sub, full[[0, 8]])
        with pytest.raises(ValueError, match="evaluation grid"):
            predict_curve(fit, macro, 3, eval_points=[4.0])

    def test_eval_lookup_takes_first_hit_and_names_first_miss(self, us_grid):
        fit = _toy_fit(us_grid, np.zeros((3, 9, 1)))
        taus = fit.eval_tau.copy()
        taus[4] = taus[3]                    # maturity 2.0 now sits at indices 3 and 4
        dup = replace(fit, eval_tau=taus)
        assert _eval_indices(dup, [2.0, 30.0, 2.0 * (1 + 1e-13)]).tolist() == [3, 8, 3]
        assert _eval_indices(dup, 0.5).tolist() == [1]
        with pytest.raises(ValueError, match=r"maturity 4\.0 is not"):
            _eval_indices(dup, [0.5, 4.0, 6.0])

    @pytest.mark.parametrize("t_len, d", [(192, 3), (60, 1), (300, 5)])
    def test_column_subset_prediction_is_bit_identical(self, rng, t_len, d):
        n_eval, h_max = 105, 12
        fit = LaggedRegressionFit(
            filter_coef=rng.standard_normal((2 * h_max + 1, n_eval, d)),
            lags=np.arange(-h_max, h_max + 1),
            eval_tau=np.linspace(0.1, 30.0, n_eval),
            eval_warped=np.linspace(0.0, 1.0, n_eval),
            mean_curve=5.0 + rng.standard_normal(n_eval),
            macro_means=rng.standard_normal(d),
            warp=None,
        )
        macro = random_macro_panel(rng, t_len, d)
        cols = np.sort(rng.choice(n_eval, size=9, replace=False))
        assert np.array_equal(_predict_columns(fit, macro, cols), predict_panel(fit, macro)[:, cols])


class TestRSquared:
    def test_constant_panel_equal_to_mean_is_degenerate(self, us_grid, rng):
        fit = _toy_fit(us_grid, np.zeros((3, 9, 1)))
        panel = SparseYieldPanel.from_values(np.tile(fit.mean_curve, (6, 1)), us_grid)
        macro = random_macro_panel(rng, 6, 1)
        # data sits exactly on the stored mean curve: total sum of squares is zero
        with pytest.raises(DegenerateTotal):
            r_squared(panel, fit, macro)

    def test_zero_filter_gives_zero(self, us_grid, rng):
        fit = _toy_fit(us_grid, np.zeros((3, 9, 1)))
        values = np.tile(fit.mean_curve, (6, 1)) + rng.standard_normal((6, 9))
        panel = SparseYieldPanel.from_values(values, us_grid)
        macro = random_macro_panel(rng, 6, 1)
        assert r_squared(panel, fit, macro) == 0.0

    def test_exact_reconstruction_gives_one(self, us_grid, rng):
        coef = rng.standard_normal((3, 9, 1))
        fit = _toy_fit(us_grid, coef)
        macro = random_macro_panel(rng, 8, 1)
        panel = SparseYieldPanel.from_values(predict_panel(fit, macro), us_grid)
        assert r_squared(panel, fit, macro) == pytest.approx(1.0, abs=1e-12)

    def test_can_be_negative_for_bad_model(self, us_grid, rng):
        coef = np.zeros((3, 9, 1))
        coef[1, :, 0] = 50.0    # absurd lag-0 loading
        fit = _toy_fit(us_grid, coef)
        values = np.tile(fit.mean_curve, (20, 1)) + 0.1 * rng.standard_normal((20, 9))
        panel = SparseYieldPanel.from_values(values, us_grid)
        macro = random_macro_panel(rng, 20, 1)
        assert r_squared(panel, fit, macro) < 0.0


class TestQuadratureExactness:
    def test_trig_polynomial_round_trip(self, rng):
        grid = FrequencyGrid(32)
        h_max = 6
        degree = 9    # < n - h_max = 26
        lags = np.arange(-degree, degree + 1)
        coef = rng.standard_normal((lags.size, 2, 1))
        values = np.einsum("ln,lrd->nrd", np.exp(-1j * np.outer(lags, grid.nodes)), coef)
        resp = FrequencyResponseField(grid=grid, values=values)
        recovered, _ = filter_coefficients(resp, h_max)
        inner = coef[degree - h_max: degree + h_max + 1]
        assert np.abs(recovered - inner).max() <= 1e-12
