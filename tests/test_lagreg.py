import math
import re
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from sparselag import (AutocovarianceSet, DegenerateTotal, FrequencyGrid, FrequencyResponseField,
                       IllConditioned, LaggedRegressionFit, MacroPanel,
                       SparseYieldPanel, SpectralDensityField, analyze,
                       filter_coefficients, frequency_response, predict_panel, r_squared,
                       spectral_density_matrix)
from sparselag.cross_spectral import CrossSpectralField
from sparselag.lagreg import _eval_indices
from sparselag.mv_spectral import lag_window_transform
from conftest import field_from_values, random_macro_panel
from oracles import loop_prediction


def _white_field(grid, d, scale=1.0):
    mats = np.broadcast_to(np.eye(d) * scale, (grid.n_nodes, d, d)).astype(complex).copy()
    return field_from_values(SpectralDensityField, grid, mats)


def _random_hpd_field(rng, grid, d):
    lags = np.arange(-2, 3)
    base = rng.standard_normal((lags.size, d, d))
    base = base + np.transpose(base[::-1], (0, 2, 1))        # R_{-h} = R_h'
    kernel = np.exp(-1j * np.outer(grid.nodes, lags))
    mats = np.einsum("kl,lab->kab", kernel, base)
    mats = mats + 8.0 * np.eye(d)                             # push to positive definite
    return field_from_values(SpectralDensityField, grid, mats)


class TestFrequencyResponse:
    def test_scalar_division(self, rng):
        grid = FrequencyGrid(16)
        f_spec = _white_field(grid, 1, scale=0.4)
        c = 2.5
        cross = field_from_values(CrossSpectralField, grid, c * np.broadcast_to(f_spec.values[:, :, 0], (16, 1)).reshape(16, 1, 1).copy())
        resp = frequency_response(cross, f_spec, 1e8)
        assert np.abs(resp.values - c).max() <= 1e-12

    def test_white_regressors(self, rng):
        grid = FrequencyGrid(32)
        d = 3
        spec = _white_field(grid, d, scale=1 / (2 * np.pi))
        lags = np.arange(-2, 3)
        coef = rng.standard_normal((lags.size, 4, d))
        values = np.einsum("kl,lrd->krd", np.exp(-1j * np.outer(grid.nodes, lags)), coef)
        cross = field_from_values(CrossSpectralField, grid, values)
        resp = frequency_response(cross, spec, 1e8)
        assert np.abs(resp.values - 2 * np.pi * values).max() <= 1e-10

    def test_random_hermitian_solve_residual(self, rng):
        grid = FrequencyGrid(32)
        d = 3
        spec = _random_hpd_field(rng, grid, d)
        lags = np.arange(-1, 2)
        coef = rng.standard_normal((lags.size, 5, d))
        values = np.einsum("kl,lrd->krd", np.exp(-1j * np.outer(grid.nodes, lags)), coef)
        cross = field_from_values(CrossSpectralField, grid, values)
        resp = frequency_response(cross, spec, 1e10)
        reproduced = np.einsum("krd,kde->kre", resp.values, spec.values)
        assert np.abs(reproduced - cross.values).max() <= 1e-10

    def test_ill_conditioned_aborts_with_frequency(self, rng):
        grid = FrequencyGrid(8)
        # perfectly collinear regressors: singular spectral matrix at every node
        base = np.array([[1.0, 1.0], [1.0, 1.0]])
        mats = np.broadcast_to(base, (8, 2, 2)).astype(complex).copy()
        spec = field_from_values(SpectralDensityField, grid, mats)
        cross = field_from_values(CrossSpectralField, grid, np.zeros((8, 2, 2), dtype=complex))
        with pytest.raises(IllConditioned) as err:
            frequency_response(cross, spec, 1e8)
        assert err.value.cond > 1e8
        assert -np.pi <= err.value.omega < np.pi
        assert str(err.value).endswith(" -- consider a different window span q")

    def test_ill_conditioned_names_the_worst_node(self, rng):
        grid = FrequencyGrid(16)
        # condition numbers around 1e9 near omega = 0, with random gaps between nodes
        spread = 1.0 + 1e9 * np.cos(grid.nodes / 2) ** 2 + 1e8 * rng.uniform(size=16)
        spread = np.minimum(spread, spread[(-np.arange(16)) % 16])    # keep F(-w) = F(w)
        mats = np.zeros((16, 2, 2), dtype=complex)
        mats[:, 0, 0], mats[:, 1, 1] = 1.0, 1.0 / spread
        spec = field_from_values(SpectralDensityField, grid, mats)
        cross = field_from_values(CrossSpectralField, grid, np.zeros((16, 1, 2), dtype=complex))
        worst = int(np.argmax(np.linalg.cond(spec.values)))
        with pytest.raises(IllConditioned) as err:
            frequency_response(cross, spec, 1e8)
        assert err.value.omega == grid.nodes[worst]
        assert err.value.cond == pytest.approx(np.linalg.cond(spec.values)[worst], rel=1e-12)

    def test_grid_mismatch_rejected(self, rng):
        spec = _white_field(FrequencyGrid(16), 1)
        cross = field_from_values(CrossSpectralField, FrequencyGrid(8), np.zeros((8, 2, 1), dtype=complex))
        with pytest.raises(ValueError, match="grid"):
            frequency_response(cross, spec, 1e8)


class TestOneConstructor:
    """from_knots is the only way to build a spectral field."""

    @pytest.mark.parametrize("cls", [CrossSpectralField, FrequencyResponseField, SpectralDensityField])
    def test_value_constructor_raises_type_error(self, cls):
        grid = FrequencyGrid(4)
        values = np.tile(np.eye(2, dtype=complex), (4, 1, 1))
        assert not any("__init__" in vars(base) for base in cls.__mro__[:-1])
        with pytest.raises(TypeError):
            cls(grid, values)
        with pytest.raises(TypeError):
            cls(grid=grid, values=values, matrices=values)
        assert not hasattr(FrequencyGrid, "fold")

    def test_from_knots_checks_shapes(self):
        grid = FrequencyGrid(8)
        for knots, operator in [(np.ones((8, 2, 1)), np.eye(2)), (np.ones((5, 2)), np.eye(2)),
                                (np.ones((5, 2, 1)), np.eye(3))]:
            with pytest.raises(ValueError, match=re.escape("knot values must have shape (n_nodes/2 + 1, I, d)")):
                CrossSpectralField.from_knots(grid, knots, operator)
        with pytest.raises(ValueError, match=re.escape("knot values must have shape (n_nodes/2 + 1, d, d)")):
            SpectralDensityField.from_knots(grid, np.ones((5, 2, 3)), np.eye(2))

    def test_helper_rejects_asymmetric_values(self):
        values = np.zeros((8, 1, 1), dtype=complex)
        values[3] = 1.0                         # node 3 pairs with node 5, which stays 0
        with pytest.raises(AssertionError, match="not conjugate-symmetric"):
            field_from_values(CrossSpectralField, FrequencyGrid(8), values)


class TestNonFiniteFieldsRejected:
    """Each spectral field names the first node of its knot values holding a NaN or infinity."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_cross_spectral_field(self, rng, bad):
        grid = FrequencyGrid(16)
        knots = np.zeros((9, 2, 2), dtype=complex)      # the nodes k = 0..N/2
        knots[5, 1, 0] = knots[7, 0, 1] = bad
        with pytest.raises(ValueError, match=re.escape(f"omega = {float(grid.nodes[5])!r}")):
            CrossSpectralField.from_knots(grid, knots, rng.standard_normal((3, 2)))
        knots[5, 1, 0] = 0.0
        with pytest.raises(ValueError, match=re.escape(f"omega = {float(grid.nodes[7])!r}")):
            CrossSpectralField.from_knots(grid, knots, np.eye(2))

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_frequency_response_field(self, bad):
        grid = FrequencyGrid(8)
        knots = np.ones((5, 2, 1), dtype=complex)
        knots[0, 1, 0] = bad
        with pytest.raises(ValueError, match=re.escape(f"omega = {float(grid.nodes[0])!r}")):
            FrequencyResponseField.from_knots(grid, knots, np.eye(2))

    @pytest.mark.parametrize("name", ["half", "values", "condition_numbers"])
    def test_from_knots_sets_no_undeclared_field(self, name):
        grid, nan = FrequencyGrid(4), np.full((4, 2, 1), np.nan)
        for cls in (CrossSpectralField, FrequencyResponseField):
            with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
                cls.from_knots(grid, np.ones((3, 2, 1)), np.eye(2), **{name: nan})

    def test_spectral_density_upper_triangle(self):
        # eigvalsh reads the lower triangle only: a NaN above the diagonal would give
        # cond 1.0 and a NaN response unless construction rejects it
        grid = FrequencyGrid(8)
        knots = np.tile(np.eye(2, dtype=complex), (5, 1, 1))
        knots[3, 0, 1] = np.nan
        with pytest.raises(ValueError, match=re.escape(f"omega = {float(grid.nodes[3])!r}")):
            SpectralDensityField.from_knots(grid, knots, np.eye(2))


class TestFieldsAreImmutable:
    """Each spectral field, with an identity or a smoothing operator, rejects every assignment and deletion."""

    @staticmethod
    def _fields():
        grid = FrequencyGrid(8)
        knots = np.ones((5, 2, 1), dtype=complex)
        for cls in (CrossSpectralField, FrequencyResponseField):
            yield cls.from_knots(grid, np.ones((5, 3, 1), dtype=complex), np.eye(3))
            yield cls.from_knots(grid, knots, np.full((3, 2), 0.5))
        yield SpectralDensityField.from_knots(grid, np.tile(np.eye(2, dtype=complex), (5, 1, 1)), np.eye(2))

    @pytest.mark.parametrize("read_first", [False, True])
    def test_no_attribute_can_be_set_or_deleted(self, read_first):
        arrays = ["knot_values", "operator", "half", "values"]
        for field in self._fields():
            names = arrays + {SpectralDensityField: ["condition_numbers"],
                              FrequencyResponseField: ["lag_sequence"]}.get(type(field), [])
            if read_first:                  # the lazy attributes, cached or not, stay read-only
                before = {name: getattr(field, name) for name in names}
            for name in names + ["grid", "n_series", "undeclared"]:
                with pytest.raises(AttributeError, match="immutable"):
                    setattr(field, name, np.zeros(1))
                with pytest.raises(AttributeError):
                    delattr(field, name)
            for name in names:
                array = getattr(field, name)
                assert not array.flags.writeable
                if read_first:
                    assert array is before[name]
            assert not hasattr(field, "undeclared")


class TestFilterCoefficients:
    def test_constant_response_is_lag_zero(self):
        grid = FrequencyGrid(64)
        values = np.full((64, 3, 2), 1.75, dtype=complex)
        resp = field_from_values(FrequencyResponseField, grid, values)
        with pytest.raises(ValueError, match="read-only"):
            resp.operator[0, 0] = 5.0       # the identity operator is read-only too
        coef = filter_coefficients(resp, 5)
        assert np.abs(coef[5] - 1.75).max() <= 1e-12
        mask = np.ones(11, dtype=bool)
        mask[5] = False
        assert np.abs(coef[mask]).max() <= 1e-12

    def test_shift_filter(self):
        grid = FrequencyGrid(64)
        values = np.exp(-1j * grid.nodes)[:, None, None] * np.ones((1, 1))
        resp = field_from_values(FrequencyResponseField, grid, values)
        coef = filter_coefficients(resp, 3)
        assert coef[4, 0, 0] == pytest.approx(1.0, abs=1e-12)   # lag +1
        mask = np.ones(7, dtype=bool)
        mask[4] = False
        assert np.abs(coef[mask]).max() <= 1e-12

    def test_round_trip_from_known_coefficients(self, rng):
        grid = FrequencyGrid(128)
        lags = np.arange(-2, 3)
        coef = rng.standard_normal((5, 4, 3))
        values = np.einsum("ln,lrd->nrd", np.exp(-1j * np.outer(lags, grid.nodes)), coef)
        resp = field_from_values(FrequencyResponseField, grid, values)
        recovered = filter_coefficients(resp, 2)
        assert np.abs(recovered - coef).max() <= 1e-12

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_folded_lags_match_the_full_node_sum(self, rng, d):
        # 2q - 1 = 13 lags on N = 8 nodes, through the lag-window transform, the solve and the quadrature
        grid, q, h_max = FrequencyGrid(8), 7, 3
        base = rng.standard_normal((2 * q - 1, d, d))
        base = base + np.transpose(base[::-1], (0, 2, 1))           # R_{-h} = R_h'
        base[q - 1] += (np.abs(base).sum() + 1.0) * np.eye(d)       # positive definite at every node
        spec = spectral_density_matrix(AutocovarianceSet(base, np.zeros(d)), grid)
        knots = lag_window_transform(rng.standard_normal((2 * q - 1, 4, d)), grid)
        cross = CrossSpectralField.from_knots(grid, knots, rng.standard_normal((6, 4)))
        resp = frequency_response(cross, spec, 1e8)
        lags = np.arange(-h_max, h_max + 1)
        full = np.einsum("lk,krd->lrd", np.exp(1j * np.outer(lags, grid.nodes)), resp.values) / grid.n_nodes
        assert np.abs(full.imag).max() <= 1e-14 * np.abs(resp.values).max()
        assert np.abs(filter_coefficients(resp, h_max) - full.real).max() <= 1e-14 * np.abs(resp.values).max()

    def test_grid_too_coarse_rejected(self):
        grid = FrequencyGrid(16)
        resp = field_from_values(FrequencyResponseField, grid, np.ones((16, 1, 1), dtype=complex))
        with pytest.raises(ValueError, match="n_omega"):
            filter_coefficients(resp, 8)


def _toy_fit(us_grid, coef, mean=None, d=1):
    eval_warped = np.linspace(0, 1, 9)
    coef = np.asarray(coef, dtype=float)
    return LaggedRegressionFit(
        filter_coef=coef,
        eval_tau=us_grid.maturities.copy(),
        eval_warped=eval_warped,
        mean_curve=np.full(9, 5.0) if mean is None else np.asarray(mean, dtype=float),
        macro_means=np.zeros(d),
    )


class TestPrediction:
    def test_zero_filter_returns_mean(self, us_grid, rng):
        fit = _toy_fit(us_grid, np.zeros((5, 9, 1)))
        macro = random_macro_panel(rng, 12, 1)
        pred = predict_panel(fit, macro)
        for t in (1, 6, 12):
            assert np.array_equal(pred[t - 1], fit.mean_curve)

    def test_mean_regressors_return_mean(self, us_grid, rng):
        coef = rng.standard_normal((5, 9, 2))
        fit = _toy_fit(us_grid, coef, d=2)
        macro = MacroPanel(values=np.zeros((10, 2)), series_names=("a", "b"))
        assert np.abs(predict_panel(fit, macro)[3] - fit.mean_curve).max() <= 1e-14

    def test_matches_loop_oracle_with_imputation(self, us_grid, rng):
        coef = rng.standard_normal((7, 9, 2))
        fit = _toy_fit(us_grid, coef, d=2)
        macro = random_macro_panel(rng, 15, 2)
        pred = predict_panel(fit, macro)
        for t in (1, 2, 8, 14, 15):   # boundary rows exercise the imputation
            expected = loop_prediction(fit, macro.values, fit.macro_means, t)
            assert np.allclose(pred[t - 1], expected, atol=1e-12)

    def test_prediction_affine_in_regressors(self, us_grid, rng):
        coef = rng.standard_normal((3, 9, 1))
        fit = _toy_fit(us_grid, coef, mean=np.zeros(9))   # zero mean: deviations are exact
        base = random_macro_panel(rng, 8, 1)
        doubled = MacroPanel(values=2.0 * base.values, series_names=base.series_names)
        dev1 = predict_panel(fit, base) - fit.mean_curve
        dev2 = predict_panel(fit, doubled) - fit.mean_curve
        assert np.array_equal(dev2, 2.0 * dev1)

    def test_eval_subset_lookup(self, us_grid, rng):
        coef = rng.standard_normal((3, 9, 1))
        fit = _toy_fit(us_grid, coef)
        macro = random_macro_panel(rng, 5, 1)
        full = predict_panel(fit, macro)
        sub = predict_panel(fit, macro, eval_points=[1 / 12, 30.0])
        assert np.array_equal(sub, full[:, [0, 8]])
        with pytest.raises(ValueError, match="evaluation grid"):
            predict_panel(fit, macro, eval_points=[4.0])

    def test_eval_lookup_takes_first_hit_and_names_first_miss(self, us_grid):
        fit = _toy_fit(us_grid, np.zeros((3, 9, 1)))
        taus = fit.eval_tau.copy()
        taus[4] = taus[3]                    # maturity 2.0 now sits at indices 3 and 4
        dup = replace(fit, eval_tau=taus)
        assert _eval_indices(dup, [2.0, 30.0, 2.0 * (1 + 1e-13)]).tolist() == [3, 8, 3]
        assert _eval_indices(dup, 0.5).tolist() == [1]
        with pytest.raises(ValueError, match=r"maturity 4\.0 is not"):
            _eval_indices(dup, [0.5, 4.0, 6.0])

    def test_boundary_rows_match_exactly_rounded_sum(self, rng):
        t_len, n_eval, d, h_max = 192, 9, 3, 12
        fit = LaggedRegressionFit(
            filter_coef=rng.standard_normal((2 * h_max + 1, n_eval, d)), eval_tau=np.linspace(0.1, 30.0, n_eval),
            eval_warped=np.linspace(0.0, 1.0, n_eval), mean_curve=5.0 + rng.standard_normal(n_eval),
            macro_means=rng.standard_normal(d))
        macro = random_macro_panel(rng, t_len, d)
        xc = macro.values - fit.macro_means
        pred = predict_panel(fit, macro)
        for t in (1, 2, t_len - 1, t_len):
            for c in range(n_eval):
                terms = [fit.mean_curve[c]] + [fit.filter_coef[l, c, j] * xc[t - 1 - h, j]
                                               for l, h in enumerate(fit.lags) if 1 <= t - h <= t_len
                                               for j in range(d)]
                assert abs(pred[t - 1, c] - math.fsum(terms)) <= 1e-15 * np.abs(terms).sum()

    def test_lags_must_run_symmetric_and_contiguous(self, us_grid):
        # the lags come from the shape of filter_coef, which must be odd along its first axis
        for n_lags in (2, 4, 0):
            with pytest.raises(ValueError, match=r"2H\+1 lags -H\.\.H"):
                replace(_toy_fit(us_grid, np.zeros((1, 9, 1))), filter_coef=np.zeros((n_lags, 9, 1)))
        fit = _toy_fit(us_grid, np.zeros((7, 9, 1)))
        assert np.array_equal(fit.lags, np.arange(-3, 4)) and not fit.lags.flags.writeable
        assert fit.lags is fit.lags and fit.max_lag == 3 and fit.lag_index(-3) == 0
        with pytest.raises(FrozenInstanceError):
            fit.lags = np.arange(7)
        with pytest.raises(TypeError, match="lags"):
            replace(fit, lags=np.arange(-3, 4))

    @pytest.mark.parametrize("t_len, d", [(192, 3), (60, 1), (300, 5)])
    def test_column_subset_prediction_is_bit_identical(self, rng, t_len, d):
        n_eval, h_max = 105, 12
        fit = LaggedRegressionFit(
            filter_coef=rng.standard_normal((2 * h_max + 1, n_eval, d)),
            eval_tau=np.linspace(0.1, 30.0, n_eval),
            eval_warped=np.linspace(0.0, 1.0, n_eval),
            mean_curve=5.0 + rng.standard_normal(n_eval),
            macro_means=rng.standard_normal(d),
        )
        macro = random_macro_panel(rng, t_len, d)
        cols = np.sort(rng.choice(n_eval, size=9, replace=False))
        assert np.array_equal(predict_panel(fit, macro, fit.eval_tau[cols]),
                              predict_panel(fit, macro)[:, cols])


class TestRSquared:
    def test_constant_panel_equal_to_mean_is_degenerate(self, us_grid, rng):
        fit = _toy_fit(us_grid, np.zeros((3, 9, 1)))
        panel = SparseYieldPanel.from_values(np.tile(fit.mean_curve, (6, 1)), us_grid)
        macro = random_macro_panel(rng, 6, 1)
        # data sits exactly on the stored mean curve: total sum of squares is zero
        with pytest.raises(DegenerateTotal):
            r_squared(panel, fit, macro)

    @pytest.mark.parametrize("alpha, beta, t_len", [
        *[(level, 0.0, t_len) for level in (0.0, 0.1, 1.0, 3.0, 5.25, 7.3, 100.0, -2.5)
          for t_len in (40, 120)],
        (0.3, 7.0, 60), (2.0, 0.1, 60), (1.0, -1.0, 60)])
    def test_panel_constant_in_time_is_degenerate(self, us_grid, alpha, beta, t_len):
        # alpha + beta tau~ at every date; the smoothed mean can miss it by round-off, which
        # leaves SS_total above 0.0
        values = np.tile(alpha + beta * np.linspace(0, 1, 9), (t_len, 1))
        panel = SparseYieldPanel.from_values(values, us_grid)
        with pytest.raises(DegenerateTotal):
            analyze(panel, random_macro_panel(np.random.default_rng(1), t_len, 2))

    def test_one_varying_maturity_is_enough(self, us_grid, rng):
        fit = _toy_fit(us_grid, np.zeros((3, 9, 1)))
        values = np.tile(fit.mean_curve, (6, 1))
        values[2, 4] += 1.0
        panel = SparseYieldPanel.from_values(values, us_grid)
        assert r_squared(panel, fit, random_macro_panel(rng, 6, 1)) == 0.0

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
        resp = field_from_values(FrequencyResponseField, grid, values)
        recovered = filter_coefficients(resp, h_max)
        inner = coef[degree - h_max: degree + h_max + 1]
        assert np.abs(recovered - inner).max() <= 1e-12
