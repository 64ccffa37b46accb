import copy
import pickle
import re
from collections.abc import Mapping
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from sparselag import (AutocovarianceSet, Config, CrossSpectralField, FrequencyGrid, FrequencyResponseField,
                       LaggedRegressionFit, MacroPanel, MaturityGrid, RawCrossCovariances, SimulationTruth,
                       SparseYieldPanel, SpectralDensityField, SyntheticSpec, US_MATURITIES, analyze,
                       bartlett_weights, estimate_autocovariances, filter_coefficients, frequency_response,
                       local_linear_operator, mean_curve_warped, predict_panel, r_squared, raw_cross_cov,
                       simulate_var1, var1_spectral_density)
from sparselag.mv_spectral import lag_window_transform, lagged_products
from conftest import field_from_values, random_macro_panel, random_sparse_panel


class TestMaturityGrid:
    def test_valid(self, us_grid):
        assert us_grid.n_maturities == 9
        assert us_grid.maturities[0] == pytest.approx(1 / 12)
        assert us_grid.maturities[-1] == 30.0

    @pytest.mark.parametrize("bad, phrase", [
        ([1.0, 2.0], "at least 3"),
        ([1.0, 2.0, 2.0], "strictly increasing"),
        ([3.0, 2.0, 1.0], "strictly increasing"),
        ([-1.0, 0.0, 1.0], "nonnegative"),
        ([0.0, np.inf, 1.0], "finite"),
    ])
    def test_rejects(self, bad, phrase):
        with pytest.raises(ValueError, match=phrase):
            MaturityGrid(np.array(bad))

    def test_immutable(self, us_grid):
        with pytest.raises(ValueError):
            us_grid.maturities[0] = 99.0


class TestSparseYieldPanel:
    def test_missing_normalized_to_nan(self, us_grid):
        values = np.ones((4, 9)) * 5.0
        observed = np.ones((4, 9), dtype=bool)
        observed[1, 3] = False
        panel = SparseYieldPanel(values=values, observed=observed, maturity_grid=us_grid)
        assert np.isnan(panel.values[1, 3])
        assert panel.n_times == 4

    def test_empty_row_rejected(self, us_grid):
        observed = np.ones((3, 9), dtype=bool)
        observed[2] = False
        with pytest.raises(ValueError, match="row 3"):
            SparseYieldPanel(values=np.zeros((3, 9)), observed=observed, maturity_grid=us_grid)

    def test_empty_column_rejected(self, us_grid):
        observed = np.ones((3, 9), dtype=bool)
        observed[:, 5] = False
        with pytest.raises(ValueError, match="column 6"):
            SparseYieldPanel(values=np.zeros((3, 9)), observed=observed, maturity_grid=us_grid)

    def test_nonfinite_observed_rejected(self, us_grid):
        values = np.zeros((3, 9))
        values[0, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            SparseYieldPanel(values=values, observed=np.ones((3, 9), dtype=bool),
                             maturity_grid=us_grid)

    def test_from_values_reads_nan_as_missing(self, us_grid):
        values = np.ones((2, 9))
        values[0, 4] = np.nan
        panel = SparseYieldPanel.from_values(values, us_grid)
        assert not panel.observed[0, 4]
        assert panel.observed.sum() == 17

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_from_values_rejects_infinity(self, us_grid, bad):
        # only NaN encodes a missing cell: an infinity is an observed value that is not finite
        values = np.ones((2, 9))
        values[0, 4] = bad
        with pytest.raises(ValueError, match="observed values must all be finite"):
            SparseYieldPanel.from_values(values, us_grid)
        values[0, 4], values[1, 2] = np.nan, np.nan
        panel = SparseYieldPanel.from_values(values, us_grid)
        assert not panel.observed[0, 4] and not panel.observed[1, 2] and panel.observed.sum() == 16


class TestMacroPanel:
    def test_valid(self):
        panel = MacroPanel(values=np.arange(6.0).reshape(3, 2), series_names=("a", "b"))
        assert panel.n_times == 3 and panel.n_series == 2

    def test_missing_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            MacroPanel(values=np.array([[1.0, np.nan]]), series_names=("a", "b"))

    def test_name_count_rejected(self):
        with pytest.raises(ValueError, match="names"):
            MacroPanel(values=np.ones((2, 2)), series_names=("only",))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate series name 'a'"):
            MacroPanel(values=np.ones((2, 3)), series_names=("a", "b", "a"))

    @pytest.mark.parametrize("name", ["fed funds, effective", 'say "rate"', "cr\rx", "lf\nx"])
    def test_csv_unsafe_names_rejected(self, name):
        with pytest.raises(ValueError, match="comma, quote or line break"):
            MacroPanel(values=np.ones((2, 2)), series_names=("ok", name))

    @pytest.mark.parametrize("name", ["", " ", " a", "b ", "\tx", "x\u00a0"])
    def test_empty_or_padded_names_rejected(self, name):
        # the CSV loader strips every name and rejects empty ones
        with pytest.raises(ValueError, match="empty, has surrounding whitespace"):
            MacroPanel(values=np.ones((2, 2)), series_names=("ok", name))

    def test_inner_whitespace_is_kept(self):
        panel = MacroPanel(values=np.ones((2, 2)), series_names=("fed funds", "cpi\tyoy"))
        assert panel.series_names == ("fed funds", "cpi\tyoy")


class TestFrequencyGrid:
    def test_nodes(self):
        grid = FrequencyGrid(4)
        assert np.allclose(grid.nodes, [-np.pi, -np.pi / 2, 0.0, np.pi / 2])
        assert grid.quadrature_weight == pytest.approx(np.pi / 2)

    @pytest.mark.parametrize("bad", [0, 1, 3, 7])
    def test_rejects_odd_or_tiny(self, bad):
        with pytest.raises(ValueError, match="even"):
            FrequencyGrid(bad)

    @staticmethod
    def _symmetric_field(rng, grid, shape=(3, 2)):
        size = (grid.n_nodes, *shape)
        half = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        return half + np.conj(half[(-np.arange(grid.n_nodes)) % grid.n_nodes])

    def test_mirror_restores_the_folded_nodes(self, rng):
        for n in (2, 4, 16):
            grid = FrequencyGrid(n)
            values = self._symmetric_field(rng, grid)
            mirrored = grid.mirror(values[: n // 2 + 1])
            assert np.array_equal(mirrored, values) and not mirrored.flags.writeable


class TestConfig:
    def test_defaults_follow_sqrt_rule(self):
        cfg = Config.defaults(192, 9)
        assert cfg.q == 14
        assert cfg.b_mu == pytest.approx(0.25)
        assert cfg.b_r == pytest.approx(0.25)
        assert cfg.n_omega is None and cfg.h_max == 12 and cfg.n_eval == 101     # None: analyze chooses N
        assert cfg.cond_threshold == 1e8

    @pytest.mark.parametrize("kwargs, phrase", [
        (dict(b_mu=0.0), "b_mu"),
        (dict(b_r=1.5), "b_r"),
        (dict(q=0), "q must"),
        (dict(h_max=-1), "h_max"),
        (dict(n_eval=1), "n_eval"),
        (dict(cond_threshold=1.0), "cond_threshold"),
        (dict(n_omega=25), "n_omega"),
        (dict(n_omega=10), "n_omega"),
        (dict(cond_threshold=float("nan")), "cond_threshold"),
        (dict(cond_threshold=float("inf")), "cond_threshold"),
        (dict(q=4.5), "q must be a positive integer, got 4.5"),
        (dict(h_max=2.5), "h_max must be an integer"),
        (dict(n_omega=64.0), "n_omega must be an integer"),
        (dict(n_eval=20.5), "n_eval must be an integer"),
    ])
    def test_rejects(self, kwargs, phrase):
        base = dict(b_mu=0.25, b_r=0.25, q=14)
        base.update(kwargs)
        with pytest.raises(ValueError, match=phrase):
            Config(**base)


def _rows(macro, n):
    """The regressor panel cut or extended (by repeating its first row) to n periods."""
    values = np.resize(macro.values, (n, macro.n_series))
    return MacroPanel(values, macro.series_names)


def _fit(panel):
    """A zero filter at the panel's maturities: enough for r_squared to reach its checks."""
    r = panel.n_maturities
    return LaggedRegressionFit(np.zeros((1, r, 1)), panel.maturity_grid.maturities,
                               np.linspace(0.0, 1.0, r), np.zeros(r), np.zeros(1))


def _response(n_omega):
    return field_from_values(FrequencyResponseField, FrequencyGrid(n_omega),
                             np.ones((n_omega, 1, 1), dtype=complex))


def _response_at(cond_threshold):
    """The response solve of a 2-series field on a density whose every node has condition number 1."""
    cross = CrossSpectralField.from_knots(FrequencyGrid(8), np.ones((5, 2, 2)), np.eye(2))
    return frequency_response(cross, _HOLDERS["SpectralDensityField"](False)[0], cond_threshold)


_HORIZONS = "panel horizons differ: curves have T=30, regressors T={}"
_EVEN_STACK = "{} must have 3 axes, the first an odd number of lags (2H+1 lags -H..H), got shape {}"
_RULE_VIOLATIONS = {   # case: (call on a T = 30 curve panel and 1-series regressor panel, message)
    "analyze, unequal T": (lambda p, x: analyze(p, _rows(x, 31)), _HORIZONS.format(31)),
    "analyze, Config q > T": (lambda p, x: analyze(p, x, Config(b_mu=0.5, b_r=0.5, q=31)),
                              "window span q=31 exceeds the horizon T=30"),
    "raw_cross_cov, q = 0": (lambda p, x: raw_cross_cov(p, x, np.zeros(4), np.zeros(1), 0),
                             "q must be a positive integer, got 0"),
    "raw_cross_cov, q > T": (lambda p, x: raw_cross_cov(p, x, np.zeros(4), np.zeros(1), 31),
                             "window span q=31 exceeds the horizon T=30"),
    "raw_cross_cov, unequal T": (lambda p, x: raw_cross_cov(p, _rows(x, 31), np.zeros(4), np.zeros(1), 2),
                                 _HORIZONS.format(31)),
    "lagged_products, longer regressors": (lambda p, x: lagged_products(p.observed, _rows(x, 31).values, 2),
                                           _HORIZONS.format(31)),
    "lagged_products, shorter regressors": (lambda p, x: lagged_products(p.observed, _rows(x, 29).values, 2),
                                            _HORIZONS.format(29)),
    "estimate_autocovariances, q = 0": (lambda p, x: estimate_autocovariances(x, 0),
                                        "q must be a positive integer, got 0"),
    "estimate_autocovariances, q > T": (lambda p, x: estimate_autocovariances(x, 31),
                                        "window span q=31 exceeds the horizon T=30"),
    "bartlett_weights, q = 0": (lambda p, x: bartlett_weights(0), "q must be a positive integer, got 0"),
    "bartlett_weights, fractional q": (lambda p, x: bartlett_weights(2.5), "q must be a positive integer, got 2.5"),
    "estimate_autocovariances, fractional q": (lambda p, x: estimate_autocovariances(x, 2.5),
                                               "q must be a positive integer, got 2.5"),
    "r_squared, 1-row regressors": (lambda p, x: r_squared(p, _fit(p), _rows(x, 1)), _HORIZONS.format(1)),
    "filter_coefficients, h_max = -1": (lambda p, x: filter_coefficients(_response(16), -1),
                                        "h_max must be nonnegative, got -1"),
    "filter_coefficients, N < 2 h_max + 2": (lambda p, x: filter_coefficients(_response(16), 8),
                                             "n_omega must be even and >= 2*h_max + 2 = 18, got 16"),
    "filter_coefficients, fractional h_max": (lambda p, x: filter_coefficients(_response(16), 2.5),
                                              "h_max must be an integer, got 2.5"),
    "filter_coefficients, h_max as text": (lambda p, x: filter_coefficients(_response(16), "3"),
                                           "h_max must be an integer, got '3'"),
    "frequency_response, NaN cond_threshold": (lambda p, x: _response_at(np.nan),
                                               "cond_threshold must be finite and exceed 1, got nan"),
    "frequency_response, infinite cond_threshold": (lambda p, x: _response_at(np.inf),
                                                    "cond_threshold must be finite and exceed 1, got inf"),
    "frequency_response, cond_threshold 1": (lambda p, x: _response_at(1.0),
                                             "cond_threshold must be finite and exceed 1, got 1.0"),
    "frequency_response, cond_threshold below 1": (lambda p, x: _response_at(0.5),
                                                   "cond_threshold must be finite and exceed 1, got 0.5"),
    "local_linear_operator, NaN bandwidth": (lambda p, x: local_linear_operator(np.ones(4), [0.5], np.nan),
                                             "bandwidth must be positive, got nan"),
    "mean_curve_warped, NaN bandwidth": (lambda p, x: mean_curve_warped(p, np.nan, [0.5]),
                                         "bandwidth must be positive, got nan"),
    "AutocovarianceSet, even lag count": (lambda p, x: AutocovarianceSet(np.zeros((2, 1, 1)), np.zeros(1)),
                                          _EVEN_STACK.format("matrices", (2, 1, 1))),
    "RawCrossCovariances, even lag count": (lambda p, x: RawCrossCovariances(np.ones((4, 3, 1)), np.ones((4, 3))),
                                            _EVEN_STACK.format("sums", (4, 3, 1))),
    "RawCrossCovariances, counts not matching sums": (
        lambda p, x: RawCrossCovariances(np.ones((3, 4, 1)), np.ones((3, 3))),
        "counts must have shape (3, 4), as sums without its last axis"),
    "LaggedRegressionFit, even lag count": (
        lambda p, x: LaggedRegressionFit(np.zeros((2, 4, 1)), p.maturity_grid.maturities, np.linspace(0, 1, 4),
                                         np.zeros(4), np.zeros(1)),
        _EVEN_STACK.format("filter_coef", (2, 4, 1))),
    "lag_window_transform, even lag count": (
        lambda p, x: lag_window_transform(np.ones((4, 3, 1)), FrequencyGrid(16)),
        "lag values must have a first axis of an odd number of lags (2H+1 lags -H..H), got shape (4, 3, 1)"),
    "raw_cross_cov, two means for one series": (lambda p, x: raw_cross_cov(p, x, np.zeros(4), np.zeros(2), 2),
                                                "macro_means must hold one value per regressor series"),
    "LaggedRegressionFit, one mean for two series": (
        lambda p, x: replace(_fit(p), filter_coef=np.zeros((1, 4, 2)), macro_means=[0.5]),
        "macro_means must hold one value per regressor series"),
    "AutocovarianceSet, non-finite mean": (lambda p, x: AutocovarianceSet(np.eye(2)[None], [np.nan, np.inf]),
                                           "mean must be finite"),
    "AutocovarianceSet, (2, 1) mean": (lambda p, x: AutocovarianceSet(np.eye(2)[None], np.zeros((2, 1))),
                                       "mean must hold one value per regressor series"),
}


class TestInputRules:
    """Each input rule (equal horizons, window span 1 <= q <= T, lag reach: integers h_max >= 0 and
    n_omega >= 2 h_max + 2, a condition-number ceiling 1 < cond_threshold < inf, a positive bandwidth
    (NaN is not), regressor means a finite vector of d values, the lag-stack format: an odd first
    axis of 2H+1 lags, which the counts of the raw cross-covariances share) raises the same
    ValueError from every public stage or type that needs it."""

    @pytest.mark.parametrize("case", _RULE_VIOLATIONS)
    def test_stage_raises_the_rules_error(self, rng, case):
        call, message = _RULE_VIOLATIONS[case]
        panel, macro = random_sparse_panel(rng, 30, 4), random_macro_panel(rng, 30, 1)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(panel, macro)


_INPUT_CHECKS = {   # case: (call on a T = 30 curve panel of 4 maturities and 1-series regressor panel, message)
    "FrequencyGrid, fractional size": (lambda p, x: FrequencyGrid(64.7), "n_nodes must be an integer, got 64.7"),
    "FrequencyGrid, size as text": (lambda p, x: FrequencyGrid("64"), "n_nodes must be an integer, got '64'"),
    "MaturityGrid, 2-d maturities": (lambda p, x: MaturityGrid(np.ones((3, 1))),
                                     "maturities must be a one-dimensional sequence"),
    "SparseYieldPanel, 1-d values": (lambda p, x: SparseYieldPanel(np.ones(4), np.ones(4, bool), p.maturity_grid),
                                     "panel values must be a T x I matrix"),
    "SparseYieldPanel, mask of another shape": (lambda p, x: replace(p, observed=p.observed[1:]),
                                                "observed mask must match the shape of values"),
    "SparseYieldPanel, columns not matching the grid": (
        lambda p, x: replace(p, values=p.values[:, 1:], observed=p.observed[:, 1:]),
        "panel has 3 columns but the maturity grid has 4 points"),
    "SparseYieldPanel, no time point": (lambda p, x: replace(p, values=p.values[:0], observed=p.observed[:0]),
                                        "panel must contain at least one time point"),
    "MacroPanel, 1-d values": (lambda p, x: replace(x, values=x.values[:, 0]),
                               "regressor values must be a T x d matrix"),
    "MacroPanel, no time point": (lambda p, x: replace(x, values=x.values[:0]), "regressor panel must be non-empty"),
    "LaggedRegressionFit, grid not matching filter_coef": (lambda p, x: replace(_fit(p), eval_tau=np.ones(3)),
                                                           "evaluation grids and mean curve must match filter_coef"),
    "LaggedRegressionFit, non-finite filter": (
        lambda p, x: replace(_fit(p), filter_coef=np.full((1, 4, 1), np.nan)), "filter coefficients must be finite"),
    "LaggedRegressionFit, non-finite mean curve": (lambda p, x: replace(_fit(p), mean_curve=np.full(4, np.inf)),
                                                   "mean_curve must be finite"),
    "LaggedRegressionFit, non-finite regressor mean": (lambda p, x: replace(_fit(p), macro_means=[np.nan]),
                                                       "macro_means must be finite"),
    "LaggedRegressionFit, non-finite evaluation grids": (
        lambda p, x: LaggedRegressionFit(np.zeros((1, 2, 1)), [np.nan, np.inf], [5.0, -3.0], [0.0, 0.0], [0.0]),
        "eval_tau and eval_warped must be finite"),
    "LaggedRegressionFit, non-finite warped point": (
        lambda p, x: replace(_fit(p), eval_warped=[0.0, np.nan, 0.5, 1.0]), "eval_tau and eval_warped must be finite"),
    "LaggedRegressionFit, warped point outside [0, 1]": (
        lambda p, x: replace(_fit(p), eval_warped=np.linspace(-0.5, 1.0, 4)), "eval_warped must lie in [0, 1]"),
    "LaggedRegressionFit.lag_index, lag outside the stack": (lambda p, x: _fit(p).lag_index(1),
                                                             "lag 1 outside the stored range 0..0"),
    "AutocovarianceSet, matrices not square": (lambda p, x: AutocovarianceSet(np.zeros((1, 1, 2)), np.zeros(1)),
                                               "matrices must have shape (2q-1, d, d)"),
    "AutocovarianceSet, asymmetric lag 0": (lambda p, x: AutocovarianceSet([[[1.0, 0.5], [0.0, 1.0]]], np.zeros(2)),
                                            "lag-0 autocovariance must be symmetric"),
    "AutocovarianceSet, negative lag 0": (lambda p, x: AutocovarianceSet([[[-1.0]]], np.zeros(1)),
                                          "lag-0 autocovariance must be positive semidefinite"),
    "SyntheticSpec, dimensions disagree": (lambda p, x: replace(_spec([[0.5]]), macro_mean=np.zeros(2)),
                                           "ar_coef, innovation_cov and macro_mean disagree on the dimension d"),
    "SyntheticSpec, no time point": (lambda p, x: replace(_spec([[0.5]]), n_times=0), "n_times must be positive"),
    "SyntheticSpec, fractional n_times": (lambda p, x: replace(_spec([[0.5]]), n_times=20.5),
                                          "n_times must be an integer, got 20.5"),
    "SyntheticSpec, fractional seed": (lambda p, x: replace(_spec([[0.5]]), seed=1.5), "seed must be an integer, got 1.5"),
    "SyntheticSpec, asymmetric covariance": (
        lambda p, x: replace(_spec([[0.5]]), ar_coef=0.5 * np.eye(2), innovation_cov=[[1.0, 0.5], [0.0, 1.0]],
                             macro_mean=np.zeros(2)),
        "innovation covariance must be symmetric"),
    "SyntheticSpec, filter of a missing series": (
        lambda p, x: replace(_spec([[0.5]]), filter_fns={(0, 1): np.ones_like}), "filter series index 1 outside 0..0"),
    "SyntheticSpec, unit root": (lambda p, x: _spec([[1.0]]),
                                 "ar_coef spectral radius must be < 1 for stationarity, got 1.0000"),
    "var1_spectral_density, unit root": (lambda p, x: var1_spectral_density([[1.0]], [[1.0]], FrequencyGrid(8)),
                                         "ar_coef spectral radius must be < 1 for stationarity, got 1.0000"),
    "local_linear_operator, zero bandwidth": (lambda p, x: local_linear_operator(np.ones(4), [0.5], 0.0),
                                              "bandwidth must be positive, got 0.0"),
    "raw_cross_cov, mean curve not at the maturities": (lambda p, x: raw_cross_cov(p, x, np.zeros(3), np.zeros(1), 2),
                                                        "mean_curve must hold one value per panel maturity"),
    "frequency_response, d disagrees": (
        lambda p, x: frequency_response(CrossSpectralField.from_knots(FrequencyGrid(8), np.ones((5, 2, 1)), np.eye(2)),
                                        _HOLDERS["SpectralDensityField"](False)[0], 1e8),
        "cross-spectral field and spectral density disagree on d"),
    "predict_panel, d disagrees": (lambda p, x: predict_panel(_fit(p), MacroPanel(np.ones((5, 2)), ("a", "b"))),
                                   "fit and regressor panel disagree on the number of series"),
    "CrossSpectralField, non-finite operator": (
        lambda p, x: CrossSpectralField.from_knots(FrequencyGrid(8), np.ones((5, 3, 1)), np.full((2, 3), np.nan)),
        "CrossSpectralField operator not finite"),
}


class TestInputChecks:
    """Each input check of a public type or stage outside the rules above raises its ValueError with its exact
    message."""

    @pytest.mark.parametrize("case", _INPUT_CHECKS)
    def test_check_raises_its_error(self, rng, case):
        call, message = _INPUT_CHECKS[case]
        panel, macro = random_sparse_panel(rng, 30, 4), random_macro_panel(rng, 30, 1)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(panel, macro)


def _spec(ar_coef):
    return SyntheticSpec(maturity_grid=MaturityGrid(np.array(US_MATURITIES)), n_times=40, ar_coef=ar_coef,
                         innovation_cov=np.eye(1), macro_mean=np.zeros(1), seed=3)


def _holder(lock, cls, *arrays, **keywords):
    """An instance built from the positional arrays, which the caller keeps; keywords are not inputs.
    With lock the arrays are read-only when the instance is built; the caller owns them, so it can
    make them writeable again."""
    for array in arrays:
        array.flags.writeable = not lock
    return cls(*arrays, **keywords), list(arrays)


def _spectral_holder(lock, cls):
    return _holder(lock, partial(cls.from_knots, FrequencyGrid(8)), np.ones((5, 2, 1), dtype=complex),
                   np.full((3, 2), 0.5))


_HOLDERS = {   # type: lock -> (instance, the caller's arrays it was built from)
    "MaturityGrid": lambda lock: _holder(lock, MaturityGrid, np.array([0.5, 1.0, 2.0])),
    "SparseYieldPanel": lambda lock: _holder(lock, SparseYieldPanel, np.arange(12.0).reshape(4, 3),
                                             np.ones((4, 3), bool),
                                             maturity_grid=MaturityGrid(np.array([0.5, 1.0, 2.0]))),
    "MacroPanel": lambda lock: _holder(lock, MacroPanel, np.arange(8.0).reshape(4, 2), series_names=("a", "b")),
    "LaggedRegressionFit": lambda lock: _holder(lock, LaggedRegressionFit, np.ones((3, 2, 1)), np.array([1.0, 2.0]),
                                                np.array([0.0, 1.0]), np.zeros(2), np.zeros(1)),
    "AutocovarianceSet": lambda lock: _holder(lock, AutocovarianceSet, np.array([[[0.5]], [[1.0]], [[0.5]]]),
                                              np.zeros(1)),
    "RawCrossCovariances": lambda lock: _holder(lock, RawCrossCovariances, np.ones((3, 2, 1)), np.ones((3, 2))),
    "SyntheticSpec": lambda lock: _holder(lock, _spec, np.array([[0.5]])),
    "SimulationTruth": lambda lock: _holder(
        lock, partial(SimulationTruth, _HOLDERS["LaggedRegressionFit"](False)[0]), np.ones((4, 2))),
    "CrossSpectralField": lambda lock: _spectral_holder(lock, CrossSpectralField),
    "FrequencyResponseField": lambda lock: _spectral_holder(lock, FrequencyResponseField),
    "SpectralDensityField": lambda lock: _holder(lock, partial(SpectralDensityField.from_knots, FrequencyGrid(8)),
                                                 np.tile(np.eye(2, dtype=complex), (5, 1, 1)), np.eye(2)),
}


def _attributes(instance):
    """Every public attribute an instance exposes, by name."""
    return {name: getattr(instance, name) for name in dir(instance) if not name.startswith("_")}


def _array_attributes(instance):
    """Every array an instance exposes, by attribute name."""
    return {name: value for name, value in _attributes(instance).items() if isinstance(value, np.ndarray)}


def _stored_arrays(instance, prefix=""):
    """Every array an instance stores, also inside the value types it stores, by dotted attribute path."""
    found = {}
    for name, value in vars(instance).items():
        if isinstance(value, np.ndarray):
            found[prefix + name] = value
        elif type(value).__module__.startswith("sparselag."):
            found.update(_stored_arrays(value, f"{prefix}{name}."))
    return found


_COPIES = {"deepcopy": copy.deepcopy, "pickle": lambda instance: pickle.loads(pickle.dumps(instance))}
_COPY_CASES = [(name, how) for name in _HOLDERS for how in _COPIES]


def _overwrite(inputs):
    """Make the caller's arrays writeable and overwrite them."""
    for values in inputs:
        values.flags.writeable = True
        values[...] = ~values if values.dtype == bool else 1234.5


class TestReadOnlyCopies:
    """Every type that holds arrays keeps read-only copies: no attribute can be written, and writing
    to the caller's arrays after construction leaves the instance as it was, also when they were
    read-only at construction and the caller made them writeable again."""

    @pytest.mark.parametrize("lock", [False, True], ids=["writeable inputs", "read-only inputs"])
    @pytest.mark.parametrize("name", _HOLDERS)
    def test_arrays_are_read_only_copies(self, name, lock):
        instance, inputs = _HOLDERS[name](lock)
        before = {key: array.copy() for key, array in _array_attributes(instance).items()}
        assert before and all(not array.flags.writeable for array in _array_attributes(instance).values())
        _overwrite(inputs)
        after = _array_attributes(instance)
        assert after.keys() == before.keys()
        for key, array in before.items():
            assert np.array_equal(after[key], array), key

    @pytest.mark.parametrize("name, how", _COPY_CASES)
    def test_copies_keep_arrays_read_only(self, name, how):
        instance, _ = _HOLDERS[name](False)
        _array_attributes(instance)           # computes the cached arrays, so that the copy carries them
        stored = _stored_arrays(instance)
        copied = _stored_arrays(_COPIES[how](instance))
        assert copied.keys() == stored.keys()
        for key, array in copied.items():
            assert not array.flags.writeable, key
            assert np.array_equal(array, stored[key]), key

    @pytest.mark.parametrize("name", _HOLDERS)
    def test_no_attribute_is_a_mapping(self, name):
        instance, _ = _HOLDERS[name](False)
        assert [key for key, value in _attributes(instance).items() if isinstance(value, Mapping)] == []

    def test_monte_carlo_loop_reusing_one_ar_array(self):
        ar = np.empty((1, 1))
        specs = []
        for coef in (0.5, 0.9, 0.3):
            ar[0, 0] = coef
            specs.append(_spec(ar))
        ar[0, 0] = 3.0
        assert [spec.ar_coef[0, 0] for spec in specs] == [0.5, 0.9, 0.3]
        for spec, coef in zip(specs, (0.5, 0.9, 0.3)):
            assert np.array_equal(simulate_var1(spec).values, simulate_var1(_spec(np.array([[coef]]))).values)
