from dataclasses import fields, replace

import numpy as np
import pytest

import sparselag
from sparselag import (US_MATURITIES, Config, FrequencyGrid, FrequencyResponseField, LaggedRegressionFit, MaturityGrid,
                       SparseYieldPanel, SyntheticSpec, analyze, estimate_autocovariances, lagreg, pipeline,
                       r_squared, recovery_spec, simulate_lagged_regression, warp_apply)
from sparselag.lagreg import _eval_indices
from sparselag.pipeline import ALIASING_LEVEL, _aliasing_edge_ratio, _grid_sizes, evaluation_grid
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

    @pytest.mark.parametrize("maturities", [US_MATURITIES, (0.5, 2.0, 10.0), (0.25, 1.0, 2.0, 5.0, 30.0)])
    def test_lookup_finds_each_knot_once(self, maturities):
        # n_eval = 99 once kept warped 0.49999999999999994 next to the knot 0.5, and the lookup's
        # first hit on the US grid was that point, not the knot
        grid = MaturityGrid(np.array(maturities))
        for n_eval in range(2, 2001):
            warped, knot_idx = evaluation_grid(n_eval, grid.n_maturities)
            r = warped.size
            fit = LaggedRegressionFit(np.zeros((1, r, 1)), warp_apply(grid, warped), warped, np.zeros(r), np.zeros(1))
            assert np.array_equal(_eval_indices(fit, grid.maturities), knot_idx), f"n_eval = {n_eval}"


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
        assert d.truncation_tail_mass >= 0.0
        assert result.spectral_density.grid.n_nodes == 256      # q = 13, h_max = 12: 8 (q + h_max) = 200
        assert result.spectral_density.condition_numbers.shape == (129,)     # the nodes k = 0..N/2
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
            assert "values" not in vars(field)
            assert field.knot_values.shape[0] == 33            # the nodes k = 0..N/2
            values = field.values
            assert not values.flags.writeable
            assert not field.operator.flags.writeable
            # the real operator applied to the interleaved real and imaginary parts
            product = (field.operator @ field.knot_values.view(float)).view(complex)
            assert np.array_equal(values, field.grid.mirror(product))
            assert field.values is values
        # the knots of the density, and of any field with the identity operator, are read-only,
        # as is that operator
        density, b = result.spectral_density, result.frequency_response
        knots = b.values[:33]
        identity_built = FrequencyResponseField.from_knots(density.grid, knots, np.eye(knots.shape[1]))
        for field in (density, identity_built):
            assert not field.knot_values.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                field.operator[0, 0] = 5.0

    def test_values_mirror_the_stored_nodes_bit_for_bit(self):
        result = analyze(*_bench_panel(192, 3, 0))
        density, signs = result.spectral_density, lambda z: np.signbit(z.view(float))
        # the density mirrors its knots as they are; a product through the identity would read their -0.0 as +0.0
        knots = density.knot_values
        assert np.signbit(knots.imag[knots.imag == 0]).any()
        expected = {density: density.grid.mirror(knots)}
        for field in (result.cross_spectral, result.frequency_response):
            expected[field] = field.grid.mirror((field.operator @ field.knot_values.view(float)).view(complex))
        for field, values in expected.items():
            assert np.array_equal(field.values, values) and np.array_equal(signs(field.values), signs(values))
            assert not hasattr(field, "half")

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
        assert [f.name for f in fields(result.diagnostics)] == ["truncation_tail_mass", "max_condition_number",
                                                             "aliasing_edge_ratio"]
        assert not hasattr(result.spectral_density, "matrices")
        assert not hasattr(sparselag, "empirical_mean") and "empirical_mean" not in sparselag.__all__
        assert not hasattr(sparselag.mv_spectral, "empirical_mean")
        # the objects the result no longer carries are rebuilt from the inputs, bit for bit
        assert np.array_equal(warp_apply(panel.maturity_grid, result.fit.eval_warped),
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


def _bench_panel(t_len, d, seed):
    """The benchmark's panels: the 9 US maturities, d AR(1) regressors, the last driving the curves at lag 0
    through 1 - tau~, and about 10% of the cells missing, each month keeping one."""
    spec = SyntheticSpec(maturity_grid=MaturityGrid(np.array(US_MATURITIES)), n_times=t_len,
                         ar_coef=np.diag([0.8, 0.7, 0.9, 0.6, 0.75][:d]), innovation_cov=np.eye(d),
                         macro_mean=np.zeros(d), filter_fns={(0, d - 1): lambda t: 1.0 - t},
                         curve_error_scale=0.3, noise_sd=0.1, seed=seed)
    panel, macro, _ = simulate_lagged_regression(spec)
    rng = np.random.default_rng([seed, 1])
    missing = rng.random(panel.values.shape) < 0.1
    empty = np.flatnonzero(missing.all(axis=1))
    missing[empty, rng.integers(0, panel.n_maturities, size=empty.size)] = False
    return SparseYieldPanel.from_values(np.where(missing, np.nan, panel.values), panel.maturity_grid), macro


class TestFrequencyGridChoice:
    """``pipeline`` owns the grid choice.  Without an n_omega, analyze starts at the smallest power of two
    >= 8 (q + h_max) and doubles, at most twice, while ``_aliasing_edge_ratio`` of the response exceeds
    ALIASING_LEVEL; an explicit n_omega is used as given.  A pass is one frequency-response solve; the quadrature
    runs once, on the response of the last pass."""

    @staticmethod
    def _count_passes(monkeypatch, stage="frequency_response"):
        passes, call = [], getattr(lagreg, stage)
        monkeypatch.setattr(lagreg, stage, lambda *args: passes.append(args) or call(*args))
        return passes

    def test_start_is_the_power_of_two_at_eight_nodes_per_lag(self):
        for q in range(1, 201):
            for h_max in range(61):
                sizes = _grid_sizes(q, h_max)
                first = sizes[0]
                assert first & (first - 1) == 0 and first // 2 < 8 * (q + h_max) <= first, (q, h_max)
                assert first >= 2 * h_max + 2 and sizes == [first, 2 * first, 4 * first]

    @pytest.mark.parametrize("seed", [5, 18])
    def test_a_doubled_grid_runs_one_quadrature(self, monkeypatch, seed):
        passes = self._count_passes(monkeypatch)
        quadratures = self._count_passes(monkeypatch, "filter_coefficients")
        result = analyze(*_bench_panel(192, 3, seed))
        assert [args[0].grid.n_nodes for args in passes] == [256, 512]
        assert len(quadratures) == 1 and quadratures[0][0] is result.frequency_response
        assert result.frequency_response.grid.n_nodes == 512

    @pytest.mark.parametrize("seed", [0, 7919])
    def test_case_study_shape_takes_256_nodes_in_one_pass(self, monkeypatch, seed):
        passes = self._count_passes(monkeypatch)
        result = analyze(*_bench_panel(192, 3, seed))        # q = 14, h_max = 12: 8 (q + h_max) = 208
        assert result.spectral_density.grid.n_nodes == 256 and len(passes) == 1
        assert result.diagnostics.aliasing_edge_ratio <= ALIASING_LEVEL

    def test_recovery_spec_takes_512_nodes_in_one_pass(self, monkeypatch):
        passes = self._count_passes(monkeypatch)
        panel, macro, _ = simulate_lagged_regression(recovery_spec(0))
        result = analyze(panel, macro)                       # q = 45: 8 (q + h_max) = 456
        assert result.spectral_density.grid.n_nodes == 512 and len(passes) == 1

    def test_an_edge_above_the_level_doubles_the_grid(self, monkeypatch):
        panel, macro = _bench_panel(192, 3, 18)
        fixed = {n: analyze(panel, macro, Config.defaults(192, 9, n_omega=n)) for n in (256, 512)}
        assert fixed[256].diagnostics.aliasing_edge_ratio > ALIASING_LEVEL     # measured 3.7e-9
        passes = self._count_passes(monkeypatch)
        result = analyze(panel, macro)
        assert result.spectral_density.grid.n_nodes == 512 and len(passes) == 2
        assert [args[0].grid.n_nodes for args in passes] == [256, 512]
        assert result.diagnostics == fixed[512].diagnostics
        assert result.diagnostics.aliasing_edge_ratio <= ALIASING_LEVEL
        assert np.array_equal(result.fit.filter_coef, fixed[512].fit.filter_coef)

    def test_a_panel_that_never_meets_the_level_stops_at_the_cap(self, monkeypatch):
        # a regressor near a unit root and q = 2: F^-1 decays slowly in lag; 16 nodes at first
        panel, macro, _ = simulate_lagged_regression(replace(recovery_spec(0), n_times=300, ar_coef=[[0.95]]))
        passes = self._count_passes(monkeypatch)
        result = analyze(panel, macro, Config.defaults(300, 9, q=2, h_max=0))
        assert [args[0].grid.n_nodes for args in passes] == [16, 32, 64]
        assert result.spectral_density.grid.n_nodes == 64
        assert result.diagnostics.aliasing_edge_ratio > ALIASING_LEVEL           # measured 1.9e-8

    def test_an_explicit_grid_never_doubles(self, monkeypatch):
        passes = self._count_passes(monkeypatch)
        result = analyze(*_bench_panel(192, 3, 18), Config.defaults(192, 9, n_omega=256))
        assert result.spectral_density.grid.n_nodes == 256 and len(passes) == 1
        assert result.diagnostics.aliasing_edge_ratio > ALIASING_LEVEL

    @pytest.mark.parametrize("seed, n_passes", [(0, 1), (5, 2), (18, 2)])
    def test_the_aliasing_figure_is_computed_once_per_pass(self, monkeypatch, seed, n_passes):
        figures = []
        def counted(response):
            figures.append((response, _aliasing_edge_ratio(response)))
            return figures[-1][1]
        monkeypatch.setattr(pipeline, "_aliasing_edge_ratio", counted)
        result = analyze(*_bench_panel(192, 3, seed))
        assert len(figures) == n_passes and figures[-1][0] is result.frequency_response
        assert result.diagnostics.aliasing_edge_ratio == figures[-1][1]

    def test_edge_ratio_reads_the_quadrature_lag_sequence(self):
        result = analyze(*_bench_panel(192, 3, 7919))
        response = result.frequency_response
        n = response.grid.n_nodes
        lags = np.abs(np.fft.irfft(response.knot_values, n, axis=0))
        ratio = max(lags[n // 2 - 1].max(), lags[n // 2 + 1].max()) / lags.max()
        assert _aliasing_edge_ratio(response) == ratio == result.diagnostics.aliasing_edge_ratio
        assert np.array_equal(response.lag_sequence, np.fft.irfft(response.knot_values, n, axis=0))
        # the diagnostics hold the figure; the response does not carry a copy
        assert not hasattr(response, "aliasing_edge_ratio")

    def test_zero_response_reads_a_zero_edge_ratio(self):
        resp = FrequencyResponseField.from_knots(FrequencyGrid(16), np.zeros((9, 3, 2)), np.eye(3))
        assert _aliasing_edge_ratio(resp) == 0.0
        assert np.array_equal(lagreg.filter_coefficients(resp, 4), np.zeros((9, 3, 2)))

    @pytest.mark.parametrize("shape", [(192, 3), (2000, 5), (12000, 3)])
    @pytest.mark.parametrize("seed", [0, 7919])
    def test_edge_ratio_bounds_the_filter_error(self, shape, seed):
        # the max-abs filter error against a 4,096-node run, relative to max |b|, is at most the edge ratio
        # wherever it is above rounding; measured smallest margin 1.2x, at (12000, 3), seed 7919, N = 64
        panel, macro = _bench_panel(*shape, seed)
        fine = analyze(panel, macro, Config.defaults(shape[0], 9, n_omega=4096)).fit.filter_coef
        above_rounding = []
        for n in (64, 128, 256, 512):
            result = analyze(panel, macro, Config.defaults(shape[0], 9, n_omega=n))
            error = np.abs(result.fit.filter_coef - fine).max() / np.abs(fine).max()
            if error > 1e-14:
                above_rounding.append(n)
                assert error <= result.diagnostics.aliasing_edge_ratio, (n, error)
        assert 64 in above_rounding

    @pytest.mark.parametrize("shape, seed", [((192, 3), 0), ((192, 3), 18), ((60, 5), 0), ((500, 3), 7919)])
    def test_filter_matches_an_8192_node_grid(self, shape, seed):
        panel, macro = _bench_panel(*shape, seed)
        result = analyze(panel, macro)
        fine = analyze(panel, macro, replace(result.config, n_omega=8192)).fit.filter_coef
        assert np.abs(result.fit.filter_coef - fine).max() <= 2e-15 * np.abs(fine).max()
