from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

from sparselag import (FrequencyGrid, MacroPanel, MaturityGrid, RawCrossCovariances,
                       SparseYieldPanel, cross_spectral_density, mean_curve_warped,
                       naive_cross_spectral_density, raw_cross_cov, smoothing_operator)
from sparselag.mv_spectral import lagged_products
from conftest import random_macro_panel, random_sparse_panel


def _toy_setup():
    grid = MaturityGrid(np.array([1.0, 2.0, 3.0]))
    panel = SparseYieldPanel.from_values(np.array([[1.0, 1.0, 1.0],
                                                   [2.0, 2.0, 2.0],
                                                   [3.0, 3.0, 3.0]]), grid)
    macro = MacroPanel(values=np.array([[1.0], [0.0], [-1.0]]), series_names=("X1",))
    return panel, macro


class TestRawCrossCov:
    def test_centered_panel_gives_zeros(self, rng):
        # y == mu_Y pointwise is the degenerate case: zero-centered curves
        panel = random_sparse_panel(rng, 20, 4)
        macro = random_macro_panel(rng, 20, 2)
        col_means = np.nanmean(panel.values, axis=0)
        flat = SparseYieldPanel(values=np.tile(col_means, (20, 1)), observed=panel.observed,
                                maturity_grid=panel.maturity_grid)
        raw = raw_cross_cov(flat, macro, col_means, macro.values.mean(axis=0), 3)
        assert np.all(raw.sums == 0.0)

    def test_record_takes_no_span(self, rng):
        # the span is len(sums): a record cannot carry a q that disagrees with its sums
        panel = random_sparse_panel(rng, 20, 4)
        macro = random_macro_panel(rng, 20, 2)
        raw = raw_cross_cov(panel, macro, np.nanmean(panel.values, axis=0),
                            macro.values.mean(axis=0), 3)
        assert [f.name for f in fields(raw)] == ["sums", "counts"] and len(raw.sums) == 5
        with pytest.raises(TypeError, match="unexpected keyword argument 'q'"):
            RawCrossCovariances(sums=raw.sums, counts=raw.counts, q=3)
        with pytest.raises(TypeError):
            RawCrossCovariances(3, raw.sums, raw.counts)

    def test_hand_computed_three_points(self):
        panel, macro = _toy_setup()
        # single-maturity case padded to the minimum grid size with identical columns
        raw = raw_cross_cov(panel, macro, np.array([2.0, 2.0, 2.0]), np.zeros(1), 2)
        assert raw.sums.shape == (3, 3, 1)      # lags -1, 0, 1
        # centered curve (-1, 0, 1) against X = (1, 0, -1):
        # h = 0: -1*1 + 0*0 + 1*(-1); h = 1: (y2-2)X1 + (y3-2)X2; h = -1: (y1-2)X2 + (y2-2)X3
        assert np.allclose(raw.sums[:, :, 0], [[0.0] * 3, [-2.0] * 3, [0.0] * 3])
        assert np.array_equal(raw.counts, [[2.0] * 3, [3.0] * 3, [2.0] * 3])

    def test_t_range_length_at_edge_lag(self, rng):
        panel = random_sparse_panel(rng, 15, 3, missing_frac=0.0)
        macro = random_macro_panel(rng, 15, 1)
        q = 4
        raw = raw_cross_cov(panel, macro, np.zeros(3), np.zeros(1), q)
        for l in (0, 2 * q - 2):                # h = -(q-1) and h = q-1
            assert np.array_equal(raw.counts[l], [15 - (q - 1)] * 3)

    def test_count_excludes_missing(self, rng):
        panel = random_sparse_panel(rng, 12, 4, missing_frac=0.3)
        macro = random_macro_panel(rng, 12, 1)
        raw = raw_cross_cov(panel, macro, np.zeros(4), np.zeros(1), 2)
        counts = raw.counts             # lags -1, 0, 1
        assert np.array_equal(counts[1], panel.observed.sum(axis=0))
        assert np.array_equal(counts[2], panel.observed[1:].sum(axis=0))
        assert np.array_equal(counts[0], panel.observed[:-1].sum(axis=0))

    def test_counts_are_lagged_products_of_the_mask(self):
        # the counts' definition holds for any mask, so the cases run on a bare stand-in for
        # the panel: the panel type itself forbids empty columns and fewer than 3 maturities
        rng = np.random.default_rng(20231)
        for case in range(60):
            t_len, n_mat = int(rng.integers(1, 301)), int(rng.integers(1, 10))
            share = [0.0, 1.0, rng.random()][case % 3]
            observed = rng.random((t_len, n_mat)) >= share
            observed[:, rng.integers(n_mat)] = case % 3 != 2    # one column empty or full
            panel = SimpleNamespace(values=np.where(observed, 1.0, np.nan), observed=observed,
                                    n_times=t_len, n_maturities=n_mat)
            macro = random_macro_panel(rng, t_len, 1)
            for q in {1, int(rng.integers(1, t_len + 1)), t_len}:
                raw = raw_cross_cov(panel, macro, np.zeros(n_mat), np.zeros(1), q)
                oracle = lagged_products(observed, np.ones((t_len, 1)), q)[:, :, 0]
                assert np.array_equal(raw.counts, oracle), (case, t_len, n_mat, q)

    def test_horizon_mismatch_rejected(self, rng):
        panel = random_sparse_panel(rng, 10, 3)
        macro = random_macro_panel(rng, 11, 1)
        with pytest.raises(ValueError, match="horizons"):
            raw_cross_cov(panel, macro, np.zeros(3), np.zeros(1), 2)


class TestCrossSpectralDensity:
    def test_zero_products_give_zero_field(self):
        panel, macro = _toy_setup()
        flat = SparseYieldPanel.from_values(np.full((3, 3), 2.0), panel.maturity_grid)
        raw = raw_cross_cov(flat, macro, np.full(3, 2.0), np.zeros(1), 2)
        field = cross_spectral_density(raw, FrequencyGrid(16), smoothing_operator(raw, 0.8, np.linspace(0, 1, 5)))
        assert np.abs(field.values).max() == 0.0

    def test_only_lag_zero_makes_field_flat_in_frequency(self, rng):
        # all mass at h = 0: y constant over t kills every h != 0 product? no --
        # instead take q = 1 so only the lag-0 term enters the objective.
        panel = random_sparse_panel(rng, 10, 4, missing_frac=0.0)
        macro = random_macro_panel(rng, 10, 1)
        raw = raw_cross_cov(panel, macro, np.zeros(4), np.zeros(1), 1)
        field = cross_spectral_density(raw, FrequencyGrid(16), smoothing_operator(raw, 0.7, np.array([0.3, 0.6])))
        spread = np.abs(field.values - field.values[:1]).max()
        assert spread <= 1e-14

    def test_matches_naive_path(self, rng):
        for _ in range(10):
            t_len = int(rng.integers(8, 25))
            n_mat = int(rng.integers(3, 6))
            d = int(rng.integers(1, 3))
            q = int(rng.integers(1, 5))
            panel = random_sparse_panel(rng, t_len, n_mat)
            macro = random_macro_panel(rng, t_len, d)
            mean_curve = mean_curve_warped(panel, 2.0 / (n_mat - 1), np.linspace(0, 1, n_mat))
            mu_x = macro.values.mean(axis=0)
            grid = FrequencyGrid(16)
            eval_warped = rng.uniform(size=3)
            b_r = float(rng.uniform(1.2, 2.5)) / (n_mat - 1)
            raw = raw_cross_cov(panel, macro, mean_curve, mu_x, q)
            fast = cross_spectral_density(raw, grid, smoothing_operator(raw, b_r, eval_warped))
            naive = naive_cross_spectral_density(panel, macro, mean_curve, mu_x,
                                                 b_r, q, grid, eval_warped)
            assert np.abs(fast.values - naive).max() <= 1e-10

    def test_conjugate_symmetry(self, rng):
        panel = random_sparse_panel(rng, 30, 5)
        macro = random_macro_panel(rng, 30, 2)
        mean_curve = mean_curve_warped(panel, 0.5, np.linspace(0, 1, 5))
        raw = raw_cross_cov(panel, macro, mean_curve, macro.values.mean(axis=0), 4)
        field = cross_spectral_density(raw, FrequencyGrid(32), smoothing_operator(raw, 0.5, np.linspace(0, 1, 7)))
        flipped = field.values[(-np.arange(32)) % 32]
        assert np.abs(flipped - np.conj(field.values)).max() <= 1e-10

    def test_scaling_equivariance_bitwise(self, rng):
        # powers of two scale every float operation exactly
        panel = random_sparse_panel(rng, 18, 4)
        macro = random_macro_panel(rng, 18, 1)
        grid = FrequencyGrid(16)
        eval_warped = np.linspace(0, 1, 5)
        alpha, beta = 2.0, 4.0

        def field_for(y_scale, x_scale):
            scaled_panel = SparseYieldPanel(values=panel.values * y_scale, observed=panel.observed,
                                            maturity_grid=panel.maturity_grid)
            scaled_macro = MacroPanel(values=macro.values * x_scale, series_names=macro.series_names)
            mean_curve = mean_curve_warped(scaled_panel, 0.7, np.linspace(0, 1, 4))
            raw = raw_cross_cov(scaled_panel, scaled_macro, mean_curve,
                                scaled_macro.values.mean(axis=0), 3)
            return cross_spectral_density(raw, grid, smoothing_operator(raw, 0.7, eval_warped)).values

        base = field_for(1.0, 1.0)
        scaled = field_for(alpha, beta)
        assert np.array_equal(scaled, alpha * beta * base)

    def test_locality_far_maturity_cannot_leak(self, rng):
        grid = MaturityGrid(np.array([1.0, 2.0, 3.0, 4.0, 30.0]))
        t_len = 15
        values = 5.0 + rng.standard_normal((t_len, 5))
        macro = random_macro_panel(rng, t_len, 1)
        fgrid = FrequencyGrid(16)
        eval_warped = np.array([0.1, 0.2])     # far from the last knot at 1.0
        b_r = 0.3

        def field_with_last_column(col):
            vals = values.copy()
            vals[:, -1] = col
            panel = SparseYieldPanel.from_values(vals, grid)
            mean_curve = np.nanmean(vals, axis=0)
            raw = raw_cross_cov(panel, macro, mean_curve, macro.values.mean(axis=0), 3)
            return cross_spectral_density(raw, fgrid, smoothing_operator(raw, b_r, eval_warped)).values

        a = field_with_last_column(values[:, -1])
        b = field_with_last_column(values[:, -1] + 17.0)
        assert np.array_equal(a, b)
