import numpy as np
import pytest

from sparselag import (SingularDesign, SparseYieldPanel, epanechnikov,
                       estimate_mean_curve, local_linear_operator, mean_curve_warped)
from conftest import random_sparse_panel
from oracles import lstsq_locallin


class TestEpanechnikov:
    def test_values(self):
        assert epanechnikov(0.0) == 0.75
        assert epanechnikov(1.0) == 0.0
        assert epanechnikov(-1.0) == 0.0
        assert epanechnikov(-2.0) == 0.0
        assert epanechnikov(0.5) == pytest.approx(0.5625)

    def test_symmetric_nonnegative(self, rng):
        v = rng.uniform(-3, 3, size=200)
        k = epanechnikov(v)
        assert np.all(k >= 0)
        assert np.allclose(k, epanechnikov(-v))


class TestLocallinFit:
    """The local-linear fit as the knot-level operator: c0 = L @ (w * z)."""

    def test_constant_reproduction(self, rng):
        w = rng.uniform(0.5, 2.0, size=7)
        c0 = local_linear_operator(w, [0.4], 1.0) @ (w * 5.0)
        assert c0[0] == pytest.approx(5.0, abs=1e-12)

    def test_affine_reproduction_with_sign(self, rng):
        # u = x0 - x_i; a flipped sign would reproduce 2 + 3*(2*x0 - x) instead
        w = rng.uniform(0.5, 2.0, size=5)
        x = np.linspace(0.0, 1.0, 5)
        x0 = np.array([0.0, 0.45, 0.8, 1.0])
        c0 = local_linear_operator(w, x0, 1.0) @ (w * (2.0 + 3.0 * x))
        assert np.abs(c0 - (2.0 + 3.0 * x0)).max() <= 1e-12

    def test_constant_complex(self):
        w = np.ones(3)
        c0 = local_linear_operator(w, [0.5], 2.0) @ (w * np.full(3, 1j))
        assert c0[0] == pytest.approx(1j, abs=1e-12)

    def test_real_responses_in_complex_fit_stay_real(self, rng):
        w = rng.uniform(0.1, 2.0, size=9)
        op = local_linear_operator(w, rng.uniform(size=4), 0.5)
        assert op.dtype == float
        c0 = op @ (w * rng.standard_normal(9).astype(complex))
        assert np.all(c0.imag == 0.0)

    def test_matches_lstsq_oracle(self, rng):
        for _ in range(25):
            n = int(rng.integers(4, 30))
            x = np.linspace(0.0, 1.0, n)
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            x0 = float(rng.uniform(0.2, 0.8))
            w = rng.uniform(0.1, 2.0, size=n) * (rng.uniform(size=n) > 0.3)
            w[np.argsort(np.abs(x0 - x))[:2]] = rng.uniform(0.1, 2.0, size=2)
            c0 = local_linear_operator(w, [x0], 0.6) @ (w * z)
            o0, _ = lstsq_locallin(x, z, w * epanechnikov((x0 - x) / 0.6), x0)
            assert abs(c0[0] - o0) <= 1e-10

    def test_weight_locality_bit_for_bit(self, rng):
        # knots 0, .25, .5, .75, 1; windows around 0.2 and 0.3 end before 0.75
        w = rng.uniform(0.5, 2.0, size=5)
        moved = w.copy()
        moved[3:] = [0.0, 7.0]
        eval_warped = np.array([0.2, 0.3])
        full = local_linear_operator(w, eval_warped, 0.4)
        assert np.all(full[:, 3:] == 0.0)
        assert np.array_equal(full, local_linear_operator(moved, eval_warped, 0.4))

    def test_linearity_in_responses(self, rng):
        w = rng.uniform(0.5, 2.0, size=8)
        op = local_linear_operator(w, np.linspace(0, 1, 6), 0.5)
        z1 = rng.standard_normal(8)
        z2 = rng.standard_normal(8)
        fit = lambda z: op @ (w * z)
        assert np.allclose(fit(z1 + 1j * z2), fit(z1) + 1j * fit(z2), atol=1e-12)
        assert np.allclose(fit(2.0 * z1), 2.0 * fit(z1), atol=1e-12)

    def test_single_support_point_raises_with_hint(self):
        # knots 0, .25, .5, .75, 1: only 0.5 is observed inside the window (0.1, 0.9)
        w = np.array([0.0, 0.0, 3.0, 0.0, 1.0])
        with pytest.raises(SingularDesign, match="fewer than 2 observed knots") as err:
            local_linear_operator(w, [0.5, 0.2], 0.4)   # both rows fail; the first is reported
        assert err.value.min_bandwidth == pytest.approx(0.5)
        assert err.value.eval_point == 0.5
        assert "bandwidth above" in str(err.value)
        assert str(err.value).endswith(" -- consider a larger bandwidth")

    def test_coincident_support_raises(self):
        # one knot outweighs the other by 1e15: numerically a single support point
        w = np.array([1e15, 1.0, 0.0])
        with pytest.raises(SingularDesign, match="numerically singular"):
            local_linear_operator(w, [0.1], 1.0)


class TestMeanCurve:
    def test_constant_panel(self, us_grid):
        panel = SparseYieldPanel.from_values(np.full((6, 9), 5.0), us_grid)
        est = mean_curve_warped(panel, 0.25, np.linspace(0, 1, 21))
        assert np.abs(est - 5.0).max() <= 1e-12

    def test_affine_in_warped_coordinates(self, us_grid):
        tau_tilde = np.linspace(0, 1, 9)
        panel = SparseYieldPanel.from_values(np.tile(2.0 + 3.0 * tau_tilde, (10, 1)), us_grid)
        eval_warped = np.linspace(0.02, 0.98, 33)
        est = mean_curve_warped(panel, 0.25, eval_warped)
        assert np.abs(est - (2.0 + 3.0 * eval_warped)).max() <= 1e-10

    def test_estimate_mean_curve_maps_through_warp(self, us_grid):
        tau_tilde = np.linspace(0, 1, 9)
        panel = SparseYieldPanel.from_values(np.tile(2.0 + 3.0 * tau_tilde, (10, 1)), us_grid)
        taus = np.asarray([1 / 12, 1.0, 3.0, 30.0])
        est = estimate_mean_curve(panel, 0.25, taus)
        assert np.abs(est - (2.0 + 3.0 * np.array([0, 0.25, 0.5, 1.0]))).max() <= 1e-10

    def test_sine_mean_recovered_monte_carlo(self):
        # mu(t~) = sin(2 pi t~) on 17 maturities, T = 500, sigma = 0.1.
        rng = np.random.default_rng(2024)
        n_mat, t_len = 17, 500
        tau_tilde = np.linspace(0, 1, n_mat)
        from sparselag import MaturityGrid
        grid = MaturityGrid(np.linspace(0.5, 30.0, n_mat))
        mu = np.sin(2 * np.pi * tau_tilde)
        values = mu + 0.1 * rng.standard_normal((t_len, n_mat))
        panel = SparseYieldPanel.from_values(values, grid)
        eval_warped = np.linspace(0.1, 0.9, 50)
        est = mean_curve_warped(panel, 2.0 / (n_mat - 1), eval_warped)
        assert np.abs(est - np.sin(2 * np.pi * eval_warped)).max() <= 0.1

    def test_missing_cells_get_zero_weight(self, rng):
        panel = random_sparse_panel(rng, 30, 6)
        # filling the missing cells with garbage must not change the fit
        poisoned = np.where(panel.observed, panel.values, 1e6)
        panel2 = SparseYieldPanel(values=poisoned, observed=panel.observed,
                                  maturity_grid=panel.maturity_grid)
        eval_warped = np.linspace(0, 1, 11)
        a = mean_curve_warped(panel, 0.4, eval_warped)
        b = mean_curve_warped(panel2, 0.4, eval_warped)
        assert np.array_equal(a, b)

    def test_tiny_bandwidth_raises_with_eval_point(self, us_grid):
        panel = SparseYieldPanel.from_values(np.full((4, 9), 1.0), us_grid)
        with pytest.raises(SingularDesign, match="evaluation point"):
            mean_curve_warped(panel, 0.01, np.array([0.4375]))
