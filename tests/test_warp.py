import numpy as np
import pytest

from sparselag import MaturityGrid, warp_apply, warp_inverse
from sparselag.warp import _hermite_eval, _knots
from oracles import brentq_warp_inverse, loop_limited_slopes


def _random_grids(rng, n_grids):
    """Strictly increasing grids of 3..30 knots: uniform spacing, then log-normal, in turn."""
    for k in range(n_grids):
        n = int(rng.integers(3, 31))
        steps = rng.lognormal(0.0, 2.0, size=n) if k % 2 else rng.uniform(0.01, 8.0, size=n)
        yield MaturityGrid(np.cumsum(steps))


class TestBuildWarp:
    """The map a grid fixes: its knots, its identity case and the grid's own checks."""

    def test_us_grid_maps_midpoint_to_fifth_knot(self, us_grid):
        assert warp_apply(us_grid, 0.0) == pytest.approx(1 / 12, abs=1e-15)
        assert warp_apply(us_grid, 1.0) == pytest.approx(30.0, abs=1e-12)
        assert warp_apply(us_grid, 0.5) == pytest.approx(3.0, abs=1e-12)

    def test_knot_exactness(self, us_grid):
        knots = np.linspace(0.0, 1.0, 9)
        values = np.asarray(warp_apply(us_grid, knots))
        assert np.abs(values - us_grid.maturities).max() <= 1e-12

    def test_equidistant_grid_gives_identity(self):
        grid = MaturityGrid(np.array([0.0, 0.5, 1.0]))
        t = np.linspace(0.0, 1.0, 41)
        assert np.abs(np.asarray(warp_apply(grid, t)) - t).max() <= 1e-14

    def test_interior_stays_strictly_between_knots(self):
        val = warp_apply(MaturityGrid(np.array([1.0, 2.0, 4.0])), 0.25)
        assert 1.0 < val < 2.0

    def test_duplicate_maturities_rejected(self):
        # no grid, so no warp: the grid's own check is the only one
        with pytest.raises(ValueError, match="strictly increasing"):
            MaturityGrid(np.array([1.0, 1.0, 2.0]))


class TestLimitedSlopes:
    def test_us_grid_matches_loop_oracle(self, us_grid):
        expected = loop_limited_slopes(np.linspace(0.0, 1.0, 9), us_grid.maturities)
        assert np.array_equal(_knots(us_grid)[2], expected)

    def test_random_grids_match_loop_oracle(self, rng):
        clipped_ends = 0
        for grid in _random_grids(rng, 4000):
            slopes = _knots(grid)[2]
            x = np.linspace(0.0, 1.0, grid.n_maturities)
            assert np.array_equal(slopes, loop_limited_slopes(x, grid.maturities))
            clipped_ends += int(slopes[0] == 0.0) + int(slopes[-1] == 0.0)
        assert clipped_ends > 0     # the zero end slope is exercised too


class TestWarpApply:
    def test_rejects_outside_unit_interval(self, us_grid):
        with pytest.raises(ValueError, match="outside"):
            warp_apply(us_grid, 1.01)
        with pytest.raises(ValueError, match="outside"):
            warp_apply(us_grid, -0.2)

    def test_rejects_nan(self, us_grid):
        with pytest.raises(ValueError, match="outside"):
            warp_apply(us_grid, float("nan"))
        with pytest.raises(ValueError, match="outside"):
            warp_apply(us_grid, np.array([0.0, np.nan, 1.0]))

    def test_overflow_warns_then_raises(self):
        # a stage function keeps numpy's default: RuntimeWarning first, then the typed error
        grid = MaturityGrid(np.array([1e307, 5e307, 1.7e308]))
        with pytest.warns(RuntimeWarning):
            with pytest.raises(ValueError) as raised:
                warp_apply(grid, np.linspace(0.0, 1.0, 5))
        assert str(raised.value) == "warp overflows on maturities up to 1.7e+308"

    def test_inverse_overflow_warns_then_raises(self):
        # phi is NaN on the second piece (its end slope overflows), so a bisection there would close on either end
        grid = MaturityGrid(np.array([1e307, 5e307, 1.7e308]))
        with pytest.warns(RuntimeWarning):
            with pytest.raises(ValueError) as raised:
                warp_inverse(grid, np.array([1e307, 3e307, 1e308, 1.7e308]))
        assert str(raised.value) == "warp overflows on maturities up to 1.7e+308"

    def test_strict_monotonicity_random_pairs(self, us_grid, rng):
        t = np.sort(rng.uniform(size=500))
        vals = np.asarray(warp_apply(us_grid, t))
        assert np.all(np.diff(vals) > 0)

    def test_strict_monotonicity_random_grids(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 12))
            grid = MaturityGrid(np.cumsum(rng.uniform(0.05, 8.0, size=n)))
            t = np.sort(rng.uniform(size=200))
            assert np.all(np.diff(np.asarray(warp_apply(grid, t))) > 0)

    def test_c1_at_knots(self, us_grid):
        # one-sided difference quotients agree at every interior knot
        eps = 1e-7
        for knot in np.linspace(0.0, 1.0, 9)[1:-1]:
            left = (warp_apply(us_grid, knot) - warp_apply(us_grid, knot - eps)) / eps
            right = (warp_apply(us_grid, knot + eps) - warp_apply(us_grid, knot)) / eps
            assert left == pytest.approx(right, rel=1e-5)


class TestWarpInverse:
    def test_us_examples(self, us_grid):
        assert warp_inverse(us_grid, 3.0) == pytest.approx(0.5, abs=1e-12)
        assert warp_inverse(us_grid, 1 / 12) == 0.0
        assert warp_inverse(us_grid, 30.0) == 1.0

    def test_rejects_out_of_range(self, us_grid):
        with pytest.raises(ValueError, match="outside"):
            warp_inverse(us_grid, 31.0)
        with pytest.raises(ValueError, match="outside"):
            warp_inverse(us_grid, 0.01)

    def test_round_trip(self, us_grid, rng):
        t = rng.uniform(size=1000)
        back = np.asarray(warp_inverse(us_grid, warp_apply(us_grid, t)))
        assert np.abs(back - t).max() <= 1e-9

    def test_inverse_accuracy_in_value_space(self, us_grid, rng):
        tau = rng.uniform(1 / 12, 30.0, size=200)
        t = np.asarray(warp_inverse(us_grid, tau))
        assert np.abs(np.asarray(warp_apply(us_grid, t)) - tau).max() <= 1e-10 * 30

    def test_residual_no_worse_than_brentq_oracle(self, us_grid, rng):
        for grid in [us_grid, *_random_grids(rng, 40)]:
            knots = _knots(grid)
            tau = rng.uniform(grid.maturities[0], grid.maturities[-1], size=200)
            ours = np.abs(_hermite_eval(knots, warp_inverse(grid, tau)) - tau).max()
            oracle = np.abs(_hermite_eval(knots, brentq_warp_inverse(grid, tau)) - tau).max()
            assert ours <= oracle

    def test_knots_map_back_exactly(self, us_grid, rng):
        for grid in [us_grid, *_random_grids(rng, 50)]:
            assert np.array_equal(warp_inverse(grid, grid.maturities),
                                  np.linspace(0.0, 1.0, grid.n_maturities))

    def test_shape_and_scalar_type(self, us_grid):
        tau = np.array([[1.0, 2.5], [7.0, 30.0]])
        assert np.asarray(warp_inverse(us_grid, tau)).shape == (2, 2)
        assert type(warp_inverse(us_grid, 2.5)) is float
        assert type(warp_inverse(us_grid, np.float64(2.5))) is float

    def test_rejects_nan(self, us_grid):
        with pytest.raises(ValueError, match="outside"):
            warp_inverse(us_grid, np.nan)
        with pytest.raises(ValueError, match="outside"):
            warp_inverse(us_grid, np.array([2.0, np.nan]))
