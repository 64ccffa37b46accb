import numpy as np
import pytest

from sparselag import MaturityGrid, build_warp, warp_apply, warp_inverse
from sparselag.warp import _hermite_eval
from oracles import brentq_warp_inverse, loop_limited_slopes


@pytest.fixture
def us_warp(us_grid):
    return build_warp(us_grid)


def _random_grids(rng, n_grids):
    """Strictly increasing grids of 3..30 knots: uniform spacing, then log-normal, in turn."""
    for k in range(n_grids):
        n = int(rng.integers(3, 31))
        steps = rng.lognormal(0.0, 2.0, size=n) if k % 2 else rng.uniform(0.01, 8.0, size=n)
        yield MaturityGrid(np.cumsum(steps))


class TestBuildWarp:
    def test_us_grid_maps_midpoint_to_fifth_knot(self, us_warp):
        assert warp_apply(us_warp, 0.0) == pytest.approx(1 / 12, abs=1e-15)
        assert warp_apply(us_warp, 1.0) == pytest.approx(30.0, abs=1e-12)
        assert warp_apply(us_warp, 0.5) == pytest.approx(3.0, abs=1e-12)

    def test_knot_exactness(self, us_warp, us_grid):
        knots = np.linspace(0.0, 1.0, 9)
        values = np.asarray(warp_apply(us_warp, knots))
        assert np.abs(values - us_grid.maturities).max() <= 1e-12

    def test_equidistant_grid_gives_identity(self):
        w = build_warp(MaturityGrid(np.array([0.0, 0.5, 1.0])))
        t = np.linspace(0.0, 1.0, 41)
        assert np.abs(np.asarray(warp_apply(w, t)) - t).max() <= 1e-14

    def test_interior_stays_strictly_between_knots(self):
        w = build_warp(MaturityGrid(np.array([1.0, 2.0, 4.0])))
        val = warp_apply(w, 0.25)
        assert 1.0 < val < 2.0

    def test_duplicate_maturities_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            build_warp(MaturityGrid(np.array([1.0, 1.0, 2.0])))


class TestLimitedSlopes:
    def test_us_grid_matches_loop_oracle(self, us_warp, us_grid):
        expected = loop_limited_slopes(np.linspace(0.0, 1.0, 9), us_grid.maturities)
        assert np.array_equal(us_warp.slopes, expected)

    def test_random_grids_match_loop_oracle(self, rng):
        clipped_ends = 0
        for grid in _random_grids(rng, 4000):
            w = build_warp(grid)
            assert np.array_equal(w.slopes, loop_limited_slopes(w.knots_x, w.knots_y))
            clipped_ends += int(w.slopes[0] == 0.0) + int(w.slopes[-1] == 0.0)
        assert clipped_ends > 0     # the zero end slope is exercised too


class TestWarpApply:
    def test_rejects_outside_unit_interval(self, us_warp):
        with pytest.raises(ValueError, match="outside"):
            warp_apply(us_warp, 1.01)
        with pytest.raises(ValueError, match="outside"):
            warp_apply(us_warp, -0.2)

    def test_strict_monotonicity_random_pairs(self, us_warp, rng):
        t = np.sort(rng.uniform(size=500))
        vals = np.asarray(warp_apply(us_warp, t))
        assert np.all(np.diff(vals) > 0)

    def test_strict_monotonicity_random_grids(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 12))
            grid = MaturityGrid(np.cumsum(rng.uniform(0.05, 8.0, size=n)))
            w = build_warp(grid)
            t = np.sort(rng.uniform(size=200))
            assert np.all(np.diff(np.asarray(warp_apply(w, t))) > 0)

    def test_c1_at_knots(self, us_warp):
        # one-sided difference quotients agree at every interior knot
        eps = 1e-7
        for knot in np.linspace(0.0, 1.0, 9)[1:-1]:
            left = (warp_apply(us_warp, knot) - warp_apply(us_warp, knot - eps)) / eps
            right = (warp_apply(us_warp, knot + eps) - warp_apply(us_warp, knot)) / eps
            assert left == pytest.approx(right, rel=1e-5)


class TestWarpInverse:
    def test_us_examples(self, us_warp):
        assert warp_inverse(us_warp, 3.0) == pytest.approx(0.5, abs=1e-12)
        assert warp_inverse(us_warp, 1 / 12) == 0.0
        assert warp_inverse(us_warp, 30.0) == 1.0

    def test_rejects_out_of_range(self, us_warp):
        with pytest.raises(ValueError, match="outside"):
            warp_inverse(us_warp, 31.0)
        with pytest.raises(ValueError, match="outside"):
            warp_inverse(us_warp, 0.01)

    def test_round_trip(self, us_warp, rng):
        t = rng.uniform(size=1000)
        back = np.asarray(warp_inverse(us_warp, warp_apply(us_warp, t)))
        assert np.abs(back - t).max() <= 1e-9

    def test_inverse_accuracy_in_value_space(self, us_warp, rng):
        tau = rng.uniform(1 / 12, 30.0, size=200)
        t = np.asarray(warp_inverse(us_warp, tau))
        assert np.abs(np.asarray(warp_apply(us_warp, t)) - tau).max() <= 1e-10 * 30

    def test_residual_no_worse_than_brentq_oracle(self, us_grid, rng):
        for grid in [us_grid, *_random_grids(rng, 40)]:
            w = build_warp(grid)
            tau = rng.uniform(w.tau_min, w.tau_max, size=200)
            ours = np.abs(_hermite_eval(w, warp_inverse(w, tau)) - tau).max()
            oracle = np.abs(_hermite_eval(w, brentq_warp_inverse(w, tau)) - tau).max()
            assert ours <= oracle

    def test_knots_map_back_exactly(self, us_grid, rng):
        for grid in [us_grid, *_random_grids(rng, 50)]:
            w = build_warp(grid)
            assert np.array_equal(warp_inverse(w, w.knots_y), w.knots_x)

    def test_shape_and_scalar_type(self, us_warp):
        tau = np.array([[1.0, 2.5], [7.0, 30.0]])
        assert np.asarray(warp_inverse(us_warp, tau)).shape == (2, 2)
        assert type(warp_inverse(us_warp, 2.5)) is float
        assert type(warp_inverse(us_warp, np.float64(2.5))) is float

    def test_rejects_nan(self, us_warp):
        with pytest.raises(ValueError, match="outside"):
            warp_inverse(us_warp, np.nan)
        with pytest.raises(ValueError, match="outside"):
            warp_inverse(us_warp, np.array([2.0, np.nan]))
