import numpy as np
import pytest

from sparselag import Config, FrequencyGrid, MacroPanel, MaturityGrid, SparseYieldPanel


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

    def test_fold_equals_both_way_comparison(self, rng):
        grid = FrequencyGrid(16)
        values = self._symmetric_field(rng, grid) + 1e-3 * rng.standard_normal((16, 3, 2))
        flipped = values[(-np.arange(16)) % 16]
        both_ways = np.abs(flipped - np.conj(values)).max() / max(1.0, np.abs(values).max())
        assert both_ways > 0.0
        assert np.array_equal(grid.fold(values, both_ways, "unused"), values[:9])
        with pytest.raises(ValueError, match="^asymmetric$"):
            grid.fold(values, np.nextafter(both_ways, 0.0), "asymmetric")

    def test_mirror_restores_the_folded_nodes(self, rng):
        for n in (2, 4, 16):
            grid = FrequencyGrid(n)
            values = self._symmetric_field(rng, grid)
            assert np.array_equal(grid.mirror(grid.fold(values, 0.0, "unused")), values)

    @pytest.mark.parametrize("n", [2, 8, 512, 4096])
    def test_phases_match_complex_exp(self, n):
        grid = FrequencyGrid(n)
        lags = np.unique(np.linspace(-n, n, 41).astype(int))
        oracle = np.exp(-1j * np.outer(grid.nodes, lags))
        # the oracle itself is off by up to |h omega| * eps, about 3e-12 at N = 4096
        assert np.abs(grid.phases(lags) - oracle).max() <= 1e-11

    def test_phases_are_exact_roots_of_unity(self):
        grid = FrequencyGrid(64)
        lags = np.arange(-70, 71)
        phases = grid.phases(lags)
        assert np.array_equal(phases[:, ::-1], phases.conj())         # e^{+ih w} = conj(e^{-ih w})
        assert np.array_equal(grid.phases([0]), np.ones((64, 1)))
        assert np.array_equal(phases[:, lags == 64], phases[:, lags == 0])  # period N in h
        assert np.array_equal(grid.phases([1])[[0, 32], 0], [-1.0, 1.0])    # omega = -pi, 0

    @pytest.mark.parametrize("node", [0, 3, 8, 13])   # -pi, a pair, 0, a pair from above
    def test_fold_sees_every_node(self, rng, node):
        grid = FrequencyGrid(16)
        values = self._symmetric_field(rng, grid)
        grid.fold(values, 1e-15, "unused")
        values[node, 1, 0] += 0.5j
        with pytest.raises(ValueError, match="asymmetric"):
            grid.fold(values, np.nextafter(0.5 / np.abs(values).max(), 0.0), "asymmetric")


class TestConfig:
    def test_defaults_follow_sqrt_rule(self):
        cfg = Config.defaults(192, 9)
        assert cfg.q == 14
        assert cfg.b_mu == pytest.approx(0.25)
        assert cfg.b_r == pytest.approx(0.25)
        assert cfg.n_omega == 512 and cfg.h_max == 12 and cfg.n_eval == 101
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
        (dict(q=4.5), "q must be an integer"),
        (dict(h_max=2.5), "h_max must be an integer"),
        (dict(n_omega=64.0), "n_omega must be an integer"),
        (dict(n_eval=20.5), "n_eval must be an integer"),
    ])
    def test_rejects(self, kwargs, phrase):
        base = dict(b_mu=0.25, b_r=0.25, q=14)
        base.update(kwargs)
        with pytest.raises(ValueError, match=phrase):
            Config(**base)
