import numpy as np
import pytest

from sparselag import Config, FrequencyGrid, MacroPanel, MaturityGrid, SparseYieldPanel


class TestMaturityGrid:
    def test_valid(self, us_grid):
        assert us_grid.n_maturities == 9
        assert us_grid.tau_min == pytest.approx(1 / 12)
        assert us_grid.tau_max == 30.0

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

    def test_conjugate_asymmetry_equals_both_way_comparison(self, rng):
        grid = FrequencyGrid(16)
        values = self._symmetric_field(rng, grid) + 1e-3 * rng.standard_normal((16, 3, 2))
        flipped = values[(-np.arange(16)) % 16]
        both_ways = np.abs(flipped - np.conj(values)).max() / max(1.0, np.abs(values).max())
        assert grid.conjugate_asymmetry(values) == both_ways > 0.0

    @pytest.mark.parametrize("node", [0, 3, 8, 13])   # -pi, a pair, 0, a pair from above
    def test_conjugate_asymmetry_sees_every_node(self, rng, node):
        grid = FrequencyGrid(16)
        values = self._symmetric_field(rng, grid)
        assert grid.conjugate_asymmetry(values) <= 1e-15
        values[node, 1, 0] += 0.5j
        assert grid.conjugate_asymmetry(values) >= 0.5 / np.abs(values).max()


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
