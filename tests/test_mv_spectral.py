import math
import re
import warnings
from dataclasses import fields

import numpy as np
import pytest

from sparselag import (AutocovarianceSet, FrequencyGrid, MacroPanel, SpectralDensityField,
                       bartlett_weights, estimate_autocovariances,
                       spectral_density_matrix, simulate_var1, var1_spectral_density,
                       SyntheticSpec, MaturityGrid, US_MATURITIES)
from sparselag.mv_spectral import CHUNK, lag_window_transform, lagged_products
from conftest import field_from_values, random_macro_panel
from oracles import loop_autocovariance, naive_spectral_density


def _panel(values):
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if values.shape[0] == 1:
        values = values.T
    return MacroPanel(values=values, series_names=tuple(f"X{j+1}" for j in range(values.shape[1])))


def _mean(panel):
    return estimate_autocovariances(panel, 1).mean


def _at(acov, h):
    """The autocovariance at lag h, located through ``acov.lags``."""
    [index] = np.flatnonzero(acov.lags == h)
    return acov.matrices[index]


class TestEmpiricalMean:
    def test_two_point(self):
        assert np.allclose(_mean(_panel([[1.0, 2.0], [3.0, 4.0]])), [2.0, 3.0])

    def test_constant(self):
        assert np.allclose(_mean(_panel(np.full((7, 3), 2.5))), 2.5)

    def test_standard_normal_monte_carlo(self):
        rng = np.random.default_rng(7)
        panel = _panel(rng.standard_normal((1000, 2)))
        assert np.abs(_mean(panel)).max() <= 0.1  # CLT: 3/sqrt(T) ~ 0.095


class TestEmpiricalAutocov:
    def test_constant_panel_zero(self):
        panel = _panel(np.full((10, 2), 3.0))
        acov = estimate_autocovariances(panel, 4)
        for h in range(-3, 4):
            assert np.allclose(_at(acov, h), 0.0)

    def test_alternating_sequence(self):
        t_len = 12
        panel = _panel([(-1.0) ** t for t in range(t_len)])
        acov = estimate_autocovariances(panel, 2)
        assert _at(acov, 0)[0, 0] == pytest.approx(1.0)
        assert _at(acov, 1)[0, 0] == pytest.approx(-(t_len - 1) / t_len)

    def test_iid_lag5_small(self):
        rng = np.random.default_rng(99)
        panel = _panel(rng.standard_normal(10000))
        assert abs(_at(estimate_autocovariances(panel, 6), 5)[0, 0]) <= 0.05

    def test_transpose_rule_bit_for_bit(self, rng):
        panel = random_macro_panel(rng, 40, 3)
        acov = estimate_autocovariances(panel, 6)
        for h in range(1, 6):
            assert np.array_equal(_at(acov, -h), _at(acov, h).T)

    def test_matches_loop_oracle(self, rng):
        panel = random_macro_panel(rng, 25, 2)
        acov = estimate_autocovariances(panel, 6)
        for h in [-4, -1, 0, 2, 5]:
            assert np.allclose(_at(acov, h), loop_autocovariance(panel.values, h), atol=1e-12)


class TestLaggedProducts:
    def test_matches_explicit_sum(self, rng):
        t_len, q = 9, 4
        a, b = rng.standard_normal((t_len, 3)), rng.standard_normal((t_len, 2))
        prods = lagged_products(a, b, q)
        assert prods.shape == (2 * q - 1, 3, 2)
        for l, h in enumerate(range(1 - q, q)):
            expected = sum(np.outer(a[t + h], b[t]) for t in range(t_len) if 0 <= t + h < t_len)
            assert np.abs(prods[l] - expected).max() <= 1e-12

    def test_span_one_is_lag_zero_only(self):
        # one dot per entry need not round like a.T @ a: the bound is the exactly rounded sum's
        for seed in range(20):
            a = np.random.default_rng(seed).standard_normal((5, 2))
            prods = lagged_products(a, a, 1)
            assert prods.shape == (1, 2, 2)
            for i, j in np.ndindex(2, 2):
                terms = a[:, i] * a[:, j]
                assert abs(prods[0, i, j] - math.fsum(terms)) <= 1e-15 * np.abs(terms).sum()

    @pytest.mark.parametrize("t_len, m, n, q", [(2000, 9, 1, 45), (192, 9, 3, 14), (2 * CHUNK + 1, 2, 1, 3)])
    def test_matches_exactly_rounded_sum(self, rng, t_len, m, n, q):
        a, b = rng.standard_normal((t_len, m)), rng.standard_normal((t_len, n))
        prods = lagged_products(a, b, q)
        for l, h in enumerate(range(1 - q, q)):
            start, stop = max(0, -h), min(t_len, t_len - h)
            terms = a[start + h: stop + h, :, None] * b[start:stop, None, :]   # (rows, m, n)
            for i in range(m):
                for j in range(n):
                    exact = math.fsum(terms[:, i, j])
                    assert abs(prods[l, i, j] - exact) <= 1e-15 * np.abs(terms[:, i, j]).sum()

    def test_each_entry_depends_on_its_own_pair_only(self, rng):
        a, b, q = rng.standard_normal((192, 9)), rng.standard_normal((192, 3)), 14
        full = lagged_products(a, b, q)
        for i in range(9):
            for j in range(3):
                assert np.array_equal(lagged_products(a[:, [i]], b[:, [j]], q), full[:, [i]][:, :, [j]])


class TestLagWindowTransform:
    def test_single_lag_is_weighted_phase(self):
        grid = FrequencyGrid(16)
        stack = np.zeros((5, 1))      # q = 3: lags -2..2
        stack[3, 0] = 1.0             # h = +1, window weight 2/3
        expected = (2 / 3) * np.exp(-1j * grid.nodes)
        half = lag_window_transform(stack, grid)
        assert half.shape == (9, 1)
        assert np.abs(grid.mirror(half)[:, 0] - expected).max() <= 1e-15

    @pytest.mark.parametrize("n", [2, 8, 512, 4096])
    def test_single_lags_match_complex_exp(self, n):
        grid, lags = FrequencyGrid(n), np.unique(np.linspace(-n, n, 41).astype(int))
        q = n + 1                      # every lag has a nonzero weight, and lags +-n fold onto lag 0
        stack = np.zeros((2 * q - 1, lags.size))
        stack[lags + q - 1, np.arange(lags.size)] = 1.0
        oracle = bartlett_weights(q)[lags + q - 1] * np.exp(-1j * np.outer(grid.nodes[: n // 2 + 1], lags))
        # the oracle itself is off by up to |h omega| * eps, about 3e-12 at N = 4096
        assert np.abs(lag_window_transform(stack, grid) - oracle).max() <= 1e-11

    def test_self_paired_nodes_are_real(self, rng):
        grid, q = FrequencyGrid(64), 40                   # 2q - 1 > N: lags fold
        half = lag_window_transform(rng.standard_normal((2 * q - 1, 3, 2)), grid)
        assert np.array_equal(half[[0, -1]].imag, np.zeros((2, 3, 2)))    # omega = -pi, 0
        unit = np.zeros((2 * q - 1, 1))
        unit[q] = 1.0                                                        # lag 1
        assert np.array_equal(lag_window_transform(unit, grid)[[0, -1], 0], [-(1 - 1 / q), 1 - 1 / q])

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_lags_beyond_the_grid_fold_modulo_n(self, rng, d):
        # 2q - 1 = 13 lags on N = 8 nodes: lags h and h +- 8 land on one node term (Gray 2006)
        grid, q = FrequencyGrid(8), 7
        mats = rng.standard_normal((2 * q - 1, d, d))
        naive = naive_spectral_density(mats, np.arange(1 - q, q), bartlett_weights(q), grid.nodes[:5])
        assert np.abs(lag_window_transform(mats, grid) / (2 * np.pi) - naive).max() <= 1e-14 * np.abs(mats).sum()


class TestBartlettWeights:
    def test_span_14(self):
        w = bartlett_weights(14)
        assert w.size == 27
        assert w[13] == 1.0                      # h = 0
        assert w[13 + 7] == pytest.approx(0.5)   # h = 7
        assert w[13 + 13] == pytest.approx(1 / 14)
        assert np.allclose(w, w[::-1])

    def test_span_1(self):
        assert np.array_equal(bartlett_weights(1), [1.0])

    @pytest.mark.parametrize("q", range(1, 51))
    def test_sum_identity(self, q):
        assert bartlett_weights(q).sum() == pytest.approx(q, abs=1e-10)


class TestSpectralDensityMatrix:
    def test_span_1_flat_spectrum(self, rng):
        panel = random_macro_panel(rng, 30, 2)
        acov = estimate_autocovariances(panel, 1)
        field = spectral_density_matrix(acov, FrequencyGrid(16))
        expected = _at(acov, 0) / (2 * np.pi)
        assert np.abs(field.values - expected).max() <= 1e-14

    def test_matches_naive_triple_loop(self, rng):
        panel = random_macro_panel(rng, 50, 3)
        acov = estimate_autocovariances(panel, 5)
        grid = FrequencyGrid(32)
        field = spectral_density_matrix(acov, grid)
        naive = naive_spectral_density(acov.matrices, acov.lags, bartlett_weights(5), grid.nodes)
        assert np.abs(field.values - naive).max() <= 1e-12

    def test_ar1_closed_form_reduced_scale(self):
        spec = SyntheticSpec(maturity_grid=MaturityGrid(np.array(US_MATURITIES)),
                             n_times=50000, ar_coef=np.array([[0.5]]),
                             innovation_cov=np.array([[1.0]]), macro_mean=np.zeros(1), seed=20)
        macro = simulate_var1(spec)
        grid = FrequencyGrid(64)
        est = spectral_density_matrix(estimate_autocovariances(macro, 224), grid)
        exact = var1_spectral_density(spec.ar_coef, spec.innovation_cov, grid)
        assert exact[32, 0, 0].real == pytest.approx(1 / (2 * np.pi * 0.25), rel=1e-12)
        rel = np.abs(est.values - exact)[:, 0, 0] / np.abs(exact)[:, 0, 0]
        assert rel.max() <= 0.15

    def test_inverse_transform_recovers_weighted_autocov(self, rng):
        q = 6
        panel = random_macro_panel(rng, 80, 2)
        acov = estimate_autocovariances(panel, q)
        grid = FrequencyGrid(2 * q + 4)
        field = spectral_density_matrix(acov, grid)
        weights = bartlett_weights(q)
        kernel = np.exp(1j * np.outer(grid.nodes, acov.lags))
        recovered = np.einsum("kl,kab->lab", kernel, field.values) * grid.quadrature_weight
        assert np.abs(recovered - weights[:, None, None] * acov.matrices).max() <= 1e-10

    def test_real_nonnegative_diagonal(self, rng):
        panel = random_macro_panel(rng, 40, 2)
        field = spectral_density_matrix(estimate_autocovariances(panel, 4), FrequencyGrid(32))
        diag = np.diagonal(field.values, axis1=1, axis2=2)
        assert np.abs(diag.imag).max() <= 1e-12
        field_q1 = spectral_density_matrix(estimate_autocovariances(panel, 1), FrequencyGrid(32))
        diag1 = np.diagonal(field_q1.values, axis1=1, axis2=2)
        assert diag1.real.min() >= 0.0

    def test_hermitian_and_conjugate_symmetric(self, rng):
        panel = random_macro_panel(rng, 60, 3)
        field = spectral_density_matrix(estimate_autocovariances(panel, 7), FrequencyGrid(64))
        mats = field.values
        assert np.abs(mats - np.conj(np.swapaxes(mats, 1, 2))).max() <= 1e-12
        flipped = mats[(-np.arange(64)) % 64]
        assert np.abs(flipped - np.conj(mats)).max() <= 1e-12


class TestHalfPath:
    """spectral_density_matrix builds the field from its nodes k = 0..N/2 and checks those."""

    @staticmethod
    def _half(rng, grid, d=3):
        acov = estimate_autocovariances(random_macro_panel(rng, 40, d), 4)
        return acov, lag_window_transform(acov.matrices, grid) / (2 * np.pi)

    def test_field_holds_the_transform_as_given_without_mirror_or_fold(self, rng, monkeypatch):
        grid = FrequencyGrid(16)
        acov, half = self._half(rng, grid)
        calls = []
        def counted(self, *args, _method=FrequencyGrid.mirror):
            calls.append("mirror")
            return _method(self, *args)
        monkeypatch.setattr(FrequencyGrid, "mirror", counted)
        field = spectral_density_matrix(acov, grid)
        assert calls == []
        below = np.tril(np.ones((3, 3), bool), -1)
        assert np.array_equal(field.half[:, below], half[:, below]) and field.half is field.knot_values
        # Hermitian by construction: a real diagonal, the conjugate of the lower triangle above it
        diagonal = np.einsum("kii->ki", field.half)
        assert np.array_equal(diagonal.real, np.einsum("kii->ki", half).real) and not diagonal.imag.any()
        assert np.array_equal(field.half, np.conj(np.swapaxes(field.half, 1, 2)))
        assert not field.half[[0, -1]].imag.any()           # omega = -pi, 0
        assert np.array_equal(field.operator, np.eye(3)) and not field.operator.flags.writeable

    @pytest.mark.parametrize("k", range(1, 8))
    def test_hermitian_defect_at_an_interior_node_raises(self, rng, k):
        grid = FrequencyGrid(16)
        _, half = self._half(rng, grid)
        half[k, 0, 2] += 1e-9j
        with pytest.raises(ValueError, match="must be Hermitian at every node"):
            SpectralDensityField.from_knots(grid, half, np.eye(3))

    @pytest.mark.parametrize("k", [0, 8])
    def test_imaginary_part_at_a_self_paired_node_raises(self, rng, k):
        grid = FrequencyGrid(16)
        _, half = self._half(rng, grid)
        half[k, 0, 2] += 1e-9j
        half[k, 2, 0] -= 1e-9j                              # still Hermitian
        with pytest.raises(ValueError, match=re.escape("F(-omega) = conj(F(omega))")):
            SpectralDensityField.from_knots(grid, half, np.eye(3))

    def test_operator_other_than_the_identity_raises(self):
        # the knots are checked as the half, which only the identity operator leaves them as
        with pytest.raises(ValueError, match="operator must be the identity"):
            SpectralDensityField.from_knots(FrequencyGrid(8), np.tile(np.eye(2, dtype=complex), (5, 1, 1)),
                                            [[1, 1], [0, 1]])


class TestConditionNumbers:
    @staticmethod
    def _hermitian_pd(rng, n, d):
        """A conjugate-symmetric stack of Hermitian positive definite matrices."""
        grid = FrequencyGrid(n)
        lags = np.arange(-2, 3)
        base = rng.standard_normal((lags.size, d, d))
        base = base + np.transpose(base[::-1], (0, 2, 1))        # R_{-h} = R_h'
        mats = np.tensordot(np.exp(-1j * np.outer(grid.nodes, lags)), base, axes=1)
        shift = np.abs(np.linalg.eigvalsh(mats)).max() + rng.uniform(0.05, 2.0)
        return field_from_values(SpectralDensityField, grid, mats + shift * np.eye(d))

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_match_svd_condition_numbers(self, rng, d):
        for _ in range(5):
            field = self._hermitian_pd(rng, 32, d)
            expected = np.linalg.cond(field.half)
            assert np.abs(field.condition_numbers / expected - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("singular", [np.diag([2.0, 0.0]), np.diag([0.0, -3.0]),
                                          np.zeros((2, 2))])
    def test_singular_node_gives_inf_without_warning(self, rng, singular):
        mats = np.tile(np.eye(2, dtype=complex), (8, 1, 1))
        mats[4] = singular                                          # omega = 0 pairs with itself
        field = field_from_values(SpectralDensityField, FrequencyGrid(8), mats)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            conds = field.condition_numbers
        assert conds[4] == np.inf and len(conds) == 5     # the nodes k = 0..N/2
        assert np.array_equal(conds[:4], np.ones(4))
        assert np.linalg.cond(field.values)[4] == np.inf

    def test_indefinite_matrix_uses_eigenvalue_magnitudes(self):
        mats = np.tile(np.diag([-4.0, 1.0]).astype(complex), (4, 1, 1))
        field = field_from_values(SpectralDensityField, FrequencyGrid(4), mats)
        assert np.array_equal(field.condition_numbers, np.full(3, 4.0))


class TestAutocovarianceSet:
    def test_estimator_covers_requested_span(self, rng):
        panel = random_macro_panel(rng, 30, 2)
        acov = estimate_autocovariances(panel, 4)
        assert np.array_equal(acov.lags, np.arange(-3, 4))
        assert np.array_equal(_at(acov, -2), _at(acov, 2).T)

    def test_oversized_span_rejected(self, rng):
        panel = random_macro_panel(rng, 10, 1)
        with pytest.raises(ValueError, match="span"):
            estimate_autocovariances(panel, 11)

    def test_broken_mirror_names_the_lag(self, rng):
        acov = estimate_autocovariances(random_macro_panel(rng, 30, 2), 4)
        mats = acov.matrices.copy()
        mats[1, 0, 1] += 1.0          # lag -2
        with pytest.raises(ValueError, match="R_-2 must equal the transpose of R_2"):
            AutocovarianceSet(mats, acov.mean)

    @pytest.mark.parametrize("h, first", [(0, 0), (1, -1)])
    def test_non_finite_matrix_names_the_first_lag(self, rng, h, first):
        # an infinite symmetric pair at lag 0, or an infinity mirrored onto lags -1 and +1,
        # used to slip past the symmetry and PSD comparisons as inf - inf = nan
        acov = estimate_autocovariances(random_macro_panel(rng, 30, 2), 4)
        mats = acov.matrices.copy()
        mats[3 + h, 0, 1] = mats[3 - h, 1, 0] = np.inf
        with pytest.raises(ValueError, match=f"^autocovariance at lag {first} not finite$"):
            AutocovarianceSet(mats, acov.mean)


class TestAutocovarianceSpan:
    """The lags -(q-1)..q-1 and max_lag = q - 1 are read from the odd first axis of ``matrices``; the span is
    max_lag + 1, not an attribute of its own."""

    @pytest.mark.parametrize("q", [1, 2, 5])
    def test_derived_span_and_lags(self, rng, q):
        acov = estimate_autocovariances(random_macro_panel(rng, 20, 2), q)
        assert acov.max_lag + 1 == q and type(acov.max_lag) is int and not hasattr(acov, "q")
        assert np.array_equal(acov.lags, np.arange(1 - q, q)) and acov.lags.dtype == int
        assert acov.lags is acov.lags and not acov.lags.flags.writeable
        for name in ("lags", "max_lag", "q"):
            with pytest.raises(AttributeError):
                setattr(acov, name, np.arange(3))
        assert [f.name for f in fields(acov)] == ["matrices", "mean"]

    @pytest.mark.parametrize("n_lags", [0, 2, 4])
    def test_even_lag_count_rejected(self, n_lags):
        mats = np.zeros((n_lags, 2, 2))
        with pytest.raises(ValueError, match="odd number of lags"):
            AutocovarianceSet(mats, np.zeros(2))

    @pytest.mark.parametrize("extra", [{"lags": np.arange(-1, 2)}, {"q": 2}])
    def test_span_keywords_removed(self, rng, extra):
        acov = estimate_autocovariances(random_macro_panel(rng, 20, 2), 2)
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            AutocovarianceSet(matrices=acov.matrices, mean=acov.mean, **extra)
