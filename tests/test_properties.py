"""Property tests: the operator-based smoothers against their definitions, the
half-spectrum transform, conditioning, solve and quadrature against the same
steps on all N nodes, the knot-level field checks against the value-level
ones, the response solve and quadrature against the lag-domain normal
equations, the whole estimator's equivariance under relabelling,
recombination and time reversal of the regressors, rescaling and location
shifts, and the simulator's
scalar VAR(1) recursion for diagonal A against the matrix loop.

Hypothesis draws the panel shape, the window span, the bandwidth and the
missing-cell pattern; the checks are derandomized so every run sees the same
examples.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from sparselag import (AutocovarianceSet, Config, CrossSpectralField, FrequencyGrid,
                       FrequencyResponseField, MacroPanel, MaturityGrid, SparseYieldPanel,
                       SpectralDensityField, SyntheticSpec, US_MATURITIES, analyze, bartlett_weights,
                       cross_spectral_density, estimate_autocovariances, evaluation_grid, filter_coefficients,
                       frequency_response, local_linear_operator, mean_curve_warped,
                       naive_cross_spectral_density, predict_panel, raw_cross_cov, spectral_density_matrix)
from sparselag.mv_spectral import lag_window_transform
from sparselag.simulate import _var1_deviations
from conftest import random_macro_panel
from oracles import full_grid_reference, lag_domain_filter, loop_var1_deviations

_SETTINGS = settings(max_examples=20, derandomize=True, database=None, deadline=None)


@st.composite
def sparse_instances(draw):
    """(panel, rng, q, bandwidth) with every row and column observed at least once."""
    n_mat = draw(st.integers(3, 6))
    t_len = draw(st.integers(8, 25))
    observed = draw(arrays(bool, (t_len, n_mat), elements=st.booleans()))
    observed[np.arange(t_len), np.arange(t_len) % n_mat] = True
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = MaturityGrid(np.sort(rng.uniform(0.1, 30.0, size=n_mat)))
    values = np.where(observed, 5.0 + rng.standard_normal((t_len, n_mat)), np.nan)
    panel = SparseYieldPanel(values=values, observed=observed, maturity_grid=grid)
    q = draw(st.integers(1, 4))
    bandwidth = draw(st.floats(1.2, 2.5)) / (n_mat - 1)
    return panel, rng, q, bandwidth


@_SETTINGS
@given(sparse_instances(), st.integers(1, 2))
def test_cross_spectral_density_matches_naive_path(instance, d):
    panel, rng, q, b_r = instance
    macro = random_macro_panel(rng, panel.n_times, d)
    mean_curve = mean_curve_warped(panel, b_r, np.linspace(0, 1, panel.n_maturities))
    mu_x = macro.values.mean(axis=0)
    grid = FrequencyGrid(16)
    eval_warped = rng.uniform(size=3)
    raw = raw_cross_cov(panel, macro, mean_curve, mu_x, q)
    fast = cross_spectral_density(raw, b_r, grid, eval_warped)
    naive = naive_cross_spectral_density(panel, macro, mean_curve, mu_x,
                                         b_r, q, grid, eval_warped)
    assert np.abs(fast.values - naive).max() <= 1e-10


@_SETTINGS
@given(sparse_instances(), st.floats(-5, 5), st.floats(-5, 5))
def test_mean_curve_reproduces_affine_curves(instance, intercept, slope):
    panel, rng, _, b_mu = instance
    line = intercept + slope * np.linspace(0, 1, panel.n_maturities)
    affine = SparseYieldPanel(values=np.where(panel.observed, line, np.nan),
                              observed=panel.observed, maturity_grid=panel.maturity_grid)
    eval_warped = np.concatenate([[0.0, 1.0], rng.uniform(size=8)])
    est = mean_curve_warped(affine, b_mu, eval_warped)
    assert np.abs(est - (intercept + slope * eval_warped)).max() <= 1e-10


@st.composite
def regression_instances(draw):
    """(panel, macro, permutation): d = 2..3 regressors loading on sparse curves."""
    n_mat = draw(st.integers(3, 6))
    t_len = draw(st.integers(30, 60))
    d = draw(st.integers(2, 3))
    perm = draw(st.permutations(range(d)))
    missing = draw(st.floats(0.0, 0.3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    observed = rng.uniform(size=(t_len, n_mat)) >= missing
    observed[np.arange(t_len), np.arange(t_len) % n_mat] = True
    macro = random_macro_panel(rng, t_len, d)
    curves = 5.0 + macro.values @ rng.standard_normal((d, n_mat))
    curves += 0.5 * rng.standard_normal((t_len, n_mat))
    grid = MaturityGrid(np.sort(rng.uniform(0.1, 30.0, size=n_mat)))
    panel = SparseYieldPanel(values=np.where(observed, curves, np.nan), observed=observed,
                             maturity_grid=grid)
    return panel, macro, list(perm)


@_SETTINGS
@given(regression_instances())
def test_regressor_permutation_permutes_the_filter(instance):
    panel, macro, perm = instance
    config = Config.defaults(panel.n_times, panel.n_maturities, n_omega=32, n_eval=11, h_max=6)
    permuted = MacroPanel(values=macro.values[:, perm],
                          series_names=tuple(macro.series_names[j] for j in perm))
    base = analyze(panel, macro, config)
    result = analyze(panel, permuted, config)
    scale = np.abs(base.fit.filter_coef).max()
    assert np.abs(result.fit.filter_coef - base.fit.filter_coef[..., perm]).max() <= 1e-10 * scale
    assert np.array_equal(result.fit.mean_curve, base.fit.mean_curve)
    assert abs(result.r_squared - base.r_squared) <= 1e-10


_EPS = np.finfo(float).eps


@_SETTINGS
@given(regression_instances(), st.integers(0, 2**32 - 1))
def test_regressor_recombination_maps_the_filter_through_the_inverse_transpose(instance, seed):
    """X -> X M gives F -> M' F M and f -> f M, so B -> B M^-T and b_h -> b_h M^-T: the same predictions and R^2."""
    panel, macro, _ = instance
    rng = np.random.default_rng(seed)
    orthogonal, _ = np.linalg.qr(rng.standard_normal((macro.n_series, macro.n_series)))
    mixing = orthogonal * rng.uniform(0.5, 2.0, size=macro.n_series)      # cond(M) <= 4
    config = Config.defaults(panel.n_times, panel.n_maturities, n_omega=32, n_eval=11, h_max=6)
    mixed = MacroPanel(values=macro.values @ mixing, series_names=macro.series_names)
    base, result = analyze(panel, macro, config), analyze(panel, mixed, config)
    # Each fit solves systems conditioned like its F_hat and rounds to a few eps per unit of cond(F_hat)
    # (measured: at most 1.5 eps over 200 examples); predictions and R^2 inherit the filter's rounding.
    tol = 8 * _EPS * max(base.diagnostics.max_condition_number, result.diagnostics.max_condition_number)
    assert _rel(result.fit.filter_coef, base.fit.filter_coef @ np.linalg.inv(mixing).T) <= tol
    assert np.array_equal(result.fit.mean_curve, base.fit.mean_curve)
    assert _rel(predict_panel(result.fit, mixed), predict_panel(base.fit, macro)) <= tol
    assert abs(result.r_squared - base.r_squared) <= tol


@_SETTINGS
@given(regression_instances())
def test_time_reversal_reverses_the_filter(instance):
    """Reversing both panels in time turns R_h into R_-h and C_h into C_-h, so b_h into b_-h."""
    panel, macro, _ = instance
    config = Config.defaults(panel.n_times, panel.n_maturities, n_omega=32, n_eval=11, h_max=6)
    reversed_panel = SparseYieldPanel(values=panel.values[::-1], observed=panel.observed[::-1],
                                      maturity_grid=panel.maturity_grid)
    reversed_macro = MacroPanel(values=macro.values[::-1], series_names=macro.series_names)
    base, result = analyze(panel, macro, config), analyze(reversed_panel, reversed_macro, config)
    # The sums run over the same terms in another order: a few eps of rounding each (measured: at most 4 eps
    # for the mean curve and 1.6 eps per unit of cond(F_hat) for the filter over 200 examples).
    tol = 8 * _EPS * base.diagnostics.max_condition_number
    assert _rel(result.fit.filter_coef, base.fit.filter_coef[::-1]) <= tol
    assert _rel(result.fit.mean_curve, base.fit.mean_curve) <= 16 * _EPS
    assert abs(result.r_squared - base.r_squared) <= tol


@st.composite
def lag_domain_instances(draw):
    """(panel, macro, config): a regression instance on its first 1..3 regressors, n_omega 16..64, any h_max."""
    panel, macro, _ = draw(regression_instances())
    d = draw(st.integers(1, macro.n_series))
    n_omega = 2 * draw(st.integers(8, 32))
    config = Config.defaults(panel.n_times, panel.n_maturities, n_omega=n_omega, n_eval=11,
                             h_max=draw(st.integers(0, n_omega // 2 - 1)))
    return panel, MacroPanel(macro.values[:, :d], macro.series_names[:d]), config


@_SETTINGS
@given(lag_domain_instances())
def test_response_and_quadrature_match_the_lag_domain_normal_equations(instance):
    panel, macro, config = instance
    result = analyze(panel, macro, config)
    _, knot_idx = evaluation_grid(config.n_eval, panel.n_maturities)
    acov = estimate_autocovariances(macro, config.q)
    raw = raw_cross_cov(panel, macro, result.fit.mean_curve[knot_idx], acov.mean, config.q)
    smoother = local_linear_operator(bartlett_weights(config.q) @ raw.counts, result.fit.eval_warped, config.b_r)
    reference = lag_domain_filter(acov.matrices, raw.sums, smoother, config.n_omega, config.h_max)
    # Both sides solve systems conditioned like F_hat and sum O(N) terms, so each rounds to a few
    # eps per unit of cond(F_hat) (measured: at most 3.5 eps here); the section |k| <= 300 truncates
    # kappa far below that.
    tol = 16 * np.finfo(float).eps * result.diagnostics.max_condition_number
    assert _rel(result.fit.filter_coef, reference) <= tol


@st.composite
def real_lag_problems(draw):
    """(grid, real cross lags (2q-1, I, d), autocovariances, real operator (R, I), h_max)."""
    n = 2 * draw(st.integers(1, 24))
    q, n_knots = draw(st.integers(1, 5)), draw(st.integers(1, 9))
    n_eval, d = draw(st.integers(1, 12)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cross_lags = rng.standard_normal((2 * q - 1, n_knots, d))
    base = rng.standard_normal((2 * q - 1, d, d))
    base = base + np.transpose(base[::-1], (0, 2, 1))                  # R_{-h} = R_h'
    # a dominant lag-0 term keeps every node positive definite
    base[q - 1] += (np.sqrt((base ** 2).sum(axis=(1, 2))).sum() + 0.5) * np.eye(d)
    acov = AutocovarianceSet(base, np.zeros(d))
    operator = rng.standard_normal((n_eval, n_knots))
    return FrequencyGrid(n), cross_lags, acov, operator, draw(st.integers(0, (n - 2) // 2))


@_SETTINGS
@given(real_lag_problems())
def test_half_spectrum_steps_mirror_to_the_full_grid_reference(problem):
    grid, cross_lags, acov, operator, _ = problem
    z, f, cond, b = full_grid_reference(grid, cross_lags, acov.matrices)
    knots = lag_window_transform(cross_lags, grid)
    assert knots.shape[0] == grid.n_nodes // 2 + 1
    assert np.array_equal(grid.mirror(knots), z)
    spec = spectral_density_matrix(acov, grid)
    assert np.array_equal(spec.values, f)
    assert np.array_equal(grid.mirror(spec.condition_numbers), cond)
    resp = frequency_response(CrossSpectralField.from_knots(grid, knots, operator), spec, 1e12)
    assert np.array_equal(grid.mirror(resp.knot_values), b)


@st.composite
def symmetric_knot_fields(draw):
    """(field class, grid, knot field on the nodes k = 0..N/2, real operator, a knot entry (k, i, j))."""
    cls = draw(st.sampled_from([CrossSpectralField, FrequencyResponseField, SpectralDensityField]))
    n = 2 * draw(st.integers(2, 16))
    n_knots, n_eval, d = draw(st.integers(1, 6)), draw(st.integers(1, 8)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = FrequencyGrid(n)
    if cls is SpectralDensityField:     # Hermitian d x d knots, the half itself, and an off-diagonal entry
        n_knots = d = draw(st.integers(2, 4))
    knots = rng.standard_normal((n // 2 + 1, n_knots, d)) + 1j * rng.standard_normal((n // 2 + 1, n_knots, d))
    knots[[0, -1]] = knots[[0, -1]].real     # the self-paired nodes omega = -pi, 0
    operator = rng.standard_normal((n_eval, n_knots)) * 10.0 ** draw(st.integers(-4, 2))
    entry = (draw(st.integers(0, n // 2)), draw(st.integers(0, n_knots - 1)), draw(st.integers(0, d - 1)))
    if cls is SpectralDensityField:
        knots = knots + np.conj(np.swapaxes(knots, 1, 2))
        operator = np.eye(d)
        entry = (entry[0], entry[1], (entry[1] + draw(st.integers(1, d - 1))) % d)
    return cls, grid, knots, operator, entry


@_SETTINGS
@given(symmetric_knot_fields(), st.one_of(st.just(0.0), st.floats(1e-3, 0.999), st.floats(1.001, 8.0)),
       st.sampled_from([-1.0, 1.0]))
def test_knot_symmetry_check_is_at_least_as_strict_as_the_value_check(problem, ratio, sign):
    cls, grid, knots, operator, (k, i, j) = problem
    tol, message = cls._symmetry
    norm = np.abs(operator).sum(axis=1).max()
    # move Im Z of one knot by ratio * tol / (2 ||L||_inf); ratios within 1e-3 of 1 are left
    # out, as there rounding of order eps * ||L|| * |Z| decides either check.  The mirror
    # pairs every other node with its conjugate, so only omega = -pi and 0 can break symmetry.
    knots[k, i, j] += 1j * sign * ratio * tol / (2.0 * norm)
    if cls is SpectralDensityField:
        knots[k, j, i] = np.conj(knots[k, i, j])     # still Hermitian
    if k in (0, grid.n_nodes // 2) and norm * 2.0 * abs(knots[k, i, j].imag) > tol:
        with pytest.raises(ValueError, match=re.escape(message)):
            cls.from_knots(grid, knots, operator)
    else:
        values, n = cls.from_knots(grid, knots, operator).values, grid.n_nodes
        assert np.array_equal(values[n - 1: n // 2: -1], np.conj(values[1: n // 2]))    # mirrored pairs
        # the pairwise value check |v(-omega) - conj v(omega)| <= tol * max(1, max |v|) at omega = -pi, 0
        assert 2.0 * np.abs(values[[0, n // 2]].imag).max() <= tol * max(1.0, np.abs(values).max())


@_SETTINGS
@given(symmetric_knot_fields(), st.booleans())
def test_knot_construction_names_the_first_non_finite_node(problem, in_operator):
    """A non-finite knot value is reported at its node; the operator, shared by every node, at none."""
    cls, grid, knots, operator, (k, i, j) = problem
    if in_operator:
        operator[-1, i] = np.nan
        message = f"{cls.__name__} operator not finite"
    else:
        knots[k, i, j] = np.nan
        message = f"{cls.__name__} knot values not finite at omega = {float(grid.nodes[k])!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cls.from_knots(grid, knots, operator)


def _rel(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-300)


@_SETTINGS
@given(real_lag_problems())
def test_knot_level_solve_and_quadrature_match_materialised_fields(problem):
    grid, cross_lags, acov, operator, h_max = problem
    _, _, _, b = full_grid_reference(grid, cross_lags, acov.matrices)
    cross = CrossSpectralField.from_knots(grid, lag_window_transform(cross_lags, grid), operator)
    resp = frequency_response(cross, spectral_density_matrix(acov, grid), 1e12)
    values = operator @ b                                   # the (N, R, d) response field
    assert _rel(resp.values, values) <= 1e-12
    lags = np.arange(-h_max, h_max + 1)
    quadrature = np.einsum("lk,krd->lrd", np.exp(1j * np.outer(lags, grid.nodes)), values)
    coef = filter_coefficients(resp, h_max)
    assert _rel(coef, quadrature.real / grid.n_nodes) <= 1e-12


def _scaled_results(panel, macro, a, c, config, shift=0.0, macro_shift=0.0):
    """The fits of (Y, X) and of (a (Y + shift), c (X + macro_shift))."""
    scaled_panel = SparseYieldPanel(values=a * (panel.values + shift), observed=panel.observed,
                                    maturity_grid=panel.maturity_grid)
    scaled_macro = MacroPanel(values=c * (macro.values + macro_shift), series_names=macro.series_names)
    return analyze(panel, macro, config), analyze(scaled_panel, scaled_macro, config)


@_SETTINGS
@given(regression_instances(), st.integers(-4, 4), st.integers(-4, 4))
def test_power_of_two_rescaling_is_bit_exact(instance, log_a, log_c):
    panel, macro, _ = instance
    config = Config.defaults(panel.n_times, panel.n_maturities, n_omega=32, n_eval=11, h_max=6)
    a, c = 2.0 ** log_a, 2.0 ** log_c
    base, result = _scaled_results(panel, macro, a, c, config)
    assert np.array_equal(result.fit.filter_coef, base.fit.filter_coef * (a / c))
    assert np.array_equal(result.fit.mean_curve, base.fit.mean_curve * a)
    assert result.r_squared == base.r_squared


@_SETTINGS
@given(regression_instances(), st.floats(0.01, 100.0), st.floats(0.01, 100.0), st.floats(-100.0, 100.0),
       st.floats(-100.0, 100.0))
def test_rescaling_scales_filter_and_mean_and_keeps_r_squared(instance, a, c, shift, macro_shift):
    """Y -> a (Y + shift), X -> c (X + macro_shift): the centring removes the shifts, so b -> b a / c,
    mu_Y -> a (mu_Y + shift) and R^2 stays."""
    panel, macro, _ = instance
    config = Config.defaults(panel.n_times, panel.n_maturities, n_omega=32, n_eval=11, h_max=6)
    base, result = _scaled_results(panel, macro, a, c, config, shift, macro_shift)
    curve_reach = np.nanmax(np.abs(panel.values)) + abs(shift)
    macro_reach = np.abs(macro.values).max() + abs(macro_shift)
    # Centring subtracts means of the size of the largest |value| from data of unit spread, so each centred
    # value is off by an eps of that size, and the solve multiplies it by cond(F_hat) (measured: at most
    # 0.15 eps over 300 examples).  The mean smoother averages the values: a few eps of the largest (measured 2.4).
    tol = 2 * _EPS * base.diagnostics.max_condition_number * (curve_reach + macro_reach)
    assert _rel(result.fit.filter_coef, base.fit.filter_coef * (a / c)) <= tol
    assert np.abs(result.fit.mean_curve - a * (base.fit.mean_curve + shift)).max() <= 16 * _EPS * a * curve_reach
    assert abs(result.r_squared - base.r_squared) <= tol


@st.composite
def diagonal_var1_specs(draw):
    """A diagonal VAR(1) spec: zero, -0.0 and negative coefficients, either sign of
    zero off the diagonal, a random SPD innovation covariance, 1..3000 dates."""
    d = draw(st.integers(1, 6))
    coefs = draw(st.lists(st.sampled_from([0.0, -0.0]) | st.floats(-0.95, 0.95),
                          min_size=d, max_size=d))
    off = draw(st.sampled_from([0.0, -0.0]))
    ar = np.where(np.eye(d, dtype=bool), np.diag(coefs), off)
    m = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((d, d))
    return SyntheticSpec(maturity_grid=MaturityGrid(np.array(US_MATURITIES)),
                         n_times=draw(st.integers(1, 3000)), ar_coef=ar,
                         innovation_cov=m @ m.T + 0.1 * np.eye(d), macro_mean=np.zeros(d),
                         seed=draw(st.integers(0, 2**32 - 1)))


@_SETTINGS
@given(diagonal_var1_specs())
def test_diagonal_var1_recursion_matches_matrix_loop_bit_for_bit(spec):
    fast = _var1_deviations(spec, np.random.default_rng(spec.seed), spec.n_times)
    loop = loop_var1_deviations(spec, np.random.default_rng(spec.seed), spec.n_times)
    assert np.array_equal(fast, loop)
