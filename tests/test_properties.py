"""Property tests: the operator-based smoothers against their definitions, and
the whole estimator's equivariance under relabelling of the regressors.

Hypothesis draws the panel shape, the window span, the bandwidth and the
missing-cell pattern; the checks are derandomized so every run sees the same
examples.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from sparselag import (Config, FrequencyGrid, MacroPanel, MaturityGrid, SparseYieldPanel,
                       analyze, build_warp, cross_spectral_density, empirical_mean,
                       mean_curve_warped, naive_cross_spectral_density, raw_cross_cov)
from conftest import random_macro_panel

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
    warp = build_warp(panel.maturity_grid)
    mean_curve = mean_curve_warped(panel, b_r, np.linspace(0, 1, panel.n_maturities))
    mu_x = empirical_mean(macro)
    grid = FrequencyGrid(16)
    eval_warped = rng.uniform(size=3)
    raw = raw_cross_cov(panel, macro, mean_curve, mu_x, q)
    fast = cross_spectral_density(raw, b_r, grid, eval_warped)
    naive = naive_cross_spectral_density(panel, macro, mean_curve, mu_x, warp,
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
    base = analyze(panel, macro, config).fit
    fit = analyze(panel, permuted, config).fit
    scale = np.abs(base.filter_coef).max()
    assert np.abs(fit.filter_coef - base.filter_coef[..., perm]).max() <= 1e-10 * scale
    assert np.array_equal(fit.mean_curve, base.mean_curve)
    assert abs(fit.r_squared - base.r_squared) <= 1e-10
