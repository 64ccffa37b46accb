"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS line on success (run with ``pytest -s`` to see
them); a failure reads as the criterion's FAIL.  The US Treasury case study
is conditional on user-supplied data (see README) and reports a skip when
the files are absent.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

import sparselag as sl
from conftest import field_from_values, random_macro_panel, random_sparse_panel


def _report(n, text):
    print(f"\nACCEPTANCE {n} PASS: {text}")


def test_01_cross_spectral_oracle_equivalence():
    rng = np.random.default_rng(1001)
    grid = sl.FrequencyGrid(64)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        t_len = int(rng.integers(8, 31))
        n_mat = int(rng.integers(3, 6))
        d = int(rng.integers(1, 3))
        q = int(rng.integers(1, 5))
        panel = random_sparse_panel(rng, t_len, n_mat)
        macro = random_macro_panel(rng, t_len, d)
        mean_curve = sl.mean_curve_warped(panel, 2.0 / (n_mat - 1), np.linspace(0, 1, n_mat))
        mu_x = macro.values.mean(axis=0)
        eval_warped = rng.uniform(size=3)
        b_r = float(rng.uniform(1.2, 2.5)) / (n_mat - 1)
        raw = sl.raw_cross_cov(panel, macro, mean_curve, mu_x, q)
        fast = sl.cross_spectral_density(raw, b_r, grid, eval_warped)
        naive = sl.naive_cross_spectral_density(panel, macro, mean_curve, mu_x,
                                                b_r, q, grid, eval_warped)
        worst = max(worst, float(np.abs(fast.values - naive).max()))
    elapsed = time.perf_counter() - started
    assert worst <= 1e-10, f"max |fast - naive| = {worst:.3e}"
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _report(1, f"precomputed vs naive cross-spectral smoother, 100 instances, "
               f"max dev {worst:.2e} <= 1e-10, {elapsed:.1f}s < 30s")


def test_02_bartlett_vs_closed_form():
    t_len, seed = 50000, 20
    started = time.perf_counter()
    spec = sl.SyntheticSpec(maturity_grid=sl.MaturityGrid(np.array(sl.US_MATURITIES)),
                            n_times=t_len, ar_coef=np.array([[0.5]]),
                            innovation_cov=np.array([[1.0]]), macro_mean=np.zeros(1), seed=seed)
    macro = sl.simulate_var1(spec)
    q = int(np.ceil(np.sqrt(t_len)))
    grid = sl.FrequencyGrid(512)
    est = sl.spectral_density_matrix(sl.estimate_autocovariances(macro, q), grid)
    exact = sl.var1_spectral_density(spec.ar_coef, spec.innovation_cov, grid)
    rel = (np.abs(est.values - exact) / np.abs(exact))[:, 0, 0]
    elapsed = time.perf_counter() - started
    assert rel.max() <= 0.15, f"max relative error {rel.max():.4f}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _report(2, f"AR(1) lag-window vs closed form, T={t_len}, q={q}, "
               f"max rel err {rel.max():.3f} <= 0.15, {elapsed:.1f}s < 10s")


def test_03_fourier_round_trip():
    rng = np.random.default_rng(33)
    h_true, h_max = 5, 12
    grid = sl.FrequencyGrid(512)
    lags = np.arange(-h_true, h_true + 1)
    coef = rng.standard_normal((lags.size, 3, 2))
    values = np.einsum("ln,lrd->nrd", np.exp(-1j * np.outer(lags, grid.nodes)), coef)
    resp = field_from_values(sl.FrequencyResponseField, grid, values)
    recovered, _ = sl.filter_coefficients(resp, h_max)
    center = h_max - h_true
    err_in = float(np.abs(recovered[center: center + lags.size] - coef).max())
    err_out = float(max(np.abs(recovered[:center]).max(), np.abs(recovered[-center:]).max()))
    assert err_in <= 1e-12, f"recovery error {err_in:.3e}"
    assert err_out <= 1e-12, f"leakage into 5 < |h| <= 12 is {err_out:.3e}"
    _report(3, f"filter quadrature round trip on 512 nodes, recovery {err_in:.1e}, "
               f"outside-lag leakage {err_out:.1e}, both <= 1e-12")


def test_04_affine_mean_reproduction(us_grid):
    tau_tilde = np.linspace(0, 1, us_grid.n_maturities)
    panel = sl.SparseYieldPanel.from_values(np.tile(1.5 - 2.0 * tau_tilde, (25, 1)), us_grid)
    warp = sl.build_warp(us_grid)
    eval_warped = np.linspace(0, 1, 52)[1:-1]      # 50 interior points
    taus = np.asarray(sl.warp_apply(warp, eval_warped))
    est = sl.estimate_mean_curve(panel, warp, 2.0 / (us_grid.n_maturities - 1), taus)
    err = float(np.abs(est - (1.5 - 2.0 * eval_warped)).max())
    assert err <= 1e-10, f"max error {err:.3e}"
    _report(4, f"mean smoother exact on warped-affine data, 50 interior points, "
               f"max err {err:.1e} <= 1e-10")


def test_05_end_to_end_filter_recovery():
    started = time.perf_counter()
    spec = sl.recovery_spec(seed=0)
    panel, macro, truth = sl.simulate_lagged_regression(spec)
    result = sl.analyze(panel, macro)
    fit = result.fit
    interior = (fit.eval_warped >= 0.05) & (fit.eval_warped <= 0.95)
    b0 = fit.filter_coef[fit.lag_index(0)][interior, 0]
    true_b0 = 1.0 - fit.eval_warped[interior]
    rel_l2 = float(np.sqrt(np.sum((b0 - true_b0) ** 2) / np.sum(true_b0 ** 2)))
    norms = {int(h): float(np.sqrt(np.mean(fit.filter_coef[l][interior, 0] ** 2)))
             for l, h in enumerate(fit.lags)}
    leak = max(v for h, v in norms.items() if h != 0)
    elapsed = time.perf_counter() - started
    assert rel_l2 <= 0.2, f"relative L2 error {rel_l2:.4f}"
    assert leak <= 0.25 * norms[0], f"leakage {leak:.4f} vs 0.25*{norms[0]:.4f}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _report(5, f"lag-0 filter recovered, rel L2 err {rel_l2:.3f} <= 0.2, "
               f"off-lag leakage {leak / norms[0]:.3f} <= 0.25, {elapsed:.1f}s < 60s")


def test_06_null_model_r_squared():
    values = []
    for seed in range(10):
        panel, macro, _ = sl.simulate_lagged_regression(sl.recovery_spec(seed=seed, null_model=True))
        values.append(sl.analyze(panel, macro).r_squared)
    lo, hi = min(values), max(values)
    assert -0.05 <= lo and hi <= 0.05, f"null R^2 range [{lo:.4f}, {hi:.4f}]"
    _report(6, f"null-model R^2 within [-0.05, 0.05] over 10 seeds "
               f"(range [{lo:.4f}, {hi:.4f}])")


def test_07_us_treasury_case_study():
    data_dir = Path(os.environ.get("SPARSELAG_CASE_STUDY_DIR", Path(__file__).parent.parent / "data"))
    yields_path = data_dir / "us_yields.csv"
    macro_path = data_dir / "us_macro.csv"
    if not (yields_path.exists() and macro_path.exists()):
        pytest.skip("criterion 7 skipped: 1985-2000 US Treasury + macro CSVs not supplied "
                    f"(looked in {data_dir})")
    panel = sl.load_yields_csv(yields_path)
    macro = sl.load_macro_csv(macro_path)
    config = sl.Config.defaults(panel.n_times, panel.n_maturities, q=14)
    result = sl.analyze(panel, macro, config)
    r2 = result.r_squared
    assert 0.73 <= r2 <= 0.83, f"case-study R^2 = {r2:.4f}"
    ffr = [j for j, name in enumerate(macro.series_names) if "ffr" in name.lower()]
    assert ffr, "expected a federal-funds-rate series (name containing 'FFR')"
    b0_short = result.fit.filter_coef[result.fit.lag_index(0)][0, ffr[0]]
    assert b0_short >= 0.8, f"lag-0 FFR coefficient at shortest maturity = {b0_short:.3f}"
    _report(7, f"case study R^2 = {r2:.3f} in [0.73, 0.83]; "
               f"lag-0 FFR loading at short end {b0_short:.2f} >= 0.8")


def test_08_performance_envelope():
    spec = sl.SyntheticSpec(
        maturity_grid=sl.MaturityGrid(np.array(sl.US_MATURITIES)), n_times=192,
        ar_coef=np.diag([0.8, 0.7, 0.9]), innovation_cov=np.eye(3), macro_mean=np.zeros(3),
        filter_fns={(0, 2): lambda t: 1.0 - t}, curve_error_scale=0.3, noise_sd=0.1, seed=0)
    panel, macro, _ = sl.simulate_lagged_regression(spec)
    config = sl.Config.defaults(192, 9)     # q=14, n_omega=512, n_eval=101, h_max=12
    started = time.perf_counter()
    result = sl.analyze(panel, macro, config)
    elapsed = time.perf_counter() - started
    assert result.config.q == 14
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _report(8, f"case-study-scale pipeline (T=192, I=9, d=3, 512 nodes, 101+knots eval points) "
               f"in {elapsed:.2f}s < 10s")


def test_09_symmetry_suite():
    rng = np.random.default_rng(909)
    worst = {"spectral": 0.0, "cross": 0.0, "response": 0.0, "hermitian": 0.0}
    for _ in range(20):
        t_len = int(rng.integers(40, 90))
        panel = random_sparse_panel(rng, t_len, int(rng.integers(3, 7)))
        macro = random_macro_panel(rng, t_len, int(rng.integers(1, 4)))
        cfg = sl.Config.defaults(t_len, panel.n_maturities, n_omega=64, n_eval=11)
        result = sl.analyze(panel, macro, cfg)
        pair = (-np.arange(64)) % 64
        f = result.spectral_density.values
        g = result.cross_spectral.values
        b = result.frequency_response.values
        worst["hermitian"] = max(worst["hermitian"],
                                 float(np.abs(f - np.conj(np.swapaxes(f, 1, 2))).max()
                                       / max(1, np.abs(f).max())))
        worst["spectral"] = max(worst["spectral"],
                                float(np.abs(f[pair] - np.conj(f)).max() / max(1, np.abs(f).max())))
        worst["cross"] = max(worst["cross"],
                             float(np.abs(g[pair] - np.conj(g)).max() / max(1, np.abs(g).max())))
        worst["response"] = max(worst["response"],
                                float(np.abs(b[pair] - np.conj(b)).max() / max(1, np.abs(b).max())))
    assert worst["hermitian"] <= 1e-12
    assert worst["spectral"] <= 1e-12
    assert worst["cross"] <= 1e-10
    assert worst["response"] <= 1e-8
    _report(9, "Hermitian/conjugate symmetry on 20 random instances: "
               f"F hermitian {worst['hermitian']:.1e} <= 1e-12, F conj {worst['spectral']:.1e} <= 1e-12, "
               f"f conj {worst['cross']:.1e} <= 1e-10, B conj {worst['response']:.1e} <= 1e-8")
