"""Built-in oracle suite behind the ``check`` subcommand.

Each check compares an estimator against an independent reference at reduced
scale: the factorized cross-spectral smoother against per-frequency least
squares, the filter quadrature against a synthesized trigonometric
polynomial, the lag-window spectral estimate against the VAR(1) closed form,
plus warp round trips, symmetry/inverse-transform identities, and exact
affine reproduction of the mean smoother.  Tolerances are loose enough to
hold across seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cross_spectral, lagreg, mv_spectral, simulate, smoother
from .model import FrequencyGrid, MacroPanel, MaturityGrid, SparseYieldPanel
from .warp import build_warp, warp_apply, warp_inverse


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_instance(rng: np.random.Generator):
    """Small random panel pair with scattered missing cells."""
    n_mat = int(rng.integers(3, 6))
    t_len = int(rng.integers(12, 31))
    d = int(rng.integers(1, 3))
    q = int(rng.integers(1, 5))
    maturities = np.sort(rng.uniform(0.1, 30.0, size=n_mat))
    while np.any(np.diff(maturities) < 1e-3):
        maturities = np.sort(rng.uniform(0.1, 30.0, size=n_mat))
    grid = MaturityGrid(maturities)

    observed = rng.uniform(size=(t_len, n_mat)) > 0.15
    for t in np.flatnonzero(~observed.any(axis=1)):
        observed[t, rng.integers(n_mat)] = True
    for i in np.flatnonzero(~observed.any(axis=0)):
        observed[rng.integers(t_len), i] = True
    values = np.where(observed, rng.standard_normal((t_len, n_mat)) + 5.0, np.nan)
    panel = SparseYieldPanel(values=values, observed=observed, maturity_grid=grid)
    macro = MacroPanel(values=rng.standard_normal((t_len, d)),
                       series_names=tuple(f"X{j + 1}" for j in range(d)))
    b_r = float(rng.uniform(1.2, 2.0)) / (n_mat - 1)
    return panel, macro, q, b_r


def check_cross_spectral_equivalence(rng: np.random.Generator) -> CheckResult:
    """Factorized smoother path vs naive per-frequency weighted least squares."""
    grid, tol, worst = FrequencyGrid(32), 1e-10, 0.0
    for _ in range(5):
        panel, macro, q, b_r = _random_instance(rng)
        eval_warped = rng.uniform(size=3)
        mean_curve = smoother.mean_curve_warped(
            panel, 2.0 / (panel.n_maturities - 1), np.linspace(0, 1, panel.n_maturities))
        macro_means = macro.values.mean(axis=0)
        raw = cross_spectral.raw_cross_cov(panel, macro, mean_curve, macro_means, q)
        fast = cross_spectral.cross_spectral_density(raw, b_r, grid, eval_warped)
        naive = cross_spectral.naive_cross_spectral_density(
            panel, macro, mean_curve, macro_means, b_r, q, grid, eval_warped)
        worst = max(worst, float(np.abs(fast.values - naive).max()))
    return CheckResult("cross-spectral smoother equivalence", worst <= tol,
                       f"max |fast - naive| = {worst:.2e} (tol {tol:.0e})")


def check_quadrature_round_trip(rng: np.random.Generator) -> CheckResult:
    """Synthesize a response from known lag coefficients and recover them."""
    h_true, h_max, n_omega, tol = 5, 12, 128, 1e-12
    coef = rng.standard_normal((2 * h_true + 1, 4, 2))
    grid = FrequencyGrid(n_omega)
    lags = np.arange(-h_true, h_true + 1)
    half = np.einsum("ln,lrd->nrd", np.exp(-1j * np.outer(lags, grid.nodes[: n_omega // 2 + 1])), coef)
    resp = lagreg.FrequencyResponseField.from_knots(grid, half, np.eye(coef.shape[1]))
    recovered, _ = lagreg.filter_coefficients(resp, h_max)
    center = h_max - h_true
    err_inside = float(np.abs(recovered[center: center + 2 * h_true + 1] - coef).max())
    err_outside = float(max(np.abs(recovered[:center]).max(), np.abs(recovered[-center:]).max()))
    err = max(err_inside, err_outside)
    return CheckResult("filter quadrature round trip", err <= tol,
                       f"max recovery error = {err:.2e} (tol {tol:.0e})")


def check_var1_closed_form(rng: np.random.Generator) -> CheckResult:
    """Lag-window spectral estimate vs the AR(1) closed form, reduced scale."""
    t_len = 20000
    seed = int(rng.integers(2 ** 31))
    spec = simulate.SyntheticSpec(
        maturity_grid=MaturityGrid(np.array(simulate.US_MATURITIES)),
        n_times=t_len, ar_coef=np.array([[0.5]]), innovation_cov=np.array([[1.0]]),
        macro_mean=np.zeros(1), seed=seed)
    macro = simulate.simulate_var1(spec)
    q = int(np.ceil(np.sqrt(t_len)))
    grid = FrequencyGrid(512)
    est = mv_spectral.spectral_density_matrix(
        mv_spectral.estimate_autocovariances(macro, q), grid)
    exact = simulate.var1_spectral_density(spec.ar_coef, spec.innovation_cov, grid)
    rel = np.abs(est.values - exact)[:, 0, 0] / np.abs(exact)[:, 0, 0]
    ok = float(rel.max()) <= 0.5 and float(rel.mean()) <= 0.15
    return CheckResult("lag-window estimate vs VAR(1) closed form", ok,
                       f"rel err max = {rel.max():.3f} (tol 0.5), mean = {rel.mean():.3f} (tol 0.15)")


def check_bartlett_symmetry(rng: np.random.Generator,
                            spectral_fn=mv_spectral.spectral_density_matrix) -> CheckResult:
    """Hermitianity, conjugate symmetry, and inverse-transform recovery.

    The inverse-transform identity (2pi/N) * sum_k F(omega_k) e^{i h omega_k}
    = W_h * R_h distinguishes the e^{-i h omega} convention from its flipped
    mutant on asymmetric R_h, so a sign error upstream fails here.
    """
    t_len, d, q = 200, 2, 6
    a = np.array([[0.6, 0.2], [-0.1, 0.4]])
    spec = simulate.SyntheticSpec(
        maturity_grid=MaturityGrid(np.array(simulate.US_MATURITIES)),
        n_times=t_len, ar_coef=a, innovation_cov=np.eye(d),
        macro_mean=np.zeros(d), seed=int(rng.integers(2 ** 31)))
    macro = simulate.simulate_var1(spec)
    acov = mv_spectral.estimate_autocovariances(macro, q)
    grid = FrequencyGrid(64)
    try:
        field = spectral_fn(acov, grid)
        mats = field.values
    except ValueError as exc:
        return CheckResult("lag-window symmetry and inverse transform", False, str(exc))

    herm = float(np.abs(mats - np.conj(np.swapaxes(mats, 1, 2))).max())
    flip = float(np.abs(mats[(-np.arange(grid.n_nodes)) % grid.n_nodes] - np.conj(mats)).max())
    weights = mv_spectral.bartlett_weights(q)
    recovered = np.einsum("kl,kab->lab",
                          np.exp(1j * np.outer(grid.nodes, acov.lags)), mats) * grid.quadrature_weight
    inv = float(np.abs(recovered - weights[:, None, None] * acov.matrices).max())
    worst = max(herm, flip, inv)
    return CheckResult("lag-window symmetry and inverse transform", worst <= 1e-10,
                       f"max defect = {worst:.2e} (tol 1e-10)")


def check_warp_round_trip(rng: np.random.Generator) -> CheckResult:
    """phi^{-1}(phi(t)) = t on random monotone grids."""
    tol, worst = 1e-9, 0.0
    for _ in range(5):
        n_mat = int(rng.integers(3, 12))
        grid = MaturityGrid(np.cumsum(rng.uniform(0.05, 5.0, size=n_mat)))
        warp = build_warp(grid)
        t = rng.uniform(size=200)
        back = np.asarray(warp_inverse(warp, warp_apply(warp, t)))
        worst = max(worst, float(np.abs(back - t).max()))
    return CheckResult("warp round trip", worst <= tol,
                       f"max |t - phi_inv(phi(t))| = {worst:.2e} (tol {tol:.0e})")


def check_affine_reproduction(rng: np.random.Generator) -> CheckResult:
    """Mean smoother is exact on data affine in warped coordinates."""
    tol = 1e-10
    grid = MaturityGrid(np.array(simulate.US_MATURITIES))
    alpha, beta = float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3))
    tau_tilde = np.linspace(0, 1, grid.n_maturities)
    values = np.tile(alpha + beta * tau_tilde, (40, 1))
    panel = SparseYieldPanel.from_values(values, grid)
    eval_warped = np.linspace(0.05, 0.95, 31)
    est = smoother.mean_curve_warped(panel, 2.0 / (grid.n_maturities - 1), eval_warped)
    err = float(np.abs(est - (alpha + beta * eval_warped)).max())
    return CheckResult("mean smoother affine reproduction", err <= tol,
                       f"max error = {err:.2e} (tol {tol:.0e})")


def run_builtin_checks(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    return [
        check_cross_spectral_equivalence(rng),
        check_quadrature_round_trip(rng),
        check_var1_closed_form(rng),
        check_bartlett_symmetry(rng),
        check_warp_round_trip(rng),
        check_affine_reproduction(rng),
    ]
