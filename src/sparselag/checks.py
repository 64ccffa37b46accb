"""Built-in oracle suite behind the ``check`` subcommand.

Each check compares an estimator against an independent reference at reduced
scale: the factorized cross-spectral smoother against per-frequency least
squares, the filter quadrature against a synthesized trigonometric
polynomial, the lag-window spectral estimate against the VAR(1) closed form,
plus warp round trips, the lag-window inverse-transform identity, exact
affine reproduction of the mean smoother, and the bulk number formatter of
the result files against ``repr``.  Each runs a platform-dependent result
(numpy, BLAS, float formatting) once, through the library as shipped;
identities that hold exactly by construction are pinned by the test suite
instead.  Tolerances are loose enough to hold across seeds.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from . import cross_spectral, lagreg, mv_spectral, simulate, smoother
from ._floattext import float_texts
from .model import FrequencyGrid, MacroPanel, MaturityGrid, SparseYieldPanel
from .warp import warp_apply, warp_inverse


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
    recovered = lagreg.filter_coefficients(resp, h_max)
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


def check_inverse_transform(rng: np.random.Generator) -> CheckResult:
    """Lag-window inverse transform (2pi/N) * sum_k F(omega_k) e^{i h omega_k} = W_h * R_h.

    On asymmetric R_h the identity tells the e^{-i h omega} convention from its
    flipped mutant, so a sign error upstream fails here.
    """
    t_len, d, q, tol = 200, 2, 6, 1e-10
    a = np.array([[0.6, 0.2], [-0.1, 0.4]])
    spec = simulate.SyntheticSpec(
        maturity_grid=MaturityGrid(np.array(simulate.US_MATURITIES)),
        n_times=t_len, ar_coef=a, innovation_cov=np.eye(d),
        macro_mean=np.zeros(d), seed=int(rng.integers(2 ** 31)))
    acov = mv_spectral.estimate_autocovariances(simulate.simulate_var1(spec), q)
    grid = FrequencyGrid(64)
    mats = mv_spectral.spectral_density_matrix(acov, grid).values
    recovered = np.einsum("kl,kab->lab",
                          np.exp(1j * np.outer(grid.nodes, acov.lags)), mats) * grid.quadrature_weight
    err = float(np.abs(recovered - mv_spectral.bartlett_weights(q)[:, None, None] * acov.matrices).max())
    return CheckResult("lag-window inverse transform", err <= tol,
                       f"max defect = {err:.2e} (tol {tol:.0e})")


def check_warp_round_trip(rng: np.random.Generator) -> CheckResult:
    """phi^{-1}(phi(t)) = t on random monotone grids."""
    tol, worst = 1e-9, 0.0
    for _ in range(5):
        n_mat = int(rng.integers(3, 12))
        grid = MaturityGrid(np.cumsum(rng.uniform(0.05, 5.0, size=n_mat)))
        t = rng.uniform(size=200)
        back = np.asarray(warp_inverse(grid, warp_apply(grid, t)))
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


def float_edge_cases() -> np.ndarray:
    """Doubles on which shortest round-trip formatting is easiest to get wrong, both signs.

    Powers of two and ten with their neighbours, both ends of the formatter's
    exact range (1e-6 and 1e15), the switches to exponent notation (1e-4 and
    1e16), 15-, 16- and 17-digit decimals, exact halfway cases, zeros,
    subnormals, the largest double and the non-finite values.
    """
    centres = np.array([2.0 ** j for j in range(-30, 61)] + [10.0 ** j for j in range(-7, 17)]
                       + [1e-6, 1e-4, 1e15, 1e16, 5e-324, 2.2250738585072014e-308])
    decimals = [0.1, 0.3, 0.30000000000000004, 123456789012345.0, 0.123456789012345,
                0.1234567890123456, 0.12345678901234567, 9.999999999999999,
                999999999999999.9, 1.2345678901234567e-05, 98765.43210987654,
                # exact binary fractions whose decimal ends in 5, one digit beyond 15, 16, 17
                12345678901234.25, 1234567890123.125, 1234567890123.0625, 0.5000000000000001]
    values = np.concatenate([centres, np.nextafter(centres, 0.0),
                             np.nextafter(centres, np.inf), decimals,
                             [sys.float_info.max, 0.0, np.inf, np.nan]])
    return np.concatenate([values, -values])


def check_float_text(rng: np.random.Generator) -> CheckResult:
    """The bulk formatter of the result files against ``repr``, byte for byte.

    It relies on numpy's uint64 arithmetic wrapping and shifting as it should;
    this runs it on the edge cases and on random bit patterns, half of them
    with exponents inside its exact range.
    """
    bits = rng.integers(0, 2 ** 64, size=20_000, dtype=np.uint64)
    exponents = rng.integers(1003, 1073, size=10_000, dtype=np.uint64)    # 2^-20 .. 2^50
    bits[:10_000] = (bits[:10_000] & np.uint64(0x800FFFFFFFFFFFFF)) | (exponents << np.uint64(52))
    values = np.concatenate([float_edge_cases(), bits.view(np.float64)])
    expected = [repr(v).encode() for v in values.tolist()]
    wrong = sum(got != want for got, want in zip(float_texts(values), expected))
    return CheckResult("result-file number text equals repr", wrong == 0,
                       f"{wrong} of {len(expected)} values differ")


def run_builtin_checks(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    return [
        check_cross_spectral_equivalence(rng),
        check_quadrature_round_trip(rng),
        check_var1_closed_form(rng),
        check_inverse_transform(rng),
        check_warp_round_trip(rng),
        check_affine_reproduction(rng),
        check_float_text(rng),
    ]
