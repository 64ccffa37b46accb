"""End-to-end estimation: panels in, fitted lagged regression out.

Stage order: warp construction, mean-curve smoothing, regressor spectral
density, raw cross-covariances, cross-spectral smoothing, frequency-response
solve, filter quadrature, prediction and R^2.  The curve evaluation grid is
the requested equispaced warped grid joined with the warped maturity knots,
so predictions at the observed maturities never interpolate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import cross_spectral, lagreg, mv_spectral, smoother
from .model import Config, FrequencyGrid, LaggedRegressionFit, MacroPanel, SparseYieldPanel
from .warp import build_warp, warp_apply


@dataclass(frozen=True)
class Diagnostics:
    """Numerical health indicators collected along the pipeline."""

    max_imag_residual: float          # discarded imaginary part of the filter quadrature
    truncation_tail_mass: float       # sum of ||b_h|| over the two outermost lag pairs
    max_condition_number: float       # max over the nodes of cond(F_hat)


@dataclass(frozen=True)
class AnalysisResult:
    config: Config
    fit: LaggedRegressionFit
    spectral_density: mv_spectral.SpectralDensityField
    cross_spectral: cross_spectral.CrossSpectralField
    frequency_response: lagreg.FrequencyResponseField
    diagnostics: Diagnostics


def evaluation_grid(n_eval: int, n_maturities: int):
    """Equispaced warped grid of size n_eval, joined with the maturity knots.

    Returns (warped points, indices of the knots within them).
    """
    base = np.linspace(0.0, 1.0, n_eval)
    knots = np.linspace(0.0, 1.0, n_maturities)
    grid = np.unique(np.concatenate([base, knots]))
    knot_idx = np.searchsorted(grid, knots)
    if not np.array_equal(grid[knot_idx], knots):
        raise AssertionError("maturity knots lost while merging evaluation grids")
    return grid, knot_idx


def _tail_mass(fit: LaggedRegressionFit) -> float:
    """Truncation diagnostic: sum of RMS filter norms at |h| in {h_max-1, h_max}."""
    h_max = len(fit.lags) // 2
    if h_max == 0:
        return 0.0
    edge = np.abs(fit.lags) >= max(h_max - 1, 1)
    per_lag = np.sqrt(np.mean(fit.filter_coef[edge] ** 2, axis=(1, 2)))
    return float(per_lag.sum())


def analyze(panel: SparseYieldPanel, macro: MacroPanel, config: Config | None = None) -> AnalysisResult:
    """Run the full lagged-regression estimation on a pair of panels."""
    if panel.n_times != macro.n_times:
        raise ValueError(
            f"panel horizons differ: curves have T={panel.n_times}, regressors T={macro.n_times}"
        )
    if config is None:
        config = Config.defaults(panel.n_times, panel.n_maturities)
    if config.q > panel.n_times:
        raise ValueError(f"window span q={config.q} exceeds the horizon T={panel.n_times}")

    warp = build_warp(panel.maturity_grid)
    grid = FrequencyGrid(config.n_omega)
    eval_warped, knot_idx = evaluation_grid(config.n_eval, panel.n_maturities)

    mean_curve = smoother.mean_curve_warped(panel, config.b_mu, eval_warped)
    mean_at_knots = mean_curve[knot_idx]

    acov = mv_spectral.estimate_autocovariances(macro, config.q)
    spec_density = mv_spectral.spectral_density_matrix(acov, grid)

    raw = cross_spectral.raw_cross_cov(panel, macro, mean_at_knots, acov.mean, config.q)
    cross = cross_spectral.cross_spectral_density(raw, config.b_r, grid, eval_warped)

    response = lagreg.frequency_response(cross, spec_density, config.cond_threshold)
    coef, max_imag = lagreg.filter_coefficients(response, config.h_max)

    fit = LaggedRegressionFit(
        filter_coef=coef,
        eval_tau=np.asarray(warp_apply(warp, eval_warped), dtype=float),
        eval_warped=eval_warped,
        mean_curve=mean_curve,
        macro_means=acov.mean,
    )
    fit = replace(fit, r_squared=lagreg.r_squared(panel, fit, macro))

    diagnostics = Diagnostics(
        max_imag_residual=max_imag,
        truncation_tail_mass=_tail_mass(fit),
        max_condition_number=float(spec_density.condition_numbers.max()),
    )
    return AnalysisResult(
        config=config,
        fit=fit,
        spectral_density=spec_density,
        cross_spectral=cross,
        frequency_response=response,
        diagnostics=diagnostics,
    )
