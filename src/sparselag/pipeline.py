"""End-to-end estimation: panels in, fitted lagged regression out.

Stage order: warp construction, mean-curve smoothing, regressor spectral
density, raw cross-covariances, cross-spectral smoothing, frequency-response
solve, filter quadrature, prediction and R^2.  The curve evaluation grid is
the requested equispaced warped grid joined with the warped maturity knots,
so predictions at the observed maturities never interpolate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cross_spectral, lagreg, mv_spectral, smoother
from .model import Config, FrequencyGrid, LaggedRegressionFit, MacroPanel, SparseYieldPanel, _check_horizons
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
    r_squared: float                  # in-sample R^2 of fit on the analyzed panels
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
    return grid, np.searchsorted(grid, knots)


def _tail_mass(fit: LaggedRegressionFit) -> float:
    """Truncation diagnostic: sum of RMS filter norms at |h| in {h_max-1, h_max}."""
    edge = np.abs(fit.lags) >= max(fit.max_lag - 1, 1)     # none when h_max = 0
    per_lag = np.sqrt(np.mean(fit.filter_coef[edge] ** 2, axis=(1, 2)))
    return float(per_lag.sum())


def analyze(panel: SparseYieldPanel, macro: MacroPanel, config: Config | None = None) -> AnalysisResult:
    """Run the full lagged-regression estimation on a pair of panels."""
    _check_horizons(panel.n_times, macro.n_times)
    if config is None:
        config = Config.defaults(panel.n_times, panel.n_maturities)
    with np.errstate(over="ignore", invalid="ignore"):   # an overflow fails the next finiteness check
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
        r_squared = lagreg.r_squared(panel, fit, macro)
        diagnostics = Diagnostics(
            max_imag_residual=max_imag,
            truncation_tail_mass=_tail_mass(fit),
            max_condition_number=float(spec_density.condition_numbers.max()),
        )
    return AnalysisResult(
        config=config,
        fit=fit,
        r_squared=r_squared,
        spectral_density=spec_density,
        cross_spectral=cross,
        frequency_response=response,
        diagnostics=diagnostics,
    )
