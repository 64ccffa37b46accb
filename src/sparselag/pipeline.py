"""End-to-end estimation: panels in, fitted lagged regression out.

Stage order: mean-curve smoothing, regressor autocovariances, raw
cross-covariances and their smoothing operator, then on a frequency grid the
regressor spectral density, the cross-spectral knot field, the
frequency-response solve and the filter quadrature; last, the warp of the
evaluation grid to maturities, prediction and R^2.  The curve evaluation grid
is the requested equispaced warped grid joined with the warped maturity knots,
so predictions at the observed maturities never interpolate.

The two spectral estimates are trigonometric polynomials, exact on any grid;
the only error that depends on the grid size N is the quadrature's fold of the
response's lag sequence modulo N (Gray 2006).  Unless ``Config.n_omega`` fixes
N, the grid starts at the smallest power of two >= START_FACTOR (q + h_max)
and doubles, at most MAX_DOUBLINGS times, while the response's aliasing edge
ratio exceeds ALIASING_LEVEL; only the two lag-window transforms and the
response solve run again, and the quadrature runs once, on the grid kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cross_spectral, lagreg, mv_spectral, smoother
from .model import Config, FrequencyGrid, LaggedRegressionFit, MacroPanel, SparseYieldPanel, _check_horizons
from .warp import warp_apply

ALIASING_LEVEL = 1e-9   # at or below it, filters stayed within 8e-16 of 8,192-node runs (max-abs relative)
START_FACTOR = 8        # nodes per lag of q + h_max on the first grid
MAX_DOUBLINGS = 2


def _aliasing_edge_ratio(response: lagreg.FrequencyResponseField) -> float:
    """max |c_h| at h = +-(N/2 - 1) over max_h |c_h| of the response's ``lag_sequence``, 0 for a zero response.  The
    rectangle rule folds that sequence modulo N (Gray 2006), and this ratio tracks the error the fold leaves."""
    magnitude = np.abs(response.lag_sequence)
    peak, edge = magnitude.max(), response.grid.n_nodes // 2 - 1
    return float(magnitude[[edge, -edge]].max() / peak) if peak > 0 else 0.0


@dataclass(frozen=True)
class Diagnostics:
    """Numerical health indicators collected along the pipeline."""

    truncation_tail_mass: float       # sum of ||b_h|| over the two outermost lag pairs
    max_condition_number: float       # max over the nodes of cond(F_hat)
    aliasing_edge_ratio: float        # the response's, on the grid the run used


@dataclass(frozen=True)
class AnalysisResult:
    config: Config                    # as given; each field's grid holds the N the run used
    fit: LaggedRegressionFit
    r_squared: float                  # in-sample R^2 of fit on the analyzed panels
    spectral_density: mv_spectral.SpectralDensityField
    cross_spectral: cross_spectral.CrossSpectralField
    frequency_response: lagreg.FrequencyResponseField
    diagnostics: Diagnostics


def evaluation_grid(n_eval: int, n_maturities: int):
    """Equispaced warped grid of size n_eval, joined with the maturity knots; a point within rounding
    (1e-12) of a knot is that knot.  Returns (warped points, indices of the knots within them)."""
    base = np.linspace(0.0, 1.0, n_eval)
    knots = np.linspace(0.0, 1.0, n_maturities)
    off_knot = np.abs(base[:, None] - knots).min(axis=1) > 1e-12
    grid = np.unique(np.concatenate([base[off_knot], knots]))
    return grid, np.searchsorted(grid, knots)


def _tail_mass(fit: LaggedRegressionFit) -> float:
    """Truncation diagnostic: sum of RMS filter norms at |h| in {h_max-1, h_max}."""
    edge = np.abs(fit.lags) >= max(fit.max_lag - 1, 1)     # none when h_max = 0
    per_lag = np.sqrt(np.mean(fit.filter_coef[edge] ** 2, axis=(1, 2)))
    return float(per_lag.sum())


def _grid_sizes(q: int, h_max: int) -> list[int]:
    """The smallest power of two >= START_FACTOR (q + h_max), then its doublings, MAX_DOUBLINGS of them."""
    return [(1 << (START_FACTOR * (q + h_max) - 1).bit_length()) << k for k in range(MAX_DOUBLINGS + 1)]


def analyze(panel: SparseYieldPanel, macro: MacroPanel, config: Config | None = None) -> AnalysisResult:
    """Run the full lagged-regression estimation on a pair of panels."""
    _check_horizons(panel.n_times, macro.n_times)
    if config is None:
        config = Config.defaults(panel.n_times, panel.n_maturities)
    with np.errstate(over="ignore", invalid="ignore"):   # an overflow fails the next finiteness check
        eval_warped, knot_idx = evaluation_grid(config.n_eval, panel.n_maturities)

        mean_curve = smoother.mean_curve_warped(panel, config.b_mu, eval_warped)
        acov = mv_spectral.estimate_autocovariances(macro, config.q)
        raw = cross_spectral.raw_cross_cov(panel, macro, mean_curve[knot_idx], acov.mean, config.q)
        operator = cross_spectral.smoothing_operator(raw, config.b_r, eval_warped)

        sizes = _grid_sizes(config.q, config.h_max) if config.n_omega is None else [config.n_omega]
        for grid in map(FrequencyGrid, sizes):
            spec_density = mv_spectral.spectral_density_matrix(acov, grid)
            cross = cross_spectral.cross_spectral_density(raw, grid, operator)
            response = lagreg.frequency_response(cross, spec_density, config.cond_threshold)
            if _aliasing_edge_ratio(response) <= ALIASING_LEVEL:
                break

        fit = LaggedRegressionFit(
            filter_coef=lagreg.filter_coefficients(response, config.h_max),
            eval_tau=warp_apply(panel.maturity_grid, eval_warped),
            eval_warped=eval_warped,
            mean_curve=mean_curve,
            macro_means=acov.mean,
        )
        r_squared = lagreg.r_squared(panel, fit, macro)
        diagnostics = Diagnostics(
            truncation_tail_mass=_tail_mass(fit),
            max_condition_number=float(spec_density.condition_numbers.max()),
            aliasing_edge_ratio=_aliasing_edge_ratio(response),
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
