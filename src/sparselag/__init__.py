"""Spectral-domain lagged regression for sparsely observed curve panels.

Estimates how a functional time series observed on a fixed, possibly
irregular grid (a yield curve quoted at a handful of maturities, say)
depends on a multivariate scalar time series through a lagged linear
filter.  The pipeline: warp the observation grid to equidistant
coordinates, smooth the pooled mean curve, estimate the regressor spectral
density with a triangular lag window, smooth raw lagged cross-covariances
into a cross-spectral density, solve for the frequency response, and
integrate back to time-domain filter coefficients.
"""

from .errors import DegenerateTotal, IllConditioned, ParseError, SingularDesign
from .model import (Config, FrequencyGrid, LaggedRegressionFit, MacroPanel, MaturityGrid,
                    SparseYieldPanel)
from .warp import warp_apply, warp_inverse
from .smoother import (epanechnikov, estimate_mean_curve, local_linear_operator,
                       mean_curve_warped)
from .mv_spectral import (AutocovarianceSet, SpectralDensityField, bartlett_weights,
                          estimate_autocovariances, spectral_density_matrix)
from .cross_spectral import (CrossSpectralField, RawCrossCovariances, cross_spectral_density,
                             naive_cross_spectral_density, raw_cross_cov, smoothing_operator)
from .lagreg import (FrequencyResponseField, filter_coefficients, frequency_response,
                     predict_panel, r_squared)
from .simulate import (SimulationTruth, SyntheticSpec, US_MATURITIES, recovery_spec,
                       simulate_lagged_regression, simulate_var1, var1_spectral_density)
from .pipeline import AnalysisResult, Diagnostics, analyze, evaluation_grid
from .io import (ResultBundle, build_result_bundle, load_macro_csv, load_yields_csv,
                 write_macro_csv, write_results, write_yields_csv)

__version__ = "0.1.0"

__all__ = [
    "AnalysisResult", "AutocovarianceSet", "Config", "CrossSpectralField", "DegenerateTotal",
    "Diagnostics", "FrequencyGrid", "FrequencyResponseField", "IllConditioned",
    "LaggedRegressionFit", "MacroPanel", "MaturityGrid", "ParseError",
    "RawCrossCovariances", "ResultBundle", "SimulationTruth",
    "SingularDesign", "SparseYieldPanel", "SpectralDensityField", "SyntheticSpec",
    "US_MATURITIES", "analyze", "bartlett_weights", "build_result_bundle",
    "cross_spectral_density", "epanechnikov",
    "estimate_autocovariances", "estimate_mean_curve", "evaluation_grid",
    "filter_coefficients", "frequency_response", "load_macro_csv", "load_yields_csv",
    "local_linear_operator", "mean_curve_warped", "naive_cross_spectral_density",
    "predict_panel", "r_squared", "raw_cross_cov", "recovery_spec",
    "simulate_lagged_regression", "simulate_var1", "smoothing_operator", "spectral_density_matrix",
    "var1_spectral_density", "warp_apply", "warp_inverse", "write_macro_csv",
    "write_results", "write_yields_csv",
]
