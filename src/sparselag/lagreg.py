"""Frequency-response solve, filter quadrature, prediction, and fit quality.

The frequency response ties the two spectral estimates together,

    B_hat(omega, tau) = f_hat(omega, tau) * F_hat(omega)^{-1},

solved per node without regularization (the regressor spectrum is assumed
invertible; a condition-number guard aborts when it is not).  Filter
coefficients come back to the time domain by rectangle-rule quadrature,

    b_hat_h = (1/N) * sum_k B_hat(omega_k) * e^{i h omega_k},

which is exact for trigonometric polynomials of degree < N - |h|.  The
quadrature of a conjugate-symmetric field is real up to roundoff; the
discarded imaginary part is returned as a diagnostic and bounded.  Both steps
are linear in f_hat = L Z(omega) with a real, frequency-free smoother L, so they
run on the I maturity knots (B_hat = L Z F_hat^-1) and L is applied afterwards.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateTotal, IllConditioned, ResidualImaginary
from .model import LaggedRegressionFit, MacroPanel, SparseYieldPanel, SpectralField
from .cross_spectral import CrossSpectralField
from .mv_spectral import SpectralDensityField

_IMAG_RESIDUAL_TOL = 1e-8


class FrequencyResponseField(SpectralField):
    """Complex response values on (frequency, evaluation point, series)."""

    _symmetry = (1e-8, "frequency response must satisfy B(-omega) = conj(B(omega))")


def frequency_response(cross: CrossSpectralField, spec: SpectralDensityField,
                       cond_threshold: float) -> FrequencyResponseField:
    """Solve B_hat = f_hat * F_hat^{-1} at every node.

    The row-vector system is solved through its adjoint: F Z = f^H with F
    Hermitian, then B = Z^H, on the knot field of f_hat at the nodes k <= N/2.  Aborts
    with IllConditioned at the worst node whose condition number exceeds the threshold.
    """
    if cross.grid != spec.grid:
        raise ValueError("cross-spectral field and spectral density live on different grids")
    if cross.n_series != spec.n_series:
        raise ValueError("cross-spectral field and spectral density disagree on d")
    conds = spec.condition_numbers
    worst = int(np.argmax(conds))
    if not np.all(np.isfinite(conds)) or conds[worst] > cond_threshold:
        raise IllConditioned(float(spec.grid.nodes[worst]), float(conds[worst]), cond_threshold)
    rhs = np.conj(np.swapaxes(cross.knot_values, 1, 2))    # (N/2+1, d, I)
    z = np.swapaxes(np.linalg.solve(spec.half, rhs), 1, 2)  # (N/2+1, I, d)
    return FrequencyResponseField.from_knots(cross.grid, np.conj(z), cross.operator)


def filter_coefficients(resp: FrequencyResponseField, h_max: int):
    """Quadrature back to lag space; returns (coefficients, max imaginary part).

    coefficients[l, r, j] covers lags -h_max..h_max (integrated at the knots).
    Raises ResidualImaginary when the discarded imaginary part exceeds 1e-8 *
    (1 + max |Re|), which signals broken conjugate symmetry upstream.
    """
    n = resp.grid.n_nodes
    if n < 2 * h_max + 2:
        raise ValueError(f"need n_omega >= {2 * h_max + 2} to integrate lags up to {h_max}, got {n}")
    # conjugate of the lag-to-frequency kernel: e^{+i h omega}, shape (2H+1, N)
    inverse = resp.grid.phases(np.arange(-h_max, h_max + 1)).conj().T
    raw = resp.operator @ (np.tensordot(inverse, resp.grid.mirror(resp.knot_values), axes=1) / n)
    max_imag = float(np.abs(raw.imag).max())
    bound = _IMAG_RESIDUAL_TOL * (1.0 + float(np.abs(raw.real).max()))
    if max_imag > bound:
        raise ResidualImaginary(max_imag, bound)
    return raw.real, max_imag


def _eval_indices(fit: LaggedRegressionFit, eval_points) -> np.ndarray:
    """Locate requested maturities inside the fit's evaluation grid (first match wins)."""
    eval_points = np.atleast_1d(np.asarray(eval_points, dtype=float))
    close = np.isclose(fit.eval_tau, eval_points[:, None], rtol=1e-12, atol=1e-12)
    found = close.any(axis=1)
    if not found.all():
        tau = eval_points[np.argmin(found)]
        raise ValueError(f"maturity {tau} is not on the fit's evaluation grid")
    return np.argmax(close, axis=1)


def predict_panel(fit: LaggedRegressionFit, macro: MacroPanel, eval_points=None) -> np.ndarray:
    """Predicted curves for every t, shape (T, R), or (T, len(eval_points)).

    Y_hat_t(tau) = mu_Y(tau) + sum_j sum_h b_h^j(tau) (X^j_{t-h} - mu_X_j),
    with X_{t-h} imputed by its mean (zero centered contribution) whenever
    t - h falls outside 1..T.  ``eval_points`` picks maturities of the fit's
    evaluation grid (first match wins); the default is the whole grid.  A column
    is one product of the zero-padded lag design with its filter, whatever else is asked.
    """
    cols = np.arange(fit.mean_curve.size) if eval_points is None else _eval_indices(fit, eval_points)
    if macro.n_series != fit.n_series:
        raise ValueError("fit and regressor panel disagree on the number of series")
    t_len, reach = macro.n_times, fit.lags.size // 2
    padded = np.pad(macro.values - fit.macro_means, ((reach, reach), (0, 0)))
    # window t covers rows t - reach..t + reach; reversed, its entry l is X_{t-h} - mu_X at h = lags[l]
    windows = np.lib.stride_tricks.sliding_window_view(padded, 2 * reach + 1, axis=0)[:, :, ::-1]
    design = np.ascontiguousarray(windows).reshape(t_len, -1)     # column j * n_lags + l
    with np.errstate(over="ignore", invalid="ignore"):   # overflows: r_squared's finiteness check reports them
        columns = [fit.mean_curve[c] + design @ fit.filter_coef[:, c].T.ravel() for c in cols]
    return np.reshape(columns, (len(cols), t_len)).T


def r_squared(panel: SparseYieldPanel, fit: LaggedRegressionFit, macro: MacroPanel) -> float:
    """In-sample coefficient of determination over all observed cells.

    R^2 = 1 - SS_residual / SS_total with SS_total measured around the
    estimated mean curve.  The fit's evaluation grid must cover the panel's
    maturities.
    """
    if panel.n_times != macro.n_times:
        raise ValueError("panel horizons differ between curves and regressors")
    maturities = panel.maturity_grid.maturities
    pred = predict_panel(fit, macro, maturities)
    mean = fit.mean_curve[_eval_indices(fit, maturities)]
    obs = panel.observed
    resid = np.where(obs, panel.values - pred, 0.0)
    total = np.where(obs, panel.values - mean, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        ss_residual, ss_total = float(np.sum(resid * resid)), float(np.sum(total * total))
    if not np.isfinite([ss_residual, ss_total]).all():
        raise ValueError(f"sums of squares overflow: SS_residual = {ss_residual!r}, SS_total = {ss_total!r}")
    if ss_total == 0.0:
        raise DegenerateTotal("total sum of squares is zero; R^2 is undefined for a constant panel")
    return 1.0 - ss_residual / ss_total
