"""Frequency-response solve, filter quadrature, prediction, and fit quality.

The frequency response ties the two spectral estimates together,

    B_hat(omega, tau) = f_hat(omega, tau) * F_hat(omega)^{-1},

solved per node without regularization (the regressor spectrum is assumed
invertible; a condition-number guard aborts when it is not).  Filter
coefficients come back to the time domain by rectangle-rule quadrature,

    b_hat_h = (1/N) * sum_k B_hat(omega_k) * e^{i h omega_k},

which is exact for trigonometric polynomials of degree < N - |h|.  The
quadrature of a conjugate-symmetric field is real up to roundoff; the
discarded imaginary part is returned as a diagnostic and bounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateTotal, IllConditioned, ResidualImaginary
from .model import FrequencyGrid, LaggedRegressionFit, MacroPanel, SparseYieldPanel, _frozen
from .cross_spectral import CrossSpectralField
from .mv_spectral import SpectralDensityField

_CONJ_SYM_TOL = 1e-8
_IMAG_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class FrequencyResponseField:
    """Complex response values on (frequency, evaluation point, series)."""

    grid: FrequencyGrid
    values: np.ndarray                          # (N, R, d) complex
    condition_numbers: Optional[np.ndarray] = None  # (N,) cond of F_hat per node

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.ndim != 3 or vals.shape[0] != self.grid.n_nodes:
            raise ValueError("values must have shape (n_nodes, n_eval, n_series)")
        if self.grid.conjugate_asymmetry(vals) > _CONJ_SYM_TOL:
            raise ValueError("frequency response must satisfy B(-omega) = conj(B(omega))")
        object.__setattr__(self, "values", _frozen(vals, dtype=complex))


def frequency_response(cross: CrossSpectralField, spec: SpectralDensityField,
                       cond_threshold: float) -> FrequencyResponseField:
    """Solve B_hat = f_hat * F_hat^{-1} at every node.

    The row-vector system is solved through its adjoint: F Z = f^H with F
    Hermitian, then B = Z^H.  Aborts with IllConditioned at the worst node
    whose condition number exceeds the threshold.
    """
    if cross.grid != spec.grid:
        raise ValueError("cross-spectral field and spectral density live on different grids")
    if cross.n_series != spec.n_series:
        raise ValueError("cross-spectral field and spectral density disagree on d")
    conds = spec.condition_numbers()
    worst = int(np.argmax(conds))
    if not np.all(np.isfinite(conds)) or conds[worst] > cond_threshold:
        raise IllConditioned(float(spec.grid.nodes[worst]), float(conds[worst]), cond_threshold)
    rhs = np.conj(np.swapaxes(cross.values, 1, 2))       # (N, d, R)
    z = np.linalg.solve(spec.matrices, rhs)
    values = np.conj(np.swapaxes(z, 1, 2))               # (N, R, d)
    return FrequencyResponseField(grid=cross.grid, values=values, condition_numbers=conds)


def filter_coefficients(resp: FrequencyResponseField, h_max: int):
    """Quadrature back to lag space; returns (coefficients, max imaginary part).

    coefficients[l, r, j] covers lags -h_max..h_max.  Raises ResidualImaginary
    when the discarded imaginary part exceeds 1e-8 * (1 + max |Re|), which
    signals broken conjugate symmetry upstream.
    """
    n = resp.grid.n_nodes
    if n < 2 * h_max + 2:
        raise ValueError(f"need n_omega >= {2 * h_max + 2} to integrate lags up to {h_max}, got {n}")
    # conjugate of the lag-to-frequency kernel: e^{+i h omega}, shape (2H+1, N)
    inverse = resp.grid.phases(np.arange(-h_max, h_max + 1)).conj().T
    raw = np.tensordot(inverse, resp.values, axes=1) / n
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


def _centered_regressor_at(macro: MacroPanel, macro_means, t_one_based: int, h: int) -> np.ndarray:
    """X_{t-h} - mu_X with mean imputation outside the observation window."""
    s = t_one_based - h
    if 1 <= s <= macro.n_times:
        return macro.values[s - 1] - macro_means
    return np.zeros(macro.n_series)


def predict_curve(fit: LaggedRegressionFit, macro: MacroPanel, t: int, eval_points=None) -> np.ndarray:
    """Predicted curve at one-based time t.

    Y_hat_t(tau) = mu_Y(tau) + sum_j sum_h b_h^j(tau) (X^j_{t-h} - mu_X_j),
    with X_{t-h} imputed by its mean (zero centered contribution) whenever
    t - h falls outside 1..T.
    """
    if not 1 <= t <= macro.n_times:
        raise ValueError(f"time index must lie in 1..{macro.n_times}, got {t}")
    if macro.n_series != fit.n_series:
        raise ValueError("fit and regressor panel disagree on the number of series")
    cols = slice(None) if eval_points is None else _eval_indices(fit, eval_points)
    pred = fit.mean_curve[cols].copy()
    for l, h in enumerate(fit.lags):
        xc = _centered_regressor_at(macro, fit.macro_means, t, int(h))
        pred += fit.filter_coef[l][cols] @ xc
    return pred


def _predict_columns(fit: LaggedRegressionFit, macro: MacroPanel, cols) -> np.ndarray:
    """Predicted curves for every t at evaluation points ``cols``, shape (T, len(cols))."""
    if macro.n_series != fit.n_series:
        raise ValueError("fit and regressor panel disagree on the number of series")
    t_len = macro.n_times
    xc = macro.values - fit.macro_means
    coef = fit.filter_coef[:, cols]
    pred = np.tile(fit.mean_curve[cols], (t_len, 1))
    for l, h in enumerate(fit.lags):
        h = int(h)
        # rows t = 1..T pick X_{t-h}; out-of-window rows stay imputed at zero
        lo_t, hi_t = max(0, h), min(t_len, t_len + h)
        if lo_t >= hi_t:
            continue
        pred[lo_t:hi_t] += xc[lo_t - h: hi_t - h] @ coef[l].T
    return pred


def predict_panel(fit: LaggedRegressionFit, macro: MacroPanel) -> np.ndarray:
    """Predicted curves for every t at the fit's evaluation grid, shape (T, R)."""
    return _predict_columns(fit, macro, slice(None))


def r_squared(panel: SparseYieldPanel, fit: LaggedRegressionFit, macro: MacroPanel) -> float:
    """In-sample coefficient of determination over all observed cells.

    R^2 = 1 - SS_residual / SS_total with SS_total measured around the
    estimated mean curve.  The fit's evaluation grid must cover the panel's
    maturities.
    """
    if panel.n_times != macro.n_times:
        raise ValueError("panel horizons differ between curves and regressors")
    cols = _eval_indices(fit, panel.maturity_grid.maturities)
    pred = _predict_columns(fit, macro, cols)
    mean = fit.mean_curve[cols]
    obs = panel.observed
    resid = np.where(obs, panel.values - pred, 0.0)
    total = np.where(obs, panel.values - mean, 0.0)
    ss_residual = float(np.sum(resid * resid))
    ss_total = float(np.sum(total * total))
    if ss_total == 0.0:
        raise DegenerateTotal("total sum of squares is zero; R^2 is undefined for a constant panel")
    return 1.0 - ss_residual / ss_total
