"""Cross-spectral density between the curve panel and each regressor series.

Building block: the "raw" cross-covariance, one centered product per valid
(lag, time, maturity) triple,

    G[h, t, i, j] = (y[t+h, i] - mu_Y(tau_i)) * (X[t, j] - mu_X_j),
    h = -(Q-1)..(Q-1),  t = max(1, 1-h)..min(T, T-h),  observed i only.

The cross-spectral density at warped point tau~ and frequency omega is
(Q/2pi) times the intercept of the weighted complex local-linear fit

    min sum_{h,t,i} W_h K((tau~ - tau~_i)/B_R) |G e^{-i h omega} - c0 - c1 (tau~ - tau~_i)|^2.

Every product at maturity i sits on the same warped knot, so the fit only
sees the knot weights sum_h W_h n_{h,i} (n counts the realized products)
and the knot field Z(omega)_i = sum_h W_h e^{-i h omega} sum_t G.  Both come
from the primitives of :mod:`sparselag.mv_spectral`: the sums over t are
lagged products of the centered panels (missing cells set to zero), and Z is
the lag-window transform of the sums.  A count is the number of observed
cells of a maturity in the rows its lag reaches, a difference of one
cumulative sum of the observation mask.  The intercept is then the knot-level
local-linear operator L of :mod:`sparselag.smoother` applied to Z(omega); L
is real and frequency-free, so one matrix product covers every node.  The
field keeps Z and (Q/2pi) L: the solve and quadrature of :mod:`sparselag.lagreg`
run on the I knots and apply L afterwards.  The naive per-frequency
least-squares path is kept as the correctness oracle for this factorization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import FrequencyGrid, MacroPanel, SparseYieldPanel, SpectralField, _check_means, _store, _store_lags
from .mv_spectral import bartlett_weights, lag_window_transform, lagged_products
from .smoother import epanechnikov, local_linear_operator


@dataclass(frozen=True)
class RawCrossCovariances:
    """The centered products G aggregated over t, which is all the smoother needs.

    sums[l, i, j] = sum_t G[h, t, i, j] and counts[l, i] = number of realized
    products at maturity i, for lags h = lags[l] = 1-q..q-1; ``lags`` and ``max_lag`` = q - 1
    are read from sums.
    """

    sums: np.ndarray      # (2q-1, I, d)
    counts: np.ndarray    # (2q-1, I)

    def __post_init__(self):
        sums = np.asarray(self.sums, dtype=float)
        counts = np.asarray(self.counts, dtype=float)
        _store_lags(self, "sums", sums, counts)
        _store(self, sums=sums, counts=counts)


def raw_cross_cov(panel: SparseYieldPanel, macro: MacroPanel, mean_curve,
                  macro_means, q: int) -> RawCrossCovariances:
    """Center the panels and sum the raw cross-covariances for span q.

    mean_curve holds mu_Y at the panel's own maturities; macro_means holds
    mu_X.  Missing curve cells are dropped from every (t, i) sum.
    """
    mean_curve = np.asarray(mean_curve, dtype=float)
    macro_means = np.asarray(macro_means, dtype=float)
    if mean_curve.shape != (panel.n_maturities,):
        raise ValueError("mean_curve must hold one value per panel maturity")
    _check_means(macro_means, macro.n_series)
    y_centered = np.where(panel.observed, panel.values - mean_curve, 0.0)
    sums = lagged_products(y_centered, macro.values - macro_means, q)
    # lag h reaches the curve rows max(h, 0)..T-1+min(h, 0)
    seen = np.zeros((panel.n_times + 1, panel.n_maturities), dtype=int)
    np.cumsum(panel.observed, axis=0, out=seen[1:])
    h = np.arange(1 - q, q)
    counts = seen[panel.n_times + np.minimum(h, 0)] - seen[np.maximum(h, 0)]
    return RawCrossCovariances(sums, counts)


class CrossSpectralField(SpectralField):
    """Complex cross-spectral values on (frequency, evaluation point, series)."""

    _symmetry = (1e-10, "cross-spectral field must satisfy f(-omega) = conj(f(omega))")


def cross_spectral_density(raw: RawCrossCovariances, b_r: float, grid: FrequencyGrid,
                           eval_warped) -> CrossSpectralField:
    """Smoothed cross-spectral density: the knot operator applied to the knot field."""
    eval_warped = np.atleast_1d(np.asarray(eval_warped, dtype=float))
    q = raw.max_lag + 1
    operator = local_linear_operator(bartlett_weights(q) @ raw.counts, eval_warped, b_r)
    knot_field = lag_window_transform(raw.sums, grid)   # (N/2+1, I, d): sum_l W_l e^{-i h_l omega} A_l
    return CrossSpectralField.from_knots(grid, knot_field, q / (2.0 * np.pi) * operator)


def naive_cross_spectral_density(panel: SparseYieldPanel, macro: MacroPanel, mean_curve,
                                 macro_means, b_r: float, q: int,
                                 grid: FrequencyGrid, eval_warped) -> np.ndarray:
    """Reference path: one weighted least-squares solve per frequency node.

    Rebuilds the (lag, time, maturity) triples from scratch and minimizes the
    smoothing objective per frequency with a QR solve on the square-root
    weighted design.  Slow but free of the precomputation; used to pin the
    semantics of :func:`cross_spectral_density`.
    """
    eval_warped = np.atleast_1d(np.asarray(eval_warped, dtype=float))
    t_len, n_mat = panel.n_times, panel.n_maturities
    tau_tilde = np.linspace(0.0, 1.0, n_mat)
    weights = bartlett_weights(q)

    out = np.empty((grid.n_nodes, eval_warped.size, macro.n_series), dtype=complex)
    for j in range(macro.n_series):
        g_list, tau_list, w_list, h_list = [], [], [], []
        for l, h in enumerate(range(1 - q, q)):
            for t in range(max(1, 1 - h), min(t_len, t_len - h) + 1):   # one-based
                for i in range(n_mat):
                    if not panel.observed[t + h - 1, i]:
                        continue
                    g_list.append((panel.values[t + h - 1, i] - mean_curve[i])
                                  * (macro.values[t - 1, j] - macro_means[j]))
                    tau_list.append(tau_tilde[i])
                    w_list.append(weights[l])
                    h_list.append(h)
        g = np.asarray(g_list)
        tau = np.asarray(tau_list)
        w_lag = np.asarray(w_list)
        h_arr = np.asarray(h_list)
        for r, x0 in enumerate(eval_warped):
            w = w_lag * epanechnikov((x0 - tau) / b_r)
            keep = w > 0
            sw = np.sqrt(w[keep])
            design = np.column_stack([sw, sw * (x0 - tau[keep])]).astype(complex)
            for node, omega in enumerate(grid.nodes):
                rhs = sw * g[keep] * np.exp(-1j * h_arr[keep] * omega)
                coef, *_ = np.linalg.lstsq(design, rhs, rcond=None)
                out[node, r, j] = coef[0]
    return out * q / (2.0 * np.pi)
