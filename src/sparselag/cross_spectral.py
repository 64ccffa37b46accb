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
and the knot field Z(omega)_i = sum_h W_h e^{-i h omega} sum_t G.  The
intercept is then the knot-level local-linear operator of
:mod:`sparselag.smoother` applied to Z(omega); that operator is real and
frequency-free, so one matrix product covers every node.  The naive
per-frequency least-squares path is kept alongside as the correctness
oracle for this factorization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import FrequencyGrid, MacroPanel, SparseYieldPanel, _frozen
from .mv_spectral import bartlett_weights
from .smoother import epanechnikov, local_linear_operator
from .warp import Warp, warp_apply

_CONJ_SYM_TOL = 1e-10


@dataclass(frozen=True)
class RawCrossCovariances:
    """Centered products G in factorized storage.

    The centered curve and regressor factors are stored once;
    :meth:`lag_sums` aggregates the products over t, which is all the
    smoother needs.
    """

    q: int
    lags: np.ndarray          # (2q-1,)
    y_centered: np.ndarray    # (T, I), zero where missing
    observed: np.ndarray      # (T, I)
    x_centered: np.ndarray    # (T, d)

    @property
    def n_times(self) -> int:
        return self.y_centered.shape[0]

    @property
    def n_maturities(self) -> int:
        return self.y_centered.shape[1]

    @property
    def n_series(self) -> int:
        return self.x_centered.shape[1]

    def t_bounds(self, h: int) -> tuple[int, int]:
        """Valid zero-based t range [start, stop) for lag h."""
        t_len = self.n_times
        return (max(0, -h), min(t_len, t_len - h))

    def lag_sums(self):
        """Aggregates over t: sums A[l, i, j] = sum_t G and counts n[l, i]."""
        n_lags = self.lags.size
        sums = np.empty((n_lags, self.n_maturities, self.n_series))
        counts = np.empty((n_lags, self.n_maturities))
        for l, h in enumerate(self.lags):
            start, stop = self.t_bounds(int(h))
            sums[l] = self.y_centered[start + h: stop + h].T @ self.x_centered[start:stop]
            counts[l] = self.observed[start + h: stop + h].sum(axis=0)
        return sums, counts


def raw_cross_cov(panel: SparseYieldPanel, macro: MacroPanel, mean_curve,
                  macro_means, q: int) -> RawCrossCovariances:
    """Center the panels and set up the raw cross-covariances for span q.

    mean_curve holds mu_Y at the panel's own maturities; macro_means holds
    mu_X.  Missing curve cells are dropped from every (t, i) sum.
    """
    if panel.n_times != macro.n_times:
        raise ValueError(
            f"panel horizons differ: curves have T={panel.n_times}, regressors T={macro.n_times}"
        )
    if not 1 <= q <= panel.n_times:
        raise ValueError(f"window span must satisfy 1 <= q <= T, got q={q}")
    mean_curve = np.asarray(mean_curve, dtype=float)
    macro_means = np.asarray(macro_means, dtype=float)
    if mean_curve.shape != (panel.n_maturities,):
        raise ValueError("mean_curve must hold one value per panel maturity")
    if macro_means.shape != (macro.n_series,):
        raise ValueError("macro_means must hold one value per regressor series")
    y_centered = np.where(panel.observed, panel.values - mean_curve, 0.0)
    return RawCrossCovariances(
        q=q,
        lags=_frozen(np.arange(1 - q, q), dtype=int),
        y_centered=_frozen(y_centered),
        observed=panel.observed,
        x_centered=_frozen(macro.values - macro_means),
    )


@dataclass(frozen=True)
class CrossSpectralField:
    """Complex cross-spectral values on (frequency, evaluation point, series)."""

    grid: FrequencyGrid
    eval_warped: np.ndarray   # (R,)
    eval_tau: np.ndarray      # (R,)
    values: np.ndarray        # (N, R, d) complex

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.ndim != 3 or vals.shape[0] != self.grid.n_nodes:
            raise ValueError("values must have shape (n_nodes, n_eval, n_series)")
        if vals.shape[1] != np.asarray(self.eval_warped).size:
            raise ValueError("values must cover every evaluation point")
        if self.grid.conjugate_asymmetry(vals) > _CONJ_SYM_TOL:
            raise ValueError("cross-spectral field must satisfy f(-omega) = conj(f(omega))")
        object.__setattr__(self, "values", _frozen(vals, dtype=complex))
        object.__setattr__(self, "eval_warped", _frozen(self.eval_warped))
        object.__setattr__(self, "eval_tau", _frozen(self.eval_tau))

    @property
    def n_series(self) -> int:
        return self.values.shape[2]


def cross_spectral_density(raw: RawCrossCovariances, warp: Warp, b_r: float, q: int,
                           grid: FrequencyGrid, eval_warped) -> CrossSpectralField:
    """Smoothed cross-spectral density: the knot operator applied to the knot field."""
    if q != raw.q:
        raise ValueError(f"window span {q} does not match the raw cross-covariances (q={raw.q})")
    eval_warped = np.atleast_1d(np.asarray(eval_warped, dtype=float))
    weights = bartlett_weights(q)
    sums, counts = raw.lag_sums()
    operator = local_linear_operator(weights @ counts, eval_warped, b_r)
    # (N, I, d) knot field Z(omega) = sum_l W_l e^{-i h_l omega} A_l
    knot_field = np.tensordot(np.exp(-1j * np.outer(grid.nodes, raw.lags)) * weights, sums, axes=1)
    return CrossSpectralField(grid=grid, eval_warped=eval_warped,
                              eval_tau=np.asarray(warp_apply(warp, eval_warped), dtype=float),
                              values=(q / (2.0 * np.pi) * operator) @ knot_field)


def naive_cross_spectral_density(panel: SparseYieldPanel, macro: MacroPanel, mean_curve,
                                 macro_means, warp: Warp, b_r: float, q: int,
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
