"""Epanechnikov kernel and the local-linear smoothing operator on the warped knots.

Both smoothers of the pipeline fit on the I equidistant warped knots
x_i = i/(I-1).  At evaluation point x_r, with knot weights w_i,
u_ri = x_r - x_i and K_ri = K(u_ri / b), the weighted local-linear fit

    min sum_i K_ri w_i |z_i - c0 - c1*u_ri|^2

has moments S_p = sum_i K_ri w_i u_ri^p and intercept

    c0(x_r) = sum_i L[r, i] * w_i z_i,
    L[r, i] = K_ri * (S2_r - S1_r*u_ri) / (S0_r*S2_r - S1_r^2).

L depends only on the knot weights, the evaluation points and the bandwidth
(the "equivalent kernel" of local polynomial smoothing), so one real matrix
product smooths real and complex knot sums alike.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularDesign
from .model import SparseYieldPanel
from .warp import warp_inverse

# Relative determinant floor: catches exact collinearity, tolerates roundoff.
_SINGULAR_REL_TOL = 1e-12


def epanechnikov(v):
    """K(v) = 3/4*(1 - v^2) on [-1, 1], zero outside."""
    v = np.asarray(v, dtype=float)
    out = np.where(np.abs(v) <= 1.0, 0.75 * (1.0 - v * v), 0.0)
    return float(out) if out.ndim == 0 else out


def _min_bandwidth_hint(x0: float, x: np.ndarray, weights: np.ndarray):
    candidates = np.unique(np.abs(x0 - x[weights > 0]))
    return float(candidates[1]) if candidates.size >= 2 else None


def local_linear_operator(knot_weights, eval_warped, bandwidth: float) -> np.ndarray:
    """Real (R, I) matrix L mapping knot sums w_i*z_i to local-linear intercepts.

    Raises SingularDesign at the first evaluation point whose window holds
    fewer than 2 knots of positive weight, or whose normal matrix is
    numerically singular.
    """
    if not bandwidth > 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    w = np.asarray(knot_weights, dtype=float)
    x0 = np.atleast_1d(np.asarray(eval_warped, dtype=float))
    knots = np.linspace(0.0, 1.0, w.size)
    u = x0[:, None] - knots
    k = epanechnikov(u / bandwidth)
    kw = k * w
    s0 = kw.sum(axis=1)
    s1 = (kw * u).sum(axis=1)
    s2 = (kw * u * u).sum(axis=1)
    det = s0 * s2 - s1 * s1
    thin = (kw > 0).sum(axis=1) < 2
    failed = np.flatnonzero(thin | (det <= _SINGULAR_REL_TOL * s0 * s2))
    if failed.size:
        r = int(failed[0])
        reason = ("smoothing window holds fewer than 2 observed knots" if thin[r]
                  else "local-linear normal matrix is numerically singular")
        raise SingularDesign(reason, min_bandwidth=_min_bandwidth_hint(x0[r], knots, w),
                             eval_point=float(x0[r]))
    return k * (s2[:, None] - s1[:, None] * u) / det[:, None]


def mean_curve_warped(panel: SparseYieldPanel, b_mu: float, eval_warped) -> np.ndarray:
    """Local-linear mean curve at warped evaluation points.

    Smooths the pooled cloud {(tau_tilde_i, y_ti) : t, observed i}.  Because
    every time point shares the same warped support, the cloud collapses to
    per-maturity counts and sums without changing the fit.
    """
    operator = local_linear_operator(panel.observed.sum(axis=0).astype(float), eval_warped, b_mu)
    return operator @ np.where(panel.observed, panel.values, 0.0).sum(axis=0)


def estimate_mean_curve(panel: SparseYieldPanel, b_mu: float, eval_points) -> np.ndarray:
    """Mean curve mu_Y(tau) at the given maturities (smoothing happens in the panel grid's warped space)."""
    eval_points = np.atleast_1d(np.asarray(eval_points, dtype=float))
    eval_warped = np.asarray(warp_inverse(panel.maturity_grid, eval_points), dtype=float)
    return mean_curve_warped(panel, b_mu, eval_warped)
