"""Monotone warp between the unit interval and the maturity range.

The quoted maturities cluster near the short end, which starves kernel
smoothers of support there.  The fix is a smooth, strictly increasing
bijection phi: [0, 1] -> [tau_min, tau_max] interpolating the knots
((i-1)/(I-1), tau_i), so that in warped coordinates the maturities form an
equidistant grid.  A plain cubic spline through these knots can overshoot
and lose monotonicity, so the interpolant is a shape-preserving piecewise
cubic Hermite with Fritsch-Carlson limited slopes (C1, strictly increasing
for strictly increasing knots).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .model import MaturityGrid, _frozen

_DOMAIN_TOL = 1e-12


@dataclass(frozen=True)
class Warp:
    """Piecewise-cubic monotone interpolant through ((i-1)/(I-1), tau_i)."""

    knots_x: np.ndarray   # (I,) equidistant in [0, 1]
    knots_y: np.ndarray   # (I,) maturities
    slopes: np.ndarray    # (I,) limited endpoint derivatives per knot

    @property
    def tau_min(self) -> float:
        return float(self.knots_y[0])

    @property
    def tau_max(self) -> float:
        return float(self.knots_y[-1])


def _limited_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Fritsch-Carlson derivative choices: monotone, no interval overshoot."""
    h = np.diff(x)
    d = np.diff(y) / h
    n = x.size
    m = np.zeros(n)

    # Interior knots: weighted harmonic mean of adjacent secants, zero when
    # the secants disagree in sign (cannot happen for increasing knots).
    for i in range(1, n - 1):
        if d[i - 1] * d[i] <= 0.0:
            m[i] = 0.0
        else:
            w1 = 2.0 * h[i] + h[i - 1]
            w2 = h[i] + 2.0 * h[i - 1]
            m[i] = (w1 + w2) / (w1 / d[i - 1] + w2 / d[i])

    m[0] = _edge_slope(h[0], h[1], d[0], d[1])
    m[-1] = _edge_slope(h[-1], h[-2], d[-1], d[-2])
    return m


def _edge_slope(h0, h1, d0, d1):
    # One-sided three-point estimate, clipped so the end interval stays monotone.
    m = ((2.0 * h0 + h1) * d0 - h0 * d1) / (h0 + h1)
    if np.sign(m) != np.sign(d0):
        return 0.0
    if np.sign(d0) != np.sign(d1) and abs(m) > 3.0 * abs(d0):
        return 3.0 * d0
    return m


def build_warp(grid: MaturityGrid) -> Warp:
    """Construct the warp for a maturity grid.

    The grid's own validation rejects duplicate (non-increasing) maturities.
    """
    y = np.asarray(grid.maturities, dtype=float)
    x = np.linspace(0.0, 1.0, y.size)
    return Warp(knots_x=_frozen(x), knots_y=_frozen(y), slopes=_frozen(_limited_slopes(x, y)))


def _hermite_eval(w: Warp, t: np.ndarray) -> np.ndarray:
    idx = np.clip(np.searchsorted(w.knots_x, t, side="right") - 1, 0, w.knots_x.size - 2)
    h = w.knots_x[idx + 1] - w.knots_x[idx]
    s = (t - w.knots_x[idx]) / h
    y0, y1 = w.knots_y[idx], w.knots_y[idx + 1]
    m0, m1 = w.slopes[idx], w.slopes[idx + 1]
    # Hermite basis kept in factored form: (1 - s) is exact at both knot ends,
    # so phi reproduces the knots to the last bit.
    one_m = 1.0 - s
    return (
        y0 * (1.0 + 2.0 * s) * one_m * one_m
        + h * m0 * s * one_m * one_m
        + y1 * s * s * (3.0 - 2.0 * s)
        + h * m1 * s * s * (s - 1.0)
    )


def warp_apply(w: Warp, t):
    """Evaluate phi at t in [0, 1] (scalar or array)."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < -_DOMAIN_TOL) or np.any(t_arr > 1.0 + _DOMAIN_TOL):
        raise ValueError(f"warp argument outside [0, 1]: {t}")
    out = _hermite_eval(w, np.clip(t_arr, 0.0, 1.0))
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def _inverse_scalar(w: Warp, tau: float) -> float:
    piece = int(np.clip(np.searchsorted(w.knots_y, tau, side="right") - 1, 0, w.knots_y.size - 2))
    if tau == w.knots_y[piece]:
        return float(w.knots_x[piece])
    if tau == w.knots_y[piece + 1]:
        return float(w.knots_x[piece + 1])
    a, b = w.knots_x[piece], w.knots_x[piece + 1]
    return float(brentq(lambda s: _hermite_eval(w, np.asarray(s)) - tau, a, b,
                        xtol=1e-14, rtol=4.0 * np.finfo(float).eps))


def warp_inverse(w: Warp, tau):
    """Invert phi at tau in [tau_min, tau_max] by root bracketing on the cubic pieces."""
    tau_arr = np.asarray(tau, dtype=float)
    span_tol = _DOMAIN_TOL * max(1.0, abs(w.tau_min), abs(w.tau_max))
    if np.any(tau_arr < w.tau_min - span_tol) or np.any(tau_arr > w.tau_max + span_tol):
        raise ValueError(f"warp inverse argument outside [{w.tau_min}, {w.tau_max}]: {tau}")
    clipped = np.clip(tau_arr, w.tau_min, w.tau_max)
    if np.isscalar(tau) or tau_arr.ndim == 0:
        return _inverse_scalar(w, float(clipped))
    return np.array([_inverse_scalar(w, v) for v in clipped.ravel()]).reshape(tau_arr.shape)
