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
    """Fritsch-Carlson derivative choices: monotone, no interval overshoot.

    MaturityGrid knots are strictly increasing, so every secant is positive.
    """
    h = np.diff(x)
    d = np.diff(y) / h
    # interior knots: weighted harmonic mean of the adjacent secants
    w1 = 2.0 * h[1:] + h[:-1]
    w2 = h[1:] + 2.0 * h[:-1]
    interior = (w1 + w2) / (w1 / d[:-1] + w2 / d[1:])
    # each end: one-sided three-point estimate, zeroed unless positive so its interval stays monotone
    h0, h1, d0, d1 = h[[0, -1]], h[[1, -2]], d[[0, -1]], d[[1, -2]]
    end = ((2.0 * h0 + h1) * d0 - h0 * d1) / (h0 + h1)
    end = np.where(end > 0, end, 0.0)
    return np.concatenate([end[:1], interior, end[1:]])


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
    """Evaluate phi at t in [0, 1] (scalar or array); NaN is outside the domain."""
    t_arr = np.asarray(t, dtype=float)
    if not np.all((t_arr >= -_DOMAIN_TOL) & (t_arr <= 1.0 + _DOMAIN_TOL)):
        raise ValueError(f"warp argument outside [0, 1]: {t}")
    out = _hermite_eval(w, np.clip(t_arr, 0.0, 1.0))
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def warp_inverse(w: Warp, tau):
    """Invert phi at tau in [tau_min, tau_max] by bisection on the cubic piece holding tau.

    Each bracket shrinks until its ends are adjacent floats, then the end with
    the smaller residual wins.  A tau equal to a knot returns that knot's x exactly.
    """
    tau_arr = np.asarray(tau, dtype=float)
    span_tol = _DOMAIN_TOL * max(1.0, abs(w.tau_min), abs(w.tau_max))
    if not np.all((tau_arr >= w.tau_min - span_tol) & (tau_arr <= w.tau_max + span_tol)):
        raise ValueError(f"warp inverse argument outside [{w.tau_min}, {w.tau_max}]: {tau}")
    target = np.clip(tau_arr, w.tau_min, w.tau_max)
    piece = np.clip(np.searchsorted(w.knots_y, target, side="right") - 1, 0, w.knots_y.size - 2)
    lo, hi = w.knots_x[piece], w.knots_x[piece + 1]
    # a tau on a knot starts from a bracket collapsed onto that knot's x
    lo = np.where(target == w.knots_y[piece + 1], hi, lo)
    hi = np.where(target == w.knots_y[piece], lo, hi)
    mid = 0.5 * (lo + hi)
    while np.any((lo < mid) & (mid < hi)):
        below = _hermite_eval(w, mid) <= target
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        mid = 0.5 * (lo + hi)
    closer_hi = np.abs(_hermite_eval(w, hi) - target) < np.abs(_hermite_eval(w, lo) - target)
    out = np.where(closer_hi, hi, lo)
    return float(out) if np.isscalar(tau) or tau_arr.ndim == 0 else out
