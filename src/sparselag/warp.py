"""Monotone warp between the unit interval and the maturity range.

The quoted maturities cluster near the short end, which starves kernel
smoothers of support there.  The fix is a smooth, strictly increasing
bijection phi: [0, 1] -> [tau_min, tau_max] interpolating the knots
((i-1)/(I-1), tau_i), so that in warped coordinates the maturities form an
equidistant grid.  A plain cubic spline through these knots can overshoot
and lose monotonicity, so the interpolant is a shape-preserving piecewise
cubic Hermite with Fritsch-Carlson limited slopes (C1, strictly increasing
for strictly increasing knots).  phi is fixed by the maturity grid, so both
directions take the grid itself.
"""

from __future__ import annotations

import numpy as np

from .model import MaturityGrid

_DOMAIN_TOL = 1e-12


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


def _knots(grid: MaturityGrid):
    """(x, y, m): the equidistant knots in [0, 1], the maturities and the limited slopes there."""
    y = grid.maturities
    x = np.linspace(0.0, 1.0, y.size)
    return x, y, _limited_slopes(x, y)


def _hermite_eval(knots, t: np.ndarray) -> np.ndarray:
    """phi at t in [0, 1] for both directions; raises where the slopes or the cubic overflow."""
    x, y, m = knots
    idx = np.clip(np.searchsorted(x, t, side="right") - 1, 0, x.size - 2)
    h = x[idx + 1] - x[idx]
    s = (t - x[idx]) / h
    y0, y1 = y[idx], y[idx + 1]
    m0, m1 = m[idx], m[idx + 1]
    # Hermite basis kept in factored form: (1 - s) is exact at both knot ends,
    # so phi reproduces the knots to the last bit.
    one_m = 1.0 - s
    out = (
        y0 * (1.0 + 2.0 * s) * one_m * one_m
        + h * m0 * s * one_m * one_m
        + y1 * s * s * (3.0 - 2.0 * s)
        + h * m1 * s * s * (s - 1.0)
    )
    if not np.all(np.isfinite(out)):
        raise ValueError(f"warp overflows on maturities up to {float(y[-1])!r}")
    return out


def warp_apply(grid: MaturityGrid, t):
    """Evaluate the grid's phi at t in [0, 1] (scalar or array); NaN is outside the domain; an overflow raises."""
    t_arr = np.asarray(t, dtype=float)
    if not np.all((t_arr >= -_DOMAIN_TOL) & (t_arr <= 1.0 + _DOMAIN_TOL)):
        raise ValueError(f"warp argument outside [0, 1]: {t}")
    out = _hermite_eval(_knots(grid), np.clip(t_arr, 0.0, 1.0))
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def warp_inverse(grid: MaturityGrid, tau):
    """Invert the grid's phi at tau in [tau_min, tau_max] by bisection on the cubic piece holding tau.

    Each bracket shrinks until its ends are adjacent floats, then the end with
    the smaller residual wins.  A tau equal to a knot returns that knot's x exactly.
    An overflow raises, as in warp_apply.
    """
    knots = _knots(grid)
    x, y, _ = knots
    tau_min, tau_max = float(y[0]), float(y[-1])
    tau_arr = np.asarray(tau, dtype=float)
    span_tol = _DOMAIN_TOL * max(1.0, abs(tau_min), abs(tau_max))
    if not np.all((tau_arr >= tau_min - span_tol) & (tau_arr <= tau_max + span_tol)):
        raise ValueError(f"warp inverse argument outside [{tau_min}, {tau_max}]: {tau}")
    target = np.clip(tau_arr, tau_min, tau_max)
    piece = np.clip(np.searchsorted(y, target, side="right") - 1, 0, y.size - 2)
    lo, hi = x[piece], x[piece + 1]
    # a tau on a knot starts from a bracket collapsed onto that knot's x
    lo = np.where(target == y[piece + 1], hi, lo)
    hi = np.where(target == y[piece], lo, hi)
    mid = 0.5 * (lo + hi)
    while np.any((lo < mid) & (mid < hi)):
        below = _hermite_eval(knots, mid) <= target
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        mid = 0.5 * (lo + hi)
    closer_hi = np.abs(_hermite_eval(knots, hi) - target) < np.abs(_hermite_eval(knots, lo) - target)
    out = np.where(closer_hi, hi, lo)
    return float(out) if np.isscalar(tau) or tau_arr.ndim == 0 else out
