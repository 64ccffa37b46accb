"""Shared domain types: panels, grids, configuration, and the fitted model.

Pure data module. Every type validates its invariants on construction and is
immutable afterwards (it stores read-only copies of its arrays), so instances
can be shared across concurrent workers without copying.

Units follow the monthly yield-curve convention: maturities in years, curve
and regressor values in percent, lags in sampling periods (months).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np


# Three construction facts the value types share, then six input rules: each stated once.

def _frozen(values, dtype=None):
    """The read-only copy of an array field: a new C-ordered array (of dtype, if given) that no caller
    can write, whatever it was given."""
    out = np.array(values, dtype=dtype, order="C")
    out.flags.writeable = False
    return out


def _store(instance, **arrays) -> None:
    """Set each named array field of a frozen dataclass instance to its read-only copy."""
    for name, values in arrays.items():
        object.__setattr__(instance, name, _frozen(values))


class _ArrayHolder:
    """Base of every type that stores arrays: what copy.deepcopy or pickle rebuilds of an instance,
    cached arrays included, is read-only as the instance is."""

    def __setstate__(self, state):
        for value in state.values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        vars(self).update(state)


def _max_lag(name: str, stack: np.ndarray, ndim: Optional[int] = None, counts=None) -> int:
    """The lag-stack format: a stack (of ndim axes, if given) has an odd first axis of 2H+1 lags, lag h
    at index h + H, and its counts, if any, have its shape without the last axis.  Returns H."""
    if (stack.ndim == 0 if ndim is None else stack.ndim != ndim) or len(stack) % 2 == 0:
        axes = "a first axis of" if ndim is None else f"{ndim} axes, the first"
        raise ValueError(f"{name} must have {axes} an odd number of lags (2H+1 lags -H..H), "
                         f"got shape {stack.shape}")
    if counts is not None and counts.shape != stack.shape[:-1]:
        raise ValueError(f"counts must have shape {stack.shape[:-1]}, as {name} without its last axis")
    return len(stack) // 2


def _store_lags(instance, name: str, stack: np.ndarray, counts=None) -> None:
    """Give a type holding a 3-axis lag stack its max_lag H and read-only lags -H..H, one per stack row."""
    h = _max_lag(name, stack, 3, counts)
    lags = np.arange(-h, h + 1)
    lags.flags.writeable = False
    vars(instance).update(max_lag=h, lags=lags)


def _check_integers(**values) -> None:
    """Counts and seeds are integers (a numpy integer is one)."""
    for name, value in values.items():
        if not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_horizons(n_curves: int, n_regressors: int) -> None:
    """Curves and regressors cover the same T periods: their row counts are equal."""
    if n_curves != n_regressors:
        raise ValueError(f"panel horizons differ: curves have T={n_curves}, regressors T={n_regressors}")


def _check_span(q: int, n_times: float = math.inf) -> None:
    """The lag window has an integer span 1 <= q <= T."""
    if not isinstance(q, numbers.Integral) or q < 1:
        raise ValueError(f"q must be a positive integer, got {q}")
    if q > n_times:
        raise ValueError(f"window span q={q} exceeds the horizon T={n_times}")


def _check_lag_reach(h_max: int, n_omega: Optional[int]) -> None:
    """The filter's lags -h_max..h_max fit the quadrature grid: an integer h_max >= 0 and, unless n_omega is None
    (a grid that ``analyze`` chooses, which fits by construction), an even integer n_omega >= 2 h_max + 2."""
    _check_integers(h_max=h_max)
    if h_max < 0:
        raise ValueError(f"h_max must be nonnegative, got {h_max}")
    if n_omega is None:
        return
    _check_integers(n_omega=n_omega)
    if n_omega % 2 != 0 or n_omega < 2 * h_max + 2:
        raise ValueError(f"n_omega must be even and >= 2*h_max + 2 = {2 * h_max + 2}, got {n_omega}")


def _check_cond_threshold(cond_threshold: float) -> None:
    """The condition-number ceiling is finite and exceeds 1, so no value switches the guard off or trips it always."""
    if not (1.0 < cond_threshold < math.inf):
        raise ValueError(f"cond_threshold must be finite and exceed 1, got {cond_threshold}")


def _check_means(means: np.ndarray, d: int, name: str = "macro_means") -> None:
    """Regressor means are a finite vector of d values, one per regressor series."""
    if means.shape != (d,):
        raise ValueError(f"{name} must hold one value per regressor series")
    if not np.all(np.isfinite(means)):
        raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class MaturityGrid(_ArrayHolder):
    """Ordered quoted maturities tau_1 < ... < tau_I (years), I >= 3."""

    maturities: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.maturities, dtype=float)
        if m.ndim != 1:
            raise ValueError("maturities must be a one-dimensional sequence")
        if m.size < 3:
            raise ValueError(f"need at least 3 maturities for local-linear fits, got {m.size}")
        if not np.all(np.isfinite(m)):
            raise ValueError("maturities must all be finite")
        if m[0] < 0:
            raise ValueError("maturities must be nonnegative")
        if np.any(np.diff(m) <= 0):
            raise ValueError("maturities must be strictly increasing")
        _store(self, maturities=m)

    @property
    def n_maturities(self) -> int:
        return self.maturities.size


@dataclass(frozen=True)
class SparseYieldPanel(_ArrayHolder):
    """T x I panel of noisy curve observations on a fixed maturity grid.

    ``observed`` marks the available cells; ``values`` is NaN wherever a
    cell is missing.  Every row and every column must contain at least one
    observation.
    """

    values: np.ndarray
    observed: np.ndarray
    maturity_grid: MaturityGrid

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        observed = np.asarray(self.observed, dtype=bool)
        if values.ndim != 2:
            raise ValueError("panel values must be a T x I matrix")
        if observed.shape != values.shape:
            raise ValueError("observed mask must match the shape of values")
        if values.shape[1] != self.maturity_grid.n_maturities:
            raise ValueError(
                f"panel has {values.shape[1]} columns but the maturity grid has "
                f"{self.maturity_grid.n_maturities} points"
            )
        if values.shape[0] < 1:
            raise ValueError("panel must contain at least one time point")
        if not observed.any(axis=1).all():
            t = int(np.flatnonzero(~observed.any(axis=1))[0])
            raise ValueError(f"every row needs at least one observation; row {t + 1} is empty")
        if not observed.any(axis=0).all():
            i = int(np.flatnonzero(~observed.any(axis=0))[0])
            raise ValueError(f"every maturity needs at least one observation; column {i + 1} is empty")
        if not np.all(np.isfinite(values[observed])):
            raise ValueError("observed values must all be finite")
        _store(self, values=np.where(observed, values, np.nan), observed=observed)

    @classmethod
    def from_values(cls, values, maturity_grid: MaturityGrid) -> "SparseYieldPanel":
        """Build a panel from a matrix where NaN encodes a missing cell."""
        values = np.asarray(values, dtype=float)
        return cls(values=values, observed=~np.isnan(values), maturity_grid=maturity_grid)

    @property
    def n_times(self) -> int:
        return self.values.shape[0]

    @property
    def n_maturities(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class MacroPanel(_ArrayHolder):
    """T x d panel of scalar regressor series, fully observed."""

    values: np.ndarray
    series_names: tuple[str, ...]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise ValueError("regressor values must be a T x d matrix")
        if values.shape[0] < 1 or values.shape[1] < 1:
            raise ValueError("regressor panel must be non-empty")
        if not np.all(np.isfinite(values)):
            raise ValueError("regressor panel admits no missing or non-finite entries")
        names = tuple(str(s) for s in self.series_names)
        if len(names) != values.shape[1]:
            raise ValueError(f"got {len(names)} series names for {values.shape[1]} series")
        # result tables are comma-joined and keyed by series name
        for k, name in enumerate(names):
            if not name or name != name.strip() or any(c in name for c in ',"\r\n'):
                raise ValueError(f"series name {name!r} is empty, has surrounding whitespace "
                                 "or contains a comma, quote or line break")
            if name in names[:k]:
                raise ValueError(f"duplicate series name {name!r}")
        _store(self, values=values)
        object.__setattr__(self, "series_names", names)

    @property
    def n_times(self) -> int:
        return self.values.shape[0]

    @property
    def n_series(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class FrequencyGrid:
    """Equispaced frequency nodes omega_k = -pi + 2*pi*k/N, k = 0..N-1.

    The grid covers [-pi, pi) with rectangle-rule weight 2*pi/N per node,
    which integrates e^{i*h*omega} exactly for |h| < N.  Callers that
    integrate up to lag H must therefore use N >= 2H + 2.
    """

    n_nodes: int

    def __post_init__(self):
        _check_integers(n_nodes=self.n_nodes)
        if self.n_nodes < 2 or self.n_nodes % 2 != 0:
            raise ValueError(f"frequency grid size must be even and >= 2, got {self.n_nodes}")

    @property
    def nodes(self) -> np.ndarray:
        return -np.pi + 2.0 * np.pi * np.arange(self.n_nodes) / self.n_nodes

    @property
    def quadrature_weight(self) -> float:
        return 2.0 * np.pi / self.n_nodes

    def mirror(self, half: np.ndarray) -> np.ndarray:
        """All N nodes (axis 0), read-only, from nodes k = 0..N/2: node N - k is the conjugate of node k."""
        full = np.concatenate([half, np.conj(half[-2:0:-1])])
        full.flags.writeable = False
        return full


class SpectralField(_ArrayHolder):
    """Spectral field (N, R, d) of real series, held on the nodes k = 0..N/2 as the (N/2+1, I, d)
    knot values Z at I maturity knots and a real (R, I) operator L; half = L @ Z and values =
    grid.mirror(half), all N nodes, are built on first read.  ``Cls.from_knots(grid, Z, L)`` is
    the one constructor.  It checks shapes, that Z and L are finite, then the self-paired nodes
    omega = -pi, 0, whose gap |v(-omega) - conj v(omega)| = 2 |L Im Z| <= ||L||_inf * 2 max |Im Z|
    must stay within tol; every other node pairs with a conjugate.  A subclass sets ``_symmetry`` = (tolerance, message) and may override ``_verify_nodes``, which
    ``from_knots`` calls once the knot values are finite.  Instances are immutable."""

    _symmetry: tuple[float, str]

    @classmethod
    def from_knots(cls, grid: FrequencyGrid, knot_values, operator):
        knot_values, operator = _frozen(knot_values, dtype=complex), _frozen(operator, dtype=float)
        if (knot_values.ndim != 3 or len(knot_values) != grid.n_nodes // 2 + 1
                or operator.shape[1:] != knot_values.shape[1:2]):
            raise ValueError("knot values must have shape (n_nodes/2 + 1, I, d) and the operator (R, I)")
        finite = np.isfinite(knot_values).all(axis=(1, 2))
        if not finite.all():
            omega = float(grid.nodes[np.argmin(finite)])
            raise ValueError(f"{cls.__name__} knot values not finite at omega = {omega!r}")
        if not np.all(np.isfinite(operator)):
            raise ValueError(f"{cls.__name__} operator not finite")
        identity = operator.shape[0] == operator.shape[1] and np.array_equal(operator, np.eye(len(operator)))
        cls._verify_nodes(knot_values, identity)
        self_paired = 2.0 * np.abs(knot_values[[0, -1]].imag).max()
        if not np.abs(operator).sum(axis=1).max() * self_paired <= cls._symmetry[0]:
            raise ValueError(cls._symmetry[1])
        field = cls.__new__(cls)
        vars(field).update(grid=grid, knot_values=knot_values, operator=operator)
        if identity:
            vars(field)["half"] = knot_values
        return field

    @classmethod
    def _verify_nodes(cls, nodes: np.ndarray, identity: bool) -> None:
        """A subclass's check of the nodes a field is built from; identity: is its operator the identity."""

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    @cached_property
    def half(self) -> np.ndarray:
        # a real operator: one real product over the interleaved real and imaginary parts
        product = self.operator @ self.knot_values.view(float)
        product.flags.writeable = False
        return product.view(complex)

    values = cached_property(lambda self: self.grid.mirror(self.half))

    @property
    def n_series(self) -> int:
        return self.knot_values.shape[2]


@dataclass(frozen=True)
class Config:
    """Estimation settings.

    b_mu, b_r      mean / cross-covariance smoother bandwidths, in warped
                   coordinates (fractions of [0, 1])
    q              spectral lag-window span (weights vanish for |h| >= q)
    n_omega        frequency grid size N, even and >= 2 h_max + 2, used as
                   given; None (the default): ``analyze`` chooses N per run
                   from the quadrature's aliasing (``sparselag.pipeline``)
    h_max          filter truncation lag: coefficients kept for |h| <= h_max
    n_eval         number of curve evaluation points (equispaced in warped
                   coordinates)
    cond_threshold condition-number ceiling for spectral matrix solves
    """

    b_mu: float
    b_r: float
    q: int
    n_omega: Optional[int] = None
    h_max: int = 12
    n_eval: int = 101
    cond_threshold: float = 1e8

    def __post_init__(self):
        if not (0.0 < self.b_mu <= 1.0):
            raise ValueError(f"b_mu must lie in (0, 1], got {self.b_mu}")
        if not (0.0 < self.b_r <= 1.0):
            raise ValueError(f"b_r must lie in (0, 1], got {self.b_r}")
        _check_span(self.q)
        _check_lag_reach(self.h_max, self.n_omega)
        _check_integers(n_eval=self.n_eval)
        if self.n_eval < 2:
            raise ValueError(f"n_eval must be at least 2, got {self.n_eval}")
        _check_cond_threshold(self.cond_threshold)

    @classmethod
    def defaults(cls, n_times: int, n_maturities: int, **overrides) -> "Config":
        """Default settings for a T x I panel.

        q = ceil(sqrt(T)); bandwidths span two inter-point spacings of the
        equidistant warped maturity grid, so every window holds at least two
        support points.
        """
        base = dict(
            b_mu=2.0 / (n_maturities - 1),
            b_r=2.0 / (n_maturities - 1),
            q=math.ceil(math.sqrt(n_times)),
        )
        base.update(overrides)
        config = cls(**base)
        _check_span(config.q, n_times)
        return config


@dataclass(frozen=True)
class LaggedRegressionFit(_ArrayHolder):
    """Fitted lagged-regression filter on a grid of evaluation points.

    filter_coef[l, r, j] holds the lag lags[l] coefficient of regressor j at
    evaluation point r; its first axis is a lag stack, so lags = -H..H with H = max_lag.
    The intercept is stored implicitly: it is
    ``mean_curve - filter_coef.sum(axis=0) @ macro_means``.
    """

    filter_coef: np.ndarray     # (2H+1, R, d)
    eval_tau: np.ndarray        # (R,) maturities
    eval_warped: np.ndarray     # (R,) warped coordinates in [0, 1]
    mean_curve: np.ndarray      # (R,) estimated mean at eval_tau
    macro_means: np.ndarray     # (d,)

    def __post_init__(self):
        coef = np.asarray(self.filter_coef, dtype=float)
        eval_tau = np.asarray(self.eval_tau, dtype=float)
        eval_warped = np.asarray(self.eval_warped, dtype=float)
        mean_curve = np.asarray(self.mean_curve, dtype=float)
        macro_means = np.asarray(self.macro_means, dtype=float)
        _store_lags(self, "filter_coef", coef)
        n_eval = coef.shape[1]
        if eval_tau.shape != (n_eval,) or eval_warped.shape != (n_eval,) or mean_curve.shape != (n_eval,):
            raise ValueError("evaluation grids and mean curve must match filter_coef")
        if not np.all(np.isfinite(coef)):
            raise ValueError("filter coefficients must be finite")
        if not np.all(np.isfinite(mean_curve)):
            raise ValueError("mean_curve must be finite")
        if not (np.all(np.isfinite(eval_tau)) and np.all(np.isfinite(eval_warped))):
            raise ValueError("eval_tau and eval_warped must be finite")
        if not np.all((eval_warped >= 0.0) & (eval_warped <= 1.0)):
            raise ValueError("eval_warped must lie in [0, 1]")
        _check_means(macro_means, coef.shape[2])
        _store(self, filter_coef=coef, eval_tau=eval_tau, eval_warped=eval_warped, mean_curve=mean_curve,
               macro_means=macro_means)

    @property
    def n_series(self) -> int:
        return self.filter_coef.shape[2]

    def lag_index(self, h: int) -> int:
        if h not in self.lags:
            raise ValueError(f"lag {h} outside the stored range {-self.max_lag}..{self.max_lag}")
        return int(h + self.max_lag)
