"""Time-domain moments and lag-window spectral density of the regressor series.

The spectral density matrix of the d-dimensional series X_t is estimated by
the lag-window (Bartlett) formula with a triangular window of span Q:

    F_hat(omega) = (1/2pi) * sum_{|h|<Q} W_h * R_hat_h * exp(-i*h*omega),
    W_h = 1 - |h|/Q,

where R_hat_h is the empirical lag-h autocovariance with divisor T (not
T - h), and R_hat_{-h} = R_hat_h' by construction.  The sum runs over the
2Q - 1 lags with nonzero weight and is one product of the weighted phase
matrix with the stacked lag values, at the nodes k = 0..N/2 that determine a
spectrum of real series.  The matrix depends on (N, Q) alone, so an 8-entry
cache keeps it, read-only, for both estimates and later runs.  The estimate is
the same field type as the cross-spectral and response fields, checked on the
nodes it holds: its knot values are the half, its operator the identity.

Two primitives serve both spectral estimates: :func:`lagged_products` builds
the lag-h product sums of two panels over the same T periods, one
``np.correlate`` (2Q-1 BLAS dots) per column pair of the zero-padded panels
(here the regressors with themselves; in :mod:`sparselag.cross_spectral` the
centered curves with the regressors, whose observation counts need no
products), and :func:`lag_window_transform` takes any stack of lag values to
frequency.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .model import (FrequencyGrid, MacroPanel, SpectralField, _check_horizons, _check_means, _check_span, _frozen,
                    _max_lag, _store, _store_lags)


def lagged_products(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Lag-h product sums P[l] = sum_t a[t+h]' b[t] for h = l - (q-1) = 1-q..q-1.

    a is (T, m) and b is (T, n) with 1 <= q <= T, the rows of a read as curves and those of b
    as regressors; t runs over the rows where both a[t+h] and b[t] exist.  Returns shape
    (2q-1, m, n).  P[:, i, j] is one ``np.correlate`` of column i of a, zero-padded by q-1
    rows at both ends, with column j of b.
    """
    _check_horizons(len(a), len(b))
    _check_span(q, len(a))
    padded = np.zeros((a.shape[1], len(a) + 2 * q - 2))
    padded[:, q - 1: q - 1 + len(a)] = a.T
    b_cols = np.ascontiguousarray(b.T, dtype=float)
    out = np.empty((2 * q - 1, len(padded), len(b_cols)))
    for i, j in np.ndindex(out.shape[1:]):
        out[:, i, j] = np.correlate(padded[i], b_cols[j], "valid")
    return out


def bartlett_weights(q: int) -> np.ndarray:
    """Triangular window weights W_h = 1 - |h|/q for h = -(q-1)..(q-1)."""
    _check_span(q)
    h = np.arange(1 - q, q)
    return 1.0 - np.abs(h) / q


@lru_cache(maxsize=8)
def lag_window_kernel(grid: FrequencyGrid, q: int) -> np.ndarray:
    """The read-only (N/2+1, 2q-1) weighted phases W_h e^{-i h omega_k}, h = 1-q..q-1, k <= N/2."""
    return _frozen(grid.phases(np.arange(1 - q, q))[: grid.n_nodes // 2 + 1] * bartlett_weights(q))


def lag_window_transform(lag_values: np.ndarray, grid: FrequencyGrid) -> np.ndarray:
    """sum_h W_h e^{-i h omega_k} M_h for a stack M of 2q-1 real lags, h = 1-q..q-1.

    Returns shape (N/2+1, *lag_values.shape[1:]), nodes k <= N/2, without the 1/2pi factor.
    """
    q = _max_lag("lag values", lag_values) + 1
    return np.tensordot(lag_window_kernel(grid, q), lag_values, axes=1)


@dataclass(frozen=True)
class AutocovarianceSet:
    """Autocovariances for lags -(q-1)..(q-1), plus the empirical mean; ``lags``, ``max_lag`` = q - 1 and q
    are read from matrices."""

    matrices: np.ndarray    # (2q-1, d, d)
    mean: np.ndarray        # (d,)

    def __post_init__(self):
        mats = np.asarray(self.matrices, dtype=float)
        mean = np.asarray(self.mean, dtype=float)
        _store_lags(self, "matrices", mats)
        if mats.shape[1] != mats.shape[2]:
            raise ValueError("matrices must have shape (2q-1, d, d)")
        finite = np.isfinite(mats).all(axis=(1, 2))
        if not finite.all():
            raise ValueError(f"autocovariance at lag {self.lags[np.argmin(finite)]} not finite")
        _check_means(mean, mats.shape[1], "mean")
        center = self.max_lag       # the index of lag 0
        # mirrored[k - 1] says whether R_{-k} = R_k' for k = 1..q-1
        mirrored = (mats[:center][::-1] == np.swapaxes(mats[center + 1:], 1, 2)).all(axis=(1, 2))
        if not mirrored.all():
            k = int(np.argmin(mirrored)) + 1
            raise ValueError(f"R_{-k} must equal the transpose of R_{k} exactly")
        r0 = mats[center]
        scale = max(1.0, float(np.abs(r0).max()))
        if not np.abs(r0 - r0.T).max() <= 1e-10 * scale:
            raise ValueError("lag-0 autocovariance must be symmetric")
        if not np.linalg.eigvalsh(0.5 * (r0 + r0.T)).min() >= -1e-10 * scale:
            raise ValueError("lag-0 autocovariance must be positive semidefinite")
        _store(self, matrices=mats, mean=mean)

    @property
    def q(self) -> int:
        return self.max_lag + 1


def estimate_autocovariances(panel: MacroPanel, q: int) -> AutocovarianceSet:
    """All autocovariances needed by a span-q window (|h| < q)."""
    mean = panel.values.mean(axis=0)
    xc = panel.values - mean
    mats = lagged_products(xc, xc, q) / panel.n_times
    # mirror the positive lags so that R_{-h} = R_h' holds exactly
    mats[: q - 1] = np.swapaxes(mats[: q - 1: -1], 1, 2)
    return AutocovarianceSet(mats, mean)


class SpectralDensityField(SpectralField):
    """d x d complex spectral density matrices on a frequency grid.
    ``from_knots(grid, half, I)`` takes the nodes k <= N/2 as knot values and rejects any operator
    but the identity; once they are finite it checks that they are square and Hermitian (eigvalsh
    reads one triangle).  ``condition_numbers`` is computed on first read."""

    _symmetry = (1e-12, "spectral density must satisfy F(-omega) = conj(F(omega))")

    @classmethod
    def _verify_nodes(cls, nodes, identity):
        if not identity:
            raise ValueError(f"{cls.__name__} operator must be the identity: its knot values are its half")
        if nodes.shape[1] != nodes.shape[2]:
            raise ValueError("knot values must have shape (n_nodes/2 + 1, d, d)")
        scale = max(1.0, float(np.abs(nodes).max()))
        if not np.abs(nodes - np.conj(np.swapaxes(nodes, 1, 2))).max() <= 1e-12 * scale:
            raise ValueError("spectral density matrices must be Hermitian at every node")

    @cached_property
    def condition_numbers(self) -> np.ndarray:
        """cond_2 per node (all N, read-only), max/min |eigenvalue| of the Hermitian F_hat; inf where singular."""
        mags = np.abs(np.linalg.eigvalsh(self.half))
        lo, hi = mags.min(axis=1), mags.max(axis=1)
        return self.grid.mirror(np.divide(hi, lo, out=np.full_like(hi, np.inf), where=lo > 0))


def spectral_density_matrix(acov: AutocovarianceSet, grid: FrequencyGrid) -> SpectralDensityField:
    """Evaluate the triangular-window estimator on the nodes k <= N/2 of the frequency grid."""
    half = lag_window_transform(acov.matrices, grid) / (2.0 * np.pi)
    return SpectralDensityField.from_knots(grid, half, np.eye(half.shape[1]))
