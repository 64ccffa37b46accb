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
the lag-h product sums (here of the regressors with themselves; in
:mod:`sparselag.cross_spectral` of the curves with the regressors), and
:func:`lag_window_transform` takes any stack of lag values to frequency.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import FrequencyGrid, MacroPanel, SpectralField, _frozen


def empirical_mean(panel: MacroPanel) -> np.ndarray:
    """Componentwise sample mean of the regressor series."""
    return panel.values.mean(axis=0)


def lagged_products(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Lag-h product sums P[l] = sum_t a[t+h]' b[t] for h = l - (q-1) = 1-q..q-1.

    a is (T, m) and b is (T, n); t runs over the rows where both a[t+h] and
    b[t] exist.  Returns shape (2q-1, m, n).
    """
    t_len = a.shape[0]
    out = np.empty((2 * q - 1, a.shape[1], b.shape[1]))
    # an overflow gives inf or nan without a warning; the callers' finiteness checks report it
    with np.errstate(over="ignore", invalid="ignore"):
        for l, h in enumerate(range(1 - q, q)):
            start, stop = max(0, -h), min(t_len, t_len - h)
            out[l] = a[start + h: stop + h].T @ b[start:stop]
    return out


def bartlett_weights(q: int) -> np.ndarray:
    """Triangular window weights W_h = 1 - |h|/q for h = -(q-1)..(q-1)."""
    if q < 1:
        raise ValueError(f"window span must be a positive integer, got {q}")
    h = np.arange(1 - q, q)
    return 1.0 - np.abs(h) / q


@lru_cache(maxsize=8)
def lag_window_kernel(grid: FrequencyGrid, q: int) -> np.ndarray:
    """The read-only (N/2+1, 2q-1) weighted phases W_h e^{-i h omega_k}, h = 1-q..q-1, k <= N/2."""
    return _frozen(grid.phases(np.arange(1 - q, q))[: grid.n_nodes // 2 + 1] * bartlett_weights(q),
                   dtype=complex)


def lag_window_transform(lag_values: np.ndarray, grid: FrequencyGrid) -> np.ndarray:
    """sum_h W_h e^{-i h omega_k} M_h for a stack M of 2q-1 real lags, h = 1-q..q-1.

    Returns shape (N/2+1, *lag_values.shape[1:]), nodes k <= N/2, without the 1/2pi factor.
    """
    return np.tensordot(lag_window_kernel(grid, (lag_values.shape[0] + 1) // 2), lag_values, axes=1)


@dataclass(frozen=True)
class AutocovarianceSet:
    """Autocovariances for lags -(q-1)..(q-1), plus the empirical mean."""

    lags: np.ndarray        # (2q-1,)
    matrices: np.ndarray    # (2q-1, d, d)
    mean: np.ndarray        # (d,)
    q: int

    def __post_init__(self):
        lags = np.asarray(self.lags, dtype=int)
        mats = np.asarray(self.matrices, dtype=float)
        mean = np.asarray(self.mean, dtype=float)
        expected = np.arange(1 - self.q, self.q)
        if not np.array_equal(lags, expected):
            raise ValueError(f"lags must run {1 - self.q}..{self.q - 1}")
        if mats.shape != (lags.size, mean.size, mean.size):
            raise ValueError("matrices must have shape (2q-1, d, d)")
        finite = np.isfinite(mats).all(axis=(1, 2))
        if not finite.all():
            raise ValueError(f"autocovariance at lag {lags[np.argmin(finite)]} not finite")
        center = self.q - 1
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
        object.__setattr__(self, "lags", _frozen(lags, dtype=int))
        object.__setattr__(self, "matrices", _frozen(mats))
        object.__setattr__(self, "mean", _frozen(mean))

    def matrix(self, h: int) -> np.ndarray:
        idx = h + self.q - 1
        if not 0 <= idx < self.lags.size:
            raise ValueError(f"lag {h} outside |h| < {self.q}")
        return self.matrices[idx]


def estimate_autocovariances(panel: MacroPanel, q: int) -> AutocovarianceSet:
    """All autocovariances needed by a span-q window (|h| < q)."""
    if not 1 <= q <= panel.n_times:
        raise ValueError(f"window span must satisfy 1 <= q <= T, got q={q}, T={panel.n_times}")
    mean = empirical_mean(panel)
    xc = panel.values - mean
    mats = lagged_products(xc, xc, q) / panel.n_times
    # mirror the positive lags so that R_{-h} = R_h' holds exactly
    mats[: q - 1] = np.swapaxes(mats[: q - 1: -1], 1, 2)
    return AutocovarianceSet(lags=np.arange(1 - q, q), matrices=mats, mean=mean, q=q)


@dataclass(frozen=True)
class SpectralDensityField(SpectralField):
    """d x d complex spectral density matrices on a frequency grid: the knot values are the half,
    the operator the identity (from_knots rejects any other), and ``matrices`` is ``values``.  Each
    constructor checks that the finite matrices it is given (eigvalsh reads one triangle) are
    Hermitian: all N, or k <= N/2."""

    grid: FrequencyGrid
    matrices: np.ndarray    # (N, d, d) complex
    _knots_are_half = True
    _symmetry = (1e-12, "spectral density must satisfy F(-omega) = conj(F(omega))")
    _shape = "matrices must have shape (n_nodes, d, d)"

    @classmethod
    def _check(cls, nodes):
        if nodes.shape[1] != nodes.shape[2]:
            raise ValueError(cls._shape)
        scale = max(1.0, float(np.abs(nodes).max()))
        if not np.abs(nodes - np.conj(np.swapaxes(nodes, 1, 2))).max() <= 1e-12 * scale:
            raise ValueError("spectral density matrices must be Hermitian at every node")

    def condition_numbers(self) -> np.ndarray:
        """cond_2 per node, max/min |eigenvalue| of the Hermitian F_hat; inf where singular."""
        mags = np.abs(np.linalg.eigvalsh(self.half))
        lo, hi = mags.min(axis=1), mags.max(axis=1)
        return self.grid.mirror(np.divide(hi, lo, out=np.full_like(hi, np.inf), where=lo > 0))


# bound after @dataclass, which takes a class attribute as the field's default; cached as values
SpectralDensityField.matrices = SpectralField.values


def spectral_density_matrix(acov: AutocovarianceSet, grid: FrequencyGrid) -> SpectralDensityField:
    """Evaluate the triangular-window estimator on the nodes k <= N/2 of the frequency grid."""
    half = lag_window_transform(acov.matrices, grid) / (2.0 * np.pi)
    return SpectralDensityField.from_knots(grid, half, np.eye(half.shape[1]))
