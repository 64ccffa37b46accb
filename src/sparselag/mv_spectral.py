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
cache keeps it, read-only, for both estimates and later runs.

Two primitives serve both spectral estimates: :func:`lagged_products` builds
the lag-h product sums (here of the regressors with themselves; in
:mod:`sparselag.cross_spectral` of the curves with the regressors), and
:func:`lag_window_transform` takes any stack of lag values to frequency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .model import FrequencyGrid, MacroPanel, _frozen


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


class _MirroredMatrices:
    """Base of SpectralDensityField, whose dataclass field would hide this cached property."""

    matrices = cached_property(lambda self: self.grid.mirror(self.half))


@dataclass(frozen=True)
class SpectralDensityField(_MirroredMatrices):
    """d x d complex spectral density matrices on a frequency grid, held as ``half``.

    Invariants checked at construction: each matrix is Hermitian, and nodes
    paired across zero frequency carry conjugate values (FrequencyGrid.fold).
    """

    grid: FrequencyGrid
    matrices: np.ndarray = field()    # (N, d, d) complex

    def __post_init__(self):
        mats = np.asarray(vars(self).pop("matrices"), dtype=complex)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise ValueError("matrices must have shape (n_nodes, d, d)")
        if mats.shape[0] != self.grid.n_nodes:
            raise ValueError("matrices must cover every frequency node")
        # eigvalsh reads one triangle only, so a NaN in the other must be caught here
        self.grid.require_finite(mats, "spectral density matrices")
        scale = max(1.0, float(np.abs(mats).max()))
        if not np.abs(mats - np.conj(np.swapaxes(mats, 1, 2))).max() <= 1e-12 * scale:
            raise ValueError("spectral density matrices must be Hermitian at every node")
        half = self.grid.fold(mats, 1e-12, "spectral density must satisfy F(-omega) = conj(F(omega))")
        vars(self)["half"] = _frozen(half, dtype=complex)

    @property
    def n_series(self) -> int:
        return self.half.shape[1]

    def condition_numbers(self) -> np.ndarray:
        """cond_2 per node, max/min |eigenvalue| of the Hermitian F_hat; inf where singular."""
        mags = np.abs(np.linalg.eigvalsh(self.half))
        lo, hi = mags.min(axis=1), mags.max(axis=1)
        return self.grid.mirror(np.divide(hi, lo, out=np.full_like(hi, np.inf), where=lo > 0))


def spectral_density_matrix(acov: AutocovarianceSet, grid: FrequencyGrid) -> SpectralDensityField:
    """Evaluate the triangular-window estimator on the frequency grid."""
    half = lag_window_transform(acov.matrices, grid) / (2.0 * np.pi)
    return SpectralDensityField(grid=grid, matrices=grid.mirror(half))
