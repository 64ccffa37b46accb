"""Time-domain moments and lag-window spectral density of the regressor series.

The spectral density matrix of the d-dimensional series X_t is estimated by
the lag-window (Bartlett) formula with a triangular window of span Q:

    F_hat(omega) = (1/2pi) * sum_{|h|<Q} W_h * R_hat_h * exp(-i*h*omega),
    W_h = 1 - |h|/Q,

where R_hat_h is the empirical lag-h autocovariance with divisor T (not
T - h), and R_hat_{-h} = R_hat_h' by construction.  The sum runs over the
2Q - 1 lags with nonzero weight.  Since e^{-i h omega_k} = (-1)^h e^{-2 pi i h k/N}
on the nodes omega_k = -pi + 2 pi k/N, it is the real FFT (``np.fft.rfft``) of
the signed, weighted lags placed at h mod N, which gives the nodes k = 0..N/2
that determine a spectrum of real series; when 2Q - 1 > N, lags that meet
modulo N are added first, as N-row blocks of one zero buffer.  The FFT calls
no BLAS, so its sums do not depend on the thread count.  The estimate is the
same field type as the cross-spectral and response fields, checked on the
nodes it holds: its knot values are those nodes, its operator the identity.  It
is Hermitian by construction: above the diagonal it holds the conjugate of the
transform below it, and on the diagonal the transform's real part.

Two primitives serve both spectral estimates: :func:`lagged_products` builds
the lag-h product sums of two panels over the same T periods, one
``np.correlate`` (2Q-1 BLAS dots) per column pair of the zero-padded panels
and CHUNK periods (here the regressors with themselves; in
:mod:`sparselag.cross_spectral` the centered curves with the regressors, whose
observation counts need no products), and :func:`lag_window_transform` takes
any stack of lag values to frequency.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .model import (FrequencyGrid, MacroPanel, SpectralField, _ArrayHolder, _check_horizons, _check_means, _check_span,
                    _frozen, _max_lag, _store, _store_lags)


# OpenBLAS runs a dot product of at most 10,000 terms on one thread; longer lag sums go in such parts, in order.
CHUNK = 8192     # terms per dot product of the lag sums


def lagged_products(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Lag-h product sums P[l] = sum_t a[t+h]' b[t] for h = l - (q-1) = 1-q..q-1.

    a is (T, m) and b is (T, n) with 1 <= q <= T, the rows of a read as curves and those of b
    as regressors; t runs over the rows where both a[t+h] and b[t] exist.  Returns shape
    (2q-1, m, n).  P[:, i, j] adds, in order, one ``np.correlate`` per CHUNK rows of column j
    of b with column i of a, zero-padded by q-1 rows at both ends.
    """
    _check_horizons(len(a), len(b))
    _check_span(q, len(a))
    padded = np.zeros((a.shape[1], len(a) + 2 * q - 2))
    padded[:, q - 1: q - 1 + len(a)] = a.T
    b_cols = np.ascontiguousarray(b.T, dtype=float)
    out = np.empty((2 * q - 1, len(padded), len(b_cols)))
    for i, j in np.ndindex(out.shape[1:]):
        out[:, i, j] = reduce(np.add, (np.correlate(padded[i, t:t + CHUNK + 2 * q - 2], b_cols[j, t:t + CHUNK], "valid")
                                       for t in range(0, len(a), CHUNK)))
    return out


def bartlett_weights(q: int) -> np.ndarray:
    """Triangular window weights W_h = 1 - |h|/q for h = -(q-1)..(q-1)."""
    _check_span(q)
    h = np.arange(1 - q, q)
    return 1.0 - np.abs(h) / q


def lag_window_transform(lag_values: np.ndarray, grid: FrequencyGrid) -> np.ndarray:
    """sum_h W_h e^{-i h omega_k} M_h for a stack M of 2q-1 real lags, h = 1-q..q-1.

    Returns shape (N/2+1, *lag_values.shape[1:]), nodes k <= N/2, without the 1/2pi factor:
    the ``rfft`` of the N-periodic sequence (-1)^h W_h M_h, placed at h mod N.  The weighted lags sit
    at h mod mN in a zero buffer of m N-row blocks, mN >= 2q - 1, and the blocks are added in order.
    """
    q = _max_lag("lag values", lag_values) + 1
    lags = np.arange(1 - q, q)
    weights = (-1.0) ** lags * bartlett_weights(q)
    n, blocks = grid.n_nodes, -(-lags.size // grid.n_nodes)
    buffer = np.zeros((blocks * n, *lag_values.shape[1:]))
    buffer[lags % len(buffer)] += (weights * lag_values.T).T     # += makes a weighted -0.0 a 0.0
    return np.fft.rfft(reduce(np.add, buffer.reshape(blocks, n, *lag_values.shape[1:])), axis=0)


@dataclass(frozen=True)
class AutocovarianceSet(_ArrayHolder):
    """Autocovariances for lags -(q-1)..(q-1), plus the empirical mean; ``lags`` and ``max_lag`` = q - 1 are read
    from matrices."""

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
    ``from_knots(grid, F, I)`` takes the nodes k <= N/2 as knot values and rejects any operator
    but the identity; once they are finite it checks that they are square and Hermitian (eigvalsh
    reads one triangle).  ``condition_numbers`` is computed on first read."""

    _symmetry = (1e-12, "spectral density must satisfy F(-omega) = conj(F(omega))")
    values = cached_property(lambda self: self.grid.mirror(self.knot_values))   # no product through I: -0.0 stays

    @classmethod
    def _verify_nodes(cls, nodes, operator):
        if not np.array_equal(operator, np.eye(nodes.shape[1])):
            raise ValueError(f"{cls.__name__} operator must be the identity: its knot values are its half")
        if nodes.shape[1] != nodes.shape[2]:
            raise ValueError("knot values must have shape (n_nodes/2 + 1, d, d)")
        scale = max(1.0, float(np.abs(nodes).max()))
        if not np.abs(nodes - np.conj(np.swapaxes(nodes, 1, 2))).max() <= 1e-12 * scale:
            raise ValueError("spectral density matrices must be Hermitian at every node")

    @cached_property
    def condition_numbers(self) -> np.ndarray:
        """cond_2 per node k <= N/2 (node N - k has the same), read-only: max/min |eigenvalue|, inf if singular."""
        mags = np.abs(np.linalg.eigvalsh(self.knot_values))
        lo, hi = mags.min(axis=1), mags.max(axis=1)
        return _frozen(np.divide(hi, lo, out=np.full_like(hi, np.inf), where=lo > 0))


def spectral_density_matrix(acov: AutocovarianceSet, grid: FrequencyGrid) -> SpectralDensityField:
    """Evaluate the triangular-window estimator on the nodes k <= N/2 of the frequency grid.

    The spectrum of a real series is Hermitian, but each entry's transform is so only to
    rounding.  The matrices keep the transform's lower triangle, its conjugate above the
    diagonal and the real part on it, so they equal their conjugate transpose exactly.
    """
    half = lag_window_transform(acov.matrices, grid) / (2.0 * np.pi)
    for i in range(half.shape[1] - 1):
        half[:, i, i + 1:] = np.conj(half[:, i + 1:, i])
    np.einsum("kii->ki", half).imag = 0.0
    return SpectralDensityField.from_knots(grid, half, np.eye(half.shape[1]))
