import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from sparselag import MacroPanel, MaturityGrid, SparseYieldPanel, US_MATURITIES


@pytest.fixture
def us_grid():
    return MaturityGrid(np.array(US_MATURITIES))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_sparse_panel(rng, t_len, n_mat, missing_frac=0.15, loc=5.0):
    """Random panel with scattered missing cells but full row/column coverage."""
    grid = MaturityGrid(np.sort(rng.uniform(0.1, 30.0, size=n_mat)))
    observed = rng.uniform(size=(t_len, n_mat)) > missing_frac
    for t in np.flatnonzero(~observed.any(axis=1)):
        observed[t, rng.integers(n_mat)] = True
    for i in np.flatnonzero(~observed.any(axis=0)):
        observed[rng.integers(t_len), i] = True
    values = np.where(observed, loc + rng.standard_normal((t_len, n_mat)), np.nan)
    return SparseYieldPanel(values=values, observed=observed, maturity_grid=grid)


def random_macro_panel(rng, t_len, d):
    return MacroPanel(values=rng.standard_normal((t_len, d)),
                      series_names=tuple(f"X{j + 1}" for j in range(d)))


def field_from_values(cls, grid, values):
    """A spectral field from its values at all N nodes, through ``cls.from_knots`` on the nodes
    k = 0..N/2; the values must be conjugate-symmetric, so the mirror drops nothing but rounding."""
    values = np.asarray(values, dtype=complex)
    n = grid.n_nodes
    gap = np.abs(values[(-np.arange(n)) % n] - np.conj(values)).max()
    assert gap <= 1e-12 * max(1.0, np.abs(values).max()), f"values are not conjugate-symmetric: gap {gap:.2e}"
    return cls.from_knots(grid, values[: n // 2 + 1], np.eye(values.shape[1]))
