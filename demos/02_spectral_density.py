"""Lag-window spectral density estimation checked against a closed form.

Simulates an AR(1) regressor, estimates its spectral density with the
triangular window of span ceil(sqrt(T)), and compares against the exact
VAR(1) spectrum (1/2pi) |1 - a e^{-i omega}|^{-2}.
"""

import numpy as np

from sparselag import (FrequencyGrid, MaturityGrid, SyntheticSpec, US_MATURITIES,
                       estimate_autocovariances, simulate_var1, spectral_density_matrix,
                       var1_spectral_density)

t_len, a = 20000, 0.7
spec = SyntheticSpec(maturity_grid=MaturityGrid(np.array(US_MATURITIES)),
                     n_times=t_len, ar_coef=np.array([[a]]),
                     innovation_cov=np.array([[1.0]]), macro_mean=np.zeros(1), seed=1)
macro = simulate_var1(spec)

q = int(np.ceil(np.sqrt(t_len)))
grid = FrequencyGrid(512)
estimated = spectral_density_matrix(estimate_autocovariances(macro, q), grid)
exact = var1_spectral_density(spec.ar_coef, spec.innovation_cov, grid)    # (N, 1, 1) array

print(f"AR(1) with a = {a}, T = {t_len}, window span q = {q}")
print("  omega     estimate    closed form")
for k in range(0, 512, 64):
    om = grid.nodes[k]
    print(f"  {om:7.3f}   {estimated.values[k, 0, 0].real:9.4f}   {exact[k, 0, 0].real:9.4f}")

rel = np.abs(estimated.values - exact)[:, 0, 0] / np.abs(exact)[:, 0, 0]
print(f"\nrelative error over 512 nodes: mean {rel.mean():.3f}, max {rel.max():.3f}")
print("(The estimate concentrates most of its error where the spectrum peaks at omega = 0.)")
