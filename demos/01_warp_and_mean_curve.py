"""Warped coordinates and the pooled mean-curve smoother.

Quoted maturities pile up near the short end (1 month, 6 months, 1 year...)
while the long end is sparse.  Kernel smoothing directly in maturity space
would starve some windows and drown others, so the toolkit works in warped
coordinates: a monotone cubic maps [0, 1] onto the maturity range with the
quoted maturities landing on an equidistant grid.
"""

import numpy as np

from sparselag import (MaturityGrid, SparseYieldPanel, US_MATURITIES, estimate_mean_curve,
                       warp_apply, warp_inverse)

grid = MaturityGrid(np.array(US_MATURITIES))   # the warp is a fixed function of this grid

print("The warp sends the equidistant grid k/8 onto the quoted maturities:")
for k, tau in enumerate(grid.maturities):
    t = k / (grid.n_maturities - 1)
    print(f"  phi({t:5.3f}) = {warp_apply(grid, t):7.4f} years   (quoted: {tau:.4f})")

print("\nBetween knots the map stays strictly increasing, e.g.")
for t in (0.05, 0.30, 0.55, 0.80, 0.95):
    tau = warp_apply(grid, t)
    print(f"  phi({t:.2f}) = {tau:7.4f},  phi_inverse back to {warp_inverse(grid, tau):.6f}")

# A synthetic panel whose true mean is a gentle curve in warped coordinates.
rng = np.random.default_rng(0)
tau_tilde = np.linspace(0, 1, grid.n_maturities)
true_mean = 5.0 + 2.0 * tau_tilde - 1.0 * tau_tilde ** 2
values = true_mean + 0.3 * rng.standard_normal((240, grid.n_maturities))
values[rng.uniform(size=values.shape) < 0.1] = np.nan      # drop 10% of the quotes
panel = SparseYieldPanel.from_values(values, grid)

eval_warped = np.linspace(0, 1, 9)
eval_tau = np.asarray(warp_apply(grid, eval_warped))
estimate = estimate_mean_curve(panel, b_mu=0.25, eval_points=eval_tau)

print("\nPooled local-linear mean estimate vs truth (10% of cells missing):")
print("  maturity   estimate   truth")
for tau, est, t in zip(eval_tau, estimate, eval_warped):
    truth = 5.0 + 2.0 * t - 1.0 * t ** 2
    print(f"  {tau:8.4f}   {est:8.4f}   {truth:.4f}")
