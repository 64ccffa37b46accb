"""The file-based workflow: simulate to CSV, analyze, inspect the outputs.

Equivalent CLI session:

    sparselag simulate --config sim.cfg --out demo_data
    sparselag analyze --yields demo_data/yields.csv --macro demo_data/macro.csv --out demo_results
    sparselag check
"""

import csv
import json
import tempfile
from pathlib import Path

import numpy as np

from sparselag import (analyze, build_result_bundle, load_macro_csv, load_yields_csv,
                       write_results, write_macro_csv, write_yields_csv,
                       recovery_spec, simulate_lagged_regression)
from sparselag.io import sha256_digest

workdir = Path(tempfile.mkdtemp(prefix="sparselag_demo_"))
data_dir = workdir / "demo_data"
data_dir.mkdir()

panel, macro, truth = simulate_lagged_regression(recovery_spec(seed=42))
write_yields_csv(panel, data_dir / "yields.csv")
write_macro_csv(macro, data_dir / "macro.csv")
print(f"wrote panels to {data_dir}")

# Reload from disk (bit-exact round trip) and run the pipeline.
panel2 = load_yields_csv(data_dir / "yields.csv")
macro2 = load_macro_csv(data_dir / "macro.csv")
assert np.array_equal(panel2.values[panel2.observed], panel.values[panel.observed])

result = analyze(panel2, macro2)
digests = {"yields": sha256_digest(data_dir / "yields.csv"),
           "macro": sha256_digest(data_dir / "macro.csv")}
bundle = build_result_bundle(result, panel2, macro2, digests)
manifest = write_results(bundle, workdir / "demo_results")

print("\nresult files:")
for path in manifest:
    print(f"  {path.name:<26} {path.stat().st_size:>9} bytes")

# The spectral tables hold the nodes k = 0..N/2 (omega in [-pi, 0]); node N - k
# is the complex conjugate of node k.  The response table holds the field Z at
# the quoted maturities, and summary.json the smoothing operator L that carries
# it to the evaluation grid: B(omega_k, tau_r) = sum_i L[r][i] Z(omega_k, tau_i).
summary = json.loads((workdir / "demo_results" / "summary.json").read_text())
with open(workdir / "demo_results" / "frequency_response.csv", newline="") as fh:
    rows = list(csv.reader(fh))[1:]
field = result.frequency_response.values
operator = np.array(summary["smoothing_operator"]["weights"])
knots = np.array([complex(float(re), float(im)) for *_, re, im in rows]).reshape(
    -1, operator.shape[1], field.shape[2])
rebuilt = type(result.frequency_response).from_knots(result.frequency_response.grid, knots, operator)
assert np.array_equal(rebuilt.values, field)
print(f"\nfrequency_response.csv: {knots.shape[0]} of {field.shape[0]} nodes at "
      f"{knots.shape[1]} maturities, rebuilt to the full {rebuilt.values.shape} field")

print(f"\nR^2 = {summary['r_squared']:.4f}")
print(f"diagnostics: {summary['diagnostics']}")
print(f"\neverything under {workdir} (safe to delete)")
