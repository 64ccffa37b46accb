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
# is the complex conjugate of node k, so the written half rebuilds all N nodes.
with open(workdir / "demo_results" / "frequency_response.csv", newline="") as fh:
    rows = list(csv.reader(fh))[1:]
field = result.frequency_response.values
n_nodes = field.shape[0]
half = np.array([complex(float(re), float(im)) for *_, re, im in rows]).reshape(-1, *field.shape[1:])
full = result.frequency_response.grid.mirror(half)
assert np.array_equal(full, field)
print(f"\nfrequency_response.csv: {half.shape[0]} of {n_nodes} nodes written, "
      f"mirrored back to the full {full.shape} field")

summary = json.loads((workdir / "demo_results" / "summary.json").read_text())
print(f"\nR^2 = {summary['r_squared']:.4f}")
print(f"diagnostics: {summary['diagnostics']}")
print(f"\neverything under {workdir} (safe to delete)")
