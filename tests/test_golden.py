"""Golden result files: the SHA-256 of every file ``sparselag analyze`` writes.

Two fixed simulated panel pairs (d = 1 and d = 3, 10% missing quotes,
``n_omega = 64``) go through the CLI, and each of the seven result files must
match its pinned digest byte for byte; the d = 3 files must match with one
BLAS thread and with two.  The three files of ``sparselag simulate`` with
``preset = recovery``, seed 0, are pinned the same way.  A refactor that
promises identical outputs is checked here; a change that alters outputs on
purpose re-records the digests and says so in CHANGES.md.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sparselag
from sparselag import (MaturityGrid, SparseYieldPanel, SyntheticSpec, US_MATURITIES,
                       simulate_lagged_regression, write_macro_csv, write_yields_csv)
from sparselag.cli import main
from sparselag.io import sha256_digest

GOLDEN = {
    1: {
        "mean_curve.csv": "4fe450214b5aabccc8603a9c72667e7184fb0fef2be18fea816493c598b6cd59",
        "filter_coefficients.csv": "e1663eb9467a992b99b697335a28de096fd5b5e79704069d8928dc779d0efeb9",
        "spectral_density.csv": "3310a22f82d43e236a68560dd058988cd6c8fedce184d13acdcb0f453ef57442",
        "cross_spectral.csv": "9b5a69a66732e1f6fe316d18813fd41609da6d703b59bf28675fd9c521807c1a",
        "frequency_response.csv": "61c71141bde032896c3fbe0c3b97b7a6b5c5d09eeadaa01c6761bb22a740e92a",
        "fitted.csv": "306579391cbb83b071235430c85b8ecd53693c4b4c8bc953095b4c5cc8688510",
        "summary.json": "3055a406e34741bb6172fa3d78491bf572403889854189e7cf946b5e1e26da86",
    },
    3: {
        "mean_curve.csv": "411746a8ea0707ba690678fbd1255af79324ebf7aceb1c941f45c57891699d5b",
        "filter_coefficients.csv": "5001c3255dc67d3a6abcd028759280a306e57a7466e0e1c5076b02eb8aafca1a",
        "spectral_density.csv": "be457c60a839f23cd6805159be3e00342f0a195e1e7ba015f572e2f773059f9f",
        "cross_spectral.csv": "f1229490d36c4c9020b324f1b5ba2ff8fdc3662a5db571f612419dc16b40073d",
        "frequency_response.csv": "e080ea08b9a326e7dfb741bd2dbf6d38e047e9d821ab391ae30df1377579dd02",
        "fitted.csv": "8dc829e82331f119abf285166b0e036784017c9045c9743503e98800a401d301",
        "summary.json": "434ad91801950d52c8d447143de693a23cbef07c070c6c8010f5981e63a778d8",
    },
}

SIMULATE_GOLDEN = {
    "yields.csv": "808485b61648da851b71921c2344f011c09fb6eb76ecbb43d86219b049f2b2cf",
    "macro.csv": "b293b2dc81eb00942f6f74bde38107a01dc11996bfd791c768ab0d2836ad8332",
    "truth.json": "796ba7dca36ecc60531d4ee050463d7d030446d59e0c5197f2f565751c585892",
}


def _write_panels(n_series, out_dir):
    """A T = 150 panel pair with series 1 driving the curves at lag 0; seed 11 + d."""
    spec = SyntheticSpec(
        maturity_grid=MaturityGrid(np.array(US_MATURITIES)), n_times=150,
        ar_coef=np.diag([0.8, 0.6, 0.9][:n_series]), innovation_cov=np.eye(n_series),
        macro_mean=np.full(n_series, 2.0), filter_fns={(0, 0): lambda t: 1.0 - t},
        curve_error_scale=0.3, noise_sd=0.1, seed=11 + n_series)
    panel, macro, _ = simulate_lagged_regression(spec)
    missing = np.random.default_rng(n_series).random(panel.values.shape) < 0.1
    missing[:, 0] = False                      # every date keeps an observed cell
    panel = SparseYieldPanel.from_values(np.where(missing, np.nan, panel.values),
                                         panel.maturity_grid)
    write_yields_csv(panel, out_dir / "yields.csv")
    write_macro_csv(macro, out_dir / "macro.csv")
    (out_dir / "analyze.cfg").write_text("n_omega = 64\n", encoding="utf-8")


@pytest.mark.parametrize("n_series", sorted(GOLDEN))
def test_result_files_match_pinned_digests(n_series, tmp_path):
    _write_panels(n_series, tmp_path)
    out = tmp_path / "results"
    assert main(["analyze", "--yields", str(tmp_path / "yields.csv"),
                 "--macro", str(tmp_path / "macro.csv"),
                 "--config", str(tmp_path / "analyze.cfg"), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(GOLDEN[n_series])
    for name, digest in GOLDEN[n_series].items():
        assert sha256_digest(out / name) == digest, name


def test_result_files_do_not_depend_on_the_blas_thread_count(tmp_path):
    """``python -m sparselag analyze`` on the d = 3 panel under 1 and 2 OpenBLAS/OpenMP threads."""
    _write_panels(3, tmp_path)
    src = str(Path(sparselag.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-m", "sparselag", "analyze",
                               "--yields", str(tmp_path / "yields.csv"), "--macro", str(tmp_path / "macro.csv"),
                               "--config", str(tmp_path / "analyze.cfg"), "--out", str(out)],
                              capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        digests.append({p.name: sha256_digest(p) for p in out.iterdir()})
    assert digests[0] == digests[1] == GOLDEN[3]


def test_simulate_files_match_pinned_digests(tmp_path):
    (tmp_path / "sim.cfg").write_text("preset = recovery\nseed = 0\n", encoding="utf-8")
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(tmp_path / "sim.cfg"), "--out", str(out)]) == 0
    assert {p.name: sha256_digest(p) for p in out.iterdir()} == SIMULATE_GOLDEN
