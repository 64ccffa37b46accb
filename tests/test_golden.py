"""Golden result files: the SHA-256 of every file ``sparselag analyze`` writes.

Two fixed simulated panel pairs (d = 1 and d = 3, 10% missing quotes,
``n_omega = 64``) go through the CLI, and each of the seven result files must
match its pinned digest byte for byte; the d = 3 files must match with one
BLAS thread and with two, and so must those of a T = 12,000 panel at the
default settings.  The three files of ``sparselag simulate`` with
``preset = recovery``, seed 0, are pinned the same way.  A refactor that
promises identical outputs is checked here; a change that alters outputs on
purpose re-records the digests and says so in CHANGES.md.

``PYTHONPATH=src python tests/test_golden.py`` prints the current checkout's
digests in the layout of ``GOLDEN`` and ``SIMULATE_GOLDEN`` below.
"""

import contextlib
import os
import subprocess
import sys
import tempfile
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
        "filter_coefficients.csv": "ab933425defcbdee87ec083b1b5415b17edd0440c7ea6437be8ee1b22049c12a",
        "spectral_density.csv": "c96df14e3b66bfdabe25c4d0c29b5c53f5a6a666c8134b976a357a2c05a63e54",
        "cross_spectral.csv": "9b5a69a66732e1f6fe316d18813fd41609da6d703b59bf28675fd9c521807c1a",
        "frequency_response.csv": "047b247cad67f8124cddc94e5f0387ad96436b23f4a4c5f8c3f6b24057cf3266",
        "fitted.csv": "ce13f8be66e8889ca1201aa1b2619fc08c145e38944ec65a82456a228a67116d",
        "summary.json": "9daba9950f40b50d1316ff8a21837600bda087bb662e029099958da988cdb2ac",
    },
    3: {
        "mean_curve.csv": "411746a8ea0707ba690678fbd1255af79324ebf7aceb1c941f45c57891699d5b",
        "filter_coefficients.csv": "6e97aba51b02d9883c83d72ab6559b74d382b555f6bcac3bf9576f5d837810bb",
        "spectral_density.csv": "5317ad16481473d1cd9092e646a07b5c32a10802cfc0919f3817a46999aed602",
        "cross_spectral.csv": "f1229490d36c4c9020b324f1b5ba2ff8fdc3662a5db571f612419dc16b40073d",
        "frequency_response.csv": "4702513c0f1acda3ccd4086a2bd00946da3997a644361f27da20919e1b4ea030",
        "fitted.csv": "d77758f144e2f5da55511dd0da91eb11d309820ce5de5b5b7f7cd087824bb786",
        "summary.json": "b6ed7669c36c23f50ad918fe187a2c3b7deb6b9caf8d5d711ce3f8e9ec5e73b7",
    },
}

SIMULATE_GOLDEN = {
    "yields.csv": "808485b61648da851b71921c2344f011c09fb6eb76ecbb43d86219b049f2b2cf",
    "macro.csv": "b293b2dc81eb00942f6f74bde38107a01dc11996bfd791c768ab0d2836ad8332",
    "truth.json": "796ba7dca36ecc60531d4ee050463d7d030446d59e0c5197f2f565751c585892",
}


def _write_panels(n_series, out_dir, n_times=150, config="n_omega = 64\n"):
    """A T = n_times panel pair with series 1 driving the curves at lag 0; seed 11 + d."""
    spec = SyntheticSpec(
        maturity_grid=MaturityGrid(np.array(US_MATURITIES)), n_times=n_times,
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
    (out_dir / "analyze.cfg").write_text(config, encoding="utf-8")


def _analyze_digests(n_series, work_dir):
    """The digest of every file ``sparselag analyze`` writes for the d = n_series panel pair, by name."""
    _write_panels(n_series, work_dir)
    out = work_dir / "results"
    assert main(["analyze", "--yields", str(work_dir / "yields.csv"),
                 "--macro", str(work_dir / "macro.csv"),
                 "--config", str(work_dir / "analyze.cfg"), "--out", str(out)]) == 0
    return {p.name: sha256_digest(p) for p in out.iterdir()}


def _simulate_digests(work_dir):
    """The digest of every file ``sparselag simulate`` writes for the recovery preset at seed 0, by name."""
    (work_dir / "sim.cfg").write_text("preset = recovery\nseed = 0\n", encoding="utf-8")
    out = work_dir / "sim"
    assert main(["simulate", "--config", str(work_dir / "sim.cfg"), "--out", str(out)]) == 0
    return {p.name: sha256_digest(p) for p in out.iterdir()}


@pytest.mark.parametrize("n_series", sorted(GOLDEN))
def test_result_files_match_pinned_digests(n_series, tmp_path):
    digests = _analyze_digests(n_series, tmp_path)
    assert sorted(digests) == sorted(GOLDEN[n_series])
    for name, digest in GOLDEN[n_series].items():
        assert digests[name] == digest, name


def test_result_files_do_not_depend_on_the_blas_thread_count(tmp_path):
    """``python -m sparselag analyze`` under 1 and 2 OpenBLAS/OpenMP threads, on the d = 3 panel and on a
    T = 12,000 one whose lag sums, lag-window transform and filter quadrature each take more than one part
    (``mv_spectral.CHUNK`` and ``TERMS``)."""
    src = str(Path(sparselag.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for n_times, config, pinned in ((150, "n_omega = 64\n", GOLDEN[3]), (12000, "", None)):
        work = tmp_path / f"T{n_times}"
        work.mkdir()
        _write_panels(3, work, n_times, config)
        digests = []
        for threads in ("1", "2"):
            out = work / f"threads{threads}"
            env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
            proc = subprocess.run([sys.executable, "-m", "sparselag", "analyze",
                                   "--yields", str(work / "yields.csv"), "--macro", str(work / "macro.csv"),
                                   "--config", str(work / "analyze.cfg"), "--out", str(out)],
                                  capture_output=True, text=True, timeout=120, env=env)
            assert proc.returncode == 0, proc.stderr
            digests.append({p.name: sha256_digest(p) for p in out.iterdir()})
        assert digests[0] == digests[1], n_times
        assert pinned is None or digests[0] == pinned


def test_simulate_files_match_pinned_digests(tmp_path):
    assert _simulate_digests(tmp_path) == SIMULATE_GOLDEN


def _print_digests(pinned, digests, indent):
    """One line per file, in the pinned order, then any file not pinned yet."""
    for name in [*(n for n in pinned if n in digests), *sorted(set(digests) - set(pinned))]:
        print(f'{indent}"{name}": "{digests[name]}",')


if __name__ == "__main__":
    # print this checkout's digests in the layout of GOLDEN and SIMULATE_GOLDEN, to paste above
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        analyzed = {}
        for n_series in sorted(GOLDEN):
            work_dir = Path(tmp) / f"d{n_series}"
            work_dir.mkdir()
            analyzed[n_series] = _analyze_digests(n_series, work_dir)
        simulated = _simulate_digests(Path(tmp))
    print("GOLDEN = {")
    for n_series, digests in analyzed.items():
        print(f"    {n_series}: {{")
        _print_digests(GOLDEN[n_series], digests, " " * 8)
        print("    },")
    print("}\n\nSIMULATE_GOLDEN = {")
    _print_digests(SIMULATE_GOLDEN, simulated, " " * 4)
    print("}")
