"""Golden result files: the SHA-256 of every file ``sparselag analyze`` writes.

Two fixed simulated panel pairs (d = 1 and d = 3, 10% missing quotes,
``n_omega = 64``) go through the CLI, and each of the seven result files must
match its pinned digest byte for byte, as must the six tables of a T = 192,
d = 3 panel on 512 nodes; the d = 3 files must match with one
BLAS thread and with two, and so must those of a T = 12,000 panel at the
default settings, under the kernel set OpenBLAS picks and under its Haswell
kernels.  The three files of ``sparselag simulate`` with
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
        "filter_coefficients.csv": "486da43d7f995bf47b43f431c348668f848655a1e7392383b2c775cf0ff209ef",
        "spectral_density.csv": "dd37c748c9c0939d0784f2fd30c27654fd6ca9d14400049ac9d31fc0fcc3aff5",
        "cross_spectral.csv": "decceb38baf63c51e3ec339b9f45ab888281feb52bd51f9595f2b359e8f75c38",
        "frequency_response.csv": "16cdaf9669be3dd7b8b4e5654166fb8eab1652023142e509fffe0240a6a1a963",
        "fitted.csv": "6f9cc4db279b09acba8c9fd5c15033f45aceb23ab86b1d25f75a7679f7c6ec14",
        "summary.json": "dec1f2e0fa516ccd88a14623cecf4002f4bdd4921ffac3c0d4d29bfd1d35ceee",
    },
    3: {
        "mean_curve.csv": "411746a8ea0707ba690678fbd1255af79324ebf7aceb1c941f45c57891699d5b",
        "filter_coefficients.csv": "104fc14cb14b92a7065c4909788bd0c9ee84a51a2f66e7638b3544e634d97dc5",
        "spectral_density.csv": "2501b33d3722736fde45642d212786acbfd1332d6f3b66f405ff114ae2c9337a",
        "cross_spectral.csv": "0ed62a7d7c948dc0e35241f8195d7f518a2df9c4a59289b468462eac0d1306f0",
        "frequency_response.csv": "bb8c69b74343699b38aea3c2adcde3068c89cf71497f275d39886cec10850095",
        "fitted.csv": "743c997e8b19f21a62e9d06e042c1250468b78664a70af8570355ab0b89dbd93",
        "summary.json": "f2b35ff1a39e6717192790b9f0eec9c7eccd77bab89bd86550ec712117625e09",
    },
}

# The six tables of a case-study-shape run (T = 192, d = 3) with n_omega = 512 in its config file, the grid every
# run used before analyze chose one per run.  They are the bytes that release wrote, so n_omega = 512 reproduces
# its tables; summary.json is not pinned here, as it gained diagnostics.aliasing_edge_ratio.
GOLDEN_512_NODES = {
    "mean_curve.csv": "ba044e5a6d7d99569858aea178172a6e29212cf3e2179da816488a6ac0003d42",
    "filter_coefficients.csv": "b9869f0d35a6caccef319e7be99c6b2ed96eadd2e9305768616bfd983b12c579",
    "spectral_density.csv": "1cc8ca237b752547f364a72bef60767dcc71900d1278970dcc47a61592269f3c",
    "cross_spectral.csv": "73a41e7c293b73abc38e4ba7bc940bfc6d63ad3b8759ccaefcf1ec617add4d29",
    "frequency_response.csv": "41844d1814f7a7c35da4e0080bec46f364c496bf147a4737ba1d5caabf70a59d",
    "fitted.csv": "a011bb6ab58ded059d2aa198c21fdc76a7e5433ec384896f5d42c30dc1e76c3e",
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


def _analyze_digests(n_series, work_dir, n_times=150, config="n_omega = 64\n"):
    """The digest of every file ``sparselag analyze`` writes for the d = n_series panel pair, by name."""
    _write_panels(n_series, work_dir, n_times, config)
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


def test_case_study_tables_on_512_nodes_match_pinned_digests(tmp_path):
    digests = _analyze_digests(3, tmp_path, 192, "n_omega = 512\n")
    assert {name: digests[name] for name in GOLDEN_512_NODES} == GOLDEN_512_NODES


def _thread_invariant_digests(work_root, n_times, config, coretype=None):
    """``python -m sparselag analyze`` on a d = 3 panel of n_times periods under 1 and 2 OpenBLAS/OpenMP threads,
    with the OpenBLAS kernel set ``coretype`` if given.  Asserts that both runs write the same files; returns
    their digests.  At T = 12,000 the lag sums take more than one part (``mv_spectral.CHUNK``)."""
    src = str(Path(sparselag.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    kernels = {} if coretype is None else {"OPENBLAS_CORETYPE": coretype}
    work = work_root / f"T{n_times}"
    work.mkdir()
    _write_panels(3, work, n_times, config)
    digests = []
    for threads in ("1", "2"):
        out = work / f"threads{threads}"
        env = {**os.environ, **kernels, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-m", "sparselag", "analyze",
                               "--yields", str(work / "yields.csv"), "--macro", str(work / "macro.csv"),
                               "--config", str(work / "analyze.cfg"), "--out", str(out)],
                              capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        digests.append({p.name: sha256_digest(p) for p in out.iterdir()})
    assert digests[0] == digests[1], n_times
    return digests[0]


def test_result_files_do_not_depend_on_the_blas_thread_count(tmp_path):
    assert _thread_invariant_digests(tmp_path, 150, "n_omega = 64\n") == GOLDEN[3]
    _thread_invariant_digests(tmp_path, 12000, "")


def _haswell_kernels_missing():
    """Why OPENBLAS_CORETYPE=Haswell cannot be tried here, or an empty string."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):       # a numpy before 1.26 has no config dictionary
        blas = None
    if blas != "scipy-openblas":
        return "numpy's BLAS is not scipy-openblas, whose DYNAMIC_ARCH build reads OPENBLAS_CORETYPE"
    try:
        flags = Path("/proc/cpuinfo").read_text(encoding="utf-8").split()
    except OSError:
        return "/proc/cpuinfo is not readable, so AVX2 support is unknown"
    return "" if "avx2" in flags else "the CPU lacks AVX2, which the Haswell kernels need"


_NO_HASWELL = _haswell_kernels_missing()


@pytest.mark.skipif(bool(_NO_HASWELL), reason=_NO_HASWELL)
def test_result_files_do_not_depend_on_the_blas_thread_count_on_haswell_kernels(tmp_path):
    """The thread counts agree on a second kernel set too, the one where split BLAS products once differed.
    Its files need not match the pinned digests, which belong to the kernel set OpenBLAS picks itself."""
    _thread_invariant_digests(tmp_path, 150, "n_omega = 64\n", "Haswell")
    _thread_invariant_digests(tmp_path, 12000, "", "Haswell")


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
