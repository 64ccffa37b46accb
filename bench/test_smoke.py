"""Smoke test of the benchmark itself: every workload, both modes, tiny grids.

Asserts that each run passes its own verification and reports every metric
declared in BENCHMARK.json with its unit, and that the benchmark refuses to
run without the program's sources.  Run from the repository root:

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(ROOT / "bench"))
from run import WORKLOADS  # noqa: E402  (cli_wide runs by name but is not in BENCHMARK.json)


def run(cwd, *args):
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_reports_every_metric(workload, trace):
    proc = run(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
               "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    printed = "\n".join(lines[:-1])
    for name in ("env ", "sizes "):
        assert name in printed
    if trace:
        assert "span check: ok" in printed
    else:
        for name in ("wall_s", "analyze_s", "reference_s", "output_mb", "failed_frac"):
            assert name in printed


def test_refuses_to_run_without_sources():
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".bench_out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "--workload", SPEC["workloads"][0]["name"], "--seed", "0",
                   "--seconds", "1", "--trace", "0", "--tiny")
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare)
