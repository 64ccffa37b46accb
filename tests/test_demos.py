"""Every script under demos/, and the README's library quickstart, runs to completion against the
current API.

Each demo runs in-process with its working directory and ``tempfile``'s
default directory pointed at the test's own temporary directory, so no demo
leaves files behind.
"""

import re
import runpy
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_quickstart_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    [block] = re.findall(r"^## Library quickstart\n\n```python\n(.*?)^```", readme, re.M | re.S)
    exec(compile(block, "README.md (Library quickstart)", "exec"), {})
