"""The mutant catalogue (``tests/mutants.py``) stays live: every entry still applies to the source."""

from pathlib import Path

import pytest

from mutants import MUTANTS, ROOT


def test_names_are_unique():
    assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_mutant_applies_once_to_its_file(mutant):
    text = (ROOT / "src" / "sparselag" / mutant.file).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert all((ROOT / "tests" / name).is_file() for name in mutant.tests)
    assert mutant.source in Path(ROOT / "CHANGES.md").read_text(encoding="utf-8")


def test_every_module_has_a_mutant():
    modules = {path.name for path in (ROOT / "src" / "sparselag").glob("*.py")} - {"__init__.py", "__main__.py"}
    assert modules - {mutant.file for mutant in MUTANTS} == set()
