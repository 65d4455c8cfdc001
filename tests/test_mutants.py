"""The mutant table stays applicable, and `python tests/mutants.py` kills every row."""

import re
import subprocess
import sys

import pytest

from mutants import MUTANTS, ROOT, TIMEOUT_S


def test_mutant_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_text_occurs_once_and_its_tests_exist(mutant):
    assert (ROOT / "src" / mutant.path).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.tests
    for test in mutant.tests:
        path, _, name = test.partition("::")
        function = name.split("[")[0]
        source = (ROOT / path).read_text()
        assert re.search(rf"^def {re.escape(function)}\(", source, re.M), test


@pytest.mark.slow
def test_every_mutant_is_killed():
    # one pytest run per row, each against its own mutated copy of src/
    result = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "mutants.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S * len(MUTANTS),
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.count("killed ") == len(MUTANTS)
