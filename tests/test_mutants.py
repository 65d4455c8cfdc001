"""The mutant table stays applicable: `python tests/mutants.py` runs it."""

import re

import pytest

from mutants import MUTANTS, ROOT


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
