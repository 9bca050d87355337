"""The mutation gate's snippets stay live: each plants its defect exactly once.

tests/mutants.py runs outside tier-1 (~110 s); this reads its list only, so a
change that moves a snippet is caught here at once.
"""

from pathlib import Path

import pytest

import mutants

SRC = Path(__file__).resolve().parents[1] / "src" / "hodge_asym"


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_snippet_occurs_exactly_once_in_its_file(mutant):
    assert (SRC / mutant.file).read_text().count(mutant.old) == 1
