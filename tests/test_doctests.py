"""Run the docstring examples across every package module, the lemma
checkers in ``tests/claims.py`` and the oracles in ``tests/oracles.py``,
and the library quick tour in the README."""

from __future__ import annotations

import doctest
from pathlib import Path

import pytest

import cellrim.cli
import cellrim.diagrams
import cellrim.families
import cellrim.paths
import cellrim.permutations
import cellrim.tableaux
import claims
import oracles

MODULES = [
    claims,
    oracles,
    cellrim.cli,
    cellrim.diagrams,
    cellrim.families,
    cellrim.paths,
    cellrim.permutations,
    cellrim.tableaux,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_docstring_examples(module):
    result = doctest.testmod(module)
    assert result.failed == 0


def test_readme_quick_tour():
    readme = Path(__file__).parent.parent / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.failed == 0
