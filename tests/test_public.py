"""The names ``cellrim`` exports, pinned, the standard library as the
runtime's only dependency, and the one direction its modules import in."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cellrim
import cellrim.diagrams
import cellrim.paths

EXPORTED = [
    "Diagram", "FamilyParams", "FormClass", "GuardExceeded",
    "KPath", "Permutation", "StuShape",
    "VerificationError", "classify_form", "composition_generators",
    "compositions_of", "conjugate", "determining_tuple", "family_diagram",
    "family_parameter_sets", "family_with_lengths", "find_form_path",
    "is_admissible", "is_ordered", "is_prefix", "is_special",
    "min_column_diagram", "parabolic", "prefix_maximal", "psi_append",
    "recording_tableau", "reduced_word", "right_cell_of", "rim", "rim_diagrams",
    "rotate_180", "rs_pair", "subsequence_type",
    "table_counts", "w_of_diagram", "young_diagram",
    "z_ideal",
]

# Names that feed no output: lemma checkers live in tests/claims.py, the
# whole-group enumeration and the standardness check of tableau rows live
# in tests/oracles.py, the closed-rim check runs only behind
# ``cellrim verify``, and ``determining_tuple`` returns a plain tuple.
MOVED = [
    "ColumnOp", "InversionSet", "apply_column_op", "coset_decompose",
    "diagram_from_tuple", "from_word", "hat_diagram", "induced_rim",
    "StandardYoungTableau", "insertion_tableau", "partitions_of",
    "prefix_closure", "straighten", "symmetric_group",
    "RimReport", "verify_rim_family", "DeterminingTuple",
]


def test_exported_names_are_pinned_and_resolve():
    assert sorted(cellrim.__all__) == EXPORTED
    for name in EXPORTED:
        assert getattr(cellrim, name) is not None


def test_moved_names_are_not_importable():
    for name in MOVED:
        assert not hasattr(cellrim, name)
        with pytest.raises(ImportError):
            exec(f"from cellrim import {name}", {})


def test_runtime_imports_only_the_standard_library():
    # a fresh interpreter, so that no test dependency is loaded already
    probe = (
        "import sys; before = set(sys.modules); import cellrim, cellrim.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    src = str(Path(cellrim.__file__).resolve().parents[1])
    added = subprocess.run(
        [sys.executable, "-c", probe], check=True, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout.split()
    tops = {name.partition(".")[0] for name in added}
    assert "cellrim" in tops
    assert tops - {"cellrim"} <= set(sys.stdlib_module_names)


# Each module imports only from those before it; __init__ may read any.
IMPORT_ORDER = ["permutations", "tableaux", "diagrams", "paths", "families", "cli"]


def test_modules_import_in_one_direction():
    package = Path(cellrim.__file__).parent
    assert sorted(p.stem for p in package.glob("*.py")) == sorted(
        IMPORT_ORDER + ["__init__"])
    for k, name in enumerate(IMPORT_ORDER):
        tree = ast.parse((package / f"{name}.py").read_text())
        # ast.walk reaches imports inside functions too
        imported = {node.module for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level == 1}
        assert imported <= set(IMPORT_ORDER[:k]), name


def test_paths_reads_admissibility_from_diagrams():
    for name in ("is_admissible", "subsequence_type"):
        assert getattr(cellrim.paths, name) is getattr(cellrim.diagrams, name)
