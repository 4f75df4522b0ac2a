"""Exact combinatorics of right cells in symmetric groups.

The package computes minimal determining sets ("rims") of the prefix-closed
sets attached to Kazhdan-Lusztig right cells of S_n, both from the ideal,
built one member per standard tableau by inverse Robinson-Schensted
insertion, and by closed-form diagram families, together with the
supporting permutation, tableau, diagram and path machinery.
"""

from __future__ import annotations

from .diagrams import (
    Diagram,
    is_special,
    min_column_diagram,
    psi_append,
    rotate_180,
    w_of_diagram,
    young_diagram,
)
from .families import (
    FamilyParams,
    StuShape,
    determining_tuple,
    family_diagram,
    family_parameter_sets,
    rim,
    rim_diagrams,
    table_counts,
    z_ideal,
)
from .paths import (
    FormClass,
    KPath,
    classify_form,
    family_with_lengths,
    find_form_path,
    is_admissible,
    is_ordered,
    subsequence_type,
)
from .permutations import (
    GuardExceeded,
    Permutation,
    VerificationError,
    composition_generators,
    is_prefix,
    parabolic,
    prefix_maximal,
    reduced_word,
)
from .tableaux import (
    compositions_of,
    conjugate,
    recording_tableau,
    right_cell_of,
    rs_pair,
)

__version__ = "0.1.0"

__all__ = [
    "Diagram",
    "FamilyParams",
    "FormClass",
    "GuardExceeded",
    "KPath",
    "Permutation",
    "StuShape",
    "VerificationError",
    "classify_form",
    "composition_generators",
    "compositions_of",
    "conjugate",
    "determining_tuple",
    "family_diagram",
    "family_parameter_sets",
    "family_with_lengths",
    "find_form_path",
    "is_admissible",
    "is_ordered",
    "is_prefix",
    "is_special",
    "min_column_diagram",
    "parabolic",
    "prefix_maximal",
    "psi_append",
    "recording_tableau",
    "reduced_word",
    "right_cell_of",
    "rim",
    "rim_diagrams",
    "rotate_180",
    "rs_pair",
    "subsequence_type",
    "table_counts",
    "w_of_diagram",
    "young_diagram",
    "z_ideal",
]
