"""Shared fixtures: decoded example arrays and a small exhaustive corpus.

The diagrams and paths below are transcriptions of printed arrays, entered
node by node.  Tests compare library constructions against these frozen
values bit for bit.
"""

from __future__ import annotations

import functools
import itertools

from cellrim.diagrams import Diagram
from cellrim.families import StuShape, family_diagram, family_parameter_sets

# A 14-node diagram with row composition (4, 6, 3, 1) carrying one ordered
# 6-path of each form; the running example for path classification.
DIAGRAM_4631 = Diagram.from_rows(
    [
        (2, 3, 6, 7),
        (1, 3, 4, 6, 7, 8),
        (5, 6, 8),
        (6,),
    ]
)

# The two ordered 6-paths supported by DIAGRAM_4631: the first has the
# conjugate-partition type (form A), the second the alternative form B.
PATH_A_4631 = (
    ((2, 1),),
    ((1, 2), (2, 3), (3, 5), (4, 6)),
    ((1, 3), (2, 4), (3, 6)),
    ((2, 6),),
    ((1, 6), (2, 7), (3, 8)),
    ((1, 7), (2, 8)),
)
PATH_B_4631 = (
    ((2, 1),),
    ((1, 2), (2, 3), (4, 6)),
    ((1, 3), (2, 4), (3, 5)),
    ((1, 6), (2, 6), (3, 6)),
    ((1, 7), (2, 7), (3, 8)),
    ((2, 8),),
)

# Straightening PATH_A_4631 (constituent j becomes column j, each node keeps
# its row) gives this diagram.
STRAIGHTENED_A_4631 = Diagram(
    frozenset(
        {
            (2, 1),
            (1, 2), (2, 2), (3, 2), (4, 2),
            (1, 3), (2, 3), (3, 3),
            (2, 4),
            (1, 5), (2, 5), (3, 5),
            (1, 6), (2, 6),
        }
    )
)

# Family constructor outputs for (s, t, u) = (8, 5, 3), one per printed
# array: subscripts give the composition head, e.g. F for (s, u, t) =
# (8, 3, 5) with column set C = {2, 3, 4}.
FAMILY_F_853 = Diagram.from_rows(
    [range(1, 9), (2, 3, 4), range(1, 6), (2,)]
)
# G for (t, s, u) = (5, 8, 3) with C = {2, 4, 5}
FAMILY_G_583 = Diagram.from_rows(
    [(2, 4, 5, 7, 8), range(1, 9), (2, 4, 5), (2,)]
)
# H for (t, u, s) = (5, 3, 8) with v = 3 and trailing columns {6, 8}
FAMILY_H_538 = Diagram.from_rows(
    [(3, 5, 6, 7, 8), (3, 6, 8), range(1, 9), (3,)]
)
# M for (u, s, t) = (3, 8, 5) with parameters (1, 3, 1, 0, 3) and top
# columns {7, 8}
FAMILY_M_385 = Diagram.from_rows(
    [(5, 7, 8), (1, 2, 3, 4, 5, 7, 8, 9), (1, 5, 6, 7, 8), (5,)]
)
FAMILY_M_385_TUPLE = ("2", "1", "1", "1", "4", "1b", "3", "3", "1")
# N for (u, t, s) = (3, 5, 8) with parameters (3, 0, 1, 1, 1)
FAMILY_N_358 = Diagram.from_rows(
    [(5, 8, 9), (4, 5, 7, 8, 9), (1, 2, 3, 5, 6, 7, 8, 9), (5,)]
)
FAMILY_N_358_TUPLE = ("1b", "1b", "1b", "1", "4", "1b", "2", "3", "3")

# The printed ordered 8-paths supported by the M and N examples: one of the
# conjugate type per diagram and one of form B.
PATH_A_M_385 = (
    ((2, 1), (3, 1)),
    ((2, 2), (3, 6)),
    ((2, 3),),
    ((2, 4),),
    ((1, 5), (2, 5), (3, 5), (4, 5)),
    ((1, 7), (2, 7), (3, 7)),
    ((1, 8), (2, 8), (3, 8)),
    ((2, 9),),
)
PATH_B_M_385 = (
    ((2, 1), (3, 1)),
    ((2, 2), (3, 5), (4, 5)),
    ((2, 3),),
    ((2, 4),),
    ((1, 5), (2, 5), (3, 6)),
    ((1, 7), (2, 7), (3, 7)),
    ((1, 8), (2, 8), (3, 8)),
    ((2, 9),),
)
PATH_A_N_358 = (
    ((3, 1),),
    ((3, 2),),
    ((3, 3),),
    ((2, 4), (3, 6)),
    ((1, 5), (2, 5), (3, 5), (4, 5)),
    ((2, 7), (3, 7)),
    ((1, 8), (2, 8), (3, 8)),
    ((1, 9), (2, 9), (3, 9)),
)
PATH_B_N_358 = (
    ((3, 1),),
    ((3, 2),),
    ((3, 3),),
    ((2, 4), (3, 5), (4, 5)),
    ((1, 5), (2, 5), (3, 6)),
    ((2, 7), (3, 7)),
    ((1, 8), (2, 8), (3, 8)),
    ((1, 9), (2, 9), (3, 9)),
)

# An admissible diagram that supports no disjoint-chain family realizing the
# conjugate partition exactly: rows (2, 1, 1, 2), conjugate (4, 2).
ADMISSIBLE_NO_CONJUGATE_PATH = Diagram(
    frozenset({(1, 1), (1, 2), (2, 1), (3, 2), (4, 1), (4, 2)})
)


@functools.cache
def box_diagrams(max_rows: int, max_cols: int) -> list[Diagram]:
    """Every distinct normalized diagram held inside the given box.

    Cached: several tests walk the same box, and none changes the list.
    """
    cells = [
        (a, b)
        for a in range(1, max_rows + 1)
        for b in range(1, max_cols + 1)
    ]
    seen = set()
    out = []
    for k in range(1, len(cells) + 1):
        for subset in itertools.combinations(cells, k):
            diagram = Diagram(frozenset(subset))
            if diagram.nodes not in seen:
                seen.add(diagram.nodes)
                out.append(diagram)
    return out


def every_member(max_s: int):
    """(params, diagram) for each member of every closed family with
    s <= max_s, tied parts included."""
    for s, t, u in itertools.combinations_with_replacement(range(max_s, 0, -1), 3):
        for order in set(itertools.permutations((s, t, u))):
            shape = StuShape(s, t, u, order)
            for p in family_parameter_sets(shape):
                yield p, family_diagram(p, shape)
