"""Diagrams of nodes in the plane, their fillings, and their permutations.

A diagram is a non-empty finite set of nodes ``(row, column)``, 1-based,
rows numbered top to bottom and columns left to right.  Diagrams here are
principal: constructors re-index rows and columns so that the used indices
are exactly ``1..max`` with no gaps, and equality is node-set equality after
that normalization.

The row filling ``t^D`` numbers the nodes row by row, the column filling
``t_D`` column by column; the diagram permutation ``w_D`` carries the row
filling to the column filling.  Prefixes of ``w_D`` correspond to standard
fillings of ``D``, which drives everything else in the package.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from itertools import accumulate
from typing import Iterable

from .permutations import Permutation, _sorting_runs

Node = tuple[int, int]


def _normal_rows(rows: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    """The normal form of rows given from outside: each row coerced to
    ``int``, sorted and deduplicated, empty rows dropped, and the columns
    re-ranked only when the used ones are not ``1..c``."""
    normal = [tuple(sorted(set(map(int, row)))) for row in rows]
    normal = [row for row in normal if row]
    if not normal:
        raise ValueError("a diagram needs at least one node")
    used = set().union(*normal)
    if min(used) != 1 or max(used) != len(used):
        rank = {b: k for k, b in enumerate(sorted(used), 1)}
        normal = [tuple([rank[b] for b in row]) for row in normal]
    return tuple(normal)


class Diagram:
    """A principal diagram: a normalized, non-empty set of (row, col) nodes.

    It is stored once, as its normal rows: ``rows()[a - 1]`` holds the
    increasing columns of row ``a``, and the columns used are exactly
    ``1..c``.  Rows are normalized only where outside input enters:
    ``Diagram(nodes)``, which first buckets its nodes by row, and
    ``from_rows`` pass them through ``_normal_rows``.  ``Diagram(rows=...)``
    stores its rows unchanged, for the builders that make normal rows by
    construction: it takes a tuple of non-empty tuples of strictly
    increasing ``int`` columns whose union is exactly ``1..c``, and checks
    nothing.  Every other view is read off the rows.

    >>> Diagram({(2, 5), (2, 7), (4, 5)}).sorted_nodes
    ((1, 1), (1, 2), (2, 1))
    """

    __slots__ = ("_rows",)

    def __init__(
        self,
        nodes: Iterable[Iterable[int]] = (),
        *,
        rows: tuple[tuple[int, ...], ...] | None = None,
    ) -> None:
        if rows is None:
            by_row: dict[int, list[int]] = defaultdict(list)
            for a, b in nodes:
                by_row[int(a)].append(b)
            rows = _normal_rows(by_row[a] for a in sorted(by_row))
        object.__setattr__(self, "_rows", rows)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> Diagram:
        """Build from per-row column index sets, top row first.

        The rows are normalized: any iterables of integers will do, in
        any order and with repeats, and empty rows and unused columns are
        dropped.

        >>> Diagram.from_rows([(1, 2), (2,)]).sorted_nodes
        ((1, 1), (1, 2), (2, 2))
        >>> Diagram.from_rows([[7, 3, 7], [], [5]]).rows()
        ((1, 3), (2,))
        """
        return cls(rows=_normal_rows(rows))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("a Diagram is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("a Diagram is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through from_rows, as __setattr__ refuses
        return Diagram.from_rows, (self._rows,)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Diagram):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        return f"Diagram.from_rows({list(self._rows)!r})"

    @property
    def nodes(self) -> frozenset[Node]:
        """The normalized node set."""
        return frozenset(self.sorted_nodes)

    @property
    def size(self) -> int:
        return sum(map(len, self._rows))

    @property
    def sorted_nodes(self) -> tuple[Node, ...]:
        """Nodes in row-major order (the order of the row filling)."""
        return tuple((a, b) for a, row in enumerate(self._rows, 1) for b in row)

    @property
    def row_count(self) -> int:
        return len(self._rows)

    @property
    def column_count(self) -> int:
        return max(row[-1] for row in self._rows)

    def rows(self) -> tuple[tuple[int, ...], ...]:
        """Column indices on each row, top to bottom.

        >>> Diagram({(1, 1), (1, 2), (2, 1)}).rows()
        ((1, 2), (1,))
        """
        return self._rows

    def columns(self) -> tuple[tuple[int, ...], ...]:
        """Row indices on each column, left to right."""
        out: list[list[int]] = [[] for _ in range(self.column_count)]
        for a, row in enumerate(self._rows, 1):
            for b in row:
                out[b - 1].append(a)
        return tuple(map(tuple, out))

    def row_composition(self) -> tuple[int, ...]:
        """Number of nodes on each row."""
        return tuple(map(len, self._rows))

    def column_composition(self) -> tuple[int, ...]:
        """Number of nodes on each column."""
        return tuple(len(col) for col in self.columns())

    def render(self, node_char: str = "×", empty_char: str = "·") -> str:
        """ASCII-art rows, one diagram row per line.

        >>> print(Diagram({(1, 2), (2, 1)}).render(node_char="x", empty_char="."))
        . x
        x .
        """
        width = self.column_count
        lines = []
        for row in self._rows:
            cells = [node_char if b in row else empty_char for b in range(1, width + 1)]
            lines.append(" ".join(cells))
        return "\n".join(lines)


def young_diagram(parts: tuple[int, ...]) -> Diagram:
    """The diagram with parts[k] left-packed nodes on row k+1; parts that
    are not a composition raise ValueError.

    >>> young_diagram((2, 2)).sorted_nodes
    ((1, 1), (1, 2), (2, 1), (2, 2))
    """
    if not parts or min(parts) < 1:
        raise ValueError(f"composition parts must be positive, got {parts}")
    return Diagram(rows=tuple(tuple(range(1, p + 1)) for p in parts))


def _column_filling(D: Diagram) -> list[int]:
    """The entries of the column filling in row-major order, which are the
    images of ``w_D``: a node's entry counts the nodes of the columns to
    its left and those above it in its own column."""
    rows = D.rows()
    sizes = [0] * (D.column_count + 1)
    for row in rows:
        for b in row:
            sizes[b] += 1
    # next_entry[b] is the entry of the next node down column b
    next_entry = list(accumulate(sizes, initial=1))
    entries = []
    for row in rows:
        for b in row:
            entries.append(next_entry[b])
            next_entry[b] += 1
    return entries


def w_of_diagram(D: Diagram) -> Permutation:
    """The permutation carrying the row filling to the column filling.

    >>> w_of_diagram(young_diagram((2, 2))).images
    (1, 3, 2, 4)
    """
    return Permutation(tuple(_column_filling(D)))


def reduced_word_runs(D: Diagram) -> list[tuple[int, int]]:
    """``reduced_word(w_of_diagram(D))`` read off the column filling,
    without building the ``Permutation``, as runs: (j, k) stands for the
    letters j, j - 1, ..., k + 1, and the word is its runs in order.

    >>> reduced_word_runs(Diagram({(1, 3), (2, 2), (3, 1)}))
    [(1, 0), (2, 0)]
    """
    return _sorting_runs(_column_filling(D))


def is_special(D: Diagram) -> bool:
    """Whether D is a Young diagram with rows and columns shuffled.

    That holds exactly when the row sets of its columns are nested: the
    columns of a Young diagram are the nested row ranges ``1..c``, and nested
    columns sorted by size, with rows sorted by length, form a Young diagram.
    Read as a 0/1 matrix, D has nested columns exactly when it has nested
    rows: both say that no two rows and two columns meet in the pattern
    ``[[1, 0], [0, 1]]``.  So the test runs on the column sets of the rows,
    which are fewer than the columns on the closed families (four rows
    against up to dozens of columns).

    ``families.rim_diagrams`` reads the special subset of a four-row
    family rim off the family parameters, carries it through the half
    turn of a reversed composition, and decides every other diagram
    here; the tests check that rule against this one.

    >>> is_special(Diagram({(1, 1), (2, 1), (2, 2)}))
    True
    >>> is_special(Diagram({(1, 2), (2, 1)}))
    False
    """
    rows = sorted(map(frozenset, D.rows()), key=len, reverse=True)
    return all(wider >= narrower for wider, narrower in zip(rows, rows[1:]))


def min_column_diagram(d: Permutation, parts: tuple[int, ...]) -> Diagram:
    """The unique diagram with row sizes ``parts`` and diagram permutation
    ``d`` that has the fewest columns.

    Walk the nodes in column-filling order (the k-th node visited is the one
    holding k in the column filling, which sits on the row holding the
    preimage of k under d in the row filling).  A column must carry strictly
    increasing rows, so a new column starts exactly when the row sequence
    fails to climb; starting one any later is impossible and any earlier is
    wasteful, which forces both minimality and uniqueness.

    >>> from .permutations import identity
    >>> min_column_diagram(identity(4), (2, 2)).sorted_nodes
    ((1, 1), (1, 2), (2, 2), (2, 3))
    """
    if not parts or min(parts) < 1:
        raise ValueError(f"composition parts must be positive, got {parts}")
    n = sum(parts)
    if d.degree != n:
        raise ValueError(f"degree {d.degree} does not match composition total {n}")
    row_of = [a for a, p in enumerate(parts, 1) for _ in range(p)]
    images = d.images
    # a coset rep increases inside each block, on neighbouring points
    if any(images[k] > images[k + 1] for k in range(n - 1) if row_of[k] == row_of[k + 1]):
        raise ValueError(
            f"{d!r} is not a distinguished coset representative for {parts!r}"
        )
    # row_at[k - 1] is the row holding the preimage of k under d
    row_at = [0] * n
    for point, value in enumerate(images):
        row_at[value - 1] = row_of[point]
    rows: list[list[int]] = [[] for _ in parts]
    column = 1
    previous_row = 0
    for row in row_at:
        if row <= previous_row:
            column += 1
        rows[row - 1].append(column)
        previous_row = row
    return Diagram(rows=tuple(map(tuple, rows)))


def rotate_180(D: Diagram) -> Diagram:
    """The diagram rotated through a half turn.

    >>> rotate_180(Diagram({(1, 1), (1, 2), (2, 1)})).sorted_nodes
    ((1, 2), (2, 1), (2, 2))
    """
    c = D.column_count
    return Diagram(
        rows=tuple(
            tuple([c + 1 - b for b in reversed(row)]) for row in reversed(D.rows())
        )
    )


def psi_append(D: Diagram, k: int = 1) -> Diagram:
    """Append k single-node rows below D, each at the least column keeping
    the diagram admissible.

    The new node (r + 1, c), for D with r rows, either joins column c or
    sits in a fresh column inserted at c, and joining wins a tie.  The
    placement is built, not searched.  In the column reading word whose
    insertion shape is the subsequence type (Greene's theorem; see
    ``paths.subsequence_type``) the new node is the largest letter r + 1.
    Row insertion restricted to the smaller letters is unchanged by it, so
    it adds one box to D's type, and the extension is admissible exactly
    when D is and that box is in the first row.  By Schensted's theorem
    the box is there when the letters read before r + 1 hold 1, 2, ..., r
    as a subsequence: for joining column c, when columns 1..c do; for a
    fresh column at c, when columns 1..c - 1 do.  So the answer joins the
    first column p at which a greedy match of 1..r completes.

    The match is read off the rows.  Within a column the rows increase, so
    the letter a is matched at p_a, the least column of row a that is at
    least p_(a-1) (with p_0 = 1): one bisection per row.  The new node
    (r + 1, p_r) is read right after r in column p_r, so the match of
    1..r + 1 in the extension completes at p_r too, and every one of the
    k nodes stacks in that column.  Each append keeps admissibility both
    ways, so the final diagram is admissible exactly when D is, and one
    test of it checks D and every intermediate extension; an input that
    is not admissible raises even when the match completes.

    >>> psi_append(young_diagram((2, 1))).sorted_nodes
    ((1, 1), (1, 2), (2, 1), (3, 1))
    >>> psi_append(young_diagram((2, 1)), 2).rows()
    ((1, 2), (1,), (1,), (1,))
    """
    from .paths import is_admissible  # deferred: paths builds on this module

    if k < 1:
        raise ValueError(f"psi_append needs k >= 1 rows, got {k}")
    p = 1
    for row in D.rows():
        i = bisect_left(row, p)
        if i == len(row):  # the match of 1..r never completes
            break
        p = row[i]
    else:
        candidate = Diagram(rows=D.rows() + ((p,),) * k)
        if is_admissible(candidate):
            return candidate
    raise ValueError(f"no admissible single-node row extension of {D!r}")
