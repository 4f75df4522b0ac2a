"""Robinson-Schensted insertion, its inverse, and right cells.

``row_insert`` is the package's one row-insertion loop: it builds the
insertion rows of a word, and also gives subsequence types of diagrams
(Greene's theorem).  The recording tableau of a permutation x is the
insertion tableau of x^-1 (Schützenberger's symmetry), so no recording
rows are kept.  Under this package's right-action convention, two
permutations lie in the same right cell exactly when their *recording*
tableaux agree; the test suite checks both components against the
diagram-admissibility criterion over whole symmetric groups and finds
that exactly this one survives.

``rs_inverse`` undoes the insertion, so a right cell is built, not
searched, from the standard tableaux that ``standard_tableaux`` lists.

Shape utilities for compositions (conjugation and enumeration) also
live here.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator

from .permutations import Permutation, check_enumeration_guard

Rows = tuple[tuple[int, ...], ...]

@dataclass(frozen=True, slots=True)
class StandardYoungTableau:
    """Rows of a standard Young tableau: entries 1..n, rows and columns
    strictly increasing, row lengths weakly decreasing.

    >>> StandardYoungTableau(((1, 3), (2,))).shape
    (2, 1)
    """

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        entries = [v for row in rows for v in row]
        if sorted(entries) != list(range(1, len(entries) + 1)):
            raise ValueError(f"entries are not exactly 1..n: {rows!r}")
        lengths = [len(row) for row in rows]
        if any(b > a for a, b in zip(lengths, lengths[1:])) or 0 in lengths:
            raise ValueError(f"row lengths must be weakly decreasing: {rows!r}")
        for row in rows:
            if any(a >= b for a, b in zip(row, row[1:])):
                raise ValueError(f"rows must increase: {rows!r}")
        for upper, lower in zip(rows, rows[1:]):
            if any(upper[k] >= lower[k] for k in range(len(lower))):
                raise ValueError(f"columns must increase: {rows!r}")

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(row) for row in self.rows)

    @property
    def size(self) -> int:
        return sum(len(row) for row in self.rows)


def row_insert(word: Iterable[int]) -> list[list[int]]:
    """Rows of the insertion tableau of a word whose letters may repeat.

    Each letter enters the first row and bumps the leftmost entry >= it
    into the next row, so every row strictly increases.

    >>> row_insert((3, 1, 2))
    [[1, 2], [3]]
    >>> row_insert((2, 1, 2, 1))
    [[1, 2], [1], [2]]
    """
    rows: list[list[int]] = []
    for x in word:
        for row in rows:
            k = bisect_left(row, x)
            if k == len(row):
                row.append(x)
                break
            row[k], x = x, row[k]
        else:
            rows.append([x])
    return rows


def rs_pair(x: Permutation) -> tuple[StandardYoungTableau, StandardYoungTableau]:
    """Insertion and recording tableaux of the one-line word of x; the
    recording tableau is the insertion tableau of x^-1.

    >>> p, q = rs_pair(Permutation((3, 1, 2)))
    >>> p.rows, q.rows
    (((1, 2), (3,)), ((1, 3), (2,)))
    """
    p, q = (
        StandardYoungTableau(tuple(map(tuple, row_insert(y.images))))
        for y in (x, x.inverse())
    )
    return p, q


def recording_tableau(x: Permutation) -> StandardYoungTableau:
    return rs_pair(x)[1]


def rs_inverse(p_rows: Rows, q_rows: Rows) -> tuple[int, ...]:
    """The word with insertion rows p_rows and recording rows q_rows, by
    reverse bumping (Schensted 1961): the cell of the largest recording
    entry empties, and its entry bumps the largest smaller entry of each
    row above, until the first row gives up the last letter.

    >>> rs_inverse(((1, 2), (3,)), ((1, 3), (2,)))
    (3, 1, 2)
    """
    p = [list(row) for row in p_rows]
    row_of = {v: r for r, row in enumerate(q_rows) for v in row}
    word = [0] * len(row_of)
    for m in range(len(row_of), 0, -1):
        x = p[row_of[m]].pop()
        for row in reversed(p[: row_of[m]]):
            k = bisect_left(row, x) - 1
            row[k], x = x, row[k]
        word[m - 1] = x
    return tuple(word)


def standard_tableaux(shape: tuple[int, ...]) -> Iterator[Rows]:
    """The rows of every standard Young tableau of a partition shape:
    entries 1..n go in turn to the end of a row shorter than its part
    and than the row above.

    >>> list(standard_tableaux((2, 1)))
    [((1, 2), (3,)), ((1, 3), (2,))]
    """
    rows: list[list[int]] = [[] for _ in shape]
    n = sum(shape)

    def fill(k: int) -> Iterator[Rows]:
        if k > n:
            yield tuple(map(tuple, rows))
        for r, row in enumerate(rows):
            if len(row) < shape[r] and (r == 0 or len(row) < len(rows[r - 1])):
                row.append(k)
                yield from fill(k + 1)
                row.pop()

    return fill(1)


def right_cell_of(w: Permutation, limit: int | None = None) -> set[Permutation]:
    """All elements of S_n right-equivalent to w, built by inverse
    insertion.  Subject to the enumeration guard; pass an explicit limit
    to override.

    >>> sorted(x.images for x in right_cell_of(Permutation((2, 1, 3))))
    [(2, 1, 3), (3, 1, 2)]
    """
    check_enumeration_guard(w.degree, limit)
    q = recording_tableau(w)
    return {Permutation(rs_inverse(t, q.rows)) for t in standard_tableaux(q.shape)}


# ---------------------------------------------------------------------------
# compositions, as plain tuples of positive parts


def conjugate(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Conjugate partition of a composition: entry k counts parts >= k.

    >>> conjugate((2, 1, 1, 2))
    (4, 2)
    >>> conjugate((3, 2))
    (2, 2, 1)
    """
    if not parts:
        return ()
    return tuple(
        sum(1 for p in parts if p >= k) for k in range(1, max(parts) + 1)
    )


def compositions_of(n: int) -> Iterator[tuple[int, ...]]:
    """All compositions of n (ordered tuples of positive parts).

    >>> list(compositions_of(3))
    [(3,), (1, 2), (2, 1), (1, 1, 1)]
    """
    if n == 0:
        yield ()
        return
    for cuts in itertools.chain.from_iterable(
        itertools.combinations(range(1, n), k) for k in range(n)
    ):
        bounds = (0,) + cuts + (n,)
        yield tuple(b - a for a, b in zip(bounds, bounds[1:]))
