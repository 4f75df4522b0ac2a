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

``cell_words`` undoes the insertion for every word of one insertion
tableau, so right cells and ideals are built, not searched.

A tableau is its plain rows, top row first.  Each one comes out of
``row_insert``, which always yields a standard tableau, so no tableau
type re-checks it.

Shape utilities for compositions (conjugation and enumeration) also
live here.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from math import factorial, prod
from typing import Iterable, Iterator

from .permutations import Permutation, check_enumeration_guard

Rows = tuple[tuple[int, ...], ...]


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


def rs_pair(x: Permutation) -> tuple[Rows, Rows]:
    """Rows of the insertion and recording tableaux of the one-line word
    of x; the recording tableau is the insertion tableau of x^-1.

    >>> rs_pair(Permutation((3, 1, 2)))
    (((1, 2), (3,)), ((1, 3), (2,)))
    """
    return tuple(tuple(map(tuple, row_insert(y.images))) for y in (x, x.inverse()))


def recording_tableau(x: Permutation) -> Rows:
    return rs_pair(x)[1]


def cell_words(p_rows: Rows) -> Iterator[tuple[int, ...]]:
    """Every word whose insertion rows are p_rows, one per standard
    tableau of their shape.

    Each word is built from its last letter by reverse bumping (Schensted
    1961): a corner of the remaining rows empties, and its entry bumps the
    largest smaller entry of each row above until the first row gives up
    the letter.  Backtracking row inserts the letter again, undoing the
    bump, so words that share a suffix share its work.  The walk is one
    loop over a stack of the rows whose corners it has emptied.

    >>> sorted(cell_words(((1, 2), (3,))))
    [(1, 3, 2), (3, 1, 2)]
    """
    p = [list(row) for row in p_rows]
    depth = len(p)
    m = sum(map(len, p))
    word = [0] * m
    # the rows whose corners gave word[-1], word[-2], ..., word[m]
    emptied: list[int] = []
    r = 0
    while True:
        if m == 0:
            yield tuple(word)
        # the next corner at or below row r
        while r < depth and not (p[r] and (r + 1 == depth or len(p[r + 1]) < len(p[r]))):
            r += 1
        if r < depth:
            x = p[r].pop()
            for above in reversed(p[:r]):
                k = bisect_left(above, x) - 1
                above[k], x = x, above[k]
            m -= 1
            word[m] = x
            emptied.append(r)
            r = 0
        elif emptied:
            r = emptied.pop()
            x = word[m]
            m += 1
            for above in p[:r]:
                k = bisect_left(above, x)
                above[k], x = x, above[k]
            p[r].append(x)
            r += 1
        else:
            return


def count_standard_tableaux(shape: tuple[int, ...]) -> int:
    """f^shape, the number of standard tableaux of a partition shape, by
    the hook length formula (Frame, Robinson and Thrall 1954).

    >>> count_standard_tableaux((3, 2))
    5
    """
    cols = conjugate(shape)
    hooks = (part - c + cols[c] - r - 1 for r, part in enumerate(shape) for c in range(part))
    return factorial(sum(shape)) // prod(hooks)


def right_cell_of(w: Permutation, limit: int | None = None) -> set[Permutation]:
    """All elements of S_n right-equivalent to w, built by inverse
    insertion.  Subject to the enumeration guard; pass an explicit limit
    to override.

    >>> sorted(x.images for x in right_cell_of(Permutation((2, 1, 3))))
    [(2, 1, 3), (3, 1, 2)]
    """
    check_enumeration_guard(w.degree, limit)
    # x has recording rows Q(w) exactly when x^-1 has insertion rows Q(w)
    cell, x = set(), [0] * w.degree
    for y in cell_words(recording_tableau(w)):
        for k, v in enumerate(y, 1):
            x[v - 1] = k
        cell.add(Permutation(tuple(x)))
    return cell


# ---------------------------------------------------------------------------
# compositions, as plain tuples of positive parts


def conjugate(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Conjugate partition of a composition: entry k counts parts >= k.

    >>> conjugate((2, 1, 1, 2))
    (4, 2)
    >>> conjugate((3, 2))
    (2, 2, 1)
    """
    counts = [0] * max(parts, default=0)
    for p in parts:
        counts[p - 1] += 1
    return tuple(itertools.accumulate(reversed(counts)))[::-1]


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
