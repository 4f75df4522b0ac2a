"""Slow, independent reference implementations used to pin expected values.

Everything in this module works on plain tuples and sets, not on the package
types, so that a bug in the package cannot leak into an expected value.  The
conventions match the package: one-line notation is 1-based and products
compose left to right, so ``compose(a, b)[k-1]`` is the image of ``k`` under
"first a, then b".

There are four exceptions.  ``symmetric_group`` yields the package's
permutations, for the tests that range over a whole group.  The ideal by
enumeration runs the package's two membership routes on every coset
representative, and the ideal by reverse search runs them on the covers
it reaches: both check the construction in ``families``, which builds
the members by inverse Robinson-Schensted insertion.  The single-node
row extension by trial tests admissibility with the package's
``row_insert``: it checks the placement ``diagrams.psi_append`` builds from
Schensted's theorem, not the insertion itself, which has oracles of its own.
The whole ``cellrim rim`` output builds its text from the package's
``rim_diagrams``, ``w_of_diagram`` and ``reduced_word``: it checks the
streamed writer of the command, not the rim.
"""

from __future__ import annotations

import itertools
import json
from collections import defaultdict
from functools import lru_cache
from math import comb
from typing import Iterator

from cellrim.diagrams import Diagram, min_column_diagram, w_of_diagram
from cellrim.families import COLUMN_ROWS, rim_diagrams
from cellrim.paths import is_admissible
from cellrim.permutations import (
    Permutation,
    VerificationError,
    composition_generators,
    identity,
    parabolic,
    reduced_word,
)
from cellrim.tableaux import recording_tableau, row_insert

# ---------------------------------------------------------------------------
# permutations on plain tuples


def compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(b[v - 1] for v in a)


def invert(a: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(a)
    for k, v in enumerate(a):
        out[v - 1] = k + 1
    return tuple(out)


def inversion_pairs(a: tuple[int, ...]) -> set[tuple[int, int]]:
    n = len(a)
    return {
        (i, j)
        for i in range(1, n)
        for j in range(i + 1, n + 1)
        if a[i - 1] > a[j - 1]
    }


def count_inversions(a: tuple[int, ...]) -> int:
    return len(inversion_pairs(a))


def mask_by_pairs(a: tuple[int, ...]) -> int:
    """The inversion bitmask of a, one pair at a time: bit k stands for
    the k-th pair (i, j), i < j, in lexicographic order."""
    n = len(a)
    pairs = ((i, j) for i in range(1, n) for j in range(i + 1, n + 1))
    return sum(1 << k for k, (i, j) in enumerate(pairs) if a[i - 1] > a[j - 1])


def symmetric_group(n: int) -> Iterator[Permutation]:
    """All of S_n as package permutations, in lexicographic order of
    one-line notation."""
    for images in itertools.permutations(range(1, n + 1)):
        yield Permutation(images)


def word_to_images(n: int, word: tuple[int, ...]) -> tuple[int, ...]:
    images = list(range(1, n + 1))
    for i in word:
        # right multiplication by the transposition (i, i+1) swaps the values
        p, q = images.index(i), images.index(i + 1)
        images[p], images[q] = images[q], images[p]
    return tuple(images)


def act_on_pair(pair: tuple[int, int], a: tuple[int, ...]) -> tuple[int, int]:
    u, v = a[pair[0] - 1], a[pair[1] - 1]
    return (u, v) if u < v else (v, u)


def inversions_from_reduced_word(
    n: int, word: tuple[int, ...]
) -> set[tuple[int, int]]:
    """Inversion set built one letter at a time from a reduced word.

    Peeling the first letter i off a reduced word leaves a shorter element y
    with x = s_i * y, and then the inversions of x are those of y moved by
    s_i, plus the pair (i, i+1).  This is a route independent of the direct
    definition.
    """
    if not word:
        return set()
    i, rest = word[0], word[1:]
    s = word_to_images(n, (i,))
    return {act_on_pair(p, s) for p in inversions_from_reduced_word(n, rest)} | {
        (i, i + 1)
    }


def all_reduced_words(a: tuple[int, ...]) -> set[tuple[int, ...]]:
    """Every reduced word of a, by recursion over left descents."""
    n = len(a)
    words = {()} if count_inversions(a) == 0 else set()
    for i in range(1, n):
        if a[i - 1] > a[i]:  # left descent: peel s_i off the front
            shorter = list(a)
            shorter[i - 1], shorter[i] = shorter[i], shorter[i - 1]
            words |= {(i,) + w for w in all_reduced_words(tuple(shorter))}
    return words


def reduced_word_by_restart(a: tuple[int, ...]) -> tuple[int, ...]:
    """The lexicographically smallest reduced word of a, by swapping the
    first descent and rescanning from the start each time: O(n * length).
    """
    images = list(a)
    word = []
    while True:
        for i in range(len(images) - 1):
            if images[i] > images[i + 1]:
                word.append(i + 1)
                images[i], images[i + 1] = images[i + 1], images[i]
                break
        else:
            return tuple(word)


def prefixes_by_words(a: tuple[int, ...]) -> set[tuple[int, ...]]:
    """All prefixes of a, as the initial segments of all reduced words."""
    out = set()
    for word in all_reduced_words(a):
        for k in range(len(word) + 1):
            out.add(word_to_images(len(a), word[:k]))
    return out


def is_prefix_by_length(p: tuple[int, ...], a: tuple[int, ...]) -> bool:
    """Prefix test through the length cocycle, no inversion sets involved."""
    return count_inversions(a) == count_inversions(p) + count_inversions(
        compose(invert(p), a)
    )


def coset_reps_by_weak_order(
    gens: frozenset[int], n: int
) -> tuple[tuple[int, ...], ...]:
    """Distinguished coset reps of the Young subgroup generated by gens.

    Breadth-first growth from the identity: right-multiply by each basic
    transposition and keep the results that get longer and stay below the
    longest rep (blockwise reversal, then the order reversal) in the weak
    order.  Sorted by length, then one-line notation.
    """
    longest: list[int] = []
    start = 1
    for i in range(1, n + 1):
        if i == n or i not in gens:
            longest.extend(range(i, start - 1, -1))
            start = i + 1
    top = inversion_pairs(compose(tuple(longest), tuple(range(n, 0, -1))))
    identity = tuple(range(1, n + 1))
    reps = {identity}
    frontier = [identity]
    while frontier:
        fresh = []
        for x in frontier:
            length = count_inversions(x)
            for i in range(1, n):
                y = compose(x, word_to_images(n, (i,)))
                inversions = inversion_pairs(y)
                if len(inversions) > length and inversions <= top and y not in reps:
                    reps.add(y)
                    fresh.append(y)
        frontier = fresh
    return tuple(sorted(reps, key=lambda a: (count_inversions(a), a)))


def canonical_parent(a: tuple[int, ...]) -> tuple[int, ...]:
    """The element one step down at the largest right descent of a.

    A right descent is a value i that a places after i + 1; undoing the
    largest one swaps the two values back.
    """
    at = invert(a)
    i = max(i for i in range(1, len(a)) if at[i - 1] > at[i])
    return tuple(i + 1 if v == i else i if v == i + 1 else v for v in a)


def membership_routes(e: Permutation, lam: tuple[int, ...]) -> tuple[bool, bool]:
    """Cell and diagram membership of a coset representative of lam.

    The cell route compares the recording tableau of longest * e, read as
    the insertion tableau of the word sending e(k) to longest(k), with the
    recording tableau of the longest block permutation; the diagram route
    asks whether the minimal-column diagram of e is admissible.
    """
    _, target = _cell_route_data(lam)
    tableau = tuple(map(tuple, row_insert(walk_word(e.images, lam))))
    standard_shape(tableau)
    return tableau == target, diagram_route(e.images, lam)


def walk_word(images: tuple[int, ...], lam: tuple[int, ...]) -> tuple[int, ...]:
    """The word of (longest * e)^-1, which holds longest(k) at position e(k)."""
    longest, _ = _cell_route_data(lam)
    word = [0] * len(images)
    for w_k, e_k in zip(longest, images):
        word[e_k - 1] = w_k
    return tuple(word)


def block_labels(word: tuple[int, ...], lam: tuple[int, ...]) -> list[int]:
    """Each letter of a word replaced by its block of lam, counted from 0."""
    block_of = [a for a, p in enumerate(lam) for _ in range(p)]
    return [block_of[v - 1] for v in word]


def diagram_route(images: tuple[int, ...], lam: tuple[int, ...]) -> bool:
    """Whether the minimal-column diagram of a coset representative is
    admissible, through a Permutation, a Diagram and its column reading
    word: the reference for the ideal walk's member test by Greene's
    theorem on its word."""
    return is_admissible(min_column_diagram(Permutation(images), lam))


@lru_cache(maxsize=None)
def _cell_route_data(
    lam: tuple[int, ...],
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    longest = parabolic(composition_generators(lam), sum(lam)).longest
    target = recording_tableau(longest)
    standard_shape(target)
    return longest.images, target


def z_ideal_by_enumeration(lam: tuple[int, ...]) -> frozenset[Permutation]:
    """The ideal of lam from both membership routes on every coset rep.

    A disagreement between the routes raises VerificationError naming lam
    and the representative.
    """
    members = []
    for e in parabolic(composition_generators(lam), sum(lam)).reps:
        by_cell, by_diagram = membership_routes(e, lam)
        if by_cell != by_diagram:
            raise VerificationError(
                f"cell route and diagram route disagree for {lam} at "
                f"{e.images}: cell says {by_cell}, diagram says {by_diagram}"
            )
        if by_cell:
            members.append(e)
    return frozenset(members)


def z_ideal_by_reverse_search(
    lam: tuple[int, ...],
) -> dict[Permutation, bool]:
    """Each member of the ideal of lam, mapped to whether it is a rim
    element, by reverse search from the identity along prefix covers.

    A cover e * s_i swaps the values i and i + 1, with i before i + 1 and
    the two in different blocks.  As the ideal is prefix-closed it is a
    tree under canonical parents, a member reaching its parent by undoing
    its largest right descent (Avis and Fukuda 1996), so from each member
    only the covers it is the canonical parent of are walked.  A member is
    a rim element exactly when no cover is a member.  Membership is
    tested by both routes on every candidate, and a disagreement raises
    VerificationError naming lam and the candidate.
    """
    n = sum(lam)
    block_of = [a for a, p in enumerate(lam) for _ in range(p)]

    def is_member(e: Permutation) -> bool:
        by_cell, by_diagram = membership_routes(e, lam)
        if by_cell != by_diagram:
            raise VerificationError(
                f"cell route and diagram route disagree for {lam} at "
                f"{e.images}: cell says {by_cell}, diagram says {by_diagram}"
            )
        return by_cell

    def cover(images: tuple[int, ...], i: int) -> Permutation:
        return Permutation(
            tuple(i + 1 if v == i else i if v == i + 1 else v for v in images)
        )

    members: dict[Permutation, bool] = {}
    stack = [identity(n)]
    while stack:
        e = stack.pop()
        images = e.images
        # at[v] is the position of the value v; at[n + 1] lies past the end
        at = [0] * (n + 2)
        for k, v in enumerate(images):
            at[v] = k
        at[n + 1] = n
        last_descent = max(
            (j for j in range(1, n) if at[j] > at[j + 1]), default=0
        )
        children, others = [], []
        for i in range(1, n):
            if at[i] > at[i + 1] or block_of[at[i]] == block_of[at[i + 1]]:
                continue
            # i is the cover's largest right descent when e has none past
            # i + 1 and the swap leaves i + 1 before i + 2
            if last_descent <= i + 1 and at[i] < at[i + 2]:
                children.append(i)
            else:
                others.append(i)
        found = [f for f in (cover(images, i) for i in children) if is_member(f)]
        stack.extend(found)
        members[e] = not found and not any(
            is_member(cover(images, i)) for i in others
        )
    return members


def prefix_maximal_pairwise(
    elements: set[tuple[int, ...]],
) -> set[tuple[int, ...]]:
    """The elements whose inversion set lies in no other element's."""
    inversions = {a: inversion_pairs(a) for a in elements}
    return {
        a
        for a in inversions
        if not any(b != a and inversions[a] <= inv for b, inv in inversions.items())
    }


# ---------------------------------------------------------------------------
# generic order ideals


def downsets(
    elements: list, is_le
) -> list[frozenset]:
    """All downward-closed subsets of the given finite poset.

    Elements are processed in an order compatible with is_le; a subset may
    include an element only if it already includes everything below it.
    """
    order = sorted(range(len(elements)), key=lambda k: sum(
        is_le(elements[j], elements[k]) for j in range(len(elements))
    ))
    below = []
    for k in order:
        below.append([
            j for j in order[: len(below)]
            if is_le(elements[j], elements[k]) and j != k
        ])
    out: list[frozenset] = []

    def grow(pos: int, chosen: set[int]) -> None:
        if pos == len(order):
            out.append(frozenset(elements[j] for j in chosen))
            return
        grow(pos + 1, chosen)
        if all(j in chosen for j in below[pos]):
            grow(pos + 1, chosen | {order[pos]})

    grow(0, set())
    return out


# ---------------------------------------------------------------------------
# Robinson-Schensted checks


def standard_shape(rows: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """The shape of rows that form a standard Young tableau: entries
    exactly 1..n, rows and columns strictly increasing, row lengths weakly
    decreasing.  Any other rows raise ValueError."""
    entries = sorted(v for row in rows for v in row)
    if entries != list(range(1, len(entries) + 1)):
        raise ValueError(f"entries are not exactly 1..n: {rows!r}")
    shape = tuple(map(len, rows))
    if 0 in shape or any(b > a for a, b in zip(shape, shape[1:])):
        raise ValueError(f"row lengths must be weakly decreasing: {rows!r}")
    if any(a >= b for row in rows for a, b in zip(row, row[1:])):
        raise ValueError(f"rows must increase: {rows!r}")
    for upper, lower in zip(rows, rows[1:]):
        if any(a >= b for a, b in zip(upper, lower)):
            raise ValueError(f"columns must increase: {rows!r}")
    return shape


def hook_lengths_product(shape: tuple[int, ...]) -> int:
    total = 1
    cols = [0] * (shape[0] if shape else 0)
    for row_len in shape:
        for c in range(row_len):
            cols[c] += 1
    for r, row_len in enumerate(shape):
        for c in range(row_len):
            arm = row_len - (c + 1)
            leg = cols[c] - (r + 1)
            total *= arm + leg + 1
    return total


def standard_tableau_count(shape: tuple[int, ...]) -> int:
    """Number of standard Young tableaux of the given partition shape."""
    import math

    return math.factorial(sum(shape)) // hook_lengths_product(shape)


def rs_pair_by_bumping(
    a: tuple[int, ...],
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Insertion and recording rows of a one-line word, by inserting each
    value and writing its step number where the new cell appears."""
    p_rows: list[list[int]] = []
    q_rows: list[list[int]] = []
    for step, value in enumerate(a, start=1):
        r = 0
        while True:
            if r == len(p_rows):
                p_rows.append([value])
                q_rows.append([step])
                break
            row = p_rows[r]
            bigger = [k for k, v in enumerate(row) if v > value]
            if not bigger:
                row.append(value)
                q_rows[r].append(step)
                break
            row[bigger[0]], value = value, row[bigger[0]]
            r += 1
    return tuple(map(tuple, p_rows)), tuple(map(tuple, q_rows))


def rs_inverse(
    p_rows: tuple[tuple[int, ...], ...], q_rows: tuple[tuple[int, ...], ...]
) -> tuple[int, ...]:
    """The word with insertion rows p_rows and recording rows q_rows, by
    reverse bumping (Schensted 1961), one word at a time: the cell of the
    largest recording entry empties, and its entry bumps the largest
    smaller entry of each row above, until the first row gives up the
    last letter."""
    p = [list(row) for row in p_rows]
    row_of = {v: r for r, row in enumerate(q_rows) for v in row}
    word = [0] * len(row_of)
    for m in range(len(row_of), 0, -1):
        x = p[row_of[m]].pop()
        for row in reversed(p[: row_of[m]]):
            k = max(k for k, v in enumerate(row) if v < x)
            row[k], x = x, row[k]
        word[m - 1] = x
    return tuple(word)


def standard_tableaux(shape: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The rows of every standard Young tableau of a partition shape:
    entries 1..n go in turn to the end of a row shorter than its part
    and than the row above."""
    rows: list[list[int]] = [[] for _ in shape]
    n = sum(shape)

    def fill(k: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if k > n:
            yield tuple(map(tuple, rows))
        for r, row in enumerate(rows):
            if len(row) < shape[r] and (r == 0 or len(row) < len(rows[r - 1])):
                row.append(k)
                yield from fill(k + 1)
                row.pop()

    return fill(1)


def cell_words_by_tableaux(
    p_rows: tuple[tuple[int, ...], ...],
) -> set[tuple[int, ...]]:
    """The words with insertion rows p_rows: one separate rs_inverse
    for each standard tableau of their shape."""
    shape = tuple(map(len, p_rows))
    return {rs_inverse(p_rows, q_rows) for q_rows in standard_tableaux(shape)}


def right_cell_by_scan(w: tuple[int, ...]) -> set[tuple[int, ...]]:
    """The right cell of w: the permutations of its degree whose recording
    tableau is that of w, found by scanning the whole group."""
    return set(_recording_classes(len(w))[rs_pair_by_bumping(w)[1]])


@lru_cache(maxsize=None)
def _recording_classes(n: int) -> dict:
    classes: defaultdict = defaultdict(list)
    for x in itertools.permutations(range(1, n + 1)):
        classes[rs_pair_by_bumping(x)[1]].append(x)
    return dict(classes)


# ---------------------------------------------------------------------------
# diagrams as plain frozensets of (row, column) nodes


def normalize_by_ranking(nodes) -> frozenset[tuple[int, int]]:
    """The principal node set: coerce every coordinate with int(), then
    rank the used rows and the used columns separately, so both run
    1..max with no gaps.  Raises ValueError on no nodes.
    """
    raw = {(int(a), int(b)) for a, b in nodes}
    if not raw:
        raise ValueError("a diagram needs at least one node")
    row_rank = {a: k for k, a in enumerate(sorted({a for a, _ in raw}), 1)}
    col_rank = {b: k for k, b in enumerate(sorted({b for _, b in raw}), 1)}
    return frozenset((row_rank[a], col_rank[b]) for a, b in raw)


def diagram_columns(nodes: frozenset[tuple[int, int]]) -> list[list[int]]:
    cols: dict[int, list[int]] = {}
    for a, b in nodes:
        cols.setdefault(b, []).append(a)
    return [sorted(cols[b]) for b in sorted(cols)]


def diagram_rows(nodes: frozenset[tuple[int, int]]) -> list[list[int]]:
    rows: dict[int, list[int]] = {}
    for a, b in nodes:
        rows.setdefault(a, []).append(b)
    return [sorted(rows[a]) for a in sorted(rows)]


def diagram_word(nodes: frozenset[tuple[int, int]]) -> tuple[int, ...]:
    """One-line notation of the diagram permutation, on plain sets.

    The row filling numbers nodes row by row, the column filling column by
    column; the permutation sends the row-filling entry of a node to its
    column-filling entry.
    """
    by_rows = sorted(nodes, key=lambda node: (node[0], node[1]))
    by_cols = sorted(nodes, key=lambda node: (node[1], node[0]))
    col_entry = {node: k + 1 for k, node in enumerate(by_cols)}
    return tuple(col_entry[node] for node in by_rows)


def rows_by_bucketing(nodes) -> tuple[tuple[int, ...], ...]:
    """The normalized rows of a node set, built as ``Diagram`` built them
    from node pairs: bucket the nodes by their raw row label, merge the
    buckets by ``int`` row, coerce each row's columns, and re-rank the
    columns only when the used ones are not ``1..c``.  Raises ValueError
    on no nodes.
    """
    raw = defaultdict(set)
    for a, b in nodes:
        raw[a].add(b)
    if not raw:
        raise ValueError("a diagram needs at least one node")
    by_row: dict[int, set[int]] = defaultdict(set)
    for a, cols in raw.items():
        by_row[int(a)].update(map(int, cols))
    rows = [sorted(by_row[a]) for a in sorted(by_row)]
    used = set().union(*by_row.values())
    if min(used) != 1 or max(used) != len(used):
        rank = {b: k for k, b in enumerate(sorted(used), 1)}
        rows = [[rank[b] for b in row] for row in rows]
    return tuple(map(tuple, rows))


def min_column_nodes(
    d: tuple[int, ...], parts: tuple[int, ...]
) -> list[tuple[int, int]]:
    """The nodes of the minimal-column diagram of a coset representative
    d, listed in column-filling order: walk the rows holding 1, 2, ..., n
    in the column filling and open a column whenever the row fails to
    climb.
    """
    row_of = [a for a, p in enumerate(parts, 1) for _ in range(p)]
    row_at = [0] * len(d)
    for point, value in enumerate(d):
        row_at[value - 1] = row_of[point]
    nodes = []
    column = 0
    previous_row = 0
    for row in row_at:
        if row <= previous_row or column == 0:
            column += 1
        nodes.append((row, column))
        previous_row = row
    return nodes


def search_min_column_diagrams(
    d: tuple[int, ...], parts: tuple[int, ...]
) -> list[frozenset[tuple[int, int]]]:
    """All diagrams with the given row sizes and diagram permutation d,
    having the minimum possible number of columns.

    Exhaustive: tries every assignment of column sets to rows, for every
    column count from widest-row up to n.
    """
    n = sum(parts)
    found: list[frozenset[tuple[int, int]]] = []
    for ncols in range(max(parts), n + 1):
        for row_sets in itertools.product(
            *(itertools.combinations(range(1, ncols + 1), p) for p in parts)
        ):
            used = set()
            for cols in row_sets:
                used.update(cols)
            if len(used) != ncols:
                continue
            nodes = frozenset(
                (a + 1, b) for a, cols in enumerate(row_sets) for b in cols
            )
            if diagram_word(nodes) == d:
                found.append(nodes)
        if found:
            return found
    return found


def is_special_by_sorting(nodes: frozenset[tuple[int, int]]) -> bool:
    """Whether sorting rows and columns by length, stably, turns the diagram
    into the Young diagram of its sorted row sizes.
    """
    rows = sorted({a for a, _ in nodes})
    cols = sorted({b for _, b in nodes})
    row_len = {a: len(r) for a, r in zip(rows, diagram_rows(nodes))}
    col_len = {b: sum(1 for _, c in nodes if c == b) for b in cols}
    row_rank = {a: k for k, a in enumerate(sorted(rows, key=lambda a: -row_len[a]), 1)}
    col_rank = {b: k for k, b in enumerate(sorted(cols, key=lambda b: -col_len[b]), 1)}
    shape = sorted(row_len.values(), reverse=True)
    young = {(a + 1, b + 1) for a, p in enumerate(shape) for b in range(p)}
    return {(row_rank[a], col_rank[b]) for a, b in nodes} == young


def has_nested_columns(nodes: frozenset[tuple[int, int]]) -> bool:
    """Whether every two columns' row sets are comparable under inclusion."""
    cols = [set(col) for col in diagram_columns(nodes)]
    return all(c <= d or d <= c for c, d in itertools.combinations(cols, 2))


def is_special_by_search(nodes: frozenset[tuple[int, int]]) -> bool:
    """Whether some row and column permutation turns the diagram into the
    Young diagram of its sorted row sizes.  Factorial; tiny diagrams only.
    """
    rows = sorted({a for a, _ in nodes})
    cols = sorted({b for _, b in nodes})
    shape = sorted((len(r) for r in diagram_rows(nodes)), reverse=True)
    young = {(a + 1, b + 1) for a, p in enumerate(shape) for b in range(p)}
    for row_images in itertools.permutations(range(1, len(rows) + 1)):
        row_map = dict(zip(rows, row_images))
        for col_images in itertools.permutations(range(1, len(cols) + 1)):
            col_map = dict(zip(cols, col_images))
            if {(row_map[a], col_map[b]) for a, b in nodes} == young:
                return True
    return False


def _admissible_by_insertion(nodes: frozenset[tuple[int, int]]) -> bool:
    """Whether the insertion shape of the column reading word is the
    conjugate of the row sizes."""
    word = [a for _, a in sorted((b, a) for a, b in nodes)]
    shape = [len(row) for row in row_insert(word)]
    sizes = [len(row) for row in diagram_rows(nodes)]
    conjugate = [sum(1 for p in sizes if p > k) for k in range(max(sizes))]
    return shape == conjugate


def psi_append_by_trial(
    nodes: frozenset[tuple[int, int]]
) -> frozenset[tuple[int, int]]:
    """Append a one-node row below a principal diagram at the least
    admissible placement, trying every column.

    At column c the node (r + 1, c) first joins column c, then sits in a
    fresh column inserted at c, shifting columns c onward right.  Raises
    ValueError when no placement is admissible.
    """
    r = max(a for a, _ in nodes)
    m = max(b for _, b in nodes)
    for c in range(1, m + 2):
        node = (r + 1, c)
        joined = nodes | {node}
        fresh = frozenset((a, b + 1 if b >= c else b) for a, b in nodes) | {node}
        for candidate in (joined, fresh) if c <= m else (fresh,):
            if _admissible_by_insertion(candidate):
                return candidate
    raise ValueError("no admissible single-node row extension")


def max_path_family_size(
    nodes: frozenset[tuple[int, int]], k: int
) -> int:
    """Largest node count covered by k disjoint chains, by backtracking.

    A chain steps to strictly larger rows and weakly larger columns.  The
    least remaining node in (row, column) order can only ever start a
    chain, never continue one, which keeps the branching complete.
    """
    memo: dict[tuple[frozenset, int, tuple | None], int] = {}

    def best(
        remaining: frozenset[tuple[int, int]],
        chains_left: int,
        tail: tuple[int, int] | None,
    ) -> int:
        key = (remaining, chains_left, tail)
        if key in memo:
            return memo[key]
        if tail is None:
            if chains_left == 0 or not remaining:
                result = 0
            else:
                v = min(remaining)
                rest = remaining - {v}
                result = max(
                    best(rest, chains_left, None),
                    1 + best(rest, chains_left - 1, v),
                )
        else:
            result = best(remaining, chains_left, None)
            for w in remaining:
                if w[0] > tail[0] and w[1] >= tail[1]:
                    result = max(
                        result, 1 + best(remaining - {w}, chains_left, w)
                    )
        memo[key] = result
        return result

    return best(frozenset(nodes), k, None)


def subsequence_type_by_search(
    nodes: frozenset[tuple[int, int]]
) -> tuple[int, ...]:
    """Successive gains of best k-chain-family sizes, by backtracking."""
    nodes = frozenset(nodes)
    gains = []
    prev = 0
    for k in range(1, len(nodes) + 1):
        cur = max_path_family_size(nodes, k)
        if cur == prev:
            break
        gains.append(cur - prev)
        prev = cur
    return tuple(gains)


def subsequence_type_by_flow(
    nodes: frozenset[tuple[int, int]]
) -> tuple[int, ...]:
    """Successive gains of best k-chain-family sizes, by min-cost flow.

    A unit-capacity minimum-cost flow over the node poset ((a, b)
    precedes (a', b') iff a < a' and b <= b'), augmented along shortest
    paths found by Bellman-Ford: each successive augmentation adds one
    chain and its cost is the negated gain in covered nodes, so the gains
    are automatically non-increasing.  Polynomial, so it reaches diagrams
    far beyond the backtracking search.
    """
    nodes = sorted(nodes)
    n = len(nodes)
    source, sink = 2 * n, 2 * n + 1
    residual: dict[tuple[int, int], int] = {}
    cost: dict[tuple[int, int], int] = {}
    neighbours: dict[int, list[int]] = defaultdict(list)

    def add_arc(x: int, y: int, c: int) -> None:
        residual[x, y] = 1
        residual[y, x] = 0
        cost[x, y] = c
        cost[y, x] = -c
        neighbours[x].append(y)
        neighbours[y].append(x)

    for i in range(n):
        add_arc(source, i, 0)
        add_arc(i, n + i, -1)
        add_arc(n + i, sink, 0)
    for i, (a, b) in enumerate(nodes):
        for j, (a2, b2) in enumerate(nodes):
            if a < a2 and b <= b2:
                add_arc(n + i, j, 0)

    parts = []
    while True:
        dist = {source: 0}
        parent: dict[int, int] = {}
        for _ in range(2 * n + 2):
            changed = False
            for x in list(dist):
                for y in neighbours[x]:
                    if residual[x, y] > 0:
                        d = dist[x] + cost[x, y]
                        if d < dist.get(y, d + 1):
                            dist[y] = d
                            parent[y] = x
                            changed = True
            if not changed:
                break
        if dist.get(sink, 0) >= 0:
            return tuple(parts)
        parts.append(-dist[sink])
        y = sink
        while y != source:
            x = parent[y]
            residual[x, y] -= 1
            residual[y, x] += 1
            y = x


def precedes(earlier, later) -> bool:
    """Whether chain ``earlier`` may be listed before chain ``later`` in an
    ordered family: wherever a node of ``earlier`` lies weakly above a node
    of ``later``, it is strictly to its left."""
    return all(b < b2 for a, b in earlier for a2, b2 in later if a <= a2)


def best_ordered_cover(
    nodes: frozenset[tuple[int, int]]
) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Canonical ordered chain family covering the nodes, by brute force.

    Tries every partition of the nodes into chains and every listing
    order, keeping families that satisfy the ordering condition, and
    picks the fewest chains, then lexicographically maximal listed
    lengths, then lexicographically least flattened node sequence.
    """
    ordered_nodes = sorted(nodes)
    best: tuple | None = None

    def partitions(idx, parts):
        if idx == len(ordered_nodes):
            yield [tuple(p) for p in parts]
            return
        v = ordered_nodes[idx]
        for p in parts:
            a, b = p[-1]
            if v[0] > a and v[1] >= b:
                p.append(v)
                yield from partitions(idx + 1, parts)
                p.pop()
        parts.append([v])
        yield from partitions(idx + 1, parts)
        parts.pop()

    for chains in partitions(0, []):
        for perm in itertools.permutations(chains):
            if all(
                precedes(perm[i], perm[j])
                for i in range(len(perm))
                for j in range(i + 1, len(perm))
            ):
                key = (
                    len(perm),
                    tuple(-len(c) for c in perm),
                    tuple(n for c in perm for n in c),
                )
                if best is None or key < best[0]:
                    best = (key, tuple(perm))
    assert best is not None
    return best[1]


def ordered_cores_by_backtracking(
    nodes: frozenset[tuple[int, int]], length_counts: dict[int, int]
):
    """Ordered chain families with the prescribed multiset of lengths, in
    lexicographic order of their flattened node sequences.

    The plain backtracking search: the candidates after a prefix are the
    chains, in sorted order, that its every chain may precede (which
    rules out a shared node), filtered anew by each chain appended.
    """
    wanted = frozenset(k for k, v in length_counts.items() if v > 0)
    ordered_nodes = sorted(nodes)
    chains: list[tuple[tuple[int, int], ...]] = []

    def grow(chain):
        if len(chain) in wanted:
            chains.append(tuple(chain))
        a, b = chain[-1]
        for v in ordered_nodes:
            if v[0] > a and v[1] >= b:
                chain.append(v)
                grow(chain)
                chain.pop()

    for start in ordered_nodes:
        grow([start])
    chains.sort()
    total = sum(length_counts.values())

    @lru_cache(maxsize=None)
    def may_follow(chain):
        return {c for c in chains if precedes(chain, c)}

    def extend(prefix, candidates, counts):
        if len(prefix) == total:
            yield tuple(prefix)
            return
        for chain in candidates:
            if counts[len(chain)] == 0:
                continue
            counts[len(chain)] -= 1
            prefix.append(chain)
            allowed = may_follow(chain)
            yield from extend(
                prefix, [c for c in candidates if c in allowed], counts
            )
            prefix.pop()
            counts[len(chain)] += 1

    yield from extend([], chains, dict(length_counts))


def insert_singletons(
    core: tuple[tuple[tuple[int, int], ...], ...], extra
) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Insert each extra node as a one-node constituent placed so the
    result stays ordered.  The core must be ordered and miss the extras;
    neither is checked.  The core keeps its relative order.  A node that
    cannot go on either side of some constituent (it sits between two of
    its rows in the same column) makes the insertion impossible; the
    error names the column.

    Pairwise: every pair with an extra is tested both ways, and a Kahn
    sort places the least ready item first.

    >>> insert_singletons((((1, 1), (2, 1)),), [(1, 2), (2, 2)])
    (((1, 1), (2, 1)), ((2, 2),), ((1, 2),))
    """
    items: list[tuple[tuple[int, int], ...]] = list(core)
    items.extend((node,) for node in sorted(extra))
    original = len(core)
    must_precede: dict[int, set[int]] = {i: set() for i in range(len(items))}
    for i in range(1, original):
        must_precede[i].add(i - 1)
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if i < original and j < original:
                continue
            i_first = precedes(items[i], items[j])
            j_first = precedes(items[j], items[i])
            if i_first and not j_first:
                must_precede[j].add(i)
            elif j_first and not i_first:
                must_precede[i].add(j)
            elif not i_first and not j_first:
                column = items[j][0][1] if j >= original else items[i][0][1]
                raise ValueError(
                    f"node in column {column} straddles a constituent"
                )

    placed: list[tuple[tuple[int, int], ...]] = []
    done: set[int] = set()
    while len(done) < len(items):
        ready = [
            i for i in range(len(items))
            if i not in done and must_precede[i] <= done
        ]
        if not ready:
            raise VerificationError("insertion constraints form a cycle")
        pick = min(ready, key=lambda i: items[i])
        placed.append(items[pick])
        done.add(pick)
    return tuple(placed)


def form_path_by_insertion(
    nodes: frozenset[tuple[int, int]], s: int, t: int, u: int
) -> tuple[tuple[tuple[tuple[int, int], ...], ...], str] | None:
    """The form family ``paths.find_form_path`` returns, with its form
    "A" or "B", by the plain pipeline: each plan's cores from
    ``ordered_cores_by_backtracking``, form A's plan first, then the
    pairwise ``insert_singletons`` of the nodes each core misses; the
    first core that takes them wins.  None when no core does."""
    plans = [("A", {2: t - u, 3: u - 1, 4: 1})]
    if t > u:
        plans.append(("B", {2: t - u - 1, 3: u + 1}))
    for form, counts in plans:
        for core in ordered_cores_by_backtracking(nodes, counts):
            try:
                return insert_singletons(core, nodes.difference(*core)), form
            except ValueError:
                continue
    return None


# ---------------------------------------------------------------------------
# closed families by row arithmetic and by walking their column profiles


def family_m_rows(
    s: int, counts: tuple[int, ...], triples: frozenset[int]
) -> tuple[tuple[int, ...], ...]:
    """Rows of the M member with block sizes (eps, eta, theta, zeta, psi)
    and the given triple columns, by set arithmetic on column ranges.

    The full column sits at eps + eta + 1; row 2 skips the theta columns
    after it, and row 3 holds the first eps columns, the full column with
    the theta + zeta columns after it, and the triples.
    """
    eps, eta, theta, zeta, _ = counts
    m = s + theta
    full = eps + eta + 1
    rows = (
        {full} | triples,
        set(range(1, full + 1)) | set(range(full + theta + 1, m + 1)),
        set(range(1, eps + 1)) | set(range(full, full + theta + zeta + 1)) | triples,
        {full},
    )
    return tuple(tuple(sorted(row)) for row in rows)


def family_n_rows(s: int, u: int, counts: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Rows of the N member with block sizes (eta, eps, theta, phi, zeta),
    by concatenating column ranges.  The full column sits at
    eta + eps + theta + 1 and the last u - 1 columns are triples.
    """
    eta, eps, theta, _, zeta = counts
    m = s + theta
    full = eta + eps + theta + 1
    return (
        (full, *range(m - u + 2, m + 1)),
        (*range(eta + 1, full + 1), *range(m - u - zeta + 2, m + 1)),
        (*range(1, eta + eps + 1), *range(full, m + 1)),
        (full,),
    )


def table_counts_by_arrangement(
    s: int, t: int, u: int, order: tuple[int, int, int]
) -> tuple[int, int]:
    """(special, non-special) rim sizes, one arrangement test per family
    in the tie-breaking order sorted, F, G, H, M, N."""
    v = s - t + u
    if order == (s, t, u):
        return 1, 0
    if order == (s, u, t):
        return comb(t, u), 0
    if order == (t, s, u):
        return comb(v, u), 0
    if order == (t, u, s):
        return (s - t) * comb(t - 1, u - 1) + comb(t, u), 0
    if order == (u, s, t):
        return (
            (t - u) * comb(v - 1, u - 1) + comb(v, u),
            comb(t - u, 2) * comb(v - 1, u - 1) + (t - u) * comb(v, u),
        )
    return s - u + 1, (t - u) * (s - t) + comb(t - u + 1, 2)


def family_rows_by_profile(entries: list[str]) -> tuple[tuple[int, ...], ...]:
    """The rows of the four-row diagram whose column b holds the rows
    COLUMN_ROWS[entries[b - 1]], walking the profile one column at a time."""
    rows: tuple[list[int], ...] = ([], [], [], [])
    for b, entry in enumerate(entries, 1):
        for a in COLUMN_ROWS[entry]:
            rows[a - 1].append(b)
    return tuple(map(tuple, rows))


def family_m_by_profile(
    counts: tuple[int, ...], triples: frozenset[int]
) -> tuple[tuple[int, ...], ...]:
    """Rows of the M member with block sizes (eps, eta, theta, zeta, psi):
    the profile 2^eps 1^eta 4 1b^theta 2^zeta 1^psi with its triple
    columns raised to 3, walked column by column."""
    eps, eta, theta, zeta, psi = counts
    profile = ["2"] * eps + ["1"] * eta + ["4"] + ["1b"] * theta + ["2"] * zeta + ["1"] * psi
    for c in triples:
        profile[c - 1] = "3"
    return family_rows_by_profile(profile)


def family_n_by_profile(u: int, counts: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Rows of the N member with block sizes (eta, eps, theta, phi, zeta):
    the profile 1b^eta 2^eps 1^theta 4 1b^phi 2^zeta 3^(u - 1), walked
    column by column."""
    eta, eps, theta, phi, zeta = counts
    return family_rows_by_profile(
        ["1b"] * eta + ["2"] * eps + ["1"] * theta + ["4"]
        + ["1b"] * phi + ["2"] * zeta + ["3"] * (u - 1)
    )


# ---------------------------------------------------------------------------
# the cellrim rim output, built whole


def rim_output_whole(
    lam: tuple[int, ...], fmt: str, plain_x: bool = False
) -> str:
    """The stdout of ``cellrim rim`` made in one piece: the payload dict
    dumped with sorted keys, or every ascii line joined, with each reduced
    word from the diagram's ``Permutation``."""
    E, E_s = rim_diagrams(lam)
    ordered = sorted(E, key=Diagram.rows)
    words = [reduced_word(w_of_diagram(D)) for D in ordered]
    if fmt == "json":
        payload = {
            "lambda": lam,
            "rim_size": len(E),
            "special": len(E_s),
            "diagrams": [{"nodes": D.sorted_nodes} for D in ordered],
            "reduced_words": words,
        }
        return json.dumps(payload, sort_keys=True) + "\n"
    node, empty = ("x", ".") if plain_x else ("×", "·")
    lines = [f"lambda: {lam}  rim size: {len(E)}  special: {len(E_s)}"]
    for k, (D, word) in enumerate(zip(ordered, words), start=1):
        tag = "special" if D in E_s else "non-special"
        text = " ".join(f"s{i}" for i in word) if word else "(identity)"
        lines += ["", f"[{k}] {tag}  word: {text}"]
        lines.append(D.render(node_char=node, empty_char=empty))
    return "\n".join(lines) + "\n"
