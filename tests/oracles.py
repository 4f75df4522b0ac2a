"""Slow, independent reference implementations used to pin expected values.

Everything in this module works on plain tuples and sets, not on the package
types, so that a bug in the package cannot leak into an expected value.  The
conventions match the package: one-line notation is 1-based and products
compose left to right, so ``compose(a, b)[k-1]`` is the image of ``k`` under
"first a, then b".
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from functools import lru_cache

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


# ---------------------------------------------------------------------------
# diagrams as plain frozensets of (row, column) nodes


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

    def precedes(earlier, later):
        return all(
            b < b2 for a, b in earlier for a2, b2 in later if a <= a2
        )

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
