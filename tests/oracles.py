"""Slow, independent reference implementations used to pin expected values.

Everything in this module works on plain tuples and sets, not on the package
types, so that a bug in the package cannot leak into an expected value.  The
conventions match the package: one-line notation is 1-based and products
compose left to right, so ``compose(a, b)[k-1]`` is the image of ``k`` under
"first a, then b".

There are two exceptions.  The ideal by enumeration runs the package's two
membership routes on every coset representative: it checks the reverse
search in ``families``, which tests only the covers it reaches.  The
single-node row extension by trial tests admissibility with the package's
``row_insert``: it checks the placement ``diagrams.psi_append`` builds from
Schensted's theorem, not the insertion itself, which has oracles of its own.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from functools import lru_cache

from cellrim.diagrams import min_column_diagram
from cellrim.paths import is_admissible
from cellrim.permutations import (
    Permutation,
    VerificationError,
    composition_generators,
    parabolic,
)
from cellrim.tableaux import StandardYoungTableau, recording_tableau, row_insert

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
    longest, target = _cell_route_data(lam)
    word = [0] * e.degree
    for w_k, e_k in zip(longest, e.images):
        word[e_k - 1] = w_k
    tableau = StandardYoungTableau(tuple(map(tuple, row_insert(word))))
    return tableau == target, is_admissible(min_column_diagram(e, lam))


@lru_cache(maxsize=None)
def _cell_route_data(
    lam: tuple[int, ...],
) -> tuple[tuple[int, ...], StandardYoungTableau]:
    longest = parabolic(composition_generators(lam), sum(lam)).longest
    return longest.images, recording_tableau(longest)


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


def ordered_cores_by_backtracking(
    nodes: frozenset[tuple[int, int]], length_counts: dict[int, int]
):
    """Ordered chain families with the prescribed multiset of lengths, in
    lexicographic order of their flattened node sequences.

    The plain backtracking search: every candidate chain, in sorted order,
    is tested against the nodes used so far and against each chain
    already listed.
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

    def precedes(earlier, later):
        return all(
            b < b2 for a, b in earlier for a2, b2 in later if a <= a2
        )

    def extend(prefix, used, counts):
        if len(prefix) == total:
            yield tuple(prefix)
            return
        for chain in chains:
            if counts[len(chain)] == 0 or used.intersection(chain):
                continue
            if not all(precedes(c, chain) for c in prefix):
                continue
            counts[len(chain)] -= 1
            prefix.append(chain)
            yield from extend(prefix, used.union(chain), counts)
            prefix.pop()
            counts[len(chain)] += 1

    yield from extend([], frozenset(), dict(length_counts))
