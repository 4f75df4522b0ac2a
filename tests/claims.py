"""The paper's lemmas restated as small functions, for the tests to check.

None of these feed a library output or a CLI command, so they live next
to the tests.  They work on plain data where the package has no type for
it: an inversion set is a frozenset of pairs (i, j), i < j, and a filling
of a diagram is a values tuple, ``values[k]`` sitting at
``D.sorted_nodes[k]``.
"""

from __future__ import annotations

import enum
import itertools
from collections import defaultdict
from functools import reduce
from operator import or_
from typing import Iterable, Iterator

from cellrim.diagrams import (
    Diagram,
    Node,
    is_special,
    psi_append,
    rotate_180,
    w_of_diagram,
)
from cellrim.families import COLUMN_ROWS, determining_tuple
from cellrim.paths import FormClass, KPath, _chains_within, _is_path, find_form_path
from cellrim.permutations import (
    Permutation,
    VerificationError,
    generator_blocks,
    identity,
    parabolic,
    positive_pairs,
    simple,
)
from cellrim.tableaux import compositions_of, conjugate, recording_tableau, rs_pair

Pairs = frozenset[tuple[int, int]]

# ---------------------------------------------------------------------------
# permutations


def inversions(x: Permutation) -> Pairs:
    """The pairs whose bits are set in x.mask.

    >>> sorted(inversions(Permutation((2, 3, 1))))
    [(1, 3), (2, 3)]
    """
    pairs = positive_pairs(x.degree)
    return frozenset(p for k, p in enumerate(pairs) if x.mask >> k & 1)


def is_coset_rep(x: Permutation, gens: frozenset[int]) -> bool:
    """Whether x is a distinguished right coset representative.

    Holds exactly when x increases on every generator block, equivalently
    when x is the shortest element of its coset under the Young subgroup.
    """
    return all(x(i) < x(i + 1) for i in gens)


def act_on_pairs(pairs: Iterable[tuple[int, int]], x: Permutation) -> Pairs:
    """Apply x to both members of every pair, reordering increasingly.

    >>> sorted(act_on_pairs({(2, 3)}, Permutation((2, 1, 3))))
    [(1, 3)]
    """
    images = x.images
    if any(j > len(images) for _, j in pairs):
        raise ValueError(f"degree mismatch: pairs outside S_{x.degree}")
    moved = ((images[i - 1], images[j - 1]) for i, j in pairs)
    return frozenset((a, b) if a < b else (b, a) for a, b in moved)


def left_descents(x: Permutation) -> tuple[int, ...]:
    """Generator indices i with length(s_i * x) < length(x)."""
    return tuple(i for i in range(1, x.degree) if x(i) > x(i + 1))


def embedded(x: Permutation, m: int) -> Permutation:
    """The same permutation inside S_m, fixing the new points.

    >>> embedded(Permutation((2, 1)), 4).images
    (2, 1, 3, 4)
    """
    if m < x.degree:
        raise ValueError(f"cannot embed degree {x.degree} into S_{m}")
    return Permutation(x.images + tuple(range(x.degree + 1, m + 1)))


def from_word(n: int, word: Iterable[int]) -> Permutation:
    """The product of the basic transpositions named by the word.

    >>> from_word(3, [2, 1]).images
    (2, 3, 1)
    """
    x = identity(n)
    for i in word:
        x = x * simple(i, n)
    return x


def prefix_closure(elements: Iterable[Permutation]) -> set[Permutation]:
    """All prefixes of all the given permutations, by peeling right descents.

    >>> sorted(x.images for x in prefix_closure([from_word(3, [2, 1])]))
    [(1, 2, 3), (1, 3, 2), (2, 3, 1)]
    """
    closure: set[Permutation] = set()
    stack = list(elements)
    while stack:
        x = stack.pop()
        if x not in closure:
            closure.add(x)
            at = x.images.index
            descents = [i for i in range(1, x.degree) if at(i) > at(i + 1)]
            stack.extend(x * simple(i, x.degree) for i in descents)
    return closure


def same_block_pairs(gens: frozenset[int], n: int) -> Pairs:
    """All pairs (i, j) with i and j in the same generator block."""
    blocks = generator_blocks(gens, n)
    return frozenset(p for block in blocks for p in itertools.combinations(block, 2))


def in_young_subgroup(x: Permutation, gens: frozenset[int]) -> bool:
    """Whether x maps every generator block of S_n to itself."""
    blocks = generator_blocks(gens, x.degree)
    return all({x(k) for k in block} == set(block) for block in blocks)


def coset_decompose(
    x: Permutation, gens: frozenset[int]
) -> tuple[Permutation, Permutation]:
    """Split x as u * d with u in the Young subgroup and d a coset rep.

    On each generator block, d takes the images of x in increasing order;
    u then rearranges the block internally.

    >>> u, d = coset_decompose(Permutation((3, 1, 2)), frozenset({1}))
    >>> u.images, d.images
    ((2, 1, 3), (1, 3, 2))
    """
    blocks = generator_blocks(frozenset(gens), x.degree)
    u, d = coset_decompose_images(x.images, blocks)
    return Permutation(u), Permutation(d)


def coset_decompose_images(
    images: tuple[int, ...], blocks: tuple[tuple[int, ...], ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``coset_decompose`` on one-line images, for the generator blocks
    ``blocks``: returns the images of u and of d.

    >>> coset_decompose_images((3, 1, 2), ((1, 2), (3,)))
    ((2, 1, 3), (1, 3, 2))
    """
    d = [0] * len(images)
    for block in blocks:
        for k, v in zip(block, sorted(images[k - 1] for k in block)):
            d[k - 1] = v
    d_inverse = [0] * len(images)
    for k, v in enumerate(d, 1):
        d_inverse[v - 1] = k
    # u = x * d^-1: first x, then d^-1
    return tuple(d_inverse[v - 1] for v in images), tuple(d)


def induced_rim(rim: Iterable[Permutation], gens: frozenset[int]) -> set[Permutation]:
    """Transport the rim of a prefix-closed subset of the Young subgroup to
    S_n by multiplying each element by the longest coset representative.

    >>> sorted(x.images for x in induced_rim([identity(3)], frozenset({1})))
    [(2, 3, 1)]
    """
    rim = set(rim)
    for x in rim:
        if not in_young_subgroup(x, gens):
            raise ValueError(f"{x!r} is not in the Young subgroup")
    return {x * parabolic(frozenset(gens), x.degree).longest_rep for x in rim}


# ---------------------------------------------------------------------------
# fillings of diagrams


def filling(D: Diagram, values: Iterable[int]) -> tuple[int, ...]:
    """Validate a filling of D: its values must be exactly 1..|D|."""
    values = tuple(values)
    if sorted(values) != list(range(1, D.size + 1)):
        raise ValueError(f"entries are not a bijection onto 1..n: {values!r}")
    return values


def act_on_values(values: tuple[int, ...], x: Permutation) -> tuple[int, ...]:
    """Replace every entry k by x(k)."""
    if x.degree != len(values):
        raise ValueError(f"degree mismatch: {x.degree} != {len(values)}")
    return tuple(x(v) for v in values)


def row_filling(D: Diagram) -> tuple[int, ...]:
    """The filling by rows, top to bottom and left to right."""
    return tuple(range(1, D.size + 1))


def column_filling(D: Diagram) -> tuple[int, ...]:
    """The filling by columns, left to right and top to bottom."""
    by_cols = sorted(D.nodes, key=lambda node: (node[1], node[0]))
    return tuple(by_cols.index(node) + 1 for node in D.sorted_nodes)


def is_standard(D: Diagram, values: tuple[int, ...]) -> bool:
    """Whether entries increase weakly along the componentwise node order."""
    cells = list(zip(D.sorted_nodes, values))
    return not any(
        a1 <= a2 and b1 <= b2 and v1 > v2
        for (a1, b1), v1 in cells
        for (a2, b2), v2 in cells
    )


def standard_tableaux(D: Diagram) -> Iterator[tuple[int, ...]]:
    """All standard fillings of D: the linear extensions of the
    componentwise order on its nodes, in a fixed order."""
    nodes = D.sorted_nodes
    values = [0] * len(nodes)

    def grow(step: int, remaining: list[int]) -> Iterator[tuple[int, ...]]:
        if not remaining:
            yield tuple(values)
        for k in remaining:
            a, b = nodes[k]
            rest = [o for o in remaining if o != k]
            if not any(nodes[o][0] <= a and nodes[o][1] <= b for o in rest):
                values[k] = step
                yield from grow(step + 1, rest)

    return grow(1, list(range(len(nodes))))


def prefix_tableau_bijection(
    D: Diagram,
) -> tuple[tuple[Permutation, ...], tuple[tuple[int, ...], ...]]:
    """The prefixes of w_D alongside the standard fillings of D, after
    checking that acting on the row filling by the prefixes gives every
    standard filling exactly once."""
    prefixes = sorted(prefix_closure([w_of_diagram(D)]), key=lambda x: x.sort_key)
    tableaux = tuple(standard_tableaux(D))
    images = {act_on_values(row_filling(D), u) for u in prefixes}
    if len(images) != len(prefixes) or images != set(tableaux):
        raise VerificationError(
            f"prefixes of w_D do not match the standard fillings for {D!r}"
        )
    return tuple(prefixes), tableaux


def hat_diagram(D: Diagram) -> Diagram:
    """Shift D one column right and hang a lone node on a new bottom row.

    >>> hat_diagram(Diagram({(1, 1)})).sorted_nodes
    ((1, 2), (2, 1))
    """
    return Diagram(frozenset((a, b + 1) for a, b in D.nodes) | {(D.row_count + 1, 1)})


def transport_keeps_specialness(D: Diagram) -> bool:
    """Whether ``psi_append``, with one, two or three rows, and
    ``rotate_180`` keep the specialness of an admissible D: every image is
    special exactly when D is.

    A diagram is special when no two rows and two columns meet in the
    pattern ``[[1, 0], [0, 1]]``.  A half turn maps that pattern to
    itself, and adding rows keeps every pattern D already has.  For a
    special D the columns are nested, so the greedy match of rows 1..r in
    ``psi_append`` cannot complete before the first full column, whose
    rows alone complete it; the new nodes stack in that column, and each
    one-node row lies inside every other row.

    >>> from cellrim.diagrams import young_diagram
    >>> transport_keeps_specialness(young_diagram((2, 1)))
    True
    >>> transport_keeps_specialness(Diagram.from_rows([(1, 2), (2, 3)]))
    True
    """
    images = [rotate_180(D)] + [psi_append(D, k) for k in (1, 2, 3)]
    return all(is_special(E) == is_special(D) for E in images)


# ---------------------------------------------------------------------------
# path families


def core_counts_hold(z: tuple[int, int, int, int], t: int, u: int) -> bool:
    """The counting identities of a maximal ordered t-subfamily whose
    length profile (singletons, pairs, triples, quadruples) is z: t
    constituents over 2t+u+1 nodes, t+u+1 of them beyond each
    constituent's first, and 2t-u-1 short of four nodes each.

    >>> core_counts_hold((0, 2, 2, 1), 5, 3), core_counts_hold((0, 1, 4, 0), 5, 3)
    (True, True)
    >>> core_counts_hold((1, 1, 2, 1), 5, 3)
    False
    """
    z1, z2, z3, z4 = z
    return (
        z1 + z2 + z3 + z4 == t
        and z1 + 2 * z2 + 3 * z3 + 4 * z4 == 2 * t + u + 1
        and z2 + 2 * z3 + 3 * z4 == t + u + 1
        and 3 * z1 + 2 * z2 + z3 == 2 * t - u - 1
    )


def row_distribution_holds(pi: KPath, form: FormClass) -> bool:
    """Whether a full family of the given form on rows (x, y, z, 1) puts
    each constituent length on the rows the counting argument forces:
    singletons on rows of size s, pairs on rows of sizes s and t, and
    exactly one triple (form B) or none (form A) on the fourth row, that
    one crossing the rows of sizes s and t.

    A path strictly descends, so it meets each row at most once.  In form
    A the core has one 4-path, u-1 3-paths and t-u 2-paths.  The 4-path
    takes the only node of row 4, so every 3-path crosses the rows of
    sizes s, t and u; that fills the u-row, so every 2-path crosses the
    s-row and the t-row; that fills the t-row and leaves s-t nodes of the
    s-row to the singletons.  In form B the core has t paths over 2t+u+1
    nodes while the rows allow at most t + t + u + 1 hits, so every bound
    is tight: each path crosses the s-row and the t-row, exactly one
    3-path takes the row-4 node, and the singletons are the s-t nodes
    left in the s-row.  A triple off row 4 lies in rows 1 to 3.

    >>> from cellrim.diagrams import young_diagram
    >>> D = young_diagram((2, 1, 1, 1))
    >>> quad = ((1, 1), (2, 1), (3, 1), (4, 1))
    >>> row_distribution_holds(KPath(D, (quad, ((1, 2),))), FormClass.A)
    True
    >>> singles = KPath(D, tuple((n,) for n in D.sorted_nodes))
    >>> row_distribution_holds(singles, FormClass.A)  # singletons on short rows
    False
    """
    sizes = pi.diagram.row_composition()
    s, t, u = sorted(sizes[:3], reverse=True)
    by_length: dict[int, list[tuple]] = defaultdict(list)
    for c in pi.constituents:
        by_length[len(c)].append(c)

    def crossed(chains: list[tuple]) -> set[int]:
        return {sizes[a - 1] for c in chains for a, _ in c}

    on_fourth = [c for c in by_length[3] if any(a == 4 for a, _ in c)]
    off_fourth = [c for c in by_length[3] if c not in on_fourth]
    return (
        (not by_length[1] or s > t and crossed(by_length[1]) == {s})
        and (not by_length[2] or t > u and crossed(by_length[2]) <= {s, t})
        and all(a <= 3 for c in off_fourth for a, _ in c)
        and len(on_fourth) == (1 if form is FormClass.B else 0)
        and all(
            sorted(sizes[a - 1] for a, _ in c if a != 4) == sorted((s, t))
            for c in on_fourth
        )
    )


def column_family(D: Diagram) -> tuple[tuple[Node, ...], ...]:
    """The columns of D, left to right, each listed top to bottom."""
    return tuple(
        tuple((a, b) for a in column) for b, column in enumerate(D.columns(), 1)
    )


def special_member_path_is_columns(pi: KPath, form: FormClass) -> bool:
    """Whether the answer ``find_form_path`` gives a closed-family member,
    when the member is special, is its column family, of form A; true of
    every member that is not special.

    Proved: the columns of a special D are an ordered full family of form
    A.  Each column is a path, the columns are disjoint and cover D, and
    a column listed earlier lies strictly left of every later one, so
    the family is ordered.  D is a Young diagram with rows and columns
    shuffled, so its column lengths are the conjugate of its row sizes
    (s, t, u, 1): one column of four nodes, u-1 of three, t-u of two and
    s-t of one, the form-A profile (s-t, t-u, u-1, 1).

    Only checked: that the search returns exactly this family.  It
    returns the first ordered core in lexicographic order, which on a
    special diagram outside the families can be another form-A family:

    >>> special_member_path_is_columns(*find_form_path(
    ...     Diagram.from_rows([(1, 2), (2,), (2,), (2,)])))
    False
    >>> from cellrim.families import FamilyParams, StuShape, family_diagram
    >>> member = family_diagram(FamilyParams("F", (2,)), StuShape(3, 2, 1, (3, 1, 2)))
    >>> special_member_path_is_columns(*find_form_path(member))
    True
    """
    D = pi.diagram
    if not is_special(D):
        return True
    return form is FormClass.A and pi.constituents == column_family(D)


def member_form_is_specialness(pi: KPath, form: FormClass) -> bool:
    """Whether the answer ``find_form_path`` gives a closed-family member
    has form A exactly when the member is special.

    Proved: a special D has form A.  Its columns are an ordered full
    family of form A (``special_member_path_is_columns``), and the search
    returns form A whenever such a family exists.

    Only checked: that a member that is not special has no ordered full
    family of form A.  This is a fact about the families, not about all
    diagrams; most admissible (x, y, z, 1) diagrams that are not special
    still have form A:

    >>> member_form_is_specialness(*find_form_path(
    ...     Diagram.from_rows([(1,), (1,), (1,), (2,)])))
    False
    >>> from cellrim.families import FamilyParams, StuShape, family_diagram
    >>> shape = StuShape(8, 5, 3, (3, 8, 5))
    >>> member = family_diagram(FamilyParams("M", (7, 8), counts=(1, 3, 1, 0, 3)), shape)
    >>> is_special(member), member_form_is_specialness(*find_form_path(member))
    (False, True)
    """
    return (form is FormClass.A) == is_special(pi.diagram)


def recut_pair(pi: KPath) -> tuple[int, int, KPath] | None:
    """The first two 3-chains of pi, by their places i < j in the family
    and in lexicographic order of (i, j), whose six nodes split into a
    path of four nodes and a path of two, and the family with those two
    paths in their places; None when no pair splits so.

    >>> D = Diagram.from_rows([(1, 2), (1, 2), (2,), (2,)])
    >>> pi = KPath(D, (((1, 1), (2, 1), (3, 2)), ((1, 2), (2, 2), (4, 2))))
    >>> i, j, recut = recut_pair(pi)
    >>> (i, j), recut.constituents
    ((0, 1), (((1, 1), (2, 1), (3, 2), (4, 2)), ((1, 2), (2, 2))))
    """
    cs = pi.constituents
    triples = [k for k, c in enumerate(cs) if len(c) == 3]
    for i, j in itertools.combinations(triples, 2):
        six = sorted(cs[i] + cs[j])
        for four in itertools.combinations(six, 4):
            two = tuple(x for x in six if x not in four)
            if _is_path(four) and _is_path(two):
                family = list(cs)
                family[i], family[j] = four, two
                return i, j, KPath(pi.diagram, family)
    return None


def form_b_path_recuts_to_conjugate_type(pi: KPath, form: FormClass) -> bool:
    """Whether the answer ``find_form_path`` gives a closed-family member,
    when it has form B, re-cuts on two of its 3-chains (``recut_pair``)
    into a family of the conjugate type, the pair being the 3-chain that
    holds the row-4 node and the next 3-chain in the family; true of
    every form-A answer.

    Proved: a re-cut family has the conjugate type.  The form-B profile
    on rows (s, t, u, 1) is (s-t, t-u-1, u+1, 0) constituents of one,
    two, three and four nodes.  Trading two 3-chains for a 4-chain and a
    2-chain, 3 + 3 = 4 + 2, gives (s-t, t-u, u-1, 1), the form-A profile,
    which is conjugate(rows); the six nodes stay, so the support is
    still D.  A family of the conjugate type makes D admissible.

    Only checked: that some pair of 3-chains re-cuts, and that the first
    pair that does is the one named above.  Two 3-chains need not re-cut:

    >>> D = Diagram.from_rows([(1, 2), (1, 2), (1, 2)])
    >>> recut_pair(KPath(D, (((1, 1), (2, 1), (3, 1)), ((1, 2), (2, 2), (3, 2)))))
    >>> from cellrim.families import FamilyParams, StuShape, family_diagram
    >>> shape = StuShape(8, 5, 3, (3, 8, 5))
    >>> member = family_diagram(FamilyParams("M", (7, 8), counts=(1, 3, 1, 0, 3)), shape)
    >>> form_b_path_recuts_to_conjugate_type(*find_form_path(member))
    True
    """
    if form is not FormClass.B:
        return True
    found = recut_pair(pi)
    if found is None:
        return False
    i, j, recut = found
    D = pi.diagram
    triples = [k for k, c in enumerate(pi.constituents) if len(c) == 3]
    fourth = [k for k in triples if any(a == 4 for a, _ in pi.constituents[k])]
    return (
        recut.path_type() == conjugate(D.row_composition())
        and recut.support == D.nodes
        and fourth == [i]
        and triples[triples.index(i) + 1] == j
    )


def form_b_path_is_recut_columns(pi: KPath, form: FormClass) -> bool:
    """Whether the answer ``find_form_path`` gives a closed-family member,
    when it has form B, is the member's columns re-cut at its 4-node
    column; true of every form-A answer.

    Read off the columns of D: f is the one 4-node column; theta is the
    smaller of the counts of one-node row-2 columns left of f and of
    one-node row-3 columns right of f; c_1 < .. < c_theta are the first
    theta of those row-2 columns, d_1 < .. < d_theta the first theta of
    those row-3 columns.  The re-cut family is every other column, whole,
    with the chains (2,c_1),(3,f),(4,f), then (2,c_i),(3,d_(i-1)) for
    i = 2..theta, then (1,f),(2,f),(3,d_theta), all listed by the column
    of their top node.

    Proved: for theta >= 1 this is a full family, with the form-B profile
    when the columns are right in number.  Each chain is a path, as
    c_i < f < d_j, and the chains cover f, the c_i and the d_i once each.
    They trade the 4-node column and 2*theta one-node columns, 4 + 2*theta
    nodes, for two 3-chains and theta-1 2-chains, 6 + 2*(theta-1) nodes:
    columns of profile (a1, a2, a3, 1), by one, two, three and four nodes,
    become (a1 - 2*theta, a2 + theta - 1, a3 + 2, 0).  That is the form-B
    profile (s-t, t-u-1, u+1, 0) exactly when D has s-t+2*theta one-node,
    t-u-theta two-node and u-1 three-node columns.

    Only checked: that the search returns exactly this family, chain for
    chain.  The first theta columns matter: the last theta, on either
    row, give another family.

    >>> from cellrim.families import FamilyParams, StuShape, family_diagram
    >>> shape = StuShape(8, 5, 3, (3, 8, 5))
    >>> member = family_diagram(FamilyParams("M", (7, 8), counts=(1, 3, 1, 0, 3)), shape)
    >>> form_b_path_is_recut_columns(*find_form_path(member))
    True
    """
    if form is not FormClass.B:
        return True
    D = pi.diagram
    columns = D.columns()
    f = next(b for b, rows in enumerate(columns, 1) if len(rows) == 4)
    c = [b for b, rows in enumerate(columns[: f - 1], 1) if rows == (2,)]
    d = [b for b, rows in enumerate(columns[f:], f + 1) if rows == (3,)]
    theta = min(len(c), len(d))
    if theta == 0:
        return False
    c, d = c[:theta], d[:theta]
    recut = [((2, c[0]), (3, f), (4, f)), ((1, f), (2, f), (3, d[-1]))]
    recut += [((2, c[i]), (3, d[i - 1])) for i in range(1, theta)]
    whole = [chain for chain in column_family(D) if chain[0][1] not in {f, *c, *d}]
    family = sorted(recut + whole, key=lambda chain: chain[0][1])
    return tuple(family) == pi.constituents


def _chain_masks(
    nodes: Iterable[Node], lengths: frozenset[int]
) -> tuple[list[tuple[Node, ...]], list[int], dict[Node, int]]:
    """The chains of _chains_within and bitmasks over their positions:
    through[x] holds the chains through node x, follow[i] those that may
    be listed after chains[i] in an ordered family.  Chain j may not
    follow chain i exactly when a node of j lies weakly below and weakly
    left of a node of i (which covers a shared node)."""
    chains = _chains_within(nodes, lengths)
    through: dict[Node, int] = defaultdict(int)
    for j, chain in enumerate(chains):
        for node in chain:
            through[node] |= 1 << j
    blocked = {x: reduce(or_, (m for y, m in through.items()
                               if y[0] >= x[0] and y[1] <= x[1])) for x in through}
    everything = (1 << len(chains)) - 1
    follow = [everything & ~reduce(or_, map(blocked.get, c)) for c in chains]
    return chains, follow, through


def _length_sequences(total: int, slots: int, cap: int) -> Iterator[tuple[int, ...]]:
    """Sequences of the given many lengths summing to total, each between
    1 and cap, in decreasing lexicographic order."""
    if slots == 0:
        if total == 0:
            yield ()
        return
    for first in range(min(cap, total - slots + 1), 0, -1):
        for rest in _length_sequences(total - first, slots - 1, cap):
            yield (first,) + rest


def order_equivalent(pi: KPath) -> KPath:
    """An ordered path family with the same support.

    The constituent count is the least possible for the support; subject
    to that, the tuple of listed lengths is lexicographically maximal, and
    the flattened node sequence breaks remaining ties, least first.  So
    applying the function twice gives the same family as applying it once.
    """
    support = pi.support
    row_counts: dict[int, int] = defaultdict(int)
    for a, _ in support:
        row_counts[a] += 1
    all_lengths = frozenset(range(1, pi.diagram.row_count + 1))
    chains, follow, _ = _chain_masks(support, all_lengths)
    by_len: dict[int, int] = defaultdict(int)
    for j, chain in enumerate(chains):
        by_len[len(chain)] |= 1 << j

    def cover(cand: int, lengths: tuple[int, ...]) -> tuple | None:
        if not lengths:  # the lengths sum to the support size
            return ()
        pool = cand & by_len[lengths[0]]
        while pool:
            i = (pool & -pool).bit_length() - 1
            pool &= pool - 1
            rest = cover(cand & follow[i], lengths[1:])
            if rest is not None:
                return (chains[i],) + rest
        return None

    cap = max(by_len, default=0)
    for k in range(max(row_counts.values()), len(support) + 1):
        for lengths in _length_sequences(len(support), k, cap):
            full = cover((1 << len(chains)) - 1, lengths)
            if full is not None:
                return KPath(pi.diagram, full)
    raise VerificationError("no ordered family covers the support")


def straighten(pi: KPath) -> Diagram:
    """Slide each constituent into its own column, keeping rows.

    The family must cover its host diagram.  An ordered input makes the
    row filling of the host a standard filling of the result, and a form-A
    input makes the result special.
    """
    if pi.support != pi.diagram.nodes:
        raise ValueError("family must cover the whole diagram")
    columns = enumerate(pi.constituents, 1)
    return Diagram(frozenset((a, j) for j, chain in columns for a, _ in chain))


# ---------------------------------------------------------------------------
# column moves on determining tuples


class ColumnOp(enum.Enum):
    """Local column moves preserving the determining-tuple pattern.

    C1 through C4 swap adjacent columns reading (1,2), (3,2), (2,1b) or
    (3,1b); C5 splits a length-two column into a row-3 single followed by
    a row-2 single.  Each value is the run of entries the move needs.
    """

    C1 = ("1", "2")
    C2 = ("3", "2")
    C3 = ("2", "1b")
    C4 = ("3", "1b")
    C5 = ("2",)


def diagram_from_tuple(alpha: tuple[str, ...]) -> Diagram:
    """The unique four-row diagram with the given column profile.

    >>> diagram_from_tuple(("4",)).sorted_nodes
    ((1, 1), (2, 1), (3, 1), (4, 1))
    """
    columns = enumerate(alpha, 1)
    return Diagram(frozenset((a, j) for j, e in columns for a in COLUMN_ROWS[e]))


def apply_column_op(E: Diagram, op: ColumnOp, j: int) -> Diagram:
    """Apply one column move at column j (1-based).  The tuple pattern at
    j must match the move; the word of E is a prefix of the word of the
    result."""
    entries = list(determining_tuple(E))
    width = len(op.value)
    if j < 1 or tuple(entries[j - 1 : j - 1 + width]) != op.value:
        raise ValueError(f"columns from {j} do not read {op.value} as {op.name} needs")
    moved = ("1b", "1") if op is ColumnOp.C5 else op.value[::-1]
    entries[j - 1 : j - 1 + width] = moved
    return diagram_from_tuple(tuple(entries))


# ---------------------------------------------------------------------------
# tableaux and partitions


def insertion_tableau(x: Permutation):
    return rs_pair(x)[0]


def right_equivalent(x: Permutation, y: Permutation) -> bool:
    """Whether x and y lie in the same right cell: whether they share
    their recording tableau.

    >>> right_equivalent(Permutation((2, 1, 3)), Permutation((3, 1, 2)))
    True
    >>> right_equivalent(Permutation((2, 1, 3)), Permutation((1, 3, 2)))
    False
    """
    if x.degree != y.degree:
        raise ValueError(f"degree mismatch: {x.degree} != {y.degree}")
    return recording_tableau(x) == recording_tableau(y)


def is_partition(parts: tuple[int, ...]) -> bool:
    return all(a >= b for a, b in zip(parts, parts[1:])) and all(p > 0 for p in parts)


def dominates(upper: tuple[int, ...], lower: tuple[int, ...]) -> bool:
    """Dominance order on partitions of the same total: every prefix sum of
    upper is at least the matching prefix sum of lower.

    >>> dominates((3, 1), (2, 2)), dominates((2, 2), (3, 1))
    (True, False)
    """
    if sum(upper) != sum(lower):
        raise ValueError(f"totals differ: {upper!r} vs {lower!r}")
    pad = max(len(upper), len(lower))
    sums = zip(*(itertools.accumulate(p + (0,) * pad) for p in (upper, lower)))
    return all(u >= l for u, l in sums)


def partitions_of(n: int) -> Iterator[tuple[int, ...]]:
    """All partitions of n, in the order induced by compositions_of."""
    return filter(is_partition, compositions_of(n))
