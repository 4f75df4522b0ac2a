"""Disjoint path families in diagrams and their form classification.

A path steps strictly down the rows of a diagram without ever moving
left: consecutive nodes (a, b), (a', b') satisfy a < a' and b <= b'.  A
k-path is a sequence of k pairwise disjoint paths, and it is ordered
when for constituents listed earlier and later, any node of the earlier
one lying weakly above a node of the later one is strictly to its left.

The subsequence type of a diagram records, for each k, how many extra
nodes a best k-path covers beyond a best (k-1)-path.  A diagram whose
subsequence type is the conjugate of its row sizes is admissible; these
are exactly the diagrams this package feeds to the form classifier.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import accumulate

# subsequence_type stays bound: bench/tracing.py and callers read it here
from .diagrams import Diagram, Node, is_admissible, subsequence_type
from .permutations import VerificationError


def _is_path(nodes: tuple[Node, ...]) -> bool:
    return all(
        a < a2 and b <= b2 for (a, b), (a2, b2) in zip(nodes, nodes[1:])
    )


@dataclass(frozen=True, slots=True)
class KPath:
    """A sequence of pairwise disjoint paths inside a host diagram.

    >>> from .diagrams import young_diagram
    >>> pi = KPath(young_diagram((2, 2)), (((1, 1), (2, 1)), ((1, 2), (2, 2))))
    >>> pi.size, pi.lengths(), pi.path_type()
    (4, (2, 2), (2, 2))
    """

    diagram: Diagram
    constituents: tuple[tuple[Node, ...], ...]

    def __post_init__(self) -> None:
        constituents = tuple(tuple(c) for c in self.constituents)
        object.__setattr__(self, "constituents", constituents)
        host = self.diagram.nodes
        seen: set[Node] = set()
        for nodes in constituents:
            if not nodes:
                raise ValueError("constituent paths must be non-empty")
            if not _is_path(nodes):
                raise ValueError(f"not a path: {nodes}")
            if not host.issuperset(nodes):
                raise ValueError(f"nodes outside the diagram: {nodes}")
            if seen.intersection(nodes):
                raise ValueError("constituent paths must be disjoint")
            seen.update(nodes)

    @property
    def k(self) -> int:
        return len(self.constituents)

    @property
    def size(self) -> int:
        return sum(len(c) for c in self.constituents)

    @property
    def support(self) -> frozenset[Node]:
        return frozenset(n for c in self.constituents for n in c)

    def lengths(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.constituents)

    def path_type(self) -> tuple[int, ...]:
        """Constituent lengths sorted non-increasingly, a partition."""
        return tuple(sorted(self.lengths(), reverse=True))


class FormClass(enum.Enum):
    """Outcome of classifying a full-support ordered path family."""

    A = "A"
    B = "B"
    NEITHER = "neither"


def _precedes_ok(earlier: tuple[Node, ...], later: tuple[Node, ...]) -> bool:
    """Whether the pair condition for orderedness holds in this order."""
    return all(
        b < b2 for a, b in earlier for a2, b2 in later if a <= a2
    )


def is_ordered(pi: KPath) -> bool:
    """Whether every earlier constituent stays strictly left of every
    later one wherever their rows weakly agree.

    >>> from .diagrams import Diagram
    >>> D = Diagram.from_rows([(1, 2)])
    >>> is_ordered(KPath(D, (((1, 2),), ((1, 1),))))
    False
    >>> is_ordered(KPath(D, (((1, 1),), ((1, 2),))))
    True
    """
    cs = pi.constituents
    return all(
        _precedes_ok(cs[j], cs[j2])
        for j in range(len(cs))
        for j2 in range(j + 1, len(cs))
    )


def _chains_within(
    nodes: Iterable[Node], lengths: frozenset[int]
) -> list[tuple[Node, ...]]:
    """All paths of the requested lengths through the given nodes, in
    lexicographic order: starts and successors are visited sorted, and a
    chain is listed before its extensions."""
    found: list[tuple[Node, ...]] = []
    ordered_nodes = sorted(nodes)
    after = {x: [y for y in ordered_nodes if y[0] > x[0] and y[1] >= x[1]]
             for x in ordered_nodes}
    longest = max(lengths, default=0)

    def grow(chain: tuple[Node, ...]) -> None:
        if len(chain) in lengths:
            found.append(chain)
        if len(chain) < longest:
            for node in after[chain[-1]]:
                grow(chain + (node,))

    for start in ordered_nodes:
        grow((start,))
    return found


def family_with_lengths(
    D: Diagram, lengths: tuple[int, ...]
) -> KPath | None:
    """A disjoint chain family in D with exactly the given lengths.

    Orderedness is not required, only disjointness; None when no such
    family exists.  With lengths summing to the node count this decides
    whether the diagram is covered by a family of that type.

    >>> D = Diagram({(1, 1), (2, 1), (1, 2)})
    >>> family_with_lengths(D, (2, 1)).path_type()
    (2, 1)
    >>> family_with_lengths(D, (3,)) is None
    True
    """
    want = tuple(sorted(lengths, reverse=True))
    if not want or min(want) < 1:
        raise ValueError(f"lengths must be positive, got {lengths}")
    by_length: dict[int, list[tuple[Node, ...]]] = defaultdict(list)
    for chain in _chains_within(D.nodes, frozenset(want)):
        by_length[len(chain)].append(chain)

    def search(
        remaining: frozenset[Node], todo: tuple[int, ...]
    ) -> tuple[tuple[Node, ...], ...] | None:
        if not todo:
            return ()
        for chain in by_length[todo[0]]:
            if remaining.issuperset(chain):
                rest = search(remaining.difference(chain), todo[1:])
                if rest is not None:
                    return (chain,) + rest
        return None

    found = search(frozenset(D.nodes), want)
    return None if found is None else KPath(D, found)


def _form_profiles(s: int, t: int, u: int) -> dict[tuple, FormClass]:
    """Each form by its profile for the sorted head (s, t, u), form A
    first: how many constituents have one, two, three and four nodes.
    Form B needs t > u.  Each profile forces t constituents to cover
    2t+u+1 nodes."""
    profiles = {(s - t, t - u, u - 1, 1): FormClass.A}
    if t > u:
        profiles[s - t, t - u - 1, u + 1, 0] = FormClass.B
    return profiles


def _form_head(D: Diagram) -> list[int]:
    """The sorted head (s, t, u) of a form host, whose row sizes are three
    parts followed by a single 1."""
    sizes = D.row_composition()
    if len(sizes) != 4 or sizes[3] != 1:
        raise ValueError(
            "row sizes must be three parts followed by a single 1, got "
            f"{sizes}"
        )
    return sorted(sizes[:3], reverse=True)


def classify_form(pi: KPath) -> FormClass:
    """Classify a full ordered family by its constituent length profile.

    The sorted head (s, t, u) is read off the host's rows, which must be
    three parts followed by a single 1.  The family must be ordered, with
    s constituents covering all s+t+u+1 nodes; its form is the one whose
    profile it has.  A path meets each row at most once, so every
    constituent has at most four nodes.
    """
    s, t, u = _form_head(pi.diagram)
    if pi.k != s or pi.size != s + t + u + 1:
        raise ValueError(
            f"expected {s} constituents covering {s + t + u + 1} nodes, "
            f"got {pi.k} covering {pi.size}"
        )
    if not is_ordered(pi):
        raise ValueError("family is not ordered")
    lengths = pi.lengths()
    z = tuple(lengths.count(k) for k in (1, 2, 3, 4))
    return _form_profiles(s, t, u).get(z, FormClass.NEITHER)


def _first_core(
    candidates: list[list[tuple[Node, ...]]], need: tuple[int, ...]
) -> tuple[tuple[Node, ...], ...] | None:
    """The first ordered core, in lexicographic order of its flattened
    node sequence when each list is sorted, whose k-th chain is drawn
    from candidates[k] and which has need[j] chains of j+2 nodes; None
    when there is none.

    A chain may follow a prefix exactly when each of its nodes lies
    strictly right of every prefix node on a row weakly above (which
    rules out a shared node), so what a prefix admits next depends only
    on the running maximum, down the rows, of its rightmost column on
    each row and on the lengths still needed.  A state that once failed
    is recorded and never expanded again; this cuts no core.
    """
    dead: set[tuple] = set()

    def extend(depth: int, right: tuple, need: tuple) -> tuple | None:
        if depth == len(candidates):
            return ()
        reach = tuple(accumulate(right, max))
        if (reach, need) in dead:
            return None
        for chain in candidates[depth]:
            j = len(chain) - 2
            if not need[j]:
                continue
            after = list(right)
            for a, b in chain:
                if b <= reach[a - 1]:
                    break
                after[a - 1] = b
            else:
                less = need[:j] + (need[j] - 1,) + need[j + 1:]
                rest = extend(depth + 1, tuple(after), less)
                if rest is not None:
                    return (chain,) + rest
        dead.add((reach, need))
        return None

    return extend(0, (0, 0, 0, 0), need)


def find_form_path(D: Diagram) -> tuple[KPath, FormClass]:
    """A full-support ordered family of one of the two forms.

    Searches for form A before form B, so whenever a form-A family
    exists it is the one returned.  The chains are enumerated once for
    both forms; each form's profile fixes its core's length counts, and
    the search returns the first ordered core in lexicographic order,
    which with the s-t nodes it misses, as singletons, has that profile.

    The t core paths cover 2t+u+1 nodes, and the rows of sizes s, t, u
    and 1 hold at most t, t, u and 1 of them, as a path meets each row
    at most once.  Every bound is tight, so each core path meets the
    s-row and the t-row (with tied parts, any other row of size t) once,
    and the leftover nodes lie on the s-row.  So only the chains meeting
    both rows are candidates.  Ordered constituents sharing a row are
    listed by their columns there: the k-th core chain holds the k-th
    t-row node, and the family is listed by s-row column, which keeps
    the core's order.  A path meeting that row right of a singleton
    comes after it and has no node on or below the row left of the
    singleton's column; one meeting it left of a singleton comes before
    it and has no node on or above the row right of that column.  So the
    family is ordered, and only the answer is validated and tested for
    order.
    """
    s, t, u = _form_head(D)
    if not is_admissible(D):
        raise ValueError("only admissible diagrams carry form families")
    sizes = D.row_composition()
    row, t_row, _ = sorted((1, 2, 3), key=lambda a: -sizes[a - 1])
    slot = {b: k for k, b in enumerate(D.rows()[t_row - 1])}
    candidates: list[list[tuple[Node, ...]]] = [[] for _ in slot]
    for chain in _chains_within(D.nodes, frozenset({2, 3, 4})):
        columns = dict(chain)
        if row in columns and t_row in columns:
            candidates[slot[columns[t_row]]].append(chain)
    for profile, form in _form_profiles(s, t, u).items():
        core = _first_core(candidates, profile[1:])
        if core is not None:
            family = list(core) + [(x,) for x in D.nodes.difference(*core)]
            family.sort(key=lambda c: dict(c)[row])
            pi = KPath(D, family)
            if not is_ordered(pi):
                raise VerificationError("placed family is not ordered")
            return pi, form
    raise VerificationError("admissible diagram yielded no form family")
