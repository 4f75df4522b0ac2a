"""Right-cell ideals of symmetric groups and their minimal rims.

For a composition of n, the coset representatives e whose product with
the longest block permutation stays in that element's right cell form
a prefix-closed ideal.  The ideal is determined by its prefix-maximal
elements, its rim; each rim element is encoded by a minimal-column
diagram.  This module builds the ideal by inverse Robinson-Schensted
insertion, one member per standard tableau, and finds its rim through
Knuth moves and cover tests.  The diagram route checks each member by
Greene's theorem on the block labels of its walk word; each cover
tested goes through both full routes, its insertion rows and the
admissibility of its minimal-column diagram.  The module also builds
the closed-form diagram families that describe the rims of
compositions with three leading parts followed by rows of size one,
evaluates the counting formulas for those families, and verifies the
closed forms against the construction.

Conventions for the closed families, with (s, t, u) the leading parts
in non-increasing order: a sorted head gives the single Young diagram;
the other five arrangements give the F, G, H, M and N families in the
order (s,u,t), (t,s,u), (t,u,s), (u,s,t), (u,t,s); one table gives each
family's arrangement, builder, parameters and counts.  M and N diagrams
are described by determining tuples over the alphabet 1, 1b, 2, 3, 4
recording their column profiles, and built from the blocks' row ranges.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from math import comb
from typing import Callable, Iterable, Iterator, NamedTuple

from .diagrams import (
    Diagram,
    is_special,
    min_column_diagram,
    psi_append,
    rotate_180,
    w_of_diagram,
    young_diagram,
)
from .paths import is_admissible
from .permutations import (
    Permutation,
    VerificationError,
    check_enumeration_guard,
    composition_generators,
    parabolic,
)
from .tableaux import (
    cell_words,
    conjugate,
    count_standard_tableaux,
    recording_tableau,
    row_insert,
)


@dataclass(frozen=True, slots=True)
class StuShape:
    """Shape data for compositions with three leading parts then ones.

    s, t and u are the three leading parts in non-increasing order,
    order is their actual arrangement in the composition, and
    trailing_ones counts the remaining parts, each equal to one.

    >>> StuShape.from_composition((1, 3, 2, 1, 1))
    StuShape(s=3, t=2, u=1, order=(1, 3, 2), trailing_ones=2)
    """

    s: int
    t: int
    u: int
    order: tuple[int, int, int]
    trailing_ones: int = 1

    def __post_init__(self) -> None:
        # outside input becomes ints, and order a tuple, as in FamilyParams
        for name in ("s", "t", "u", "trailing_ones"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        object.__setattr__(self, "order", tuple(map(operator.index, self.order)))
        if not self.s >= self.t >= self.u >= 1:
            raise ValueError(f"need s >= t >= u >= 1, got {self}")
        if tuple(sorted(self.order, reverse=True)) != (self.s, self.t, self.u):
            raise ValueError(f"order {self.order} does not arrange {(self.s, self.t, self.u)}")
        if self.trailing_ones < 1:
            raise ValueError("at least one trailing part is required")

    @property
    def composition(self) -> tuple[int, ...]:
        return self.order + (1,) * self.trailing_ones

    @classmethod
    def from_composition(cls, parts: tuple[int, ...]) -> StuShape:
        parts = tuple(parts)
        if len(parts) < 4 or any(p != 1 for p in parts[3:]):
            raise ValueError(
                "expected three leading parts followed by ones, got "
                f"{parts}"
            )
        s, t, u = sorted(parts[:3], reverse=True)
        return cls(s, t, u, parts[:3], len(parts) - 3)


def _shape_or_none(parts: tuple[int, ...]) -> StuShape | None:
    try:
        return StuShape.from_composition(parts)
    except ValueError:
        return None


# Rows occupied by a column of each profile entry.  A full column is a
# 4; a column meeting the top three rows is a 3; length-two columns sit
# on rows 2 and 3; single nodes sit on row 2 (entry 1) or row 3 (1b).
COLUMN_ROWS = {
    "1": (2,),
    "1b": (3,),
    "2": (2, 3),
    "3": (1, 2, 3),
    "4": (1, 2, 3, 4),
}


_ENTRY_OF_ROWS = {rows: entry for entry, rows in COLUMN_ROWS.items()}


def determining_tuple(D: Diagram) -> tuple[str, ...]:
    """The column profile of a diagram with M or N rows, left to right
    over the alphabet 1, 1b, 2, 3, 4.

    The rows must be three parts, smallest first with t > u, and a single
    1; every column must fit one of the entries of ``COLUMN_ROWS``, and
    the one full column, forced by row 4, must precede every 3.  The
    profile reconstructs its diagram uniquely, and it holds u - 1 threes.

    >>> determining_tuple(Diagram.from_rows([(1, 2), (1, 2, 3), (1, 2, 3), (1,)]))
    ('4', '3', '2')
    """
    shape = StuShape.from_composition(D.row_composition())
    if shape.trailing_ones != 1:
        raise ValueError("column profiles are defined for four-row diagrams")
    if _variant(shape) not in ("M", "N"):
        raise ValueError(
            f"shape {shape.order} does not lead with its smallest part"
        )
    entries = []
    for rows in D.columns():
        entry = _ENTRY_OF_ROWS.get(rows)
        if entry is None:
            raise ValueError(f"column on rows {rows} fits no profile entry")
        entries.append(entry)
    if "3" in entries and entries.index("3") < entries.index("4"):
        raise ValueError("the full column must precede every triple column")
    return tuple(entries)


class _FamilyFields(NamedTuple):
    variant: str
    columns: tuple[int, ...] = ()
    v: int | None = None
    counts: tuple[int, ...] = ()


class FamilyParams(_FamilyFields):
    """Parameters selecting one member of a closed diagram family.

    variant is one of F, G, H, M, N.  columns holds the free column set
    (C for F and G, the fixed companions of v for H, the triple-column
    positions for M), sorted and deduplicated; v is the fourth-row column
    for H; counts holds the block sizes for M as
    (eps, eta, theta, zeta, psi) and for N as (eta, eps, theta, phi, zeta).
    Each variant reads only the fields named for it here.

    The constructor, and ``_replace`` through it, normalises outside input
    to ints, refuses a field the variant does not read, and checks the rules
    that need no shape (a positive v, five non-negative block sizes); the
    builders check the rest.  ``FamilyParams._make`` stores fields unchecked,
    for the enumerators, which build them normal.

    >>> FamilyParams("M", columns=(8, 7, 7), counts=(1, 3, 1, 0, 3)).columns
    (7, 8)
    """

    __slots__ = ()

    def __new__(
        cls,
        variant: str,
        columns: Iterable[int] = (),
        v: int | None = None,
        counts: Iterable[int] = (),
    ) -> FamilyParams:
        # the builders store columns and v in the rows as they are, and pass
        # counts to range, so all must be ints; they read columns in order
        if variant not in _VARIANTS:
            raise ValueError(f"unknown family variant {variant!r}")
        columns = tuple(sorted(set(map(operator.index, columns))))
        v = v if v is None else operator.index(v)
        counts = tuple(map(operator.index, counts))
        reads = _VARIANTS[variant].reads
        for name, value in zip(cls._fields[1:], (columns, v, counts)):
            if name not in reads and value != cls._field_defaults[name]:
                raise ValueError(f"variant {variant} does not read {name}")
        if "v" in reads and (v is None or v < 1):
            raise ValueError(f"variant {variant} needs a positive v, got {v}")
        if "counts" in reads and (len(counts) != 5 or min(counts) < 0):
            raise ValueError(f"variant {variant} needs five non-negative counts, got {counts}")
        return super().__new__(cls, variant, columns, v, counts)

    def _replace(self, **changes) -> FamilyParams:
        return FamilyParams(**{**self._asdict(), **changes})


def _check_subset(columns: tuple[int, ...], k: int, low: int, high: int) -> None:
    """Refuse sorted columns unless they are a k-subset of low..high: the
    first high columns when low is 1, else the last high - low + 1."""
    if len(columns) != k or columns and (columns[0] < low or columns[-1] > high):
        where = f"first {high}" if low == 1 else f"last {high - low + 1}"
        raise ValueError(f"need a {k}-subset of the {where} columns, got {list(columns)}")


def _family_f(params: FamilyParams, s: int, t: int, u: int) -> Diagram:
    C = params.columns
    _check_subset(C, u, 1, t)
    return Diagram(rows=(tuple(range(1, s + 1)), C, tuple(range(1, t + 1)), (C[0],)))


def _family_g(params: FamilyParams, s: int, t: int, u: int) -> Diagram:
    low = params.columns
    top = s - t + u
    _check_subset(low, u, 1, top)
    return Diagram(
        rows=(low + tuple(range(top + 1, s + 1)), tuple(range(1, s + 1)), low, (low[0],))
    )


def _family_h(params: FamilyParams, s: int, t: int, u: int) -> Diagram:
    companions, v = params.columns, params.v
    _check_subset(companions, u - 1, s - t + 2, s)
    top = companions[0] if companions else s + 1
    if v >= top:
        raise ValueError(f"v = {v} must be less than {top}")
    v_top = v if v < s - t + 1 else s - t + 1
    return Diagram(
        rows=(
            (v_top, *range(s - t + 2, s + 1)),
            (v, *companions),
            tuple(range(1, s + 1)),
            (v,),
        )
    )


def _family_m(params: FamilyParams, s: int, t: int, u: int) -> Diagram:
    eps, eta, theta, zeta, psi = params.counts
    if s != eps + eta + 1 + zeta + psi:
        raise ValueError(f"block sizes {params.counts} do not fit s = {s}")
    if t != eps + theta + zeta + u:
        raise ValueError(f"block sizes {params.counts} do not fit t = {t}")
    if eta < theta:
        raise ValueError(f"need eta >= theta, got {eta} < {theta}")
    m = s + theta
    triples = params.columns
    # no u - 1 triples fit a tail of psi < u - 1 columns
    _check_subset(triples, u - 1, m - psi + 1, m)
    # the profile 2^eps 1^eta 4 1b^theta 2^zeta 1^psi, triples raised to 3
    full = eps + eta + 1
    second = (*range(1, full + 1), *range(full + theta + 1, m + 1))
    third = (*range(1, eps + 1), *range(full, full + theta + zeta + 1), *triples)
    return Diagram(rows=((full, *triples), second, third, (full,)))


def _family_n(params: FamilyParams, s: int, t: int, u: int) -> Diagram:
    eta, eps, theta, phi, zeta = params.counts
    if s != eta + eps + phi + zeta + u:
        raise ValueError(f"block sizes {params.counts} do not fit s = {s}")
    if t != eps + theta + zeta + u:
        raise ValueError(f"block sizes {params.counts} do not fit t = {t}")
    if phi < theta:
        raise ValueError(f"need phi >= theta, got {phi} < {theta}")
    # the profile 1b^eta 2^eps 1^theta 4 1b^phi 2^zeta 3^(u - 1)
    full = eta + eps + theta + 1
    m = full + phi + zeta + u - 1
    second = (*range(eta + 1, full + 1), *range(full + phi + 1, m + 1))
    third = (*range(1, eta + eps + 1), *range(full, m + 1))
    return Diagram(rows=((full, *range(m - u + 2, m + 1)), second, third, (full,)))


def _f_params(s: int, t: int, u: int) -> tuple[FamilyParams, ...]:
    return tuple(
        FamilyParams._make(("F", C, None, ()))
        for C in itertools.combinations(range(1, t + 1), u)
    )


def _g_params(s: int, t: int, u: int) -> tuple[FamilyParams, ...]:
    return tuple(
        FamilyParams._make(("G", C, None, ()))
        for C in itertools.combinations(range(1, s - t + u + 1), u)
    )


def _h_params(s: int, t: int, u: int) -> tuple[FamilyParams, ...]:
    return tuple(
        FamilyParams._make(("H", companions, v, ()))
        for companions in itertools.combinations(range(s - t + 2, s + 1), u - 1)
        for v in range(1, companions[0] if companions else s + 1)
    )


def _m_params(s: int, t: int, u: int) -> tuple[FamilyParams, ...]:
    out = []
    for theta in range(t - u + 1):
        for zeta in range(t - u - theta + 1):
            eps = t - u - theta - zeta
            etas = (theta,) if zeta > 0 else range(theta, s - eps - u + 1)
            for eta in etas:
                # psi >= u - 1 by eta's range, or by s >= t when zeta > 0
                psi = s - eps - eta - 1 - zeta
                m = s + theta
                counts = (eps, eta, theta, zeta, psi)
                out.extend(
                    FamilyParams._make(("M", triples, None, counts))
                    for triples in itertools.combinations(range(m - psi + 1, m + 1), u - 1)
                )
    return tuple(out)


def _n_params(s: int, t: int, u: int) -> tuple[FamilyParams, ...]:
    out = []
    for theta in range(t - u + 1):
        for extra in range(s - t + 1):
            eta = s - t - extra
            phi = theta + extra
            eps_choices = (0,) if extra > 0 else range(t - u - theta + 1)
            for eps in eps_choices:
                zeta = t - u - theta - eps
                out.append(FamilyParams._make(("N", (), None, (eta, eps, theta, phi, zeta))))
    return tuple(out)


class _Variant(NamedTuple):
    """A closed family: the arrangement of (s, t, u) it serves, its builder,
    its parameter enumerator, the ``FamilyParams`` fields it reads, and its
    (special, non-special) rim sizes as formulas in s, t, u and v = s - t + u."""

    arrangement: Callable
    build: Callable
    params: Callable
    reads: tuple[str, ...]
    counts: Callable


# listed in the order that breaks ties between arrangements of equal parts
_VARIANTS = {
    "F": _Variant(lambda s, t, u: (s, u, t), _family_f, _f_params, ("columns",),
                  lambda s, t, u, v: (comb(t, u), 0)),
    "G": _Variant(lambda s, t, u: (t, s, u), _family_g, _g_params, ("columns",),
                  lambda s, t, u, v: (comb(v, u), 0)),
    "H": _Variant(lambda s, t, u: (t, u, s), _family_h, _h_params, ("columns", "v"),
                  lambda s, t, u, v: ((s - t) * comb(t - 1, u - 1) + comb(t, u), 0)),
    "M": _Variant(lambda s, t, u: (u, s, t), _family_m, _m_params, ("columns", "counts"),
                  lambda s, t, u, v: ((t - u) * comb(v - 1, u - 1) + comb(v, u),
                                      comb(t - u, 2) * comb(v - 1, u - 1)
                                      + (t - u) * comb(v, u))),
    "N": _Variant(lambda s, t, u: (u, t, s), _family_n, _n_params, ("counts",),
                  lambda s, t, u, v: (s - u + 1, (t - u) * (s - t) + comb(t - u + 1, 2))),
}


def _variant(shape: StuShape) -> str | None:
    """The first family serving the shape's arrangement; None for a sorted head."""
    s, t, u = shape.s, shape.t, shape.u
    if shape.order == (s, t, u):
        return None
    return next(n for n, f in _VARIANTS.items() if f.arrangement(s, t, u) == shape.order)


def family_diagram(params: FamilyParams, shape: StuShape) -> Diagram:
    """Build one member of a closed family for a four-row shape.

    The shape's arrangement must match the variant, and the parameters
    must satisfy the variant's side conditions.
    """
    if shape.trailing_ones != 1:
        raise ValueError("families are built on four-row shapes")
    s, t, u = shape.s, shape.t, shape.u
    variant = _VARIANTS[params.variant]
    if shape.order != variant.arrangement(s, t, u):
        raise ValueError(
            f"variant {params.variant} does not serve arrangement {shape.order}"
        )
    D = variant.build(params, s, t, u)
    if D.row_composition() != shape.composition:
        raise VerificationError(
            f"built rows {D.row_composition()}, wanted {shape.composition}"
        )
    return D


def family_parameter_sets(shape: StuShape) -> tuple[FamilyParams, ...]:
    """All canonical parameter choices for the shape's family.

    The sorted arrangement has no parameters (its rim is the single
    Young diagram).  The M and N lists carry the extra duplicate-free
    constraints: for M, zeta = 0 unless eta = theta; for N, eps = 0
    unless phi = theta.  Ties between arrangements are resolved in the
    order F, G, H, M, N; the constructions coincide on ties.
    """
    name = _variant(shape)
    return _VARIANTS[name].params(shape.s, shape.t, shape.u) if name else ()


def table_counts(shape: StuShape) -> tuple[int, int]:
    """Closed-form sizes (special count, non-special count) of the rim.

    Non-special members exist only when the composition leads with its
    smallest part.

    >>> table_counts(StuShape(8, 5, 3, (3, 8, 5)))
    (40, 50)
    """
    s, t, u = shape.s, shape.t, shape.u
    name = _variant(shape)
    return _VARIANTS[name].counts(s, t, u, s - t + u) if name else (1, 0)


def _admissible_by_word(labels: Iterable[int], shape: tuple[int, ...]) -> bool:
    """Whether a word of row labels has insertion shape ``shape``: by
    Greene's theorem, whether the diagram with that column reading word
    is admissible when ``shape`` is the conjugate of its row sizes."""
    return tuple(map(len, row_insert(labels))) == shape


def _ideal_members(
    lam: tuple[int, ...], limit: int | None
) -> Iterator[tuple[tuple[int, ...], bool]]:
    """Each member of the ideal once, as its image tuple, flagged when it
    is a rim element.

    With w the longest block permutation, the members e are the coset
    representatives with w * e in the right cell of w.  The word of
    (w * e)^-1 holds w(k) at position e(k), as w is an involution, so it
    has the insertion rows of w: ``cell_words`` gives each such word, and
    e is read off the positions of its letters.  A walk that does not end
    with f^mu members, mu the shape, raises VerificationError.

    The diagram route checks each member on its word.  The column reading
    word of the minimal-column diagram of e holds the block of k at
    position e(k), and w keeps every block, so it is the word with each
    letter replaced by its block: the diagram is admissible exactly when
    those labels have insertion shape conjugate to lam (Greene 1974).

    A cover e * s_i swaps positions i and i + 1 of the word, and so the
    entries of e at the points w(word[i]) and w(word[i + 1]), when their
    letters lie in increasing blocks.  A neighbouring letter strictly
    between them makes the swap a Knuth move, which keeps the insertion
    tableau (Knuth 1970), so e is not a rim element.  Otherwise covers
    are tested up to the first member, each by both full routes: the
    insertion rows of its word, and the admissibility of its
    minimal-column diagram.  A disagreement raises VerificationError
    naming the composition and the candidate.
    """
    if not lam or min(lam) < 1:
        raise ValueError(f"composition parts must be positive, got {lam}")
    n = sum(lam)
    check_enumeration_guard(n, limit)
    longest = parabolic(composition_generators(lam), n).longest
    target = recording_tableau(longest)
    insertion = [list(row) for row in target]
    admissible = conjugate(lam)
    # block_of[v] is the block of the point v, and of the letter v
    block_of = [0] + [a for a, p in enumerate(lam) for _ in range(p)]

    def check(images: tuple[int, ...], by_cell: bool, by_diagram: bool) -> bool:
        if by_cell != by_diagram:
            raise VerificationError(
                f"cell route and diagram route disagree for {lam} at "
                f"{images}: cell says {by_cell}, diagram says {by_diagram}"
            )
        return by_cell

    def cover_is_member(word: tuple[int, ...], e: tuple[int, ...], i: int) -> bool:
        swapped = word[:i] + (word[i + 1], word[i]) + word[i + 2 :]
        images = list(e)
        a, b = longest(word[i]) - 1, longest(word[i + 1]) - 1
        images[a], images[b] = images[b], images[a]
        f = tuple(images)
        by_diagram = is_admissible(min_column_diagram(Permutation(f), lam))
        return check(f, row_insert(swapped) == insertion, by_diagram)

    position = [0] * (n + 1)
    members = 0
    for members, word in enumerate(cell_words(target), 1):
        for k, v in enumerate(word, 1):
            position[v] = k
        e = tuple([position[v] for v in longest.images])
        labels = [block_of[v] for v in word]
        check(e, True, _admissible_by_word(labels, admissible))
        # one scan lists the covers and stops at the first Knuth witness
        covers, knuth = [], False
        for i in range(n - 1):
            if labels[i] < labels[i + 1]:
                low, high = word[i], word[i + 1]
                if i and low < word[i - 1] < high or i < n - 2 and low < word[i + 2] < high:
                    knuth = True
                    break
                covers.append(i)
        yield e, not knuth and not any(cover_is_member(word, e, i) for i in covers)
    expected = count_standard_tableaux(tuple(map(len, target)))
    if members != expected:
        raise VerificationError(
            f"the walk for {lam} built {members} members, not f^mu = {expected}"
        )


def z_ideal(
    lam: tuple[int, ...], limit: int | None = None
) -> frozenset[Permutation]:
    """The prefix-closed ideal of coset representatives for a composition.

    The members are built by inverse Robinson-Schensted insertion, one
    per standard tableau.  The diagram route checks every member on its
    walk word, by Greene's theorem, and every cover the rim test reaches
    by its minimal-column diagram; a disagreement raises
    VerificationError.  The tests compare the result with both routes
    run on every coset representative.

    >>> sorted(e.images for e in z_ideal((2, 1)))
    [(1, 2, 3), (1, 3, 2)]
    """
    return frozenset(Permutation(e) for e, _ in _ideal_members(tuple(lam), limit))


def rim(
    lam: tuple[int, ...], limit: int | None = None
) -> frozenset[Permutation]:
    """The prefix-maximal elements of the ideal of a composition.

    >>> [y.images for y in rim((3,))]
    [(1, 2, 3)]
    """
    return frozenset(
        Permutation(e) for e, top in _ideal_members(tuple(lam), limit) if top
    )


def _closed_rim(
    shape: StuShape,
) -> tuple[frozenset[Diagram], frozenset[Diagram]]:
    """The closed-form rim of a shape, with its special subset E_s.

    E_s of a four-row family rim is read off the family parameters: F, G
    and H members are all special, M and N members exactly when
    theta = 0.  The Young head of a sorted arrangement and the rims
    extended past four rows, by one ``psi_append`` call per diagram, go
    through ``is_special``.
    """
    base = StuShape(shape.s, shape.t, shape.u, shape.order, 1)
    if _variant(base) is None:
        diagrams = {young_diagram(base.composition)}
    else:
        diagrams, specials = set(), set()
        for p in family_parameter_sets(base):
            D = family_diagram(p, base)
            diagrams.add(D)
            # theta is counts[2] in both the M and the N order
            if p.variant in "FGH" or p.counts[2] == 0:
                specials.add(D)
        if shape.trailing_ones == 1:
            return frozenset(diagrams), frozenset(specials)
    if shape.trailing_ones > 1:
        diagrams = {psi_append(D, shape.trailing_ones - 1) for D in diagrams}
    return frozenset(diagrams), frozenset(D for D in diagrams if is_special(D))


def _searched_rim(
    lam: tuple[int, ...], limit: int | None
) -> tuple[frozenset[Diagram], frozenset[Diagram]]:
    """The rim of any composition from the ideal construction, as
    minimal-column diagrams, with E_s decided by ``is_special``."""
    diagrams = frozenset(min_column_diagram(y, lam) for y in rim(lam, limit))
    return diagrams, frozenset(D for D in diagrams if is_special(D))


def rim_diagrams(
    lam: tuple[int, ...], limit: int | None = None
) -> tuple[frozenset[Diagram], frozenset[Diagram]]:
    """The rim of a composition as diagrams, with its special subset.

    Compositions with three leading parts followed by ones use the closed
    families, each member given all its rows past the fourth by one
    ``psi_append``, with the special subset E_s as ``_closed_rim`` decides
    it.  Their reversals take the half turn of that rim, and of its E_s: a
    half turn keeps specialness, so no rotated image is tested again.  Any
    other composition falls back to the ideal construction under the guard.
    ``cellrim verify bijections`` checks every route against the search.

    >>> E, E_s = rim_diagrams((3, 2, 1, 1))
    >>> len(E), len(E_s)
    (1, 1)
    """
    lam = tuple(lam)
    shape = _shape_or_none(lam)
    if shape is not None:
        return _closed_rim(shape)
    reversed_shape = _shape_or_none(lam[::-1])
    if reversed_shape is None:
        return _searched_rim(lam, limit)
    diagrams, specials = _closed_rim(reversed_shape)
    turned = {D: rotate_180(D) for D in diagrams}
    return frozenset(turned.values()), frozenset(turned[D] for D in specials)


def _check_closed_rim(
    lam: tuple[int, ...], shape: StuShape, searched: tuple[frozenset[Diagram], ...]
) -> tuple[int, int]:
    """The table counts (special, non-special) of ``shape``, once
    ``rim_diagrams(lam)`` gives exactly the rim and E_s of ``searched``
    and those counts; as ``w_of_diagram`` inverts ``min_column_diagram``,
    equal diagrams are equal rim elements.  Else VerificationError."""
    diagrams, specials = built = rim_diagrams(lam)
    for name, closed, found in zip(("rim", "E_s"), built, searched):
        if closed != found:
            raise VerificationError(
                f"the closed-form {name} of {lam} is not the searched one: "
                f"missing {sorted(w_of_diagram(D).images for D in found - closed)}, "
                f"extra {sorted(w_of_diagram(D).images for D in closed - found)}"
            )
    expected = table_counts(shape)
    got = (len(specials), len(diagrams) - len(specials))
    if got != expected:
        raise VerificationError(
            f"rim counts {got} of {lam} differ from the table values {expected}"
        )
    return expected
