"""Permutations of {1, .., n} acting on the right, with inversion bitmasks.

Conventions used throughout the package:

- Points and generator indices are 1-based.  ``x(k)`` is the image of the
  point ``k`` under ``x``, and ``x.images[k - 1] == x(k)``.
- Products compose left to right: ``(x * y)(k) == y(x(k))``.
- ``simple(i, n)`` is the basic transposition swapping ``i`` and ``i + 1``,
  for ``1 <= i <= n - 1``.  A word ``[i1, ..., il]`` spells the product
  ``s_i1 * s_i2 * ... * s_il``.
- The inversion set of ``x`` is ``{(i, j) : i < j and x(i) > x(j)}``.  It is
  stored as a bitmask over all pairs ``(1,2), (1,3), ..., (n-1,n)`` listed in
  lexicographic order, so subset tests between inversion sets are single
  integer operations.
- ``p`` is a *prefix* of ``x`` when some reduced word of ``x`` starts with a
  reduced word of ``p``; equivalently, when the inversion set of ``p`` is
  contained in the inversion set of ``x``.  Prefix order is the right weak
  order on the group.
"""

from __future__ import annotations

import itertools
from bisect import bisect
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Iterable

DEFAULT_MAX_DEGREE = 9


class GuardExceeded(RuntimeError):
    """A walk that builds its members one by one was asked for a degree
    above the bound."""


class VerificationError(RuntimeError):
    """A cross-check between two independent computation routes failed."""


def check_enumeration_guard(n: int, explicit: int | None = None) -> None:
    """Refuse a walk of degree n, one that builds its members one by one,
    above the bound: ``explicit`` when given, else DEFAULT_MAX_DEGREE."""
    limit = DEFAULT_MAX_DEGREE if explicit is None else explicit
    if n > limit:
        raise GuardExceeded(
            f"degree {n} exceeds the enumeration bound {limit}; raise it via "
            "the limit argument or the CLI's --max-n option if the run time "
            "is acceptable"
        )


@cache
def positive_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """All pairs (i, j) with 1 <= i < j <= n, in lexicographic order.

    >>> positive_pairs(3)
    ((1, 2), (1, 3), (2, 3))
    """
    return tuple((i, j) for i in range(1, n) for j in range(i + 1, n + 1))


@cache
def _pair_bits(n: int) -> tuple[tuple[int, int, int], ...]:
    """(i - 1, j - 1, bit of (i, j)) for each pair of positive_pairs(n)."""
    return tuple((i - 1, j - 1, 1 << k) for k, (i, j) in enumerate(positive_pairs(n)))


@dataclass(frozen=True, slots=True)
class Permutation:
    """A permutation of {1, .., n} in one-line notation.

    >>> x = Permutation((2, 3, 1))
    >>> x(1), x(3)
    (2, 1)
    >>> x.length
    2
    >>> (x * x).images
    (3, 1, 2)
    """

    images: tuple[int, ...]
    mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        images = tuple(self.images)
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {images!r}")
        mask = 0
        for i, j, bit in _pair_bits(n):
            if images[i] > images[j]:
                mask |= bit
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "mask", mask)

    def __repr__(self) -> str:
        return f"Permutation({self.images!r})"

    def __call__(self, point: int) -> int:
        return self.images[point - 1]

    @property
    def degree(self) -> int:
        return len(self.images)

    @property
    def length(self) -> int:
        """Coxeter length: the number of inversions."""
        return self.mask.bit_count()

    @property
    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        """Canonical ordering key: by length, then one-line notation."""
        return (self.length, self.images)

    def __mul__(self, other: Permutation) -> Permutation:
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} != {other.degree}")
        return Permutation(tuple(other.images[v - 1] for v in self.images))

    def inverse(self) -> Permutation:
        inv = [0] * self.degree
        for k, v in enumerate(self.images):
            inv[v - 1] = k + 1
        return Permutation(tuple(inv))


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


@cache
def simple(i: int, n: int) -> Permutation:
    """The basic transposition (i, i+1) in S_n."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range for S_{n}")
    images = list(range(1, n + 1))
    images[i - 1], images[i] = images[i], images[i - 1]
    return Permutation(tuple(images))


def longest_element(n: int) -> Permutation:
    """The order-reversing permutation, the longest element of S_n."""
    return Permutation(tuple(range(n, 0, -1)))


def is_prefix(candidate: Permutation, x: Permutation) -> bool:
    """Whether candidate is a prefix of x in the right weak order.

    >>> is_prefix(simple(2, 3), Permutation((2, 3, 1)))
    True
    >>> is_prefix(simple(2, 3), Permutation((3, 1, 2)))
    False
    """
    if candidate.degree != x.degree:
        raise ValueError(f"degree mismatch: {candidate.degree} != {x.degree}")
    return candidate.mask & ~x.mask == 0


def reduced_word(x: Permutation) -> tuple[int, ...]:
    """The lexicographically smallest reduced word for x.

    Greedy: the first letter of any reduced word must be a left descent, so
    repeatedly peel off the smallest one, swapping the first descent.  The
    entries before that descent are ascending, so the swapped entry keeps
    moving left until it is in place and the scan then goes on from there:
    the greedy is insertion sort.  The entry at 0-based position j moves
    past the earlier entries larger than it, so if k earlier entries are
    smaller its swaps read j, j - 1, ..., k + 1.  One pass that keeps the
    earlier entries sorted builds the word.

    >>> reduced_word(Permutation((2, 3, 1)))
    (2, 1)
    >>> reduced_word(longest_element(3))
    (1, 2, 1)
    """
    return tuple(i for j, k in _sorting_runs(x.images) for i in range(j, k, -1))


def _sorting_runs(images: Iterable[int]) -> list[tuple[int, int]]:
    """The word of ``reduced_word`` for one-line images, which it does not
    check, as runs: (j, k) for each entry whose swaps read j, j - 1, ...,
    k + 1, with k < j."""
    prefix: list[int] = []
    runs: list[tuple[int, int]] = []
    for j, value in enumerate(images):
        k = bisect(prefix, value)
        if k < j:
            runs.append((j, k))
        prefix.insert(k, value)
    return runs


def prefix_maximal(elements: Iterable[Permutation]) -> set[Permutation]:
    """The elements that are not proper prefixes of another element.

    Longest first, each element is compared only with the maxima kept so
    far.  This is exact for any finite set, prefix-closed or not: an
    element below some other element lies below a maximal one, which is
    strictly longer and so already kept.

    >>> sorted(x.images for x in prefix_maximal([simple(1, 3), Permutation((3, 1, 2))]))
    [(3, 1, 2)]
    """
    maxima: list[Permutation] = []
    for x in sorted(set(elements), key=lambda x: x.length, reverse=True):
        if not any(is_prefix(x, m) for m in maxima):
            maxima.append(x)
    return set(maxima)


def composition_generators(parts: tuple[int, ...]) -> frozenset[int]:
    """Generator indices fixing the blocks of the composition.

    These are all indices except the partial sums of the parts: the Young
    subgroup they generate permutes each block {1..p1}, {p1+1..p1+p2}, ...
    within itself.

    >>> sorted(composition_generators((2, 1)))
    [1]
    >>> sorted(composition_generators((1, 1, 1)))
    []
    """
    n = sum(parts)
    cuts = set(itertools.accumulate(parts))
    return frozenset(i for i in range(1, n) if i not in cuts)


def generator_blocks(gens: frozenset[int], n: int) -> tuple[tuple[int, ...], ...]:
    """The maximal intervals of {1..n} connected by the given generators.

    >>> generator_blocks(frozenset({1, 3}), 4)
    ((1, 2), (3, 4))
    """
    blocks = []
    start = 1
    for i in range(1, n + 1):
        if i == n or i not in gens:
            blocks.append(tuple(range(start, i + 1)))
            start = i + 1
    return tuple(blocks)


@dataclass(frozen=True)
class ParabolicData:
    """A Young subgroup of S_n together with its right coset data.

    Attributes:
        gens: the generator indices of the subgroup.
        degree: the ambient n.
        longest: the longest element of the subgroup (blockwise reversal).
        longest_rep: the unique longest distinguished coset representative.
        reps: all distinguished representatives, sorted by length then
            one-line notation.  Every representative is a prefix of
            longest_rep, and conversely.  The list is built when first
            read: the package's own computations need only longest, and
            the full list serves the tests that enumerate every rep.

    A representative increases on every generator block, so it is fixed
    by the set of values each block receives.  The representatives are
    built directly, one per choice of those sets, block by block.
    """

    gens: frozenset[int]
    degree: int
    longest: Permutation
    longest_rep: Permutation

    @cached_property
    def reps(self) -> tuple[Permutation, ...]:
        n = self.degree
        rep_images: list[tuple[int, ...]] = [()]
        for block in generator_blocks(self.gens, n):
            rep_images = [
                head + chosen
                for head in rep_images
                for chosen in itertools.combinations(
                    sorted(set(range(1, n + 1)).difference(head)), len(block)
                )
            ]
        reps = [Permutation(images) for images in rep_images]
        return tuple(sorted(reps, key=lambda x: x.sort_key))


@cache
def parabolic(gens: frozenset[int], n: int) -> ParabolicData:
    """Coset data for the Young subgroup generated by the given indices.

    >>> data = parabolic(frozenset({1}), 3)
    >>> data.longest_rep.images
    (2, 3, 1)
    >>> [x.images for x in data.reps]
    [(1, 2, 3), (1, 3, 2), (2, 3, 1)]
    """
    gens = frozenset(gens)
    if not all(1 <= i <= n - 1 for i in gens):
        raise ValueError(f"generator indices {sorted(gens)} out of range for S_{n}")
    longest_images = []
    for block in generator_blocks(gens, n):
        longest_images.extend(reversed(block))
    longest = Permutation(tuple(longest_images))
    return ParabolicData(
        gens=gens,
        degree=n,
        longest=longest,
        longest_rep=longest * longest_element(n),
    )
