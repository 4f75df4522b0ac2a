"""Tests for Robinson-Schensted insertion, the right-cell oracle, and the
composition/partition helpers."""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellrim.permutations import (
    GuardExceeded,
    Permutation,
    composition_generators,
    identity,
    longest_element,
    parabolic,
)
from cellrim.tableaux import (
    cell_words,
    compositions_of,
    conjugate,
    count_standard_tableaux,
    recording_tableau,
    right_cell_of,
    row_insert,
    rs_pair,
)

import oracles
from oracles import rs_inverse, standard_shape, standard_tableaux, symmetric_group
from claims import dominates, is_partition, partitions_of, right_equivalent


def test_rs_frozen_examples():
    p, q = rs_pair(identity(4))
    assert p == q == ((1, 2, 3, 4),)
    p, q = rs_pair(Permutation((2, 1)))
    assert p == q == ((1,), (2,))
    p, q = rs_pair(Permutation((3, 1, 2)))
    assert p == ((1, 2), (3,))
    assert q == ((1, 3), (2,))
    assert recording_tableau(Permutation((3, 1, 2))) == q
    p, q = rs_pair(longest_element(4))
    assert p == ((1,), (2,), (3,), (4,))


def test_rs_pair_is_injective_with_matching_shapes():
    for n in range(1, 8):
        seen = set()
        shape_counts: Counter = Counter()
        for x in symmetric_group(n):
            p, q = rs_pair(x)
            shape = standard_shape(p)
            assert standard_shape(q) == shape
            assert is_partition(shape)
            assert (p, q) not in seen
            seen.add((p, q))
            shape_counts[shape] += 1
        # each shape contributes (number of standard tableaux)^2 pairs
        import math

        assert sum(shape_counts.values()) == math.factorial(n)
        for shape, count in shape_counts.items():
            assert count == oracles.standard_tableau_count(shape) ** 2


def test_inverse_swaps_the_two_tableaux():
    for n in range(1, 7):
        for x in symmetric_group(n):
            p, q = rs_pair(x)
            pi, qi = rs_pair(x.inverse())
            assert (pi, qi) == (q, p)


def test_rs_pair_matches_direct_bumping():
    for n in range(1, 7):
        for x in symmetric_group(n):
            assert rs_pair(x) == oracles.rs_pair_by_bumping(x.images)


@given(
    st.integers(min_value=7, max_value=10).flatmap(
        lambda n: st.permutations(list(range(1, n + 1)))
    )
)
def test_rs_pair_matches_direct_bumping_up_to_degree_10(images):
    assert rs_pair(Permutation(tuple(images))) == oracles.rs_pair_by_bumping(
        tuple(images)
    )


def test_rs_inverse_undoes_rs_pair_up_to_s7():
    for n in range(1, 8):
        for x in symmetric_group(n):
            assert rs_inverse(*rs_pair(x)) == x.images


@given(
    st.integers(min_value=8, max_value=12).flatmap(
        lambda n: st.permutations(list(range(1, n + 1)))
    )
)
def test_rs_inverse_undoes_bumping_up_to_degree_12(images):
    assert rs_inverse(*oracles.rs_pair_by_bumping(tuple(images))) == tuple(images)


def test_standard_tableaux_are_all_tableaux_of_the_shape():
    assert list(standard_tableaux(())) == [()]
    for n in range(1, 10):
        for shape in partitions_of(n):
            tableaux = list(standard_tableaux(shape))
            assert len(set(tableaux)) == len(tableaux), shape
            assert len(tableaux) == oracles.standard_tableau_count(shape), shape
            for rows in tableaux:
                assert type(rows) is tuple and all(type(r) is tuple for r in rows)
                assert standard_shape(rows) == shape


def test_cell_words_match_the_tableaux_oracle_up_to_degree_8():
    assert list(cell_words(())) == [()]
    for n in range(1, 9):
        for shape in partitions_of(n):
            f = oracles.standard_tableau_count(shape)
            for p_rows in standard_tableaux(shape):
                words = list(cell_words(p_rows))
                assert len(words) == len(set(words)) == f, p_rows
                assert set(words) == oracles.cell_words_by_tableaux(p_rows), p_rows


@settings(max_examples=10, deadline=None)
@given(
    st.integers(min_value=9, max_value=14).flatmap(
        lambda n: st.permutations(list(range(1, n + 1)))
    )
)
def test_cell_words_are_the_words_of_one_insertion_tableau_up_to_degree_14(images):
    p_rows = oracles.rs_pair_by_bumping(tuple(images))[0]
    shape = tuple(map(len, p_rows))
    words = set()
    for word in cell_words(p_rows):
        assert tuple(map(tuple, row_insert(word))) == p_rows, word
        words.add(word)
    assert len(words) == oracles.standard_tableau_count(shape)
    assert tuple(images) in words


def test_count_standard_tableaux_is_the_hook_length_formula():
    assert count_standard_tableaux(()) == 1
    for n in range(1, 10):
        for shape in partitions_of(n):
            want = oracles.standard_tableau_count(shape)
            assert count_standard_tableaux(shape) == want, shape
            if n <= 7:
                assert sum(1 for _ in standard_tableaux(shape)) == want, shape


def test_row_insert_with_repeated_letters():
    # a letter bumps the leftmost entry >= it, so equal letters stack
    assert row_insert((1, 1, 1)) == [[1], [1], [1]]
    assert row_insert((2, 1, 2, 1)) == [[1, 2], [1], [2]]
    assert row_insert((3, 3, 1, 2, 2)) == [[1, 2], [2], [3], [3]]
    assert row_insert(()) == []


def test_cell_class_sizes_per_shape():
    # classes of the recording tableau have the tableau-count size
    for n in range(1, 6):
        classes: defaultdict = defaultdict(set)
        for x in symmetric_group(n):
            classes[recording_tableau(x)].add(x)
        for tab, members in classes.items():
            shape = tuple(map(len, tab))
            assert len(members) == oracles.standard_tableau_count(shape)


def test_s3_partition_sizes():
    by_class = Counter(recording_tableau(x) for x in symmetric_group(3))
    assert sorted(by_class.values()) == [1, 1, 2, 2]


def test_right_equivalent_matches_class_partition():
    group = list(symmetric_group(4))
    for x, y in itertools.product(group, repeat=2):
        assert right_equivalent(x, y) == (
            recording_tableau(x) == recording_tableau(y)
        )
    assert all(right_equivalent(x, x) for x in group)
    with pytest.raises(ValueError):
        right_equivalent(identity(3), identity(4))


def test_right_cell_frozen_examples():
    assert right_cell_of(identity(4)) == {identity(4)}
    assert right_cell_of(longest_element(4)) == {longest_element(4)}
    w = parabolic(composition_generators((2, 1)), 3).longest
    cell = right_cell_of(w)
    assert {x.images for x in cell} == {(2, 1, 3), (3, 1, 2)}


def test_right_cell_matches_the_scan_up_to_s6():
    for n in range(1, 7):
        for w in symmetric_group(n):
            cell = {x.images for x in right_cell_of(w)}
            assert cell == oracles.right_cell_by_scan(w.images), w


def test_right_cell_at_degree_12_shares_the_recording_tableau():
    w = Permutation(tuple(v for k in range(1, 13, 2) for v in (k + 1, k)))
    cell = right_cell_of(w, limit=12)
    assert len(cell) == oracles.standard_tableau_count((6, 6)) == 132
    target = oracles.rs_pair_by_bumping(w.images)[1]
    assert all(oracles.rs_pair_by_bumping(x.images)[1] == target for x in cell)


def test_cell_of_subgroup_longest_stays_in_coset():
    for n in range(2, 7):
        for parts in compositions_of(n):
            gens = composition_generators(parts)
            data = parabolic(gens, n)
            cosets = {data.longest * d for d in data.reps}
            assert right_cell_of(data.longest) <= cosets


def test_right_cell_guard():
    with pytest.raises(GuardExceeded):
        right_cell_of(identity(5), limit=4)
    assert right_cell_of(identity(5), limit=5) == {identity(5)}


def test_guard_env_override(monkeypatch):
    # only the limit argument moves the bound off DEFAULT_MAX_DEGREE
    monkeypatch.setenv("CELLRIM_MAX_N", "4")
    assert right_cell_of(identity(5)) == {identity(5)}
    monkeypatch.setenv("CELLRIM_MAX_N", "20")
    with pytest.raises(GuardExceeded):
        right_cell_of(identity(10))


def test_tableau_validation():
    with pytest.raises(ValueError, match="rows must increase"):
        standard_shape(((2, 1),))
    with pytest.raises(ValueError, match="weakly decreasing"):
        standard_shape(((1, 2), (3, 4), (5,), (6, 7)))  # lengths grow back
    with pytest.raises(ValueError, match="columns must increase"):
        standard_shape(((2, 3), (1,)))  # column decreases
    with pytest.raises(ValueError, match="exactly 1..n"):
        standard_shape(((1, 2), (5,)))  # entries not 1..3
    assert standard_shape(((1, 2, 4), (3, 5))) == (3, 2)


# ---------------------------------------------------------------------------
# shape helpers


def test_conjugate_frozen():
    assert conjugate((2, 1, 1, 2)) == (4, 2)
    assert conjugate((3, 2, 1)) == (3, 2, 1)
    assert conjugate((4,)) == (1, 1, 1, 1)
    assert conjugate(()) == ()
    assert conjugate((1, 3, 2, 1)) == (4, 2, 1)


@given(st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=8))
def test_conjugate_properties(parts):
    parts = tuple(parts)
    conj = conjugate(parts)
    assert is_partition(conj)
    assert sum(conj) == sum(parts)
    # conjugating twice sorts the composition into a partition
    assert conjugate(conj) == tuple(sorted(parts, reverse=True))


def test_dominance():
    assert dominates((3, 1), (2, 2))
    assert not dominates((2, 2), (3, 1))
    assert dominates((2, 2), (2, 2))
    assert not dominates((3, 3), (4, 1, 1)) and not dominates((4, 1, 1), (3, 3))
    with pytest.raises(ValueError):
        dominates((2,), (3,))
    # dominance is a partial order on partitions of 6
    parts6 = list(partitions_of(6))
    for a in parts6:
        for b in parts6:
            if dominates(a, b) and dominates(b, a):
                assert a == b


def test_compositions_and_partitions():
    assert list(compositions_of(0)) == [()]
    assert list(compositions_of(3)) == [(3,), (1, 2), (2, 1), (1, 1, 1)]
    for n in range(1, 9):
        comps = list(compositions_of(n))
        assert len(comps) == 2 ** (n - 1)
        assert len(set(comps)) == len(comps)
        assert all(sum(c) == n and min(c) > 0 for c in comps)
    assert len(list(partitions_of(6))) == 11
