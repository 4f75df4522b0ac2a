"""Tests for the permutation layer: lengths, inversion sets, prefix order,
parabolic coset data and rim transport."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cellrim.diagrams import Diagram, w_of_diagram
from cellrim.families import rim_diagrams
from cellrim.permutations import (
    Permutation,
    composition_generators,
    generator_blocks,
    identity,
    is_prefix,
    longest_element,
    parabolic,
    positive_pairs,
    prefix_maximal,
    reduced_word,
    simple,
)
from cellrim.tableaux import compositions_of

import oracles
from oracles import symmetric_group
from claims import (
    act_on_pairs,
    coset_decompose,
    embedded,
    from_word,
    in_young_subgroup,
    induced_rim,
    inversions,
    is_coset_rep,
    left_descents,
    prefix_closure,
    same_block_pairs,
)


def perms(max_n: int = 8):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.permutations(list(range(1, n + 1)))
    )


def all_gen_subsets(n: int):
    return [
        frozenset(J)
        for k in range(n)
        for J in itertools.combinations(range(1, n), k)
    ]


# ---------------------------------------------------------------------------
# lengths and inversion sets


@given(perms())
def test_length_counts_inversions(images):
    x = Permutation(tuple(images))
    assert x.length == oracles.count_inversions(x.images)


@given(perms())
def test_inversion_set_matches_definition(images):
    x = Permutation(tuple(images))
    assert inversions(x) == oracles.inversion_pairs(x.images)


def test_mask_matches_the_pair_by_pair_oracle_on_s6():
    for images in itertools.permutations(range(1, 7)):
        assert Permutation(images).mask == oracles.mask_by_pairs(images)


@settings(max_examples=50, deadline=None)
@given(st.permutations(list(range(1, 40))))
def test_mask_matches_the_pair_by_pair_oracle_at_degree_39(images):
    assert Permutation(tuple(images)).mask == oracles.mask_by_pairs(tuple(images))


def test_inversion_set_from_any_reduced_word():
    # route through the pair action, letter by letter, for every reduced word
    for images in itertools.permutations(range(1, 5)):
        expected = oracles.inversion_pairs(images)
        for word in oracles.all_reduced_words(images):
            assert oracles.inversions_from_reduced_word(4, word) == expected


def test_peeling_a_left_descent():
    # removing a left descent i moves the inversions by s_i and drops (i, i+1)
    for x in symmetric_group(5):
        for i in left_descents(x):
            s = simple(i, 5)
            shorter = s * x
            assert shorter.length == x.length - 1
            rebuilt = act_on_pairs(inversions(shorter), s) | {(i, i + 1)}
            assert rebuilt == inversions(x)


def test_group_arithmetic():
    x = Permutation((2, 3, 1))
    assert x.inverse() * x == identity(3)
    assert (x * x).images == (3, 1, 2)
    assert longest_element(4).length == 6
    assert [simple(i, 3).images for i in (1, 2)] == [(2, 1, 3), (1, 3, 2)]
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))
    with pytest.raises(ValueError):
        simple(3, 3)
    with pytest.raises(ValueError, match="degree mismatch"):
        identity(2) * identity(3)


# ---------------------------------------------------------------------------
# reduced words


def test_reduced_word_frozen_examples():
    assert reduced_word(from_word(3, [2, 1])) == (2, 1)
    assert reduced_word(longest_element(3)) == (1, 2, 1)
    assert reduced_word(identity(4)) == ()


def test_reduced_word_is_lex_least():
    for n in (2, 3, 4):
        for images in itertools.permutations(range(1, n + 1)):
            x = Permutation(images)
            word = reduced_word(x)
            assert from_word(n, word) == x
            assert len(word) == x.length
            assert word == min(oracles.all_reduced_words(images))


def test_reduced_word_matches_restart_oracle_up_to_s7():
    for n in range(1, 8):
        for x in symmetric_group(n):
            assert reduced_word(x) == oracles.reduced_word_by_restart(x.images)


def test_reduced_word_matches_restart_oracle_on_a_large_rim():
    # every 16th rim word of (6, 20, 12, 1): degree 39, lengths up to 287
    diagrams = sorted(rim_diagrams((6, 20, 12, 1))[0], key=Diagram.rows)
    assert len(diagrams) == 48048
    for D in diagrams[::16]:
        w = w_of_diagram(D)
        assert reduced_word(w) == oracles.reduced_word_by_restart(w.images)


# ---------------------------------------------------------------------------
# prefix order


def test_is_prefix_matches_inversion_containment():
    for n in (2, 3, 4, 5):
        group = list(symmetric_group(n))
        for p in group:
            expected_pairs = oracles.inversion_pairs(p.images)
            for x in group:
                by_mask = is_prefix(p, x)
                assert by_mask == (expected_pairs <= oracles.inversion_pairs(x.images))
                assert by_mask == oracles.is_prefix_by_length(p.images, x.images)


def test_is_prefix_matches_word_initial_segments():
    for images in itertools.permutations(range(1, 5)):
        x = Permutation(images)
        segment_images = oracles.prefixes_by_words(images)
        for p in symmetric_group(4):
            assert is_prefix(p, x) == (p.images in segment_images)


def test_prefix_closure_and_maximal():
    top = from_word(3, [2, 1])
    closure = prefix_closure([top])
    assert {x.images for x in closure} == {(1, 2, 3), (1, 3, 2), (2, 3, 1)}
    assert prefix_maximal(closure) == {top}
    assert prefix_closure([]) == set()
    # closures are prefix-closed: every prefix of a member is a member
    for x in symmetric_group(4):
        closed = prefix_closure([x])
        for y in closed:
            assert all(is_prefix(z, y) <= (z in closed) for z in symmetric_group(4))


def test_equal_inversion_sets_means_equal():
    for n in (2, 3, 4, 5):
        seen = {}
        for x in symmetric_group(n):
            assert x.mask not in seen
            seen[x.mask] = x



def permutation_sets(n: int):
    return st.sets(st.permutations(list(range(1, n + 1))).map(tuple), max_size=30)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([4, 5]).flatmap(permutation_sets))
@example(set())
@example({(1, 2, 3, 4)})
@example({(5, 4, 3, 2, 1)})
def test_prefix_maximal_matches_pairwise(images):
    # arbitrary subsets: not prefix-closed, possibly empty or a singleton
    got = prefix_maximal(Permutation(a) for a in images)
    assert {x.images for x in got} == oracles.prefix_maximal_pairwise(images)

# ---------------------------------------------------------------------------
# parabolic subgroups and coset representatives


def test_parabolic_frozen_s3():
    data = parabolic(frozenset({1}), 3)
    assert data.longest.images == (2, 1, 3)
    assert data.longest_rep.images == (2, 3, 1)
    assert [x.images for x in data.reps] == [(1, 2, 3), (1, 3, 2), (2, 3, 1)]


def test_parabolic_extremes():
    empty = parabolic(frozenset(), 3)
    assert empty.longest == identity(3)
    assert empty.longest_rep == longest_element(3)
    assert len(empty.reps) == 6
    full = parabolic(frozenset({1, 2}), 3)
    assert full.longest == longest_element(3)
    assert full.longest_rep == identity(3)
    assert [x.images for x in full.reps] == [(1, 2, 3)]
    for gens in ({0}, {3}, {1, 3}):
        with pytest.raises(ValueError, match="out of range for S_3"):
            parabolic(frozenset(gens), 3)


def test_parabolic_reps_exhaustive():
    for n in (2, 3, 4, 5):
        group = list(symmetric_group(n))
        for gens in all_gen_subsets(n):
            data = parabolic(gens, n)
            expected = {x for x in group if is_coset_rep(x, gens)}
            assert set(data.reps) == expected
            assert all(is_prefix(x, data.longest_rep) for x in data.reps)
            subgroup = [x for x in group if in_young_subgroup(x, gens)]
            assert len(data.reps) * len(subgroup) == len(group)
            assert data.longest == max(subgroup, key=lambda x: x.length)


@pytest.mark.parametrize(
    "parts",
    [lam for n in range(1, 7) for lam in compositions_of(n)]
    + [(4, 2, 1, 1), (3, 3, 2)],
    ids=str,
)
def test_parabolic_reps_match_weak_order_growth(parts):
    n = sum(parts)
    gens = composition_generators(parts)
    got = tuple(x.images for x in parabolic(gens, n).reps)
    assert got == oracles.coset_reps_by_weak_order(gens, n)

def test_rep_inversions_avoid_blocks():
    # the longest rep inverts exactly the cross-block pairs, and the
    # inversion set is fixed by every subgroup element acting on pairs
    for n in (2, 3, 4, 5):
        group = list(symmetric_group(n))
        all_pairs = frozenset(positive_pairs(n))
        for gens in all_gen_subsets(n):
            data = parabolic(gens, n)
            cross_block = all_pairs - same_block_pairs(gens, n)
            assert inversions(data.longest_rep) == cross_block
            subgroup = [x for x in group if in_young_subgroup(x, gens)]
            for v in subgroup:
                assert act_on_pairs(inversions(data.longest_rep), v) == cross_block
            for d in data.reps:
                for v in subgroup:
                    assert act_on_pairs(inversions(d), v) <= cross_block


def test_coset_decompose_frozen():
    u, d = coset_decompose(Permutation((3, 1, 2)), frozenset({1}))
    assert u.images == (2, 1, 3)
    assert d.images == (1, 3, 2)


def test_coset_decompose_exhaustive():
    for n in (2, 3, 4, 5):
        for gens in all_gen_subsets(n):
            data = parabolic(gens, n)
            reps = set(data.reps)
            for x in symmetric_group(n):
                u, d = coset_decompose(x, gens)
                assert u * d == x
                assert in_young_subgroup(u, gens)
                assert d in reps
                assert u.length + d.length == x.length
                # inversions split: x picks up u's, plus d's moved back by u
                moved = act_on_pairs(inversions(d), u.inverse())
                assert moved.isdisjoint(inversions(u))
                assert moved | inversions(u) == inversions(x)


def test_products_with_reps_respect_prefix_order():
    # u1 prefix of u2 inside the subgroup forces u1*d prefix of u2*longest_rep
    for n in (3, 4, 5):
        group = list(symmetric_group(n))
        for gens in all_gen_subsets(n):
            data = parabolic(gens, n)
            subgroup = [x for x in group if in_young_subgroup(x, gens)]
            for u1, u2 in itertools.product(subgroup, repeat=2):
                if not is_prefix(u1, u2):
                    continue
                top = u2 * data.longest_rep
                assert all(is_prefix(u1 * d, top) for d in data.reps)


def test_prefix_descends_to_coset_components():
    for n in (3, 4):
        group = list(symmetric_group(n))
        for gens in all_gen_subsets(n):
            parts = {x: coset_decompose(x, gens) for x in group}
            for xp, x in itertools.product(group, repeat=2):
                if is_prefix(xp, x):
                    up, dp = parts[xp]
                    u, d = parts[x]
                    assert is_prefix(up, u)
                    assert is_prefix(dp, d)


def test_coset_component_prefixes_do_not_imply_prefix():
    # the converse of the previous test fails already in S_3
    gens = frozenset({1})
    xp = simple(2, 3)
    x = from_word(3, [1, 2])
    up, dp = coset_decompose(xp, gens)
    u, d = coset_decompose(x, gens)
    assert (up, dp) == (identity(3), simple(2, 3))
    assert (u, d) == (simple(1, 3), simple(2, 3))
    assert is_prefix(up, u) and is_prefix(dp, d)
    assert not is_prefix(xp, x)
    # while the reversed right factor is comparable
    assert is_prefix(xp, from_word(3, [2, 1]))


# ---------------------------------------------------------------------------
# composition generators and rim transport


def test_composition_generators():
    assert composition_generators((3,)) == frozenset({1, 2})
    assert composition_generators((1, 1, 1)) == frozenset()
    assert composition_generators((2, 1)) == frozenset({1})
    assert composition_generators((1, 3, 2, 1)) == frozenset({2, 3, 5})
    assert generator_blocks(composition_generators((2, 2)), 4) == ((1, 2), (3, 4))


def test_induced_rim_frozen():
    out = induced_rim([identity(3)], frozenset({1}))
    assert {x.images for x in out} == {(2, 3, 1)}
    assert prefix_closure(out) == set(parabolic(frozenset({1}), 3).reps)
    data = parabolic(frozenset({1, 2}), 4)
    assert induced_rim([data.longest], frozenset({1, 2})) == {longest_element(4)}
    with pytest.raises(ValueError):
        induced_rim([simple(2, 3)], frozenset({1}))


def ideals_of_subgroup(subgroup):
    return oracles.downsets(list(subgroup), lambda a, b: is_prefix(a, b))


def test_induced_rim_for_every_small_ideal():
    # enumerate every prefix-closed subset of the subgroup, transport its
    # maximal elements, and compare closures with the transported ideal
    for n in (2, 3, 4):
        group = list(symmetric_group(n))
        for gens in all_gen_subsets(n):
            data = parabolic(gens, n)
            subgroup = [x for x in group if in_young_subgroup(x, gens)]
            for ideal in ideals_of_subgroup(subgroup):
                rim = prefix_maximal(ideal)
                transported = {z * d for z in ideal for d in data.reps}
                assert prefix_closure(induced_rim(rim, gens)) == transported
                assert prefix_maximal(transported) == induced_rim(rim, gens)


def test_induced_rim_for_proper_parabolics_of_s5():
    n = 5
    group = list(symmetric_group(n))
    for gens in all_gen_subsets(n):
        if len(gens) == n - 1:
            continue  # the full group: transport is the identity map
        data = parabolic(gens, n)
        subgroup = [x for x in group if in_young_subgroup(x, gens)]
        for ideal in ideals_of_subgroup(subgroup):
            rim = prefix_maximal(ideal)
            transported = {z * d for z in ideal for d in data.reps}
            assert prefix_closure(induced_rim(rim, gens)) == transported


def test_induced_rim_full_group_sampled():
    # with every generator present the transport multiplies by the identity,
    # so the closure of the maximal elements must give back the ideal
    rng = random.Random(20240816)
    group = list(symmetric_group(5))
    gens = frozenset(range(1, 5))
    for _ in range(25):
        seed = rng.sample(group, rng.randrange(1, 8))
        ideal = prefix_closure(seed)
        rim = prefix_maximal(ideal)
        assert prefix_closure(induced_rim(rim, gens)) == ideal


# ---------------------------------------------------------------------------
# misc helpers


def test_embedded():
    x = from_word(3, [2, 1])
    assert embedded(x, 5).images == (2, 3, 1, 4, 5)
    assert embedded(x, 3) == x
    with pytest.raises(ValueError):
        embedded(x, 2)


def test_inversion_set_guards():
    with pytest.raises(ValueError):
        act_on_pairs(inversions(longest_element(4)), identity(3))
    with pytest.raises(ValueError):
        is_prefix(identity(3), identity(4))
