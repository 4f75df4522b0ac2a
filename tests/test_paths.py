"""Tests for path families: ordering, types, forms, and straightening."""

from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cellrim.paths as paths
import ci_checks
import oracles
from cellrim.diagrams import (
    Diagram,
    is_special,
    min_column_diagram,
    psi_append,
    rotate_180,
    young_diagram,
)
from cellrim.families import StuShape, family_diagram, family_parameter_sets
from cellrim.paths import (
    FormClass,
    KPath,
    _chains_within,
    _first_core,
    _form_profiles,
    _precedes_ok,
    classify_form,
    family_with_lengths,
    find_form_path,
    is_admissible,
    is_ordered,
    subsequence_type,
)
from cellrim.permutations import (
    VerificationError,
    composition_generators,
    parabolic,
)
from cellrim.tableaux import conjugate
from claims import (
    _chain_masks,
    core_counts_hold,
    dominates,
    filling,
    is_standard,
    order_equivalent,
    partitions_of,
    row_distribution_holds,
    row_filling,
    straighten,
)
from fixtures import (
    ADMISSIBLE_NO_CONJUGATE_PATH,
    DIAGRAM_4631,
    FAMILY_M_385,
    FAMILY_N_358,
    PATH_A_4631,
    PATH_A_M_385,
    PATH_A_N_358,
    PATH_B_4631,
    PATH_B_M_385,
    PATH_B_N_358,
    STRAIGHTENED_A_4631,
    box_diagrams,
)

CORPUS = box_diagrams(3, 3)

node_sets = st.frozensets(
    st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=7
)
large_node_sets = st.frozensets(
    st.tuples(st.integers(1, 7), st.integers(1, 7)), min_size=1, max_size=30
)


def chains_of(nodes: frozenset, length: int) -> list[tuple]:
    """All chains of exactly the given length inside the node set."""
    out: list[tuple] = []

    def grow(chain: list) -> None:
        if len(chain) == length:
            out.append(tuple(chain))
            return
        a, b = chain[-1]
        for v in sorted(nodes):
            if v[0] > a and v[1] >= b:
                chain.append(v)
                grow(chain)
                chain.pop()

    for v in sorted(nodes):
        grow([v])
    return out


def has_family(nodes: frozenset, lengths: tuple[int, ...]) -> bool:
    """Whether disjoint chains of the given lengths fit in the node set,
    by trying every chain for the first length."""
    return not lengths or any(
        has_family(nodes - set(c), lengths[1:])
        for c in chains_of(nodes, lengths[0])
    )


def core_plans(D: Diagram) -> list[dict[int, int]]:
    """The core length counts find_form_path tries: form A, then form B."""
    s, t, u = sorted(D.row_composition()[:3], reverse=True)
    plans = [{1: 0, 2: t - u, 3: u - 1, 4: 1}]
    if t > u:
        plans.append({1: 0, 2: t - u - 1, 3: u + 1, 4: 0})
    return plans


def t_rows(D: Diagram) -> list[int]:
    """The rows of size t among D's first three other than the s-row
    find_form_path takes (the first longest); each holds one node of
    every core path, so any of them may pin the core search."""
    sizes = D.row_composition()
    s, t, _ = sorted(sizes[:3], reverse=True)
    return [a for a in (1, 2, 3) if sizes[a - 1] == t and a != sizes.index(s) + 1]


def first_core(D: Diagram, counts: dict[int, int], t_row: int | None = None):
    """_first_core on D's chains of two to four nodes that meet the s-row
    (the first longest), filed under the node they hold on the t-row (by
    default the first of t_rows), as find_form_path files them."""
    sizes = D.row_composition()
    s_row = sizes.index(max(sizes)) + 1
    row = t_rows(D)[0] if t_row is None else t_row
    chains = _chains_within(D.nodes, frozenset({2, 3, 4}))
    candidates = [
        [c for c in chains if x in c and s_row in dict(c)]
        for x in sorted(x for x in D.nodes if x[0] == row)
    ]
    return _first_core(candidates, tuple(counts[k] for k in (2, 3, 4)))


def by_s_row(D: Diagram, chains) -> tuple:
    """The chains listed by the column where each meets D's longest row,
    the order find_form_path gives a full form family."""
    sizes = D.row_composition()
    row = sizes.index(max(sizes)) + 1
    return tuple(sorted(chains, key=lambda c: dict(c)[row]))


def check_against_oracles(D: Diagram, pi: KPath, form: FormClass) -> None:
    """The answer of find_form_path is the plain pipeline's (backtracked
    cores, pairwise insertion), and a form-A answer, whose profile is the
    conjugate of the rows, implies a disjoint family of that type."""
    s, t, u = sorted(D.row_composition()[:3], reverse=True)
    want = oracles.form_path_by_insertion(D.nodes, s, t, u)
    assert (pi.constituents, form.value) == want, D
    if form is FormClass.A:
        profile = conjugate(D.row_composition())
        assert family_with_lengths(D, profile) is not None, D


def small_form_hosts() -> list[Diagram]:
    """Admissible minimal-column diagrams over every arrangement of
    (3, 2, 1) and of five heads with tied parts, each with a fourth row
    of one, and every H, M and N member at (s, t, u) = (5, 3, 2)."""
    heads = ((3, 2, 1), (2, 2, 1), (2, 1, 1), (2, 2, 2), (3, 3, 1), (3, 1, 1))
    hosts = []
    for head in sorted({p for h in heads for p in itertools.permutations(h)}):
        lam = head + (1,)
        for e in parabolic(composition_generators(lam), sum(lam)).reps:
            D = min_column_diagram(e, lam)
            if is_admissible(D):
                hosts.append(D)
    s, t, u = 5, 3, 2
    for order in ((t, u, s), (u, s, t), (u, t, s)):
        shape = StuShape(s, t, u, order)
        for params in family_parameter_sets(shape):
            hosts.append(family_diagram(params, shape))
    return hosts


def singleton_family(D: Diagram) -> KPath:
    """Every node of D as its own constituent, in sorted order."""
    return KPath(D, tuple((n,) for n in D.sorted_nodes))


def transported_row_filling(pi: KPath) -> tuple[Diagram, tuple[int, ...]]:
    """The host's row filling carried onto the straightened diagram."""
    E = straighten(pi)
    host = dict(zip(pi.diagram.sorted_nodes, row_filling(pi.diagram)))
    entry = {}
    for j, chain in enumerate(pi.constituents, start=1):
        for a, b in chain:
            entry[a, j] = host[a, b]
    return E, filling(E, (entry[n] for n in E.sorted_nodes))


def assert_matches_trial(D: Diagram) -> Diagram | None:
    """psi_append and the trial oracle agree, raising on the same inputs;
    returns the extension, or None when both raise."""
    try:
        expected = oracles.psi_append_by_trial(D.nodes)
    except ValueError:
        with pytest.raises(ValueError, match="no admissible"):
            psi_append(D)
        return None
    E = psi_append(D)
    assert E.nodes == expected, D
    return E


class TestKPathValidation:
    def test_accessors(self):
        pi = KPath(DIAGRAM_4631, PATH_A_4631)
        assert pi.k == 6
        assert pi.size == 14
        assert pi.support == DIAGRAM_4631.nodes
        assert pi.lengths() == (1, 4, 3, 1, 3, 2)
        assert pi.path_type() == (4, 3, 3, 2, 1, 1)

    def test_lists_are_coerced(self):
        pi = KPath(young_diagram((2,)), ([(1, 1)], [(1, 2)]))
        assert pi.constituents == (((1, 1),), ((1, 2),))

    def test_empty_constituent_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            KPath(young_diagram((2,)), (((1, 1),), ()))

    def test_non_path_rejected(self):
        with pytest.raises(ValueError, match="not a path"):
            KPath(young_diagram((2,)), (((1, 1), (1, 2)),))
        with pytest.raises(ValueError, match="not a path"):
            KPath(young_diagram((1, 1)), (((2, 1), (1, 1)),))

    def test_node_outside_diagram_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            KPath(young_diagram((2,)), (((2, 1),),))

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            KPath(young_diagram((2,)), (((1, 1),), ((1, 1),)))


class TestIsOrdered:
    def test_fixture_families_are_ordered(self):
        for D, path in (
            (DIAGRAM_4631, PATH_A_4631),
            (DIAGRAM_4631, PATH_B_4631),
            (FAMILY_M_385, PATH_B_M_385),
            (FAMILY_N_358, PATH_B_N_358),
        ):
            assert is_ordered(KPath(D, path))

    def test_full_type_need_not_mean_ordered(self):
        # Each of these families realises the largest possible type yet
        # lists two constituents in an incompatible order.
        for D, path in (
            (FAMILY_M_385, PATH_A_M_385),
            (FAMILY_N_358, PATH_A_N_358),
        ):
            pi = KPath(D, path)
            assert pi.path_type() == conjugate(D.row_composition())
            assert not is_ordered(pi)

    def test_single_constituent_is_ordered(self):
        D = Diagram.from_rows([(1,), (1,)])
        assert is_ordered(KPath(D, (((1, 1), (2, 1)),)))

    def test_same_column_singletons_list_deepest_first(self):
        D = Diagram.from_rows([(1,), (1,)])
        assert is_ordered(KPath(D, (((2, 1),), ((1, 1),))))
        assert not is_ordered(KPath(D, (((1, 1),), ((2, 1),))))


class TestSubsequenceType:
    def test_frozen_small_cases(self):
        assert subsequence_type(young_diagram((4,))) == (1, 1, 1, 1)
        assert subsequence_type(Diagram.from_rows([(1,)] * 4)) == (4,)
        assert subsequence_type(young_diagram((2, 2))) == (2, 2)
        assert subsequence_type(young_diagram((3, 1))) == (2, 1, 1)

    def test_fixture_types(self):
        assert subsequence_type(DIAGRAM_4631) == (4, 3, 3, 2, 1, 1)
        assert subsequence_type(FAMILY_M_385) == (4, 3, 3, 2, 2, 1, 1, 1)
        assert subsequence_type(FAMILY_N_358) == (4, 3, 3, 2, 2, 1, 1, 1)

    def test_young_diagrams_have_conjugate_type(self):
        for n in range(1, 7):
            for shape in partitions_of(n):
                assert subsequence_type(young_diagram(shape)) == conjugate(
                    shape
                )

    def test_agrees_with_backtracking_search(self):
        for D in CORPUS:
            assert subsequence_type(D) == oracles.subsequence_type_by_search(
                D.nodes
            ), D

    def test_is_a_partition_summing_to_size(self):
        for D in CORPUS:
            nu = subsequence_type(D)
            assert sum(nu) == D.size
            assert all(x >= y for x, y in zip(nu, nu[1:]))

    def test_sandwiched_between_column_and_row_bounds(self):
        for D in CORPUS:
            nu = subsequence_type(D)
            cols = tuple(sorted(D.column_composition(), reverse=True))
            assert dominates(nu, cols)
            assert dominates(conjugate(D.row_composition()), nu)

    @settings(max_examples=60, deadline=None)
    @given(node_sets)
    def test_random_diagrams_match_search(self, nodes):
        D = Diagram(nodes)
        assert subsequence_type(D) == oracles.subsequence_type_by_search(
            D.nodes
        )

    def test_agrees_with_flow_on_every_box_diagram(self):
        for D in box_diagrams(3, 4) + box_diagrams(4, 3):
            assert subsequence_type(D) == oracles.subsequence_type_by_flow(
                D.nodes
            ), D

    @settings(max_examples=100, deadline=None)
    @given(large_node_sets)
    def test_large_random_diagrams_match_flow(self, nodes):
        D = Diagram(nodes)
        assert subsequence_type(D) == oracles.subsequence_type_by_flow(
            D.nodes
        )

    @pytest.mark.parametrize(
        "rows, expected",
        [
            ([(1,), (1,)], (2,)),
            ([(1, 2, 3), (1,)], (2, 1, 1)),
        ],
    )
    def test_reading_order_and_strict_insertion(self, rows, expected):
        # A column read bottom to top, or a bump of the leftmost entry > x,
        # yields the weak-chain type on these diagrams.
        D = Diagram.from_rows(rows)
        assert subsequence_type(D) == expected
        assert subsequence_type(rotate_180(D)) == expected


class TestAdmissible:
    def test_young_diagrams_admissible(self):
        for n in range(1, 7):
            for shape in partitions_of(n):
                assert is_admissible(young_diagram(shape))

    def test_antichain_pair_not_admissible(self):
        assert not is_admissible(Diagram(frozenset({(1, 2), (2, 1)})))

    def test_special_implies_admissible(self):
        for D in CORPUS:
            if is_special(D):
                assert is_admissible(D), D

    def test_admissible_without_conjugate_profile_family(self):
        # This diagram is admissible, yet no two disjoint chains have
        # sizes exactly matching the conjugate of the row sizes: the
        # best coverings split four plus two nodes as three plus three.
        D = ADMISSIBLE_NO_CONJUGATE_PATH
        assert D.row_composition() == (2, 1, 1, 2)
        assert conjugate(D.row_composition()) == (4, 2)
        assert is_admissible(D)
        pairs_4_2 = [
            c4
            for c4 in chains_of(D.nodes, 4)
            if chains_of(D.nodes - set(c4), 2)
        ]
        assert pairs_4_2 == []
        assert any(
            chains_of(D.nodes - set(c3), 3) for c3 in chains_of(D.nodes, 3)
        )


class TestOrderEquivalent:
    def test_matches_brute_force_canonical_cover(self):
        rng = random.Random(20260816)
        box = [(a, b) for a in range(1, 5) for b in range(1, 5)]
        for _ in range(150):
            D = Diagram(frozenset(rng.sample(box, rng.randint(1, 6))))
            got = order_equivalent(singleton_family(D))
            assert got.constituents == oracles.best_ordered_cover(D.nodes)

    @settings(max_examples=40, deadline=None)
    @given(node_sets)
    def test_result_is_ordered_cover_and_canonical(self, nodes):
        D = Diagram(nodes)
        result = order_equivalent(singleton_family(D))
        assert result.support == D.nodes
        assert is_ordered(result)
        assert order_equivalent(result).constituents == result.constituents

    def test_input_listing_does_not_matter(self):
        D = Diagram(frozenset({(1, 1), (1, 2), (2, 1), (3, 2)}))
        chains = (((1, 1), (2, 1)), ((1, 2), (3, 2)))
        a = order_equivalent(KPath(D, chains))
        b = order_equivalent(KPath(D, chains[::-1]))
        assert a.constituents == b.constituents

    def test_prefers_fewest_then_longest(self):
        # Both nodes fit in one chain, so two singletons merge.
        D = Diagram.from_rows([(1,), (2,)])
        result = order_equivalent(singleton_family(D))
        assert result.lengths() == (2,)

    def test_fixture_family_reorders_to_neither_form(self):
        result = order_equivalent(KPath(DIAGRAM_4631, PATH_B_4631))
        assert result.lengths() == (3, 3, 3, 2, 2, 1)
        assert classify_form(result) is FormClass.NEITHER


class TestFamilyWithLengths:
    TYPES = ((1,), (2,), (3,), (1, 1), (2, 1), (2, 2), (3, 1), (2, 1, 1))

    def test_exists_exactly_when_brute_force_finds_one(self):
        found = 0
        for D in CORPUS:
            for lengths in (conjugate(D.row_composition()),) + self.TYPES:
                pi = family_with_lengths(D, lengths)
                assert (pi is not None) is has_family(D.nodes, lengths), (
                    D, lengths,
                )
                if pi is not None:
                    assert isinstance(pi, KPath) and pi.diagram == D
                    assert sorted(pi.lengths()) == sorted(lengths)
                    found += 1
        assert found > len(CORPUS)

    def test_unsorted_request_gets_sorted_family(self):
        D = young_diagram((2, 2, 1))
        pi = family_with_lengths(D, (1, 3, 1))
        assert pi.lengths() == (3, 1, 1)

    def test_non_positive_length_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            family_with_lengths(young_diagram((2,)), (2, 0))
        with pytest.raises(ValueError, match="positive"):
            family_with_lengths(young_diagram((2,)), ())


class TestOrderedCores:
    @settings(max_examples=200, deadline=None)
    @given(large_node_sets, st.frozensets(st.integers(1, 5), max_size=4))
    def test_chains_are_listed_in_lexicographic_order(self, nodes, lengths):
        chains = _chains_within(nodes, lengths)
        assert chains == sorted(chains)
        for k in range(1, 6):
            listed = [c for c in chains if len(c) == k]
            assert listed == (chains_of(nodes, k) if k in lengths else [])

    def test_chain_masks_match_pair_condition(self):
        for D in CORPUS + [DIAGRAM_4631, FAMILY_M_385]:
            chains, follow, through = _chain_masks(
                D.nodes, frozenset(range(1, 5))
            )
            assert chains == sorted(chains)
            for x in D.nodes:
                for j, c in enumerate(chains):
                    assert bool(through[x] >> j & 1) is (x in c), (D, x, c)
            for i, c in enumerate(chains):
                for j, c2 in enumerate(chains):
                    ok = not set(c) & set(c2) and _precedes_ok(c, c2)
                    assert bool(follow[i] >> j & 1) is ok, (D, c, c2)

    def test_first_core_matches_backtracking(self):
        # the tied heads make every row of size t other than the s-row a
        # valid pin, and each must give the oracle's first core
        hosts = small_form_hosts()
        tied_hosts = tied_found = 0
        for D in hosts:
            tied = len(set(D.row_composition()[:3])) < 3
            tied_hosts += tied
            for counts in core_plans(D):
                want = next(
                    oracles.ordered_cores_by_backtracking(D.nodes, counts), None
                )
                for t_row in t_rows(D):
                    assert first_core(D, counts, t_row) == want, (D, counts, t_row)
                tied_found += tied and want is not None
        assert len(hosts) - tied_hosts > 100
        assert (tied_hosts, tied_found) == (251, 406)

    def test_first_core_matches_backtracking_on_form_b_fixtures(self):
        # The form-A plan has no core here, so both searches must exhaust
        # it before the form-B plan finds one.
        for D in (FAMILY_M_385, FAMILY_N_358):
            plan_a, plan_b = core_plans(D)
            oracle_a = oracles.ordered_cores_by_backtracking(D.nodes, plan_a)
            oracle_b = oracles.ordered_cores_by_backtracking(D.nodes, plan_b)
            assert first_core(D, plan_a) is None
            assert next(oracle_a, None) is None
            assert first_core(D, plan_b) == next(oracle_b)


class TestInsertSingletons:
    """The pairwise reference placement, oracles.insert_singletons, and
    the order find_form_path lists a full form family in: by the column
    where each constituent meets the s-row."""

    def test_no_extras_returns_same_family(self):
        assert oracles.insert_singletons(PATH_B_4631, []) == PATH_B_4631
        assert by_s_row(DIAGRAM_4631, PATH_B_4631[::-1]) == PATH_B_4631

    def test_forced_positions_reproduce_fixture(self):
        for D, fixture in (
            (FAMILY_M_385, PATH_B_M_385),
            (FAMILY_N_358, PATH_B_N_358),
        ):
            core = tuple(c for c in fixture if len(c) > 1)
            extras = [c[0] for c in fixture if len(c) == 1]
            assert oracles.insert_singletons(core, extras) == fixture
            assert by_s_row(D, core + tuple((x,) for x in extras)) == fixture
            assert find_form_path(D)[0].constituents == fixture

    def test_same_column_singletons_insert_deepest_first(self):
        # no full form family has two singletons in one column, as both
        # would lie on the s-row; only the reference placement meets this
        out = oracles.insert_singletons((((1, 1), (2, 1)),), [(1, 2), (2, 2)])
        assert out == (
            ((1, 1), (2, 1)),
            ((2, 2),),
            ((1, 2),),
        )

    def test_straddling_node_is_rejected_by_column(self):
        # (2, 1) lies between the core's nodes in column 1, so no place
        # takes it; (3, 2), right of the core's last node, can be placed.
        # A leftover s-row node never straddles a path that meets the
        # s-row elsewhere, so find_form_path needs no such rejection.
        with pytest.raises(ValueError, match="column 1"):
            oracles.insert_singletons((((1, 1), (3, 1)),), [(2, 1)])
        with pytest.raises(ValueError, match="column 1"):
            oracles.insert_singletons((((1, 1), (3, 1)),), [(2, 1), (3, 2)])
        assert oracles.insert_singletons((((1, 1), (3, 1)),), [(3, 2)]) == (
            ((1, 1), (3, 1)),
            ((3, 2),),
        )


class TestClassifyForm:
    def test_fixture_classifications(self):
        assert classify_form(KPath(DIAGRAM_4631, PATH_A_4631)) is FormClass.A
        assert classify_form(KPath(DIAGRAM_4631, PATH_B_4631)) is FormClass.B
        assert classify_form(KPath(FAMILY_M_385, PATH_B_M_385)) is FormClass.B
        assert classify_form(KPath(FAMILY_N_358, PATH_B_N_358)) is FormClass.B

    def test_unordered_family_rejected(self):
        with pytest.raises(ValueError, match="not ordered"):
            classify_form(KPath(FAMILY_M_385, PATH_A_M_385))

    def test_wrong_shape_rejected(self):
        # dropping a constituent leaves 5 of the 6 the head (6, 4, 3) needs
        pi = KPath(DIAGRAM_4631, PATH_A_4631[:-1])
        with pytest.raises(ValueError, match="expected 6 constituents covering 14"):
            classify_form(pi)

    def test_constituent_longer_than_four_rejected(self):
        # rows (2, 2, 1, 1, 1): a five-node column and a two-node column
        # need a fifth row, and the head is read off four-row hosts only
        D = Diagram.from_rows([(1, 2), (1, 2), (1,), (1,), (1,)])
        five = tuple((a, 1) for a in range(1, 6))
        two = ((1, 2), (2, 2))
        with pytest.raises(ValueError, match="three parts followed by a single 1"):
            classify_form(KPath(D, (five, two)))
        # on the four-row host (2, 2, 1, 1) the order check still applies
        D = Diagram.from_rows([(1, 2), (1, 2), (1,), (1,)])
        four = tuple((a, 1) for a in range(1, 5))
        assert classify_form(KPath(D, (four, two))) is FormClass.A
        with pytest.raises(ValueError, match="not ordered"):
            classify_form(KPath(D, (two, four)))

    def test_profile_off_both_forms_is_neither(self):
        result = order_equivalent(KPath(DIAGRAM_4631, PATH_B_4631))
        assert classify_form(result) is FormClass.NEITHER


class TestFindFormPath:
    def test_first_fixture_supports_form_a(self):
        pi, form = find_form_path(DIAGRAM_4631)
        assert form is FormClass.A
        assert pi.support == DIAGRAM_4631.nodes
        assert is_ordered(pi)
        assert pi.lengths() == (1, 2, 3, 4, 3, 1)
        assert classify_form(pi) is FormClass.A

    def test_wider_fixtures_support_only_form_b(self):
        # Families of the largest type exist here (see the ordering
        # tests), but no ordered family has the form-A length profile.
        for D in (FAMILY_M_385, FAMILY_N_358):
            pi, form = find_form_path(D)
            assert form is FormClass.B
            assert pi.support == D.nodes
            assert classify_form(pi) is FormClass.B

    def test_single_column_is_form_a(self):
        D = Diagram.from_rows([(1,)] * 4)
        pi, form = find_form_path(D)
        assert form is FormClass.A
        assert pi.lengths() == (4,)

    def test_inadmissible_rejected(self):
        D = Diagram(frozenset({(1, 2), (2, 1), (3, 1), (4, 1)}))
        assert D.row_composition() == (1, 1, 1, 1)
        assert not is_admissible(D)
        with pytest.raises(ValueError, match="admissible"):
            find_form_path(D)

    def test_wrong_row_profile_rejected(self):
        with pytest.raises(ValueError, match="three parts"):
            find_form_path(young_diagram((2, 2)))
        with pytest.raises(ValueError, match="three parts"):
            find_form_path(young_diagram((3, 2, 1)))

    def test_exhaustive_small_shapes(self):
        # Every admissible minimal-column diagram over the six orderings
        # of (3, 2, 1) with a fourth row of size one supports a form
        # family; a longest first row forces form A.  The number of
        # admissible representatives matches the standard tableau count
        # of the conjugate shape.
        expected = oracles.standard_tableau_count((4, 2, 1))
        for head in itertools.permutations((3, 2, 1)):
            lam = head + (1,)
            admissible_count = 0
            for e in parabolic(composition_generators(lam), 7).reps:
                D = min_column_diagram(e, lam)
                if not is_admissible(D):
                    continue
                admissible_count += 1
                pi, form = find_form_path(D)
                assert pi.support == D.nodes
                assert is_ordered(pi)
                if head[0] in (3, 2):
                    assert form is FormClass.A
                assert row_distribution_holds(pi, form)
                if form is FormClass.A:
                    assert is_special(straighten(pi))
                assert is_standard(*transported_row_filling(pi))
            assert admissible_count == expected

    def test_every_admissible_diagram_of_width_at_most_four(self):
        diagrams = list(ci_checks.small_hosts(4))
        for D in diagrams:
            pi, form = find_form_path(D)
            assert pi.support == D.nodes, D
            assert is_ordered(pi), D
            assert row_distribution_holds(pi, form), D
            check_against_oracles(D, pi, form)
        assert len(diagrams) == 3383

    def test_chains_are_enumerated_once_per_call(self, monkeypatch):
        # FAMILY_M_385 exhausts plan A before plan B finds its family; no
        # one-node chains are enumerated, as the leftover nodes are placed
        # by their s-row column
        calls = []

        def counted(nodes, lengths):
            calls.append(lengths)
            return _chains_within(nodes, lengths)

        monkeypatch.setattr(paths, "_chains_within", counted)
        for D, form in (
            (DIAGRAM_4631, FormClass.A),
            (FAMILY_M_385, FormClass.B),
            (young_diagram((2, 2, 1, 1)), FormClass.A),
        ):
            calls.clear()
            assert find_form_path(D)[1] is form
            assert calls == [frozenset({2, 3, 4})]

    def test_unordered_core_is_caught_in_the_answer(self, monkeypatch):
        # a plan-A core of this diagram whose paths cross on row 3, so no
        # listing of it is ordered
        D = Diagram.from_rows([(1, 2), (1,), (2, 3), (3,)])
        crossing = (((1, 1), (2, 1), (3, 3), (4, 3)), ((1, 2), (3, 2)))
        assert set(crossing) <= set(_chains_within(D.nodes, frozenset({2, 3, 4})))
        monkeypatch.setattr(paths, "_first_core", lambda *_: crossing)
        with pytest.raises(VerificationError, match="not ordered"):
            find_form_path(D)


class TestFormPlans:
    """Each plan of find_form_path fixes its core's length counts, so the
    search never re-derives the profile or the form of a core."""

    def test_plan_profiles_satisfy_the_core_identities(self):
        for t in range(1, 41):
            for u in range(1, t + 1):
                assert core_counts_hold((0, t - u, u - 1, 1), t, u), (t, u)
                profiles = [((3, t - u, u - 1, 1), FormClass.A)]
                if u < t:
                    assert core_counts_hold((0, t - u - 1, u + 1, 0), t, u), (t, u)
                    profiles.append(((3, t - u - 1, u + 1, 0), FormClass.B))
                assert list(_form_profiles(t + 3, t, u).items()) == profiles
                # a pair shrunk to a singleton breaks them
                assert not core_counts_hold((1, t - u - 1, u - 1, 1), t, u)

    @pytest.mark.parametrize("stu", [(7, 5, 3), (8, 5, 3)])
    def test_every_closed_member_gets_its_plans_form(self, stu):
        s, t, u = stu
        members = 0
        for order in ((t, u, s), (u, s, t), (u, t, s)):
            shape = StuShape(s, t, u, order)
            for params in family_parameter_sets(shape):
                D = family_diagram(params, shape)
                pi, form = find_form_path(D)
                assert classify_form(pi) is form
                assert is_ordered(pi)
                assert pi.support == D.nodes
                plan = core_plans(D)[0 if form is FormClass.A else 1]
                core = [len(c) for c in pi.constituents if len(c) > 1]
                z = tuple(core.count(k) for k in (1, 2, 3, 4))
                assert z == tuple(plan[k] for k in (1, 2, 3, 4))
                assert core_counts_hold(z, t, u)
                assert row_distribution_holds(pi, form)
                check_against_oracles(D, pi, form)
                members += 1
        assert members == {(7, 5, 3): 82, (8, 5, 3): 133}[stu]


class TestStraighten:
    def test_fixture_straightens_to_frozen_diagram(self):
        assert (
            straighten(KPath(DIAGRAM_4631, PATH_A_4631))
            == STRAIGHTENED_A_4631
        )

    def test_young_column_family_is_fixed(self):
        D = young_diagram((3, 2))
        columns = tuple(
            tuple((a, b) for a in range(1, len(col) + 1))
            for b, col in enumerate(D.columns(), start=1)
        )
        assert straighten(KPath(D, columns)) == D

    def test_ordered_family_transports_row_filling_to_standard(self):
        for D, path in (
            (DIAGRAM_4631, PATH_A_4631),
            (DIAGRAM_4631, PATH_B_4631),
            (FAMILY_M_385, PATH_B_M_385),
            (FAMILY_N_358, PATH_B_N_358),
        ):
            assert is_standard(*transported_row_filling(KPath(D, path)))

    def test_form_a_straightens_special_but_b_need_not(self):
        assert is_special(straighten(KPath(DIAGRAM_4631, PATH_A_4631)))
        assert not is_special(straighten(KPath(DIAGRAM_4631, PATH_B_4631)))

    def test_partial_family_rejected(self):
        with pytest.raises(ValueError, match="cover"):
            straighten(KPath(DIAGRAM_4631, PATH_A_4631[:3]))


class TestPsiAppend:
    def test_single_column_grows_down(self):
        D = Diagram.from_rows([(1,), (1,)])
        assert psi_append(D) == Diagram.from_rows([(1,)] * 3)

    def test_young_hook_gains_a_row(self):
        assert psi_append(young_diagram((2, 1))) == young_diagram((2, 1, 1))

    def test_appends_one_node_row_keeping_admissibility(self):
        for D in CORPUS:
            if not is_admissible(D):
                continue
            E = psi_append(D)
            assert E.size == D.size + 1
            assert E.row_composition() == D.row_composition() + (1,)
            assert is_admissible(E)

    def test_no_admissible_extension_raises(self):
        with pytest.raises(ValueError, match="no admissible"):
            psi_append(Diagram(frozenset({(1, 2), (2, 1)})))

    def test_first_column_match_still_checks_admissibility(self):
        # Column 1 reads 1, 2, but the type is (2, 1, 1), not (2, 2).
        with pytest.raises(ValueError, match="no admissible"):
            psi_append(Diagram.from_rows([(1, 3), (1, 2)]))

    def test_matches_trial_oracle_on_every_box_diagram(self):
        # k rows appended at once are k successive least placements, and
        # the one admissibility test refuses exactly the inputs the trials do
        diagrams = box_diagrams(3, 4) + box_diagrams(4, 3)
        extended = Counter()
        for D in diagrams:
            placed = D.nodes
            for k in (1, 2, 3):
                try:
                    placed = oracles.psi_append_by_trial(placed)
                except ValueError:
                    for rows in range(k, 4):
                        with pytest.raises(ValueError, match="no admissible"):
                            psi_append(D, rows)
                    break
                assert psi_append(D, k).nodes == placed, (D, k)
                extended[k] += 1
        assert len(diagrams) == 5136
        assert extended == {1: 2470, 2: 2470, 3: 2470}

    @pytest.mark.parametrize("k", [0, -1])
    def test_fewer_than_one_row_raises(self, k):
        with pytest.raises(ValueError, match="k >= 1"):
            psi_append(young_diagram((2, 1)), k)

    @settings(max_examples=200, deadline=None)
    @given(large_node_sets)
    def test_random_diagrams_match_trial_oracle(self, nodes):
        # extensions are extended again, as trailing-one transport does,
        # and the rows appended one at a time are the rows appended at once
        D = Diagram(nodes)
        for k in (1, 2, 3):
            D = assert_matches_trial(D)
            if D is None:
                break
            assert psi_append(Diagram(nodes), k) == D
