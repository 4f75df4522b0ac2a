"""Tests for diagrams, fillings, and the minimal-column construction."""

from __future__ import annotations

import copy
import itertools
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from cellrim.diagrams import (
    Diagram,
    is_special,
    min_column_diagram,
    rotate_180,
    w_of_diagram,
    young_diagram,
)
from cellrim.permutations import (
    Permutation,
    composition_generators,
    identity,
    longest_element,
    parabolic,
    simple,
)
from cellrim.tableaux import compositions_of
from claims import (
    act_on_values,
    column_filling,
    embedded,
    filling,
    hat_diagram,
    is_coset_rep,
    is_standard,
    partitions_of,
    prefix_closure,
    prefix_tableau_bijection,
    row_filling,
    standard_tableaux,
)
from fixtures import DIAGRAM_4631, FAMILY_F_853, FAMILY_M_385, box_diagrams

CORPUS = box_diagrams(3, 3)

node_sets = st.frozensets(
    st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=10
)


@st.composite
def offset_node_sets(draw) -> frozenset[tuple[int, int]]:
    """Node sets on at most six rows and six columns, drawn from arbitrary
    integer labels, so that rows and columns come with gaps and offsets."""
    labels = st.lists(st.integers(-5, 20), min_size=1, max_size=6, unique=True)
    cells = [(a, b) for a in draw(labels) for b in draw(labels)]
    return draw(st.frozensets(st.sampled_from(cells), min_size=1))


@st.composite
def raw_rows(draw) -> list[list]:
    """Row lists as a caller might pass them: empty rows, repeated,
    unsorted and gapped columns, each column an int, a float or a
    string of an int."""
    label = st.integers(-5, 20)
    column = st.one_of(
        label,
        st.builds(lambda k, f: k + f, label, st.sampled_from([0.0, 0.25, 0.75])),
        label.map(str),
    )
    return draw(st.lists(st.lists(column, max_size=6), max_size=6))


def padded_rows(nodes: frozenset[tuple[int, int]]) -> list[list[int]]:
    """Rows for ``from_rows``: one list per row label from the least to the
    greatest used, empty where a label is unused, each listing its columns
    twice and out of order."""
    low = min(a for a, _ in nodes)
    high = max(a for a, _ in nodes)
    rows = []
    for label in range(low, high + 1):
        cols = sorted(b for a, b in nodes if a == label)
        rows.append(cols[::-1] + cols)
    return rows


def assert_matches_ranking(D: Diagram, nodes) -> None:
    """Every view of D equals the one read off the ranked node set."""
    ranked = oracles.normalize_by_ranking(nodes)
    assert D.nodes == ranked
    assert D.rows() == tuple(map(tuple, oracles.diagram_rows(ranked)))
    assert D.columns() == tuple(map(tuple, oracles.diagram_columns(ranked)))
    assert D.sorted_nodes == tuple(sorted(ranked))
    assert D.row_count == max(a for a, _ in ranked)
    assert D.column_count == max(b for _, b in ranked)


def hat_rep(n: int) -> Permutation:
    """The longest coset representative used by the one-node extension."""
    return parabolic(frozenset(range(1, n)), n + 1).longest_rep


class TestDiagramBasics:
    def test_normalization_reranks_rows_and_columns(self):
        assert Diagram(frozenset({(2, 3), (5, 1)})) == Diagram(
            frozenset({(1, 2), (2, 1)})
        )
        assert Diagram(frozenset({(4, 7)})).nodes == frozenset({(1, 1)})

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Diagram(frozenset())

    def test_from_rows_and_accessors(self):
        D = Diagram.from_rows([(2, 3), (1,)])
        assert D.nodes == frozenset({(1, 2), (1, 3), (2, 1)})
        assert D.rows() == ((2, 3), (1,))
        assert D.columns() == ((2,), (1,), (1,))
        assert D.row_composition() == (2, 1)
        assert D.column_composition() == (1, 1, 1)
        assert D.size == 3
        assert D.row_count == 2
        assert D.column_count == 3

    def test_repr_evaluates_back(self):
        for D in (young_diagram((2, 1)), DIAGRAM_4631):
            assert eval(repr(D)) == D

    def test_render(self):
        assert young_diagram((2, 1)).render() == "× ×\n× ·"
        assert young_diagram((1, 2)).render("x", ".") == "x .\nx x"

    def test_young_diagram_validation(self):
        with pytest.raises(ValueError):
            young_diagram((2, 0, 1))

    @given(node_sets)
    def test_normalization_is_idempotent(self, nodes):
        D = Diagram(nodes)
        assert Diagram(D.nodes) == D
        assert sum(D.row_composition()) == D.size
        assert sum(D.column_composition()) == D.size


class TestRowStorage:
    """The stored rows against the old rank-and-rebuild normalization."""

    def test_every_3x3_node_set_matches_ranking(self):
        cells = [(a, b) for a in range(1, 4) for b in range(1, 4)]
        subsets = [
            frozenset(subset)
            for k in range(1, len(cells) + 1)
            for subset in itertools.combinations(cells, k)
        ]
        diagrams = []
        for nodes in subsets:
            D = Diagram(nodes)
            assert_matches_ranking(D, nodes)
            from_rows = Diagram.from_rows(padded_rows(nodes))
            assert_matches_ranking(from_rows, nodes)
            assert from_rows == D and hash(from_rows) == hash(D)
            diagrams.append(D)
        ranked = [oracles.normalize_by_ranking(nodes) for nodes in subsets]
        hashes = [hash(D) for D in diagrams]
        for D, r, h in zip(diagrams, ranked, hashes):
            for E, q, g in zip(diagrams, ranked, hashes):
                assert (D == E) == (r == q)
                if r == q:
                    assert h == g

    @settings(max_examples=200, deadline=None)
    @given(offset_node_sets(), offset_node_sets(), st.integers(-9, 9))
    @example(frozenset({(1, 0), (2, 2)}), frozenset({(1, 1), (2, 2)}), 0)
    def test_offset_node_sets_match_ranking(self, nodes, other, shift):
        D = Diagram(nodes)
        assert_matches_ranking(D, nodes)
        from_rows = Diagram.from_rows(padded_rows(nodes))
        assert_matches_ranking(from_rows, nodes)
        assert from_rows == D
        # a monotone relabelling, fed as floats and strings, is the same diagram
        moved = Diagram((float(3 * a + shift), str(2 * b - shift)) for a, b in nodes)
        assert moved == D and hash(moved) == hash(D)
        E = Diagram(other)
        same = oracles.normalize_by_ranking(nodes) == oracles.normalize_by_ranking(other)
        assert (D == E) == same
        if same:
            assert hash(D) == hash(E)

    def test_from_rows_skips_empty_rows(self):
        D = Diagram.from_rows([(), (4, 2, 4), (), (9,)])
        assert D.rows() == ((1, 2), (3,))
        with pytest.raises(ValueError):
            Diagram.from_rows([(), ()])

    @settings(max_examples=300, deadline=None)
    @given(raw_rows(), st.lists(st.sampled_from([int, float, str]), min_size=1, max_size=3))
    @example([[], [3, 3, "1"], [], [2.75, 9]], [str])
    @example([[], []], [int])
    def test_rows_and_nodes_match_bucketing_oracle(self, rows, labels):
        nodes = [(a, b) for a, row in enumerate(rows, 1) for b in row]
        # row labels from 8 up, in turn as ints, floats and strings, so
        # one row arrives under several labels that sort apart as text
        labelled = [
            (label(a + 7), b) for (a, b), label in zip(nodes, itertools.cycle(labels))
        ]
        if not nodes:
            for build in (lambda: Diagram.from_rows(rows), lambda: Diagram(labelled)):
                with pytest.raises(ValueError):
                    build()
            return
        expected = oracles.rows_by_bucketing(nodes)
        assert oracles.rows_by_bucketing(labelled) == expected
        D = Diagram.from_rows(rows)
        assert D.rows() == expected
        E = Diagram(labelled)
        assert E.rows() == expected
        assert D == E and hash(D) == hash(E)
        again = Diagram.from_rows(D.rows())
        assert again == D and hash(again) == hash(D)
        for copied in (pickle.loads(pickle.dumps(D)), copy.copy(D), copy.deepcopy(D)):
            assert copied == D and copied.rows() == expected
            assert hash(copied) == hash(D)

    def test_immutable_and_copyable(self):
        D = DIAGRAM_4631
        for name in ("nodes", "_rows", "extra"):
            with pytest.raises(AttributeError):
                setattr(D, name, None)
        with pytest.raises(AttributeError):
            del D._rows
        assert pickle.loads(pickle.dumps(D)) == D
        assert copy.deepcopy(D) == D
        assert D != D.rows() and D != D.nodes


class TestFillings:
    def test_fillings_of_young_2_2(self):
        D = young_diagram((2, 2))
        assert row_filling(D) == (1, 2, 3, 4)
        assert column_filling(D) == (1, 3, 2, 4)
        assert w_of_diagram(D) == simple(2, 4)

    def test_single_row_word_is_identity(self):
        assert w_of_diagram(young_diagram((5,))) == identity(5)

    def test_hook_diagram_word(self):
        D = Diagram.from_rows([(1, 2), (1,)])
        assert w_of_diagram(D) == Permutation((1, 3, 2))

    def test_tableau_entry_and_action(self):
        D = young_diagram((2, 2))
        t = row_filling(D)
        assert t[D.sorted_nodes.index((2, 1))] == 3
        assert act_on_values(t, w_of_diagram(D)) == column_filling(D)

    def test_tableau_validation(self):
        D = young_diagram((2, 1))
        with pytest.raises(ValueError):
            filling(D, (1, 1, 2))
        with pytest.raises(ValueError):
            filling(D, (1, 2))
        with pytest.raises(ValueError):
            act_on_values(row_filling(D), identity(4))

    def test_word_matches_plain_tuple_oracle(self):
        for D in CORPUS:
            assert w_of_diagram(D).images == oracles.diagram_word(D.nodes)

    def test_row_filling_acted_by_word_gives_column_filling(self):
        for D in CORPUS:
            assert act_on_values(row_filling(D), w_of_diagram(D)) == column_filling(D)


class TestStandardTableaux:
    def test_both_fillings_are_standard(self):
        for D in CORPUS:
            assert is_standard(D, row_filling(D))
            assert is_standard(D, column_filling(D))

    def test_non_standard_example(self):
        D = young_diagram((2, 2))
        assert not is_standard(D, filling(D, (1, 3, 4, 2)))

    def test_counts_match_hook_length_formula(self):
        for n in range(1, 7):
            for shape in partitions_of(n):
                count = sum(1 for _ in standard_tableaux(young_diagram(shape)))
                assert count == oracles.standard_tableau_count(shape)

    def test_prefix_tableau_bijection_small(self):
        prefixes, tableaux = prefix_tableau_bijection(young_diagram((2, 2)))
        assert len(prefixes) == len(tableaux) == 2
        prefixes, tableaux = prefix_tableau_bijection(young_diagram((4,)))
        assert prefixes == (identity(4),)

    def test_prefix_tableau_bijection_large_example(self):
        prefixes, tableaux = prefix_tableau_bijection(DIAGRAM_4631)
        assert len(prefixes) == len(tableaux) == 1149
        assert len(set(tableaux)) == 1149

    def test_prefix_tableau_bijection_corpus(self):
        for D in CORPUS:
            prefixes, tableaux = prefix_tableau_bijection(D)
            assert len(prefixes) == len(tableaux)


class TestWordInCosetRepresentatives:
    def test_word_and_all_prefixes_are_representatives(self):
        for D in CORPUS:
            gens = composition_generators(D.row_composition())
            w = w_of_diagram(D)
            assert all(is_coset_rep(u, gens) for u in prefix_closure([w]))


class TestMinColumnDiagram:
    def test_identity_with_one_row(self):
        assert min_column_diagram(identity(4), (4,)) == young_diagram((4,))

    def test_identity_with_two_rows(self):
        D = min_column_diagram(identity(4), (2, 2))
        assert D == Diagram.from_rows([(1, 2), (2, 3)])

    def test_longest_element_gives_antidiagonal(self):
        D = min_column_diagram(longest_element(4), (1, 1, 1, 1))
        assert D.nodes == frozenset({(1, 4), (2, 3), (3, 2), (4, 1)})

    def test_round_trip_on_corpus(self):
        for D in CORPUS:
            E = min_column_diagram(w_of_diagram(D), D.row_composition())
            assert w_of_diagram(E) == w_of_diagram(D)
            assert E.row_composition() == D.row_composition()
            assert E.column_count <= D.column_count

    def test_matches_exhaustive_search(self):
        for n in range(1, 6):
            for parts in compositions_of(n):
                gens = composition_generators(parts)
                for d in parabolic(gens, n).reps:
                    found = oracles.search_min_column_diagrams(d.images, parts)
                    assert found == [min_column_diagram(d, parts).nodes]

    def test_matches_node_list_oracle(self):
        for n in range(1, 8):
            for parts in compositions_of(n):
                gens = composition_generators(parts)
                for d in parabolic(gens, n).reps:
                    nodes = oracles.min_column_nodes(d.images, parts)
                    D = min_column_diagram(d, parts)
                    assert D.nodes == frozenset(nodes)
                    assert D.rows() == oracles.rows_by_bucketing(nodes)
                    assert w_of_diagram(D) == d

    def test_rejects_non_representative(self):
        with pytest.raises(ValueError):
            min_column_diagram(simple(1, 3), (2, 1))
        x = Permutation((1, 3, 2, 4))
        with pytest.raises(ValueError) as caught:
            min_column_diagram(x, (1, 2, 1))
        assert str(caught.value) == (
            "Permutation((1, 3, 2, 4)) is not a distinguished coset "
            "representative for (1, 2, 1)"
        )
        for n in range(1, 6):
            for parts in compositions_of(n):
                gens = composition_generators(parts)
                for images in itertools.permutations(range(1, n + 1)):
                    x = Permutation(images)
                    if is_coset_rep(x, gens):
                        min_column_diagram(x, parts)
                    else:
                        with pytest.raises(ValueError, match="not a distinguished"):
                            min_column_diagram(x, parts)

    def test_rejects_degree_mismatch(self):
        with pytest.raises(ValueError):
            min_column_diagram(identity(3), (2, 2))

    @pytest.mark.parametrize("parts", [(), (2, 0, 1), (3, 0), (4, -1)])
    def test_rejects_parts_below_one(self, parts):
        with pytest.raises(ValueError, match="composition parts must be positive"):
            min_column_diagram(identity(3), parts)


class TestSpecial:
    def test_young_diagrams_are_special(self):
        assert is_special(young_diagram((3, 2, 2)))
        assert is_special(Diagram.from_rows([(1, 2), (1, 2, 3)]))

    def test_fixture_examples(self):
        assert is_special(FAMILY_F_853)
        assert not is_special(FAMILY_M_385)

    def test_antidiagonal_is_not_special(self):
        assert not is_special(Diagram(frozenset({(1, 2), (2, 1)})))

    def test_matches_search_oracle_on_corpus(self):
        for D in CORPUS:
            assert is_special(D) == oracles.is_special_by_search(D.nodes)

    def test_matches_sorting_oracle_on_4x4_box(self):
        diagrams = box_diagrams(4, 4)
        special = 0
        for D in diagrams:
            verdict = is_special(D)
            assert verdict == oracles.is_special_by_sorting(D.nodes), D
            special += verdict
        assert (len(diagrams), special) == (46312, 2840)

    def test_nested_rows_match_nested_columns_on_4x4_box(self):
        # the row test against the column test; the test above compares it
        # with the sorting oracle on the same box
        for D in box_diagrams(4, 4):
            assert is_special(D) == oracles.has_nested_columns(D.nodes), D


class TestRotation:
    def test_single_node(self):
        D = Diagram(frozenset({(1, 1)}))
        assert rotate_180(D) == D

    def test_staircase(self):
        assert rotate_180(young_diagram((2, 1))) == Diagram.from_rows(
            [(2,), (1, 2)]
        )

    def test_involution_and_reversal_on_corpus(self):
        for D in CORPUS:
            R = rotate_180(D)
            assert rotate_180(R) == D
            assert R.row_composition() == D.row_composition()[::-1]
            assert R.column_composition() == D.column_composition()[::-1]


class TestHatDiagram:
    def test_single_node(self):
        assert hat_diagram(Diagram(frozenset({(1, 1)}))) == Diagram(
            frozenset({(1, 2), (2, 1)})
        )

    def test_shape_and_word_transport_on_corpus(self):
        for D in CORPUS:
            H = hat_diagram(D)
            n = D.size
            assert H.size == n + 1
            assert H.row_composition() == D.row_composition() + (1,)
            assert H.column_composition() == (1,) + D.column_composition()
            assert w_of_diagram(H) == embedded(w_of_diagram(D), n + 1) * hat_rep(n)

    def test_hat_rep_is_cycle(self):
        assert hat_rep(3).images == (2, 3, 4, 1)
        assert hat_rep(1).images == (2, 1)
