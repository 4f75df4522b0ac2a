"""Tests for the closed rim families and the enumeration routes."""

from __future__ import annotations

import copy
import functools
import itertools
import pickle
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cellrim import families
from cellrim.cli import main
from cellrim.diagrams import (
    Diagram,
    is_special,
    min_column_diagram,
    psi_append,
    rotate_180,
    w_of_diagram,
    young_diagram,
)
from cellrim.families import (
    FamilyParams,
    StuShape,
    determining_tuple,
    family_diagram,
    family_parameter_sets,
    rim,
    rim_diagrams,
    table_counts,
    z_ideal,
)
from cellrim.paths import FormClass, family_with_lengths, find_form_path, is_admissible
from cellrim.permutations import (
    Permutation,
    VerificationError,
    composition_generators,
    identity,
    is_prefix,
    parabolic,
    prefix_maximal,
)
from cellrim.tableaux import (
    compositions_of,
    conjugate,
    count_standard_tableaux,
    recording_tableau,
)
from claims import (
    ColumnOp,
    apply_column_op,
    diagram_from_tuple,
    form_b_path_is_recut_columns,
    form_b_path_recuts_to_conjugate_type,
    insertion_tableau,
    member_form_is_specialness,
    prefix_closure,
    special_member_path_is_columns,
    transport_keeps_specialness,
)
from fixtures import (
    FAMILY_F_853,
    FAMILY_G_583,
    FAMILY_H_538,
    FAMILY_M_385,
    FAMILY_M_385_TUPLE,
    FAMILY_N_358,
    FAMILY_N_358_TUPLE,
    box_diagrams,
    every_member,
)

HEADS = sorted(set(itertools.permutations((3, 2, 1))))


def family_members(s, t, u, order):
    shape = StuShape(s, t, u, order)
    return [family_diagram(p, shape) for p in family_parameter_sets(shape)]


def brute_rim_diagrams(lam):
    return frozenset(min_column_diagram(y, lam) for y in rim(lam))


class TestStuShape:
    def test_from_composition(self):
        shape = StuShape.from_composition((1, 3, 2, 1, 1))
        assert (shape.s, shape.t, shape.u) == (3, 2, 1)
        assert shape.order == (1, 3, 2)
        assert shape.trailing_ones == 2
        assert shape.composition == (1, 3, 2, 1, 1)

    def test_round_trip(self):
        for head in HEADS:
            for ones in (1, 2, 3):
                lam = head + (1,) * ones
                assert StuShape.from_composition(lam).composition == lam

    def test_needs_four_parts(self):
        with pytest.raises(ValueError):
            StuShape.from_composition((3, 2, 1))

    def test_needs_trailing_ones(self):
        with pytest.raises(ValueError):
            StuShape.from_composition((1, 3, 2, 2))

    def test_order_must_arrange_parts(self):
        with pytest.raises(ValueError):
            StuShape(3, 2, 1, (3, 2, 2))

    def test_sorted_parts_required(self):
        with pytest.raises(ValueError):
            StuShape(2, 3, 1, (3, 2, 1))

    def test_list_order_is_stored_as_a_tuple(self):
        listed, shape = StuShape(3, 2, 1, [3, 1, 2]), StuShape(3, 2, 1, (3, 1, 2))
        assert listed == shape and hash(listed) == hash(shape)
        assert listed.order == (3, 1, 2) and listed.composition == (3, 1, 2, 1)
        assert family_parameter_sets(listed) == family_parameter_sets(shape)
        assert table_counts(listed) == table_counts(shape)

    @pytest.mark.parametrize("args", [
        (3.0, 2, 1, (3, 2, 1)), (3, 2, 1, (3, 2.0, 1)), (3, 2, 1, (3, 2, 1), 1.0),
    ])
    def test_float_part_refused_at_construction(self, args):
        with pytest.raises(TypeError):
            StuShape(*args)


class TestDeterminingTuple:
    def test_fixture_profiles(self):
        assert determining_tuple(FAMILY_M_385) == FAMILY_M_385_TUPLE
        assert determining_tuple(FAMILY_N_358) == FAMILY_N_358_TUPLE

    def test_rebuild_from_profile(self):
        assert diagram_from_tuple(FAMILY_M_385_TUPLE) == FAMILY_M_385
        assert diagram_from_tuple(FAMILY_N_358_TUPLE) == FAMILY_N_358

    def test_m_and_n_members_round_trip(self):
        for s, t, u in [(8, 5, 3), (10, 7, 4)]:
            for order in [(u, s, t), (u, t, s)]:
                for D in family_members(s, t, u, order):
                    assert diagram_from_tuple(determining_tuple(D)) == D

    def test_single_full_column(self):
        assert diagram_from_tuple(("4",)) == Diagram(
            {(1, 1), (2, 1), (3, 1), (4, 1)}
        )

    def test_u_counts_first_row(self):
        D = diagram_from_tuple(("2", "4", "3", "3"))
        assert D.row_composition() == (3, 4, 4, 1)
        assert determining_tuple(D).count("3") + 1 == 3

    def test_rejects_triple_before_full(self):
        # rows (2, 4, 3, 1) read 3, 4, 2, 1: every column fits an entry
        D = Diagram.from_rows([(1, 2), (1, 2, 3, 4), (1, 2, 3), (2,)])
        assert [len(c) for c in D.columns()] == [3, 4, 2, 1]
        with pytest.raises(ValueError, match="precede every triple"):
            determining_tuple(D)

    def test_profile_needs_leading_smallest_part(self):
        with pytest.raises(ValueError, match="smallest part"):
            determining_tuple(young_diagram((8, 5, 3, 1)))

    def test_profile_rejects_wrong_rows(self):
        # the head (1, 3, 2) leads with its smallest part, but a fifth
        # row holds a second trailing one
        D = Diagram.from_rows([(1,), (1, 2, 3), (1, 2), (1,), (1,)])
        with pytest.raises(ValueError, match="four-row"):
            determining_tuple(D)


class TestFamilyConstructors:
    def test_f_fixture(self):
        shape = StuShape(8, 5, 3, (8, 3, 5))
        params = FamilyParams("F", columns={2, 3, 4})
        assert family_diagram(params, shape) == FAMILY_F_853

    def test_g_fixture(self):
        shape = StuShape(8, 5, 3, (5, 8, 3))
        params = FamilyParams("G", columns={2, 4, 5})
        assert family_diagram(params, shape) == FAMILY_G_583

    def test_h_fixture(self):
        shape = StuShape(8, 5, 3, (5, 3, 8))
        params = FamilyParams("H", columns={6, 8}, v=3)
        assert family_diagram(params, shape) == FAMILY_H_538

    def test_m_fixture(self):
        shape = StuShape(8, 5, 3, (3, 8, 5))
        params = FamilyParams("M", columns={7, 8}, counts=(1, 3, 1, 0, 3))
        assert family_diagram(params, shape) == FAMILY_M_385

    def test_n_fixture(self):
        shape = StuShape(8, 5, 3, (3, 5, 8))
        params = FamilyParams("N", counts=(3, 0, 1, 1, 1))
        assert family_diagram(params, shape) == FAMILY_N_358

    def test_h_fourth_row_column_tracks_v(self):
        # v below the first-row gap keeps its own column on top; v past
        # the gap pins the top node at the gap column instead.
        shape = StuShape(3, 2, 1, (2, 1, 3))
        low = family_diagram(FamilyParams("H", v=1), shape)
        assert low.rows() == ((1, 3), (1,), (1, 2, 3), (1,))
        high = family_diagram(FamilyParams("H", v=2), shape)
        assert high.rows() == ((2, 3), (2,), (1, 2, 3), (2,))

    def test_m_and_n_match_row_oracle(self):
        checked = 0
        for s, t, u in itertools.combinations_with_replacement(range(9, 0, -1), 3):
            m_shape = StuShape(s, t, u, (u, s, t))
            for p in families._m_params(s, t, u):
                triples = frozenset(p.columns)
                rows = oracles.family_m_rows(s, p.counts, triples)
                assert family_diagram(p, m_shape).rows() == rows, (s, t, u, p)
                assert oracles.family_m_by_profile(p.counts, triples) == rows
                checked += 1
            n_shape = StuShape(s, t, u, (u, t, s))
            for p in families._n_params(s, t, u):
                rows = oracles.family_n_rows(s, u, p.counts)
                assert family_diagram(p, n_shape).rows() == rows, (s, t, u, p)
                assert oracles.family_n_by_profile(u, p.counts) == rows
                checked += 1
        assert checked == 7692

    def test_columns_are_sorted_at_entry(self):
        counts = (1, 3, 1, 0, 3)
        params = FamilyParams("M", columns=(8, 7, 7), counts=counts)
        assert params == FamilyParams("M", columns={7, 8}, counts=counts)
        assert params.columns == (7, 8)
        assert all(type(c) is int for c in params.columns)
        shape = StuShape(8, 5, 3, (3, 8, 5))
        assert family_diagram(params, shape) == FAMILY_M_385
        shape = StuShape(8, 5, 3, (8, 3, 5))
        params = FamilyParams("F", columns=[4, 2, 3, 2])
        assert params == FamilyParams("F", columns=(2, 3, 4))
        assert family_diagram(params, shape) == FAMILY_F_853
        assert FamilyParams("N", counts=(3, 0, 1, 1, 1)).columns == ()

    def test_replace_normalises_like_the_constructor(self):
        params = FamilyParams("M", columns=(7, 8), counts=(1, 3, 1, 0, 3))
        assert params._replace(columns={9, 3}).columns == (3, 9)
        with pytest.raises(TypeError):
            params._replace(columns=(1.5,))
        with pytest.raises(ValueError):
            params._replace(variant="X")

    def test_parameters_are_a_frozen_record(self):
        params = FamilyParams("M", columns=(7, 8), counts=(1, 3, 1, 0, 3))
        assert repr(params) == (
            "FamilyParams(variant='M', columns=(7, 8), v=None, counts=(1, 3, 1, 0, 3))"
        )
        for name in ("variant", "columns", "v", "counts", "extra"):
            with pytest.raises(AttributeError):
                setattr(params, name, None)
        twin = FamilyParams("M", columns=[8, 7], counts=[1, 3, 1, 0, 3])
        assert hash(twin) == hash(params)
        for clone in (pickle.loads(pickle.dumps(params)), copy.copy(params),
                      copy.deepcopy(params)):
            assert type(clone) is FamilyParams and clone == params

    def test_enumerators_store_normal_parameters(self):
        # the enumerators skip the normalising constructor, so each member
        # must already be what the constructor stores; a bare 4-tuple
        # would pass the equality check, so the type is checked too
        members = 0
        for s, t, u in itertools.combinations_with_replacement(range(9, 0, -1), 3):
            for order in sorted(set(itertools.permutations((s, t, u)))):
                for p in family_parameter_sets(StuShape(s, t, u, order)):
                    assert type(p) is FamilyParams, p
                    assert p == FamilyParams(p.variant, p.columns, p.v, p.counts), p
                    assert type(p.columns) is tuple and type(p.counts) is tuple, p
                    assert all(type(c) is int for c in p.columns + p.counts), p
                    assert all(a < b for a, b in zip(p.columns, p.columns[1:])), p
                    assert p.v is None or type(p.v) is int, p
                    members += 1
        assert members == 11836

    def test_h_with_one_companion_slot_refuses_v_past_s(self):
        shape = StuShape(4, 3, 1, (3, 1, 4))
        assert family_diagram(FamilyParams("H", v=4), shape).rows()[3] == (4,)
        with pytest.raises(ValueError):
            family_diagram(FamilyParams("H", v=5), shape)

    def test_parameters_are_stored_as_ints(self):
        for variant, bad in (
            ("F", {"columns": {1.0, 2, 3}}),
            ("H", {"v": 3.0}),
            ("M", {"columns": (7, 8), "counts": (1.0, 3, 1, 0, 3)}),
            ("N", {"counts": ("3", 0, 1, 1, 1)}),
        ):
            with pytest.raises(TypeError):
                FamilyParams(variant, **bad)
        params = FamilyParams("N", counts=[True, 0, 1, 1, 1])
        assert all(type(c) is int for c in params.counts)
        assert params == FamilyParams("N", counts=(1, 0, 1, 1, 1))
        shape = StuShape(3, 2, 2, (2, 2, 3))
        D = family_diagram(FamilyParams("H", columns={3}, v=True), shape)
        E = family_diagram(FamilyParams("H", columns={3}, v=1), shape)
        assert D.rows() == E.rows()
        assert_normal_rows(D)

    def test_variant_must_match_arrangement(self):
        shape = StuShape(8, 5, 3, (8, 3, 5))
        with pytest.raises(ValueError):
            family_diagram(FamilyParams("G", columns={1, 2, 3}), shape)

    def test_f_rejects_wrong_column_count(self):
        shape = StuShape(8, 5, 3, (8, 3, 5))
        with pytest.raises(ValueError, match="need a 3-subset of the first 5 columns"):
            family_diagram(FamilyParams("F", columns={1, 2}), shape)

    def test_f_rejects_columns_past_t(self):
        shape = StuShape(8, 5, 3, (8, 3, 5))
        with pytest.raises(ValueError, match="need a 3-subset of the first 5 columns"):
            family_diagram(FamilyParams("F", columns={1, 2, 6}), shape)

    def test_h_rejects_v_at_least_min_companion(self):
        shape = StuShape(8, 5, 3, (5, 3, 8))
        with pytest.raises(ValueError, match="v = 6 must be less than 6"):
            family_diagram(FamilyParams("H", columns={6, 8}, v=6), shape)

    def test_m_rejects_eta_below_theta(self):
        # the blocks fit s and t, so only eta < theta is wrong
        shape = StuShape(8, 5, 3, (3, 8, 5))
        with pytest.raises(ValueError, match="eta >= theta"):
            family_diagram(
                FamilyParams("M", columns={9, 10}, counts=(0, 1, 2, 0, 6)), shape
            )

    def test_m_rejects_mismatched_blocks(self):
        shape = StuShape(8, 5, 3, (3, 8, 5))
        with pytest.raises(ValueError, match="do not fit s = 8"):
            family_diagram(
                FamilyParams("M", columns={7, 8}, counts=(1, 3, 1, 1, 3)), shape
            )

    def test_n_rejects_phi_below_theta(self):
        shape = StuShape(8, 5, 3, (3, 5, 8))
        with pytest.raises(ValueError, match="phi >= theta"):
            family_diagram(FamilyParams("N", counts=(4, 1, 1, 0, 0)), shape)

    @pytest.mark.parametrize("order, params, message", [
        # each input passes every check before the one it fails
        ((5, 8, 3), FamilyParams("G", columns={1, 2, 7}),
         "need a 3-subset of the first 6 columns"),
        ((5, 3, 8), FamilyParams("H", columns={2, 3}, v=1),
         "need a 2-subset of the last 4 columns"),
        ((3, 8, 5), FamilyParams("M", columns={7, 8}, counts=(1, 3, 0, 0, 3)),
         "do not fit t = 5"),
        ((3, 8, 5), FamilyParams("M", columns={5, 6}, counts=(1, 3, 1, 0, 3)),
         "need a 2-subset of the last 3 columns"),
        # a tail of psi = 1 column cannot hold u - 1 = 2 triple columns
        ((3, 8, 5), FamilyParams("M", columns={7, 8}, counts=(0, 4, 0, 2, 1)),
         "need a 2-subset of the last 1 columns"),
        ((3, 5, 8), FamilyParams("N", counts=(3, 0, 1, 1, 2)), "do not fit s = 8"),
        ((3, 5, 8), FamilyParams("N", counts=(4, 0, 1, 1, 0)), "do not fit t = 5"),
    ])
    def test_builders_check_the_rules_that_need_the_shape(self, order, params, message):
        with pytest.raises(ValueError, match=message):
            family_diagram(params, StuShape(8, 5, 3, order))

    @pytest.mark.parametrize("variant, fields, message", [
        ("F", {"columns": (2, 3, 4), "v": 3}, "variant F does not read v"),
        ("F", {"columns": (2, 3, 4), "counts": (1,)}, "variant F does not read counts"),
        ("G", {"columns": (2, 4, 5), "v": 3}, "variant G does not read v"),
        ("G", {"columns": (2, 4, 5), "counts": (1,)}, "variant G does not read counts"),
        ("H", {"columns": (6, 8), "v": 3, "counts": (1,)}, "variant H does not read counts"),
        ("M", {"columns": (7, 8), "v": 3, "counts": (1, 3, 1, 0, 3)},
         "variant M does not read v"),
        ("N", {"columns": (7, 8), "counts": (3, 0, 1, 1, 1)},
         "variant N does not read columns"),
        ("N", {"v": 3, "counts": (3, 0, 1, 1, 1)}, "variant N does not read v"),
        ("H", {"columns": (6, 8)}, "variant H needs a positive v, got None"),
        ("H", {"columns": (6, 8), "v": 0}, "variant H needs a positive v, got 0"),
        ("M", {"columns": (7, 8), "counts": (1, 3, 1, 0)}, "variant M needs five"),
        ("M", {"columns": (7, 8), "counts": (1, 3, 1, 0, 3, 0)}, "variant M needs five"),
        ("M", {"columns": (7, 8), "counts": (1, 3, -1, 0, 3)}, "variant M needs five"),
        ("N", {"counts": (3, 0, 1, 1)}, "variant N needs five"),
        ("N", {"counts": (3, 0, 1, -1, 1)}, "variant N needs five"),
    ])
    def test_constructor_checks_the_rules_that_need_no_shape(self, variant, fields, message):
        with pytest.raises(ValueError, match=message):
            FamilyParams(variant, **fields)

    def test_replace_refuses_a_field_the_variant_does_not_read(self):
        params = FamilyParams("M", columns=(7, 8), counts=(1, 3, 1, 0, 3))
        with pytest.raises(ValueError, match="variant M does not read v"):
            params._replace(v=3)
        with pytest.raises(ValueError, match="variant F does not read counts"):
            params._replace(variant="F")
        assert params._replace(variant="F", counts=()) == FamilyParams("F", (7, 8))

    def test_four_row_shapes_only(self):
        shape = StuShape(8, 5, 3, (8, 3, 5), trailing_ones=2)
        with pytest.raises(ValueError):
            family_diagram(FamilyParams("F", columns={1, 2, 3}), shape)


class TestParameterSets:
    def test_counts_match_tables(self):
        for s, t, u in [(3, 2, 1), (8, 5, 3), (4, 4, 2), (3, 3, 3), (5, 4, 1)]:
            for order in set(itertools.permutations((s, t, u))):
                shape = StuShape(s, t, u, order)
                expected = sum(table_counts(shape))
                if order == (s, t, u):
                    assert family_parameter_sets(shape) == ()
                    assert expected == 1
                else:
                    params = family_parameter_sets(shape)
                    assert len(params) == expected

    def test_members_are_distinct(self):
        for s, t, u in [(8, 5, 3), (4, 4, 2), (5, 4, 1)]:
            for order in set(itertools.permutations((s, t, u))):
                if order == (s, t, u):
                    continue
                members = family_members(s, t, u, order)
                assert len(set(members)) == len(members)

    def test_row_sizes_match_shape(self):
        for order in [(8, 3, 5), (5, 8, 3), (5, 3, 8), (3, 8, 5), (3, 5, 8)]:
            for D in family_members(8, 5, 3, order):
                assert D.row_composition() == order + (1,)

    def test_h_with_u_one_lists_every_v_up_to_s(self):
        shapes = 0
        for s in range(1, 10):
            for t in range(1, s + 1):
                shape = StuShape(s, t, 1, (t, 1, s))
                if families._variant(shape) != "H":
                    continue
                expected = tuple(FamilyParams("H", v=v) for v in range(1, s + 1))
                assert family_parameter_sets(shape) == expected, shape
                shapes += 1
        # H serves (t, 1, s) exactly when t < s; F takes the tie s = t
        assert shapes == 36

    def test_m_duplicate_constraint(self):
        for p in family_parameter_sets(StuShape(8, 5, 3, (3, 8, 5))):
            eps, eta, theta, zeta, psi = p.counts
            assert eta >= theta
            assert zeta == 0 or eta == theta

    def test_n_duplicate_constraint(self):
        for p in family_parameter_sets(StuShape(8, 5, 3, (3, 5, 8))):
            eta, eps, theta, phi, zeta = p.counts
            assert phi >= theta
            assert eps == 0 or phi == theta


class TestTableCounts:
    def test_sorted_head_is_singleton(self):
        assert table_counts(StuShape(8, 5, 3, (8, 5, 3))) == (1, 0)

    def test_u_s_t_example(self):
        assert table_counts(StuShape(8, 5, 3, (3, 8, 5))) == (40, 50)

    def test_s_u_t_example(self):
        assert table_counts(StuShape(8, 5, 3, (8, 3, 5))) == (10, 0)

    def test_equal_parts_collapse(self):
        shape = StuShape(3, 3, 3, (3, 3, 3))
        assert table_counts(shape) == (1, 0)

    def test_nonspecial_only_with_smallest_part_first(self):
        for s, t, u in [(8, 5, 3), (4, 3, 2), (5, 5, 2), (4, 2, 2)]:
            for order in set(itertools.permutations((s, t, u))):
                shape = StuShape(s, t, u, order)
                _, nonspecial = table_counts(shape)
                if order[0] in (s, t):
                    assert nonspecial == 0

    def test_matches_arrangement_oracle(self):
        for s, t, u in itertools.combinations_with_replacement(range(12, 0, -1), 3):
            for order in set(itertools.permutations((s, t, u))):
                expected = oracles.table_counts_by_arrangement(s, t, u, order)
                assert table_counts(StuShape(s, t, u, order)) == expected, order

    def test_small_cases_match_enumeration(self):
        for head in HEADS:
            lam = head + (1,)
            E, E_s = rim_diagrams(lam)
            shape = StuShape.from_composition(lam)
            assert (len(E_s), len(E) - len(E_s)) == table_counts(shape)


class TestMNUniqueness:
    def test_pairwise_non_prefix(self):
        # distinct parameter choices give prefix-incomparable words
        for s in range(1, 9):
            for t in range(1, s + 1):
                for u in range(1, t + 1):
                    if s + t + u + 1 > 12:
                        continue
                    for order in ((u, s, t), (u, t, s)):
                        members = family_members(s, t, u, order)
                        words = [w_of_diagram(D) for D in members]
                        for w1, w2 in itertools.combinations(words, 2):
                            assert not is_prefix(w1, w2)
                            assert not is_prefix(w2, w1)


class TestFGHRigidity:
    def test_pairwise_non_prefix(self):
        for s, t, u in [(8, 5, 3), (4, 3, 2), (5, 5, 2), (5, 3, 3)]:
            for order in ((s, u, t), (t, s, u), (t, u, s)):
                members = family_members(s, t, u, order)
                words = [w_of_diagram(D) for D in members]
                for w1, w2 in itertools.combinations(words, 2):
                    assert not is_prefix(w1, w2)
                    assert not is_prefix(w2, w1)


class TestTieCoherence:
    def test_equal_s_t_collapses_m_and_n(self):
        from cellrim.families import _m_params, _n_params

        for s, t, u in [(3, 3, 1), (4, 4, 2), (5, 5, 3)]:
            shape = StuShape(s, t, u, (u, s, t))
            m_set = {family_diagram(p, shape) for p in _m_params(s, t, u)}
            n_set = {family_diagram(p, shape) for p in _n_params(s, t, u)}
            assert m_set == n_set

    def test_equal_s_t_collapses_f_and_h(self):
        from cellrim.families import _f_params, _h_params

        for s, t, u in [(3, 3, 1), (4, 4, 2), (5, 5, 3)]:
            shape = StuShape(s, t, u, (s, u, t))
            f_set = {family_diagram(p, shape) for p in _f_params(s, t, u)}
            h_set = {family_diagram(p, shape) for p in _h_params(s, t, u)}
            assert f_set == h_set

    def test_equal_t_u_collapses_g_and_m(self):
        from cellrim.families import _g_params, _m_params

        for s, t, u in [(3, 2, 2), (4, 3, 3), (5, 3, 3)]:
            shape = StuShape(s, t, u, (t, s, u))
            g_set = {family_diagram(p, shape) for p in _g_params(s, t, u)}
            m_set = {family_diagram(p, shape) for p in _m_params(s, t, u)}
            assert g_set == m_set

    def test_equal_t_u_collapses_h_and_n(self):
        from cellrim.families import _h_params, _n_params

        for s, t, u in [(3, 2, 2), (4, 3, 3), (5, 3, 3)]:
            shape = StuShape(s, t, u, (t, u, s))
            h_set = {family_diagram(p, shape) for p in _h_params(s, t, u)}
            n_set = {family_diagram(p, shape) for p in _n_params(s, t, u)}
            assert h_set == n_set

    def test_equal_t_u_reduces_f_to_young(self):
        from cellrim.families import _f_params

        for s, t, u in [(3, 2, 2), (4, 3, 3)]:
            shape = StuShape(s, t, u, (s, u, t))
            f_set = {family_diagram(p, shape) for p in _f_params(s, t, u)}
            assert f_set == {young_diagram((s, t, u, 1))}


class TestZIdeal:
    def test_single_row_composition(self):
        assert z_ideal((4,)) == {identity(4)}

    def test_all_ones_composition(self):
        assert z_ideal((1, 1, 1, 1)) == {identity(4)}

    def test_is_prefix_closed(self):
        for lam in [(2, 1), (1, 2, 1), (2, 2), (1, 3, 1)]:
            ideal = z_ideal(lam)
            assert prefix_closure(ideal) == set(ideal)

    def test_size_is_tableau_count_of_conjugate(self):
        for n in range(1, 7):
            for lam in compositions_of(n):
                partition = tuple(sorted(lam, reverse=True))
                want = oracles.standard_tableau_count(conjugate(partition))
                assert len(z_ideal(lam)) == want, lam

    @pytest.mark.parametrize("fault", ["drop", "repeat"])
    def test_walk_with_the_wrong_count_raises(self, monkeypatch, fault):
        walk = families.cell_words

        def faulty(p_rows):
            words = walk(p_rows)
            first = next(words)
            if fault == "repeat":
                yield first
                yield first
            yield from words

        monkeypatch.setattr(families, "cell_words", faulty)
        lam = (2, 3, 1)
        with pytest.raises(VerificationError) as caught:
            z_ideal(lam)
        assert str(lam) in str(caught.value)
        assert "f^mu = 16" in str(caught.value)

    @pytest.mark.parametrize("lam", [(), (2, 0, 1), (2, -1, 2)])
    def test_parts_below_one_are_refused(self, lam):
        for build in (z_ideal, rim, rim_diagrams):
            with pytest.raises(ValueError, match="composition parts must be positive"):
                build(lam)

    def test_rim_of_partition_is_singleton(self):
        for lam in [(2, 1), (3, 1), (2, 2), (3, 2, 1), (2, 1, 1)]:
            assert len(rim(lam)) == 1

    def test_rim_small_family_case(self):
        assert len(rim((1, 3, 2, 1))) == 5

    def test_rim_matches_pairwise_maxima(self):
        for n in range(1, 7):
            for lam in compositions_of(n):
                want = oracles.prefix_maximal_pairwise(
                    {e.images for e in z_ideal(lam)}
                )
                assert {y.images for y in rim(lam)} == want, lam

    @pytest.mark.parametrize("member", [True, False])
    def test_route_disagreement_names_the_rep(self, monkeypatch, member):
        lam = (2, 1, 1)
        ideal = z_ideal(lam)
        reps = parabolic(composition_generators(lam), 4).reps
        if member:
            rep = next(e for e in reversed(reps) if e in ideal)
        else:
            # the search tests non-members only among the covers of members
            rep = next(
                f
                for f in reversed(reps)
                if f not in ideal
                and any(
                    e.length + 1 == f.length and is_prefix(e, f) for e in ideal
                )
            )
        if member:
            # a member's diagram route is the word test on its block labels
            flipped = oracles.block_labels(oracles.walk_word(rep.images, lam), lam)
            word_test = families._admissible_by_word
            monkeypatch.setattr(
                families, "_admissible_by_word",
                lambda labels, shape: word_test(labels, shape) != (labels == flipped),
            )
        else:
            flipped = min_column_diagram(rep, lam)
            monkeypatch.setattr(
                families, "is_admissible",
                lambda D: is_admissible(D) != (D == flipped),
            )
        with pytest.raises(VerificationError) as caught:
            z_ideal(lam)
        assert str(lam) in str(caught.value)
        assert str(rep.images) in str(caught.value)

    def test_word_test_matches_the_diagram_route(self):
        # the walk checks each member by Greene's theorem on the block
        # labels of its word; on every coset rep of degree up to 7 that
        # test must agree with the admissibility of the minimal-column diagram
        for n in range(1, 8):
            for lam in compositions_of(n):
                shape = conjugate(lam)
                for e in parabolic(composition_generators(lam), n).reps:
                    labels = oracles.block_labels(oracles.walk_word(e.images, lam), lam)
                    by_word = families._admissible_by_word(labels, shape)
                    assert by_word == oracles.diagram_route(e.images, lam), (lam, e.images)

    def test_search_matches_enumeration(self):
        for n in range(1, 8):
            for lam in compositions_of(n):
                want = oracles.z_ideal_by_enumeration(lam)
                assert z_ideal(lam) == want, lam
                assert rim(lam) == prefix_maximal(want), lam
                # the reverse-search oracle reaches each member from its
                # canonical parent
                images = {e.images for e in want}
                for x in images - {identity(n).images}:
                    assert oracles.canonical_parent(x) in images, (lam, x)

    def test_construction_matches_reverse_search(self):
        for n in range(1, 9):
            for lam in compositions_of(n):
                members = oracles.z_ideal_by_reverse_search(lam)
                assert z_ideal(lam) == set(members), lam
                assert rim(lam) == {e for e, top in members.items() if top}, lam
                assert count_standard_tableaux(conjugate(lam)) == len(members), lam

    @pytest.mark.parametrize("lam", [(3, 1, 2, 1, 3, 1), (2, 4, 1, 3, 1)])
    def test_construction_matches_reverse_search_at_degree_11(self, lam):
        members = oracles.z_ideal_by_reverse_search(lam)
        assert z_ideal(lam, limit=11) == set(members)
        assert rim(lam, limit=11) == {e for e, top in members.items() if top}

    @pytest.mark.parametrize(
        "lam", [(3, 5, 2), (2, 4, 1, 3), (2, 5, 4), (1, 3, 2, 4, 1)]
    )
    def test_canonical_parent_chains_above_enumeration(self, lam):
        n = sum(lam)
        rng = random.Random(2021)
        bounds = list(itertools.accumulate((0,) + lam))
        ideal = z_ideal(lam, limit=n)
        on_chains: set[tuple[int, ...]] = set()
        drawn = {True: 0, False: 0}
        for _ in range(300):
            values = rng.sample(range(1, n + 1), n)
            e = Permutation(
                tuple(
                    v
                    for a, b in zip(bounds, bounds[1:])
                    for v in sorted(values[a:b])
                )
            )
            by_cell, by_diagram = oracles.membership_routes(e, lam)
            assert by_cell == by_diagram, (lam, e.images)
            assert (e in ideal) == by_cell, (lam, e.images)
            drawn[by_cell] += 1
            x = e.images
            while by_cell and x not in on_chains and x != identity(n).images:
                on_chains.add(x)
                x = oracles.canonical_parent(x)
                routes = oracles.membership_routes(Permutation(x), lam)
                assert routes == (True, True), (lam, e.images, x)
        assert drawn[True] and drawn[False], (lam, drawn)

    def test_rim_elements_are_maximal(self):
        for lam in [(1, 2, 1), (2, 1, 2), (1, 3, 1)]:
            ideal = z_ideal(lam)
            boundary = rim(lam)
            for y in boundary:
                above = [e for e in ideal if y != e and is_prefix(y, e)]
                assert above == []


class TestRimDiagrams:
    def test_partition_head_gives_young_diagram(self):
        E, E_s = rim_diagrams((3, 2, 1, 1))
        assert E == E_s == {young_diagram((3, 2, 1, 1))}

    def test_closed_matches_brute_for_all_heads(self):
        for head in HEADS:
            lam = head + (1,)
            E, _ = rim_diagrams(lam)
            assert E == brute_rim_diagrams(lam), lam

    def test_closed_matches_brute_small_family_shapes(self):
        # every parseable composition of degree at most 6
        for n in range(4, 7):
            for lam in compositions_of(n):
                if len(lam) < 4 or any(p != 1 for p in lam[3:]):
                    continue
                E, _ = rim_diagrams(lam)
                assert E == brute_rim_diagrams(lam), lam

    def test_extra_row_keeps_counts(self):
        lam = (1, 3, 2, 1, 1)
        E, E_s = rim_diagrams(lam)
        assert (len(E_s), len(E) - len(E_s)) == (3, 2)
        assert E == brute_rim_diagrams(lam)

    def test_extra_row_is_psi_transport(self):
        for head in HEADS:
            base, _ = rim_diagrams(head + (1,))
            grown, _ = rim_diagrams(head + (1, 1))
            assert grown == {psi_append(D) for D in base}
            # rim_diagrams builds grown by psi_append; the search does not
            assert grown == brute_rim_diagrams(head + (1, 1))

    def test_k_rows_are_the_searched_transport(self):
        # k rows appended at once carry the searched rim and its E_s of
        # every composition ending in 1 onto those of the k-longer one
        searched = functools.cache(lambda lam: families._searched_rim(lam, None))
        checked = Counter()
        for k in (2, 3):
            for n in range(1, 9 - k):
                for lam in compositions_of(n):
                    if lam[-1] != 1:
                        continue
                    moved = tuple(
                        frozenset(psi_append(D, k) for D in X) for X in searched(lam)
                    )
                    assert moved == searched(lam + (1,) * k), (lam, k)
                    checked[k] += 1
        assert checked == {2: 32, 3: 16}

    def test_reversed_composition_rotates(self):
        for head in HEADS:
            lam = head + (1,)
            rev = tuple(reversed(lam))
            E, E_s = rim_diagrams(lam)
            RE, RE_s = rim_diagrams(rev)
            assert RE == {rotate_180(D) for D in E}
            assert RE_s == {rotate_180(D) for D in E_s}

    def test_reversed_composition_matches_brute(self):
        for rev in [(1, 1, 2, 3), (1, 2, 1, 3), (1, 1, 3, 2)]:
            E, _ = rim_diagrams(rev)
            assert E == brute_rim_diagrams(rev)

    def test_brute_fallback_outside_families(self):
        for lam in [(2, 2), (1, 2, 2), (2, 1, 2)]:
            E, E_s = rim_diagrams(lam)
            assert E == brute_rim_diagrams(lam)
            assert E_s == {D for D in E if is_special(D)}

    def test_large_family_shape_needs_no_enumeration(self):
        E, E_s = rim_diagrams((3, 8, 5, 1))
        assert (len(E_s), len(E) - len(E_s)) == (40, 50)

    def test_specials_are_theta_zero_members(self):
        # rim_diagrams files M and N members under E_s by this rule
        members = 0
        for p, D in every_member(9):
            if p.variant in "MN":
                assert is_special(D) == (p.counts[2] == 0), p
                members += 1
        assert members == 6028

    def test_f_g_h_members_all_special(self):
        members = 0
        for p, D in every_member(9):
            if p.variant in "FGH":
                assert is_special(D), p
                members += 1
        assert members == 5808

    def test_specials_match_the_is_special_filter(self):
        # the four-row rims take E_s from the family parameters, the Young
        # heads and the appended rows test each diagram, and the reversals
        # carry E_s through the half turn without testing again
        for s, t, u in itertools.combinations_with_replacement(range(9, 0, -1), 3):
            for order in set(itertools.permutations((s, t, u))):
                for k in (1, 3):
                    for lam in (order + (1,) * k, (1,) * k + order[::-1]):
                        E, E_s = rim_diagrams(lam)
                        assert E_s == {D for D in E if is_special(D)}, lam

    def test_transport_keeps_specialness(self):
        cases = 0
        for _, D in every_member(9):
            for _ in range(3):
                assert transport_keeps_specialness(D), D
                D = psi_append(D)
                cases += 1
        assert cases == 35508

    def test_member_form_paths_follow_specialness(self):
        # both form-path lemmas against the search on every member with
        # s <= 8, tied parts and u = 1 included
        members = special = 0
        for _, D in every_member(8):
            answer = find_form_path(D)
            assert member_form_is_specialness(*answer), D
            assert special_member_path_is_columns(*answer), D
            members += 1
            special += is_special(D)
        assert (members, special) == (5770, 4036)

    def test_form_b_paths_recut_to_conjugate_type(self):
        # lemmas (c) and (d) on every member with s <= 8, tied parts and
        # u = 1 included; the exhaustive family search is the oracle of (c)
        members = form_b = 0
        for _, D in every_member(8):
            pi, form = find_form_path(D)
            assert form_b_path_recuts_to_conjugate_type(pi, form), D
            assert form_b_path_is_recut_columns(pi, form), D
            if form is FormClass.B:
                profile = conjugate(D.row_composition())
                assert family_with_lengths(D, profile) is not None, D
                form_b += 1
            members += 1
        assert (members, form_b) == (5770, 1734)

    def test_form_class_tracks_leading_part(self):
        for order in [(8, 3, 5), (5, 8, 3), (5, 3, 8)]:
            for D in family_members(8, 5, 3, order):
                assert find_form_path(D)[1] is FormClass.A

    def test_every_member_admits_form_path(self):
        for order in [(3, 8, 5), (3, 5, 8)]:
            for D in family_members(8, 5, 3, order)[:12]:
                pi, form = find_form_path(D)
                assert form in (FormClass.A, FormClass.B)
                assert pi.support == D.nodes


def assert_normal_rows(D: Diagram) -> None:
    """D stores the rows that normalizing them again would give, all ints."""
    rows = D.rows()
    assert rows == Diagram.from_rows(rows).rows(), rows
    assert all(type(b) is int for row in rows for b in row), rows


class TestStoredRowsAreNormal:
    """The builders that store their rows without normalizing them."""

    def test_family_members(self):
        members = 0
        for s, t, u in itertools.combinations_with_replacement(range(9, 0, -1), 3):
            for order in set(itertools.permutations((s, t, u))):
                shape = StuShape(s, t, u, order)
                for p in family_parameter_sets(shape):
                    assert_normal_rows(family_diagram(p, shape))
                    members += 1
        assert members == 11836

    def test_young_diagrams(self):
        for n in range(1, 9):
            for parts in compositions_of(n):
                assert_normal_rows(young_diagram(parts))

    def test_rotation_and_row_append(self):
        for D in box_diagrams(3, 4) + box_diagrams(4, 3):
            assert_normal_rows(rotate_180(D))
            if is_admissible(D):
                assert_normal_rows(psi_append(D))

    def test_min_column_diagrams(self):
        for n in range(1, 7):
            for parts in compositions_of(n):
                for d in parabolic(composition_generators(parts), n).reps:
                    assert_normal_rows(min_column_diagram(d, parts))


class TestVerifyRimFamily:
    @staticmethod
    def check(lam):
        """The table counts (special, non-special) once the closed rim of
        lam, or of its reversal, is the searched rim; else it raises."""
        shape = families._shape_or_none(lam) or families._shape_or_none(lam[::-1])
        return families._check_closed_rim(lam, shape, families._searched_rim(lam, None))

    def test_passes_on_family_shapes(self):
        lam = (1, 3, 2, 1)
        assert self.check(lam) == (3, 2)
        assert len(z_ideal(lam)) == 35

    def test_passes_on_m_members_with_both_inner_blocks(self):
        # t - u = 2 is the least gap giving M members with theta and zeta
        # both positive, the only ones whose 1b and 2 blocks can be confused
        assert self.check((1, 4, 3, 1)) == (4, 5)

    def test_passes_with_two_members(self):
        assert sum(self.check((2, 3, 1, 1))) == 2

    def test_passes_with_extra_row(self):
        assert self.check((1, 3, 2, 1, 1)) == (3, 2)

    def test_passes_on_reversed_composition(self):
        assert sum(self.check((1, 1, 3, 2))) == 2
        assert self.check((1, 3, 2, 1, 1)[::-1]) == (3, 2)

    def test_detects_count_mismatch(self, monkeypatch):
        monkeypatch.setattr(families, "table_counts", lambda shape: (0, 0))
        with pytest.raises(VerificationError, match="table values"):
            self.check((1, 3, 2, 1))

    def test_detects_a_dropped_member(self, monkeypatch):
        closed_rim = families._closed_rim

        def without_first(shape):
            diagrams, specials = closed_rim(shape)
            first = min(diagrams, key=lambda D: D.sorted_nodes)
            return diagrams - {first}, specials - {first}

        monkeypatch.setattr(families, "_closed_rim", without_first)
        with pytest.raises(VerificationError, match="missing"):
            self.check((1, 3, 2, 1))

    def test_detects_a_non_maximal_member(self, monkeypatch):
        lam = (1, 3, 2, 1)
        below = max(z_ideal(lam) - rim(lam), key=lambda e: e.sort_key)
        extra = min_column_diagram(below, lam)
        closed_rim = families._closed_rim

        def with_extra(shape):
            diagrams, specials = closed_rim(shape)
            return diagrams | {extra}, specials | {extra} if is_special(extra) else specials

        monkeypatch.setattr(families, "_closed_rim", with_extra)
        with pytest.raises(VerificationError, match="extra") as caught:
            self.check(lam)
        assert str(below.images) in str(caught.value).split("extra")[1]

    def test_detects_a_wrong_special_subset(self, capsys, monkeypatch):
        # swapping a special member for a non-special one keeps the counts
        # of (1,3,2,1) at (3, 2): only a comparison of E_s can see it
        argv = ["verify", "tables", "--s", "3", "--t", "2", "--u", "1"]
        assert self.check((1, 3, 2, 1)) == (3, 2)
        assert main(argv) == 0
        closed_rim = families._closed_rim

        def swapping_one(shape):
            E, E_s = closed_rim(shape)
            if not E_s or E_s == E:
                return E, E_s
            special, other = min(E_s, key=Diagram.rows), min(E - E_s, key=Diagram.rows)
            return E, E_s - {special} | {other}

        monkeypatch.setattr(families, "_closed_rim", swapping_one)
        with pytest.raises(VerificationError, match="E_s"):
            self.check((1, 3, 2, 1))
        capsys.readouterr()
        assert main(argv) == 3
        assert "verification failed" in capsys.readouterr().err


class TestColumnOps:
    OP_SHAPES = [(5, 3, 2), (6, 4, 2), (5, 4, 2)]

    def applicable_ops(self, s, t, u, order):
        shape = StuShape(s, t, u, order)
        for p in family_parameter_sets(shape):
            E = family_diagram(p, shape)
            width = len(determining_tuple(E))
            for op in ColumnOp:
                for j in range(1, width + 1):
                    try:
                        yield E, apply_column_op(E, op, j), shape
                    except ValueError:
                        continue

    def test_ops_preserve_prefix_order(self):
        seen = 0
        for s, t, u in self.OP_SHAPES:
            for order in ((u, s, t), (u, t, s)):
                for E, moved, _ in self.applicable_ops(s, t, u, order):
                    seen += 1
                    assert is_prefix(w_of_diagram(E), w_of_diagram(moved))
        assert seen > 40

    def test_ops_preserve_the_profile_pattern(self):
        for s, t, u in self.OP_SHAPES:
            for order in ((u, s, t), (u, t, s)):
                for E, moved, shape in self.applicable_ops(s, t, u, order):
                    alpha = determining_tuple(moved)
                    assert alpha.count("3") + 1 == u
                    assert moved.row_composition() == shape.composition

    def test_split_op_on_m_fixture(self):
        moved = apply_column_op(FAMILY_M_385, ColumnOp.C5, 1)
        assert determining_tuple(moved) == (
            "1b", "1", "1", "1", "1", "4", "1b", "3", "3", "1",
        )
        assert is_prefix(w_of_diagram(FAMILY_M_385), w_of_diagram(moved))

    def test_split_op_on_n_fixture(self):
        moved = apply_column_op(FAMILY_N_358, ColumnOp.C5, 7)
        assert determining_tuple(moved) == (
            "1b", "1b", "1b", "1", "4", "1b", "1b", "1", "3", "3",
        )

    def test_swap_op_moves_single_past_pair(self):
        # columns reading (1, 2) trade places under the first swap
        E = diagram_from_tuple(("4", "1", "2"))
        moved = apply_column_op(E, ColumnOp.C1, 2)
        assert determining_tuple(moved) == ("4", "2", "1")

    def test_wrong_pattern_rejected(self):
        for op in (ColumnOp.C1, ColumnOp.C2, ColumnOp.C3, ColumnOp.C4):
            with pytest.raises(ValueError):
                apply_column_op(FAMILY_M_385, op, 1)

    def test_split_needs_a_pair_column(self):
        with pytest.raises(ValueError):
            apply_column_op(FAMILY_M_385, ColumnOp.C5, 2)


def calibrate_rs_convention(max_n: int) -> frozenset[str]:
    """Which Robinson-Schensted components detect right-cell membership.

    For every composition of every degree up to max_n, compares the
    tableau-equality membership test on the longest block permutation
    times each coset rep against the admissibility of the rep's
    minimal-column diagram, for both components.  Returns the names of
    the components that agree in every case.
    """
    candidates = {
        "insertion": insertion_tableau,
        "recording": recording_tableau,
    }
    surviving = set(candidates)
    for n in range(1, max_n + 1):
        for lam in compositions_of(n):
            data = parabolic(composition_generators(lam), n)
            want = frozenset(
                e
                for e in data.reps
                if is_admissible(min_column_diagram(e, lam))
            )
            for name in tuple(surviving):
                tableau = candidates[name]
                target = tableau(data.longest)
                got = frozenset(
                    e
                    for e in data.reps
                    if tableau(data.longest * e) == target
                )
                if got != want:
                    surviving.discard(name)
    return frozenset(surviving)


class TestCalibration:
    def test_recording_component_is_the_match(self):
        assert calibrate_rs_convention(5) == frozenset({"recording"})
