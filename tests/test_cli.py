"""Tests for the command-line interface: outputs, schemas, exit codes."""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import oracles
from cellrim import cli, diagrams, families, paths
from cellrim.cli import main
from cellrim.diagrams import Diagram, reduced_word_runs, w_of_diagram
from cellrim.families import rim_diagrams, z_ideal
from cellrim.paths import family_with_lengths, find_form_path, is_admissible
from cellrim.permutations import prefix_maximal, reduced_word
from cellrim.tableaux import compositions_of, conjugate
from claims import from_word
from fixtures import FAMILY_H_538, FAMILY_M_385, FAMILY_M_385_TUPLE, every_member


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0, err
    return json.loads(out)


class TestRim:
    def test_small_family_shape(self, capsys):
        payload = run_json(capsys, "rim", "--composition", "1,3,2,1")
        assert payload["lambda"] == [1, 3, 2, 1]
        assert payload["rim_size"] == 5
        assert payload["special"] == 3
        assert len(payload["diagrams"]) == 5
        assert len(payload["reduced_words"]) == 5

    def test_words_match_diagrams(self, capsys):
        payload = run_json(capsys, "rim", "--composition", "1,3,2,1")
        n = sum(payload["lambda"])
        for entry, word in zip(payload["diagrams"], payload["reduced_words"]):
            D = Diagram(frozenset((a, b) for a, b in entry["nodes"]))
            assert from_word(n, word) == w_of_diagram(D)

    def test_partition_head(self, capsys):
        payload = run_json(capsys, "rim", "--composition", "3,2,1,1")
        assert payload["rim_size"] == 1
        assert payload["special"] == 1

    def test_single_row(self, capsys):
        payload = run_json(capsys, "rim", "--composition", "5")
        assert payload["rim_size"] == 1
        assert payload["reduced_words"] == [[]]

    def test_deterministic_output(self, capsys):
        code, first, _ = run(capsys, "rim", "--composition", "1,3,2,1", "--format", "json")
        assert code == 0
        code, second, _ = run(capsys, "rim", "--composition", "1,3,2,1", "--format", "json")
        assert code == 0
        assert first == second

    def test_ascii_header(self, capsys):
        code, out, _ = run(capsys, "rim", "--composition", "3,2,1,1")
        assert code == 0
        assert "rim size: 1" in out
        assert "×" in out

    def test_plain_glyphs(self, capsys):
        code, out, _ = run(capsys, "rim", "--composition", "3,2,1,1", "--plain-x")
        assert code == 0
        assert "×" not in out
        assert "x" in out

    def test_json_builds_no_ascii_lines(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("ascii output built under --format json")

        monkeypatch.setattr(Diagram, "render", refuse)
        monkeypatch.setattr(cli, "_rim_lines", refuse)
        payload = run_json(capsys, "rim", "--composition", "1,3,2,1")
        assert payload["rim_size"] == 5


def _streamed_rim_compositions() -> list[tuple[int, ...]]:
    """Every composition with n <= 7, and every closed shape with s <= 5
    and one to three trailing ones with its reversal."""
    out = [lam for n in range(1, 8) for lam in compositions_of(n)]
    for s, t, u in itertools.combinations_with_replacement(range(5, 0, -1), 3):
        for order in sorted(set(itertools.permutations((s, t, u)))):
            for k in (1, 2, 3):
                out += [order + (1,) * k, (1,) * k + order[::-1]]
    return list(dict.fromkeys(out))


class TestStreamedRim:
    # cellrim rim writes one diagram at a time; the oracle builds the whole
    # payload, or every ascii line, from each diagram's Permutation
    def test_stdout_matches_the_whole_output(self, capsys):
        shapes = _streamed_rim_compositions()
        for lam in shapes:
            text = ",".join(map(str, lam))
            for fmt, extra in (("json", ("--format", "json")), ("ascii", ()),
                               ("ascii", ("--plain-x",))):
                code, out, err = run(capsys, "rim", "--composition", text, *extra)
                assert code == 0, err
                assert out == oracles.rim_output_whole(lam, fmt, "--plain-x" in extra), (lam, extra)
        assert len(shapes) == 792

    def test_runs_spell_the_reduced_word(self):
        for lam in _streamed_rim_compositions():
            for D in rim_diagrams(lam)[0]:
                word = tuple(i for j, k in reduced_word_runs(D) for i in range(j, k, -1))
                assert word == reduced_word(w_of_diagram(D)), (lam, D)


class TestCell:
    def test_members(self, capsys):
        payload = run_json(capsys, "cell", "--permutation", "3,1,2")
        assert payload["cell_size"] == 2
        assert payload["members"] == [[2, 1, 3], [3, 1, 2]]

    def test_identity_cell(self, capsys):
        payload = run_json(capsys, "cell", "--permutation", "1,2,3,4")
        assert payload["members"] == [[1, 2, 3, 4]]


class TestDiagram:
    def test_family_m_fixture(self, capsys):
        payload = run_json(
            capsys, "diagram", "M", "--stu", "8,5,3", "--order", "u,s,t",
            "--params", "1,3,1,0,3", "--C", "7,8",
        )
        nodes = frozenset((a, b) for a, b in payload["nodes"])
        assert Diagram(nodes) == FAMILY_M_385
        assert tuple(payload["determining_tuple"]) == FAMILY_M_385_TUPLE
        assert payload["form"] == "B"
        assert payload["admissible"] is True
        assert payload["special"] is False

    def test_family_h_fixture(self, capsys):
        payload = run_json(
            capsys, "diagram", "H", "--stu", "8,5,3", "--order", "t,u,s",
            "--C", "6,8", "--v", "3",
        )
        nodes = frozenset((a, b) for a, b in payload["nodes"])
        assert Diagram(nodes) == FAMILY_H_538

    def test_numeric_order_accepted(self, capsys):
        payload = run_json(
            capsys, "diagram", "M", "--stu", "8,5,3", "--order", "3,8,5",
            "--params", "1,3,1,0,3", "--C", "7,8",
        )
        nodes = frozenset((a, b) for a, b in payload["nodes"])
        assert Diagram(nodes) == FAMILY_M_385

    def test_young_block(self, capsys):
        payload = run_json(capsys, "diagram", "young", "--partition", "2,2")
        assert payload["nodes"] == [[1, 1], [1, 2], [2, 1], [2, 2]]
        assert payload["special"] is True
        assert payload["admissible"] is True

    def test_check_counterexample(self, capsys):
        # rows (1,2), (1), (2), (1,2): admissible, with no form path to
        # settle the answer, and no family of the conjugate type, so
        # family_with_lengths misses; answering True for every admissible
        # diagram fails here
        payload = run_json(
            capsys, "diagram", "check", "--nodes", "1,1;1,2;2,1;3,2;4,1;4,2",
        )
        assert payload["admissible"] is True
        assert payload["form"] is None
        assert payload["conjugate_type"] == [4, 2]
        assert payload["conjugate_type_path"] is False

    def test_check_profile_with_triple_before_full_column(self, capsys):
        # rows (2, 4, 3, 1) read 3, 4, 2, 1: an M arrangement whose every
        # column fits a profile entry, but its 3 comes before the 4
        payload = run_json(
            capsys, "diagram", "check", "--nodes",
            "1,1;1,2;2,1;2,2;2,3;2,4;3,1;3,2;3,3;4,2",
        )
        assert payload["row_composition"] == [2, 4, 3, 1]
        assert payload["determining_tuple"] is None
        assert payload["form"] == "A"
        assert payload["special"] is True

    def test_check_ascii_annotations(self, capsys):
        code, out, _ = run(
            capsys, "diagram", "check", "--nodes", "1,1;1,2;2,1;3,2;4,1;4,2",
            "--plain-x",
        )
        assert code == 0
        assert "admissible: yes" in out
        assert "family of type (4, 2): no" in out

    def test_family_needs_shape(self, capsys):
        code, _, err = run(capsys, "diagram", "F", "--C", "1,2,3")
        assert code == 1
        assert "stu" in err

    @pytest.mark.parametrize("argv, option", [
        (("N", "--stu", "8,5,3", "--order", "u,s,t", "--params", "1,3,1,0,3",
          "--C", "7,8"), "--C"),
        (("F", "--stu", "8,5,3", "--order", "u,s,t", "--C", "7,8", "--v", "2",
          "--params", "9,9"), "--v"),
        (("G", "--stu", "8,5,3", "--order", "u,s,t", "--params", "1,1"),
         "--params"),
        (("H", "--stu", "8,5,3", "--order", "t,u,s", "--C", "6,8", "--v", "3",
          "--params", "1"), "--params"),
        (("M", "--stu", "8,5,3", "--order", "u,s,t", "--params", "1,3,1,0,3",
          "--C", "7,8", "--v", "3"), "--v"),
        (("young", "--partition", "2,2", "--nodes", "1,1", "--stu", "3,2,1"),
         "--nodes"),
        (("young", "--partition", "2,2", "--order", "u,s,t"), "--order"),
        (("check", "--nodes", "1,1", "--partition", "1"), "--partition"),
        (("check", "--nodes", "1,1", "--C", ""), "--C"),
        (("F", "--stu", "8,5,3", "--order", "s,u,t", "--C", "2,3,4", "--partition",
          "2,1"), "--partition"),
        (("N", "--stu", "8,5,3", "--order", "u,t,s", "--params", "3,0,1,1,1",
          "--nodes", "1,1"), "--nodes"),
    ])
    def test_option_the_kind_does_not_read_rejected(self, capsys, argv, option):
        # the CLI refuses the options of young and check; FamilyParams
        # refuses a field the family variant does not read
        field = {"--C": "columns", "--v": "v", "--params": "counts"}.get(option)
        if argv[0] in ("young", "check") or field is None:
            message = f"diagram {argv[0]} does not read {option}"
        else:
            message = f"variant {argv[0]} does not read {field}"
        code, out, err = run(capsys, "diagram", *argv, "--format", "json")
        assert code == 1
        assert out == ""
        assert f"invalid input: {message}\n" in err

    @pytest.mark.parametrize("argv, message", [
        (("check", "--nodes", "1,1;1,1,1"), "each node needs two positive coordinates"),
        (("check", "--nodes", "0,1"), "each node needs two positive coordinates"),
        (("check",), "diagram check needs --nodes"),
        (("young",), "diagram young needs --partition"),
        (("M", "--stu", "8,5,3", "--order", "u,s", "--params", "1,3,1,0,3"),
         "order needs three entries"),
        (("F", "--stu", "8,5,3", "--order", "s,u,t", "--C", ""),
         "C must be comma-separated integers"),
        (("N", "--stu", "8,5,3", "--order", "u,t,s", "--params", ""),
         "params must be comma-separated integers"),
        (("H", "--stu", "8,5,3", "--order", "t,u,s", "--C", "6,8"),
         "variant H needs a positive v, got None"),
        (("F",), "diagram F needs --stu"),
        (("N", "--stu", "8,5,3", "--params", "3,0,1,1,1"), "diagram N needs --order"),
        # an empty value is given, and its parser names the fault
        (("check", "--nodes", ""), "node must be comma-separated integers, got ''"),
        (("young", "--partition", ""), "composition must be comma-separated integers, got ''"),
        (("young", "--partition", "0"), "composition parts must be positive, got (0,)"),
    ])
    def test_malformed_diagram_input_rejected(self, capsys, argv, message):
        code, out, err = run(capsys, "diagram", *argv, "--format", "json")
        assert (code, out) == (1, "")
        assert f"invalid input: {message}" in err

    def test_stu_needs_three_parts(self, capsys):
        code, _, err = run(capsys, "diagram", "M", "--stu", "3,2", "--order", "u,s,t")
        assert code == 1
        assert "invalid input: --stu needs three parts" in err

    def test_failed_form_path_claim_exits_3(self, capsys, monkeypatch):
        def fail(D):
            raise cli.VerificationError("admissible diagram yielded no form family")

        monkeypatch.setattr(cli, "find_form_path", fail)
        code, out, err = run(
            capsys, "diagram", "M", "--stu", "8,5,3", "--order", "u,s,t",
            "--params", "1,3,1,0,3", "--C", "7,8", "--format", "json",
        )
        assert code == 3
        assert out == ""
        assert "verification failed" in err

    def test_conjugate_type_family_matches_search(self):
        # A family of the conjugate type forces admissibility, and a
        # form-A family is one, so only form-B answers are searched for
        # it; every choice of (x,y,z,1) rows over the columns 1..4, gaps
        # allowed, must agree with the search
        subsets = [
            c for k in range(1, 5) for c in itertools.combinations(range(1, 5), k)
        ]
        forms = Counter()
        for r1, r2, r3 in itertools.product(subsets, repeat=3):
            for b in range(1, 5):
                D = Diagram.from_rows([r1, r2, r3, (b,)])
                notes = cli._annotations(D)
                profile = conjugate(D.row_composition())
                want = family_with_lengths(D, profile) is not None
                assert notes["conjugate_type_path"] is want, D
                assert notes["admissible"] is is_admissible(D), D
                forms[notes["form"]] += 1
        assert forms == {None: 9021, "A": 4461, "B": 18}

    @pytest.mark.parametrize("argv", [
        ("M", "--stu", "8,5,3", "--order", "u,s,t", "--params", "1,3,1,0,3",
         "--C", "7,8"),
        ("young", "--partition", "3,2,1,1"),
        ("young", "--partition", "2,2"),
        ("check", "--nodes", "1,2;2,1;3,1;4,1"),
        ("H", "--stu", "8,5,3", "--order", "t,u,s", "--C", "6,8", "--v", "3"),
    ])
    def test_one_admissibility_test_per_call(self, capsys, monkeypatch, argv):
        calls = []

        def counted(D):
            calls.append(D)
            return is_admissible(D)

        for module in (cli, diagrams, families, paths):
            monkeypatch.setattr(module, "is_admissible", counted)
        run_json(capsys, "diagram", *argv)
        assert len(calls) == 1

    @pytest.mark.parametrize("argv, searches", [
        (("H", "--stu", "8,5,3", "--order", "t,u,s", "--C", "6,8", "--v", "3"), 0),
        (("F", "--stu", "8,5,3", "--order", "s,u,t", "--C", "2,3,4"), 0),
        (("G", "--stu", "8,5,3", "--order", "t,s,u", "--C", "2,4,5"), 0),
        (("M", "--stu", "8,5,3", "--order", "u,s,t", "--params", "2,0,0,0,5",
          "--C", "7,8"), 0),
        (("M", "--stu", "8,5,3", "--order", "u,s,t", "--params", "1,3,1,0,3",
          "--C", "7,8"), 1),
    ])
    def test_special_members_read_their_columns(self, capsys, monkeypatch, argv, searches):
        # a special member's form path is its columns; only the M member
        # with theta = 1 is not special and runs the search
        calls = []

        def counted(D):
            calls.append(D)
            return find_form_path(D)

        monkeypatch.setattr(cli, "find_form_path", counted)
        payload = run_json(capsys, "diagram", *argv)
        assert len(calls) == searches
        assert payload["special"] is (searches == 0)
        assert payload["form"] == ("A" if searches == 0 else "B")

    def test_column_route_matches_the_search(self):
        # every annotation of every member with s <= 6, tied parts and
        # u = 1 included, is the same by either route
        members = 0
        for _, D in every_member(6):
            assert cli._annotations(D, member=True) == cli._annotations(D), D
            members += 1
        assert members == 1221

    def test_columns_that_are_no_form_path_exit_3(self, capsys, monkeypatch):
        # taken for special, FAMILY_M_385 offers its 9 columns for s = 8,
        # which classify_form refuses; that is a failed claim, not a
        # diagram without a form path
        monkeypatch.setattr(cli, "is_special", lambda D: True)
        code, out, err = run(
            capsys, "diagram", "M", "--stu", "8,5,3", "--order", "u,s,t",
            "--params", "1,3,1,0,3", "--C", "7,8", "--format", "json",
        )
        assert code == 3
        assert out == ""
        assert "verification failed" in err
        assert FAMILY_M_385.column_count == 9

    def test_form_path_at_10_7_4(self, capsys):
        # The M member at (10,7,4) on which an exhaustive walk of the
        # empty form-A search tree is slowest; the expected family was
        # recorded with the plain backtracking core search.
        payload = run_json(
            capsys, "diagram", "M", "--stu", "10,7,4", "--order", "4,10,7",
            "--C", "8,10,11", "--params", "2,1,1,0,6",
        )
        assert payload["row_composition"] == [4, 10, 7, 1]
        assert payload["admissible"] is True
        assert payload["form"] == "B"
        assert payload["path"] == [
            [[2, 1], [3, 1]],
            [[2, 2], [3, 2]],
            [[2, 3], [3, 4], [4, 4]],
            [[1, 4], [2, 4], [3, 5]],
            [[2, 6]],
            [[2, 7]],
            [[1, 8], [2, 8], [3, 8]],
            [[2, 9]],
            [[1, 10], [2, 10], [3, 10]],
            [[1, 11], [2, 11], [3, 11]],
        ]


class TestVerify:
    def test_tables_pass(self, capsys):
        payload = run_json(capsys, "verify", "tables", "--s", "3", "--t", "2", "--u", "1")
        assert payload["ok"] is True
        assert len(payload["results"]) == 6
        sizes = sorted(r["rim_size"] for r in payload["results"])
        assert sizes == [1, 2, 2, 3, 5, 5]

    @pytest.mark.parametrize(
        "argv",
        [
            ("--s", "3", "--t", "2", "--u", "1", "--trailing-ones", "2"),
            ("--s", "4", "--t", "3", "--u", "1", "--trailing-ones", "3", "--max-n", "11"),
        ],
    )
    def test_tables_with_trailing_ones(self, capsys, argv):
        payload = run_json(capsys, "verify", "tables", *argv)
        assert payload["ok"] is True
        one = run_json(capsys, "verify", "tables", *argv[:6])["results"]
        size_with_one = {tuple(r["lambda"][:3]): r["rim_size"] for r in one}
        for r in payload["results"]:
            lam = tuple(r["lambda"])
            counts = families.table_counts(families._shape_or_none(lam))
            assert (r["special"], r["rim_size"] - r["special"]) == counts, lam
            # psi_append maps the rim one part shorter onto this one
            assert r["rim_size"] == size_with_one[lam[:3]], lam

    def test_bijections_pass(self, capsys):
        payload = run_json(capsys, "verify", "bijections", "--max-n", "4")
        assert payload["ok"] is True
        assert payload["rotation_checked"] == 15

    def test_bijections_check_closed_rims_against_the_search(self, capsys, monkeypatch):
        # drop one member of each closed shape of degree 8 whose reversal
        # is not closed: a rotation compared with itself would not see it
        code, _, err = run(capsys, "verify", "bijections", "--max-n", "8")
        assert code == 0, err
        closed_rim = families._closed_rim
        dropped = []

        def dropping_one(shape):
            E, E_s = closed_rim(shape)
            lam = shape.composition
            if sum(lam) != 8 or families._shape_or_none(lam[::-1]) is not None:
                return E, E_s
            D = min(E, key=Diagram.rows)
            dropped.append(lam)
            return E - {D}, E_s - {D}

        monkeypatch.setattr(families, "_closed_rim", dropping_one)
        code, out, err = run(capsys, "verify", "bijections", "--max-n", "8")
        assert dropped
        assert (code, out) == (3, "")
        assert "verification failed" in err

    def test_bijections_check_closed_rim_counts(self, capsys, monkeypatch):
        # swapped special and non-special counts of every closed shape with
        # non-special members: each rim matches the search, only the
        # table counts can catch it
        table_counts = families.table_counts

        def swapped(shape):
            special, other = table_counts(shape)
            return (other, special) if other else (special, other)

        monkeypatch.setattr(families, "table_counts", swapped)
        code, out, err = run(capsys, "verify", "bijections", "--max-n", "8")
        assert (code, out) == (3, "")
        assert "table values" in err

    def test_bijections_search_each_composition_once(self, capsys, monkeypatch):
        searched_rim = families._searched_rim
        calls = []

        def counting(lam, limit):
            calls.append(lam)
            return searched_rim(lam, limit)

        monkeypatch.setattr(families, "_searched_rim", counting)
        monkeypatch.setattr(cli, "_searched_rim", counting)
        code, _, err = run(capsys, "verify", "bijections", "--max-n", "8")
        assert code == 0, err
        # 2^(n-1) compositions of each degree n up to 8
        assert len(calls) == len(set(calls)) == 255

    @pytest.mark.parametrize("suite", ["tables", "bijections"])
    def test_degree_bound_below_one_is_rejected(self, capsys, suite):
        code, out, err = run(capsys, "verify", suite, "--max-n", "0")
        assert code == 1
        assert "PASS" not in out
        assert "invalid input: --max-n must be at least 1" in err

    @pytest.mark.parametrize(
        "name, lie",
        [
            # the diagram route refuses every member of degree 4
            ("_admissible_by_word", lambda real: lambda labels, shape: (
                len(labels) != 4 and real(labels, shape))),
            # the cover route answers the opposite of the truth
            ("is_admissible", lambda real: lambda D: not real(D)),
        ],
        ids=["word", "cover"],
    )
    def test_bijections_catch_a_route_disagreement(self, capsys, monkeypatch, name, lie):
        monkeypatch.setattr(families, name, lie(getattr(families, name)))
        code, out, err = run(capsys, "verify", "bijections", "--max-n", "5")
        assert (code, out) == (3, "")
        assert "cell route and diagram route disagree" in err

    def test_oracle_suite_is_retired(self, capsys):
        # verify bijections walks every composition through both routes
        code, out, err = run(capsys, "verify", "oracle", "--max-n", "3")
        assert (code, out) == (1, "")
        assert "invalid choice: 'oracle'" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--s", "0"), "need s >= t >= u >= 1"),
            (("--trailing-ones", "0"), "at least one trailing part is required"),
        ],
        ids=["s", "trailing-ones"],
    )
    def test_bad_tables_parts_name_their_cause(self, capsys, monkeypatch, argv, message):
        searches = []
        monkeypatch.setattr(cli, "_searched_rim", lambda *args: searches.append(args))
        code, out, err = run(capsys, "verify", "tables", *argv)
        assert (code, out, searches) == (1, "", [])
        assert f"invalid input: {message}" in err

    def test_failed_assertion_exits_3(self, capsys, monkeypatch):
        import cellrim.families as families

        monkeypatch.setattr(families, "table_counts", lambda shape: (0, 0))
        code, _, err = run(capsys, "verify", "tables", "--s", "2", "--t", "1", "--u", "1")
        assert code == 3
        assert "verification failed" in err


class TestOracleCommand:
    def test_counts(self, capsys):
        payload = run_json(capsys, "oracle", "--composition", "2,1")
        assert payload["ideal_size"] == 2
        assert payload["rim_size"] == 1
        assert payload["routes_agree"] is True

    def test_listing(self, capsys):
        payload = run_json(capsys, "oracle", "--composition", "2,1", "--list")
        assert payload["members"] == [[1, 2, 3], [1, 3, 2]]

    def test_matches_the_library_up_to_degree_6(self, capsys):
        # the command reads the walk's count and rim flags; the library's
        # ideal and its prefix-maximal elements cross-check them
        for n in range(1, 7):
            for lam in compositions_of(n):
                text = ",".join(map(str, lam))
                listed = run_json(capsys, "oracle", "--composition", text, "--list")
                ideal = z_ideal(lam)
                assert listed["ideal_size"] == len(ideal), lam
                assert listed["rim_size"] == len(prefix_maximal(ideal)), lam
                assert listed["members"] == sorted(list(e.images) for e in ideal), lam
                del listed["members"]
                assert run_json(capsys, "oracle", "--composition", text) == listed

    @pytest.mark.parametrize("listing", [(), ("--list",)])
    def test_one_walk_per_call(self, capsys, monkeypatch, listing):
        walks, walk = [], cli._ideal_members

        def counted(*args):
            walks.append(args)
            return walk(*args)

        monkeypatch.setattr(cli, "_ideal_members", counted)
        for fmt in ("json", "ascii"):
            code, _, err = run(
                capsys, "oracle", "--composition", "2,1,2", *listing, "--format", fmt
            )
            assert code == 0, err
        assert walks == [((2, 1, 2), None)] * 2


def pin(digest, slot, *argv):
    """One md5 pin, with a fixed id: the slot was the pin's list position
    when ids were positional, so dropping a pin renames no other, and a
    new pin takes an unused slot."""
    return pytest.param(digest, argv, id=f"{digest}-argv{slot}")


class TestJsonBytes:
    # md5 of the exact stdout of each --format json call: a change in key
    # order, spacing or number formatting shows here though the parsed
    # payload stays equal
    @pytest.mark.parametrize("digest, argv", [
        pin("9bf34293a1b72cadec480289e90f2d46", 0,
            "cell", "--permutation", "2,1,4,3,6,5,8,7"),
        pin("4c6a50f94485607288b64b237b2be7d4", 1,
            "oracle", "--composition", "2,4,1,3", "--max-n", "10", "--list"),
        pin("3e0a0e35bb16b8ca00779ce2249aec98", 2,
            "verify", "tables", "--s", "4", "--t", "3", "--u", "2", "--max-n", "10"),
        pin("8db7b6cbf8d66a9ac5d0ae90effa979b", 3,
            "verify", "tables", "--s", "3", "--t", "2", "--u", "1", "--trailing-ones", "2"),
        pin("2c654920ba21fc171b7ac5865974e207", 4,
            "diagram", "young", "--partition", "4,2,1"),
        pin("ca0585b07d5836c1c58cfa51db48f165", 5,
            "diagram", "F", "--stu", "8,5,3", "--order", "s,u,t", "--C", "2,3,4"),
        pin("dbb8fe0574f0ab66bb68a56a4d9b370b", 6,
            "diagram", "G", "--stu", "8,5,3", "--order", "t,s,u", "--C", "2,4,5"),
        pin("65a591735c7d616b22b15ab56fb6f30c", 7,
            "diagram", "H", "--stu", "8,5,3", "--order", "t,u,s", "--C", "6,8", "--v", "3"),
        pin("3fc461ea7273642e0f8e7bcaf18970cd", 8,
            "diagram", "H", "--stu", "4,3,1", "--order", "t,u,s", "--v", "4"),
        pin("cb10c4a4e70260c89806be7c2cdb4a1c", 9,
            "diagram", "M", "--stu", "8,5,3", "--order", "u,s,t", "--params", "1,3,1,0,3",
            "--C", "7,8"),
        pin("5c63e566558144859f18cfb0ac02e43a", 10,
            "diagram", "N", "--stu", "8,5,3", "--order", "u,t,s", "--params", "3,0,1,1,1"),
        pin("440ba846ea1292a573855cfa0eb6bf9a", 11,
            "diagram", "check", "--nodes", "1,1;1,2;2,1;3,2;4,1;4,2"),
        pin("3cdc9cd4954de4c62c99d28ad3d95904", 12,
            "rim", "--composition", "3,8,5,1,1"),
        pin("c7b82b880fe687656c377fc1603d2fc0", 13,
            "verify", "bijections", "--max-n", "6"),
    ])
    def test_stdout_md5(self, capsys, digest, argv):
        code, out, err = run(capsys, *argv, "--format", "json")
        assert code == 0, err
        assert hashlib.md5(out.encode()).hexdigest() == digest


class TestAsciiBytes:
    # md5 of the exact stdout of each call in the default ascii format:
    # the TestJsonBytes calls, plus the plain glyphs
    @pytest.mark.parametrize("digest, argv", [
        pin("b4937600740be4cf093bc090a8c5b14d", 0,
            "cell", "--permutation", "2,1,4,3,6,5,8,7"),
        pin("370ae6ce81a88013403ff7baa9946711", 1,
            "oracle", "--composition", "2,4,1,3", "--max-n", "10", "--list"),
        pin("f3f2637645bfedb4895e790ba6e51246", 2,
            "verify", "tables", "--s", "4", "--t", "3", "--u", "2", "--max-n", "10"),
        pin("1d924f425a4c705327605ad4cb2e9e7a", 3,
            "verify", "tables", "--s", "3", "--t", "2", "--u", "1", "--trailing-ones", "2"),
        pin("737105bf9789e9ca77ceed4652ba16b9", 4,
            "verify", "bijections", "--max-n", "6"),
        pin("93ab1317da37ed8b554cc57acea47899", 5,
            "diagram", "young", "--partition", "4,2,1"),
        pin("3ffe555cefa9148e4816e24b2783c8b3", 6,
            "diagram", "F", "--stu", "8,5,3", "--order", "s,u,t", "--C", "2,3,4"),
        pin("076e2dc92817efde21ffbaff97f4e000", 7,
            "diagram", "G", "--stu", "8,5,3", "--order", "t,s,u", "--C", "2,4,5"),
        pin("29520cd76ecb614a36b415d450ffb02e", 8,
            "diagram", "H", "--stu", "8,5,3", "--order", "t,u,s", "--C", "6,8", "--v", "3"),
        pin("159979acec72ba29c9fd070ea4f768d9", 9,
            "diagram", "H", "--stu", "4,3,1", "--order", "t,u,s", "--v", "4"),
        pin("5bb269f7e8d6987cfe02a9b4f7820cc9", 10,
            "diagram", "M", "--stu", "8,5,3", "--order", "u,s,t", "--params", "1,3,1,0,3",
            "--C", "7,8"),
        pin("3a54b21b6ec915344200ebf6e06a0b91", 11,
            "diagram", "N", "--stu", "8,5,3", "--order", "u,t,s", "--params", "3,0,1,1,1"),
        pin("a4c446a73138e9385b6ff86350875f83", 12,
            "diagram", "check", "--nodes", "1,1;1,2;2,1;3,2;4,1;4,2"),
        pin("2b25af5f30d8784f86b3b6af52bbe7c4", 13,
            "rim", "--composition", "3,8,5,1,1"),
        pin("afcd230b295aa1d5f32f9a32587b1f62", 14,
            "rim", "--composition", "1,3,2,1", "--plain-x"),
    ])
    def test_stdout_md5(self, capsys, digest, argv):
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        assert hashlib.md5(out.encode()).hexdigest() == digest


class TestExitCodes:
    def test_invalid_composition(self, capsys):
        code, _, err = run(capsys, "rim", "--composition", "0,2")
        assert code == 1
        assert "positive" in err

    @pytest.mark.parametrize("argv, parts", [
        (("rim", "--composition", "0,3,2,1,1"), "(0, 3, 2, 1, 1)"),
        (("oracle", "--composition", "2,0"), "(2, 0)"),
    ])
    def test_non_positive_part_refused_by_the_library(self, capsys, argv, parts):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"invalid input: composition parts must be positive, got {parts}\n"

    def test_negative_part_attached_with_equals(self, capsys):
        # argparse reads a detached "-1,2" as an option, not as a value
        code, out, err = run(capsys, "rim", "--composition=-1,2")
        assert (code, out) == (1, "")
        assert "composition parts must be positive, got (-1, 2)" in err

    def test_closed_pipe_exits_1_quietly(self):
        # 585 KB of ascii: the writer is still writing when the reader leaves
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        proc = subprocess.Popen(
            [sys.executable, "-m", "cellrim.cli", "rim", "--composition", "5,12,8,1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline().startswith(b"lambda: (5, 12, 8, 1)")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(), err) == (1, b"")

    def test_malformed_composition(self, capsys):
        code, _, _ = run(capsys, "rim", "--composition", "a,b")
        assert code == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["bogus"]) == 1

    def test_missing_required_flag(self, capsys):
        assert main(["rim"]) == 1

    def test_guard_exceeded(self, capsys):
        # rim streams its output, but only after the guard has passed
        code, out, err = run(capsys, "rim", "--composition", "2,2,2,2,2")
        assert (code, out) == (2, "")
        assert "guard" in err.lower() or "bound" in err.lower()
        for way in ("limit argument", "--max-n"):
            assert way in err

    def test_guard_override_allows_run(self, capsys):
        # (9, 1) is past the default guard but has only ten coset reps
        code, out, _ = run(
            capsys, "oracle", "--composition", "9,1", "--max-n", "10",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["routes_agree"] is True

    def test_flags_only_where_read(self, capsys):
        for argv in (
            # diagram builds nothing under the guard; cell draws no diagram
            ("diagram", "young", "--partition", "2,1", "--max-n", "3"),
            ("cell", "--permutation", "2,1", "--plain-x"),
            # each verify suite reads only its own options, after its name
            ("verify", "tables", "--list"),
            ("verify", "bijections", "--trailing-ones", "2"),
            ("verify", "bijections", "--s", "4"),
            ("verify", "--max-n", "3", "bijections"),
        ):
            code, out, _ = run(capsys, *argv)
            assert (code, out) == (1, ""), argv

    @pytest.mark.parametrize(
        "argv",
        [
            ("rim", "--composition", "2,1,1,2", "--max-n", "0"),
            ("rim", "--composition", "3,2,1,1", "--max-n", "0"),
            ("cell", "--permutation", "2,1,3", "--max-n", "-1"),
            ("oracle", "--composition", "2,1", "--max-n", "0"),
            ("verify", "bijections", "--max-n", "0"),
        ],
    )
    def test_degree_bound_below_one_is_rejected(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        bound = argv[-1]
        assert f"invalid input: --max-n must be at least 1, got {bound}" in err

    def test_help_exits_zero(self, capsys):
        for argv in (
            (), ("rim",), ("cell",), ("diagram",), ("oracle",), ("verify",),
            ("verify", "tables"), ("verify", "bijections"),
        ):
            code, out, _ = run(capsys, *argv, "--help")
            assert code == 0, argv
            assert out.startswith("usage: cellrim"), argv

    def test_max_n_help_says_what_it_sets(self, capsys, monkeypatch):
        # bijections walks every degree up to --max-n; the other commands
        # refuse degrees past it
        monkeypatch.setenv("COLUMNS", "100")
        for argv, text in (
            (("verify", "bijections"), "largest degree walked (default 6)"),
            (("verify", "tables"), "override the enumeration guard"),
            (("rim",), "override the enumeration guard"),
            (("cell",), "override the enumeration guard"),
            (("oracle",), "override the enumeration guard"),
        ):
            code, out, _ = run(capsys, *argv, "--help")
            assert code == 0, argv
            assert f"--max-n MAX_N         {text}\n" in out, argv
        code, out, _ = run(capsys, "diagram", "--help")
        assert "--max-n" not in out
