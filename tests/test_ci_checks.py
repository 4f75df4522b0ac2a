"""The helpers behind CI's scaled checks, run at sizes that take well
under a second, against counts that do not come from the helper: the
table counts, the searched rim and the brute-force ideal.  The memory
bounds are not asserted, as under pytest RUSAGE_CHILDREN also counts
the child processes of other tests."""

from __future__ import annotations

import hashlib
import itertools
import re
from pathlib import Path

import pytest

import ci_checks
import oracles
from cellrim import StuShape, VerificationError, rim, table_counts

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


def hmn_table_counts(s, t, u):
    """(special, non-special) rim sizes summed over the H, M and N arrangements."""
    counts = [table_counts(StuShape(s, t, u, o)) for o in ((t, u, s), (u, s, t), (u, t, s))]
    return sum(c[0] for c in counts), sum(c[1] for c in counts)


def test_workflow_runs_each_check_once():
    runs = re.findall(
        r"run: PYTHONPATH=src timeout \d+ python tests/ci_checks\.py (\S+)$",
        WORKFLOW.read_text(),
        re.MULTILINE,
    )
    assert sorted(runs) == sorted(ci_checks.CHECKS)
    assert len(runs) == len(set(runs))


@pytest.mark.parametrize("head", [(4, 3, 2), (5, 3, 2)])
def test_form_paths_walk_every_member(head):
    special, other = hmn_table_counts(*head)
    members, digest = ci_checks.path_md5(ci_checks.hmn_members([head]))
    assert (members, len(digest)) == (special + other, 32)
    assert ci_checks.form_properties(head) == (special + other, special)
    for name in ("form_b_path_recuts_to_conjugate_type", "form_b_path_is_recut_columns"):
        assert ci_checks.form_b_claims(name, [head]) == [(other, special + other)]


def test_diagram_json_walks_every_family_member():
    members, _ = ci_checks.diagram_json_md5((4, 3, 2))
    orders = set(itertools.permutations((4, 3, 2))) - {(4, 3, 2)}
    assert members == sum(sum(table_counts(StuShape(4, 3, 2, o))) for o in orders)


def test_small_hosts_are_admissible_xyz1_diagrams():
    hosts = list(ci_checks.small_hosts(2))
    assert set(hosts) < set(ci_checks.small_hosts(3))
    assert all(len(D.row_composition()) == 4 and D.row_composition()[3] == 1 for D in hosts)
    assert ci_checks.path_md5(hosts)[0] == len(hosts) > 0


@pytest.mark.parametrize(
    "head, ones", [((1, 2, 3), 1), ((1, 3, 2), 2), ((2, 3, 3), 1), ((1, 3, 3), 1)]
)
def test_closed_rims_are_the_searched_rims(head, ones):
    lam = head + (1,) * ones
    sizes = ci_checks.closed_rims(head, ones)
    assert list(sizes.values()) == [
        (len(rim(parts)), table_counts(StuShape.from_composition(lam))[0])
        for parts in (lam, lam[::-1])
    ]
    assert list(sizes) == [f"{head} + (1,) * {ones}", f"(1,) * {ones} + {head[::-1]}"]
    assert list(ci_checks.closed_rims(head, ones, turned=False)) == [f"{head} + (1,) * {ones}"]


def test_closed_md5_counts_every_rim_diagram():
    diagrams, digest = ci_checks.closed_md5(3, (1, 2))
    heads = [(s, t, u) for s in range(1, 4) for t in range(1, s + 1) for u in range(1, t + 1)]
    assert diagrams == sum(
        2 * sum(table_counts(StuShape.from_composition(order + (1,) * k)))
        for head in heads
        for order in set(itertools.permutations(head))
        for k in (1, 2)
    )
    assert len(digest) == 32


@pytest.mark.parametrize(
    "options", ["--composition 3,2,1,1", "--composition 3,2,1,1 --format json"]
)
def test_rim_md5_hashes_the_child_output(options):
    out = ci_checks.cli_stdout(["rim", *options.split()])
    assert ci_checks.rim_md5(options) == hashlib.md5(out.encode()).hexdigest()


def test_cli_fields_read_the_json():
    assert ci_checks.cli_fields("oracle --composition 2,1,1", "ideal_size") == {
        "ideal_size": len(oracles.z_ideal_by_enumeration((2, 1, 1)))
    }
    with pytest.raises(VerificationError, match="exits 1"):
        ci_checks.cli_fields("oracle --composition 0", "ideal_size")


def test_main_compares_and_bounds(monkeypatch, capsys):
    def check():
        return ci_checks.closed_rims((3, 2, 1), 1, turned=False)

    want = {"(3, 2, 1) + (1,) * 1": (1, 1)}
    for name, row, code in [
        ("ok", (check, want, 1000), 0),
        ("wrong-value", (check, {}, None), 1),
        ("over-bound", (check, want, 0), 1),
    ]:
        monkeypatch.setitem(ci_checks.CHECKS, name, row)
        assert ci_checks.main([name]) == code
        assert capsys.readouterr().out.startswith(f"{name}: {check()} in ")
    assert ci_checks.main([]) == ci_checks.main(["no-such-check"]) == 1
