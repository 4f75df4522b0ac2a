"""End-to-end acceptance battery.

Each test covers one numbered acceptance check.  A test asserts exact
values first, then prints a single summary line (visible under
``pytest -s``) and asserts a wall-clock budget.  The budgets are
deliberately generous; they exist to catch runaway enumeration, not to
benchmark.
"""

from __future__ import annotations

import itertools
import time

from cellrim.diagrams import (
    is_special,
    min_column_diagram,
    psi_append,
    rotate_180,
    w_of_diagram,
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
from cellrim.paths import (
    FormClass,
    KPath,
    classify_form,
    family_with_lengths,
    is_admissible,
)
from cellrim.permutations import (
    Permutation,
    composition_generators,
    generator_blocks,
    identity,
    is_prefix,
    parabolic,
    positive_pairs,
    prefix_maximal,
    simple,
)
from cellrim.tableaux import compositions_of, conjugate, recording_tableau

from claims import (
    act_on_pairs,
    coset_decompose,
    coset_decompose_images,
    embedded,
    hat_diagram,
    in_young_subgroup,
    inversions,
    prefix_closure,
    same_block_pairs,
    straighten,
)

from fixtures import (
    ADMISSIBLE_NO_CONJUGATE_PATH,
    DIAGRAM_4631,
    FAMILY_F_853,
    FAMILY_G_583,
    FAMILY_H_538,
    FAMILY_M_385,
    FAMILY_M_385_TUPLE,
    FAMILY_N_358,
    FAMILY_N_358_TUPLE,
    PATH_A_4631,
    PATH_A_M_385,
    PATH_A_N_358,
    PATH_B_4631,
    PATH_B_M_385,
    PATH_B_N_358,
    STRAIGHTENED_A_4631,
)
from oracles import symmetric_group

# Expected (special, nonspecial) rim sizes for the six orderings of
# (3, 2, 1) with one trailing part equal to 1.
EXPECTED_COUNTS = {
    (3, 2, 1): (1, 0),
    (3, 1, 2): (2, 0),
    (2, 3, 1): (2, 0),
    (2, 1, 3): (3, 0),
    (1, 3, 2): (3, 2),
    (1, 2, 3): (3, 2),
}


def _finish(label: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"{label}: {elapsed:.1f}s exceeded {budget:.0f}s"
    print(f"{label}: PASS ({elapsed:.1f}s)")


def brute_rim_diagrams(lam: tuple[int, ...]) -> frozenset:
    """Rim diagrams straight from the ideal, bypassing the closed forms."""
    tops = prefix_maximal(z_ideal(lam))
    return frozenset(min_column_diagram(y, lam) for y in tops)


def test_criterion_01_rim_counts_match_tables():
    started = time.perf_counter()
    for head, expected in EXPECTED_COUNTS.items():
        lam = head + (1,)
        diagrams = brute_rim_diagrams(lam)
        special = sum(1 for D in diagrams if is_special(D))
        got = (special, len(diagrams) - special)
        assert got == expected, f"{lam}: counted {got}, expected {expected}"
        assert table_counts(StuShape.from_composition(lam)) == expected
    _finish("criterion 1 (rim counts, six orderings of (3,2,1))", started, 60.0)


def test_criterion_02_closed_families_match_brute_force():
    started = time.perf_counter()
    for head in EXPECTED_COUNTS:
        lam = head + (1,)
        closed, closed_special = rim_diagrams(lam)
        brute = brute_rim_diagrams(lam)
        assert closed == brute, f"{lam}: closed form disagrees with brute force"
        assert closed_special == frozenset(D for D in brute if is_special(D))
    _finish("criterion 2 (closed families vs brute force)", started, 120.0)


def test_criterion_03_trailing_ones_transport_in_s8():
    started = time.perf_counter()
    lam = (1, 3, 2, 1, 1)
    brute = brute_rim_diagrams(lam)
    closed, closed_special = rim_diagrams(lam)
    assert closed == brute
    base, base_special = rim_diagrams((1, 3, 2, 1))
    assert closed == frozenset(psi_append(D) for D in base)
    assert closed_special == frozenset(psi_append(D) for D in base_special)
    counts = (len(closed_special), len(closed) - len(closed_special))
    assert counts == EXPECTED_COUNTS[(1, 3, 2)] == (3, 2)
    _finish("criterion 3 (extra trailing part in S_8)", started, 600.0)


def test_criterion_04_cell_membership_matches_admissibility():
    started = time.perf_counter()
    for n in (4, 5, 6):
        for lam in compositions_of(n):
            data = parabolic(composition_generators(lam), n)
            target = recording_tableau(data.longest)
            for e in data.reps:
                by_cell = recording_tableau(data.longest * e) == target
                by_diagram = is_admissible(min_column_diagram(e, lam))
                assert by_cell == by_diagram, (lam, e.images)
    _finish("criterion 4 (cell route vs admissibility route)", started, 60.0)


def oracle_inversions(x: Permutation) -> frozenset[tuple[int, int]]:
    """Inversion pairs read off the window, no bitmask involved."""
    images = x.images
    return frozenset(
        (i, j)
        for i in range(1, x.degree)
        for j in range(i + 1, x.degree + 1)
        if images[i - 1] > images[j - 1]
    )


def test_criterion_05_prefix_equals_inversion_containment():
    started = time.perf_counter()
    for n in range(1, 7):
        group = list(symmetric_group(n))
        pairs = {x: oracle_inversions(x) for x in group}
        inverses = {x: x.inverse() for x in group}
        for y in group:
            own = pairs[y]
            length = len(own)
            inverse = inverses[y]
            for x in group:
                claim = is_prefix(y, x)
                containment = own <= pairs[x]
                additive = length + (inverse * x).length == x.length
                assert claim == containment == additive, (y.images, x.images)
    _finish("criterion 5 (prefix order is inversion containment)", started, 60.0)


def test_criterion_06_parabolic_inversion_identities():
    started = time.perf_counter()
    for n in range(1, 8):
        everyone = list(symmetric_group(n))
        # keyed by images, so decomposing builds no Permutation
        pairs = {x.images: inversions(x) for x in everyone}
        inverses = {x.images: x.inverse() for x in everyone}
        full = frozenset(positive_pairs(n))
        for r in range(n):
            for combo in itertools.combinations(range(1, n), r):
                gens = frozenset(combo)
                data = parabolic(gens, n)
                rep_inversions = inversions(data.longest_rep)
                assert rep_inversions == full - same_block_pairs(gens, n)
                for v in everyone:
                    if in_young_subgroup(v, gens):
                        assert act_on_pairs(rep_inversions, v) == rep_inversions
                blocks = generator_blocks(gens, n)
                for x in everyone:
                    u, d = coset_decompose_images(x.images, blocks)
                    upper = pairs[u]
                    moved = act_on_pairs(pairs[d], inverses[u])
                    assert upper.isdisjoint(moved)
                    assert upper | moved == pairs[x.images]
    _finish("criterion 6 (coset representative inversion sets)", started, 300.0)


def test_criterion_07_induced_rims_in_one_higher_degree():
    started = time.perf_counter()
    for n in range(1, 6):
        hat = parabolic(frozenset(range(1, n)), n + 1)
        longest_rep = hat.longest_rep
        for lam in compositions_of(n):
            lifted = set()
            for y in rim(lam):
                lift = w_of_diagram(hat_diagram(min_column_diagram(y, lam)))
                assert lift == embedded(y, n + 1) * longest_rep
                lifted.add(lift)
            direct = {
                embedded(z, n + 1) * x for z in z_ideal(lam) for x in hat.reps
            }
            assert prefix_closure(lifted) == direct, lam
    _finish("criterion 7 (rim induction one degree up)", started, 300.0)


def test_criterion_08_printed_fixtures_bit_exact():
    started = time.perf_counter()
    # Running example: the printed 6-paths classify as forms A and B.
    path_a = KPath(DIAGRAM_4631, PATH_A_4631)
    path_b = KPath(DIAGRAM_4631, PATH_B_4631)
    assert path_a.support == DIAGRAM_4631.nodes == path_b.support
    assert classify_form(path_a) is FormClass.A
    assert classify_form(path_b) is FormClass.B
    assert straighten(path_a) == STRAIGHTENED_A_4631

    # Printed family arrays, reproduced node for node.
    built_f = family_diagram(
        FamilyParams("F", columns={2, 3, 4}), StuShape(8, 5, 3, order=(8, 3, 5))
    )
    assert built_f == FAMILY_F_853
    built_g = family_diagram(
        FamilyParams("G", columns={2, 4, 5}), StuShape(8, 5, 3, order=(5, 8, 3))
    )
    assert built_g == FAMILY_G_583
    built_h = family_diagram(
        FamilyParams("H", columns={6, 8}, v=3), StuShape(8, 5, 3, order=(5, 3, 8))
    )
    assert built_h == FAMILY_H_538
    shape_m = StuShape(8, 5, 3, order=(3, 8, 5))
    built_m = family_diagram(
        FamilyParams("M", columns={7, 8}, counts=(1, 3, 1, 0, 3)), shape_m
    )
    assert built_m == FAMILY_M_385
    shape_n = StuShape(8, 5, 3, order=(3, 5, 8))
    built_n = family_diagram(FamilyParams("N", counts=(3, 0, 1, 1, 1)), shape_n)
    assert built_n == FAMILY_N_358
    assert determining_tuple(built_m) == FAMILY_M_385_TUPLE
    assert determining_tuple(built_n) == FAMILY_N_358_TUPLE

    # Printed 8-paths on the M and N examples.  The first of each pair
    # carries the conjugate-partition type (it is not ordered); the
    # second is an ordered form-B family.
    conj = conjugate((8, 5, 3, 1))
    assert conj == (4, 3, 3, 2, 2, 1, 1, 1)
    for host, raw in ((FAMILY_M_385, PATH_A_M_385), (FAMILY_N_358, PATH_A_N_358)):
        pi = KPath(host, raw)
        assert pi.support == host.nodes
        assert pi.path_type() == conj
    for host, raw in ((FAMILY_M_385, PATH_B_M_385), (FAMILY_N_358, PATH_B_N_358)):
        pi = KPath(host, raw)
        assert pi.support == host.nodes
        assert pi.path_type() == (3, 3, 3, 3, 2, 1, 1, 1)
        assert classify_form(pi) is FormClass.B
    _finish("criterion 8 (printed example arrays)", started, 60.0)


def test_criterion_09_counterexamples_hold():
    started = time.perf_counter()
    # Componentwise coset prefixes do not imply a prefix in S_3.
    s1, s2 = simple(1, 3), simple(2, 3)
    x = s1 * s2
    smaller = s2
    gens = frozenset({1})
    u, d = coset_decompose(x, gens)
    u2, d2 = coset_decompose(smaller, gens)
    assert (u, d) == (s1, s2)
    assert (u2, d2) == (identity(3), s2)
    assert is_prefix(u2, u) and is_prefix(d2, d)
    assert not is_prefix(smaller, x)

    # Admissibility does not grant a disjoint-chain family of the
    # conjugate type itself.
    D = ADMISSIBLE_NO_CONJUGATE_PATH
    assert D.row_composition() == (2, 1, 1, 2)
    assert is_admissible(D)
    assert conjugate((2, 2, 1, 1)) == (4, 2)
    assert family_with_lengths(D, (4, 2)) is None
    assert family_with_lengths(D, (3, 3)) is not None
    _finish("criterion 9 (counterexamples)", started, 60.0)


def test_criterion_10_rotation_transport():
    started = time.perf_counter()
    for n in range(1, 7):
        for lam in compositions_of(n):
            all_diagrams, special = rim_diagrams(lam)
            rev_all, rev_special = rim_diagrams(lam[::-1])
            assert rev_all == frozenset(rotate_180(D) for D in all_diagrams)
            assert rev_special == frozenset(rotate_180(D) for D in special)
    _finish("criterion 10 (reversal is rotation)", started, 300.0)


def test_criterion_11_large_shape_formula_spot_check():
    started = time.perf_counter()
    shape = StuShape(8, 5, 3, order=(3, 8, 5))
    assert table_counts(shape) == (40, 50)
    params = family_parameter_sets(shape)
    assert len(params) == 90
    diagrams = [family_diagram(p, shape) for p in params]
    assert len(set(diagrams)) == 90
    assert sum(1 for D in diagrams if is_special(D)) == 40
    words = [w_of_diagram(D) for D in diagrams]
    for one, other in itertools.combinations(words, 2):
        assert not is_prefix(one, other) and not is_prefix(other, one)
    _finish("criterion 11 (degree-17 family, no enumeration)", started, 60.0)
