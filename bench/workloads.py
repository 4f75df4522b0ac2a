"""Workload definitions for the cellrim benchmark: pools, seeded draws,
size guards, the timed operations and the summaries their outputs are
checked by.

Only ``draw``, ``check_safe`` and the pool data are needed to pick the
inputs; they use the standard library alone.  ``make_op`` and
``warm_up`` call into cellrim, which the caller imports first.

An op is identified by a string that spells its whole input:

- ideal:     a composition, ``"1,4,3,1"``;
- transport: a composition, ``"3,8,5,1,1"`` (closed form, trailing ones);
- closed:    a composition, ``"5,15,10,1"`` (closed form, four rows);
- annotate:  the ``cellrim`` command line, words joined by spaces.

The ideal workload's pass is built from fixed *slots*.  A slot names a
cost class; the seed picks the concrete composition inside it.  Inputs
that share a slot do the same amount of work to within a few per cent, so
figures from different seeds stay comparable while the inputs differ.
The other workloads run a fixed pool of ops in an order the seed sets.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random

WORKLOADS = ("ideal", "transport", "annotate", "closed")

# --------------------------------------------------------------------------
# Pools.

def parse_parts(op_id: str) -> tuple[int, ...]:
    return tuple(int(p) for p in op_id.split(","))


def spell(parts) -> str:
    return ",".join(str(p) for p in parts)


def arrangements(*parts: int) -> tuple[str, ...]:
    """Every ordering of the parts, as op ids."""
    return tuple(sorted({spell(p) for p in itertools.permutations(parts)}))


# ideal: each slot holds arrangements of one part multiset and is picked
# the given number of times per pass.  The number of coset
# representatives, and |Z|, depend only on the multiset, so the pick
# changes which members and which rim come out but not the amount of
# enumeration.  The time still depends on the arrangement (by up to 30 %
# for (4,2,1,1)), so the heavier slots keep only arrangements within a few
# per cent of each other.  The slots form cost tiers, at reference speed:
# under 20 ms; 35 to 55 ms; 70 to 90 ms; 120 to 160 ms; 250 to 350 ms;
# 0.4 s.  The pick counts put the median op inside the third tier and p75
# inside the fourth, away from the edges between tiers.  Few-part and
# many-part multisets are mixed: the member share |Z|/reps runs from 1.8 %
# for (3,1,1,1,1) to 67 % for (5,2).  Shares under 1 % need 1,260 or more
# coset representatives, about 0.5 to 1 s per op, which would leave too
# few passes in a run for steady figures.
IDEAL_SLOTS: tuple[tuple[int, tuple[str, ...]], ...] = (
    (1, arrangements(5, 2)),
    (1, arrangements(6, 2)),
    (1, arrangements(5, 1, 1)),
    (2, arrangements(4, 2, 1)),
    (1, arrangements(7, 1, 1)),
    (1, arrangements(3, 3, 1)),
    (4, arrangements(4, 1, 1, 1)),
    (4, arrangements(5, 2, 1)),
    (2, ("1,3,4", "3,1,4", "4,1,3", "4,3,1")),
    (1, arrangements(6, 2, 1)),
    (2, ("1,1,2,3", "1,2,1,3", "1,2,3,1", "2,3,1,1", "3,1,1,2", "3,2,1,1")),
    (1, ("1,1,1,1,3", "1,1,1,3,1", "1,1,3,1,1")),
    (1, ("3,5,1", "5,1,3", "5,3,1")),
    (1, ("1,1,2,4", "1,4,1,2", "2,1,1,4", "2,1,4,1", "4,1,1,2")),
)

# transport: fixed (s, t, u, k) families, each run on its five non-sorted
# arrangements of s > t > u followed by k ones and on the reversal of each.
# The seed only sets the order: the time of one family's ops varies by a
# factor of ten between arrangements, so swapping families between seeds
# moved the per-op percentiles by a third.
TRANSPORT_FAMILIES: tuple[tuple[int, int, int, int], ...] = (
    (4, 2, 1, 2),
    (4, 3, 2, 3),
    (5, 4, 1, 2),
    (5, 3, 2, 3),
    (4, 3, 1, 4),
    (7, 3, 1, 2),
)

# closed: fixed (s, t, u) triples at degree s+t+u+1 from 26 to 39, each
# run on all six arrangements followed by one 1.  Family sizes range from
# 1 to about 2,000 diagrams per arrangement.  The seed only sets the
# order: the per-arrangement sizes of two triples never match closely, so
# drawing triples moved the median op by ten per cent between seeds.
CLOSED_TRIPLES: tuple[tuple[int, int, int], ...] = (
    (17, 8, 2), (18, 6, 2), (15, 9, 3), (23, 6, 2), (23, 5, 2),
    (21, 7, 2), (24, 9, 2), (29, 5, 2), (15, 6, 4), (29, 7, 2),
)

# annotate: every member of the H, M and N families at this size, run
# through ``cellrim diagram ... --format json``.  The member list is
# recorded in expected.json ("annotate_pool"); the seed only sets the order.
ANNOTATE_STU = (7, 5, 3)

# The fewest whole passes a run makes, whatever --seconds says.  The tail
# percentile reported as op_tail_ms is the highest of TAIL_LADDER with at
# least ten samples beyond it after that many passes.  It is fixed per
# workload, so a faster program, which fits more passes into the same
# seconds, still reports the same statistic.
MIN_PASSES = {"ideal": 2, "transport": 4, "annotate": 3, "closed": 2}
TAIL_LADDER = (50, 75, 90, 95, 99)


# --------------------------------------------------------------------------
# Measured-safe sizes.  Inputs beyond these are refused, not run.
#
# - Exhaustive z_ideal at degree 10 takes about 37 s per composition.
# - Trailing-one transport at 26 nodes, (3,8,5)+(1,)*10, takes about 20 s.
# - find_form_path at (10,7,4) takes about 32 s per member.
# - The closed families at (6,20,12,1) build 48,048 diagrams in 12 s at
#   281 MB; (8,30,20,1) exhausted 7 GB.
MAX_IDEAL_DEGREE = 9
MAX_IDEAL_REPS = 5040
MAX_TRANSPORT_NODES = 16
MAX_ANNOTATE_S = 8
MAX_CLOSED_DEGREE = 40
MAX_CLOSED_DIAGRAMS = 10_000


def coset_reps(parts: tuple[int, ...]) -> int:
    """Number of distinguished coset representatives: a multinomial."""
    return math.factorial(sum(parts)) // math.prod(math.factorial(p) for p in parts)


def transport_family(s: int, t: int, u: int, k: int) -> list[str]:
    ops = []
    for order in sorted(set(itertools.permutations((s, t, u)))):
        if order == (s, t, u):
            continue
        parts = order + (1,) * k
        ops.append(spell(parts))
        ops.append(spell(reversed(parts)))
    return ops


def closed_family(s: int, t: int, u: int) -> list[str]:
    return [spell(order + (1,)) for order in sorted(set(itertools.permutations((s, t, u))))]


def pool(workload: str, expected: dict) -> list[str]:
    """Every op a draw of the workload can contain."""
    if workload == "ideal":
        return [op for _, slot in IDEAL_SLOTS for op in slot]
    if workload == "transport":
        return [op for family in TRANSPORT_FAMILIES for op in transport_family(*family)]
    if workload == "closed":
        return [op for triple in CLOSED_TRIPLES for op in closed_family(*triple)]
    if workload == "annotate":
        return list(expected["annotate_pool"])
    raise ValueError(f"unknown workload {workload!r}")


def draw(workload: str, seed: int, expected: dict) -> list[str]:
    """The seeded op list of one pass, shuffled: picks from each slot for
    ideal, the whole fixed pool for the other workloads."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "ideal":
        ops = [rng.choice(slot) for picks, slot in IDEAL_SLOTS for _ in range(picks)]
    else:
        ops = pool(workload, expected)
    rng.shuffle(ops)
    return ops


def tail_percentile(workload: str, ops_per_pass: int) -> int:
    samples = ops_per_pass * MIN_PASSES[workload]
    return max(p for p in TAIL_LADDER if samples * (100 - p) / 100 >= 10)


def check_safe(workload: str, op_id: str, expected_entry: dict) -> None:
    """Raise ValueError for an input outside the measured-safe sizes."""
    if workload == "ideal":
        parts = parse_parts(op_id)
        if sum(parts) > MAX_IDEAL_DEGREE or coset_reps(parts) > MAX_IDEAL_REPS:
            raise ValueError(f"ideal input {op_id} exceeds degree {MAX_IDEAL_DEGREE} "
                             f"or {MAX_IDEAL_REPS} coset representatives")
    elif workload == "transport":
        if sum(parse_parts(op_id)) > MAX_TRANSPORT_NODES:
            raise ValueError(f"transport input {op_id} exceeds {MAX_TRANSPORT_NODES} nodes")
    elif workload == "closed":
        parts = parse_parts(op_id)
        if sum(parts) > MAX_CLOSED_DEGREE or expected_entry["rim"] > MAX_CLOSED_DIAGRAMS:
            raise ValueError(f"closed input {op_id} exceeds degree {MAX_CLOSED_DEGREE} "
                             f"or {MAX_CLOSED_DIAGRAMS} diagrams")
    elif workload == "annotate":
        words = op_id.split(" ")
        stu = parse_parts(words[words.index("--stu") + 1])
        if max(stu) > MAX_ANNOTATE_S:
            raise ValueError(f"annotate input {op_id} exceeds s = {MAX_ANNOTATE_S}")
    else:
        raise ValueError(f"unknown workload {workload!r}")


# --------------------------------------------------------------------------
# Operations and summaries.  Everything below needs cellrim imported.

def digest(value) -> str:
    text = json.dumps(value, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def annotate_argv(params, shape) -> list[str]:
    """The ``cellrim diagram`` command line that builds one family member."""
    argv = [
        "diagram", params.variant,
        "--stu", spell((shape.s, shape.t, shape.u)),
        "--order", spell(shape.order),
        "--format", "json",
    ]
    if params.columns:
        argv += ["--C", spell(sorted(params.columns))]
    if params.v is not None:
        argv += ["--v", str(params.v)]
    if params.counts:
        argv += ["--params", spell(params.counts)]
    return argv


def annotate_pool(cellrim) -> list[str]:
    s, t, u = ANNOTATE_STU
    ops = []
    for order in ((t, u, s), (u, s, t), (u, t, s)):  # H, M, N
        shape = cellrim.StuShape(s, t, u, order)
        for params in cellrim.family_parameter_sets(shape):
            ops.append(" ".join(annotate_argv(params, shape)))
    return ops


def _diagram_digests(diagrams) -> list[str]:
    # One short hash per diagram, so summarising a large rim adds little to
    # the peak memory the run reports.
    return sorted(digest(D.sorted_nodes) for D in diagrams)


def _rim_summary(cellrim, parts, out) -> dict:
    diagrams, specials = out
    try:
        shape = cellrim.StuShape.from_composition(parts)
    except ValueError:
        shape = cellrim.StuShape.from_composition(tuple(reversed(parts)))
    return {
        "rim": len(diagrams),
        "special": len(specials),
        "digest": digest([_diagram_digests(diagrams), _diagram_digests(specials)]),
        # Independent closed-form count, recomputed on every run.
        "table": list(cellrim.table_counts(shape)),
    }


def make_op(cellrim, workload: str, op_id: str):
    """Return (call, summarise): call() runs the timed op, summarise(out)
    turns its output into the dict compared against the expectation."""
    if workload == "ideal":
        parts = parse_parts(op_id)

        def call():
            members = cellrim.families.z_ideal(parts, limit=MAX_IDEAL_DEGREE)
            return members, cellrim.permutations.prefix_maximal(members)

        def summarise(out):
            members, tops = out
            return {
                "ideal": len(members),
                "rim": len(tops),
                "member_share": round(len(members) / coset_reps(parts), 6),
                "digest": digest([sorted(e.images for e in members),
                                  sorted(y.images for y in tops)]),
            }
        return call, summarise

    if workload in ("transport", "closed"):
        parts = parse_parts(op_id)

        def call():
            return cellrim.families.rim_diagrams(parts)

        return call, lambda out: _rim_summary(cellrim, parts, out)

    if workload == "annotate":
        argv = op_id.split(" ")

        def call():
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = cellrim.cli.main(argv)
            return code, buffer.getvalue()

        def summarise(out):
            code, text = out
            payload = json.loads(text) if code == 0 else None
            return {
                "exit": code,
                "form": payload and payload["form"],
                "admissible": payload and payload["admissible"],
                "digest": digest(payload),
            }
        return call, summarise

    raise ValueError(f"unknown workload {workload!r}")


# Warm-up inputs lie outside every timed pool: degree 6 for ideal, a
# sorted head for transport, a smaller size for annotate and closed.
WARM_UP = {
    "ideal": "3,2,1",
    "transport": "2,1,1,1,1",
    "annotate": "diagram M --stu 4,3,2 --order 2,4,3 --format json --C 3 --params 1,0,0,0,2",
    "closed": "3,5,4,1",
}


def warm_up(cellrim, workload: str) -> None:
    call, summarise = make_op(cellrim, workload, WARM_UP[workload])
    summarise(call())


def compare(workload: str, got: dict, want: dict) -> str | None:
    """None when an op's summary matches its expectation, else the reason."""
    if "error" in got:
        return got["error"]
    for key, value in want.items():
        if got.get(key) != value:
            return f"{key}: got {got.get(key)!r}, expected {value!r}"
    if workload in ("transport", "closed"):
        special, other = got["table"]
        if (got["special"], got["rim"] - got["special"]) != (special, other):
            return f"rim counts differ from table_counts {got['table']}"
    return None
