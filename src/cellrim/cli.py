"""Command-line interface for rims, cells, diagrams and verification.

Subcommands: rim (rim of a composition), cell (right cell of a
permutation), diagram (build and annotate diagrams), verify (batch
verification suites), oracle (two-route ideal membership probe).

Exit codes: 0 success, 1 invalid usage or input, or a reader that closed
stdout, 2 enumeration guard exceeded, 3 failed mathematical assertion.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from collections.abc import Callable, Iterator, Sequence
from functools import cache

from .diagrams import (
    Diagram,
    is_admissible,
    is_special,
    psi_append,
    reduced_word_runs,
    rotate_180,
    young_diagram,
)
from .families import (
    FamilyParams,
    StuShape,
    _check_closed_rim,
    _ideal_members,
    _searched_rim,
    _shape_or_none,
    determining_tuple,
    family_diagram,
    rim_diagrams,
)
from .paths import (
    FormClass,
    KPath,
    classify_form,
    family_with_lengths,
    find_form_path,
)
from .permutations import (
    GuardExceeded,
    Permutation,
    VerificationError,
)
from .tableaux import compositions_of, conjugate, count_standard_tableaux, right_cell_of


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with code 1, not 2."""

    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"{what} must be comma-separated integers, got {text!r}")


def _parse_nodes(text: str) -> Diagram:
    nodes = set()
    for item in text.split(";"):
        pair = _parse_ints(item, "node")
        if len(pair) != 2 or min(pair) < 1:
            raise ValueError(f"each node needs two positive coordinates, got {item!r}")
        nodes.add(pair)
    return Diagram(nodes)


def _parse_order(text: str, s: int, t: int, u: int) -> tuple[int, int, int]:
    letters = {"s": s, "t": t, "u": u}
    items = text.split(",")
    if len(items) != 3:
        raise ValueError(f"order needs three entries, got {text!r}")
    if all(item.strip() in letters for item in items):
        return tuple(letters[item.strip()] for item in items)
    return _parse_ints(text, "order")


def _word_text(letter: str, sep: str) -> Callable[[list[tuple[int, int]]], str]:
    """Spell out reduced words given as runs: run (j, k) is the letters
    j, j - 1, ..., k + 1, and its text is made once, as words share runs."""
    run_text = cache(lambda run: sep.join(map(letter.format, range(*run, -1))))
    return lambda runs: sep.join(map(run_text, runs))


def cmd_rim(args: argparse.Namespace) -> Iterator[str]:
    # every check runs here, before the first piece is written
    lam = _parse_ints(args.composition, "composition")
    E, E_s = rim_diagrams(lam, limit=args.max_n)
    ordered = sorted(E, key=Diagram.rows)
    if args.format == "json":
        return _rim_json(lam, ordered, len(E_s))
    return _rim_lines(lam, ordered, E_s, args.glyphs)


def _rim_json(lam: tuple[int, ...], ordered: list[Diagram], special: int) -> Iterator[str]:
    """The pieces of ``json.dumps`` of the rim payload with sorted keys,
    one diagram at a time."""
    yield '{"diagrams": ['
    for k, D in enumerate(ordered):
        yield f'{", " if k else ""}{{"nodes": {json.dumps(D.sorted_nodes)}}}'
    yield f'], "lambda": {json.dumps(lam)}, "reduced_words": ['
    word_text = _word_text("{}", ", ")
    for k, D in enumerate(ordered):
        yield f'{", " if k else ""}[{word_text(reduced_word_runs(D))}]'
    yield f'], "rim_size": {len(ordered)}, "special": {special}}}'


def _rim_lines(
    lam: tuple[int, ...], ordered: list[Diagram], E_s: frozenset[Diagram],
    glyphs: tuple[str, str],
) -> Iterator[str]:
    yield f"lambda: {lam}  rim size: {len(ordered)}  special: {len(E_s)}"
    word_text = _word_text("s{}", " ")
    for k, D in enumerate(ordered, start=1):
        tag = "special" if D in E_s else "non-special"
        yield ""
        yield f"[{k}] {tag}  word: {word_text(reduced_word_runs(D)) or '(identity)'}"
        yield D.render(*glyphs)


def cmd_cell(args: argparse.Namespace) -> dict | list[str]:
    images = _parse_ints(args.permutation, "permutation")
    cell = right_cell_of(Permutation(images), limit=args.max_n)
    members = sorted(x.images for x in cell)
    if args.format == "json":
        return {
            "permutation": images,
            "degree": len(images),
            "cell_size": len(members),
            "members": members,
        }
    return [f"permutation: {images}  cell size: {len(members)}", *map(str, members)]


def _build_family(args: argparse.Namespace) -> Diagram:
    stu = _parse_ints(args.stu, "stu")
    if len(stu) != 3:
        raise ValueError(f"--stu needs three parts s,t,u, got {args.stu!r}")
    s, t, u = sorted(stu, reverse=True)
    order = _parse_order(args.order, s, t, u)
    shape = StuShape(s, t, u, order)
    columns = _parse_ints(args.C, "C") if args.C is not None else ()
    counts = _parse_ints(args.params, "params") if args.params is not None else ()
    params = FamilyParams(args.kind, columns=columns, v=args.v, counts=counts)
    return family_diagram(params, shape)


def _column_path(D: Diagram) -> tuple[KPath, FormClass]:
    """The form path of a special family member: its columns, left to
    right, each listed top to bottom.

    A special diagram's column lengths are the conjugate of its rows, the
    form-A profile (s-t, t-u, u-1, 1), and columns listed left to right
    are ordered.  That the search returns this same family on the members
    is a lemma of ``tests/claims.py``, checked, not proved.  A full family
    of the conjugate type reaches every bound on the subsequence type, so
    the member must be admissible.
    """
    try:
        pi = KPath(D, tuple(
            tuple((a, b) for a in column) for b, column in enumerate(D.columns(), 1)
        ))
        form = classify_form(pi)
    except ValueError as exc:
        raise VerificationError(f"the columns of a special member: {exc}")
    if form is not FormClass.A:
        raise VerificationError(f"the columns of a special member have form {form.value}")
    if not is_admissible(D):
        raise VerificationError("a special member is not admissible")
    return pi, form


def _annotations(D: Diagram, member: bool = False) -> dict:
    """The annotations of ``cellrim diagram``; member says D was built as a
    closed-family member, whose form path, when it is special, is its
    columns."""
    rows = D.row_composition()
    profile = conjugate(rows)
    out = {
        "row_composition": rows,
        "admissible": False,
        "special": is_special(D),
        "conjugate_type": profile,
        "conjugate_type_path": False,
        "determining_tuple": None,
        "form": None,
        "path": None,
    }
    if len(rows) == 4 and rows[3] == 1:
        try:
            out["determining_tuple"] = determining_tuple(D)
        except ValueError:
            pass
        found = None
        if member and out["special"]:
            found = _column_path(D)
        else:
            try:
                found = find_form_path(D)
            except ValueError:  # refused: the diagram is not admissible
                pass
        if found is not None:
            pi, form = found
            out["admissible"] = True
            out["form"] = form.value
            out["path"] = pi.constituents
            # the form-A profile is the conjugate type
            out["conjugate_type_path"] = form is FormClass.A
    else:
        out["admissible"] = is_admissible(D)
    # A k-path meets each row at most once, so a family of the conjugate
    # type reaches every bound on the subsequence type: only admissible
    # diagrams have one.
    if out["admissible"] and not out["conjugate_type_path"]:
        out["conjugate_type_path"] = family_with_lengths(D, profile) is not None
    return out


# what each diagram kind needs and may also read; FamilyParams checks a variant's fields
_DIAGRAM_OPTIONS = {
    "young": (("partition",), ()),
    "check": (("nodes",), ()),
    **dict.fromkeys("FGHMN", (("stu", "order"), ("C", "v", "params"))),
}


def cmd_diagram(args: argparse.Namespace) -> dict | list[str]:
    needs, reads = _DIAGRAM_OPTIONS[args.kind]
    # an option the kind does not read is named before a missing one
    for name in sorted(("partition", "nodes", "stu", "order", "C", "v", "params"),
                       key=needs.__contains__):
        given = getattr(args, name) is not None
        if given and name not in needs + reads:
            raise ValueError(f"diagram {args.kind} does not read --{name}")
        if not given and name in needs:
            raise ValueError(f"diagram {args.kind} needs --{name}")
    if args.kind == "young":
        D = young_diagram(_parse_ints(args.partition, "composition"))
    elif args.kind == "check":
        D = _parse_nodes(args.nodes)
    else:
        D = _build_family(args)
    notes = _annotations(D, member=args.kind not in ("young", "check"))
    if args.format == "json":
        return dict(nodes=D.sorted_nodes, **notes)
    has = "yes" if notes["conjugate_type_path"] else "no"
    lines = [
        D.render(*args.glyphs),
        "",
        f"row composition: {notes['row_composition']}",
        f"admissible: {'yes' if notes['admissible'] else 'no'}",
        f"special: {'yes' if notes['special'] else 'no'}",
        f"family of type {notes['conjugate_type']}: {has}",
    ]
    if notes["determining_tuple"] is not None:
        lines.append("determining tuple: " + " ".join(notes["determining_tuple"]))
    if notes["form"] is not None:
        lines.append(f"form: {notes['form']}")
    return lines


def cmd_oracle(args: argparse.Namespace) -> dict | list[str]:
    lam = _parse_ints(args.composition, "composition")
    # one walk: it checks its member count against f^mu and flags the rim
    ideal_size, rim_size, members = 0, 0, []
    for e, top in _ideal_members(lam, args.max_n):
        ideal_size += 1
        rim_size += top
        if args.list:
            members.append(e)
    members.sort()
    if args.format == "json":
        payload = {
            "lambda": lam,
            "ideal_size": ideal_size,
            "rim_size": rim_size,
            "routes_agree": True,
        }
        if args.list:
            payload["members"] = members
        return payload
    return [
        f"lambda: {lam}",
        f"ideal size: {ideal_size} (cell route and diagram route agree)",
        f"rim size: {rim_size}",
        *map(str, members),
    ]


def _verify_tables(args: argparse.Namespace) -> dict | list[str]:
    head = StuShape.from_composition(_parse_ints(args.composition, "composition"))
    results, lines = [], []
    for order in sorted(set(itertools.permutations(head.order))):
        shape = StuShape(head.s, head.t, head.u, order, head.trailing_ones)
        lam = shape.composition
        special, other = _check_closed_rim(lam, shape, _searched_rim(lam, args.max_n))
        # the walk behind the search checked its member count against f^mu
        ideal = count_standard_tableaux(conjugate(lam))
        results.append(
            {
                "lambda": lam,
                "rim_size": special + other,
                "special": special,
                "ideal_size": ideal,
                "pass": True,
            }
        )
        lines.append(
            f"ordering {order}: rim {special + other} special {special} ideal {ideal} PASS"
        )
    if args.format == "json":
        return {"suite": "tables", "results": results, "ok": True}
    return lines + [f"tables suite: {len(results)} orderings PASS"]


def _verify_bijections(args: argparse.Namespace) -> dict | list[str]:
    # each search walks the ideal, both routes on every member and cover it tests
    searched = {
        lam: _searched_rim(lam, args.max_n)
        for n in range(1, args.max_n + 1)
        for lam in compositions_of(n)
    }
    rotations = appends = 0
    for lam, found in searched.items():
        # rim_diagrams searches every rim that is neither closed nor rotated
        closed = _shape_or_none(lam) or _shape_or_none(lam[::-1])
        if closed:
            _check_closed_rim(lam, closed, found)
        if searched[lam[::-1]] != tuple(frozenset(map(rotate_180, X)) for X in found):
            raise VerificationError(f"rotation transport fails for {lam}")
        rotations += 1
        if sum(lam) == args.max_n or lam[-1] != 1:
            continue
        if searched[lam + (1,)] != tuple(frozenset(map(psi_append, X)) for X in found):
            raise VerificationError(f"row-append transport fails for {lam}")
        appends += 1
    if args.format == "json":
        return {
            "suite": "bijections",
            "rotation_checked": rotations,
            "append_checked": appends,
            "ok": True,
        }
    return [
        f"rotation transport: {rotations} compositions PASS",
        f"row-append transport: {appends} compositions PASS",
    ]


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cellrim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(
        p: argparse.ArgumentParser, func, *, glyphs=False,
        guard: str | None = "override the enumeration guard",
    ) -> None:
        """The options every command reads after its own, and its handler;
        guard is the help of --max-n, None where no --max-n is read."""
        p.set_defaults(func=func)
        p.add_argument(
            "--format", choices=("json", "ascii"), default="ascii",
            help="output format",
        )
        if glyphs:
            p.add_argument(
                "--plain-x", dest="glyphs", action="store_const",
                const=("x", "."), default=("×", "·"),
                help="render diagrams with x/. instead of the default glyphs",
            )
        if guard:
            p.add_argument(
                "--max-n", type=int, default=None,
                help=guard,
            )

    p_rim = sub.add_parser("rim", help="rim of a composition")
    p_rim.add_argument("--composition", required=True)
    common(p_rim, cmd_rim, glyphs=True)

    p_cell = sub.add_parser("cell", help="right cell of a permutation")
    p_cell.add_argument("--permutation", required=True, help="one-line images")
    common(p_cell, cmd_cell)

    p_diag = sub.add_parser("diagram", help="build and annotate a diagram")
    p_diag.add_argument(
        "kind", choices=("young", "F", "G", "H", "M", "N", "check")
    )
    p_diag.add_argument("--partition", help="parts for young")
    p_diag.add_argument("--nodes", help="semicolon-separated a,b pairs for check")
    p_diag.add_argument("--stu", help="s,t,u for family kinds")
    p_diag.add_argument("--order", help="arrangement, e.g. u,s,t or 3,8,5")
    p_diag.add_argument("--C", help="column set, e.g. 7,8")
    p_diag.add_argument("--v", type=int, help="fourth-row column for H")
    p_diag.add_argument("--params", help="block sizes for M or N")
    common(p_diag, cmd_diagram, glyphs=True, guard=None)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    suites = p_verify.add_subparsers(dest="suite", required=True)
    p_tables = suites.add_parser(
        "tables", help="closed families against the inverse-RS rim"
    )
    p_tables.add_argument("--composition", default="3,2,1,1",
                          help="s,t,u then ones; every arrangement of s,t,u is checked")
    common(p_tables, _verify_tables)

    p_bij = suites.add_parser(
        "bijections", help="both membership routes, rotation and row-append transport"
    )
    common(p_bij, _verify_bijections, guard="largest degree walked (default %(default)s)")
    p_bij.set_defaults(max_n=6)

    p_oracle = sub.add_parser("oracle", help="two-route ideal membership probe")
    p_oracle.add_argument("--composition", required=True)
    p_oracle.add_argument("--list", action="store_true", help="list members")
    common(p_oracle, cmd_oracle)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if getattr(args, "max_n", None) is not None and args.max_n < 1:
            raise ValueError(f"--max-n must be at least 1, got {args.max_n}")
        out = args.func(args)
    except GuardExceeded as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 1
    if isinstance(out, dict):  # a JSON payload, written whole
        out = [json.dumps(out, sort_keys=True)]
    # cmd_rim streams its JSON in pieces; JSON ends with one newline
    out = itertools.chain(out, ["\n"]) if args.format == "json" else (f"{line}\n" for line in out)
    try:
        sys.stdout.writelines(out)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout: stay quiet at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
