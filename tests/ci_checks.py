"""The scaled checks CI runs, by name: ``PYTHONPATH=src python
tests/ci_checks.py NAME``.  Each helper returns what it measures, and
raises VerificationError when its own results disagree; ``main``
compares that with ``CHECKS``.  An import only some checks need is made
inside them, as one at module top raises the peak memory of every check.
"""

import itertools
import sys
import time
from resource import RUSAGE_CHILDREN, RUSAGE_SELF, getrusage

from cellrim import (
    Diagram, FormClass, StuShape, VerificationError, classify_form, conjugate, family_diagram,
    family_parameter_sets, family_with_lengths, find_form_path, is_admissible, is_ordered,
    is_special, rim_diagrams, table_counts,
)


def hmn_members(heads):
    """The diagram of each H, M and N member of each head (s, t, u)."""
    for s, t, u in heads:
        for order in ((t, u, s), (u, s, t), (u, t, s)):
            shape = StuShape(s, t, u, order)
            for params in family_parameter_sets(shape):
                yield family_diagram(params, shape)


def small_hosts(width):
    """Each admissible (x, y, z, 1) diagram of width at most ``width``."""
    rows = [c for k in range(1, width + 1) for c in itertools.combinations(range(1, width + 1), k)]
    for r1, r2, r3 in itertools.product(rows, repeat=3):
        for b in range(1, width + 1):
            columns = {*r1, *r2, *r3, b}
            if columns == set(range(1, max(columns) + 1)):
                D = Diagram.from_rows([r1, r2, r3, (b,)])
                if is_admissible(D):
                    yield D


def path_md5(diagrams):
    """The number of diagrams and the md5 of their form paths."""
    import hashlib
    digest, count = hashlib.md5(), 0
    for count, D in enumerate(diagrams, 1):
        pi, form = find_form_path(D)
        digest.update(f"{pi.constituents} {form.value}\n".encode())
    return count, digest.hexdigest()


def cli_stdout(argv):
    """What ``cellrim ARGV`` prints, run in this process."""
    import contextlib
    import io
    from cellrim import cli
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    if code != 0:
        raise VerificationError(f"cellrim {' '.join(argv)} exits {code}")
    return out.getvalue()


def cli_fields(command, *keys):
    """The named fields of the JSON that ``cellrim COMMAND`` prints."""
    import json
    payload = json.loads(cli_stdout([*command.split(), "--format", "json"]))
    return {key: payload[key] for key in keys}


def rim_md5(options):
    """The md5 of what a ``cellrim rim OPTIONS`` child prints, read as it streams."""
    import hashlib
    import subprocess
    digest, argv = hashlib.md5(), [sys.executable, "-m", "cellrim.cli", "rim", *options.split()]
    with subprocess.Popen(argv, stdout=subprocess.PIPE) as child:
        for chunk in iter(lambda: child.stdout.read(1 << 16), b""):
            digest.update(chunk)
    if child.returncode != 0:
        raise VerificationError(f"cellrim rim {options} exits {child.returncode}")
    return digest.hexdigest()


def closed_rims(head, ones, turned=True):
    """The (rim, E_s) sizes of head + (1,) * ones and, if turned, of its
    reversal, once equal to ``table_counts``, E_s the ``is_special`` filter."""
    lam = head + (1,) * ones
    counts = table_counts(StuShape.from_composition(lam))
    written = {f"{head} + (1,) * {ones}": lam}
    if turned:
        written[f"(1,) * {ones} + {head[::-1]}"] = lam[::-1]
    sizes = {}
    for name, parts in written.items():
        E, E_s = rim_diagrams(parts)
        if (len(E_s), len(E) - len(E_s)) != counts or E_s != {D for D in E if is_special(D)}:
            raise VerificationError(f"{name}: rim {len(E)}, E_s {len(E_s)}, table {counts}")
        sizes[name] = len(E), len(E_s)
    return sizes


def closed_md5(s_max, ones):
    """The rim diagrams and the md5 of each rim and E_s, over s >= t >= u,
    s <= s_max, in each order, followed by each number of ones, reversed too."""
    import hashlib
    digest, diagrams = hashlib.md5(), 0
    for s in range(1, s_max + 1):
        for head in ((s, t, u) for t in range(1, s + 1) for u in range(1, t + 1)):
            for order, k in itertools.product(sorted(set(itertools.permutations(head))), ones):
                for parts in (order + (1,) * k, (1,) * k + order[::-1]):
                    E, E_s = rim_diagrams(parts)
                    rows = [sorted(D.rows() for D in X) for X in (E, E_s)]
                    digest.update(f"{parts} {rows[0]} {rows[1]}\n".encode())
                    diagrams += len(E)
    return diagrams, digest.hexdigest()


def form_properties(head):
    """The H, M and N members of head and those of form A, once each has an ordered
    full form path of its ``classify_form``, form A a family of the conjugate type."""
    members = form_a = 0
    for D in hmn_members([head]):
        pi, form = find_form_path(D)
        is_a = form is FormClass.A
        if (pi.support != D.nodes or not is_ordered(pi) or classify_form(pi) is not form
                or is_a and family_with_lengths(D, conjugate(D.row_composition())) is None):
            raise VerificationError(f"{D.rows()}: form path {pi.constituents} fails")
        members, form_a = members + 1, form_a + is_a
    return members, form_a


def form_b_claims(name, heads):
    """The form-B and all H, M and N members of each head, once the claim ``name`` of
    tests/claims.py holds of each form path, and form B is non-specialness."""
    import claims
    claim, counts = getattr(claims, name), []
    for head in heads:
        members = form_b = 0
        for D in hmn_members([head]):
            pi, form = find_form_path(D)
            if not (claim(pi, form) and claims.member_form_is_specialness(pi, form)):
                raise VerificationError(f"{D.rows()}: {name} fails on {pi.constituents}")
            members, form_b = members + 1, form_b + (form is FormClass.B)
        counts.append((form_b, members))
    return counts


def diagram_json_md5(head):
    """The F, G, H, M and N members of head, and the md5 of their diagram JSON."""
    import hashlib
    s, t, u = head
    outputs = []
    for order in sorted(set(itertools.permutations(head)) - {head}):
        for params in family_parameter_sets(StuShape(s, t, u, order)):
            options = {"--order": order, "--C": params.columns, "--params": params.counts,
                       "--v": [params.v] * (params.v is not None), "--format": ["json"]}
            argv = [x for key, v in options.items() if v for x in (key, ",".join(map(str, v)))]
            outputs.append(cli_stdout(["diagram", params.variant, "--stu", f"{s},{t},{u}", *argv]))
    return len(outputs), hashlib.md5("".join(outputs).encode()).hexdigest()


_FORM_B = [(12, 8, 5), (14, 9, 5)]
_HEADS = [(s, t, u) for s in range(4, 11) for t in range(3, min(s, 8)) for u in range(2, min(t, 5))]

# name: (check, recorded value, MB bound on the peak RSS of this process and its children)
CHECKS = {
    "tables-5-4-3": (lambda: cli_fields("verify tables --composition 5,4,3,1 --max-n 13", "ok"),
                     {"ok": True}, None),
    "closed-6-20-12-1": (lambda: closed_rims((6, 20, 12), 1, turned=False),
                         {"(6, 20, 12) + (1,) * 1": (48048, 10725)}, 150),
    "rim-json-6-20-12-1": (lambda: rim_md5("--composition 6,20,12,1 --format json"),
                           "0f044df0eab44ef42612d545709d0581", 150),
    "rim-ascii-6-20-12-1": (lambda: rim_md5("--composition 6,20,12,1"),
                            "0e6f89369fa5fbbff22f36ea6e546367", 150),
    "rim-json-1-12-20-6": (lambda: rim_md5("--composition 1,12,20,6 --format json"),
                           "f7910b6ab2a6fac0d9417eea269ae77c", 150),
    "closed-3-8-5-40-ones": (lambda: closed_rims((3, 8, 5), 40), {
        "(3, 8, 5) + (1,) * 40": (90, 40), "(1,) * 40 + (5, 8, 3)": (90, 40)}, None),
    "closed-md5-s10-ones-1-3": (lambda: closed_md5(10, (1, 3)),
                                (96180, "1873412290d1dcc978dbc5f20efb6fcd"), None),
    "closed-md5-s8-ones-2-5-12": (lambda: closed_md5(8, (2, 5, 12)),
                                  (35340, "f0517281d46657ef3182ab4010992905"), None),
    "closed-5-12-8-200-ones": (lambda: closed_rims((5, 12, 8), 200), {
        "(5, 12, 8) + (1,) * 200": (924, 336), "(1,) * 200 + (8, 12, 5)": (924, 336)}, None),
    "cell-involution-20": (lambda: cli_fields("cell --max-n 20 --permutation " + ",".join(
        f"{k + 1},{k}" for k in range(1, 21, 2)), "cell_size"), {"cell_size": 16796}, None),
    "ideal-2-5-3-1-1-1": (lambda: cli_fields("oracle --composition 2,5,3,1,1,1 --max-n 13",
                                             "ideal_size"), {"ideal_size": 20592}, None),
    "ideal-2-5-4-1-1-1": (lambda: cli_fields("oracle --composition 2,5,4,1,1,1 --max-n 14",
                                             "ideal_size"), {"ideal_size": 63063}, 30),
    "bijections-11": (lambda: cli_fields(
        "verify bijections --max-n 11", "ok", "rotation_checked", "append_checked"),
        {"ok": True, "rotation_checked": 2047, "append_checked": 512}, None),
    "form-properties-10-7-4": (lambda: form_properties((10, 7, 4)), (377, 197), None),
    "form-paths-4-3-2-to-10-7-4": (lambda: path_md5(hmn_members(_HEADS)),
                                   (7521, "4552ce9d63ba0db3516e7aee3b9dc1e7"), None),
    "form-paths-width-5": (lambda: path_md5(small_hosts(5)),
                           (28732, "6efa53ffc0314683c205d98837a0fd23"), None),
    "form-paths-12-8-5": (lambda: path_md5(hmn_members([(12, 8, 5)])),
                          (1146, "b74d27e5d885b6357360da8678dc00c8"), None),
    "diagram-json-12-8-5": (lambda: diagram_json_md5((12, 8, 5)),
                            (1328, "78a6e4a99b722cb23aa260284c6772de"), None),
    "form-b-recuts-12-8-5-14-9-5": (lambda: form_b_claims(
        "form_b_path_recuts_to_conjugate_type", _FORM_B), [(606, 1146), (1794, 3036)], None),
    "form-b-columns-12-8-5-14-9-5": (lambda: form_b_claims(
        "form_b_path_is_recut_columns", _FORM_B), [(606, 1146), (1794, 3036)], None),
    "form-paths-16-10-6": (lambda: path_md5(hmn_members([(16, 10, 6)])),
                           (10251, "a4975a35d6a5dc45848bd93f1672ae71"), None),
}


def main(argv):
    """Run the check argv names: 0 if it gives its value within its bound, else 1."""
    if len(argv) != 1 or argv[0] not in CHECKS:
        print(f"usage: ci_checks.py NAME, NAME one of {', '.join(CHECKS)}", file=sys.stderr)
        return 1
    check, want, max_mb = CHECKS[argv[0]]
    start = time.perf_counter()
    got, seconds = check(), time.perf_counter() - start
    peak = max(getrusage(who).ru_maxrss for who in (RUSAGE_SELF, RUSAGE_CHILDREN)) / 1024
    print(f"{argv[0]}: {got} in {seconds:.1f} s, peak RSS {peak:.1f} MB")
    if got != want or (max_mb is not None and peak > max_mb):
        print(f"{argv[0]}: recorded {want}, peak bound {max_mb} MB", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
