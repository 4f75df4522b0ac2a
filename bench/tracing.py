"""Span tracing at cellrim's module boundaries, for the traced benchmark run.

Each boundary is a public function (or a class attribute) of one cellrim
module.  ``Tracer.install`` replaces it with a recording wrapper in every
namespace that holds it: modules bind names such as ``is_admissible`` or
``parabolic`` at import, ``psi_append`` imports ``is_admissible`` when it
runs, and ``Permutation.__mul__`` and ``Diagram.__init__`` live on their
classes.  Spans (boundary, parent span, op, start, end) are kept in
memory in flat arrays and written out once, after the run.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections.abc import Callable
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Boundary:
    name: str  # metric prefix, "<layer>.<function>"
    module: str
    attr: str
    owner: str | None = None  # class holding attr, for methods
    # Optional counter: (tracer, args, result) -> None.
    count: Callable | None = None


def _count_reps(tracer, args, result):
    tracer.counts["permutations.parabolic.reps"] += len(result.reps)


def _count_admissible(tracer, args, result):
    tracer.counts["paths.is_admissible.true"] += bool(result)


def _count_nodes(tracer, args, result):
    tracer.counts["paths.subsequence_type.nodes"] += len(args[0].nodes)


def _count_members(tracer, args, result):
    tracer.counts["families.z_ideal.members"] += len(result)


BOUNDARIES: tuple[Boundary, ...] = (
    Boundary("permutations.parabolic", "cellrim.permutations", "parabolic", count=_count_reps),
    Boundary("permutations.mul", "cellrim.permutations", "__mul__", owner="Permutation"),
    Boundary("permutations.prefix_maximal", "cellrim.permutations", "prefix_maximal"),
    Boundary("permutations.is_prefix", "cellrim.permutations", "is_prefix"),
    Boundary("tableaux.rs_pair", "cellrim.tableaux", "rs_pair"),
    Boundary("diagrams.min_column_diagram", "cellrim.diagrams", "min_column_diagram"),
    Boundary("diagrams.psi_append", "cellrim.diagrams", "psi_append"),
    Boundary("diagrams.rotate_180", "cellrim.diagrams", "rotate_180"),
    Boundary("diagrams.is_special", "cellrim.diagrams", "is_special"),
    Boundary("diagrams.Diagram", "cellrim.diagrams", "__init__", owner="Diagram"),
    Boundary("paths.is_admissible", "cellrim.paths", "is_admissible", count=_count_admissible),
    Boundary("paths.subsequence_type", "cellrim.paths", "subsequence_type", count=_count_nodes),
    Boundary("paths.family_with_lengths", "cellrim.paths", "family_with_lengths"),
    Boundary("paths.find_form_path", "cellrim.paths", "find_form_path"),
    Boundary("families.z_ideal", "cellrim.families", "z_ideal", count=_count_members),
    Boundary("families.rim_diagrams", "cellrim.families", "rim_diagrams"),
    Boundary("families.family_parameter_sets", "cellrim.families", "family_parameter_sets"),
    Boundary("families.family_diagram", "cellrim.families", "family_diagram"),
    Boundary("families.determining_tuple", "cellrim.families", "determining_tuple"),
    Boundary("cli.main", "cellrim.cli", "main"),
)

# Boundaries each workload must reach; a traced run that records no call
# at one of them fails, so a wrapper cannot miss silently.
REQUIRED = {
    "ideal": (
        "permutations.parabolic", "permutations.mul", "permutations.prefix_maximal",
        "permutations.is_prefix", "tableaux.rs_pair", "diagrams.min_column_diagram",
        "diagrams.Diagram", "paths.is_admissible", "paths.subsequence_type",
        "families.z_ideal",
    ),
    "transport": (
        "families.rim_diagrams", "families.family_parameter_sets", "families.family_diagram",
        "diagrams.psi_append", "diagrams.rotate_180", "diagrams.is_special",
        "diagrams.Diagram", "paths.is_admissible", "paths.subsequence_type",
    ),
    "annotate": (
        "cli.main", "families.family_diagram", "families.determining_tuple",
        "paths.find_form_path", "paths.family_with_lengths", "paths.is_admissible",
        "paths.subsequence_type", "diagrams.is_special", "diagrams.Diagram",
    ),
    "closed": (
        "families.rim_diagrams", "families.family_parameter_sets", "families.family_diagram",
        "diagrams.is_special", "diagrams.Diagram",
    ),
}

# Per-layer metrics beyond <boundary>.calls and <boundary>.self_s.
EXTRA_METRICS = (
    ("permutations.parabolic.reps", "count"),
    ("diagrams.psi_append.candidates_per_call", "count/call"),
    ("paths.is_admissible.true_share", "fraction"),
    ("paths.subsequence_type.nodes", "count"),
    ("families.z_ideal.member_share", "fraction"),
    ("trace.overhead_s", "s"),
)


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for b in BOUNDARIES:
        out.append((f"{b.name}.calls", "count"))
        out.append((f"{b.name}.self_s", "s"))
    return out + list(EXTRA_METRICS)


class Tracer:
    def __init__(self) -> None:
        self.names = [b.name for b in BOUNDARIES]
        self.span_name = array("i")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.op = -1
        self.counts = {
            "permutations.parabolic.reps": 0,
            "paths.is_admissible.true": 0,
            "paths.subsequence_type.nodes": 0,
            "families.z_ideal.members": 0,
        }
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, index: int, fn, count):
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends, stack = self.span_start, self.span_end, self.stack

        def traced(*args, **kwargs):
            span = len(names)
            names.append(index)
            parents.append(stack[-1])
            ops.append(self.op)
            ends.append(0.0)
            stack.append(span)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = perf_counter()
                stack.pop()
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every boundary in every cellrim namespace that holds it."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "cellrim" or name.startswith("cellrim."))]
        for index, b in enumerate(BOUNDARIES):
            module = sys.modules[b.module]
            if b.owner is not None:
                cls = getattr(module, b.owner)
                original = cls.__dict__[b.attr]
                self._undo.append((cls, b.attr, original))
                setattr(cls, b.attr, self._wrap(index, original, b.count))
                continue
            original = getattr(module, b.attr)
            wrapper = self._wrap(index, original, b.count)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._undo.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    def metrics(self, overhead_s: float) -> dict[str, float]:
        count = len(self.span_name)
        calls = [0] * len(self.names)
        busy = [0.0] * len(self.names)
        covered = [0.0] * count
        admissible_in_append = 0
        psi_append = self.names.index("diagrams.psi_append")
        is_admissible = self.names.index("paths.is_admissible")
        for span in range(count):
            duration = self.span_end[span] - self.span_start[span]
            name = self.span_name[span]
            calls[name] += 1
            busy[name] += duration
            parent = self.span_parent[span]
            if parent >= 0:
                covered[parent] += duration
                if name == is_admissible and self.span_name[parent] == psi_append:
                    admissible_in_append += 1
        for span in range(count):
            busy[self.span_name[span]] -= covered[span]
        out: dict[str, float] = {}
        for index, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[index]
            out[f"{name}.self_s"] = busy[index]
        c = self.counts
        out["permutations.parabolic.reps"] = c["permutations.parabolic.reps"]
        out["diagrams.psi_append.candidates_per_call"] = _ratio(
            admissible_in_append, calls[psi_append])
        out["paths.is_admissible.true_share"] = _ratio(
            c["paths.is_admissible.true"], calls[is_admissible])
        out["paths.subsequence_type.nodes"] = c["paths.subsequence_type.nodes"]
        # Members found per coset representative produced: the share of
        # enumerated candidates that were useful.
        out["families.z_ideal.member_share"] = _ratio(
            c["families.z_ideal.members"], c["permutations.parabolic.reps"])
        out["trace.overhead_s"] = overhead_s
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("span\tparent\top\tboundary\tstart_s\tend_s\n")
            origin = self.span_start[0] if self.span_start else 0.0
            for span in range(len(self.span_name)):
                fh.write(
                    f"{span}\t{self.span_parent[span]}\t{self.span_op[span]}\t"
                    f"{self.names[self.span_name[span]]}\t"
                    f"{self.span_start[span] - origin:.9f}\t{self.span_end[span] - origin:.9f}\n")


def _ratio(num: float, den: float) -> float:
    """num/den, or 0 when nothing was attempted."""
    return num / den if den else 0.0


def missing(workload: str, metrics: dict[str, float]) -> list[str]:
    return [name for name in REQUIRED[workload] if metrics[f"{name}.calls"] < 1]


def design_checks(workload: str, metrics: dict[str, float]) -> list[str]:
    """How the traced run bears out what the workload was built to isolate.
    Reported, not enforced: a later change may rightly move the hot spot."""
    selfs = {b.name: metrics[f"{b.name}.self_s"] for b in BOUNDARIES}
    total = math.fsum(selfs.values())
    top = max(selfs, key=selfs.get)
    lines = [f"largest self time: {top} {selfs[top]:.4f} s of {total:.4f} s"]

    def check(claim: str, holds: bool) -> None:
        lines.append(f"design check: {claim}: {'holds' if holds else 'DOES NOT HOLD'}")

    if workload in ("ideal", "transport"):
        check("paths.subsequence_type has the largest self time",
              top == "paths.subsequence_type")
    elif workload == "annotate":
        check("paths.find_form_path has the largest self time",
              top == "paths.find_form_path")
        share = selfs["paths.subsequence_type"] / total if total else 0.0
        check(f"paths.subsequence_type is under a tenth of self time ({share:.3f})",
              share < 0.1)
    elif workload == "closed":
        check("no paths.is_admissible calls", metrics["paths.is_admissible.calls"] == 0)
    return lines
