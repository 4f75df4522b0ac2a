"""The process that runs one benchmark workload against cellrim.

run.py starts it twice over:

    python3 bench/worker.py --setup WORKLOAD
        import cellrim, run the workload's warm-up op, print the
        monotonic clock and exit (one set-up sample);
    python3 bench/worker.py < spec.json
        run the ops named in the spec and print one JSON result line.

cellrim is imported from ``src/`` next to this directory and nowhere
else.  Each op runs with cellrim's process-wide caches cleared first, so
it costs what a one-shot command-line call costs.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Stop starting passes after this long, so a slow program still exits in
# time; the parent reports the passes that ran.
HARD_LIMIT_S = 120.0


def import_cellrim():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import cellrim
    import cellrim.cli

    if Path(cellrim.__file__).resolve().parent != (src / "cellrim").resolve():
        raise SystemExit(f"cellrim was imported from {cellrim.__file__}, not from {src}")
    return cellrim


def cache_clearer(cellrim):
    """Return a function that resets the process before an op: it clears
    the functools caches that would let a repeated input skip work, and
    collects garbage, so every op and every timing of the reference work
    starts from the same heap whatever ran before it."""
    p = cellrim.permutations
    caches = (p.parabolic, p.simple, p.positive_pairs, p._pair_bits)

    def clear() -> None:
        for cached in caches:
            cached.cache_clear()
        gc.collect()

    return clear


def run_op(clear, call, summarise) -> tuple[float, dict]:
    clear()
    start = time.perf_counter()
    try:
        out = call()
    except Exception as exc:  # counted as a failed op; the run goes on
        return time.perf_counter() - start, {"error": f"{type(exc).__name__}: {exc}"}
    elapsed = time.perf_counter() - start
    try:
        return elapsed, summarise(out)
    except Exception as exc:
        return elapsed, {"error": f"summary failed, {type(exc).__name__}: {exc}"}


def reference_work() -> int:
    """Fixed pure-Python work in the style of cellrim's inner loops (tuples,
    frozensets, dicts, sorting, pairwise comparisons) that calls no cellrim
    code.  Timing it next to the ops measures how fast the machine is
    running at the time."""
    nodes = [(a, b) for a in range(1, 15) for b in range(1, 15) if (a * 7 + b * 3) % 5]
    total = 0
    for shift in range(12):
        cells = frozenset((a, (b + shift) % 14 + 1) for a, b in nodes)
        rank = {b: k for k, b in enumerate(sorted({b for _, b in cells}), 1)}
        ordered = sorted((a, rank[b]) for a, b in cells)
        for i, (a, b) in enumerate(ordered):
            for a2, b2 in ordered[i + 1:i + 24]:
                if a < a2 and b <= b2:
                    total += 1
    return total


def time_reference() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def timed_passes(ops, clear, seconds: float, min_passes: int) -> dict:
    """Whole passes over the ops until about ``seconds`` have passed and at
    least ``min_passes`` ran.  The reference work is timed just before each op,
    and each op's start is recorded, so each op time can be scaled by the
    machine's speed around it."""
    samples: list[float] = []
    started: list[float] = []
    reference: list[float] = []
    summaries: list[dict] = []
    passes = 0
    start = time.perf_counter()
    last_pass = 0.0
    while True:
        elapsed = time.perf_counter() - start
        # Stop at the pass boundary nearest to ``seconds``.
        if passes >= min_passes and elapsed + last_pass / 2 >= seconds or elapsed >= HARD_LIMIT_S:
            break
        pass_start = time.perf_counter()
        for call, summarise in ops:
            clear()
            reference.append(time_reference())
            started.append(time.perf_counter() - start)
            took, summary = run_op(clear, call, summarise)
            samples.append(took)
            summaries.append(summary)
        passes += 1
        last_pass = time.perf_counter() - pass_start
    return {"passes": passes, "samples": samples, "started_s": started,
            "reference_s": reference, "summaries": summaries}


def traced_pass(ops, clear, spans_path: str) -> dict:
    import tracing

    # Untraced passes before and after the traced one, so warm-up and
    # drift in the machine's speed fall on both sides of the comparison.
    untraced = [run_op(clear, call, summarise) for call, summarise in ops]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = []
        for index, (call, summarise) in enumerate(ops):
            tracer.op = index
            traced.append(run_op(clear, call, summarise))
    finally:
        tracer.uninstall()
    after = [run_op(clear, call, summarise) for call, summarise in ops]
    untraced_s = (sum(t for t, _ in untraced) + sum(t for t, _ in after)) / 2
    overhead = sum(t for t, _ in traced) - untraced_s
    metrics = tracer.metrics(overhead)
    tracer.write_spans(spans_path)
    return {
        "passes": 1,
        "samples": [t for t, _ in traced],
        "summaries": [s for _, s in traced],
        "untraced_summaries": [s for _, s in untraced],
        "untraced_s": untraced_s,
        "traced_s": sum(t for t, _ in traced),
        "layer_metrics": metrics,
        "spans": len(tracer.span_name),
    }


def main() -> int:
    sys.path.insert(0, str(HERE))
    import workloads

    if sys.argv[1:2] == ["--setup"]:
        cellrim = import_cellrim()
        workloads.warm_up(cellrim, sys.argv[2])
        done = time.monotonic()
        # The machine's speed right after set-up, for scaling (not timed).
        reference = statistics.median(time_reference() for _ in range(3))
        print(repr(done), repr(reference))
        return 0

    spec = json.load(sys.stdin)
    cellrim = import_cellrim()
    workload = spec["workload"]
    workloads.warm_up(cellrim, workload)
    clear = cache_clearer(cellrim)
    ops = [workloads.make_op(cellrim, workload, op) for op in spec["ops"]]
    if spec["trace"]:
        result = traced_pass(ops, clear, spec["spans_path"])
    else:
        result = timed_passes(ops, clear, spec["seconds"], spec["min_passes"])
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
