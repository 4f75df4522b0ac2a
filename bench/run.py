"""Benchmark for cellrim: one workload, one seed, one result line.

    python3 bench/run.py --workload {ideal,transport,annotate,closed}
                         --seed N --seconds S --trace {0,1}

Run from the root of a checkout; cellrim is imported from ``src/``.  The
seed draws the workload's inputs (see workloads.py).  The ops run in a
fresh worker process, in whole passes over the drawn list, stopping at the
pass boundary nearest to S seconds once the workload's minimum number of
passes has run.  Every op's output is checked against the summary
recorded in expected.json; a mismatch or exception counts as a failed op
and the run goes on.

With ``--trace 0`` the end-to-end metrics are reported, with times scaled
to reference speed (see README.md); set-up time is the median of several
fresh interpreter launches.  With ``--trace 1`` one pass runs untraced,
traced and untraced again, outputs are compared, and per-layer calls,
self time and counts are reported (see tracing.py).  Spans and a results
file with the seed, inputs and per-op times go to ``.bench_out/``.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Exit code 0 means a result was
printed; anything else means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import worker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

SETUP_LAUNCHES = 15
# Times are reported at reference speed: the speed at which reference_work()
# in worker.py takes REFERENCE_S, about what it takes on an idle 2-CPU
# x86-64 container with CPython 3.11.  Each op is scaled by the median
# reference time within REFERENCE_REACH_S before its start and after its end.
REFERENCE_S = 0.0025
REFERENCE_REACH_S = 0.25
# Total budget: the benchmark must exit within 180 s.
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def measure_setup(workload: str) -> tuple[list[float], list[float]]:
    """Seconds from launching a fresh interpreter to the end of importing
    cellrim and running the workload's warm-up op, once per launch, and
    the same launches scaled to reference speed by the reference work the
    launched process times right after its set-up.  A first,
    unrecorded launch leaves compiled bytecode behind, as an installed
    package would have."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--setup", workload]
    subprocess.run(cmd, check=True, capture_output=True, timeout=60)
    raw, scaled = [], []
    for _ in range(SETUP_LAUNCHES):
        start = time.monotonic()
        proc = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=60)
        done, reference = (float(x) for x in proc.stdout.split())
        raw.append(done - start)
        scaled.append((done - start) * REFERENCE_S / reference)
    return raw, scaled


def run_worker(spec: dict, timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(spec), capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def check_outputs(workload, ops, summaries, expected, untraced=None) -> list[str]:
    """One line per failed op execution; executions cycle through ops."""
    failures = []
    for index, got in enumerate(summaries):
        op = ops[index % len(ops)]
        reason = workloads.compare(workload, got, expected[op])
        if reason is None and untraced is not None and got != untraced[index]:
            reason = "traced output differs from untraced output"
        if reason is not None:
            failures.append(f"{op}: {reason}")
    return failures


def to_reference_speed(samples: list[float], started: list[float],
                       reference: list[float]) -> list[float]:
    """Scale each op time by REFERENCE_S over the median time of the
    reference work done within REFERENCE_REACH_S of the op.  This cancels
    the machine running faster or slower for a while because of other
    load.  reference[k] was timed just before the op that started at
    started[k]."""
    scaled = []
    lo = hi = 0
    for k, t in enumerate(samples):
        while started[lo] < started[k] - REFERENCE_REACH_S:
            lo += 1
        hi = max(hi, k + 1)
        while hi < len(started) and started[hi] <= started[k] + t + REFERENCE_REACH_S:
            hi += 1
        scaled.append(t * REFERENCE_S / statistics.median(reference[lo:hi]))
    return scaled


def end_to_end(workload: str, samples: list[float], passes: int, peak_rss_kb: int,
               setup: list[float]) -> tuple[dict, str]:
    per_pass = len(samples) // passes
    # Each op's median over the passes, so one slow pass cannot move it.
    op_medians = [statistics.median(samples[k::per_pass]) for k in range(per_pass)]
    percentile = workloads.tail_percentile(workload, per_pass)
    tail = statistics.quantiles(samples, n=100, method="inclusive")[percentile - 1]
    metrics = {
        "ops_per_s": len(samples) / sum(samples),
        "op_p50_ms": statistics.median(op_medians) * 1000,
        "op_tail_ms": tail * 1000,
        "peak_rss_mb": peak_rss_kb / 1024,
        "setup_s": statistics.median(setup),
    }
    beyond = sum(1 for s in samples if s > tail)
    note = f"p{percentile} of {len(samples)} samples, {beyond} beyond it"
    return metrics, note


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "cellrim" / "__init__.py").is_file():
        return fail(f"no cellrim sources under {ROOT / 'src'}; run from a checkout")
    expected = json.loads((HERE / "expected.json").read_text())
    workload = args.workload
    ops = workloads.draw(workload, args.seed, expected)
    for op in ops:
        if op not in expected[workload]:
            return fail(f"no recorded expectation for {workload} op {op}")
        try:
            workloads.check_safe(workload, op, expected[workload][op])
        except ValueError as exc:
            return fail(f"refusing to run: {exc}")

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload}-seed{args.seed}-trace{args.trace}"
    setup_raw, setup = ([], []) if args.trace else measure_setup(workload)
    spec = {
        "workload": workload,
        "ops": ops,
        "trace": bool(args.trace),
        "seconds": args.seconds,
        "min_passes": workloads.MIN_PASSES[workload],
        "spans_path": str(stem) + "-spans.tsv",
    }
    try:
        result = run_worker(spec, DEADLINE_S - (time.monotonic() - started))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))

    failures = check_outputs(workload, ops, result["summaries"], expected[workload],
                             result.get("untraced_summaries"))
    attempted = len(result["summaries"])
    print(f"workload: {workload}  seed: {args.seed}  trace: {args.trace}  "
          f"passes: {result['passes']}  ops per pass: {len(ops)}")
    print(f"inputs: {' | '.join(ops)}")
    for line in failures[:20]:
        print(f"FAILED {line}")
    print(f"failed_share = {len(failures) / attempted:.6g} fraction "
          f"({len(failures)} of {attempted} ops)")

    record = {
        "workload": workload, "seed": args.seed, "trace": args.trace,
        "inputs": ops, "passes": result["passes"], "failures": failures,
        "op_seconds": result["samples"],
        "outputs": result["summaries"][:len(ops)],
    }
    if args.trace:
        layer = result["layer_metrics"]
        lost = tracing.missing(workload, layer)
        if lost:
            return fail(f"traced run recorded no call at {', '.join(lost)}")
        units = dict(tracing.metric_names())
        metrics = {name: {"value": layer[name], "unit": units[name]} for name in units}
        print(f"tracing: {result['spans']} spans, untraced {result['untraced_s']:.4f} s, "
              f"traced {result['traced_s']:.4f} s, overhead {layer['trace.overhead_s']:.4f} s")
        for line in tracing.design_checks(workload, layer):
            print(line)
        for name, entry in metrics.items():
            if not name.endswith((".calls", ".self_s")) or entry["value"]:
                print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    else:
        scaled = to_reference_speed(result["samples"], result["started_s"],
                                    result["reference_s"])
        values, tail_note = end_to_end(workload, scaled, result["passes"],
                                       result["peak_rss_kb"], setup)
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]}
                   for name, v in values.items()}
        record["measured"], _ = end_to_end(workload, result["samples"], result["passes"],
                                           result["peak_rss_kb"], setup_raw)
        record["reference_s"] = result["reference_s"]
        record["started_s"] = result["started_s"]
        record["setup_measured_s"] = setup_raw
        record["setup_scaled_s"] = setup
        record["tail"] = tail_note
        for name, entry in metrics.items():
            extra = ""
            if name == "op_tail_ms":
                extra = f"  ({tail_note})"
            elif name == "setup_s":
                extra = f"  (median of {len(setup)} launches)"
            print(f"{name} = {entry['value']:.6g} {entry['unit']}{extra}")
    record["metrics"] = metrics
    (Path(str(stem) + ".json")).write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
