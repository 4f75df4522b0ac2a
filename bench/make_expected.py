"""Record the expected output of every op a benchmark draw can contain.

    python3 bench/make_expected.py [WORKLOAD ...]

Runs each op of each workload's pool once against ``src/`` and writes the
summaries to ``bench/expected.json``, keeping the entries of workloads not
named.  The recorded values are what later runs are checked against, so
regenerate them only from a commit whose outputs are known to be right.
Prints each op's measured time.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import worker
import workloads

EXPECTED = Path(__file__).resolve().parent / "expected.json"


def main(names: list[str]) -> int:
    cellrim = worker.import_cellrim()
    clear = worker.cache_clearer(cellrim)
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    expected["annotate_pool"] = workloads.annotate_pool(cellrim)
    for workload in names or workloads.WORKLOADS:
        entries = {}
        for op in workloads.pool(workload, expected):
            call, summarise = workloads.make_op(cellrim, workload, op)
            took, summary = worker.run_op(clear, call, summarise)
            if "error" in summary:
                raise SystemExit(f"{workload} {op}: {summary['error']}")
            entries[op] = summary
            print(f"{workload}\t{op}\t{took:.4f}", flush=True)
        expected[workload] = entries
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
