"""Tests of the benchmark itself.

    python3 bench/test_bench.py        (or: python3 -m pytest bench)

They import cellrim from ``src/`` and take about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

EXPECTED = json.loads((HERE / "expected.json").read_text())
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


class SpecTest(unittest.TestCase):
    def test_metric_names_match_the_code(self):
        self.assertEqual(
            [(m["name"], m["unit"]) for m in SPEC["end_to_end"]],
            list(run.END_TO_END_UNITS.items()))
        self.assertEqual(
            [(m["name"], m["unit"]) for m in SPEC["per_layer"]],
            tracing.metric_names())
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.WORKLOADS))

    def test_every_pool_op_is_recorded_and_safe(self):
        for workload in workloads.WORKLOADS:
            for op in workloads.pool(workload, EXPECTED):
                workloads.check_safe(workload, op, EXPECTED[workload][op])

    def test_oversized_inputs_are_refused(self):
        cases = [
            ("ideal", "2,2,2,2,1", {}),
            ("ideal", "4,3,2,1", {}),
            ("transport", "3,8,5,1,1,1,1,1,1,1,1,1,1", {}),
            ("annotate", "diagram M --stu 10,7,4 --order 4,10,7 --format json", {}),
            ("closed", "8,30,20,1", {"rim": 50_000}),
        ]
        for workload, op, entry in cases:
            with self.assertRaises(ValueError, msg=op):
                workloads.check_safe(workload, op, entry)


class DrawTest(unittest.TestCase):
    def test_same_seed_same_draw_other_seed_other_draw(self):
        for workload in workloads.WORKLOADS:
            first = workloads.draw(workload, 1, EXPECTED)
            self.assertEqual(first, workloads.draw(workload, 1, EXPECTED))
            self.assertNotEqual(first, workloads.draw(workload, 2, EXPECTED))

    def test_second_seed_draw_is_valid(self):
        """Every op of a seed-2 pass matches its recorded output."""
        cellrim = worker.import_cellrim()
        clear = worker.cache_clearer(cellrim)
        for workload in workloads.WORKLOADS:
            for op in workloads.draw(workload, 2, EXPECTED):
                call, summarise = workloads.make_op(cellrim, workload, op)
                _, got = worker.run_op(clear, call, summarise)
                self.assertIsNone(
                    workloads.compare(workload, got, EXPECTED[workload][op]), op)

    def test_mismatch_counts_as_failure(self):
        op = workloads.draw("closed", 1, EXPECTED)[0]
        want = EXPECTED["closed"][op]
        self.assertIsNone(workloads.compare("closed", dict(want), want))
        self.assertIsNotNone(workloads.compare("closed", dict(want, rim=want["rim"] + 1), want))
        self.assertIsNotNone(workloads.compare("closed", {"error": "boom"}, want))


class RunTest(unittest.TestCase):
    def result(self, proc):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.splitlines()[-1])

    def test_end_to_end_run(self):
        out = self.result(bench("--workload", "closed", "--seed", "2", "--seconds", "1",
                                "--trace", "0"))
        self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(out["correct"])
        self.assertEqual(out["failed"], 0)
        self.assertEqual(set(out["metrics"]), set(run.END_TO_END_UNITS))
        self.assertTrue(all(m["value"] > 0 for m in out["metrics"].values()))

    def test_traced_run(self):
        out = self.result(bench("--workload", "closed", "--seed", "2", "--seconds", "1",
                                "--trace", "1"))
        self.assertTrue(out["correct"])
        self.assertEqual(set(out["metrics"]), {name for name, _ in tracing.metric_names()})
        self.assertEqual(out["metrics"]["paths.is_admissible.calls"]["value"], 0)
        self.assertGreater(out["metrics"]["diagrams.Diagram.calls"]["value"], 0)

    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            proc = bench("--workload", "ideal", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=Path(tmp))
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
