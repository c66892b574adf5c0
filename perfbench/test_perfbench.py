#!/usr/bin/env python3
"""The benchmark's own checks.

    python3 perfbench/test_perfbench.py

1. The operation sequence is a pure function of the seed: the same seed
   gives a byte-identical sequence, another seed a different one.
2. Two traced runs of paper_methods and ranked_mix report exactly equal
   program counters (source queries, partitions, tuples produced,
   operators executed, leaves visited, fenced answers and operators):
   the wall-clock-free numbers a CI gate can compare.

Builds urm_perfbench through run.py first. Takes about five minutes.
"""

import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOADS = ["paper_methods", "ranked_mix", "hot_ingest"]
SECONDS = 12


class PerfbenchTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def perfbench(self, *args):
        result = subprocess.run([self.binary, *args], cwd=run.ROOT,
                                capture_output=True, text=True, timeout=600)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        return result.stdout

    def sequence(self, workload, seed):
        return self.perfbench("--workload", workload, "--seed", str(seed),
                           "--seconds", str(SECONDS), "--print-sequence")

    def test_sequence_is_a_function_of_the_seed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = self.sequence(workload, 7)
                self.assertEqual(first, self.sequence(workload, 7))
                self.assertNotEqual(first, self.sequence(workload, 8))
                self.assertTrue(first.splitlines()[-1].startswith("digest "))

    def counters(self, workload):
        out = self.perfbench("--workload", workload, "--seed", "3", "--seconds",
                          str(SECONDS), "--trace", "1")
        lines = [l for l in out.splitlines() if l.startswith("counters: ")]
        self.assertEqual(len(lines), 1, out)
        return lines[0]

    def test_traced_counters_repeat_exactly(self):
        for workload in ["paper_methods", "ranked_mix"]:
            with self.subTest(workload=workload):
                self.assertEqual(self.counters(workload),
                                 self.counters(workload))


if __name__ == "__main__":
    unittest.main()
