#!/usr/bin/env python3
"""The benchmark's own test: every workload, traced and untraced, at a tiny
size emits every metric BENCHMARK.json declares, finite and with its unit,
with every output check passing; and metrics.json covers the same names.

    python3 perfbench/smoke_test.py
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class SmokeTest(unittest.TestCase):
    def test_metadata_matches_benchmark(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        with open(os.path.join(run.HERE, "metrics.json")) as f:
            meta = json.load(f)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         [w["name"] for w in meta["workloads"]])
        self.assertEqual(set(m["name"] for m in bench["end_to_end"]),
                         set(meta["end_to_end"]) - {"error_rate"})
        self.assertEqual([m["name"] for m in bench["per_layer"]],
                         list(meta["per_layer"]))

    def test_every_workload_emits_every_metric(self):
        run.build()
        run.smoke()


if __name__ == "__main__":
    unittest.main()
