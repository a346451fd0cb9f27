#!/usr/bin/env python3
"""Determinism check of the end-to-end benchmark.

    python3 perfbench/test_determinism.py

For every workload: two short runs at one seed must report identical
quality metrics (f1 and the workload's own metrics except query
latencies) and identical per-pass counts; then a run at the held-out
seed must finish clean (exit 0, `correct`, no failed operation).
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ["hidden-burst-tdbf", "ddos-flood-mitigate", "capture-sliding-exact"]
SEED = 7
HELD_OUT_SEED = 9001


def run(workload, seed):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "0"],
        cwd=os.path.dirname(HERE),
        capture_output=True,
        text=True,
        check=False,
    )
    if out.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} failed:\n{out.stderr[-3000:]}")
    stamp, extra, result = (json.loads(line) for line in out.stdout.strip().splitlines()[-3:])
    quality = {k: v["value"] for k, v in extra["workload_metrics"].items() if not k.startswith("query_ms")}
    quality["f1"] = result["metrics"]["f1"]["value"]
    return stamp["stamp"]["per_pass"], quality, result


class Determinism(unittest.TestCase):
    def test_same_seed_repeats_and_held_out_seed_runs_clean(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                counts_a, quality_a, _ = run(workload, SEED)
                counts_b, quality_b, _ = run(workload, SEED)
                self.assertEqual(counts_a, counts_b)
                self.assertEqual(quality_a, quality_b)
                _, _, result = run(workload, HELD_OUT_SEED)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)


if __name__ == "__main__":
    unittest.main()
