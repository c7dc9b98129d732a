#!/usr/bin/env python3
"""Self-tests of the SolarCore benchmark, at a tiny size.

    python3 perfbench/test_perfbench.py

Run from the root of a checkout; the first test builds the driver the
same way run.py does. Campaign workloads run one site x one month
(--tiny) for a single repetition, serve-plan runs half a second, so the
whole suite takes well under a minute on 4 CPUs. The tests check that:

  - every metric named in BENCHMARK.json is emitted, with its unit, by
    every workload (end-to-end untraced, per-layer traced);
  - a corrupted reference turns into failed operations;
  - the same workload seed regenerates identical inputs and a different
    seed changes them.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark entry point, imported for its data)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def bench(workload, trace, *extra):
    seconds = "0.5" if workload == "serve-plan" else "0"
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", seconds, "--trace",
         str(trace), "--tiny"] + list(extra),
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    if proc.returncode != 0:
        raise AssertionError("run.py failed:\n" + proc.stderr[-3000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def inputs(workload, seed):
    driver, _ = run.build()
    return subprocess.run(
        [driver, "inputs", "--workload=" + workload, "--seed=%d" % seed],
        stdout=subprocess.PIPE, check=True, text=True).stdout


class ContractTest(unittest.TestCase):
    def test_benchmark_json_names_every_workload(self):
        names = [w["name"] for w in BENCH["workloads"]]
        self.assertEqual(sorted(names), sorted(run.WORKLOADS))

    def test_slo_limits_are_quoted_in_benchmark_json(self):
        for w in BENCH["workloads"]:
            self.assertIn("SLO %d ms" % run.SLO_MS[w["name"]], w["why"])


class MetricsTest(unittest.TestCase):
    def check(self, result, declared):
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        emitted = result["metrics"]
        for m in declared:
            self.assertIn(m["name"], emitted)
            self.assertEqual(emitted[m["name"]]["unit"], m["unit"])
            self.assertIsInstance(emitted[m["name"]]["value"], float)
        self.assertEqual(set(emitted), {m["name"] for m in declared})

    def test_every_metric_is_emitted_with_its_unit(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload, trace=0):
                self.check(bench(workload, 0), BENCH["end_to_end"])
            with self.subTest(workload=workload, trace=1):
                self.check(bench(workload, 1), BENCH["per_layer"])


class ReferenceTest(unittest.TestCase):
    def test_corrupted_reference_fails_operations(self):
        for workload in ("campaign-full", "campaign-observed", "serve-plan"):
            with self.subTest(workload=workload):
                result = bench(workload, 0, "--corrupt-ref")
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)


class InputTest(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = inputs(workload, 3)
                self.assertEqual(first, inputs(workload, 3))
                self.assertNotEqual(first, inputs(workload, 4))
                # The inputs name real seeds, not an empty plan.
                self.assertTrue(re.search(r"seed \d+|seeds=\d", first))


if __name__ == "__main__":
    unittest.main()
