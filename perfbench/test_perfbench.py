#!/usr/bin/env python3
"""Determinism and consistency tests for the benchmark itself.

    python3 perfbench/test_perfbench.py

Builds rdp_perfbench like run.py does, then checks, on the real workloads:
the same seed reproduces byte-identical simulated outputs and another seed
changes them; metro_sharded gives the same outputs at 4 shards and at 1;
a traced repetition reproduces the untraced one, and its stages add up to
each request's latency; rdp_perfbench agrees with the harness runner; and the
metrics run.py reports are exactly the ones BENCHMARK.json declares.
Takes about a minute.
"""

import functools
import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


@functools.lru_cache(maxsize=None)
def perfbench(*args):
    return run.run_perfbench(*args)


def rep(workload, seed, *extra):
    return perfbench("--workload", workload, "--seed", str(seed), *extra)["rep"][0]


def declared(section):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


class DeterminismTest(unittest.TestCase):
    def test_same_seed_twice_is_identical(self):
        first = rep("lossy_arq", 5)
        again = rep("lossy_arq", 5, "--trace", "0")  # a second process
        self.assertEqual(first["digest"], again["digest"])
        self.assertEqual(first["sim"], again["sim"])

    def test_another_seed_changes_outputs(self):
        self.assertNotEqual(rep("lossy_arq", 5)["digest"],
                            rep("lossy_arq", 6)["digest"])

    def test_sharded_outputs_do_not_depend_on_shard_count(self):
        four = rep("metro_sharded", 3)
        one = rep("metro_sharded", 3, "--shards", "1")
        self.assertEqual(four["digest"], one["digest"])
        self.assertEqual(four["sim"], one["sim"])

    def test_traced_run_reproduces_untraced(self):
        untraced = rep("campus_causal", 2)
        traced = rep("campus_causal", 2, "--trace", "1")
        self.assertEqual(untraced["digest"], traced["digest"])
        self.assertEqual(untraced["sim"], traced["sim"])


class GateTest(unittest.TestCase):
    def test_every_repetition_passes_its_gate(self):
        for r in (rep("lossy_arq", 5), rep("metro_sharded", 3),
                  rep("campus_causal", 2, "--trace", "1")):
            self.assertTrue(r["ok"], r["gate"])

    def test_stages_cover_every_completed_request(self):
        traced = rep("campus_causal", 2, "--trace", "1")
        self.assertEqual(traced["stage_checked"], traced["sim"]["completed"])
        self.assertEqual(traced["stage_mismatched"], 0)
        for stage in ("uplink_ms", "service_ms", "downlink_ms", "ack_ms"):
            self.assertEqual(traced["stages"][stage]["n"],
                             traced["sim"]["completed"], stage)

    def test_matches_harness_runner(self):
        reference = perfbench("--workload", "lossy_arq", "--seed", "5",
                              "--reference")["reference"][0]["sim"]
        ours = rep("lossy_arq", 5)["sim"]
        for key in run.SHARED_SIM_KEYS:
            self.assertEqual(ours[key], reference[key], key)


class MetricsTest(unittest.TestCase):
    def test_end_to_end_metrics_match_benchmark_json(self):
        reps = [rep("campus_causal", 2)]
        metrics = run.end_to_end(reps, [0.1], [1.0])
        self.assertEqual({k: u for k, (_, u, _) in metrics.items()},
                         declared("end_to_end"))

    def test_per_layer_metrics_match_benchmark_json(self):
        metrics = run.per_layer([rep("campus_causal", 2)],
                                [rep("campus_causal", 2, "--trace", "1")])
        self.assertEqual({k: u for k, (_, u, _) in metrics.items()},
                         declared("per_layer"))


if __name__ == "__main__":
    run.build()
    unittest.main()
