"""Tests of the cyclebench harness itself.

    python3 -m unittest discover -s cyclebench/tests -v

They build the repository and the harness under .bench_build/ (a no-op when
run.py already did), then check that a seed fully determines the fixture
bytes, that the churn transform yields a strict turnstile stream, that the
in-regime accuracy check rejects a collapsed estimate, that the traced run's
top-level spans cover its wall time, that a set-up-only run stops before the
engine, and that the metric names a run prints are the ones BENCHMARK.json
declares.
"""

import json
import os
import shutil
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402

TEST_DIR = os.path.join(run.WORK, "test")
SMALL_GNP = {"model": "gnp", "n": 200, "p": 0.2}
SMALL_CHURN = {"model": "ba", "n": 500, "deg": 3, "churn": True}


def setUpModule():
    run.build()
    shutil.rmtree(TEST_DIR, ignore_errors=True)


def tearDownModule():
    shutil.rmtree(TEST_DIR, ignore_errors=True)


def harness_args(front, fixture, flags):
    return [front, "--graph", fixture, "--seed", "3", "--threads", "2",
            "--epsilon", "0.2", *flags]


def traced(front, fixture, flags):
    return run.harness(harness_args(front, fixture, flags), "trace")


class FixtureTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for recipe in (SMALL_GNP, SMALL_CHURN,
                       run.WORKLOADS["edge-sparse-ba"]["fixture"]):
            a = run.make_fixture(recipe, 7, os.path.join(TEST_DIR, "a"))
            b = run.make_fixture(recipe, 7, os.path.join(TEST_DIR, "b"))
            c = run.make_fixture(recipe, 8, os.path.join(TEST_DIR, "c"))
            self.assertEqual(run.sha256(a), run.sha256(b), recipe)
            self.assertNotEqual(run.sha256(a), run.sha256(c), recipe)

    def test_churn_stream_is_strict(self):
        text = os.path.join(TEST_DIR, "ba.txt")
        os.makedirs(TEST_DIR, exist_ok=True)
        run.run_cmd([run.CLI, "generate", "--model", "ba", "--n", "2000",
                     "--deg", "5", "--seed", "4", "--out", text])
        _, updates = run.churn_updates(text, 4)
        live = set()
        inserts = deletes = 0
        for op, edge in updates:
            if op == "+":
                self.assertNotIn(edge, live)
                live.add(edge)
                inserts += 1
            else:
                self.assertIn(edge, live)
                live.remove(edge)
                deletes += 1
        # One delete per four first-time inserts, half of them re-inserted.
        first_time = inserts - deletes // 2
        self.assertEqual(deletes, first_time // 4)
        self.assertEqual(len(live), inserts - deletes)


class ToleranceTest(unittest.TestCase):
    def test_in_regime_check(self):
        exact = 1000.0
        self.assertTrue(run.within_tolerance(exact, exact))
        self.assertTrue(run.within_tolerance(exact * 1.5, exact))
        self.assertTrue(run.within_tolerance(exact * 0.5, exact))
        # A collapsed, negative or far-off estimate fails.
        self.assertFalse(run.within_tolerance(0.0, exact))
        self.assertFalse(run.within_tolerance(-exact, exact))
        self.assertFalse(run.within_tolerance(exact * 0.1, exact))
        self.assertFalse(run.within_tolerance(exact * 1.9, exact))


class TraceTest(unittest.TestCase):
    def check_trace(self, trace):
        self.assertEqual(trace["mismatches"], 0)
        self.assertTrue(all(q["replay_identical"] for q in trace["queries"]))
        coverage = trace["top_level_s"] / trace["traced_wall_s"]
        self.assertGreater(coverage, 0.97)
        self.assertLessEqual(coverage, 1.0)
        # Spans nest inside their parents.
        for s in trace["spans"]:
            if s["parent"] >= 0:
                p = trace["spans"][s["parent"]]
                self.assertLessEqual(p["start_s"], s["start_s"])
                self.assertLessEqual(s["end_s"], p["end_s"])

    def test_broker_span_coverage(self):
        fixture = run.make_fixture(SMALL_GNP, 3, os.path.join(TEST_DIR, "g"))
        self.check_trace(traced("sweep", fixture,
                                ["--algorithms", "adj-f2", "--queries", "3"]))
        self.check_trace(traced("sweep", fixture,
                                ["--algorithms", "arb-f2,random-order",
                                 "--queries", "2", "--order", "shuffled"]))

    def test_turnstile_span_coverage(self):
        fixture = run.make_fixture(SMALL_CHURN, 3, os.path.join(TEST_DIR, "t"))
        spec = os.path.join(TEST_DIR, "churn.spec")
        with open(spec, "w") as f:
            f.write(run.CHURN_SPECS)
        self.check_trace(traced("serve", fixture, ["--spec", spec]))

    def test_shard_span_coverage_and_layers(self):
        fixture = run.make_fixture(SMALL_GNP, 3, os.path.join(TEST_DIR, "s"))
        trace = traced("shard", fixture,
                       ["--algorithms", "arb-f2", "--queries", "2",
                        "--shards", "3", "--epoch-edges", "256",
                        "--order", "file", "--launch", "inprocess",
                        "--shard-dir", os.path.join(TEST_DIR, "shard")])
        self.check_trace(trace)
        self.assertTrue(trace["shard_layers"]["ok"])
        self.assertGreater(trace["shard_layers"]["checkpoints"], 0)
        self.assertEqual(trace["stats"]["workers_recovered"], 0)

    def test_setup_mode_stops_before_the_engine(self):
        fixture = run.make_fixture(SMALL_GNP, 3, os.path.join(TEST_DIR, "u"))
        out = run.harness(harness_args("sweep", fixture,
                                       ["--algorithms", "adj-f2",
                                        "--queries", "2"]), "setup")
        self.assertGreater(out["setup_s"], 0)
        self.assertEqual(out["stats"]["items_delivered"], 0)
        self.assertTrue(all("estimate" not in q for q in out["queries"]))

    def test_metric_names_match_benchmark_json(self):
        with open(run.BENCHMARK_JSON) as f:
            spec = json.load(f)
        fixture = run.make_fixture(SMALL_GNP, 3, os.path.join(TEST_DIR, "m"))
        trace = traced("sweep", fixture,
                       ["--algorithms", "adj-f2", "--queries", "2"])
        layers = run.per_layer(trace, trace["wall_s"])
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual({k: v["unit"] for k, v in layers.items()}, declared)
        self.assertEqual(run.END_TO_END,
                         {m["name"]: m["unit"] for m in spec["end_to_end"]})
        self.assertEqual(sorted(run.WORKLOADS),
                         sorted(w["name"] for w in spec["workloads"]))


if __name__ == "__main__":
    unittest.main()
