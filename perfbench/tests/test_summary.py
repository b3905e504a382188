"""Tests of the benchmark's summary and output checks (perfbench/summary.py).

    python3 -m unittest discover -s perfbench/tests
"""

import copy
import json
import os
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import summary  # noqa: E402


def make_round(**overrides):
    rnd = {
        "wall_s": 10.0, "requests_issued": 1000, "requests_completed": 1000,
        "requests_lost": 0, "results_delivered": 1000, "app_duplicates": 0,
        "p50_latency_ms": 265.0, "p99_latency_ms": 600.0,
        "mean_handoff_ms": 15.0, "handoffs": 300, "proxies_created": 990,
        "result_forwards": 1010,
        "kernel_events": 50000, "wired_messages": 4000, "wired_bytes": 800000,
        "wireless_frames": 3000, "wireless_bytes": 100000,
        "causal_delayed": 0, "invariant_violations": 0, "mss_joins": 100,
        "registration_gave_up": 0, "arq_retransmits": 0,
        "repl_promotions": 0, "mh_reissues": 0, "violations_by_rule": {},
    }
    rnd.update(overrides)
    return rnd


def make_raw(workload="metro", rounds=None, **extra):
    # 100 Mh issuing one request per 10 s for 100 s: 1000 expected.
    raw = {
        "workload": workload, "seed_arg": 7,
        "params": {"seed": 1, "num_mh": 100,
                   "cells": 16, "shards": 4, "threads": 4,
                   "sim_ms": 100000.0, "request_interval_ms": 10000.0,
                   "uplink_ms": 20.0, "downlink_ms": 20.0,
                   "service_ms": 200.0},
        "setup_s": [0.5, 0.1, 0.2],
        "rounds": rounds if rounds is not None else [make_round()],
        "peak_rss_mb": 64.0,
    }
    raw.update(extra)
    return raw


def make_traced_raw(**traced_overrides):
    profile = {
        "domains": {
            "kernel": {"self_ns": 2_000_000, "alloc_count": 5},
            "causal": {"self_ns": 1_000_000, "alloc_count": 7},
            "hook:mh_registered": {"self_ns": 3_000_000, "alloc_count": 11},
            "hook:proxy_created": {"self_ns": 500_000, "alloc_count": 0},
        },
        "total_alloc_count": 100000, "total_alloc_bytes": 3_000_000,
        "windows": 1000, "shard_busy_ns": 250, "shard_stall_ns": 750,
    }
    traced = make_round(wall_s=12.2, **traced_overrides)
    return make_raw(setup_s=[0.2], rounds=[make_round(wall_s=10.2)],
                    build_s=0.15, teardown_s=0.03, traced=traced,
                    profile=profile)


class CountsTest(unittest.TestCase):
    def test_attempted_sums_every_checked_round(self):
        raw = make_traced_raw()
        raw["rounds"].append(make_round(requests_issued=1001,
                                        requests_completed=1001))
        self.assertEqual(summary.counts(raw), (3001, 0))

    def test_violations_and_unfinished_requests_fail(self):
        rnd = make_round(invariant_violations=2, requests_completed=997,
                         requests_lost=1)
        # 2 violations + (1000 - 997 - 1) unfinished.
        self.assertEqual(summary.failed_ops(rnd), 4)


class CheckTest(unittest.TestCase):
    def test_clean_run_passes(self):
        self.assertEqual(summary.check(make_raw()), [])

    def test_lost_request_fails(self):
        raw = make_raw(rounds=[make_round(requests_lost=1,
                                          requests_completed=999)])
        self.assertIn("lost", " ".join(summary.check(raw)))

    def test_known_faults_count_as_failed_operations(self):
        rnd = make_round(invariant_violations=5, requests_completed=999,
                         results_delivered=999)
        raw = make_raw(rounds=[rnd])
        self.assertEqual(summary.check(raw), [])
        self.assertEqual(summary.counts(raw), (1000, 6))

    def test_issued_outside_five_sigma_fails(self):
        # 5 sd of Poisson(1000) is about 158.
        for issued, ok in ((1150, True), (1160, False), (842, True),
                           (841, False)):
            rnd = make_round(requests_issued=issued,
                             requests_completed=issued,
                             results_delivered=issued)
            failures = summary.check(make_raw(rounds=[rnd]))
            self.assertEqual(failures == [], ok, (issued, failures))

    def test_median_latency_below_configured_delays_fails(self):
        raw = make_raw(rounds=[make_round(p50_latency_ms=239.9)])
        self.assertIn("p50 latency", " ".join(summary.check(raw)))
        raw = make_raw(rounds=[make_round(p50_latency_ms=240.0)])
        self.assertEqual(summary.check(raw), [])

    def test_exactly_once_only_where_guaranteed(self):
        dup = make_round(app_duplicates=3)
        self.assertIn("exactly-once",
                      " ".join(summary.check(make_raw("metro", rounds=[dup]))))
        self.assertEqual(summary.check(make_raw("robust", rounds=[dup])), [])

    def test_every_host_must_register_on_mega(self):
        few = make_round(mss_joins=99)
        self.assertIn("registration",
                      " ".join(summary.check(make_raw("mega", rounds=[few]))))
        self.assertEqual(summary.check(make_raw("metro", rounds=[few])), [])
        gave_up = make_round(registration_gave_up=1)
        self.assertEqual(len(summary.check(make_raw("mega",
                                                    rounds=[gave_up]))), 1)

    def test_rounds_must_agree(self):
        raw = make_raw(rounds=[make_round(),
                               make_round(kernel_events=50001)])
        failures = summary.check(raw)
        self.assertEqual(len(failures), 1)
        self.assertIn("kernel_events", failures[0])

    def test_wall_time_may_differ_between_rounds(self):
        raw = make_raw(rounds=[make_round(wall_s=10), make_round(wall_s=12)])
        self.assertEqual(summary.check(raw), [])

    def test_profiling_must_not_change_the_outcome(self):
        self.assertEqual(summary.check(make_traced_raw()), [])
        failures = summary.check(make_traced_raw(wired_bytes=800001))
        self.assertEqual(len(failures), 1)
        self.assertIn("traced", failures[0])
        self.assertIn("wired_bytes", failures[0])


class MetricsTest(unittest.TestCase):
    def test_end_to_end(self):
        raw = make_raw(rounds=[make_round(wall_s=10.2), make_round(wall_s=8.2),
                               make_round(wall_s=9.2)])
        m = summary.end_to_end(raw)
        self.assertAlmostEqual(m["setup_s"][0], 0.2)
        self.assertAlmostEqual(m["run_s"][0], 9.0)  # median(wall) - setup
        self.assertAlmostEqual(m["events_per_s"][0], 50000 / 9.0)
        self.assertAlmostEqual(m["requests_per_s"][0], 1000 / 9.0)
        self.assertEqual(m["peak_rss_mb"], (64.0, "MB"))
        self.assertEqual(m["result_latency_p50_ms"], (265.0, "sim_ms"))
        self.assertEqual(m["air_bytes_per_request"], (100.0, "B"))
        self.assertEqual(m["wired_bytes_per_request"], (800.0, "B"))

    def test_per_layer(self):
        m = summary.per_layer(make_traced_raw())
        self.assertEqual(m["sim.events"], (50000, "count"))
        self.assertAlmostEqual(m["sim.kernel_self_ms"][0], 2.0)
        self.assertEqual(m["sim.events_per_window"][0], 50.0)
        self.assertAlmostEqual(m["sim.shard_busy_frac"][0], 0.25)
        self.assertAlmostEqual(m["obs.hooks_self_ms"][0], 3.5)
        self.assertEqual(m["obs.hook_mh_registered_allocs"][0], 11)
        self.assertEqual(m["causal.allocs"][0], 7)
        self.assertEqual(m["arq.self_ms"][0], 0)  # domain absent
        self.assertAlmostEqual(m["obs.allocs_per_event"][0], 2.0)
        self.assertAlmostEqual(m["obs.alloc_mb"][0], 3.0)
        self.assertAlmostEqual(m["harness.start_collect_s"][0], 0.02)
        self.assertAlmostEqual(m["trace.run_s"][0], 12.0)
        self.assertAlmostEqual(m["trace.overhead_frac"][0], 0.2)

    def test_single_kernel_has_no_windows(self):
        raw = make_traced_raw()
        raw["profile"].update(windows=0, shard_busy_ns=0, shard_stall_ns=0)
        m = summary.per_layer(raw)
        self.assertEqual(m["sim.events_per_window"][0], 0)
        self.assertEqual(m["sim.shard_busy_frac"][0], 0)


class ResultTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(HERE, "..", "..", "BENCHMARK.json"),
                  encoding="utf-8") as f:
            self.spec = json.load(f)

    def check_against_spec(self, out, section):
        self.assertEqual(set(out), {"correct", "attempted", "failed",
                                    "metrics"})
        spec = {m["name"]: m["unit"] for m in self.spec[section]}
        self.assertEqual({k: v["unit"] for k, v in out["metrics"].items()},
                         spec)
        json.dumps(out)  # serialisable as the last output line

    def test_untraced_run_prints_every_end_to_end_metric(self):
        out, failures = summary.result(make_raw(), trace=False)
        self.assertTrue(out["correct"])
        self.assertEqual(failures, [])
        self.check_against_spec(out, "end_to_end")

    def test_traced_run_prints_every_per_layer_metric(self):
        out, _ = summary.result(make_traced_raw(), trace=True)
        self.assertEqual(out["attempted"], 2000)
        self.check_against_spec(out, "per_layer")

    def test_failed_check_makes_result_incorrect(self):
        raw = make_raw(rounds=[make_round(requests_lost=1)])
        out, failures = summary.result(copy.deepcopy(raw), trace=False)
        self.assertFalse(out["correct"])
        self.assertTrue(failures)


if __name__ == "__main__":
    unittest.main()
