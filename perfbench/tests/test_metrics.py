"""Tests of the benchmark's own arithmetic and of the traced run's adapter.

    python3 -m unittest discover -s perfbench/tests

The adapter test needs the harness built by perfbench/run.py and is skipped
without it.
"""

import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
sys.path.insert(0, PERFBENCH)
import metrics  # noqa: E402

HARNESS = os.path.join(os.path.dirname(PERFBENCH), ".bench_build",
                      "perfbench_harness")


def job(step, due, done, accepted=True, outstanding=0, error="", check=""):
    return {"kind": "k", "step": step, "due_ms": due, "sent_ms": due,
            "ack_ms": due + 0.1, "done_ms": done, "accepted": accepted,
            "error": error, "check": check, "outstanding": outstanding,
            "queue_depth": 0, "requests": 2, "queue_ms": 0.0, "run_ms": 0.0,
            "states": 10}


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(metrics.percentile(values, 0.5), 50)
        self.assertEqual(metrics.percentile(values, 0.9), 90)
        self.assertEqual(metrics.percentile(values, 1.0), 100)
        self.assertEqual(metrics.percentile([7], 0.99), 7)

    def test_level_keeps_ten_samples_beyond(self):
        self.assertEqual(metrics.tail_level(1000), 0.99)
        self.assertEqual(metrics.tail_level(10000), 0.999)
        self.assertEqual(metrics.tail_level(999), 0.9)
        self.assertEqual(metrics.tail_level(100), 0.9)
        self.assertEqual(metrics.tail_level(99), 0.5)
        self.assertEqual(metrics.tail_level(20), 0.5)
        self.assertIsNone(metrics.tail_level(19))
        for n in range(1, 3000):
            p = metrics.tail_level(n)
            if p is not None:
                self.assertGreaterEqual(n - math.ceil(p * n), 10, n)

    def test_tail_without_a_level_is_the_maximum(self):
        self.assertEqual(metrics.tail([3, 1, 2]), 3)
        self.assertEqual(metrics.tail(list(range(1000))), 989)


class RateAtSlo(unittest.TestCase):
    def steps(self):
        return [{"rate": 50, "warmup": True},
                {"rate": 100, "nominal": True},
                {"rate": 200, "nominal": False},
                {"rate": 400, "nominal": False}]

    def test_flat_backlog_does_not_grow(self):
        self.assertFalse(metrics.backlog_grows([1, 2, 1, 2, 1, 2, 1, 2, 1]))
        self.assertFalse(metrics.backlog_grows([0, 0]))

    def test_climbing_backlog_grows(self):
        self.assertTrue(metrics.backlog_grows(list(range(30))))
        # Within max(1, 25 %) of the middle third is noise, not growth.
        self.assertFalse(metrics.backlog_grows([4] * 10 + [4] * 10 + [5] * 10))
        self.assertTrue(metrics.backlog_grows([4] * 10 + [4] * 10 + [6] * 10))

    def test_highest_step_meeting_limit_without_growth(self):
        jobs = [job(1, i, i + 5) for i in range(200)]
        # 200/s: fast enough, but the backlog climbs.
        jobs += [job(2, i, i + 5, outstanding=i) for i in range(200)]
        # 400/s: shed jobs count as missing the limit.
        jobs += [job(3, i, i + 5, accepted=i % 5 != 0) for i in range(200)]
        # The warm-up step never counts, even when it would qualify.
        jobs += [job(0, i, i + 1) for i in range(50)]
        self.assertEqual(metrics.rate_at_slo(self.steps(), jobs, 250), 100)

    def test_slow_tail_fails_the_limit(self):
        jobs = [job(1, i, i + (300 if i % 5 == 0 else 5)) for i in range(200)]
        self.assertEqual(metrics.rate_at_slo(self.steps(), jobs, 250), 0)
        self.assertEqual(metrics.rate_at_slo(self.steps(), jobs, 400), 100)


class FailureAccounting(unittest.TestCase):
    def test_job_failures(self):
        ok = job(1, 0, 5)
        self.assertEqual(metrics.job_failure(ok, True), "")
        shed = job(1, 0, -1, accepted=False)
        self.assertEqual(metrics.job_failure(shed, True), "shed at the nominal rate")
        self.assertEqual(metrics.job_failure(shed, False), "")
        lost = job(1, 0, -1)
        self.assertEqual(metrics.job_failure(lost, False),
                         "accepted but never finished")
        self.assertEqual(metrics.job_failure(job(1, 0, 5, error="reset"), False),
                         "reset")
        bad = job(1, 0, 5, check="script does not reach the target")
        self.assertEqual(metrics.job_failure(bad, False),
                         "script does not reach the target")
        self.assertTrue(math.isinf(metrics.job_latency(bad)))
        self.assertTrue(math.isinf(metrics.job_latency(shed)))
        self.assertEqual(metrics.job_latency(ok), 5)

    def test_serve_failures_mark_wrong_outputs(self):
        serve = {"steps": [{"nominal": False}, {"nominal": True}],
                 "jobs": [job(0, 0, -1, accepted=False),   # not nominal
                          job(1, 0, -1, accepted=False),   # shed at nominal
                          job(1, 0, 5, check="bad script"),
                          job(1, 0, 5)]}
        got = metrics.serve_failures(serve)
        self.assertEqual([(c, w) for _, c, w in got],
                         [("shed at the nominal rate", False),
                          ("bad script", True)])
        self.assertEqual(metrics.fail_frac(len(serve["jobs"]), len(got)), 0.5)

    def test_fail_frac(self):
        self.assertEqual(metrics.fail_frac(4, 1), 0.25)
        self.assertEqual(metrics.fail_frac(10, 0), 0.0)
        self.assertEqual(metrics.fail_frac(0, 0), 1.0)


class SearchArithmetic(unittest.TestCase):
    def test_split_sums_to_discover_wall(self):
        s = {"ref_discover_ns": 1000, "search_ns": 900, "verify_ns": 40,
             "expand_ns": 500, "estimate_ns": 200, "goal_ns": 50}
        split = metrics.search_split(s)
        self.assertEqual(sum(split.values()), 1000)
        self.assertEqual(split["search.self"], 150)
        self.assertEqual(split["core.discover.overhead"], 60)

    def test_end_to_end(self):
        raw = {"workload": "synth_wide", "setup_s": [0.3, 0.1, 0.2],
               "peak_rss_kib": 2048,
               "problems": [{"walls_ms": [10, 30, 20], "states": 100},
                            {"walls_ms": [40], "states": 300}]}
        m = metrics.end_to_end(raw)
        self.assertEqual(m["setup_s"], 0.2)
        self.assertEqual(m["peak_rss_mb"], 2.0)
        self.assertEqual(m["p50_ms"], 30)         # of per-problem medians
        self.assertEqual(m["tail_ms"], 40)        # too few for a level
        self.assertAlmostEqual(m["calls_per_s"], 2 / 0.06)
        self.assertAlmostEqual(m["items_per_s"], 400 / 0.06)


@unittest.skipUnless(os.access(HARNESS, os.X_OK), "harness not built")
class AdapterMatchesDiscover(unittest.TestCase):
    def test_every_algorithm(self):
        r = subprocess.run([HARNESS, "--selftest"], capture_output=True,
                           text=True, timeout=300)
        self.assertEqual(r.returncode, 0, r.stdout[-2000:])
        for algo in ("ida", "rbfs", "astar", "greedy", "beam"):
            self.assertIn("/%s/" % algo, r.stdout)
        self.assertIn("0 mismatches", r.stdout)


if __name__ == "__main__":
    unittest.main()
