"""Tests for the benchmark's own arithmetic and trace output.

Run from the repository root:
  python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

import chrome_trace  # noqa: E402
import metrics  # noqa: E402


class CeilingPercentileTest(unittest.TestCase):
    def test_failed_ops_count_at_the_ceiling(self):
        # 4 of 10 ops complete fast, 6 fail: the median is a failure.
        lat = [1.0, 2.0, 3.0, 4.0] + [0.0] * 6
        ok = [True] * 4 + [False] * 6
        out = metrics.foreground_latency(lat, ok, limit_us=400.0)
        self.assertEqual(out["n"], 10)
        self.assertEqual(out["p50_us"], 4000.0)
        self.assertAlmostEqual(out["slo_ratio"], 0.4)

    def test_survivors_alone_would_hide_the_failures(self):
        lat = [5.0] * 9 + [0.0] * 91
        ok = [True] * 9 + [False] * 91
        out = metrics.foreground_latency(lat, ok, limit_us=400.0)
        self.assertEqual(out["p50_us"], 4000.0)
        self.assertEqual(out["tail_us"], 4000.0)

    def test_completed_ops_are_clipped_to_the_ceiling(self):
        self.assertEqual(metrics.ceiling_latencies([50.0, 5000.0], [True, True], 10.0), [50.0, 100.0])

    def test_slo_counts_only_completed_ops_within_the_limit(self):
        out = metrics.foreground_latency([10.0, 11.0, 9.0], [True, True, False], limit_us=10.0)
        self.assertAlmostEqual(out["slo_ratio"], 1.0 / 3.0)

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(metrics.nearest_rank(values, 50.0), 50)
        self.assertEqual(metrics.nearest_rank(values, 99.0), 99)
        self.assertEqual(metrics.nearest_rank(values, 100.0), 100)
        self.assertEqual(metrics.nearest_rank([7.0], 99.0), 7.0)


class TailPercentileTest(unittest.TestCase):
    def test_highest_percentile_with_ten_ops_beyond(self):
        self.assertEqual(metrics.tail_percentile(1000), 99.0)
        self.assertEqual(metrics.ops_beyond(1000, 99.0), 10)
        self.assertEqual(metrics.tail_percentile(999), 98.0)
        self.assertEqual(metrics.tail_percentile(20000), 99.9)
        self.assertEqual(metrics.tail_percentile(374), 95.0)

    def test_every_choice_leaves_at_least_ten_beyond(self):
        for n in range(20, 5000, 37):
            p = metrics.tail_percentile(n)
            self.assertGreaterEqual(metrics.ops_beyond(n, p), metrics.TAIL_MIN_BEYOND, n)
            higher = [q for q in metrics.TAIL_LADDER if q > p]
            for q in higher:
                self.assertLess(metrics.ops_beyond(n, q), metrics.TAIL_MIN_BEYOND, (n, q))

    def test_too_few_ops_fall_back_to_the_median(self):
        self.assertEqual(metrics.tail_percentile(15), 50.0)
        self.assertEqual(metrics.tail_percentile(1), 50.0)

    def test_reported_tail_names_its_percentile_and_count(self):
        lat = [float(i) for i in range(1, 1001)]
        out = metrics.foreground_latency(lat, [True] * 1000, limit_us=1e9)
        self.assertEqual((out["tail_pct"], out["tail_beyond"], out["tail_us"]), (99.0, 10, 990.0))


def span(name, parent, start, dur):
    return {"name": name, "parent": parent, "start_us": start, "dur_us": dur}


class SpanSelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [span("setup", -1, 0.0, 100.0), span("cluster", 0, 0.0, 60.0),
                 span("runtime", 0, 60.0, 10.0), span("populate", 0, 70.0, 25.0)]
        self.assertEqual(metrics.span_self_times(spans), [5.0, 60.0, 10.0, 25.0])

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [span("p", -1, 0.0, 100.0), span("a", 0, 10.0, 20.0), span("b", 0, 20.0, 30.0),
                 span("c", 0, 90.0, 30.0)]
        # Covered: [10, 50) and [90, 100) -> 50 us.
        self.assertEqual(metrics.span_self_times(spans)[0], 50.0)

    def test_grandchildren_do_not_reduce_the_root(self):
        spans = [span("p", -1, 0.0, 10.0), span("c", 0, 0.0, 4.0), span("g", 1, 0.0, 4.0)]
        self.assertEqual(metrics.span_self_times(spans), [6.0, 0.0, 4.0])


def raw_document():
    """A minimal ufbench document: two ops, one failed, and a traced repetition."""
    rep = {"traced": False, "cluster_s": 0.1, "runtime_s": 0.01, "populate_s": 0.0, "run_s": 1.0,
           "segment_s": [0.25, 0.5, 0.25], "cluster_rss_bytes": 1000, "events": 100, "sim_end_ps": 5000000,
           "issued": 2, "completed": 1, "failed": 1, "in_flight": 0, "double_completions": 0,
           "alloc_failures": 0, "max_lateness_ps": 0, "violations": [], "outcome_digest": 7,
           "registry_digest": 9}
    return {
        "workload": "tenant_storm", "seed": 3, "limit_us": 400.0, "horizon_ps": 1000000, "peak_rss_bytes": 10**6,
        "kinds": ["gold_etrans", "storm_etrans"], "foreground": [True, False],
        "ops": {"due_ps": [0, 1000000], "end_ps": [2000000, 3000000], "state": [1, 2], "kind": [0, 1],
                "bytes": [16384, 8192]},
        "reps": [rep, dict(rep, traced=True, run_s=1.2)],
        "trace": {"spans": [span("setup", -1, 0.0, 20.0), span("setup.cluster", 0, 0.0, 15.0),
                            span("run", -1, 20.0, 100.0)]},
    }


class CheckTest(unittest.TestCase):
    def test_sound_document_passes(self):
        self.assertEqual(metrics.check(raw_document()), [])

    def test_lost_completion_and_divergent_traced_run_fail(self):
        raw = raw_document()
        raw["reps"][1] = dict(raw["reps"][1], completed=0, in_flight=1, outcome_digest=8)
        errors = metrics.check(raw)
        self.assertEqual({rep for rep, _ in errors}, {1})
        self.assertEqual(len(errors), 2)

    def test_end_to_end_counts_failures(self):
        e2e, detail = metrics.end_to_end(raw_document())
        self.assertEqual(e2e["fail_ratio"], (0.5, "ratio"))
        self.assertEqual(e2e["fg_p50_us"], (2.0, "us"))
        self.assertAlmostEqual(e2e["goodput_mbps"][0], 16384 / 1e-6 / 1e6)
        self.assertEqual(detail["ops_issued"], 2)

    def test_run_s_takes_each_stretch_at_its_fastest(self):
        # Each repetition was slowed in a different stretch; neither whole
        # repetition is as fast as the two fast stretches together.
        reps = [{"segment_s": [0.5, 1.0, 0.25], "run_s": 1.75},
                {"segment_s": [1.5, 0.5, 0.25], "run_s": 2.25}]
        self.assertEqual(metrics.fastest_run_s(reps), 1.25)


class ChromeTraceTest(unittest.TestCase):
    def test_structure(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trace.json")
            chrome_trace.write(path, raw_document())
            with open(path) as f:
                trace = json.load(f)
        events = trace["traceEvents"]
        self.assertEqual(trace["displayTimeUnit"], "ns")
        for e in events:
            self.assertIn(e["ph"], ("M", "X", "b", "e"))
            self.assertIn(e["pid"], (chrome_trace.HOST_PID, chrome_trace.SIM_PID))
        host = [e for e in events if e["ph"] == "X"]
        self.assertEqual([e["name"] for e in host], ["setup", "setup.cluster", "run"])
        self.assertTrue(all(e["pid"] == chrome_trace.HOST_PID for e in host))
        self.assertEqual(host[0]["args"]["self_us"], 5.0)
        begins = {e["id"]: e for e in events if e["ph"] == "b"}
        ends = {e["id"]: e for e in events if e["ph"] == "e"}
        self.assertEqual(set(begins), {0, 1})
        self.assertEqual(set(begins), set(ends))
        for op_id, b in begins.items():
            e = ends[op_id]
            self.assertEqual((b["pid"], b["tid"], b["cat"], b["name"]), (e["pid"], e["tid"], e["cat"], e["name"]))
            self.assertEqual(b["pid"], chrome_trace.SIM_PID)
            self.assertLessEqual(b["ts"], e["ts"])
        self.assertEqual(begins[0]["args"], {"op": 0, "ok": True})
        self.assertEqual(begins[1]["args"]["ok"], False)
        self.assertEqual((begins[1]["ts"], ends[1]["ts"]), (1.0, 3.0))
        names = {(e["pid"], e["tid"]): e["args"]["name"] for e in events if e["ph"] == "M"}
        self.assertEqual(names[(chrome_trace.SIM_PID, 1)], "gold_etrans")
        self.assertEqual(names[(chrome_trace.SIM_PID, 2)], "storm_etrans")


if __name__ == "__main__":
    unittest.main()
