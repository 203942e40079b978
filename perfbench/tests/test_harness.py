"""Self-tests of the benchmark's own code.

    python3 -m unittest discover -s perfbench/tests

The unit tests feed hand-made runner output to harness.py. The seed
invariance test builds and runs the runner program itself (about a
minute on a 4-core host, plus the first build).
"""

import copy
import json
import os
import shutil
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import harness  # noqa: E402
import run  # noqa: E402

E2E = {"setup_s", "work_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb"}


def digest(cycles=100, remote=(1, 2)):
    return {"cycles": cycles, "warp_steps": 10, "sector_accesses": 40,
            "uvm_faults": 0, "fetch_local": [5, 6],
            "fetch_remote": list(remote), "l1_hit_rate": 0.25,
            "l2_hit_rate": 0.5}


def sim_section(ops, pdes=(), mismatches=None, role="main"):
    s = {"role": role, "kind": "sim", "setup_s": [0.01],
         "peak_rss_kb": 2048,
         "passes": [{"seconds": 1.0, "warp_steps": 10 * len(ops)}],
         "ops": ops, "pdes": list(pdes)}
    if mismatches is not None:
        s["traced"] = {"mismatches": mismatches}
    return s


def op(cell, d=None, error=None, ms=1.0, pass_=0):
    o = {"id": cell, "pass": pass_, "ms": ms}
    if error:
        o["error"] = error
    else:
        o["digest"] = d if d is not None else digest()
    return o


def serve_section(ok, mismatch=0, degraded=0, busy=0, error=0):
    requests = ok + mismatch + degraded + busy + error
    return {"role": "main", "kind": "serve", "setup_s": [0.02],
            "peak_rss_kb": 2048,
            "passes": [{"seconds": 1.0, "requests": requests, "ok": ok}],
            "outcomes": {"ok": ok, "mismatch": mismatch,
                         "degraded": degraded, "busy": busy,
                         "error": error},
            "hits": ok, "requests": requests, "first_mismatch": "",
            "latency_us": [10.0] * requests}


class TailRule(unittest.TestCase):
    def test_grid_pass_reports_p90_with_ten_beyond(self):
        label, value, n, beyond = harness.tail(range(1, 109))
        self.assertEqual((label, value, n, beyond), ("p90", 98, 108, 10))

    def test_thousand_samples_reach_p99(self):
        label, value, _, beyond = harness.tail(range(1, 1001))
        self.assertEqual((label, value, beyond), ("p99", 990, 10))

    def test_one_sample_short_of_p99_stays_at_p90(self):
        label, _, _, beyond = harness.tail(range(1, 1000))
        self.assertEqual(label, "p90")
        self.assertGreaterEqual(beyond, 10)

    def test_twenty_samples_give_p50(self):
        self.assertEqual(harness.tail(range(20))[0], "p50")

    def test_too_few_samples_fall_back_to_max(self):
        self.assertEqual(harness.tail([3, 9, 1, 7, 5, 2, 8]),
                         ("max", 9, 7, 0))

    def test_order_does_not_matter(self):
        vals = list(range(200))
        self.assertEqual(harness.tail(vals), harness.tail(vals[::-1]))


class Counting(unittest.TestCase):
    def test_sim_ops_count_errors_and_mismatches(self):
        golden = {"sim_local": {"a": digest(), "b": digest(), "c": digest()}}
        raw = {"workload": "sim_local", "trace": 0, "sections": [
            sim_section([op("a"), op("b", error="boom"),
                         op("c", digest(cycles=101))])]}
        attempted, failed, problems = harness.count_ops(raw, golden)
        self.assertEqual((attempted, failed), (3, 2))
        self.assertEqual(len(problems), 2)

    def test_serve_requests_fail_unless_correct_and_ok(self):
        raw = {"workload": "serve_mix", "trace": 0,
               "sections": [serve_section(7, mismatch=1, degraded=1,
                                          busy=1)]}
        self.assertEqual(harness.count_ops(raw, {})[:2], (10, 3))

    def test_sections_add_up(self):
        golden = {"probe": {"a": digest()}}
        raw = {"workload": "serve_mix", "trace": 1, "sections": [
            serve_section(5, error=2),
            sim_section([op("a")], role="probe", mismatches=[])]}
        self.assertEqual(harness.count_ops(raw, golden)[:2], (8, 2))

    def test_result_reports_counts(self):
        golden = {"grid_small": {"a": digest()}}
        raw = {"workload": "grid_small", "trace": 0,
               "sections": [sim_section([op("a"), op("a", pass_=0)])]}
        result, _ = harness.evaluate(raw, golden)
        self.assertEqual((result["attempted"], result["failed"],
                          result["correct"]), (2, 0, True))
        self.assertEqual(set(result["metrics"]), E2E)

    def test_serve_result_has_every_metric(self):
        raw = {"workload": "serve_mix", "trace": 0,
               "sections": [serve_section(30, busy=1)]}
        result, _ = harness.evaluate(raw, {})
        self.assertEqual((result["attempted"], result["failed"],
                          result["correct"]), (31, 1, False))
        self.assertEqual(set(result["metrics"]), E2E)
        self.assertEqual(result["metrics"]["work_per_s"]["value"], 30.0)


class Estimators(unittest.TestCase):
    def test_each_cell_counts_its_fastest_pass(self):
        golden = {"sim_local": {"a": digest(), "b": digest()}}
        ops = [op("a", ms=10.0), op("b", ms=30.0),
               op("a", ms=8.0, pass_=1), op("b", ms=50.0, pass_=1)]
        sec = sim_section(ops)
        sec["passes"].append(dict(sec["passes"][0]))
        raw = {"workload": "sim_local", "trace": 0,
               "sections": [sec]}
        m = harness.evaluate(raw, golden)[0]["metrics"]
        self.assertEqual(m["op_p50_ms"]["value"], 19.0)
        self.assertEqual(m["op_tail_ms"]["value"], 30.0)
        # 10 warp steps per cell over the 38 ms of fastest runs.
        self.assertAlmostEqual(m["work_per_s"]["value"], 20 / 0.038)

    def test_serve_reports_its_best_pass(self):
        sec = serve_section(20)
        sec["passes"] = [{"seconds": 2.0, "requests": 10, "ok": 10},
                         {"seconds": 1.0, "requests": 10, "ok": 10}]
        sec["latency_us"] = [50.0] * 10 + [20.0] * 10
        raw = {"workload": "serve_mix", "trace": 0,
               "sections": [sec]}
        m = harness.evaluate(raw, {})[0]["metrics"]
        self.assertEqual(m["work_per_s"]["value"], 10.0)
        self.assertEqual(m["op_p50_ms"]["value"], 0.02)


class DigestGate(unittest.TestCase):
    def golden(self):
        with open(run.GOLDEN) as f:
            return json.load(f)

    def test_recorded_digests_pass(self):
        g = self.golden()["sim_remote"]
        ops = [op(cell, d) for cell, d in g.items()]
        self.assertEqual(harness.check_sim_section(sim_section(ops), g)[:2],
                         (len(g), 0))

    def test_one_perturbed_counter_fails_its_cell(self):
        g = self.golden()["sim_remote"]
        cell = sorted(g)[0]
        for field in ("cycles", "uvm_faults"):
            bad = copy.deepcopy(g[cell])
            bad[field] += 1
            ops = [op(c, bad if c == cell else d) for c, d in g.items()]
            _, failed, problems = harness.check_sim_section(
                sim_section(ops), g)
            self.assertEqual(failed, 1)
            self.assertIn(cell, problems[0])
            self.assertIn(field, problems[0])

    def test_one_node_fetch_perturbed(self):
        bad = digest(remote=(1, 3))
        self.assertEqual(harness.diff_digest(digest(), bad),
                         ["fetch_remote"])


class PdesEngagement(unittest.TestCase):
    cell = "VecAdd/ladm@4/shards2"

    def failed(self, fallback, shards):
        g = {self.cell: digest()}
        s = sim_section([op(self.cell)], pdes=[
            {"id": self.cell, "fallback": fallback, "shards": shards}])
        return harness.check_sim_section(s, g)[1]

    def test_engaged(self):
        self.assertEqual(self.failed(0, 2), 0)

    def test_serial_fallback_fails(self):
        self.assertEqual(self.failed(1, 2), 1)

    def test_wrong_shard_count_fails(self):
        self.assertEqual(self.failed(0, 1), 1)

    def test_missing_gauge_fails(self):
        self.assertEqual(self.failed(-1, 1), 1)


class Composition(unittest.TestCase):
    def test_mismatch_fails_the_cell(self):
        g = {"a": digest(), "b": digest()}
        s = sim_section([op("a"), op("b")],
                        mismatches=[{"id": "b", "fields": ["cycles"]}])
        attempted, failed, problems = harness.check_sim_section(s, g)
        self.assertEqual((attempted, failed), (2, 1))
        self.assertIn("composition", problems[0])


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted(self):
        spans = harness.parse_spans(
            "main\t0\t0\t-1\tcell\t0\t0\t100\n"
            "main\t0\t1\t0\tsim.run_kernel\t0\t10\t70\n"
            "main\t0\t2\t0\tsim.destroy\t0\t70\t90\n"
            "main\t1\t0\t-1\tcell\t1\t0\t50\n")
        selfs = harness.self_times(spans)
        self.assertEqual(selfs[("main", "cell")], [20e-9, 50e-9])
        self.assertEqual(selfs[("main", "sim.run_kernel")], [60e-9])


class SeedInvariance(unittest.TestCase):
    def raw(self, ops):
        return {"sections": [sim_section(ops)]}

    def test_reordered_cells_agree(self):
        a = self.raw([op("x", digest(1)), op("y", digest(2))])
        b = self.raw([op("y", digest(2)), op("x", digest(1))])
        self.assertEqual(harness.seed_invariance(a, b), [])

    def test_leaked_state_is_reported(self):
        a = self.raw([op("x", digest(1)), op("y", digest(2))])
        b = self.raw([op("y", digest(2)), op("x", digest(5))])
        self.assertEqual(harness.seed_invariance(a, b), [("x", ["cycles"])])

    @unittest.skipUnless(shutil.which("cmake"), "needs cmake to build")
    def test_two_seeds_give_identical_digests(self):
        runner = run.build()
        golden = run.load_golden()
        for w in ("grid_small", "sim_remote", "sim_local"):
            a, _ = run.run_bench(runner, w, 1, 0, False)
            b, _ = run.run_bench(runner, w, 2, 0, False)
            order = [[o["id"] for o in r["sections"][0]["ops"]]
                     for r in (a, b)]
            self.assertNotEqual(order[0], order[1], w)
            self.assertEqual(harness.seed_invariance(a, b), [], w)
            self.assertEqual(
                harness.check_sim_section(a["sections"][0], golden[w])[1],
                0, w)


if __name__ == "__main__":
    unittest.main()
