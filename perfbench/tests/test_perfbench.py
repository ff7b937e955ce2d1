"""Self-tests for the benchmark harness.

Run from the root of a source checkout:
  python3 -m unittest discover -s perfbench/tests
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import ops  # noqa: E402
import run  # noqa: E402


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def printed_metrics(stdout: str) -> dict:
    """{name: value} of the metric lines "  name value unit"; n/a is None."""
    out = {}
    for line in stdout.splitlines():
        m = re.match(r"  (\S+)\s+(\S+)", line)
        if m:
            out[m[1]] = None if m[2] == "n/a" else float(m[2])
    return out


def run_bench(*args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )


class TailPercentile(unittest.TestCase):
    def test_ladder_choice(self):
        for n, want in ((24, 50), (451, 95), (7190, 99.5)):
            with self.subTest(n=n):
                self.assertEqual(ops.tail_percentile(n), want)

    def test_at_least_ten_beyond_and_next_rung_has_fewer(self):
        for n in (24, 451, 7190):
            p = ops.tail_percentile(n)
            self.assertGreaterEqual(n - math.ceil(p / 100 * n), 10)
            higher = [q for q in ops.TAIL_LADDER if q > p]
            self.assertLess(n - math.ceil(higher[0] / 100 * n), 10)

    def test_summary_uses_nearest_rank(self):
        s = ops.latency_summary([i / 1000 for i in range(1, 452)])  # 1..451 ms
        self.assertEqual(s["ops"], 451)
        self.assertEqual(s["tail_percentile"], 95)
        self.assertAlmostEqual(s["op_tail_ms"], 429.0)  # ceil(0.95 * 451) = 429
        self.assertAlmostEqual(s["op_p50_ms"], 226.0)


class FailuresCount(unittest.TestCase):
    def test_planted_wrong_value(self):
        refs = ops.load_refs("oracle")
        op = "b:B3L5:g2"
        good = ops.check_oracle({op: [refs["goldens"][op], refs["goldens"][op]]}, {op}, refs)
        bad = ops.check_oracle({op: [refs["goldens"][op] + 1, refs["goldens"][op] + 1]}, {op},
                               refs)
        self.assertTrue(good[0].ok)
        t = ops.tally(good + bad, known={})
        self.assertEqual((t.attempted, len(t.failures)), (2, 1))
        self.assertEqual(t.fail_frac, 0.5)
        self.assertEqual([o.op for o in t.unexpected], [op])

    def test_planted_wrong_row(self):
        refs = ops.load_refs("tables")
        rows = refs["B2L3"]["rows"]
        built = {f"B2L3:{i}": d for i, d in enumerate(rows)}
        reloaded = dict(built, **{"B2L3:3": "0" * 16})
        outcomes = ops.check_tables(built, reloaded, {"B2L3": refs["B2L3"]["sha256"]}, 0, refs)
        t = ops.tally(outcomes, known={})
        self.assertEqual(t.attempted, len(rows) + 2)
        self.assertEqual([o.op for o in t.failures], ["B2L3:3"])

    def test_rows_computed_on_reload(self):
        refs = ops.load_refs("tables")
        built = {f"B2L3:{i}": d for i, d in enumerate(refs["B2L3"]["rows"])}
        outcomes = ops.check_tables(built, built, {"B2L3": refs["B2L3"]["sha256"]}, 4, refs)
        t = ops.tally(outcomes, known={})
        self.assertEqual([(o.op, o.kind) for o in t.unexpected],
                         [("reload:from-cache", "rows computed")])

    def test_missing_and_extra_operations(self):
        refs = ops.load_refs("tables")
        built = {f"B2L3:{i}": d for i, d in enumerate(refs["B2L3"]["rows"])}
        del built["B2L3:0"]
        outcomes = ops.check_tables(built, built, {"B2L3": refs["B2L3"]["sha256"]}, 0, refs)
        self.assertEqual([(o.op, o.kind) for o in outcomes if not o.ok],
                         [("B2L3:0", ops.MISSING)])

        refs = ops.load_refs("fock")
        expected = ops.fock_op_ids("smoke", refs)
        results = {op: ["0", refs["entries"][op]] for op in sorted(expected)[1:]}
        results["r9s9:[1]"] = ["0", "x"]
        t = ops.tally(ops.check_fock(results, expected, refs), known={})
        self.assertEqual(t.attempted, len(expected) + 1)
        self.assertEqual(sorted(o.kind for o in t.unexpected), [ops.EXTRA, ops.MISSING])

        refs = ops.load_refs("oracle")
        expected = ops.oracle_op_ids("smoke", refs)
        self.assertEqual(len(expected), 3 ** 3 + 6 ** 3 + 2)
        t = ops.tally(ops.check_oracle({}, expected, refs), known={})
        self.assertEqual((t.attempted, len(t.unexpected)), (len(expected), len(expected)))

    def test_planted_traceback_in_cli_output(self):
        refs = ops.load_refs("cli")
        stderr = 'Traceback (most recent call last):\n  File "x"\nTypeError: boom\n'
        o = ops.check_cli("theta-counts", 1, "", stderr, refs)
        self.assertFalse(o.ok)
        self.assertIn("TypeError: boom", o.detail)
        self.assertEqual(o.kind, "TypeError")
        t = ops.tally([o, ops.check_cli("theta-counts", 0, refs["theta-counts"]["stdout"], "", refs)],
                      known=ops.load_known_defects()["cli"])
        self.assertEqual((len(t.failures), len(t.unexpected), t.fail_frac), (1, 1, 0.5))

    def test_planted_traceback_in_a_phase_process(self):
        with tempfile.TemporaryDirectory() as tmp:
            runner = run.Runner(tmp, deadline=run.clock() + 60)
            child = runner.spawn({"phase": "no-such-phase"}, tmp)
        self.assertEqual(child.returncode, 1)
        self.assertIn("Traceback", child.stderr)
        failure = child.failure("oracle")
        self.assertIsNotNone(failure)
        self.assertEqual(ops.tally([failure], known={}).fail_frac, 1.0)

    def test_known_defects_are_failures_but_not_unexpected(self):
        known = ops.load_known_defects()["oracle"]
        o = ops.Outcome("c:B3L5:g12", False, "PrecisionError: ...", "PrecisionError")
        t = ops.tally([o, ops.Outcome("x", True)], known)
        self.assertEqual((len(t.failures), t.unexpected, t.fail_frac), (1, [], 0.5))

    def test_known_defect_failing_differently_is_unexpected(self):
        refs = ops.load_refs("oracle")
        op = "c:B3L5:g12"  # known to raise PrecisionError
        wrong = ops.check_oracle({op: [None, refs["goldens"][op] + 1]}, {op}, refs)
        t = ops.tally(wrong, ops.load_known_defects()["oracle"])
        self.assertEqual([(o.op, o.kind) for o in t.unexpected], [(op, ops.WRONG)])


class PerLayer(unittest.TestCase):
    def test_self_time_per_process(self):
        """Span ids restart in every process; parents resolve within one."""
        def child(spans):
            return run.Child(0, 0.0, 1.0, {"t_ready": 0.0, "trace": {"run_id": "t", "spans": spans,
                                                                     "counts": {"x": 1}}}, "", "")

        traced = run.Pass(children=[
            child([(1, None, "cli.main", 0.0, 1.0), (2, 1, "fusion.genus", 0.1, 0.5)]),
            child([(1, None, "fusion.genus", 0.0, 2.0), (2, 1, "fusion.product", 0.5, 1.0)]),
        ])
        layers = run.per_layer(traced, run.Pass(children=[child([])]))
        self.assertAlmostEqual(layers["cli.main.self_s"], 0.6)
        self.assertAlmostEqual(layers["fusion.genus.calls"], 2)
        self.assertAlmostEqual(layers["fusion.genus.self_s"], 0.4 + 1.5)
        self.assertAlmostEqual(layers["fusion.product.self_s"], 0.5)
        self.assertAlmostEqual(layers["trace.overhead_s"], 1.0)

    def test_times_scale_with_the_calibration(self):
        slow = {"t_ready": 1.0, "t_work_done": 3.0, "calib_ready_s": 0.1, "calib_done_s": 0.6,
                "calib_total_s": 0.7, "calib": [2 * ops.CALIB_REF_S] * 2, "latencies": [0.2]}
        c = run.Child(0, 0.5, 3.7, slow, "", "")
        self.assertAlmostEqual(c.scale, 0.5)
        self.assertAlmostEqual(c.setup_raw_s, 0.4)
        self.assertAlmostEqual(c.setup_s, 0.2)
        self.assertAlmostEqual(c.work_raw_s, 2.1)
        self.assertAlmostEqual(c.work_s, 1.05)
        self.assertAlmostEqual(c.phase_s, 0.75)
        self.assertAlmostEqual(c.latency_s, 1.25)
        self.assertEqual(c.latencies, [0.1])

    def test_pass_without_latencies(self):
        m = run.Pass(children=[run.Child(1, 0.0, 1.0, {}, "", "boom")]).metrics()
        self.assertEqual((m["ops"], m["wall_s"]), (0, 1.0))
        self.assertNotIn("op_p50_ms", m)


class SeedPermutation(unittest.TestCase):
    def outputs(self, workload: str, seed: int):
        spec = {"seed": seed, "size": "smoke", "trace": False, "run_id": "test"}
        refs = ops.load_refs(workload)
        with tempfile.TemporaryDirectory() as tmp:
            runner = run.Runner(tmp, deadline=run.clock() + 120)
            p = run.run_pass(workload, runner, spec, tmp, refs)
        self.assertTrue(all(o.ok for o in p.outcomes), [o for o in p.outcomes if not o.ok])
        if workload == "cli":
            return {o.op: o.ok for o in p.outcomes}, [c.stdout for c in p.children]
        key = "rows" if workload == "tables" else "results"
        return {i: c.result[key] for i, c in enumerate(p.children)}, None

    def test_outputs_identical_across_seeds(self):
        for workload in ops.WORKLOADS:
            with self.subTest(workload=workload):
                a, order_a = self.outputs(workload, 1)
                b, order_b = self.outputs(workload, 2)
                self.assertEqual(a, b)
                if workload == "cli":
                    self.assertEqual(sorted(order_a), sorted(order_b))
                else:
                    # same outputs, different order of operations
                    self.assertNotEqual([list(v) for v in a.values()],
                                        [list(v) for v in b.values()])


class Smoke(unittest.TestCase):
    def test_untraced_smoke_runs(self):
        for workload in ops.WORKLOADS:
            with self.subTest(workload=workload):
                proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                                 "--trace", "0", "--smoke")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                last = last_json(proc.stdout)
                self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(last["correct"])
                self.assertGreaterEqual(last["attempted"], 1)
                self.assertEqual(list(last["metrics"]), list(run.E2E_GATED))
                printed = printed_metrics(proc.stdout)
                self.assertEqual(set(printed), set(run.E2E))
                own = {n for n, (_, only) in run.E2E.items() if only in (None, workload)}
                self.assertEqual({n for n, v in printed.items() if v is not None}, own)

    def test_traced_counts_repeat_and_self_times_are_sane(self):
        counts = []
        for seed in (1, 2):
            proc = run_bench("--workload", "cli", "--seed", str(seed), "--seconds", "1",
                             "--trace", "1", "--smoke")
            self.assertEqual(proc.returncode, 0, proc.stderr)
            layers = {k: v for k, v in printed_metrics(proc.stdout).items() if k in run.PER_LAYER}
            self.assertEqual(set(layers), set(run.PER_LAYER))
            metrics = last_json(proc.stdout)["metrics"]
            self.assertEqual(list(metrics), list(run.PER_LAYER_GATED))
            counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] == "count"})
            # span ids restart in every process; self times must still be >= 0
            for name, value in layers.items():
                if name.endswith(".self_s"):
                    self.assertGreaterEqual(value, 0.0, name)
            self.assertGreater(layers["fusion.product.self_s"], 0.0)
        self.assertEqual(counts[0], counts[1])
        for name in ("fusion.triple.calls", "verlinde.smatrix.builds", "branching.pairs.calls",
                     "fock.matrix.calls", "cli.invocations"):
            self.assertGreater(counts[0][name], 0, name)

    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(BENCH, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "tables", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class BenchmarkJson(unittest.TestCase):
    def test_metric_lists_match_the_harness(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(run.E2E_GATED))
        for m in spec["end_to_end"]:
            self.assertEqual(m["unit"], run.E2E[m["name"]][0])
        self.assertEqual([m["name"] for m in spec["per_layer"]], list(run.PER_LAYER_GATED))
        for m in spec["per_layer"]:
            self.assertEqual(m["unit"], run.PER_LAYER[m["name"]])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(ops.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
