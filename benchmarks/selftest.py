"""Self-tests for the benchmark's own logic.

    python3 benchmarks/selftest.py

They cover the percentile rule, golden mismatch detection, the exit-code
rule for refused queries, the query generator, the tracer and the speed
gauge.  They take a few seconds and do not time anything.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import call_cli, digest  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        samples = list(range(1, 101))
        self.assertEqual(stats.percentile(samples, 50), 50)
        self.assertEqual(stats.percentile(samples, 99), 99)
        self.assertEqual(stats.percentile([7.0], 99), 7.0)

    def test_ten_beyond_needs_a_thousand_distinct_samples(self):
        self.assertFalse(stats.tail_is_resolved([float(i) for i in range(999)]))
        self.assertTrue(stats.tail_is_resolved([float(i) for i in range(1000)]))

    def test_ties_at_the_top_leave_the_tail_unresolved(self):
        samples = [float(i) for i in range(980)] + [5000.0] * 20
        self.assertEqual(stats.beyond(samples, stats.percentile(samples, 99)), 0)
        self.assertFalse(stats.tail_is_resolved(samples))

    def test_empty_sample_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)


class SpeedGauge(unittest.TestCase):
    def gauge(self, samples):
        gauge = speed.Gauge()
        gauge.times = [t for t, _ in samples]
        gauge.samples = [d for _, d in samples]
        return gauge

    def test_scale_uses_the_samples_around_the_interval(self):
        ref = speed.REFERENCE_S
        gauge = self.gauge([(0.0, ref), (1.0, 2 * ref), (1.05, 2 * ref), (1.3, 4 * ref), (2.0, ref)])
        self.assertEqual(gauge.scale(1.0, 1.1), 0.5)
        self.assertEqual(gauge.scale(1.0, 1.25), 0.5)

    def test_a_long_interval_is_scaled_piece_by_piece(self):
        # Samples every 0.05 s; the host runs at half speed from 1 s on.
        ref = speed.REFERENCE_S
        gauge = self.gauge([((k + 0.5) / 20, ref if k < 20 else 2 * ref) for k in range(40)])
        self.assertEqual(gauge.scale(0.0, 2.0), 0.75)

    def test_scale_falls_back_to_every_sample(self):
        ref = speed.REFERENCE_S
        self.assertEqual(self.gauge([(0.0, 2 * ref)]).scale(5.0, 6.0), 0.5)
        with self.assertRaises(RuntimeError):
            self.gauge([]).scale(0.0, 1.0)

    def test_samples_are_taken_and_their_time_counted(self):
        gauge = speed.Gauge()
        warm = gauge.spent
        self.assertGreater(warm, 0)
        gauge.start()
        try:
            deadline = perf_counter() + 20 * speed.INTERVAL_S
            while perf_counter() < deadline:
                pass
        finally:
            gauge.stop()
        self.assertGreaterEqual(len(gauge.samples), 5)
        self.assertEqual(list(gauge.times), sorted(gauge.times))
        self.assertGreaterEqual(gauge.spent - warm, sum(gauge.samples))


class GoldenChecks(unittest.TestCase):
    def test_verify_text_mutation_is_caught(self):
        check = workloads.VerifyDefault().checker()
        text = (workloads.GOLDEN_DIR / "verify-default.txt").read_text(encoding="utf-8")
        self.assertTrue(check("verify", (0, text)))
        self.assertFalse(check("verify", (0, text.replace("ok  ", "FAIL", 1))))
        self.assertFalse(check("verify", (1, text)))

    def test_query_output_mutation_is_caught(self):
        workload, ops = first_query_pass(5)
        check = workload.checker()
        key, fn = next(op for op in ops if workload.expected[op[0]].startswith("0 "))
        rc, out = fn()
        self.assertTrue(check(key, (rc, out)))
        self.assertFalse(check(key, (rc, out + " ")))
        self.assertFalse(check("rep-index --algebra E6 --weight 9,9,9,9,9,9,9", (rc, out)))

    def test_refused_query_succeeds_only_with_exit_2(self):
        workload, ops = first_query_pass(5)
        check = workload.checker()
        refused = [op for op in ops if workload.expected[op[0]].startswith("2 ")]
        self.assertEqual(len(refused), workloads.QUERY_MIX["invalid"])
        for key, fn in refused[:20]:
            result = fn()
            self.assertEqual(result[0], 2, key)
            self.assertTrue(check(key, result), key)
            self.assertFalse(check(key, (0, result[1])), key)
            self.assertFalse(check(key, (1, result[1])), key)


def first_query_pass(seed: int):
    """A queries workload for seed, and its first pass."""
    workload = workloads.Queries()
    passes = workload.passes(seed)
    ops = next(passes)
    passes.close()
    return workload, ops


class QueryGenerator(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.pool = workloads.query_pool()

    def test_same_seed_same_passes(self):
        self.assertEqual(workloads.query_pool(), self.pool)
        passes = workloads.query_passes(3, self.pool)
        self.assertEqual(workloads.query_passes(3, self.pool), passes)
        self.assertNotEqual(workloads.query_passes(4, self.pool)[0], passes[0])

    def test_a_run_sends_every_pool_entry_once(self):
        passes = workloads.query_passes(11, self.pool)
        self.assertEqual([len(p) for p in passes], [workloads.PASS_LENGTH] * workloads.POOL_PASSES)
        sent = sorted(key for p in passes for key in map(workloads.query_key, p))
        self.assertEqual(sent, sorted(workloads.query_key(argv) for _, argv in self.pool))

    def test_mix_is_exact_in_every_pass(self):
        for start in range(0, len(self.pool), workloads.PASS_LENGTH):
            block = self.pool[start:start + workloads.PASS_LENGTH]
            counts: dict[str, int] = {}
            for category, _ in block:
                counts[category] = counts.get(category, 0) + 1
            self.assertEqual(counts, workloads.QUERY_MIX)

    def test_only_the_fixed_categories_repeat(self):
        seen, repeats = set(), 0
        for category, argv in self.pool:
            key = workloads.query_key(argv)
            if key in seen:
                self.assertIn(category, ("index-simplest", "table"), key)
                repeats += 1
            seen.add(key)
        self.assertLessEqual(repeats / len(self.pool), 0.06)

    def test_recorded_streams_are_reproduced(self):
        streams = json.loads((workloads.GOLDEN_DIR / "queries.json").read_text())["streams"]
        self.assertGreaterEqual(len(streams), 2)
        for seed, recorded in streams.items():
            first = workloads.query_passes(int(seed), self.pool)[0]
            self.assertEqual(digest("\n".join(map(workloads.query_key, first))), recorded)

    def test_every_pool_entry_has_a_golden(self):
        golden = json.loads((workloads.GOLDEN_DIR / "queries.json").read_text())
        self.assertEqual(golden["pool_sha256"], workloads.pool_digest(self.pool))
        self.assertEqual(len(golden["pool"]), len(self.pool))

    def test_index_inputs_stay_in_range(self):
        for category, argv in self.pool:
            if category != "index-classical":
                continue
            parts = [int(x) for x in argv[4].split(",")]
            self.assertLessEqual(len(parts), 100)
            self.assertGreaterEqual(max(parts), 2)
            self.assertTrue(workloads.MODULE_SIZES[0] <= sum(parts) <= workloads.MODULE_SIZES[1])


class Tracer(unittest.TestCase):
    def test_spans_rebind_every_reference_and_nest(self):
        from dynkindex import cli, orbits, rootsystems, sl2

        original_main, original_index = cli.main, sl2.classical_index
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIs(orbits.classical_index, sl2.classical_index)
            self.assertIsNot(sl2.classical_index, original_index)
            result = call_cli(["index", "--algebra", "sl6", "--partition", "3,2,1"])
            self.assertEqual(result[0], 0)
            call_cli(["poset", "--kind", "sl", "--n", "6", "--format", "json"])
            rootsystems.RootSystem(rootsystems.LieType("B", 3))
        finally:
            tracer.uninstall()
        self.assertIs(cli.main, original_main)
        self.assertIs(orbits.classical_index, original_index)
        spans = tracer.spans
        self.assertEqual(spans["cli.main"].calls, 2)
        self.assertGreaterEqual(spans["sl2.branch_adjoint"].calls, 1)
        self.assertEqual(spans["orbits.build_poset"].calls, 1)
        self.assertEqual(tracer.counts["orbits.poset_nodes"], 11)
        self.assertEqual(tracer.counts["rootsystems.roots_built"], 9)
        self.assertEqual(tracer.span_violations(), [])
        main = spans["cli.main"]
        self.assertLess(main.self_s, main.s)

    def test_benchmark_json_names_every_layer_metric(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        declared = {(m["name"], m["unit"]) for m in spec["per_layer"]}
        emitted = {(name, m["unit"]) for name, m in tracing.layer_metrics(tracing.Tracer()).items()}
        emitted.add(("trace.overhead", "ratio"))
        self.assertEqual(declared, emitted)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual(run.WORKLOAD_NAMES, tuple(workloads.WORKLOADS))


class EmptyCheckout(unittest.TestCase):
    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, Path(tmp) / HERE.name)
            shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "queries",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertEqual(proc.returncode, 2)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
