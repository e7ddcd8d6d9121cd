"""Self-tests of the benchmark harness (not of ``repro``).

Run from the repository root::

    python3 perfbench/selftest.py

Every workload runs end to end at a tiny scale, the layer wrappers must
leave ``repro`` exactly as they found it, and an injected wrong answer
must be counted and fail the run.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")  # matched whole
TINY = ["--scale", "0.05", "--seconds", "0.2"]


def bench(*args, env=None, cwd=ROOT) -> tuple[int, dict | None, str]:
    """Run the benchmark command; returns (exit status, result, stderr)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, result, proc.stderr


class SpecTest(unittest.TestCase):
    def test_metric_names(self):
        names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
        names += [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(NAME.fullmatch(name), name)

    def test_name_check_rejects_bad_names(self):
        for name in ("query p50", "lookup_p50_\u00b5s", "_lead", "", "x" * 65):
            self.assertIsNone(NAME.fullmatch(name), name)

    def test_workloads_match(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.WORKLOADS))

    def test_every_layer_metric_names_what_it_moves(self):
        self.assertEqual({m["name"] for m in SPEC["per_layer"]}, set(layers.SHOULD_MOVE))


class WorkloadTest(unittest.TestCase):
    def check_run(self, workload: str, trace: int, key: str) -> None:
        status, result, err = bench("--workload", workload, "--seed", "3", "--trace", str(trace), *TINY)
        self.assertEqual(status, 0, err)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in SPEC[key]})
        for name, metric in result["metrics"].items():
            self.assertTrue(NAME.fullmatch(name), name)
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_end_to_end(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                self.check_run(workload, 0, "end_to_end")

    def test_traced(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                self.check_run(workload, 1, "per_layer")

    def test_injected_error_fails_the_run(self):
        for workload in ("exact", "serve"):
            with self.subTest(workload=workload):
                status, result, _ = bench("--workload", workload, "--inject-error", *TINY)
                self.assertEqual(status, 1)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)

    def test_pinned_setting_refuses_to_run(self):
        env = dict(os.environ, REPRO_WORKERS="2")
        status, result, err = bench("--workload", "exact", *TINY, env=env)
        self.assertEqual(status, 2)
        self.assertIsNone(result)
        self.assertIn("REPRO_WORKERS", err)

    def test_without_sources_fails_without_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            status, result, _ = bench("--workload", "exact", *TINY, cwd=tmp)
        self.assertNotEqual(status, 0)
        self.assertIsNone(result)


class LayerClockTest(unittest.TestCase):
    def test_wrappers_are_removed(self):
        import repro
        from repro.graph.graph import complete_graph

        repro.densest_subgraph(complete_graph(6), 3, method="core-exact")  # lazy imports
        before = layers.repro_namespace()
        original = repro.api.densest_subgraph
        clock = layers.LayerClock()
        clock.install()
        try:
            self.assertIsNot(repro.api.densest_subgraph, original)
            repro.densest_subgraph(complete_graph(6), 3, method="core-exact")
        finally:
            clock.uninstall()
        self.assertEqual(layers.repro_namespace(), before)
        self.assertIs(repro.api.densest_subgraph, original)
        self.assertEqual(clock.calls["api.overhead_s"], 1)
        self.assertGreater(clock.calls["flow.solve_s"], 0)
        self.assertAlmostEqual(sum(clock.self_s.values()), clock.covered_s, delta=1e-9)


class OracleTest(unittest.TestCase):
    def test_counts_on_complete_graphs(self):
        from repro.graph.graph import complete_graph

        k6 = complete_graph(6)
        everything = set(k6.vertices())
        self.assertEqual(oracle.instance_count(k6, everything, 2), 15)
        self.assertEqual(oracle.instance_count(k6, everything, 3), 20)
        self.assertEqual(oracle.instance_count(k6, everything, 4), 15)
        self.assertEqual(oracle.instance_count(k6, everything, "2-star"), 6 * 10)
        self.assertEqual(oracle.instance_count(k6, everything, "diamond"), 3 * 15)

    def test_wrong_density_is_reported(self):
        from repro.graph.graph import complete_graph

        k4 = complete_graph(4)
        self.assertIsNone(oracle.check_density(k4, set(k4.vertices()), 3, 1.0))
        self.assertIsNotNone(oracle.check_density(k4, set(k4.vertices()), 3, 1.5))
        self.assertIsNotNone(oracle.check_approx(0.2, 1.0, 4))
        self.assertIsNone(oracle.check_approx(0.25, 1.0, 4))


if __name__ == "__main__":
    unittest.main()
