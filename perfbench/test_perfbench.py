#!/usr/bin/env python3
"""Tests of the benchmark itself (not of nadmm).

    python3 perfbench/test_perfbench.py

The input and output tests build the workload program (as run.py does)
and run short workloads, so the whole file takes a minute or two.
"""

import filecmp
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

SCRATCH = run.ROOT / ".bench_build" / "perfbench-test"


def span(cat, name, begin, end):
    return {"cat": cat, "name": name, "track": 0,
            "wall_begin": begin, "wall_end": end}


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            span("runner", "run_solver", 0.0, 10.0),
            span("core", "local_step", 1.0, 5.0),
            span("kernel", "gemm_nn", 2.0, 3.0),
            span("kernel", "gemm_tn", 3.5, 4.5),
            span("comm", "deliver", 6.0, 8.0),
            span("wire", "decode", 6.5, 7.0),
            span("data", "generate", 20.0, 21.0),
        ]
        by_span = run.self_times(spans)
        self.assertAlmostEqual(by_span[("runner", "run_solver")], 4.0)
        self.assertAlmostEqual(by_span[("core", "local_step")], 2.0)
        self.assertAlmostEqual(by_span[("kernel", "gemm_nn")], 1.0)
        self.assertAlmostEqual(by_span[("comm", "deliver")], 1.5)
        self.assertAlmostEqual(by_span[("wire", "decode")], 0.5)
        layers = run.layer_self_times(by_span)
        self.assertAlmostEqual(layers["la"], 2.0)
        self.assertAlmostEqual(layers["data"], 1.0)
        self.assertEqual(set(layers), set(run.SELF_LAYERS))
        # Self times partition the covered wall time.
        self.assertAlmostEqual(sum(layers.values()), 11.0)

    def test_order_of_input_does_not_matter(self):
        spans = [span("kernel", "gemm_nn", 2.0, 3.0),
                 span("core", "local_step", 1.0, 5.0),
                 span("core", "local_step", 5.0, 6.0)]
        by_span = run.self_times(list(reversed(spans)))
        # Touching spans are siblings, and one name's spans add up.
        self.assertAlmostEqual(by_span[("core", "local_step")], 4.0)
        self.assertAlmostEqual(by_span[("kernel", "gemm_nn")], 1.0)

    def test_tail_percentile(self):
        value, pct, n = run.tail(list(range(1, 41)))
        self.assertEqual((value, pct, n), (30, 75.0, 40))
        self.assertEqual(run.tail([3.0, 1.0]), (3.0, 100.0, 2))


class Declared(unittest.TestCase):
    def test_names_are_valid_and_unique(self):
        e2e, layers = run.declared()
        names = [m["name"] for m in e2e + layers]
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        self.assertEqual(len(names), len(set(names)))
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        workloads = [w["name"] for w in spec["workloads"]]
        self.assertEqual(tuple(workloads), run.WORKLOADS)
        for m in e2e + layers:
            self.assertRegex(m["unit"], r"^[A-Za-z0-9_/%.-]{1,16}$")
            self.assertIn(m["better"], ("higher", "lower"))


def bench(workload, trace, seed=3, seconds=1):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], capture_output=True, text=True, cwd=run.ROOT,
        check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


class Built(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def prepare(self, workload, seed, name):
        d = SCRATCH / name
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        run.program("prepare", workload, "--seed", seed, "--dir", d)
        return d

    def test_one_seed_gives_identical_inputs(self):
        for workload, file in (("sparse-libsvm", "e18.libsvm"),
                               ("dense-sync", "model.txt")):
            a = self.prepare(workload, 7, "a") / file
            b = self.prepare(workload, 7, "b") / file
            c = self.prepare(workload, 8, "c") / file
            self.assertTrue(filecmp.cmp(a, b, shallow=False), workload)
            self.assertFalse(filecmp.cmp(a, c, shallow=False), workload)
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def test_every_declared_metric_is_printed(self):
        e2e, layers = run.declared()
        for workload, trace, spec in (("dense-sync", 0, e2e),
                                      ("dense-sync", 1, layers),
                                      ("async-faulty", 1, layers)):
            result = bench(workload, trace)
            self.assertEqual(set(result), {"correct", "attempted", "failed",
                                           "metrics"})
            self.assertTrue(result["correct"], (workload, trace))
            self.assertEqual(result["failed"], 0)
            self.assertEqual(list(result["metrics"]),
                             [m["name"] for m in spec])
            for m in spec:
                got = result["metrics"][m["name"]]
                self.assertEqual(got["unit"], m["unit"])
                self.assertIsInstance(got["value"], (int, float))


if __name__ == "__main__":
    unittest.main()
