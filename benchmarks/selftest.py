"""Self-test of the benchmark.

    python3 benchmarks/selftest.py

Run from the root of a checkout; it takes about a minute.  Two traced
runs of every workload must give identical work counts, their outputs
must pass the checks, a corrupted reference must fail them, and no
tracing wrapper may outlive a traced run.  A run under the speed sampler
must pass its checks and sample every kernel.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import unittest

import run
import speed
from workloads import WORKLOADS


class TracedRuns(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        run.WORK.mkdir(exist_ok=True)
        sys.path.insert(0, str(run.ROOT / "src"))
        run.compile_sources()
        import layers

        cls.runs = {}
        for name, workload_type in WORKLOADS.items():
            workload = workload_type(1, run.WORK)
            spans = run.WORK / "selftest-spans.jsonl"
            argv = run.python(str(run.HERE / "child.py"), "--trace",
                              str(spans), *workload.child_args())
            traced = []
            for _ in range(2):
                child = run.run_child(argv, "selftest")
                metrics = layers.layer_metrics(layers.load_spans(spans),
                                               child.wall_s)
                traced.append((child, metrics))
            cls.runs[name] = (workload, traced)

    def test_counts_repeat_exactly(self):
        import layers

        for name, (_, traced) in self.runs.items():
            (_, first), (_, second) = traced
            for key in layers.COUNT_METRICS:
                with self.subTest(workload=name, metric=key):
                    self.assertEqual(first[key], second[key])

    def test_self_times_and_remainder_sum_to_wall(self):
        import layers

        for name, (_, traced) in self.runs.items():
            for _, m in traced:
                total = sum(m[f"{mod}.self_s"] for mod in layers.MODULES)
                self.assertTrue(math.isclose(total + m["trace.remainder_s"],
                                             m["trace.wall_s"]), name)

    def test_outputs_pass_their_checks(self):
        for name, (workload, traced) in self.runs.items():
            for child, _ in traced:
                outcome = workload.check(child.returncode, child.out)
                self.assertEqual((outcome.failed, child.returncode), (0, 0),
                                 name)

    def test_corrupted_reference_lowers_ok_ratio(self):
        corrupt = {
            "deep-table": lambda w: w.reference.update(sha256="0" * 64),
            "verify-suite": lambda w: w.reference["statuses"].update(
                {"row-sum": "fail"}),
            # (47, 24) is a frontier query, asked on every seed
            "count-session": lambda w: w.linear[47].__setitem__(
                24, w.linear[47][24] + 1),
        }
        for name, (_, traced) in self.runs.items():
            child, _ = traced[0]
            workload = WORKLOADS[name](1, run.WORK)
            corrupt[name](workload)
            outcome = workload.check(child.returncode, child.out)
            ok_ratio = (outcome.attempted - outcome.failed) / outcome.attempted
            self.assertLess(ok_ratio, 1.0, name)


class SampledRun(unittest.TestCase):

    def test_sampler_leaves_output_and_reports_speed(self):
        sys.path.insert(0, str(run.ROOT / "src"))
        run.WORK.mkdir(exist_ok=True)
        run.compile_sources()
        workload = WORKLOADS["verify-suite"](1, run.WORK)
        report = run.WORK / "selftest-speed.json"
        child = run.run_child(run.python(str(run.HERE / "child.py"),
                                         "--speed", str(report),
                                         *workload.child_args()), "selftest")
        self.assertEqual(workload.check(child.returncode, child.out).failed, 0)
        child.speed = json.loads(report.read_text(encoding="utf-8"))
        kernels = {i for _, i, _ in child.speed["ticks"]}
        self.assertEqual(kernels, set(range(len(speed.KERNELS))))
        self.assertLess(child.speed["busy_s"], 0.2 * child.wall_s)
        self.assertTrue(0 < child.scaled_s < math.inf)


class Wrappers(unittest.TestCase):

    def test_no_wrapper_outlives_a_traced_run(self):
        sys.path.insert(0, str(run.ROOT / "src"))
        import forestcount.cli
        import layers
        from forestcount import solver, verify

        original = solver.cached_solution
        tracer = layers.Tracer()
        tracer.install()
        try:
            self.assertIn("cached_solution", layers.leftover_wrappers())
            self.assertIsNot(verify.cached_solution, original)
            with contextlib.redirect_stdout(io.StringIO()):
                code = forestcount.cli.main(["count", "--codim", "1",
                                             "--degree", "3"])
        finally:
            tracer.uninstall()
        self.assertEqual(code, 0)
        self.assertTrue(tracer.spans)
        self.assertEqual(layers.leftover_wrappers(), [])
        self.assertIs(verify.cached_solution, original)


if __name__ == "__main__":
    unittest.main()
