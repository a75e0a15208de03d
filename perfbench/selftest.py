"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

Not collected by the package's pytest run (the file name does not start
with ``test_``); the last test starts one benchmark child and takes a few
seconds.
"""

import json
import math
import subprocess
import sys
import time
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from layertrace import Tracer, owner, self_times  # noqa: E402


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


class SamplerTest(unittest.TestCase):
    def test_samples_inside_a_long_call_are_off_the_clock(self):
        with child.Sampler() as sampler:
            spent0 = sampler.spent  # the sample taken on entry
            c0, t0 = sampler.clock(), time.perf_counter()
            while time.perf_counter() - t0 < 0.5:
                pass
            c1, t1 = sampler.clock(), time.perf_counter()
        self.assertGreaterEqual(len(sampler.cal), 1 + 4)  # on entry, then every 0.1 s
        self.assertGreater(sampler.spent, spent0)
        self.assertAlmostEqual((t1 - t0) - (c1 - c0), sampler.spent - spent0, delta=1e-3)


class ScalingTest(unittest.TestCase):
    def test_cases_are_scaled_by_the_samples_near_them(self):
        # The machine ran at half speed from 1 s on; a case at 2.5 s has no
        # sample within LOCAL_S and takes the next one.
        it = {"cal": [[0.0, 6.0], [0.5, 6.0], [1.0, 12.0], [1.5, 12.0], [3.0, 12.0]],
              "case_start_s": {"fast": 0.2, "slow": 1.2, "gap": 2.5, "span": 0.4},
              "case_ms": {"fast": 10.0, "slow": 20.0, "gap": 20.0, "span": 1000.0}}
        scaled = run.scaled_case_ms(it)
        self.assertAlmostEqual(scaled["fast"], 10.0 * run.REF_LOOP_MS / 6.0)
        self.assertAlmostEqual(scaled["slow"], 20.0 * run.REF_LOOP_MS / 12.0)
        self.assertAlmostEqual(scaled["gap"], 20.0 * run.REF_LOOP_MS / 12.0)
        self.assertAlmostEqual(scaled["span"], 1000.0 * run.REF_LOOP_MS / 9.0)


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_tree(self):
        # a[0,10] -> b[1,4] -> c[2,3];  a -> c[5,9]
        spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0],
                 ["c", 2.0, 3.0, 1], ["c", 5.0, 9.0, 0]]
        self.assertEqual(self_times(spans), {"a": 3.0, "b": 2.0, "c": 5.0})

    def test_wrapped_calls_nest(self):
        tracer = Tracer(clock=FakeClock([0, 1, 3, 6, 7, 8]))
        inner = tracer.wrap("m.inner", lambda: None)
        outer = tracer.wrap("m.outer", lambda: [inner(), inner()])
        tracer.installed = ["m.inner", "m.outer"]
        outer()
        metrics = tracer.metrics()
        self.assertEqual(metrics["m.outer.calls"], 1)
        self.assertEqual(metrics["m.inner.calls"], 2)
        self.assertEqual(metrics["m.inner.self_s"], 3)   # (3-1) + (7-6)
        self.assertEqual(metrics["m.outer.self_s"], 5)   # 8 - 0 - 3


class TailPercentileTest(unittest.TestCase):
    def test_workload_sizes(self):
        self.assertIsNone(run.tail_percentile(4))
        self.assertIsNone(run.tail_percentile(19))
        self.assertEqual(run.tail_percentile(20), 50)
        self.assertEqual(run.tail_percentile(41), 75)
        self.assertEqual(run.tail_percentile(128), 90)
        self.assertEqual(run.tail_percentile(2501), 99.5)

    def test_at_least_ten_beyond_and_highest(self):
        for n in range(1, 30000, 7):
            p = run.tail_percentile(n)
            if p is None:
                continue
            self.assertGreaterEqual(n - math.ceil(p / 100 * n), 10)
            higher = [q for q in run.TAIL_PERCENTILES if q > p]
            for q in higher:
                self.assertLess(n - math.ceil(q / 100 * n), 10)

    def test_nearest_rank(self):
        samples = list(range(1, 101))
        self.assertEqual(run.nearest_rank(samples, 50), 50)
        self.assertEqual(run.nearest_rank(samples, 90), 90)
        self.assertEqual(run.nearest_rank([5.0], 99), 5.0)


class GateTest(unittest.TestCase):
    def setUp(self):
        cases = [c for c in workloads.build("catalog-proof", 0, HERE / ".work")
                 if c.id.startswith("quad_factors/MINUS_TWO")][:6]
        self.outputs = {c.id: c.run() for c in cases}
        pins = json.loads((HERE / "pinned" / "catalog-proof.json").read_text())
        self.pinned = {cid: pins["cases"][cid] for cid in self.outputs}

    def test_pinned_outputs_pass(self):
        self.assertEqual(workloads.gate("catalog-proof", self.outputs, {}, self.pinned), set())

    def test_corrupted_output_fails(self):
        cid = sorted(self.outputs)[0]
        self.outputs[cid] = self.outputs[cid] + [[9, 9]]
        self.assertEqual(workloads.gate("catalog-proof", self.outputs, {}, self.pinned), {cid})

    def test_corrupted_pin_fails(self):
        cid = sorted(self.pinned)[-1]
        self.pinned[cid] = "0" * 24
        self.assertEqual(workloads.gate("catalog-proof", self.outputs, {}, self.pinned), {cid})

    def test_raised_case_fails(self):
        failed = workloads.gate("catalog-proof", self.outputs, {"x": "ValueError"}, self.pinned)
        self.assertEqual(failed, {"x"})

    def test_invariant_break_fails(self):
        outputs = {f"complex/A=2/B=-{b}/first": {"families": [], "aps": []} for b in range(2, 5)}
        outputs["complex/A=2/B=-3/first"]["families"] = ["(t+1, t, t+2), t>=0"]
        self.assertEqual(workloads.check_complex_survey(outputs), {"complex/A=2/B=-3/first"})


class AbsentFunctionTest(unittest.TestCase):
    def setUp(self):
        pkg = types.ModuleType("fakepkg")
        core = types.ModuleType("fakepkg.core")
        core.terms = lambda n: list(range(n))
        cli = types.ModuleType("fakepkg.cli")   # main() was removed
        pkg.terms = core.terms
        self.modules = {"fakepkg": pkg, "fakepkg.core": core, "fakepkg.cli": cli}
        sys.modules.update(self.modules)

    def tearDown(self):
        for name in self.modules:
            del sys.modules[name]

    def test_removed_name_is_absent_not_fatal(self):
        tracer = Tracer()
        tracer.install("fakepkg", {"core.terms": None, "cli.main": None})
        self.assertEqual(tracer.installed, ["core.terms"])
        self.assertEqual(tracer.absent, ["cli.main"])
        self.assertEqual(sys.modules["fakepkg"].terms(3), [0, 1, 2])  # re-bound too
        layers = tracer.metrics()
        self.assertEqual(layers["core.terms.calls"], 1)

        iteration = {"trace": 1, "wall_s": 1.0, "case_ms": {"c": 1.0},
                     "case_start_s": {"c": 0.0}, "cal": [[0.0, 6.0]],
                     "attempted": 1, "failed_ids": [], "errors": {}, "peak_rss_mb": 1.0,
                     "workload_digest": "d", "layers": layers,
                     "installed": tracer.installed, "absent": tracer.absent,
                     "broken_observers": []}
        plain = dict(iteration, trace=0, layers=None)
        declared = {"core.terms.calls": "count", "cli.main.calls": "count",
                    "cli.output_bytes": "bytes", "trace.overhead_frac": "frac"}
        metrics, attempted, failed, details = run.summarize(
            [plain, iteration], [{"setup_s": 0.1, "cal": [[0.0, 6.0]]}], 1, declared)
        self.assertEqual(set(metrics), {"core.terms.calls", "trace.overhead_frac"})
        self.assertEqual(details["absent_metrics"], ["cli.main.calls", "cli.output_bytes"])
        self.assertEqual((attempted, failed), (2, 0))

    def test_owner(self):
        self.assertEqual(owner("certify.status.complete_gap"), "certify.certified_enumerate")
        self.assertEqual(owner("smallcase.strategy.linear_in_b"), "smallcase.solve_all")
        self.assertEqual(owner("apsearch.find_aps.aps_found"), "apsearch.find_aps")


class HeldOutSeedTest(unittest.TestCase):
    def test_outputs_do_not_depend_on_case_order(self):
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "--workload", "catalog-proof",
             "--seed", "918273645"], capture_output=True, text=True, timeout=170)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        pins = json.loads((HERE / "pinned" / "catalog-proof.json").read_text())
        self.assertEqual(result["failed_ids"], [])
        self.assertEqual(result["workload_digest"], pins["digest"])


if __name__ == "__main__":
    unittest.main()
