"""Self-tests of the benchmark harness.

Run from the root of a punchsim checkout:

    python3 -m pytest perfbench -q
    python3 -m unittest perfbench.test_perfbench
"""

from __future__ import annotations

import inspect
import os
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import punchsim  # noqa: E402
from perfbench import run, stats, tracer, workloads  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 90), 90)
        self.assertEqual(stats.percentile(values, 99), 99)

    def test_highest_percentile_with_ten_beyond(self):
        self.assertIsNone(stats.tail_percentile(19))
        self.assertEqual(stats.tail_percentile(20), 50)
        self.assertEqual(stats.tail_percentile(99), 50)
        self.assertEqual(stats.tail_percentile(100), 90)
        self.assertEqual(stats.tail_percentile(999), 90)
        self.assertEqual(stats.tail_percentile(1000), 99)
        self.assertEqual(stats.tail_percentile(9999), 99)
        self.assertEqual(stats.tail_percentile(10000), 99.9)

    def test_min_samples_matches_rule(self):
        for pct in (50.0, 90.0, 99.0, 99.9):
            n = stats.min_samples(pct)
            self.assertEqual(stats.samples_beyond(n, pct), 10)
            self.assertLess(stats.samples_beyond(n - 1, pct), 10)

    def test_workload_tails_are_the_rule_at_their_floor(self):
        """At the fewest pooled samples a run allows, each workload's tail
        percentile is the highest one with ten samples beyond it."""
        for cls in workloads.WORKLOADS.values():
            floor = stats.min_samples(cls.tail_pct)
            self.assertEqual(stats.tail_percentile(floor), cls.tail_pct)


class SelfTime(unittest.TestCase):
    def test_hand_built_tree(self):
        tr = tracer.Tracer()
        root = tr.open(tracer.ROOT, at=0.0)
        tr.root_index = root
        a = tr.open("net.send", at=1.0)
        b = tr.open("nat.outbound", at=2.0)
        tr.close(b, at=4.0)
        c = tr.open("nat.session_count", at=4.5)
        tr.close(c, at=5.0)
        tr.close(a, at=6.0)
        d = tr.open("net.send", at=7.0)
        tr.close(d, at=9.0)
        tr.close(root, at=10.0)
        tr.root_last = len(tr.start) - 1

        spans = tr.self_times()
        self.assertEqual(spans[tracer.ROOT], (1, 10.0, 3.0))
        self.assertEqual(spans["net.send"], (2, 7.0, 4.5))
        self.assertEqual(spans["nat.outbound"], (1, 2.0, 2.0))
        self.assertEqual(spans["nat.session_count"], (1, 0.5, 0.5))
        layers = tracer.layer_self_times(spans)
        self.assertEqual(layers, {"bench": 3.0, "net": 4.5, "nat": 2.5})
        self.assertEqual(sum(layers.values()), tr.root_duration())

    def test_spans_outside_root_are_ignored(self):
        tr = tracer.Tracer()
        before = tr.open("campaign.trial", at=0.0)
        tr.close(before, at=5.0)
        tr.root_index = tr.open(tracer.ROOT, at=5.0)
        inner = tr.open("kernel.run", at=6.0)
        tr.close(inner, at=7.0)
        tr.close(tr.root_index, at=8.0)
        tr.root_last = len(tr.start) - 1
        spans = tr.self_times()
        self.assertNotIn("campaign.trial", spans)
        self.assertEqual(sum(tracer.layer_self_times(spans).values()), 3.0)


def _callables(namespace) -> dict:
    return {k: v for k, v in vars(namespace).items()
            if callable(v) or isinstance(v, (staticmethod, classmethod))}


def _punchsim_namespaces():
    """The callable attributes of every punchsim module and of every class
    defined in one. Plain data, such as a class-level counter the
    simulator advances, is left out."""
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if not name.startswith("punchsim"):
            continue
        out[name] = _callables(mod)
        for attr, value in vars(mod).items():
            if inspect.isclass(value) and value.__module__ == name:
                out[f"{name}.{attr}"] = _callables(value)
    return out


class WrappersRemoved(unittest.TestCase):
    def test_traced_run_leaves_no_wrapper_behind(self):
        wl = workloads.CampaignSerial(seed=3, workdir=ROOT)
        wl.setup()
        bw = workloads.BirthdayMC(seed=3, workdir=ROOT)
        bw.setup()
        before = _punchsim_namespaces()

        tr = tracer.Tracer()
        tracer.instrument(tr)
        self.assertEqual(tr.missing_hooks, [])
        try:
            self.assertNotEqual(_punchsim_namespaces(), before)
            tr.open_root()
            traced = wl.op(0)
            bw.op(0)
            tr.close_root()
        finally:
            tr.uninstall()

        after = _punchsim_namespaces()
        self.assertEqual(after.keys(), before.keys())
        for ns, attrs in before.items():
            self.assertEqual(after[ns].keys(), attrs.keys(), ns)
            for attr, value in attrs.items():
                self.assertIs(after[ns][attr], value, f"{ns}.{attr}")
        self.assertGreater(tr.counts["kernel.events"], 0)
        self.assertGreater(tr.counts["strategies.punches"], 0)

        # Untraced calls reach the originals: no new spans, no new counts.
        spans, counts = len(tr.start), dict(tr.counts)
        self.assertEqual(wl.op(0), traced)
        bw.op(0)
        self.assertEqual(len(tr.start), spans)
        self.assertEqual(dict(tr.counts), counts)


class _Scripted(workloads.Workload):
    """Operation i raises when script[i] is 'raise', else returns it."""

    name = "scripted"

    def __init__(self, script):
        super().__init__(seed=0, workdir=ROOT)
        self.script = script

    def op(self, i):
        if self.script[i] == "raise":
            raise RuntimeError("scripted failure")
        return self.script[i]

    def failed(self, result):
        return workloads.trial_failed(result)

    def output_bytes(self, result):
        return repr(result).encode()


class FailureShare(unittest.TestCase):
    def test_simulated_outcomes_are_results_not_failures(self):
        for outcome in ("SUCCESS", "FAILED", "NO_STREAM", "CONNECTION_REVERSED",
                        "NO_CONNECTION"):
            self.assertFalse(workloads.trial_failed({"outcome": outcome}), outcome)
        self.assertTrue(workloads.trial_failed({"outcome": "UNKNOWN"}))
        self.assertTrue(workloads.trial_failed(None))

    def test_loop_counts_raises_and_unknown_only(self):
        script = [{"outcome": "SUCCESS"}, {"outcome": "FAILED"}, "raise",
                  {"outcome": "NO_STREAM"}, {"outcome": "UNKNOWN"},
                  {"outcome": "CONNECTION_REVERSED"}]
        loop = run.Loop(_Scripted(script))
        loop.run(seconds=0.0, min_ops=len(script))
        self.assertEqual((loop.attempted, loop.failed), (6, 2))
        self.assertAlmostEqual(stats.failure_share(loop.failed, loop.attempted), 2 / 6)
        self.assertEqual(len(loop.errors), 1)

    def test_punch_misses_are_not_failures(self):
        wl = workloads.BirthdayMC(seed=0, workdir=ROOT)
        self.assertFalse(wl.failed(False))
        self.assertFalse(wl.failed(True))

    def test_analysis_pass_fails_on_cli_error_or_report_mismatch(self):
        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            wl = workloads.AnalyzeFile(seed=0, workdir=tmp)
            wl.paths = {k: os.path.join(tmp, k) for k in
                        ("report-json.json", "report-csv.json")}
            for key in wl.paths:
                with open(wl.paths[key], "w") as fh:
                    fh.write("{}\n")
            self.assertFalse(wl.failed((0, 0, "report")))
            self.assertFalse(wl.failed((0, 0, "report")))
            self.assertTrue(wl.failed((0, 0, "another report")))
            self.assertTrue(wl.failed((2, 0, "report")))
            self.assertTrue(wl.failed(None))
            with open(wl.paths["report-csv.json"], "w") as fh:
                fh.write('{"n": 1}\n')
            self.assertTrue(wl.failed((0, 0, "report")))

    def test_oracle_tolerance(self):
        self.assertEqual(workloads.oracle_tolerance(0.64, 100_000), 0.02)
        self.assertGreater(workloads.oracle_tolerance(0.64, 2_000), 0.02)


class SpeedScaling(unittest.TestCase):
    def test_each_segment_scaled_by_its_reference(self):
        from perfbench.reference import REFERENCE_NOMINAL_S
        loop = run.Loop(_Scripted([]))
        loop.times.extend([1.0, 1.0, 2.0, 2.0, 3.0])
        loop.segments = [(2, REFERENCE_NOMINAL_S), (4, 2 * REFERENCE_NOMINAL_S),
                         (5, 3 * REFERENCE_NOMINAL_S)]
        self.assertEqual(loop.scaled_times(), [1.0, 1.0, 1.0, 1.0, 1.0])


if __name__ == "__main__":
    unittest.main()
