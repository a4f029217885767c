"""Self-test of the benchmark's tracer, plus a traced smoke run.

    python3 bench/selftest.py

Covers self-time arithmetic for nested, sibling, failing and recursive
spans with a fake clock, rebinding of every alias of a function, the fixed
tail percentile and the host-speed probe's window and time accounting.  It then runs ``run.smoke``, which checks on each
workload at its smallest size that the summed layer self times account for
the traced wall time.
"""

from __future__ import annotations

import sys
import time
import types
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import speed  # noqa: E402
import tracer as tr  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class SelfTimeTest(unittest.TestCase):
    def setUp(self):
        self.clock = FakeClock()
        self.t = tr.Tracer(self.clock)

    def test_nested_spans(self):
        inner = self.t.wrap("m.inner", lambda: self.clock.advance(3.0))

        def outer():
            self.clock.advance(2.0)
            inner()
            self.clock.advance(5.0)

        self.t.wrap("m.outer", outer)()
        self.assertEqual(self.t.spans["m.outer"], [1, 10.0, 7.0])
        self.assertEqual(self.t.spans["m.inner"], [1, 3.0, 3.0])
        self.assertEqual(self.t.total_self_s(), 10.0)

    def test_siblings_and_grandchildren(self):
        leaf = self.t.wrap("m.leaf", lambda: self.clock.advance(1.0))

        def mid():
            self.clock.advance(1.0)
            leaf()

        mid_w = self.t.wrap("m.mid", mid)

        def top():
            mid_w()
            mid_w()
            self.clock.advance(0.5)

        self.t.wrap("m.top", top)()
        self.assertEqual(self.t.spans["m.top"], [1, 4.5, 0.5])
        self.assertEqual(self.t.spans["m.mid"], [2, 4.0, 2.0])
        self.assertEqual(self.t.spans["m.leaf"], [2, 2.0, 2.0])
        self.assertEqual(self.t.total_self_s(), 4.5)

    def test_recursive_span_counts_once_at_outermost_frame(self):
        leaf = self.t.wrap("m.leaf", lambda: self.clock.advance(1.0))

        def rec(k):
            self.clock.advance(2.0)
            leaf()
            if k:
                rec_w(k - 1)

        rec_w = self.t.wrap("m.rec", rec)
        rec_w(2)  # three frames, each 2 s own time and a 1 s leaf
        self.assertEqual(self.t.spans["m.rec"], [1, 9.0, 6.0])
        self.assertEqual(self.t.spans["m.leaf"], [3, 3.0, 3.0])
        rec_w(0)
        self.assertEqual(self.t.spans["m.rec"], [2, 12.0, 8.0])

    def test_span_closes_when_the_call_raises(self):
        def boom():
            self.clock.advance(1.0)
            raise ValueError

        boom_w = self.t.wrap("m.boom", boom)

        def outer():
            try:
                boom_w()
            except ValueError:
                self.clock.advance(1.0)

        self.t.wrap("m.outer", outer)()
        self.assertEqual(self.t.spans["m.boom"], [1, 1.0, 1.0])
        self.assertEqual(self.t.spans["m.outer"], [1, 2.0, 1.0])
        self.assertFalse(self.t.is_open("m.boom"))

    def test_counter_reads_no_clock(self):
        def clock():
            raise AssertionError("a counter read the clock")

        t = tr.Tracer(clock)
        f = t.count("m.hot", lambda x: x + 1)
        self.assertEqual([f(1), f(2)], [2, 3])
        self.assertEqual(t.calls("m.hot"), 2)

    def test_on_result_sees_outermost_results_only(self):
        seen = []

        def rec(k):
            return k if k == 0 else rec_w(k - 1) + 1

        rec_w = self.t.wrap("m.rec", rec, on_result=seen.append)
        self.assertEqual(rec_w(3), 3)
        self.assertEqual(seen, [3])


class RebindingTest(unittest.TestCase):
    def test_every_alias_is_rebound_and_restored(self):
        def f():
            return "original"

        a, b = types.ModuleType("a"), types.ModuleType("b")
        a.f, b.g, b.other = f, f, len
        r = tr.Rebinding()
        self.assertEqual(tr.rebind_function(r, [a, b], f, lambda: "wrapped"), 2)
        self.assertIs(a.f, f)  # nothing changes before enable
        r.enable()
        self.assertEqual((a.f(), b.g()), ("wrapped", "wrapped"))
        self.assertIs(b.other, len)
        r.disable()
        self.assertIs(a.f, f)
        self.assertIs(b.g, f)

    def test_methods_and_classmethods(self):
        class K:
            def m(self):
                return 1

            @classmethod
            def c(cls):
                return 2

        t = tr.Tracer()
        r = tr.Rebinding()
        tr.rebind_method(r, K, "m", lambda f: t.wrap("k.m", f))
        tr.rebind_method(r, K, "c", lambda f: t.wrap("k.c", f))
        r.enable()
        self.assertEqual((K().m(), K.c()), (1, 2))
        r.disable()
        self.assertEqual((t.calls("k.m"), t.calls("k.c")), (1, 1))
        self.assertNotIn("__wrapped__", vars(K.__dict__["m"]))

    def test_selid_names_imported_by_other_modules_are_traced(self):
        S = run.load_selid()
        t = tr.Tracer()
        r = tr.instrument(t, vars(S))
        originals = (S.identify.normal_form, S.identify.trim_conditioning, S.cli.render_estimand)
        r.enable()
        try:
            wrapped = (S.identify.normal_form, S.identify.trim_conditioning, S.cli.render_estimand)
            self.assertTrue(all(w.__wrapped__ is o for w, o in zip(wrapped, originals)))
            self.assertIs(S.estimand.normal_form, S.identify.normal_form)
        finally:
            r.disable()
        self.assertIs(S.identify.normal_form, originals[0])


class TailLevelTest(unittest.TestCase):
    def test_level_leaves_ten_timed_samples_beyond(self):
        for per_pass, passes in ((11, 3), (32, 2), (200, 3), (17, 1)):
            w = types.SimpleNamespace(min_passes=passes, queries_per_pass=per_pass)
            level = run.tail_level(w)
            values = list(range(per_pass))  # one time per query
            beyond = sum(v > run.nearest_rank(values, level) for v in values)
            self.assertGreaterEqual(beyond * passes, 10, (per_pass, passes, level))


class SpeedProbeTest(unittest.TestCase):
    def test_scale_uses_the_probes_in_and_just_before_a_region(self):
        p = speed.SpeedProbe()
        p.stamps = [1.0, 2.0, 3.0, 3.2, 10.0]
        p.durations = [0.004, 0.002, 0.001, 0.003, 0.008]
        self.assertAlmostEqual(p.scale(2.5, 3.5), speed.REF_S / ((0.002 + 0.001 + 0.003) / 3))
        self.assertAlmostEqual(p.scale(4.0, 4.1), speed.REF_S / 0.003)  # none inside
        self.assertAlmostEqual(p.scale(20.0, 21.0), speed.REF_S / 0.008)

    def test_probe_time_is_taken_out_of_a_timed_region(self):
        with speed.SpeedProbe() as p:
            ctx = run.Context(probe=p)
            with ctx.timed() as t:
                end = time.perf_counter() + 0.3
                while time.perf_counter() < end:
                    pass
            ticks = len(p.durations) - 1
        self.assertGreater(ticks, 2)
        self.assertGreater(p.stolen, 0)
        # 0.3 s of wall less the probes, at the measured speed
        self.assertLess(t.seconds, 0.3 * p.scale(end - 0.3, end) * 1.01)


class SmokeTest(unittest.TestCase):
    def test_every_workload_is_correct_and_accounted(self):
        self.assertEqual(run.smoke(), 0)


if __name__ == "__main__":
    unittest.main()
