"""Self-tests for the benchmark's own arithmetic.

    python3 -m pytest perfbench -q

They need neither ``src/repro`` nor a trained model: span self-time, the
percentile rule, open-loop timing against a stalling fake service, the
output check's independence from the span wrappers, the host-speed
scaling of set-up times, and the compare tool's verdicts on synthetic
data.
"""

from __future__ import annotations

import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from perfbench import stats
from perfbench.common import HostSpeed, SetupClock
from perfbench.compare import verdict
from perfbench.loadgen import Outcome, PhaseResult, run_open_loop
from perfbench.tracer import Span, Tracer, coverage, covered, self_times
from perfbench.verify import Verifier


def _span(id, start, end, parent=None, name="x"):
    return Span(id, name, start, end, parent)


class TestSelfTime:
    def test_nested_and_overlapping_children(self):
        spans = [_span(1, 0.0, 10.0, name="step"),
                 _span(2, 1.0, 3.0, parent=1),
                 _span(3, 2.0, 5.0, parent=1),      # overlaps span 2
                 _span(4, 1.5, 2.0, parent=2),      # grandchild of 1
                 _span(5, 9.0, 12.0, parent=1)]     # runs past its parent
        selfs = self_times(spans)
        # Children of 1 cover [1, 5] and [9, 10]: 5 of 10 seconds.
        assert selfs[1] == pytest.approx(5.0)
        assert selfs[2] == pytest.approx(1.5)
        assert selfs[4] == pytest.approx(0.5)
        assert coverage(spans, "step") == pytest.approx(0.5)

    def test_covered_ignores_outside_intervals(self):
        assert covered(0.0, 1.0, [(-2.0, -1.0), (2.0, 3.0)]) == 0.0
        assert covered(0.0, 1.0, [(-1.0, 2.0)]) == pytest.approx(1.0)

    def test_wrappers_record_parents_and_uninstall(self):
        class Layer:
            def outer(self):
                return self.inner()

            def inner(self):
                return 7

        original = Layer.__dict__["inner"]
        tracer = Tracer()
        tracer.wrap(Layer, "outer", "outer")
        tracer.wrap(Layer, "inner", "inner", size_of=lambda args, r: r)
        assert Layer().outer() == 7
        tracer.uninstall()
        assert Layer.__dict__["inner"] is original
        inner, = tracer.by_name("inner")
        outer, = tracer.by_name("outer")
        assert inner.parent == outer.id and inner.size == 7

    def test_threads_keep_separate_stacks(self):
        tracer = Tracer()
        main = tracer.begin("main")
        worker = threading.Thread(
            target=lambda: tracer.end(tracer.begin("worker")))
        worker.start()
        worker.join(5)
        tracer.end(main)
        assert not worker.is_alive()
        assert tracer.by_name("worker")[0].parent is None


class TestPercentileRule:
    @pytest.mark.parametrize("n, expected", [
        (1010, 99.0), (1000, 99.0), (999, 95.0), (200, 95.0), (199, 90.0),
        (100, 90.0), (20, 50.0), (19, None)])
    def test_highest_percentile_with_ten_beyond(self, n, expected):
        assert stats.tail_percentile(n) == expected

    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert stats.percentile(values, 50.0) == 50
        assert stats.percentile(values, 99.0) == 99
        assert stats.percentile([3.0], 99.0) == 3.0


class FixedSpeed(HostSpeed):
    """A host whose probes read fixed values, one after the other."""

    def __init__(self, reference_ms, probes_ms):
        super().__init__(reference_ms)
        self.probes_ms = list(probes_ms)

    def probe(self, units):
        return self.probes_ms.pop(0)


class TestHostSpeed:
    def test_probe_is_a_mean_per_unit(self):
        speed = HostSpeed(reference_ms=1.0)
        assert speed.probe(4) > 0.0
        assert speed.scale(2.0) == pytest.approx(0.5)

    def test_setup_is_scaled_by_its_bracketing_probes(self):
        # Probes of 2 and 4 ms around the set-up: a host at 3 ms per
        # unit, twice as slow as the 1.5 ms reference, so half the time.
        clock = SetupClock(lambda repeat: time.sleep(0.02), lambda r: None,
                           FixedSpeed(1.5, [2.0, 4.0]))
        clock.once()
        assert clock.raw[0] >= 0.02
        assert clock.times[0] == pytest.approx(clock.raw[0] * 0.5)


class _Handle:
    def __init__(self, value):
        self._value = value

    def result(self, timeout=None):
        return self._value


class StallingService:
    """Answers at once, except that one submit blocks for ``stall_s``."""

    def __init__(self, stall_at: int, stall_s: float):
        self.stall_at = stall_at
        self.stall_s = stall_s
        self.calls = 0

    def submit(self, payload):
        self.calls += 1
        if self.calls == self.stall_at + 1:
            time.sleep(self.stall_s)
        return _Handle(payload)


class TestOpenLoop:
    def test_latency_counts_from_due_time_through_a_stall(self):
        service = StallingService(stall_at=5, stall_s=0.2)
        offsets = np.arange(20) * 0.01          # 100 req/s
        phase = run_open_loop(service.submit, list(range(20)), offsets,
                              rate=100.0)
        assert phase.sent == phase.ok == 20
        # Requests 6..24 were due during the 200 ms stall: they are sent
        # late, and their latency includes the wait behind the stall.
        stalled = phase.outcomes[6]
        assert stalled.late_ms > 100.0
        assert stalled.latency_ms >= stalled.late_ms
        # A sent-time clock would hide the stall entirely.
        assert (stalled.done - stalled.sent) * 1e3 < 50.0
        assert [o.value for o in phase.outcomes] == list(range(20))

    def test_failed_submits_are_counted(self):
        def submit(payload):
            if payload % 2:
                raise RuntimeError("shed")
            return _Handle(payload)

        phase = run_open_loop(submit, list(range(10)),
                              np.zeros(10), rate=1e6)
        assert phase.sent == 10 and phase.failed == 5
        assert len(phase.latencies_ms()) == 5


class FakeModel:
    def encode(self, x):
        return x * 2.0, x.sum(axis=1)


class TestVerifier:
    def _phase(self, model, payloads, offsets):
        """A served phase whose request ``i`` is off by ``offsets[i]``."""
        phase = PhaseResult(rate=1.0)
        for index, (x, offset) in enumerate(zip(payloads, offsets)):
            t, i = model.encode(x)
            phase.outcomes.append(Outcome(index, 0.0,
                                          value=(t + offset, i)))
        return phase

    def test_reference_encodes_are_not_traced(self):
        model = FakeModel()
        verifier = Verifier(model, 0.0)
        tracer = Tracer()
        tracer.wrap(FakeModel, "encode", "serve.forward")
        try:
            payloads = [SimpleNamespace(x=np.ones((n, 4, 2), np.float32))
                        for n in (1, 3, 2)]
            phase = self._phase(model, [p.x for p in payloads], [0.0] * 3)
            assert len(tracer.by_name("serve.forward")) == 3   # served
            assert verifier.check(phase, payloads) == 0
        finally:
            tracer.uninstall()
        assert len(tracer.by_name("serve.forward")) == 3
        assert verifier.checked == 3

    def test_counts_mismatches_and_broken_claims(self):
        model = FakeModel()
        verifier = Verifier(model, 0.5, declared=0.1)
        payloads = [SimpleNamespace(x=np.ones((2, 4, 2), np.float32))
                    for _ in range(4)]
        phase = self._phase(model, [p.x for p in payloads],
                            [0.0, 0.05, 0.25, 1.0])
        assert verifier.check(phase, payloads) == 1
        assert verifier.over_declared == 2
        assert verifier.max_abs_diff == pytest.approx(1.0)
        assert all(o.value is None for o in phase.outcomes)


class TestCompareVerdicts:
    base = [100.0 + d for d in (-1, 0.5, 0, 1, -0.5, 0.2, -0.2, 0.8, -0.8, 0.1)]

    def test_clear_gain_is_better(self):
        change = [v - 10.0 for v in self.base]
        assert verdict(self.base, change, "lower", 0.1)[0] == "better"

    def test_equal_runs_are_same(self):
        change = list(reversed(self.base))
        assert verdict(self.base, change, "lower", 0.1)[0] == "same"

    def test_regression_beyond_bound_is_worse(self):
        change = [v * 1.3 for v in self.base]
        assert verdict(self.base, change, "lower", 0.1)[0] == "worse"
        assert verdict(self.base, [v * 0.7 for v in self.base], "higher",
                       0.1)[0] == "worse"

    def test_wide_spread_is_unresolved(self):
        noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0,
                 100.0]
        change = [v * 1.02 for v in reversed(noisy)]
        assert verdict(noisy, change, "lower", 0.1)[0] == "unresolved"

    def test_nine_of_ten_wins_needed(self):
        change = [v - 5.0 for v in self.base]
        change[0] += 20.0
        change[1] += 20.0            # 8 of 10 wins
        assert verdict(self.base, change, "lower", 0.1)[0] != "better"

    def test_too_few_pairs_is_unresolved(self):
        assert verdict(self.base[:9], [v - 10 for v in self.base[:9]],
                       "lower", 0.1) == ("unresolved", 9, 9)
