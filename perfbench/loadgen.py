"""Open-loop load generator.

Requests are sent on a Poisson schedule fixed before the phase starts,
whether or not earlier requests have finished.  Each request is timed
from the moment it was **due**, so a stall in the generator or the
service shows up in the latency of every request queued behind it, and
the generator reports how late it ran (``late_ms``).

Two threads: the caller's thread sends, a collector thread waits on the
handles in submission order and stamps each completion.  A request that
completes before an earlier one is stamped when the earlier one is
collected, so in-order collection can only overstate latency.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Outcome", "PhaseResult", "poisson_schedule", "run_open_loop",
           "run_closed_loop"]


@dataclass
class Outcome:
    index: int
    due: float
    sent: float = 0.0
    done: float = 0.0
    value: object = None
    error: BaseException | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3

    @property
    def late_ms(self) -> float:
        return (self.sent - self.due) * 1e3


@dataclass
class PhaseResult:
    rate: float
    outcomes: list[Outcome] = field(default_factory=list)
    backlog_end: int = 0     # requests unresolved when sending ended
    seconds: float = 0.0     # first due → last completion

    @property
    def sent(self) -> int:
        return len(self.outcomes)

    @property
    def ok(self) -> int:
        return sum(outcome.ok for outcome in self.outcomes)

    @property
    def failed(self) -> int:
        return self.sent - self.ok

    def latencies_ms(self) -> list[float]:
        return [o.latency_ms for o in self.outcomes if o.ok]

    def late_ms(self) -> list[float]:
        return [o.late_ms for o in self.outcomes]


def poisson_schedule(rate: float, count: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Offsets (seconds from phase start) of ``count`` Poisson arrivals."""
    return np.cumsum(rng.exponential(1.0 / rate, size=count))


def _collect(pending: queue.SimpleQueue, timeout_s: float) -> None:
    while True:
        item = pending.get()
        if item is None:
            return
        outcome, handle = item
        try:
            outcome.value = handle.result(timeout_s)
        except Exception as error:  # every failure is counted, never dropped
            outcome.error = error
        outcome.done = time.perf_counter()


def run_open_loop(submit, payloads, offsets, *, rate: float,
                  timeout_s: float = 30.0) -> PhaseResult:
    """Send ``payloads[i]`` at ``offsets[i]`` via ``submit(payload)``.

    ``submit`` returns a handle with ``result(timeout)`` or raises; a
    raise counts as a failed request completing at the moment it raised.
    """
    pending: queue.SimpleQueue = queue.SimpleQueue()
    collector = threading.Thread(target=_collect, name="loadgen-collect",
                                 args=(pending, timeout_s), daemon=True)
    collector.start()
    phase = PhaseResult(rate=rate)
    start = time.perf_counter() + 0.002
    try:
        for index, (payload, offset) in enumerate(zip(payloads, offsets)):
            outcome = Outcome(index, start + float(offset))
            delay = outcome.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            outcome.sent = time.perf_counter()
            phase.outcomes.append(outcome)
            try:
                handle = submit(payload)
            except Exception as error:
                outcome.error = error
                outcome.done = time.perf_counter()
                continue
            pending.put((outcome, handle))
        phase.backlog_end = sum(1 for o in phase.outcomes
                                if o.done == 0.0)
    finally:
        pending.put(None)
        collector.join(timeout_s + 5.0)
    if collector.is_alive():
        raise RuntimeError("load-generator collector did not finish")
    last = max((o.done for o in phase.outcomes), default=start)
    phase.seconds = last - start
    return phase


def run_closed_loop(submit, payloads, *, in_flight: int,
                    timeout_s: float = 30.0) -> PhaseResult:
    """Keep ``in_flight`` requests outstanding until every payload is sent.

    Each request is due when its predecessor ``in_flight`` places earlier
    completes, so latency here is service plus queueing inside the
    window, and ``seconds`` gives the saturated completion rate.
    """
    phase = PhaseResult(rate=0.0)
    window: list[tuple[Outcome, object]] = []
    start = time.perf_counter()

    def retire(entry):
        outcome, handle = entry
        try:
            outcome.value = handle.result(timeout_s)
        except Exception as error:
            outcome.error = error
        outcome.done = time.perf_counter()

    for index, payload in enumerate(payloads):
        if len(window) >= in_flight:
            retire(window.pop(0))
        outcome = Outcome(index, time.perf_counter())
        outcome.sent = outcome.due
        phase.outcomes.append(outcome)
        try:
            window.append((outcome, submit(payload)))
        except Exception as error:
            outcome.error = error
            outcome.done = time.perf_counter()
    for entry in window:
        retire(entry)
    phase.seconds = time.perf_counter() - start
    return phase
