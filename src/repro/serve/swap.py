"""Zero-downtime rolling model swap: shadow-validate, then flip.

The swap protocol has three phases, none of which stops live traffic:

1. **Load** — the candidate checkpoint is resolved through the same
   :func:`repro.checkpoint.resolve_checkpoint_source` path as the active
   model (checksum-verified) and warmed in the registry under a staging
   alias.  A candidate with mismatched window geometry is rejected here,
   before any traffic is mirrored.
2. **Shadow** — the gateway mirrors fulfilled live requests to a
   :class:`ShadowValidator`, which replays each input through the
   candidate and scores a :class:`ShadowVerdict`: output difference
   (bit-compare by default; ``max_abs_diff`` admits a stated tolerance
   for quantized/distilled candidates) and forward latency against the
   budget.  Verdicts are emitted as telemetry events and obs counters.
   Mirroring happens *after* the live result is fulfilled — on a
   separate thread when the gateway is threaded — so shadowing adds no
   latency to the live path.
3. **Flip or roll back** — the first failing verdict rolls the candidate
   back immediately; ``shadow_requests`` passing verdicts promote it:
   the gateway builds a fresh engine on the candidate, atomically swaps
   it in (in-flight requests finish on the old engine, which is then
   drained and closed off-path), and the registry alias follows.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass

import numpy as np

from .errors import SwapFailed
from .registry import LoadedModel

__all__ = ["SwapConfig", "ShadowVerdict", "ShadowValidator", "SwapHandle",
           "SHADOW_THREAD_NAME"]

SHADOW_THREAD_NAME = "serve-shadow"


@dataclass(frozen=True)
class SwapConfig:
    """Shadow-validation policy for one rolling swap.

    ``max_abs_diff=0.0`` (default) demands bit-identical outputs — the
    right bar when the candidate is a later checkpoint of the same
    training run on this deterministic substrate is *not* expected, so
    set a tolerance deliberately; ``0.0`` is for same-weights/refactor
    swaps where any drift is a bug.  ``latency_budget_ms`` bounds the
    candidate's per-mirror forward time.
    """

    shadow_requests: int = 8
    latency_budget_ms: float = 250.0
    max_abs_diff: float = 0.0
    candidate_alias: str | None = None
    mirror_queue: int = 64   # threaded mirroring backlog before sampling

    def __post_init__(self):
        if self.shadow_requests < 1:
            raise ValueError("shadow_requests must be >= 1")
        if self.latency_budget_ms <= 0:
            raise ValueError("latency_budget_ms must be > 0")
        if self.max_abs_diff < 0:
            raise ValueError("max_abs_diff must be >= 0")


@dataclass(frozen=True)
class ShadowVerdict:
    """One mirrored request scored against the candidate."""

    index: int
    kind: str
    windows: int
    max_abs_diff: float
    bitwise_equal: bool
    latency_ms: float
    outputs_ok: bool
    within_budget: bool

    @property
    def passed(self) -> bool:
        return self.outputs_ok and self.within_budget

    def as_dict(self) -> dict:
        return {"index": self.index, "kind": self.kind,
                "windows": self.windows,
                "max_abs_diff": self.max_abs_diff,
                "bitwise_equal": self.bitwise_equal,
                "latency_ms": self.latency_ms,
                "outputs_ok": self.outputs_ok,
                "within_budget": self.within_budget,
                "passed": self.passed}


class ShadowValidator:
    """Replays mirrored traffic through the candidate and keeps score.

    ``observe`` is cheap for the caller: inline validation when
    ``threaded=False`` (deterministic tests, deferred gateways), or an
    enqueue onto a bounded mirror queue drained by a daemon worker when
    ``threaded=True`` — a full queue *samples* (drops the mirror) rather
    than back-pressuring the live path.  ``on_verdict(verdict)`` fires
    per mirror; ``on_complete(validator)`` fires exactly once, either at
    the first failing verdict (early rollback) or after
    ``shadow_requests`` passes.
    """

    def __init__(self, candidate: LoadedModel, config: SwapConfig,
                 threaded: bool = False,
                 on_verdict=None, on_complete=None):
        self.candidate = candidate
        self.config = config
        self._on_verdict = on_verdict
        self._on_complete = on_complete
        self._lock = threading.Lock()
        self.verdicts: list[ShadowVerdict] = []
        self.dropped = 0
        self._complete = False
        self._stop = False
        self._queue: queue.Queue | None = None
        self._worker: threading.Thread | None = None
        if threaded:
            self._queue = queue.Queue(maxsize=config.mirror_queue)
            self._worker = threading.Thread(target=self._worker_loop,
                                            name=SHADOW_THREAD_NAME,
                                            daemon=True)
            self._worker.start()

    # -- results -----------------------------------------------------------
    @property
    def complete(self) -> bool:
        with self._lock:
            return self._complete

    @property
    def failed(self) -> bool:
        with self._lock:
            return any(not v.passed for v in self.verdicts)

    def summary(self) -> dict:
        with self._lock:
            verdicts = list(self.verdicts)
        latencies = [v.latency_ms for v in verdicts]
        return {"mirrored": len(verdicts),
                "required": self.config.shadow_requests,
                "passed": sum(1 for v in verdicts if v.passed),
                "failed": sum(1 for v in verdicts if not v.passed),
                "dropped_mirrors": self.dropped,
                "max_abs_diff": max((v.max_abs_diff for v in verdicts),
                                    default=0.0),
                "max_latency_ms": max(latencies, default=0.0),
                "verdicts": [v.as_dict() for v in verdicts]}

    # -- mirroring ---------------------------------------------------------
    def observe(self, x: np.ndarray, kind: str, live_result) -> None:
        """Mirror one fulfilled live request (input + live output)."""
        if self.complete:
            return
        if self._queue is None:
            self._validate(x, kind, live_result)
            return
        try:
            self._queue.put_nowait((x, kind, live_result))
        except queue.Full:
            with self._lock:
                self.dropped += 1

    def close(self) -> None:
        """Stop the mirror worker (idempotent; pending mirrors dropped).

        Safe to call from any thread — including the worker itself (the
        ``on_complete`` hook runs there), where joining would deadlock;
        the worker polls the stop flag instead of waiting on a sentinel.
        """
        self._stop = True
        worker = self._worker
        self._worker = None
        if worker is not None and worker is not threading.current_thread():
            worker.join()

    def _worker_loop(self) -> None:
        while not self._stop:
            try:
                item = self._queue.get(timeout=0.05)
            except queue.Empty:
                continue
            if self._stop or self.complete:
                return
            try:
                self._validate(*item)
            except Exception:
                pass  # a crashed mirror must never touch the live path
            if self.complete:
                return

    # -- scoring -----------------------------------------------------------
    def _validate(self, x: np.ndarray, kind: str, live_result) -> None:
        start = time.perf_counter()
        if kind == "encode":
            shadow_result = self.candidate.model.encode(x)
        else:
            shadow_result = self.candidate.model.predict(x)
        latency_ms = (time.perf_counter() - start) * 1e3
        live = _arrays(live_result)
        shadow = _arrays(shadow_result)
        bitwise = (len(live) == len(shadow)
                   and all(a.shape == b.shape and np.array_equal(a, b)
                           for a, b in zip(live, shadow)))
        if bitwise:
            diff = 0.0
        elif (len(live) == len(shadow)
              and all(a.shape == b.shape for a, b in zip(live, shadow))):
            diff = max(float(np.max(np.abs(a.astype(np.float64)
                                           - b.astype(np.float64))))
                       for a, b in zip(live, shadow))
        else:
            diff = float("inf")
        outputs_ok = bitwise if self.config.max_abs_diff == 0.0 \
            else diff <= self.config.max_abs_diff
        with self._lock:
            if self._complete:
                return
            verdict = ShadowVerdict(
                index=len(self.verdicts), kind=kind, windows=x.shape[0],
                max_abs_diff=diff, bitwise_equal=bitwise,
                latency_ms=latency_ms, outputs_ok=outputs_ok,
                within_budget=latency_ms <= self.config.latency_budget_ms)
            self.verdicts.append(verdict)
            done = (not verdict.passed
                    or len(self.verdicts) >= self.config.shadow_requests)
            if done:
                self._complete = True
        if self._on_verdict is not None:
            self._on_verdict(verdict)
        if done and self._on_complete is not None:
            self._on_complete(self)


class SwapHandle:
    """Caller-facing future for one rolling swap; resolves to a report."""

    def __init__(self, candidate: LoadedModel, validator: ShadowValidator):
        self.candidate = candidate
        self.validator = validator
        self._done = threading.Event()
        self._report: dict | None = None

    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: float | None = None) -> dict:
        """Block until the swap finalizes; returns the swap report."""
        if not self._done.wait(timeout):
            raise SwapFailed(
                f"swap not finalized within {timeout}s "
                f"({len(self.validator.verdicts)}/"
                f"{self.validator.config.shadow_requests} mirrors scored — "
                "is live traffic flowing?)")
        return self._report

    @property
    def report(self) -> dict | None:
        return self._report

    def _finish(self, report: dict) -> None:
        self._report = report
        self._done.set()


def _arrays(result) -> list[np.ndarray]:
    if isinstance(result, np.ndarray):
        return [result]
    return [np.asarray(part) for part in result]
