"""Micro-batching engine: coalesce inference requests, answer from cache.

Requests (encode or predict, each carrying one or more raw windows) are
queued and coalesced into dynamic micro-batches: a batch closes when it
reaches ``max_batch_size`` windows or when the oldest queued request has
waited ``max_wait_ms`` — the classic throughput/latency dial.  Each
micro-batch runs exactly one forward pass under eval mode + ``no_grad``
(the encoder-layer kernel, :mod:`repro.nn.encoder_layer`).

Two execution modes share the same batching core:

* **deferred** (default) — ``submit()`` enqueues, ``flush()`` drains.
  Single-threaded and deterministic; what the CLI batch mode and the
  benchmark use.  ``max_wait_ms`` is irrelevant here: the caller decides
  when to flush.
* **threaded** — ``start()`` launches a worker that drains the queue
  continuously, honouring the max-wait deadline for partially filled
  batches.  ``submit()`` then returns a handle whose ``result()`` blocks.

Per-window outputs are independent of batch composition on this
substrate (row-wise kernels; locked by ``tests/serve/test_equivalence``),
which is what makes transparent coalescing — and caching results
computed under one batch split for reuse under another — sound.

When an :class:`~repro.serve.EmbeddingCache` is wired, each request's
input digest is checked first; hits skip the forward pass entirely and
misses are inserted after computation, keyed by the model fingerprint.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..obs.metrics import get_registry
from .cache import EmbeddingCache, input_digest
from .errors import DeadlineExceeded, EngineClosed
from .metrics import LatencyHistogram
from .registry import LoadedModel

__all__ = ["BatchingEngine", "BatchingConfig", "InferenceRequest"]

_KINDS = ("encode", "predict")


class _ObsHandles:
    """Metric children resolved once per registry generation.

    ``submit``/``_process`` run per request; re-resolving each family and
    labeled child through the registry on every call costs more than the
    increment itself.  Handles are memoized keyed on registry identity,
    so ``enable``/``disable``/``set_registry`` swaps rebuild them — and
    the null registry memoizes its shared null metric the same way.
    """

    __slots__ = ("registry", "requests", "request_ms", "queue_depth",
                 "batches", "windows", "batch_windows")

    def __init__(self, registry):
        self.registry = registry
        requests = registry.counter("serve_requests_total",
                                    "Requests submitted", labels=("kind",))
        request_ms = registry.histogram(
            "serve_request_ms", "Submit-to-fulfil request latency",
            labels=("kind",))
        # Unlabeled families are resolved down to their single child here:
        # a bare family .inc() re-derives the child per call.
        self.requests = {kind: requests.labels(kind=kind) for kind in _KINDS}
        self.request_ms = {kind: request_ms.labels(kind=kind)
                           for kind in _KINDS}
        self.queue_depth = registry.gauge(
            "serve_queue_depth", "Requests waiting in the engine queue").labels()
        self.batches = registry.counter("serve_batches_total",
                                        "Micro-batches executed").labels()
        self.windows = registry.counter("serve_windows_total",
                                        "Windows served").labels()
        self.batch_windows = registry.histogram(
            "serve_batch_windows", "Windows per micro-batch",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512)).labels()


@dataclass
class BatchingConfig:
    """Engine knobs: batch geometry, deadline, cache wiring."""

    max_batch_size: int = 64
    max_wait_ms: float = 2.0

    def __post_init__(self):
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")


class InferenceRequest:
    """Handle for one submitted request; fulfilled by the engine.

    ``deadline_s`` (absolute ``time.perf_counter()`` time, optional) is
    the latest moment a forward pass may *start* on this request; the
    engine sweeps expired requests out of every batch it takes and fails
    them with :class:`DeadlineExceeded`.  ``on_done`` (optional) is
    invoked with the request once it resolves — result or error — on the
    fulfilling thread; the gateway uses it for breaker/fairness
    accounting and traffic mirroring.
    """

    def __init__(self, kind: str, x: np.ndarray, digest: str | None,
                 deadline_s: float | None = None, on_done=None):
        self.kind = kind
        self.x = x
        self.digest = digest
        self.deadline_s = deadline_s
        self.on_done = on_done
        self.trace: obs_trace.TraceContext | None = None
        self.submitted = time.perf_counter()
        self._done = threading.Event()
        self._value = None
        self._error: BaseException | None = None

    @property
    def windows(self) -> int:
        return self.x.shape[0]

    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: float | None = None):
        """Block until fulfilled; re-raises the engine-side error if any."""
        if not self._done.wait(timeout):
            raise TimeoutError("request not fulfilled within timeout")
        if self._error is not None:
            raise self._error
        return self._value

    def expired(self, now: float | None = None) -> bool:
        if self.deadline_s is None:
            return False
        return (now if now is not None else time.perf_counter()) >= self.deadline_s

    def _fulfil(self, value, error: BaseException | None = None) -> None:
        self._value = value
        self._error = error
        self._done.set()
        if self.on_done is not None:
            try:
                self.on_done(self)
            except Exception:
                # A misbehaving observer must not poison the rest of the
                # batch; the request itself already resolved above.
                pass


class BatchingEngine:
    """Coalesces encode/predict requests over one loaded model."""

    def __init__(self, loaded: LoadedModel,
                 config: BatchingConfig | None = None,
                 cache: EmbeddingCache | None = None):
        self.loaded = loaded
        self.config = config or BatchingConfig()
        self.cache = cache
        self.latency = {kind: LatencyHistogram(kind) for kind in _KINDS}
        self.batches_run = 0
        self.windows_served = 0
        self._queue: list[InferenceRequest] = []
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        # batches_run / windows_served are written by whichever thread runs
        # _process (worker or flusher) and read by report(); their own lock
        # keeps them exact without widening the queue lock.
        self._stats_lock = threading.Lock()
        self._worker: threading.Thread | None = None
        self._stopping = False
        self._closed = False
        # Benign race: submit (caller threads) and _process (worker) may
        # both rebuild after a registry swap; the registry hands back the
        # same families/children either way.
        self._obs: _ObsHandles | None = None

    def _obs_handles(self) -> _ObsHandles:
        handles = self._obs
        registry = get_registry()
        if handles is None or handles.registry is not registry:
            handles = _ObsHandles(registry)
            self._obs = handles
        return handles

    @property
    def closed(self) -> bool:
        return self._closed

    # -- submission -------------------------------------------------------
    def submit(self, x: np.ndarray, kind: str = "encode",
               deadline_s: float | None = None,
               on_done=None) -> InferenceRequest:
        """Enqueue one request of ``n >= 1`` windows ``(n, T, C)``.

        The input is validated against the model's data spec up front —
        a malformed request must fail fast at the door, not poison the
        micro-batch it would have been coalesced into.  A ``deadline_s``
        already in the past is likewise rejected synchronously.
        """
        if self._closed:
            raise EngineClosed("engine is closed; no new requests accepted")
        if kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
        x = self.loaded.validate_input(x)
        if deadline_s is not None and time.perf_counter() >= deadline_s:
            raise DeadlineExceeded(
                "request deadline expired before submission", waited_ms=0.0)
        digest = input_digest(x) if self.cache is not None else None
        request = InferenceRequest(kind, x, digest, deadline_s=deadline_s,
                                   on_done=on_done)
        # The submit span's context rides on the request so the worker
        # thread can adopt it — one trace_id from caller to fulfilment.
        # record_span instead of span(): no nested span derives from the
        # enqueue region, so the context never needs to become current.
        tracing = obs_metrics.enabled()
        if tracing:
            ctx = request.trace = obs_trace.child_context()
            start = time.perf_counter()
        with self._wakeup:
            # Re-checked under the lock: a close() racing with this
            # submit must either refuse the request here or fail it in
            # its own final sweep — never leave the future unresolved.
            if self._closed:
                raise EngineClosed("engine is closed; no new requests accepted")
            self._queue.append(request)
            depth = len(self._queue)
            self._wakeup.notify()
        if tracing:
            obs_trace.record_span("engine.submit", ctx, start, kind=kind,
                                  windows=request.windows)
        handles = self._obs_handles()
        handles.requests[kind].inc()
        handles.queue_depth.set(depth)
        return request

    def encode(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Synchronous convenience: submit + flush + result."""
        request = self.submit(x, "encode")
        if self._worker is None:
            self.flush()
        return request.result()

    def predict(self, x: np.ndarray) -> np.ndarray:
        request = self.submit(x, "predict")
        if self._worker is None:
            self.flush()
        return request.result()

    # -- deferred draining ------------------------------------------------
    def flush(self) -> int:
        """Drain the queue in micro-batches; returns requests fulfilled.

        Expired requests resolve to :class:`DeadlineExceeded`; a batch
        whose processing crashes resolves to that error — either way
        every drained request is fulfilled.
        """
        fulfilled = 0
        while True:
            batch = self._take_batch(wait=False)
            if not batch:
                return fulfilled
            self._run_batch(batch)
            fulfilled += len(batch)

    # -- threaded draining ------------------------------------------------
    def start(self) -> "BatchingEngine":
        """Launch the background worker (idempotent)."""
        if self._closed:
            raise EngineClosed("engine is closed; cannot restart the worker")
        if self._worker is None:
            self._stopping = False
            self._worker = threading.Thread(target=self._worker_loop,
                                            name="serve-batcher", daemon=True)
            self._worker.start()
        return self

    def stop(self) -> None:
        """Drain remaining requests and join the worker (engine stays
        open: a stopped engine accepts submits and can ``start()`` again)."""
        worker = self._worker
        if worker is None:
            return
        with self._wakeup:
            self._stopping = True
            self._wakeup.notify_all()
        worker.join()
        self._worker = None
        self.flush()  # anything submitted after the worker observed stop

    def close(self, drain: bool = True) -> None:
        """Shut the engine down; every outstanding request resolves.

        With ``drain=True`` (default) queued requests are still served;
        with ``drain=False`` they fail with :class:`EngineClosed`.
        Either way no future is left unresolved, submissions after close
        raise :class:`EngineClosed`, and closing twice is a no-op.
        """
        with self._wakeup:
            self._closed = True  # refuses new submits from here on
            self._stopping = True
            self._wakeup.notify_all()
        worker = self._worker
        if worker is not None:
            worker.join()
            self._worker = None
        if drain:
            self.flush()
        with self._wakeup:
            leftovers = list(self._queue)
            self._queue.clear()
        if leftovers:
            error = EngineClosed("engine closed before the request ran")
            for request in leftovers:
                request._fulfil(None, error)
            get_registry().counter(
                "serve_rejected_total", "Requests failed without a forward "
                "pass", labels=("reason",)).labels(reason="closed").inc(
                    len(leftovers))

    def __enter__(self) -> "BatchingEngine":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    def stats(self) -> dict:
        """Consistent snapshot of the engine counters."""
        with self._stats_lock:
            return {"batches_run": self.batches_run,
                    "windows_served": self.windows_served}

    def _worker_loop(self) -> None:
        while True:
            batch = self._take_batch(wait=True)
            if batch is None:  # stop requested, queue empty
                return
            if batch:
                self._run_batch(batch)

    def _run_batch(self, batch: list[InferenceRequest]) -> None:
        """Run one micro-batch with a crash boundary around it.

        ``_process`` already scatters *forward-pass* failures to the
        batch's waiters; this boundary additionally catches crashes in
        the batching machinery itself (cache, metrics, scatter), so a
        worker-thread crash mid-batch fails only that batch's requests
        and the engine — worker included — stays serviceable.
        """
        try:
            self._process(batch)
        except BaseException as error:
            for request in batch:
                if not request.done():
                    request._fulfil(None, error)
            get_registry().counter(
                "serve_batch_failures_total",
                "Micro-batches that crashed outside the forward pass").inc()

    # -- batching core ----------------------------------------------------
    def _take_batch(self, wait: bool):
        """Pop the next micro-batch: same-kind prefix of the queue, up to
        ``max_batch_size`` windows.

        Requests whose deadline expired while queued are swept out first
        and failed with :class:`DeadlineExceeded` — a forward pass never
        starts on an answer nobody is waiting for.  In waiting mode,
        blocks until the batch is full, the oldest request exceeds the
        max-wait deadline, the nearest request deadline is due, or stop
        is requested (``None`` means: stopping and nothing left).
        """
        max_windows = self.config.max_batch_size
        deadline_s = self.config.max_wait_ms / 1e3
        expired: list[InferenceRequest] = []
        try:
            with self._wakeup:
                if wait:
                    while True:
                        self._sweep_expired_locked(expired)
                        if self._queue:
                            now = time.perf_counter()
                            oldest = self._queue[0].submitted
                            if (self._full_locked(max_windows)
                                    or now - oldest >= deadline_s
                                    or self._stopping):
                                break
                            remaining = deadline_s - (now - oldest)
                            nearest = min((r.deadline_s for r in self._queue
                                           if r.deadline_s is not None),
                                          default=None)
                            if nearest is not None:
                                remaining = min(remaining, nearest - now)
                            self._wakeup.wait(timeout=max(remaining, 1e-4))
                        elif self._stopping:
                            return None
                        else:
                            self._wakeup.wait()
                else:
                    self._sweep_expired_locked(expired)
                if not self._queue:
                    return []
                kind = self._queue[0].kind
                batch, windows = [], 0
                while (self._queue and self._queue[0].kind == kind
                       and (not batch
                            or windows + self._queue[0].windows <= max_windows)):
                    request = self._queue.pop(0)
                    windows += request.windows
                    batch.append(request)
                return batch
        finally:
            if expired:
                self._reject_expired(expired)

    def _sweep_expired_locked(self, expired: list[InferenceRequest]) -> None:
        now = time.perf_counter()
        if any(r.expired(now) for r in self._queue):
            keep = []
            for request in self._queue:
                (expired if request.expired(now) else keep).append(request)
            self._queue[:] = keep

    def _reject_expired(self, expired: list[InferenceRequest]) -> None:
        """Fulfil swept requests outside the queue lock (``on_done``
        observers may re-enter the engine)."""
        now = time.perf_counter()
        for request in expired:
            waited_ms = (now - request.submitted) * 1e3
            request._fulfil(None, DeadlineExceeded(
                f"deadline expired after {waited_ms:.1f}ms in queue, before "
                "a forward pass started", waited_ms=waited_ms))
        get_registry().counter(
            "serve_rejected_total", "Requests failed without a forward pass",
            labels=("reason",)).labels(reason="deadline").inc(len(expired))

    def _full_locked(self, max_windows: int) -> bool:
        kind = self._queue[0].kind
        windows = 0
        for request in self._queue:
            if request.kind != kind:
                return True  # a kind boundary closes the batch
            windows += request.windows
            if windows >= max_windows:
                return True
        return False

    def _process(self, batch: list[InferenceRequest]) -> None:
        """Run one coalesced micro-batch: cache lookups, a single forward
        pass for the misses, scatter, cache fill, latency accounting."""
        kind = batch[0].kind
        cached: dict[int, object] = {}
        misses: list[int] = []
        if self.cache is not None:
            for i, request in enumerate(batch):
                hit = self.cache.get(self.loaded.fingerprint, request.digest,
                                     kind)
                if hit is None:
                    misses.append(i)
                else:
                    cached[i] = hit
        else:
            misses = list(range(len(batch)))

        try:
            results = self._forward(kind, [batch[i].x for i in misses])
        except BaseException as error:  # scatter failure to every waiter
            for request in batch:
                request._fulfil(None, error)
            return

        for i, value in zip(misses, results):
            if self.cache is not None:
                value = self.cache.put(self.loaded.fingerprint,
                                       batch[i].digest, value, kind)
            cached[i] = value
        now = time.perf_counter()
        handles = self._obs_handles()
        request_ms = handles.request_ms[kind]
        batch_windows = 0
        for i, request in enumerate(batch):
            seconds = now - request.submitted
            self.latency[kind].record(seconds)
            request_ms.observe(seconds * 1e3)
            batch_windows += request.windows
            if request.trace is not None:
                # Child of the submit-side context, so the fulfil span
                # shares the request's trace_id on this (possibly
                # worker) thread — without contextvar traffic: nothing
                # inside _fulfil opens spans of its own.
                start = time.perf_counter()
                request._fulfil(cached[i])
                obs_trace.record_span("engine.process",
                                      request.trace.child(), start,
                                      kind=kind, windows=request.windows,
                                      cached=i not in misses)
            else:
                request._fulfil(cached[i])
        with self._stats_lock:
            self.windows_served += batch_windows
            self.batches_run += 1
        handles.batches.inc()
        handles.windows.inc(batch_windows)
        handles.batch_windows.observe(batch_windows)
        with self._lock:
            depth = len(self._queue)
        handles.queue_depth.set(depth)

    def _forward(self, kind: str, inputs: list[np.ndarray]) -> list:
        """One eval/no-grad pass over the concatenated misses, split back
        per request."""
        if not inputs:
            return []
        stacked = inputs[0] if len(inputs) == 1 else np.concatenate(inputs)
        if kind == "encode":
            timestamp, instance = self.loaded.model.encode(stacked)
            ci = self.loaded.config.channel_independence
            channels = self.loaded.config.input_channels if ci else 1
            results, ts_row, inst_row = [], 0, 0
            for x in inputs:
                n = x.shape[0]
                results.append((timestamp[ts_row:ts_row + n * channels],
                                instance[inst_row:inst_row + n * channels]))
                ts_row += n * channels
                inst_row += n * channels
            return results
        prediction = self.loaded.model.predict(stacked)
        results, row = [], 0
        for x in inputs:
            results.append(prediction[row:row + x.shape[0]])
            row += x.shape[0]
        return results
