"""The serving façade: registry + batching engine + cache + telemetry.

:class:`InferenceService` is what the ``repro serve`` CLI (and any
embedding consumer) talks to: point it at a checkpoint source, then call
:meth:`encode` / :meth:`predict` per request or :meth:`serve_windows`
for a whole workload, and ask :meth:`report` for the latency/cache
summary.  A telemetry :class:`~repro.telemetry.Run` (optional, caller
owned) receives a span per workload and structured ``metric`` events
with the report numbers — the same observability spine training uses.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..obs import trace as obs_trace
from ..telemetry import NULL_RUN
from .batching import BatchingConfig, BatchingEngine
from .cache import EmbeddingCache
from .metrics import latency_report
from .registry import LoadedModel, ModelRegistry

__all__ = ["InferenceService", "ServiceConfig"]


@dataclass
class ServiceConfig:
    """End-to-end serving knobs (engine geometry + cache sizing)."""

    max_batch_size: int = 64
    max_wait_ms: float = 2.0
    cache_size: int = 1024   # 0 disables the embedding cache

    def batching(self) -> BatchingConfig:
        return BatchingConfig(max_batch_size=self.max_batch_size,
                              max_wait_ms=self.max_wait_ms)


class InferenceService:
    """One warm model behind a micro-batching, caching front door."""

    def __init__(self, loaded: LoadedModel,
                 config: ServiceConfig | None = None, run=None):
        self.loaded = loaded
        self.config = config or ServiceConfig()
        self.run = NULL_RUN if run is None else run
        self.cache = (EmbeddingCache(self.config.cache_size)
                      if self.config.cache_size > 0 else None)
        self.engine = BatchingEngine(loaded, self.config.batching(),
                                     cache=self.cache)
        self._started = time.perf_counter()

    @classmethod
    def from_checkpoint(cls, source, config: ServiceConfig | None = None,
                        run=None, run_root="results/runs") -> "InferenceService":
        """Build a service straight from a checkpoint file/dir/run id."""
        registry = ModelRegistry(run=run)
        loaded = registry.load(source, alias="serving", run_root=run_root)
        return cls(loaded, config=config, run=run)

    # -- request interface ------------------------------------------------
    def encode(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Dual-level embeddings for a batch, through the engine + cache."""
        return self.engine.encode(x)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.engine.predict(x)

    def serve_windows(self, windows: np.ndarray, mode: str = "encode",
                      request_size: int = 1):
        """Serve a whole workload: one request per ``request_size`` windows.

        This is the CLI batch mode: the workload is split into requests
        (cache granularity), the engine coalesces them back into
        micro-batches, and the per-request results are re-assembled in
        submission order.  Returns ``(timestamp, instance)`` stacked
        arrays for ``mode="encode"`` or the stacked prediction array for
        ``mode="predict"``.
        """
        if request_size < 1:
            raise ValueError("request_size must be >= 1")
        windows = np.asarray(windows)
        # One root trace per workload: every submit below derives its
        # context from this span, so the whole serve request shares one
        # trace_id through engine, worker thread, and cache.
        with self.run.span("serve_windows", mode=mode,
                           windows=int(windows.shape[0])):
            with obs_trace.span("service.serve_windows", mode=mode,
                                windows=int(windows.shape[0])):
                requests = [self.engine.submit(windows[s:s + request_size],
                                               mode)
                            for s in range(0, windows.shape[0], request_size)]
                self.engine.flush()
                results = [r.result() for r in requests]
        if mode == "encode":
            return (np.concatenate([r[0] for r in results]),
                    np.concatenate([r[1] for r in results]))
        return np.concatenate(results)

    # -- reporting --------------------------------------------------------
    def report(self, emit: bool = True) -> dict:
        """Latency report for everything served so far.

        With ``emit=True`` the numbers also land in the telemetry run as
        a structured ``metric`` event (type ``serve_report``).
        """
        elapsed = time.perf_counter() - self._started
        stats = self.cache.stats().as_dict() if self.cache is not None else None
        report = latency_report(
            self.engine.latency,
            windows=self.engine.windows_served,
            elapsed_s=elapsed,
            cache_stats=stats,
            model={"fingerprint": self.loaded.fingerprint,
                   "source": self.loaded.source,
                   "seq_len": self.loaded.config.seq_len,
                   "input_channels": self.loaded.config.input_channels},
            engine={"max_batch_size": self.config.max_batch_size,
                    "max_wait_ms": self.config.max_wait_ms,
                    "batches_run": self.engine.batches_run},
        )
        if emit and self.run.enabled:
            payload = {"windows_per_s": report["throughput"]["windows_per_s"],
                       "batches_run": self.engine.batches_run}
            for kind, summary in report["latency_ms"].items():
                if summary["count"]:
                    payload[f"{kind}_p50_ms"] = summary["p50_ms"]
                    payload[f"{kind}_p95_ms"] = summary["p95_ms"]
            if stats is not None:
                payload["cache_hit_rate"] = stats["hit_rate"]
            self.run.emit("metric", metric="serve_report", **payload)
        return report
