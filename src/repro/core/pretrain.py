"""Self-supervised pre-training loop (paper Fig. 3a).

Works for both task families:

* forecasting — batches are sliding input windows (targets unused);
* classification — batches are whole labelled samples (labels unused).

Observability: pass ``PretrainConfig(telemetry=True)`` (or an explicit
``run=``) to record the run — manifest, per-step/per-epoch metrics, span
traces and health events — under ``results/runs/<run_id>/``.

Fault tolerance: pass ``PretrainConfig(checkpoint=CheckpointConfig(...))``
to checkpoint the complete training state (model, optimizer, RNGs, batch
cursor, history) at epoch and/or batch boundaries and to escalate health
findings into recovery actions (skip-batch, rollback-with-LR-backoff,
bounded abort).  Resume is bit-identical: a run killed at any batch
boundary and resumed from its last checkpoint produces exactly the same
parameters and losses as an uninterrupted run (see
``tests/checkpoint/test_resume_exact.py``).

One loop: :class:`_PretrainLoop` runs both in process and inside every
data-parallel worker (``repro.distributed.worker``); only its batch
fetch, gradient exchange and reporter differ.

With telemetry and checkpointing both off the loop is bit-identical to
the uninstrumented original: no derived metrics are computed, no clocks
beyond the wall-clock total are read, and no files are touched.
"""

from __future__ import annotations

import dataclasses
import os
import pathlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .. import nn
from ..checkpoint import (
    CheckpointManager,
    RecoveryController,
    TrainingAborted,
    TrainingState,
    capture_state,
    restore_state,
    rng_state,
)
from ..data.datasets import ForecastingWindows
from ..data.loader import batch_indices
from ..data.prefetch import PrefetchLoader
from ..data.specs import materialize_data_spec, materialize_spec_rows
from ..data.store import ShardedDataset, resolve_data_source
from ..nn import profiler
from ..obs.metrics import enabled as obs_enabled
from ..obs.metrics import get_registry as obs_registry
from ..telemetry import NULL_RUN, ParamUpdateMeter, Run, console_log, grad_global_norm
from ..utils.training import Timer, format_profile
from .config import PretrainConfig, TimeDRLConfig
from .model import TimeDRL

__all__ = ["PretrainResult", "run_pretrain", "iterate_pretrain_batches"]

LOSS_KEYS = ("total", "predictive", "contrastive")


@dataclass
class PretrainResult:
    """Artifacts of a pre-training run."""

    model: TimeDRL
    history: list[dict[str, float]] = field(default_factory=list)
    wall_clock_seconds: float = 0.0
    profile: dict[str, dict[str, float]] | None = None  # op stats when profiled
    run_id: str | None = None   # telemetry run id (when enabled)
    run_dir: str | None = None  # telemetry run directory (when enabled)
    checkpoint_dir: str | None = None    # where checkpoints were written
    resumed_from_step: int | None = None  # global step a resume started at
    world_size: int = 1        # data-parallel workers (1 = in-process loop)
    worker_restarts: int = 0   # elastic restarts taken during the run

    @property
    def final_loss(self) -> float:
        return self.history[-1]["total"] if self.history else float("nan")


class PretrainData:
    """A resolved pre-training ``data`` argument.

    Accepts a :class:`ForecastingWindows` split, an out-of-core
    :class:`~repro.data.store.ShardedDataset`, a store directory (or its
    manifest), a ``repro.data.specs`` spec dict, or a sample array.
    Exposes ``size`` (windows), ``fetch(global_indices) -> (B, T, C)``,
    ``source`` (what a telemetry run fingerprints) and ``spec`` (the
    caller's spec dict, if one was given).

    ``rows=(start, stop)`` promises that only those global rows will be
    fetched: a ``synthetic_windows`` spec then generates just the blocks
    overlapping them and ``source`` is ``None``.  :meth:`close` releases
    a store this object opened; data passed in open stays open.
    """

    def __init__(self, data, rows: tuple[int, int] | None = None):
        self.spec = data if isinstance(data, dict) and "kind" in data else None
        self._opened = False
        if (self.spec is not None and rows is not None
                and self.spec["kind"] == "synthetic_windows"):
            start, stop = rows
            local = materialize_spec_rows(self.spec, start, stop)
            self.source = None
            self.size = int(self.spec["windows"])
            self.fetch = lambda indices: local[indices - start]
            return
        if self.spec is not None:
            data = materialize_data_spec(data)
            self._opened = isinstance(data, ShardedDataset)
        elif isinstance(data, (str, os.PathLike)):
            data = resolve_data_source(data)
            self._opened = True
        if isinstance(data, ForecastingWindows):
            self.fetch = lambda indices: data.batch(indices)[0]
        elif isinstance(data, ShardedDataset):
            self.fetch = data.batch
        else:
            data = np.asarray(data)
            self.fetch = data.__getitem__
        self.source = data
        self.size = len(data)

    def close(self) -> None:
        if self._opened:
            self.source.close()


def _batches(size: int, fetch, batch_size: int, rng: np.random.Generator,
             max_batches: int | None = None, skip: int = 0):
    """Yield ``fetch(indices)`` for each batch of one epoch.

    ``skip`` drops the first N batches *without fetching them*: the index
    permutation is still drawn identically from ``rng``, so a resumed
    epoch sees exactly the batches the interrupted one would have.
    Skipped batches count against ``max_batches``.
    """
    count = 0
    for indices in batch_indices(size, batch_size, rng):
        if count >= skip:
            yield fetch(indices)
        count += 1
        if max_batches is not None and count >= max_batches:
            return


def iterate_pretrain_batches(data, batch_size: int, rng: np.random.Generator,
                             max_batches: int | None = None, skip: int = 0):
    """Yield raw input batches ``(B, T, C)`` from any ``data`` that
    :class:`PretrainData` accepts, in the order the training loop sees
    them (see :func:`_batches` for ``skip``)."""
    data = PretrainData(data)
    try:
        yield from _batches(data.size, data.fetch, batch_size, rng,
                            max_batches, skip)
    finally:
        data.close()


def _profiler_alloc_bytes() -> float:
    """Cumulative bytes the op profiler has attributed so far."""
    return float(sum(stat["bytes"] for stat in profiler.snapshot().values()))


class _NullContext:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


_NULL_CTX = _NullContext()


def local_exchange(losses, x, params) -> dict[str, float]:
    """The in-process gradient exchange: there is nothing to exchange.
    The local losses are the step's loss means and the gradients stay
    where ``backward`` left them."""
    return {key: float(losses[key].data) for key in LOSS_KEYS}


def record_obs_epoch(phase: str, batches: int, seconds: float,
                     mean_loss: float | None) -> None:
    """Publish one training epoch into the obs metrics registry.

    Callers gate on ``obs_enabled()`` sampled before the epoch, so the
    disabled path never reads the epoch clock.
    """
    registry = obs_registry()
    registry.counter("train_steps_total", "Optimizer steps taken",
                     labels=("phase",)).labels(phase=phase).inc(batches)
    registry.counter("train_epochs_total", "Epochs completed",
                     labels=("phase",)).labels(phase=phase).inc()
    registry.histogram("train_epoch_seconds", "Wall-clock per epoch",
                       labels=("phase",),
                       buckets=(0.01, 0.1, 0.5, 1, 5, 30, 60, 300,
                                1800, 7200)).labels(phase=phase).observe(seconds)
    if mean_loss is not None:
        registry.gauge("train_last_loss",
                       "Most recent epoch's mean total loss").set(mean_loss)


def log_epoch(run, verbose: bool, epoch: int, stats: dict, samples: int,
              seconds: float, **extra) -> None:
    """Record one epoch on the telemetry run and the console."""
    if run.enabled:
        metrics = {key: stats[key] for key in LOSS_KEYS}
        metrics["epoch_seconds"] = seconds
        metrics["samples"] = samples
        if seconds > 0:
            metrics["throughput"] = samples / seconds
        metrics.update(extra)
        run.log_epoch(epoch, **metrics)
    if verbose:
        console_log(f"[pretrain] epoch {epoch}: "
                    f"total={stats['total']:.4f} "
                    f"P={stats['predictive']:.4f} "
                    f"C={stats['contrastive']:.4f}")


class _LocalReporter:
    """In-process reporting: the telemetry run, the obs counters and the
    console.  Data-parallel workers use a queue reporter instead
    (``repro.distributed.worker``) with the same members."""

    writes_checkpoints = True

    def __init__(self, run, train_config: PretrainConfig):
        self.run = run
        self.verbose = train_config.verbose
        self.timer = Timer(accumulate=True) if run.enabled else None
        self.profiling = run.enabled and train_config.profile
        self.alloc_before = _profiler_alloc_bytes() if self.profiling else 0.0
        self.obs_on = False
        self.epoch_started = 0.0

    @contextmanager
    def epoch(self, index: int):
        """Scope of one epoch's batch loop."""
        # Sampled once per epoch: the batch loop must not pay even a
        # registry lookup per step on the disabled path.
        self.obs_on = obs_enabled()
        self.epoch_started = time.perf_counter() if self.obs_on else 0.0
        with self.run.span("epoch", index=index), (self.timer or _NULL_CTX):
            yield

    def end_epoch(self, epoch: int, stats: dict, samples: int,
                  batches: int) -> None:
        if self.obs_on:
            record_obs_epoch("pretrain", batches,
                             time.perf_counter() - self.epoch_started,
                             stats["total"])
        extra = {}
        if self.profiling:
            alloc_now = _profiler_alloc_bytes()
            extra["alloc_mb"] = (alloc_now - self.alloc_before) / 1e6
            self.alloc_before = alloc_now
        log_epoch(self.run, self.verbose, epoch, stats, samples,
                  self.timer.last if self.timer else 0.0, **extra)

    def log(self, message: str) -> None:
        if self.verbose:
            console_log(f"[pretrain] {message}")


class _Rollback(Exception):
    """Internal signal: restore the last checkpoint and continue."""


class _PretrainLoop:
    """The resumable pre-training loop, in process and in every
    data-parallel worker.

    Cursor model: ``(epoch, batch_in_epoch, global_step)`` plus the loader
    RNG state *as of the start of the current epoch*.  ``batch_indices``
    draws one shuffle permutation per epoch from the loader RNG, so
    restoring the epoch-start state and skipping ``batch_in_epoch``
    batches replays the interrupted epoch bit-identically.
    ``batch_in_epoch`` counts global batches, so a checkpoint taken at
    one world size resumes bit-identically at any other.

    Where the loop runs is handed in, not branched on:

    * ``fetch(global_indices)`` — the batch; a worker gets only its
      shard's rows, or ``None`` when it owns none of them;
    * ``exchange(losses, x, params) -> loss means`` — in process
      :func:`local_exchange`; in a worker the all-reduce of the
      ``params``' gradients (``losses`` is ``None`` when ``x`` is);
    * ``reporter`` — its ``run`` takes per-step telemetry, ``epoch`` /
      ``end_epoch`` the epoch records, ``log`` console notices, and
      ``writes_checkpoints`` says whether this loop saves.

    Every step checks in one order: forward → ``on_loss`` → backward →
    ``on_after_backward`` → exchange → loss check on the exchanged means
    → clip → gradient check → step.  A worker cannot check its loss
    before the exchange without a second barrier per step, so the check
    comes after it everywhere.
    """

    def __init__(self, model_config: TimeDRLConfig,
                 train_config: PretrainConfig, size: int, fetch, reporter,
                 exchange=local_exchange, hooks=None, checkpoint_dir=None,
                 extra_meta=None):
        self.model = TimeDRL(model_config)
        self.model.train()
        self.params = self.model.parameters()
        self.optimizer = nn.AdamW(self.params, lr=train_config.learning_rate,
                                  weight_decay=train_config.weight_decay)
        self.rng = np.random.default_rng(train_config.seed)
        self.train_config = train_config
        self.size = size
        self.fetch = fetch
        self.reporter = reporter
        self.run = reporter.run
        self.exchange = exchange
        self.hooks = hooks
        self.extra_meta = extra_meta
        self.history: list[dict[str, float]] = []
        ckpt = train_config.checkpoint
        self.manager = self.recovery = None
        if ckpt is not None:
            self.manager = CheckpointManager(checkpoint_dir,
                                             keep_last=ckpt.keep_last,
                                             best_metric=ckpt.best_metric,
                                             best_mode=ckpt.best_mode)
            self.recovery = RecoveryController(ckpt, run=self.run)
        self.every_n_batches = ckpt.every_n_batches if ckpt else None
        self.every_n_epochs = ckpt.every_n_epochs if ckpt else 1
        # cursor
        self.epoch = 0
        self.start_batch = 0      # batches to skip when (re)entering the epoch
        self.global_step = 0
        self.pending = None       # (sums, batches, samples) restored mid-epoch
        self.epoch_rng_state = None
        self.active_loader = None  # PrefetchLoader of the epoch in flight
        self.resumed_from_step = None
        self.meter = None         # per-step telemetry, built in run_all

    # -- state transfer -------------------------------------------------
    def apply_state(self, state: TrainingState) -> None:
        """Adopt a checkpointed state: used for both resume and rollback."""
        restore_state(state, self.model, self.optimizer, loader_rng=self.rng)
        self.epoch = state.epoch
        self.start_batch = state.batch_in_epoch
        self.global_step = state.global_step
        self.history[:] = [dict(record) for record in state.history]
        if state.batch_in_epoch > 0:
            self.pending = (dict(state.epoch_sums), state.epoch_batches,
                            state.epoch_samples)
        else:
            self.pending = None

    def resume(self) -> None:
        """Adopt the newest valid checkpoint, if there is one."""
        loaded = self.manager.load_latest()
        if loaded is None:
            return
        state = loaded[0]
        self.apply_state(state)
        self.resumed_from_step = state.global_step
        if self.run.enabled:
            self.run.emit("checkpoint", action="resumed",
                          step=state.global_step, epoch=state.epoch,
                          batch=state.batch_in_epoch)
        self.reporter.log(f"resuming from step {state.global_step} "
                          f"(epoch {state.epoch}, "
                          f"batch {state.batch_in_epoch})")

    def _save(self, batch_in_epoch: int, sums, batches: int, samples: int,
              metrics=None, at_epoch_start: bool = False) -> None:
        if not self.reporter.writes_checkpoints:
            return
        loader = rng_state(self.rng) if at_epoch_start else self.epoch_rng_state
        state = capture_state(
            self.model, self.optimizer, loader_rng_state=loader,
            epoch=self.epoch, batch_in_epoch=batch_in_epoch,
            global_step=self.global_step, epoch_sums=sums,
            epoch_batches=batches, epoch_samples=samples,
            history=self.history)
        info = self.manager.save(state, metrics=metrics,
                                 extra_meta=self.extra_meta)
        if self.run.enabled:
            self.run.emit("checkpoint", action="saved", step=info.step,
                          epoch=self.epoch, batch=batch_in_epoch,
                          file=info.path.name, sha256=info.sha256,
                          size_bytes=info.size_bytes, best=info.is_best)

    def _rollback(self) -> None:
        loaded = self.manager.load_latest() if self.manager is not None else None
        if loaded is None:
            raise TrainingAborted(
                "rollback requested but no valid checkpoint is available",
                recoveries=self.recovery.recoveries if self.recovery else 0)
        state, __ = loaded
        self.apply_state(state)
        # Cumulative LR backoff: the restored checkpoint carries the LR it
        # was saved with, so scale by backoff**rollbacks to keep repeated
        # rollbacks to the same checkpoint making progress downward.
        self.optimizer.lr = self.optimizer.lr * self.recovery.lr_scale()
        if self.run.enabled:
            self.run.emit("recovery", action="rollback_restored",
                          step=state.global_step, epoch=state.epoch,
                          batch=state.batch_in_epoch,
                          lr=float(self.optimizer.lr),
                          recoveries=self.recovery.recoveries)
        self.reporter.log(f"rolled back to step {state.global_step} "
                          f"(epoch {state.epoch}, batch "
                          f"{state.batch_in_epoch}), "
                          f"lr={self.optimizer.lr:.2e}")

    # -- driving --------------------------------------------------------
    def run_all(self) -> None:
        cfg = self.train_config
        if self.run.enabled:
            self.meter = ParamUpdateMeter(self.params)
        if (self.manager is not None and cfg.checkpoint.wants_rollback
                and self.global_step == 0):
            # Rollback needs a floor to land on even if the very first
            # batches go bad: checkpoint the untrained state.
            self.epoch_rng_state = rng_state(self.rng)
            self._save(0, {}, 0, 0, at_epoch_start=True)
        try:
            while self.epoch < cfg.epochs:
                try:
                    self._run_epoch()
                except _Rollback:
                    # Join the prefetch worker before the restore touches
                    # the loader RNG it shares.
                    self._close_loader()
                    self._rollback()
        finally:
            self._close_loader()

    def _close_loader(self) -> None:
        if self.active_loader is not None:
            self.active_loader.close()
            self.active_loader = None

    def _run_epoch(self) -> None:
        cfg = self.train_config
        telemetry_on = self.run.enabled
        epoch = self.epoch
        skip = self.start_batch
        self.start_batch = 0
        if self.manager is not None:
            # On a fresh epoch this is the epoch-start state; on a resumed
            # epoch apply_state already rewound the loader RNG to it.
            self.epoch_rng_state = rng_state(self.rng)
        if self.pending is not None:
            sums, batches, samples = self.pending
            self.pending = None
        else:
            sums = dict.fromkeys(LOSS_KEYS, 0.0)
            batches = 0
            samples = 0
        batch_in_epoch = skip

        source = _batches(self.size, self.fetch, cfg.batch_size, self.rng,
                          cfg.max_batches_per_epoch, skip=skip)
        if cfg.prefetch:
            # Double-buffered: the worker gathers batch k+1 while the
            # step below runs on batch k.  FIFO order keeps the epoch
            # bit-identical to the unprefetched path.
            source = self.active_loader = PrefetchLoader(
                source, depth=cfg.prefetch_depth)
        with self.reporter.epoch(epoch):
            for x in source:
                step = self.global_step
                self.optimizer.zero_grad()
                # Never clear ``losses`` before the forward: the previous
                # step's graph must stay alive through it, or its pages
                # are freed, trimmed by the allocator and faulted in
                # again every step.
                if x is None:
                    losses = None
                else:
                    losses = self.model.pretraining_losses(x)
                    if self.hooks is not None:
                        self.hooks.on_loss(losses, epoch, batch_in_epoch, step)
                    losses["total"].backward()
                    if self.hooks is not None:
                        self.hooks.on_after_backward(self.model, epoch,
                                                     batch_in_epoch, step)
                means = self.exchange(losses, x, self.params)
                grad_norm = action = None
                if self.recovery is not None:
                    action = self.recovery.check_loss(
                        means["total"], epoch, batch_in_epoch, step)
                if action is None:
                    if cfg.grad_clip:
                        grad_norm = nn.clip_grad_norm(self.params,
                                                      cfg.grad_clip)
                    if self.recovery is not None:
                        norm_value = (grad_norm if grad_norm is not None
                                      else grad_global_norm(self.params))
                        action = self.recovery.check_grad(
                            float(norm_value), epoch, batch_in_epoch, step)
                if action == "rollback":
                    raise _Rollback()
                if action == "skip_batch":
                    batch_in_epoch += 1
                    self.global_step += 1
                    continue
                log_step = (telemetry_on and cfg.log_every
                            and step % cfg.log_every == 0)
                if log_step:
                    if grad_norm is None:
                        grad_norm = grad_global_norm(self.params)
                    self.meter.snapshot()
                self.optimizer.step()
                for key in sums:
                    sums[key] += means[key]
                if log_step:
                    self.run.log_step(step, **means, grad_norm=grad_norm,
                                      update_ratio=self.meter.ratio())
                batches += 1
                # Global rows of this batch: a worker's x holds only its
                # shard's part of them.
                samples += min(cfg.batch_size,
                               self.size - batch_in_epoch * cfg.batch_size)
                batch_in_epoch += 1
                self.global_step += 1
                if (self.manager is not None and self.every_n_batches
                        and batch_in_epoch % self.every_n_batches == 0):
                    self._save(batch_in_epoch, sums, batches, samples,
                               metrics={key: value / batches
                                        for key, value in sums.items()})
                if self.hooks is not None:
                    self.hooks.on_batch_end(epoch, batch_in_epoch - 1, step)

        self._close_loader()
        if batches == 0:
            raise ValueError("pre-training data yielded no batches")
        epoch_stats = {key: value / batches for key, value in sums.items()}
        epoch_stats["epoch"] = float(epoch)
        self.history.append(epoch_stats)
        self.reporter.end_epoch(epoch, epoch_stats, samples, batches)
        if self.recovery is not None:
            action = self.recovery.check_epoch(epoch_stats["total"], epoch)
            if action == "rollback":
                # The diverged epoch's history entry is discarded by the
                # restore inside _rollback().
                raise _Rollback()
        self.epoch += 1
        if self.manager is not None and (self.epoch % self.every_n_epochs == 0
                                         or self.epoch == cfg.epochs):
            self._save(0, {}, 0, 0, metrics=epoch_stats, at_epoch_start=True)


def _resolve_checkpoint_dir(ckpt_cfg, train_config, run) -> pathlib.Path:
    """Pick the checkpoint directory.  Precedence, highest first:

    1. an explicit ``CheckpointConfig.directory`` — ALWAYS wins, even
       when a caller-owned telemetry ``run`` is also present (the run
       directory is NOT used in that case; callers splitting checkpoints
       from the run spine, e.g. transfer's per-phase subdirectories,
       rely on this);
    2. the telemetry run's own directory → ``<run_dir>/checkpoints`` —
       keeps a run's artifacts in one place;
    3. the configured ``train_config.run_root`` → ``<run_root>/checkpoints``
       (no telemetry, no explicit directory).

    The choice is recorded as a ``checkpoint`` telemetry event
    (``action="dir_resolved"``) so a surprising precedence outcome is
    visible in ``repro runs tail`` instead of silent.
    """
    if ckpt_cfg.directory:
        chosen, source = pathlib.Path(ckpt_cfg.directory), "explicit_directory"
    elif getattr(run, "directory", None):
        chosen = pathlib.Path(run.directory) / "checkpoints"
        source = "run_directory"
    else:
        chosen = pathlib.Path(train_config.run_root) / "checkpoints"
        source = "run_root"
    if getattr(run, "enabled", False):
        run.emit("checkpoint", action="dir_resolved", source=source,
                 directory=str(chosen),
                 run_directory_ignored=bool(
                     ckpt_cfg.directory and getattr(run, "directory", None)))
    return chosen


def setup_run(model_config: TimeDRLConfig, train_config: PretrainConfig,
              run, source, spec=None):
    """The telemetry run, checkpoint directory and checkpoint extra-meta
    of one pre-training call, in process or data-parallel.

    ``source`` is the resolved data the run fingerprints; ``spec`` the
    caller's data spec dict, if any.  Returns ``(run, owns_run,
    checkpoint_dir, extra_meta)``: a run is opened (and owned) only when
    none was passed and ``train_config.telemetry`` is on.  The extra-meta
    lets ``repro runs resume`` rebuild the model, config and data without
    the original script; its ``data_spec`` is the configured one, else
    the store's own ``kind='store'`` spec, else ``spec``.
    """
    owns_run = run is None and train_config.telemetry
    if owns_run:
        run = Run.create(root=train_config.run_root,
                         name=train_config.run_name,
                         model_config=model_config,
                         train_config=train_config,
                         seed=train_config.seed, data=source,
                         log_to_console=train_config.verbose)
    elif run is None:
        run = NULL_RUN
    ckpt_cfg = train_config.checkpoint
    if ckpt_cfg is None:
        return run, owns_run, None, None
    data_spec = ckpt_cfg.data_spec
    if data_spec is None and isinstance(source, ShardedDataset):
        data_spec = source.store_spec()
    extra_meta = {"model_config": dataclasses.asdict(model_config),
                  "train_config": dataclasses.asdict(train_config),
                  "data_spec": data_spec if data_spec is not None else spec}
    return (run, owns_run, _resolve_checkpoint_dir(ckpt_cfg, train_config, run),
            extra_meta)


@contextmanager
def run_scope(run, owns_run: bool):
    """Close an owned run as failed (a recovery policy aborted) or
    crashed (anything else) when training raises."""
    try:
        yield
    except TrainingAborted as error:
        # Deliberate stop by a recovery policy: a controlled failure, not
        # a crash.
        if owns_run:
            run.emit("health", check="aborted", phase="run",
                     error=type(error).__name__, detail=str(error))
            run.finish("failed")
        raise
    except BaseException as error:
        if owns_run:
            run.emit("health", check="exception", phase="run",
                     error=type(error).__name__, detail=str(error))
            run.record_crash(error)
        raise


def finish_run(run, owns_run: bool, history, elapsed: float) -> None:
    """Summarise a completed pre-training run and close it if owned."""
    if run.enabled and history:
        run.log_summary(final_total=history[-1]["total"],
                        final_predictive=history[-1]["predictive"],
                        final_contrastive=history[-1]["contrastive"],
                        epochs=len(history),
                        wall_clock_seconds=elapsed)
    if owns_run:
        run.finish("completed")


def run_pretrain(model_config: TimeDRLConfig, data,
                 train_config: PretrainConfig | None = None,
                 run=None, hooks=None, distributed=None) -> PretrainResult:
    """Pre-train a :class:`TimeDRL` model on unlabeled data.

    Parameters
    ----------
    data:
        A :class:`ForecastingWindows` (forecasting), an ndarray of samples
        ``(N, T, C)`` (classification), an out-of-core
        :class:`~repro.data.store.ShardedDataset`, a path to a store
        directory built by ``repro data build`` (opened and memory-mapped
        here), or a ``repro.data.specs`` spec dict (materialized here —
        or shard-by-shard inside the workers when distributed).  Labels
        are never consumed.  With ``train_config.prefetch=True`` batches
        are staged through a background
        :class:`~repro.data.prefetch.PrefetchLoader`.
    run:
        Optional :class:`repro.telemetry.Run` to report into (the caller
        keeps ownership).  When omitted, ``train_config.telemetry=True``
        opens (and finishes) a fresh run under ``train_config.run_root``.
    hooks:
        Optional :class:`repro.checkpoint.TrainingHooks` — fault-injection
        points for the test harness.  Production code leaves this ``None``.
    distributed:
        ``None`` (single process), an int world size, a dict, or a
        :class:`repro.distributed.DistributedConfig`.  A world size above
        1 routes through :func:`repro.distributed.pretrain_data_parallel`;
        1 stays on this in-process loop (bit-identical by construction).

    Returns
    -------
    PretrainResult with the trained model and per-epoch loss history.
    """
    train_config = train_config or PretrainConfig()
    if distributed is not None:
        from ..distributed import pretrain_data_parallel, resolve_distributed

        dist = resolve_distributed(distributed)
        if dist is not None and dist.world_size > 1:
            return pretrain_data_parallel(model_config, data,
                                          train_config=train_config,
                                          distributed=dist, run=run,
                                          hooks=hooks)
    data = PretrainData(data)
    try:
        run, owns_run, checkpoint_dir, extra_meta = setup_run(
            model_config, train_config, run, data.source, data.spec)
        if train_config.profile:
            profiler.enable()
        loop = _PretrainLoop(model_config, train_config, data.size,
                             data.fetch, _LocalReporter(run, train_config),
                             hooks=hooks, checkpoint_dir=checkpoint_dir,
                             extra_meta=extra_meta)
        if loop.manager is not None and train_config.checkpoint.resume:
            loop.resume()
        start = time.perf_counter()
        with run_scope(run, owns_run), run.span(
                "pretrain", epochs=train_config.epochs,
                batch_size=train_config.batch_size):
            loop.run_all()
        elapsed = time.perf_counter() - start
    finally:
        data.close()

    profile = None
    if train_config.profile:
        profiler.disable()
        profile = profiler.snapshot()
        if train_config.verbose:
            console_log("[pretrain] op profile:")
            console_log(format_profile(profile, limit=20))
    finish_run(run, owns_run, loop.history, elapsed)
    loop.model.eval()
    return PretrainResult(model=loop.model, history=loop.history,
                          wall_clock_seconds=elapsed,
                          profile=profile, run_id=run.run_id,
                          run_dir=(str(run.directory)
                                   if run.directory is not None else None),
                          checkpoint_dir=(str(checkpoint_dir)
                                          if checkpoint_dir is not None else None),
                          resumed_from_step=loop.resumed_from_step)
