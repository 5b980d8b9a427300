"""The coordinator: launches, monitors and (elastically) restarts the
worker group of a data-parallel pre-training run.

The coordinator never trains.  It owns the shared-memory reducer and the
heartbeat slab, ships each rank a :class:`~repro.distributed.worker.WorkerTask`,
and then watches two failure channels:

* **exit codes** — a rank that dies (crash, kill, fault-injected
  ``SimulatedCrash``) exits non-zero or is signalled; survivors blocked
  on a reduce barrier time out with ``BrokenBarrierError`` and exit
  ``EXIT_PEER_LOST`` (the coordinator also terminates them proactively);
* **heartbeats** — each rank stamps a monotonic timestamp into shared
  memory every batch; a stale stamp beyond ``heartbeat_timeout_s`` marks
  a hung (not dead) rank.

In elastic mode a dead group is relaunched with ``resume=True`` — the
replacement replays from the last checkpoint saved by rank 0 (or from
scratch when checkpointing is off), bounded by ``max_restarts`` before a
:class:`~repro.checkpoint.TrainingAborted`.  A deliberate abort by a
recovery policy inside the workers (exit ``EXIT_ABORTED``) is never
restarted: the abort is replayed to the caller, matching the
single-process contract.

Observability mirrors the training spine: ``worker`` telemetry events
(started / dead / restart / finished) on the run, and ``dist_*`` obs
metric families (``dist_allreduce_seconds``, ``dist_worker_restarts``,
per-worker throughput gauges).
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import queue as queue_module
import time

from ..checkpoint import TrainingAborted
from ..core.config import PretrainConfig, TimeDRLConfig
from ..core.model import TimeDRL
from ..core.pretrain import (
    PretrainData,
    PretrainResult,
    finish_run,
    log_epoch,
    run_scope,
    setup_run,
)
from ..data.store import ShardedDataset
from ..obs.metrics import enabled as obs_enabled
from ..obs.metrics import get_registry as obs_registry
from ..telemetry import console_log
from .config import DistributedConfig
from .reduce import SharedAllReduce
from .sharding import shard_bounds
from .worker import EXIT_ABORTED, EXIT_OK, EXIT_PEER_LOST, WorkerTask, run_worker

__all__ = ["pretrain_data_parallel"]

_POLL_SECONDS = 0.05
_JOIN_TIMEOUT = 10.0


def _resolve_data_token(data):
    """Resolve ``data`` to ``(token, data)``: the picklable token shipped to
    every worker and the resolved :class:`~repro.core.pretrain.PretrainData`.

    ``synthetic_windows`` specs stay specs and are not generated here
    (workers materialize only their shard's blocks), so the run records
    no dataset fingerprint for them; stores travel as their
    ``kind='store'`` spec so workers re-open the memory maps themselves;
    in-memory arrays and window views travel by value (inherited on
    fork, pickled on spawn).
    """
    data = PretrainData(data, rows=(0, 0))  # the coordinator fetches no rows
    if data.source is None:
        return data.spec, data
    if isinstance(data.source, ShardedDataset):
        return data.source.store_spec(), data
    return data.source, data


def _rank_hooks(hooks, rank: int):
    """Per-rank hook routing: a dict maps ranks to hooks; a bare
    ``TrainingHooks`` rides on rank 0 (mirroring the single-process
    loop, which *is* rank 0 at world size 1)."""
    if hooks is None:
        return None
    if isinstance(hooks, dict):
        return hooks.get(rank)
    return hooks if rank == 0 else None


class _Group:
    """One incarnation of the worker group."""

    def __init__(self, ctx, tasks, reducer, heartbeats, queue):
        now = time.monotonic()
        for rank in range(len(tasks)):
            heartbeats[rank] = now
        self.processes = [
            ctx.Process(target=run_worker,
                        args=(task, reducer, heartbeats, queue),
                        name=f"repro-dp-{task.rank}", daemon=True)
            for task in tasks]
        for process in self.processes:
            process.start()

    def alive(self) -> bool:
        return any(process.is_alive() for process in self.processes)

    def exitcodes(self) -> list[int | None]:
        return [process.exitcode for process in self.processes]

    def terminate_and_join(self) -> None:
        for process in self.processes:
            if process.is_alive():
                process.terminate()
        deadline = time.monotonic() + _JOIN_TIMEOUT
        for process in self.processes:
            process.join(timeout=max(0.0, deadline - time.monotonic()))
            if process.is_alive():
                process.kill()
                process.join(timeout=_JOIN_TIMEOUT)


def pretrain_data_parallel(model_config: TimeDRLConfig, data,
                           train_config: PretrainConfig | None = None,
                           distributed: DistributedConfig | None = None,
                           run=None, hooks=None):
    """Data-parallel counterpart of :func:`repro.core.run_pretrain`.

    Same contract and return type (:class:`~repro.core.PretrainResult`,
    with ``world_size``/``worker_restarts`` filled in); ``hooks`` may be
    a single ``TrainingHooks`` (applied to rank 0) or a ``{rank: hooks}``
    dict for fault-injection on specific ranks.
    """
    train_config = train_config or PretrainConfig()
    dist = distributed or DistributedConfig()
    token, data = _resolve_data_token(data)
    try:
        run, owns_run, checkpoint_dir, extra_meta = setup_run(
            model_config, train_config, run, data.source, data.spec)
    finally:
        data.close()
    if extra_meta is not None:
        extra_meta["distributed"] = dataclasses.asdict(dist)

    n_params = sum(p.data.size for p in TimeDRL(model_config).parameters())
    ctx = multiprocessing.get_context(dist.start_method)
    heartbeats = ctx.RawArray("d", dist.world_size)
    messages = ctx.Queue()
    bounds = shard_bounds(data.size, dist.world_size)

    obs_on = obs_enabled()
    if obs_on:
        obs_registry().gauge("dist_world_size",
                             "Workers in the data-parallel group").set(
            dist.world_size)

    def make_tasks(resume: bool) -> list[WorkerTask]:
        return [WorkerTask(rank=rank, model_config=model_config,
                           train_config=train_config, data_token=token,
                           shard_start=lo, shard_stop=hi,
                           checkpoint_dir=(str(checkpoint_dir)
                                           if checkpoint_dir else None),
                           extra_meta=extra_meta, resume=resume,
                           hooks=_rank_hooks(hooks, rank))
                for rank, (lo, hi) in enumerate(bounds)]

    start = time.perf_counter()
    restarts = 0
    result_payload = None
    try:
        with run_scope(run, owns_run), run.span(
                "pretrain", epochs=train_config.epochs,
                batch_size=train_config.batch_size,
                world_size=dist.world_size):
            incarnation = 0
            while True:
                tasks = make_tasks(resume=incarnation > 0)
                # A fresh reducer per incarnation: a worker killed while
                # parked at a barrier leaves a stale waiter count behind,
                # which would desync (and hang) a group that inherited it.
                reducer = SharedAllReduce(
                    ctx, dist.world_size, n_params,
                    barrier_timeout_s=dist.barrier_timeout_s)
                group = _Group(ctx, tasks, reducer, heartbeats, messages)
                if run.enabled:
                    for process, task in zip(group.processes, tasks):
                        run.emit("worker", action="started", rank=task.rank,
                                 pid=process.pid, incarnation=incarnation,
                                 shard_start=task.shard_start,
                                 shard_stop=task.shard_stop)
                outcome = _monitor(group, dist, heartbeats, messages, run,
                                   train_config, obs_on)
                group.terminate_and_join()
                _drain(messages, run, train_config, obs_on)
                if outcome.kind == "finished":
                    result_payload = outcome.result
                    break
                if outcome.kind == "aborted":
                    raise TrainingAborted(outcome.detail,
                                          recoveries=outcome.recoveries)
                # outcome.kind == "dead"
                if not dist.elastic or restarts >= dist.max_restarts:
                    raise TrainingAborted(
                        f"worker group died ({outcome.detail}) and the "
                        f"elastic restart budget is exhausted "
                        f"({restarts}/{dist.max_restarts} restarts used)")
                restarts += 1
                incarnation += 1
                if obs_on:
                    obs_registry().counter(
                        "dist_worker_restarts",
                        "Elastic worker-group restarts").inc()
                if run.enabled:
                    run.emit("worker", action="restart", detail=outcome.detail,
                             incarnation=incarnation, restarts=restarts)
                if train_config.verbose:
                    console_log(f"[distributed] {outcome.detail}; restarting "
                                f"group (attempt {restarts}/"
                                f"{dist.max_restarts})")
    finally:
        messages.close()
        messages.join_thread()
    elapsed = time.perf_counter() - start

    model = TimeDRL(model_config)
    model.load_state_dict(result_payload["model_state"], strict=True)
    model.eval()
    history = [dict(record) for record in result_payload["history"]]
    if run.enabled:
        run.emit("worker", action="finished", world_size=dist.world_size,
                 restarts=restarts,
                 global_step=result_payload["global_step"])
    finish_run(run, owns_run, history, elapsed)
    return PretrainResult(
        model=model, history=history, wall_clock_seconds=elapsed,
        profile=None, run_id=run.run_id,
        run_dir=str(run.directory) if run.directory is not None else None,
        checkpoint_dir=str(checkpoint_dir) if checkpoint_dir else None,
        resumed_from_step=result_payload["resumed_from_step"],
        world_size=dist.world_size, worker_restarts=restarts)


@dataclasses.dataclass
class _Outcome:
    kind: str                 # "finished" | "dead" | "aborted"
    detail: str = ""
    result: dict | None = None
    recoveries: int = 0


def _handle_message(message, run, train_config, obs_on) -> dict | None:
    """Process one worker message; returns the payload for terminal ones."""
    kind = message["type"]
    if kind == "epoch":
        log_epoch(run, train_config.verbose, message["epoch"],
                  message["stats"], message["samples"], message["seconds"])
        return None
    if kind == "epoch_obs":
        if obs_on:
            registry = obs_registry()
            registry.histogram(
                "dist_allreduce_seconds",
                "Per-epoch wall-clock a rank spent in gradient all-reduce",
                labels=("rank",),
                buckets=(0.001, 0.01, 0.05, 0.1, 0.5, 1, 5, 30, 60, 300),
            ).labels(rank=str(message["rank"])).observe(
                message["allreduce_seconds"])
            if message["seconds"] > 0:
                registry.gauge(
                    "dist_worker_throughput",
                    "Windows/s a rank processed in its last epoch",
                    labels=("rank",)).labels(rank=str(message["rank"])).set(
                    message["samples"] / message["seconds"])
        return None
    return message  # result / aborted / error / peer_lost


def _monitor(group: _Group, dist: DistributedConfig, heartbeats, messages,
             run, train_config, obs_on) -> _Outcome:
    """Drain messages and watch exit codes + heartbeats until the group
    finishes, aborts, or loses a worker."""
    result = None
    abort = None
    error_detail = None
    flush_deadline = None  # grace period for the queue after group exit
    while True:
        try:
            while True:
                message = _handle_message(messages.get(timeout=_POLL_SECONDS),
                                          run, train_config, obs_on)
                if message is None:
                    continue
                if message["type"] == "result":
                    result = message
                elif message["type"] == "aborted":
                    abort = message
                elif message["type"] == "error":
                    error_detail = (f"rank {message['rank']} crashed:\n"
                                    f"{message['error']}")
        except queue_module.Empty:
            pass

        codes = group.exitcodes()
        if group.alive():
            # A rank that crashed or was killed while peers still run:
            # tear down now — the barrier timeout is only the backstop.
            dead = [rank for rank, code in enumerate(codes)
                    if code is not None and code not in (EXIT_OK, EXIT_ABORTED,
                                                         EXIT_PEER_LOST)]
            if dead:
                rank = dead[0]
                if run.enabled:
                    run.emit("worker", action="dead", rank=rank,
                             exitcode=codes[rank], reason="exit")
                return _Outcome("dead", detail=error_detail or
                                f"rank {rank} exited with status {codes[rank]}")
            now = time.monotonic()
            stale = [rank for rank, process in enumerate(group.processes)
                     if process.is_alive()
                     and now - heartbeats[rank] > dist.heartbeat_timeout_s]
            if stale:
                rank = stale[0]
                if run.enabled:
                    run.emit("worker", action="dead", rank=rank,
                             reason="heartbeat_timeout",
                             stale_seconds=now - heartbeats[rank])
                return _Outcome("dead", detail=f"rank {rank} heartbeat stale "
                                f"for {now - heartbeats[rank]:.1f}s")
            continue

        # Group fully exited: terminal messages may still be in the pipe —
        # keep draining for a bounded grace period before deciding on exit
        # codes alone.
        if abort is not None:
            return _Outcome("aborted", detail=abort["error"],
                            recoveries=abort["recoveries"])
        if all(code == EXIT_OK for code in codes) and result is not None:
            return _Outcome("finished", result=result)
        crashed = [(rank, code) for rank, code in enumerate(codes)
                   if code not in (EXIT_OK, EXIT_ABORTED, EXIT_PEER_LOST)]
        if crashed and error_detail is not None:
            rank, code = crashed[0]
            if run.enabled:
                run.emit("worker", action="dead", rank=rank, exitcode=code,
                         reason="exit")
            return _Outcome("dead", detail=error_detail)
        if flush_deadline is None:
            # Crash tracebacks arrive almost instantly (the worker flushed
            # its queue before exiting); results/abort details deserve the
            # longer join grace.
            grace = 1.0 if crashed else _JOIN_TIMEOUT
            flush_deadline = time.monotonic() + grace
        if time.monotonic() < flush_deadline:
            continue
        if crashed:
            rank, code = crashed[0]
            if run.enabled:
                run.emit("worker", action="dead", rank=rank, exitcode=code,
                         reason="exit")
            return _Outcome("dead",
                            detail=f"rank {rank} exited with status {code}")
        if any(code == EXIT_ABORTED for code in codes):
            return _Outcome("aborted",
                            detail="a recovery policy aborted training "
                            "(worker abort detail was lost)")
        if all(code == EXIT_OK for code in codes):  # pragma: no cover
            return _Outcome("dead", detail="group exited cleanly without a "
                            "result payload")
        rank = next(rank for rank, code in enumerate(codes)
                    if code == EXIT_PEER_LOST)
        return _Outcome("dead", detail=f"rank {rank} lost a peer at a reduce "
                        "barrier")


def _drain(messages, run, train_config, obs_on) -> None:
    """Absorb whatever the (now joined) group left on the queue so late
    epoch records still feed telemetry and the next incarnation starts
    with an empty mailbox."""
    try:
        while True:
            _handle_message(messages.get_nowait(), run, train_config, obs_on)
    except queue_module.Empty:
        pass
