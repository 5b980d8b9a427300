"""The per-rank worker process of the data-parallel pre-trainer.

``run_worker`` is a module-level entrypoint (spawn-compatible: every
shared handle travels through ``Process`` args).  Each rank runs the
same ``repro.core`` pre-training loop as the in-process path, handed
three worker collaborators:

* **batch fetch** — every rank draws the IDENTICAL global batch
  permutation from the same loader RNG and fetches only the indices
  inside its shard (``None`` when it owns none), so the union of the
  per-rank selections is exactly the single-process batch stream;
* **gradient exchange** — a heartbeat stamp, then local mean gradients
  through :class:`~repro.distributed.reduce.SharedAllReduce`; the
  reduced gradient is bit-identical on every replica, so optimizer
  trajectories stay in lockstep with no parameter broadcast.  Recovery
  checks (NaN loss/grad, divergence) see the REDUCED values, so every
  replica takes the same skip/rollback/abort decision at the same step;
* **reporter** — rank 0 saves the checkpoints and sends the epoch
  history records to the coordinator over the message queue; every rank
  sends a per-epoch observability digest.

Exit codes tell the coordinator what happened: ``0`` finished, ``1``
crashed (elastic restart), ``3`` a *peer* died and broke a barrier
(restart, not a fault of this rank), ``4`` a recovery policy aborted
training deliberately (no restart — the abort is replayed to the
caller).
"""

from __future__ import annotations

import threading
import time
import traceback
from dataclasses import dataclass

from ..checkpoint import TrainingAborted
from ..core.config import PretrainConfig, TimeDRLConfig
from ..core.pretrain import _NULL_CTX, LOSS_KEYS, PretrainData, _PretrainLoop
from ..telemetry import NULL_RUN
from .reduce import SharedAllReduce, flatten_grads, scatter_grads
from .sharding import local_indices

__all__ = ["WorkerTask", "run_worker",
           "EXIT_OK", "EXIT_CRASH", "EXIT_PEER_LOST", "EXIT_ABORTED"]

EXIT_OK = 0
EXIT_CRASH = 1
EXIT_PEER_LOST = 3
EXIT_ABORTED = 4


@dataclass
class WorkerTask:
    """Everything one rank needs, picklable through ``Process`` args."""

    rank: int
    model_config: TimeDRLConfig
    train_config: PretrainConfig
    data_token: object            # any ``PretrainData`` input
    shard_start: int
    shard_stop: int
    checkpoint_dir: str | None = None
    extra_meta: dict | None = None
    resume: bool = False          # forced True on elastic restarts
    hooks: object | None = None   # this rank's TrainingHooks, if any


class _AllReduceExchange:
    """A rank's gradient exchange: heartbeat stamp, then flatten →
    all-reduce → scatter.  Returns the reduced loss means."""

    def __init__(self, rank: int, reducer: SharedAllReduce, heartbeats):
        self.rank = rank
        self.reducer = reducer
        self.heartbeats = heartbeats
        self.seconds = 0.0        # all-reduce wall-clock this epoch
        self.samples = 0          # rows this rank contributed this epoch

    def __call__(self, losses, x, params) -> dict[str, float]:
        self.heartbeats[self.rank] = time.monotonic()
        flat = None
        weight = 0.0
        local_losses = (0.0, 0.0, 0.0)
        if losses is not None:
            local_losses = tuple(float(losses[key].data) for key in LOSS_KEYS)
            flat = flatten_grads(params, self.reducer.n_params)
            weight = float(len(x))
        started = time.perf_counter()
        reduced, means = self.reducer.all_reduce(self.rank, flat, weight,
                                                 local_losses)
        self.seconds += time.perf_counter() - started
        self.samples += int(weight)
        # The live grads become the reduced gradient in parameter dtype,
        # so at world size 1 they equal the local ones bit for bit.
        scatter_grads(params, reduced)
        return means


class _QueueReporter:
    """A rank's reporter: epoch records over the coordinator queue."""

    run = NULL_RUN

    def __init__(self, rank: int, queue, exchange: _AllReduceExchange):
        self.rank = rank
        self.queue = queue
        self.exchange = exchange
        # Only rank 0 saves, so there are no write races; every rank
        # still opens the manager because rollback restores on all ranks.
        self.writes_checkpoints = rank == 0
        self.epoch_started = 0.0

    def epoch(self, index: int):
        self.epoch_started = time.perf_counter()
        self.exchange.seconds = 0.0
        self.exchange.samples = 0
        return _NULL_CTX

    def end_epoch(self, epoch: int, stats: dict, samples: int,
                  batches: int) -> None:
        seconds = time.perf_counter() - self.epoch_started
        if self.rank == 0:
            self.queue.put({"type": "epoch", "rank": self.rank,
                            "epoch": epoch, "stats": dict(stats),
                            "samples": samples, "seconds": seconds})
        self.queue.put({"type": "epoch_obs", "rank": self.rank,
                        "epoch": epoch, "samples": self.exchange.samples,
                        "seconds": seconds,
                        "allreduce_seconds": self.exchange.seconds})

    def log(self, message: str) -> None:
        pass


def _shard_fetch(fetch, start: int, stop: int):
    """``fetch`` restricted to the shard's rows of each global batch."""

    def fetch_shard(indices):
        mine = local_indices(indices, start, stop)
        return fetch(mine) if mine.size else None

    return fetch_shard


def _exit(queue, code: int, message: dict | None = None):
    if message is not None:
        queue.put(message)
    queue.close()
    queue.join_thread()
    return SystemExit(code)


def run_worker(task: WorkerTask, reducer: SharedAllReduce, heartbeats,
               queue) -> None:
    """Process entrypoint for one rank.  Exits via ``SystemExit`` with one
    of the ``EXIT_*`` codes; the coordinator keys its elastic policy off
    the exit status, with queue messages carrying the detail."""
    try:
        data = PretrainData(task.data_token,
                            rows=(task.shard_start, task.shard_stop))
        try:
            exchange = _AllReduceExchange(task.rank, reducer, heartbeats)
            loop = _PretrainLoop(
                task.model_config, task.train_config, data.size,
                _shard_fetch(data.fetch, task.shard_start, task.shard_stop),
                _QueueReporter(task.rank, queue, exchange), exchange=exchange,
                hooks=task.hooks, checkpoint_dir=task.checkpoint_dir,
                extra_meta=task.extra_meta)
            if loop.manager is not None and (
                    task.resume or task.train_config.checkpoint.resume):
                loop.resume()
            loop.run_all()
        finally:
            data.close()
        if task.rank == 0:
            loop.model.eval()
            queue.put({"type": "result", "rank": 0,
                       "model_state": loop.model.state_dict(),
                       "history": [dict(r) for r in loop.history],
                       "global_step": loop.global_step,
                       "resumed_from_step": loop.resumed_from_step,
                       "recoveries": (loop.recovery.recoveries
                                      if loop.recovery else 0)})
        raise _exit(queue, EXIT_OK)
    except threading.BrokenBarrierError:
        raise _exit(queue, EXIT_PEER_LOST,
                    {"type": "peer_lost", "rank": task.rank}) from None
    except TrainingAborted as error:
        raise _exit(queue, EXIT_ABORTED,
                    {"type": "aborted", "rank": task.rank,
                     "error": str(error),
                     "recoveries": error.recoveries}) from None
    except SystemExit:
        raise
    except BaseException:
        # Includes SimulatedCrash from fault-injection hooks: this rank is
        # "dead" and the coordinator's elastic restart takes over.
        try:
            queue.put({"type": "error", "rank": task.rank,
                       "error": traceback.format_exc(limit=20)})
            queue.close()
            queue.join_thread()
        except Exception:
            pass
        raise SystemExit(EXIT_CRASH) from None
