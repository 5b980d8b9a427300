"""``pretrain_store`` and ``pretrain_dp2``: pre-training from a window store.

Both build a ``DATA_LADDER`` store in set-up (the ``data`` write path),
then call ``TrainSession.pretrain`` on it repeatedly with the same seed
until the measuring time is used, which also checks that repeated runs
give identical loss histories.  ``pretrain_store`` trains in process with
prefetch and checkpoints landing inside every call; ``pretrain_dp2``
trains the same model with two forked data-parallel workers and no
checkpointing.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import shutil
import time

import numpy as np

from . import stats
from .common import SETTINGS, HostSpeed, SetupClock, peak_rss_mb
from .tracer import Span, Tracer, coverage, self_times, write_spans

import repro.data as data
import repro.nn as nn
from repro.checkpoint import CheckpointConfig, CheckpointManager, TrainingHooks
from repro.core.config import PretrainConfig, TimeDRLConfig
from repro.core.model import TimeDRL
from repro.data.prefetch import PrefetchLoader
from repro.data.store import ShardedDataset
from repro.obs import metrics as obs
from repro.train import TrainOptions, TrainSession

__all__ = ["run_pretrain_workload"]

CFG = SETTINGS["pretrain"]
SEQ_LEN, CHANNELS = SETTINGS["seq_len"], SETTINGS["channels"]


class StepClock(TrainingHooks):
    """Stamps every ``on_batch_end`` into shared memory.

    Shared memory survives the fork into data-parallel workers, so the
    parent reads rank 0's step times after the call.  With a
    :class:`HostSpeed`, every stamp is followed by a host-speed probe,
    whose time is taken out of the step gaps and the call's wall time.
    With a tracer, the gap between two ``on_batch_end`` calls is also
    recorded as one ``train.step`` span, the parent of every span the
    step opens; a forked worker writes its spans to ``dump_to`` after
    its last step.
    """

    probe_units = 8

    def __init__(self, steps: int, tracer: Tracer | None = None,
                 dump_to=None, speed: HostSpeed | None = None):
        self.steps = steps
        self.stamps = multiprocessing.RawArray("d", steps)
        self.resumed = multiprocessing.RawArray("d", steps)
        self.probes_ms = multiprocessing.RawArray("d", steps)
        self.count = multiprocessing.RawValue("i", 0)
        self.tracer = tracer
        self.dump_to = dump_to
        self.speed = speed
        self._open = None

    def on_batch_end(self, epoch: int, batch: int, step: int) -> None:
        now = time.perf_counter()
        index = self.count.value
        self.count.value = index + 1
        if index < self.steps:
            self.stamps[index] = now
            if self.speed is not None:
                self.probes_ms[index] = self.speed.probe(self.probe_units)
            self.resumed[index] = time.perf_counter()
        if self.tracer is None:
            return
        if self._open is not None:
            self.tracer.end(self._open, now)
        last = index + 1 >= self.steps
        self._open = None if last else self.tracer.begin(
            "train.step", key=step + 1, start=now)
        if last and self.dump_to is not None:
            write_spans(self.tracer.spans, self.dump_to)

    def _done(self) -> int:
        return min(self.count.value, self.steps)

    def gaps_ms(self) -> list[float]:
        """Time between one step's end (after its probe) and the next's."""
        done = self._done()
        stamps = np.asarray(self.stamps[:done])
        resumed = np.asarray(self.resumed[:done])
        return list((stamps[1:] - resumed[:-1]) * 1e3)

    def scaled_gaps_ms(self) -> list[float]:
        """Step gaps at the reference speed, each scaled by the mean of
        the probes just before and just after it."""
        probes = np.asarray(self.probes_ms[:self._done()])
        bracket = (probes[:-1] + probes[1:]) / 2.0
        return list(np.asarray(self.gaps_ms()) * self.speed.reference_ms
                    / bracket)

    def probe_seconds(self) -> float:
        """Time the hooks spent probing, all of it inside the call."""
        done = self._done()
        return float(np.sum(np.asarray(self.resumed[:done])
                            - np.asarray(self.stamps[:done])))

    def scale(self) -> float:
        """Reference-speed factor of the whole call, from its mean probe."""
        probes = np.asarray(self.probes_ms[:self._done()])
        return self.speed.scale(float(np.mean(probes)))


def _model_config(seed: int) -> TimeDRLConfig:
    return TimeDRLConfig(seq_len=SEQ_LEN, input_channels=CHANNELS, seed=seed)


def _setup_clock(work, seed: int, speed: HostSpeed) -> SetupClock:
    """Store build + open + model init; sampled stores are deleted."""
    def setup(repeat):
        path = data.build_ladder_tier(
            work / f"store{repeat}", CFG["tier"], seq_len=SEQ_LEN,
            channels=CHANNELS, seed=seed)
        store = data.open_store(path)
        TimeDRL(_model_config(seed))
        return store

    def teardown(store):
        store.close()
        shutil.rmtree(store.root, ignore_errors=True)

    return SetupClock(setup, teardown, speed)


def _options(name: str, work, seed: int, call: int, hooks) -> TrainOptions:
    pretrain = PretrainConfig(epochs=CFG["epochs"],
                              batch_size=CFG["batch_size"],
                              max_batches_per_epoch=CFG["batches_per_epoch"],
                              prefetch=True, seed=seed)
    if name == "pretrain_store":
        checkpoint = CheckpointConfig(
            directory=str(work / f"ckpt{call}"),
            every_n_batches=CFG["checkpoint_every_n_batches"], keep_last=2)
        return TrainOptions(pretrain=pretrain, checkpoint=checkpoint,
                            hooks=hooks)
    return TrainOptions(pretrain=pretrain, distributed=2, hooks=hooks)


def _train_once(name, store, work, seed, call, hooks):
    session = TrainSession(_model_config(seed))
    started = time.perf_counter()
    result = session.pretrain(store, _options(name, work, seed, call, hooks))
    return result, time.perf_counter() - started


def _steps_per_call() -> int:
    return CFG["epochs"] * CFG["batches_per_epoch"]


def _check_calls(results, clocks) -> tuple[int, int, list[str]]:
    """Attempted and failed steps plus reasons the outputs are wrong."""
    steps = _steps_per_call()
    attempted = failed = 0
    problems = []
    first = results[0].history
    for result, clock in zip(results, clocks):
        attempted += steps
        # A skipped or rolled-back step or a worker restart shows as a
        # missing or extra on_batch_end.
        done = clock.count.value
        failed += abs(steps - done) + steps * result.worker_restarts
        if result.history != first:
            problems.append("loss history differs between repeated runs")
        if not all(math.isfinite(row["total"]) for row in result.history):
            problems.append("non-finite loss")
    return attempted, min(failed, attempted), problems


def _measure(name, store, work, seed, seconds, speed):
    results, clocks, walls = [], [], []
    started = time.perf_counter()
    # At least ``min_calls`` (the repeatability check, and enough step
    # gaps for a p95); more while another call of the average length
    # still fits in ``seconds``.
    while len(results) < CFG["min_calls"] or (
            time.perf_counter() - started + sum(walls) / len(walls)
            <= seconds):
        clock = StepClock(_steps_per_call(), speed=speed)
        result, wall = _train_once(name, store, work, seed, len(results),
                                   _hooks(name, clock))
        results.append(result)
        clocks.append(clock)
        walls.append(wall)
    return results, clocks, walls


def _e2e(setup_times, clocks, walls) -> dict:
    """Times at the reference host speed (see :class:`HostSpeed`): each
    call's wall time, less its probes, is scaled by the call's mean
    probe, and each step gap by the probes on either side of it."""
    windows = _steps_per_call() * CFG["batch_size"]
    rates = [windows / ((wall - clock.probe_seconds()) * clock.scale())
             for clock, wall in zip(clocks, walls)]
    gaps = [gap for clock in clocks for gap in clock.scaled_gaps_ms()]
    tail_q = stats.tail_percentile(len(gaps), candidates=(95.0,))
    if tail_q is None:
        raise RuntimeError(f"{len(gaps)} step gaps cannot support a p95")
    return {
        "setup_s": (stats.median(setup_times), "s"),
        "throughput_windows_per_s": (stats.median(rates), "windows/s"),
        "latency_p50_ms": (stats.percentile(gaps, 50.0), "ms"),
        "latency_tail_ms": (stats.percentile(gaps, tail_q), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def _install_train_wrappers(tracer: Tracer) -> None:
    tracer.wrap(ShardedDataset, "batch", "data.fetch",
                size_of=lambda args, result: result.nbytes)
    tracer.wrap(PrefetchLoader, "__next__", "data.wait")
    tracer.wrap(TimeDRL, "pretraining_losses", "core.forward")
    tracer.wrap(nn.Tensor, "backward", "nn.backward")
    tracer.wrap(nn, "clip_grad_norm", "nn.clip")
    tracer.wrap(nn.AdamW, "step", "nn.optim")
    tracer.wrap(CheckpointManager, "save", "checkpoint.save",
                size_of=lambda args, result: result.size_bytes)


def _per_step(spans, name: str) -> list[float]:
    """Per-step total ms of ``name`` spans that are children of a step."""
    steps = {span.id for span in spans if span.name == "train.step"}
    totals = dict.fromkeys(steps, 0.0)
    for span in spans:
        if span.name == name and span.parent in steps:
            totals[span.parent] += span.duration * 1e3
    return list(totals.values())


def _p50(values) -> float:
    return stats.percentile(values, 50.0) if values else 0.0


def _load_spans(path) -> list[Span]:
    with open(path, encoding="utf-8") as handle:
        return [Span(**json.loads(line)) for line in handle]


def _allreduce_by_rank() -> dict[str, float]:
    family = obs.get_registry().snapshot().get("dist_allreduce_seconds")
    if not family:
        return {}
    return {series["labels"]["rank"]: series["sum"]
            for series in family["series"]}


def _hooks(name, clock):
    return clock if name == "pretrain_store" else {0: clock}


def _traced(name, store, work, seed, setup_tracer):
    """One untraced and one traced call of the same size; returns the
    per-layer metrics, both calls for the correctness check, and the
    traced call's spans (rank 0's on ``pretrain_dp2``)."""
    steps = _steps_per_call()
    plain_clock = StepClock(steps)
    plain, wall_plain = _train_once(name, store, work, seed, 0,
                                    _hooks(name, plain_clock))

    tracer = Tracer()
    _install_train_wrappers(tracer)
    try:
        if name == "pretrain_store":
            clock = StepClock(steps, tracer)
            result, wall = _train_once(name, store, work, seed, 1, clock)
            rank_spans = {0: tracer.spans}
        else:
            obs.enable()
            dumps = {rank: work / f"spans-rank{rank}.jsonl" for rank in (0, 1)}
            hooks = {rank: StepClock(steps, tracer, dumps[rank])
                     for rank in (0, 1)}
            clock = hooks[0]
            result, wall = _train_once(name, store, work, seed, 1, hooks)
            rank_spans = {rank: _load_spans(path)
                          for rank, path in dumps.items()}
    finally:
        tracer.uninstall()
    allreduce = _allreduce_by_rank()
    obs.disable()

    spans = rank_spans[0]
    selfs = self_times(spans)
    step_spans = [span for span in spans if span.name == "train.step"]
    busy = {rank: (max(s.end for s in group) - min(s.start for s in group))
            for rank, group in rank_spans.items() if group}
    builds = setup_tracer.by_name("data.build")

    def total_ms(layer):
        return sum(s.duration for s in spans if s.name == layer) * 1e3

    def calls(layer):
        return float(sum(s.name == layer for s in spans))

    def megabytes(layer):
        return sum(s.size or 0 for s in spans if s.name == layer) / 1e6

    metrics = {
        "data.build_s": (stats.median([s.duration for s in builds]), "s"),
        "data.fetch_ms": (total_ms("data.fetch"), "ms"),
        "data.fetch_calls": (calls("data.fetch"), "count"),
        "data.fetch_mb": (megabytes("data.fetch"), "MB"),
        "data.wait_ms": (total_ms("data.wait"), "ms"),
        "core.forward_ms_p50": (_p50(_per_step(spans, "core.forward")), "ms"),
        "nn.backward_ms_p50": (_p50(_per_step(spans, "nn.backward")), "ms"),
        "nn.clip_ms_p50": (_p50(_per_step(spans, "nn.clip")), "ms"),
        "nn.optim_ms_p50": (_p50(_per_step(spans, "nn.optim")), "ms"),
        "train.step_other_ms_p50": (
            _p50([selfs[s.id] * 1e3 for s in step_spans]), "ms"),
        "train.step_samples": (float(len(step_spans)), "count"),
        "train.loss_final": (result.final_loss, "loss"),
        "checkpoint.save_ms": (total_ms("checkpoint.save"), "ms"),
        "checkpoint.saves": (calls("checkpoint.save"), "count"),
        "checkpoint.mb_written": (megabytes("checkpoint.save"), "MB"),
        "trace.overhead_pct": ((wall / wall_plain - 1.0) * 100.0, "%"),
        "trace.coverage": (coverage(spans, "train.step"), "ratio"),
    }
    if name == "pretrain_dp2":
        slowest = max(allreduce.values(), default=0.0)
        metrics.update({
            "distributed.allreduce_s_max_rank": (slowest, "s"),
            "distributed.allreduce_share": (
                slowest / max(busy.values()) if busy else 0.0, "ratio"),
            "distributed.overhead_s": (
                wall - max(busy.values(), default=0.0), "s"),
            "distributed.restarts": (float(result.worker_restarts), "count"),
        })
    return (metrics, [plain, result], [plain_clock, clock],
            [wall_plain, wall], spans)


def run_pretrain_workload(name: str, seed: int, seconds: float, trace: bool,
                          work) -> dict:
    """Run one pre-training workload; returns the result fields."""
    setup_tracer = Tracer()
    speed = HostSpeed()
    setup = _setup_clock(work, seed, speed)
    if trace:
        setup_tracer.wrap(data, "build_ladder_tier", "data.build")
    try:
        # All repeats come first: one taken between training calls would
        # build a store on top of the training heap and raise the peak
        # RSS the workload reports.
        setup.sample(CFG["setup_repeats"] - 1)
        store = setup.once()
    finally:
        setup_tracer.uninstall()
    spans: list = []
    try:
        if trace:
            metrics, results, clocks, walls, spans = _traced(
                name, store, work, seed, setup_tracer)
        else:
            results, clocks, walls = _measure(name, store, work, seed,
                                              seconds, speed)
            metrics = _e2e(setup.times, clocks, walls)
    finally:
        store.close()
    attempted, failed, problems = _check_calls(results, clocks)
    return {"correct": not problems, "problems": sorted(set(problems)),
            "attempted": attempted, "failed": failed, "metrics": metrics,
            "spans": spans + setup_tracer.spans,
            "info": {"calls": len(results), "walls_s": walls,
                     "probe_scale": [c.scale() for c in clocks
                                     if c.speed is not None],
                     "raw_latency_p50_ms": stats.percentile(
                         [g for c in clocks for g in c.gaps_ms()], 50.0),
                     "setup_s": setup.times, "setup_raw_s": setup.raw,
                     "loss_final": results[0].final_loss,
                     "step_gaps": sum(len(c.gaps_ms()) for c in clocks)}}
