"""One pre-training loop runs in process and in every data-parallel worker.

* recovery policies inside workers: at world size 1 the recovery
  actions match the in-process loop bit for bit (one check order); at
  world size 2 both ranks take the same action (no restart, repeatable);
* a data-parallel telemetry run records the same dataset fingerprint as
  the in-process run on the same data;
* a property over {in-process, world=1 data-parallel, killed-and-resumed
  across topologies, store-backed with prefetch}: identical histories
  and ``state_dict``s.
"""

from __future__ import annotations

import dataclasses
import glob
import json
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.checkpoint import (
    CheckpointConfig,
    CrashAt,
    PoisonGradAt,
    PoisonLossAt,
    SimulatedCrash,
)
from repro.core import run_pretrain
from repro.data import build_store, materialize_data_spec, synthetic_windows_spec
from repro.distributed import DistributedConfig, pretrain_data_parallel
from tests.checkpoint.common import (
    assert_model_states_equal,
    tiny_data,
    tiny_model_config,
    tiny_train_config,
)

HOOKS = {"poison_loss": lambda: PoisonLossAt(3),
         "poison_grad": lambda: PoisonGradAt(3)}


def _assert_same_run(a, b) -> None:
    assert a.history == b.history
    assert_model_states_equal(a.model.state_dict(), b.model.state_dict())


def _recovery_config(tmp_path, label, policy):
    return tiny_train_config(checkpoint=CheckpointConfig(
        directory=str(tmp_path / label), every_n_batches=2, on_nan=policy))


@pytest.mark.parametrize("policy", ["skip_batch", "rollback"])
@pytest.mark.parametrize("fault", sorted(HOOKS))
class TestRecoveryInWorkers:
    def test_world_one_matches_in_process(self, tmp_path, fault, policy):
        in_process = run_pretrain(
            tiny_model_config(), tiny_data(),
            _recovery_config(tmp_path, "in-process", policy),
            hooks=HOOKS[fault]())
        world_one = pretrain_data_parallel(
            tiny_model_config(), tiny_data(),
            train_config=_recovery_config(tmp_path, "world-one", policy),
            distributed=DistributedConfig(world_size=1),
            hooks={0: HOOKS[fault]()})
        assert world_one.worker_restarts == 0
        _assert_same_run(in_process, world_one)

    def test_world_two_ranks_agree(self, tmp_path, fault, policy):
        runs = [pretrain_data_parallel(
            tiny_model_config(), tiny_data(),
            train_config=_recovery_config(tmp_path, f"run{i}", policy),
            distributed=DistributedConfig(world_size=2),
            hooks={0: HOOKS[fault]()}) for i in range(2)]
        # Ranks that disagreed on skipping or rolling back would fall
        # out of step at the next reduce barrier and force a restart.
        assert [run.worker_restarts for run in runs] == [0, 0]
        assert len(runs[0].history) == 3
        assert all(np.isfinite(entry["total"]) for entry in runs[0].history)
        _assert_same_run(*runs)


class TestTelemetryFingerprint:
    @staticmethod
    def _dataset(run_root) -> dict:
        run_dir, = glob.glob(str(run_root / "*"))
        with open(f"{run_dir}/manifest.json", encoding="utf-8") as handle:
            return json.load(handle)["dataset"]

    def _both(self, tmp_path, data):
        config = tiny_train_config(epochs=1, telemetry=True)
        run_pretrain(tiny_model_config(), data, dataclasses.replace(
            config, run_root=str(tmp_path / "in-process")))
        pretrain_data_parallel(
            tiny_model_config(), data,
            train_config=dataclasses.replace(
                config, run_root=str(tmp_path / "world-two")),
            distributed=DistributedConfig(world_size=2))
        return (self._dataset(tmp_path / "in-process"),
                self._dataset(tmp_path / "world-two"))

    def test_in_memory_array(self, tmp_path):
        in_process, world_two = self._both(tmp_path, tiny_data())
        assert in_process is not None
        assert world_two == in_process

    def test_on_disk_store(self, tmp_path):
        spec = synthetic_windows_spec(40, seq_len=16, channels=2, seed=1)
        store = build_store(spec, tmp_path / "store", shard_rows=12)
        in_process, world_two = self._both(tmp_path, str(store))
        assert in_process["container"] == "ShardedDataset"
        assert world_two == in_process


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """(in-memory windows, store path) for one 24-window spec."""
    spec = synthetic_windows_spec(24, seq_len=16, channels=2, seed=1)
    store = build_store(spec, tmp_path_factory.mktemp("one-loop") / "store",
                        shard_rows=7)
    return materialize_data_spec(spec), str(store)


@given(batch_size=st.integers(4, 12),
       max_batches=st.one_of(st.none(), st.integers(1, 3)),
       every_n_batches=st.integers(1, 3),
       crash_draw=st.integers(0, 10_000))
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_every_path_is_the_same_training(corpus, batch_size, max_batches,
                                         every_n_batches, crash_draw):
    windows, store = corpus
    config = tiny_train_config(epochs=2, batch_size=batch_size,
                               max_batches_per_epoch=max_batches)
    per_epoch = -(-len(windows) // batch_size)
    if max_batches is not None:
        per_epoch = min(per_epoch, max_batches)
    crash_step = crash_draw % (2 * per_epoch)

    in_process = run_pretrain(tiny_model_config(), windows, config)
    world_one = pretrain_data_parallel(
        tiny_model_config(), windows, train_config=config,
        distributed=DistributedConfig(world_size=1))
    with tempfile.TemporaryDirectory() as directory:
        ckpt = CheckpointConfig(directory=directory,
                                every_n_batches=every_n_batches)
        with pytest.raises(SimulatedCrash):
            run_pretrain(tiny_model_config(), windows,
                         dataclasses.replace(config, checkpoint=ckpt),
                         hooks=CrashAt(crash_step))
        # Killed in process, resumed by a data-parallel worker.
        resumed = pretrain_data_parallel(
            tiny_model_config(), windows,
            train_config=dataclasses.replace(
                config, checkpoint=dataclasses.replace(ckpt, resume=True)),
            distributed=DistributedConfig(world_size=1))
    from_store = run_pretrain(tiny_model_config(), store,
                              dataclasses.replace(config, prefetch=True))

    for other in (world_one, resumed, from_store):
        _assert_same_run(in_process, other)
