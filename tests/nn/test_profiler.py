"""Unit tests for the opt-in op-level profiler.

The key contract: when disabled, the profiler is a *strict no-op* — no
clock reads, no stats mutation, no graph changes — verified by replacing
the clock with a function that raises.
"""

import json

import numpy as np
import pytest

from repro.nn import Linear, Sequential, Tensor, TransformerEncoderLayer, profiler
from repro.nn import functional as F
from repro.utils.training import format_profile


@pytest.fixture(autouse=True)
def _clean_profiler():
    profiler.disable()
    profiler.reset()
    yield
    profiler.disable()
    profiler.reset()


class TestRecording:
    def test_record_accumulates_counts_time_bytes(self):
        profiler.enable()
        profiler.record("op", 0.5, 100)
        profiler.record("op", 0.25, 50)
        stat = profiler.get("op")
        assert stat.count == 2
        assert stat.total_s == pytest.approx(0.75)
        assert stat.self_s == pytest.approx(0.75)
        assert stat.bytes == 150

    def test_record_is_noop_when_disabled(self):
        profiler.record("op", 1.0, 10)
        assert profiler.get("op") is None

    def test_enable_resets_by_default(self):
        profiler.enable()
        profiler.record("op", 1.0)
        profiler.disable()
        profiler.enable()
        assert profiler.get("op") is None

    def test_enable_can_keep_stats(self):
        profiler.enable()
        profiler.record("op", 1.0)
        profiler.disable()
        profiler.enable(reset=False)
        assert profiler.get("op").count == 1

    def test_snapshot_is_json_serialisable(self):
        profiler.enable()
        profiler.record("op", 0.125, 64)
        snap = profiler.snapshot()
        decoded = json.loads(json.dumps(snap))
        assert decoded["op"]["count"] == 1
        assert decoded["op"]["bytes"] == 64


class TestNesting:
    def test_child_time_subtracted_from_parent_self(self, monkeypatch):
        # Deterministic clock: each call advances by 1.0s.
        ticks = iter(range(100))
        monkeypatch.setattr(profiler, "_now", lambda: float(next(ticks)))
        prof = profiler.enable()
        prof.push("parent")          # t=0
        prof.push("child")           # t=1
        prof.pop()                   # t=2 -> child total 1.0
        prof.pop()                   # t=3 -> parent total 3.0, self 2.0
        assert prof.stats["child"].total_s == pytest.approx(1.0)
        assert prof.stats["parent"].total_s == pytest.approx(3.0)
        assert prof.stats["parent"].self_s == pytest.approx(2.0)

    def test_record_inside_scope_counts_as_child_time(self, monkeypatch):
        ticks = iter(range(100))
        monkeypatch.setattr(profiler, "_now", lambda: float(next(ticks)))
        prof = profiler.enable()
        prof.push("outer")           # t=0
        prof.record("kernel", 0.5)
        prof.pop()                   # t=1 -> outer total 1.0, self 0.5
        assert prof.stats["outer"].self_s == pytest.approx(0.5)
        assert prof.stats["kernel"].total_s == pytest.approx(0.5)

    def test_scope_context_manager(self):
        profiler.enable()
        with profiler.scope("region"):
            pass
        assert profiler.get("region").count == 1

    def test_scope_latches_activation_at_entry(self):
        # Toggling mid-scope must not unbalance the stack.
        profiler.enable()
        region = profiler.scope("region")
        with region:
            profiler.disable()
        assert profiler.get("region").count == 1
        profiler.enable(reset=False)
        with profiler.scope("late"):
            profiler.disable()
        assert profiler.get("late").count == 1

    def test_module_calls_nest(self):
        net = Sequential(Linear(4, 8, rng=np.random.default_rng(0)),
                         Linear(8, 2, rng=np.random.default_rng(1)))
        x = Tensor(np.zeros((3, 4), dtype=np.float32))
        with profiler.profile() as prof:
            net(x)
        assert prof.stats["Sequential"].count == 1
        assert prof.stats["Linear"].count == 2
        # Linear time nests inside Sequential: self < total for the parent.
        assert (prof.stats["Sequential"].self_s
                <= prof.stats["Sequential"].total_s + 1e-12)


class TestStrictNoOpWhenDisabled:
    def test_no_clock_reads_when_disabled(self, monkeypatch):
        """The disabled profiler must never touch the clock — anywhere."""

        def _forbidden():
            raise AssertionError("profiler clock read while disabled")

        monkeypatch.setattr(profiler, "_now", _forbidden)
        x = Tensor(np.random.default_rng(0).standard_normal((2, 4, 8))
                   .astype(np.float32), requires_grad=True)
        w = Tensor(np.ones(8, dtype=np.float32), requires_grad=True)
        b = Tensor(np.zeros(8, dtype=np.float32), requires_grad=True)
        out = F.layer_norm(F.gelu(x @ Tensor(np.eye(8, dtype=np.float32))), w, b)
        out = F.softmax(out, axis=-1)
        (out * out).sum().backward()
        with profiler.scope("region"):
            pass
        profiler.record("op", 1.0)
        assert profiler.snapshot() == {}

    def test_encoder_layer_reads_no_clock_when_disabled(self, monkeypatch):
        def _forbidden():
            raise AssertionError("profiler clock read while disabled")

        monkeypatch.setattr(profiler, "_now", _forbidden)
        layer = TransformerEncoderLayer(8, 2, rng=np.random.default_rng(0))
        x = Tensor(np.ones((2, 3, 8), dtype=np.float32), requires_grad=True)
        layer(x).sum().backward()
        assert profiler.snapshot() == {}

    def test_no_stats_recorded_when_disabled(self):
        x = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
        F.softmax(x, axis=-1).sum().backward()
        assert profiler.snapshot() == {}


class TestEncoderLayerRows:
    def test_layer_splits_into_attention_ffn_and_layer_norm_rows(self):
        layer = TransformerEncoderLayer(8, 2, rng=np.random.default_rng(0))
        x = Tensor(np.ones((2, 3, 8), dtype=np.float32), requires_grad=True)
        with profiler.profile() as prof:
            layer(x).sum().backward()
        rows = {"sdpa": 1, "gelu": 1, "layer_norm": 2, "q_proj": 1,
                "out_proj": 1, "ff1": 1, "ff2": 1}
        for row, count in rows.items():
            assert prof.stats[f"encoder_layer.{row}"].count == count, row
            assert prof.stats[f"encoder_layer.{row}.backward"].count == count, row
        # Kernel rows nest inside the module scope: no double counting.
        module = prof.stats["TransformerEncoderLayer"]
        assert module.self_s <= module.total_s


class TestProfileContextManager:
    def test_enables_and_disables(self):
        assert not profiler.is_active()
        with profiler.profile() as prof:
            assert profiler.is_active()
            prof.record("op", 0.1)
        assert not profiler.is_active()
        assert profiler.get("op").count == 1

    def test_disables_on_exception(self):
        with pytest.raises(RuntimeError):
            with profiler.profile():
                raise RuntimeError("boom")
        assert not profiler.is_active()

    def test_captures_engine_ops(self):
        x = Tensor(np.random.default_rng(0).standard_normal((4, 4))
                   .astype(np.float32), requires_grad=True)
        with profiler.profile() as prof:
            (x @ x).sum().backward()
        assert prof.stats["Tensor.matmul"].count == 1
        assert prof.stats["Tensor.matmul"].bytes == 4 * 4 * 4
        assert prof.stats["Tensor.backward"].count == 1


class TestFormatProfile:
    def test_table_contains_ops_and_columns(self):
        snap = {"alpha": {"count": 2, "total_s": 0.5, "self_s": 0.25, "bytes": 1e6},
                "beta": {"count": 1, "total_s": 1.0, "self_s": 1.0, "bytes": 0}}
        table = format_profile(snap)
        assert "alpha" in table and "beta" in table
        assert "total_ms" in table and "alloc_mb" in table
        # Sorted by total_s descending: beta first.
        assert table.index("beta") < table.index("alpha")

    def test_sort_and_limit(self):
        snap = {"busy": {"count": 9, "total_s": 0.1, "self_s": 0.1, "bytes": 0},
                "slow": {"count": 1, "total_s": 0.9, "self_s": 0.9, "bytes": 0}}
        table = format_profile(snap, sort_by="count", limit=1)
        assert "busy" in table and "slow" not in table

    def test_invalid_sort_key_raises(self):
        with pytest.raises(ValueError):
            format_profile({}, sort_by="nope")

    def test_empty_snapshot(self):
        assert format_profile({}) == "(no ops recorded)"

    def test_format_table_method(self):
        profiler.enable()
        profiler.record("op", 0.25, 10)
        profiler.disable()
        assert "op" in profiler._profiler.format_table()
