"""Autograd hot-path micro-benchmark (encoder-layer kernel vs the seed engine).

Unlike the table/figure benchmarks this one times the *engine*, not an
experiment: encoder forward+backward, inference (``no_grad``) forward, and
one full pre-training loss step, at the reference workload (batch 8,
T=128, C=7, default config).

It emits ``BENCH_autograd.json`` at the repo root holding three number
sets:

* ``seed``     — the pre-fusion engine, measured once at the seed commit
  and recorded here as the committed before/after baseline;
* ``current``  — this checkout: every Transformer layer runs the
  encoder-layer kernel pair as one graph node (the default);
* ``unfused``  — this checkout with every layer running its
  ``reference_forward`` op graph, isolating how much of the win comes
  from the kernel vs engine-level changes (gradient-buffer reuse, fast
  node construction, dtype fixes).

The in-run assertion compares ``current`` against ``unfused`` — a
same-machine, same-process comparison that stays meaningful on any
hardware, whereas the recorded seed numbers are from the benchmark
machine and serve as the PR's documented speed-up (>=1.5x on the encoder
step).
"""

import contextlib
import json
import pathlib
import time
from unittest import mock

import numpy as np

from repro.core.config import TimeDRLConfig
from repro.core.encoder import TimeDRLEncoder
from repro.core.model import TimeDRL
from repro.nn import Tensor, TransformerEncoderLayer, no_grad
from repro.utils.training import set_global_seed

from conftest import run_once

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_autograd.json"

WORKLOAD = {"batch_size": 8, "seq_len": 128, "channels": 7}

# Seed-commit best-of-reps times measured with this same harness on the
# benchmark machine (the committed "before" of the before/after numbers).
SEED_BASELINE = {
    "encoder_fwd_bwd_min_s": 0.014830,
    "nograd_fwd_min_s": 0.004451,
    "pretrain_step_min_s": 0.032780,
}

WARMUP = 3
REPS = 25


def use_kernel(enabled: bool):
    """Run every Transformer layer through the kernel pair (``True``) or
    through its reference op graph (``False``)."""
    if enabled:
        return contextlib.nullcontext()
    return mock.patch.object(TransformerEncoderLayer, "forward",
                             TransformerEncoderLayer.reference_forward)


def _measure_suite() -> tuple[dict[str, float], dict[str, float]]:
    """Time the three hot paths with the kernel and the reference graph.

    Fused/unfused samples are interleaved (paired per rep) so slow drift in
    machine load cancels out of the comparison.
    """
    set_global_seed(0)
    config = TimeDRLConfig(seq_len=WORKLOAD["seq_len"],
                           input_channels=WORKLOAD["channels"])
    encoder = TimeDRLEncoder(config)
    x = np.random.default_rng(0).standard_normal(
        (WORKLOAD["batch_size"], WORKLOAD["seq_len"], WORKLOAD["channels"]),
    ).astype(np.float32)
    x_patched = encoder.prepare_input(x)

    def encoder_fwd_bwd():
        encoder.zero_grad()
        out = encoder(Tensor(x_patched))
        (out * out).mean().backward()

    def nograd_fwd():
        with no_grad():
            encoder(Tensor(x_patched))

    set_global_seed(0)
    model = TimeDRL(config)

    def pretrain_step():
        model.zero_grad()
        model.pretraining_losses(x)["total"].backward()

    cases = {
        "encoder_fwd_bwd_min_s": encoder_fwd_bwd,
        "nograd_fwd_min_s": nograd_fwd,
        "pretrain_step_min_s": pretrain_step,
    }
    current, unfused = {}, {}
    for key, func in cases.items():
        best_fused, best_ref = np.inf, np.inf
        with use_kernel(True):
            for __ in range(WARMUP):
                func()
        with use_kernel(False):
            for __ in range(WARMUP):
                func()
        for __ in range(REPS):
            with use_kernel(True):
                start = time.perf_counter()
                func()
                best_fused = min(best_fused, time.perf_counter() - start)
            with use_kernel(False):
                start = time.perf_counter()
                func()
                best_ref = min(best_ref, time.perf_counter() - start)
        current[key] = float(best_fused)
        unfused[key] = float(best_ref)
    return current, unfused


def test_perf_autograd(benchmark):
    current, unfused = run_once(benchmark, _measure_suite)

    report = {
        "workload": dict(WORKLOAD),
        "timer": {"warmup": WARMUP, "reps": REPS, "statistic": "min",
                  "pairing": "kernel/reference interleaved per rep"},
        "seed": dict(SEED_BASELINE),
        "current": current,
        "unfused": unfused,
        "speedup_vs_seed": {
            key: SEED_BASELINE[key] / current[key] for key in current
        },
    }
    # ``compiled`` belongs to benchmarks/test_perf_compile.py — keep it.
    if OUTPUT_PATH.is_file():
        previous = json.loads(OUTPUT_PATH.read_text())
        if "compiled" in previous:
            report["compiled"] = previous["compiled"]
    OUTPUT_PATH.write_text(json.dumps(report, indent=2) + "\n")

    print()
    for key in current:
        print(f"{key}: seed={SEED_BASELINE[key]:.6f}s "
              f"current={current[key]:.6f}s unfused={unfused[key]:.6f}s "
              f"(vs seed {SEED_BASELINE[key] / current[key]:.2f}x)")
    print(f"wrote {OUTPUT_PATH}")

    for key, value in current.items():
        assert np.isfinite(value) and value > 0, key
    # Same-process guard: the kernel must beat the reference composition
    # on the gradient paths (small slack absorbs timer noise).
    assert current["encoder_fwd_bwd_min_s"] < unfused["encoder_fwd_bwd_min_s"] * 1.05
    assert current["pretrain_step_min_s"] < unfused["pretrain_step_min_s"] * 1.05
