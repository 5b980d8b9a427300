"""Shared test utilities: finite-difference gradient checking, the
encoder-layer reference switch, and tiny out-of-core corpus builders.

The ladder helpers build real sharded stores (manifest + multiple
``.npy`` shards) in a test's ``tmp_path`` but at toy scale — a few
hundred windows, kilobytes on disk — so the out-of-core suites exercise
the full build → validate → mmap-gather path without multi-GB artifacts
or slow CI.
"""

from __future__ import annotations

import contextlib
import pathlib
from unittest import mock

import numpy as np

from repro.data import build_store, synthetic_windows_spec
from repro.nn import Tensor, TransformerEncoderLayer

def layers_run(kernel: bool):
    """Context in which every ``TransformerEncoderLayer`` runs the kernel
    pair (``kernel=True``, the default behaviour) or its reference op
    graph (``kernel=False``) — the two sides of the equivalence suites."""
    if kernel:
        return contextlib.nullcontext()
    return mock.patch.object(TransformerEncoderLayer, "forward",
                             TransformerEncoderLayer.reference_forward)


# Toy ladder: same multi-shard layout as the real DATA_LADDER, CI-sized.
TINY_LADDER = {"smallest": 96, "small": 256, "mid": 640}


def tiny_windows_spec(windows: int = 256, seq_len: int = 16, channels: int = 2,
                      seed: int = 0) -> dict:
    """A synthetic_windows spec sized for tests (sub-second to build)."""
    return synthetic_windows_spec(windows, seq_len=seq_len, channels=channels,
                                  seed=seed)


def build_tiny_store(root, windows: int = 256, seq_len: int = 16,
                     channels: int = 2, seed: int = 0,
                     shard_rows: int = 70) -> pathlib.Path:
    """Build one toy store (several shards, uneven last shard) under
    ``root`` and return its path."""
    spec = tiny_windows_spec(windows, seq_len=seq_len, channels=channels,
                             seed=seed)
    return build_store(spec, root, shard_rows=shard_rows)


def build_tiny_ladder(root, seq_len: int = 16, channels: int = 2,
                      seed: int = 0) -> dict[str, pathlib.Path]:
    """Build the whole toy ladder under ``root``; returns tier -> path."""
    root = pathlib.Path(root)
    return {
        tier: build_tiny_store(root / tier, windows=windows, seq_len=seq_len,
                               channels=channels, seed=seed,
                               shard_rows=max(windows // 4, 1))
        for tier, windows in TINY_LADDER.items()
    }


def numeric_gradient(func, values: list[np.ndarray], index: int, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of ``func`` w.r.t. ``values[index]``.

    ``func`` maps a list of float64 ndarrays to a scalar float.
    """
    base = [v.copy() for v in values]
    target = base[index]
    grad = np.zeros_like(target)
    flat = target.reshape(-1)
    grad_flat = grad.reshape(-1)
    for position in range(flat.size):
        original = flat[position]
        flat[position] = original + eps
        upper = func(base)
        flat[position] = original - eps
        lower = func(base)
        flat[position] = original
        grad_flat[position] = (upper - lower) / (2 * eps)
    return grad


def check_gradients(build_loss, shapes: list[tuple[int, ...]], seed: int = 0,
                    atol: float = 1e-5, rtol: float = 1e-4) -> None:
    """Assert analytic gradients match finite differences.

    Parameters
    ----------
    build_loss:
        Callable taking a list of :class:`Tensor` and returning a scalar
        Tensor loss.  Must be deterministic (no dropout).
    shapes:
        Shapes of the float64 leaf tensors to generate.
    """
    rng = np.random.default_rng(seed)
    values = [rng.standard_normal(shape).astype(np.float64) for shape in shapes]

    def scalar_func(arrays: list[np.ndarray]) -> float:
        tensors = [Tensor(a, dtype=np.float64) for a in arrays]
        return float(build_loss(tensors).data)

    leaves = [Tensor(v, requires_grad=True, dtype=np.float64) for v in values]
    loss = build_loss(leaves)
    loss.backward()

    for index, leaf in enumerate(leaves):
        expected = numeric_gradient(scalar_func, values, index)
        actual = leaf.grad if leaf.grad is not None else np.zeros_like(values[index])
        np.testing.assert_allclose(
            actual, expected, atol=atol, rtol=rtol,
            err_msg=f"gradient mismatch for input {index}",
        )
