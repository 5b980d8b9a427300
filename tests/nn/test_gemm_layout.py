"""The GEMM layout rule (``tensor._gemm`` / ``tensor._gemm_backward``).

Forward: a >= 3-D left operand times a 2-D right operand runs one GEMM
per leading index over a C-contiguous right operand, so a window's
``no_grad`` output is bit-identical whether it runs alone or inside a
batch — for ``nn.Linear``, for the encoder-layer kernel and for the
compiled exact fp32 encoder.  Backward: each gradient is one GEMM over
all rows, checked here against float64 finite differences and for its
peak memory.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compile.packing import build_packed_encoder, export_model_arrays
from repro.core import TimeDRL, TimeDRLConfig
from repro.nn import Linear, Tensor, TransformerEncoderLayer, no_grad
from repro.nn.encoder_layer import encoder_layer_forward

from ..helpers import check_gradients


def _window_alone_matches_batch(forward, batch: np.ndarray, position: int):
    whole = forward(batch)
    alone = forward(np.ascontiguousarray(batch[position:position + 1]))
    assert np.array_equal(whole[position:position + 1], alone)


class TestBatchInvariance:
    """A window's embedding never depends on its batch-mates."""

    @given(batch=st.integers(1, 12), position=st.integers(0, 11),
           tokens=st.integers(1, 9), d_in=st.integers(1, 70),
           d_out=st.integers(1, 70), seed=st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_linear_over_3d_input(self, batch, position, tokens, d_in, d_out,
                                  seed):
        linear = Linear(d_in, d_out, rng=np.random.default_rng(seed))
        x = np.random.default_rng(seed + 1).standard_normal(
            (batch, tokens, d_in)).astype(np.float32)

        def forward(data):
            with no_grad():
                return linear(Tensor(data)).data

        _window_alone_matches_batch(forward, x, position % batch)

    @given(batch=st.integers(1, 12), position=st.integers(0, 11),
           tokens=st.integers(1, 9), heads=st.integers(1, 4),
           head_dim=st.integers(1, 16), d_ff=st.integers(1, 96),
           causal=st.booleans(), seed=st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_encoder_layer_forward(self, batch, position, tokens, heads,
                                   head_dim, d_ff, causal, seed):
        d_model = heads * head_dim
        layer = TransformerEncoderLayer(d_model, heads, d_ff=d_ff,
                                        causal=causal,
                                        rng=np.random.default_rng(seed))
        weights = layer._kernel_weights(tokens)
        x = np.random.default_rng(seed + 1).standard_normal(
            (batch, tokens, d_model)).astype(np.float32)

        def forward(data):
            return encoder_layer_forward(weights, data.copy())[0]

        _window_alone_matches_batch(forward, x, position % batch)

    @given(batch=st.integers(1, 10), position=st.integers(0, 9),
           patches=st.integers(1, 5), d_model=st.sampled_from([8, 16, 32]),
           num_layers=st.integers(1, 2), causal=st.booleans(),
           seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_compiled_exact_fp32_encoder(self, batch, position, patches,
                                         d_model, num_layers, causal, seed):
        config = TimeDRLConfig(
            seq_len=4 * patches, input_channels=2, patch_len=4, stride=4,
            d_model=d_model, num_heads=2, num_layers=num_layers,
            backbone="transformer_decoder" if causal else "transformer",
            seed=seed)
        arrays, structure = export_model_arrays(TimeDRL(config).eval())
        encoder = build_packed_encoder(arrays, structure, config)
        x = np.random.default_rng(seed + 1).standard_normal(
            (batch, patches, encoder.token_dim)).astype(np.float32)
        _window_alone_matches_batch(encoder, x, position % batch)


class TestMatmulBackward:
    """The ``(N, T, k) @ (k, n)`` branch of ``Tensor.__matmul__``."""

    def test_transposed_left_operand(self):
        # Leaf (N, k, T) enters as a non-contiguous (N, T, k) view.
        target = Tensor(np.random.default_rng(5).standard_normal((3, 4, 6)),
                        dtype=np.float64)
        check_gradients(
            lambda t: ((t[0].transpose(0, 2, 1) @ t[1]) * target).sum(),
            [(3, 5, 4), (5, 6)])

    def test_transposed_right_operand_as_linear_passes_it(self):
        # ``Linear`` multiplies by ``weight.transpose()``, an (in, out) view.
        target = Tensor(np.random.default_rng(6).standard_normal((2, 3, 4, 7)),
                        dtype=np.float64)
        check_gradients(lambda t: ((t[0] @ t[1].transpose()) * target).sum(),
                        [(2, 3, 4, 5), (7, 5)])

    def test_backward_peak_stays_below_a_per_window_stack(self):
        n, t, d_in, d_out = 32, 9, 64, 256
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((n, t, d_in)).astype(np.float32),
                   requires_grad=True)
        weight = Tensor(rng.standard_normal((d_out, d_in)).astype(np.float32),
                        requires_grad=True)
        out = x @ weight.transpose()
        seed = rng.standard_normal(out.shape).astype(np.float32)
        stack_bytes = n * d_in * d_out * 4   # the (N, in, out) float32 stack
        tracemalloc.start()
        try:
            out.backward(seed)
            __, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert weight.grad.shape == (d_out, d_in)
        assert peak < stack_bytes, peak
