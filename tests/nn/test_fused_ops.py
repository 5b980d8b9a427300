"""Per-block battery for the fused kernels.

The encoder-layer kernel pair (``repro.nn.encoder_layer``) is built from
blocks — softmax, GELU, LayerNorm, scaled-dot-product attention and
multi-head attention — and ``log_softmax`` is a single-node kernel of its
own.  Every block is checked two ways:

* against float64 central finite differences (``tests/helpers.py``);
* against its reference composition (``repro.nn.functional`` and the
  submodules) — which it must match **bit-for-bit** on forward data and
  on every input gradient, because each block backward replays the
  reference chain's exact NumPy op sequence.

A block that drifts fails here by name; ``tests/nn/test_encoder_layer.py``
checks the whole layer.
"""

import numpy as np
import pytest

from repro.nn import Tensor, TransformerEncoderLayer, no_grad
from repro.nn import encoder_layer as K
from repro.nn import functional as F
from repro.nn.attention import causal_mask
from repro.nn.tensor import _make_node

from ..helpers import check_gradients, layers_run


def _layer_is_one_node() -> bool:
    layer = TransformerEncoderLayer(8, 2, rng=np.random.default_rng(0))
    x = Tensor(np.ones((2, 3, 8), dtype=np.float32), requires_grad=True)
    return layer(x)._prev == (x, *layer._kernel_params().values())


class TestDispatchToggle:
    """The layer has no runtime switch; the equivalence suites reach the
    reference graph through ``tests/helpers.py::layers_run``.  A switch
    that leaked would quietly turn those suites into reference-vs-reference
    comparisons."""

    def test_fused_by_default(self):
        assert _layer_is_one_node()

    def test_toggle_restores_on_exit(self):
        with layers_run(kernel=False):
            assert not _layer_is_one_node()
            with layers_run(kernel=True):
                assert not _layer_is_one_node()  # True adds no switch
        assert _layer_is_one_node()

    def test_toggle_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with layers_run(kernel=False):
                raise RuntimeError("boom")
        assert _layer_is_one_node()


def _block(forward, backward):
    """Wrap an array block pair as a one-node Tensor op."""

    def build(ts):
        out_data, saved = forward(*[t.data for t in ts])
        out = _make_node(out_data, tuple(ts))
        if out.requires_grad:

            def _backward(grad):
                for t, g in zip(ts, backward(saved, grad)):
                    t._accumulate(g, owned=True)

            out._backward = _backward
        return out

    return build


def _softmax_block(axis):
    return _block(lambda x: K._softmax(x.copy(), axis, True),
                  lambda saved, g: [K._softmax_backward(g, saved)])


def _layer_norm_forward(x, w, b):
    norm = K.NormWeights(w, b)
    out, saved = K._layer_norm(x.copy(), norm, True, "test")
    return out, (norm, saved)


def _sdpa_block(mask=None, site=None):
    return _block(
        lambda q, k, v: K._sdpa(q, k, v, 2.0, mask, site, True, "test"),
        lambda saved, g: K._sdpa_backward(saved, g, "test"))


BLOCKS = {
    "softmax": _softmax_block(-1),
    "softmax_axis0": _softmax_block(0),
    "log_softmax": lambda ts: F.log_softmax(ts[0], axis=-1),
    "gelu": _block(lambda u: K._gelu(u, True, "test"),
                   lambda saved, g: [K._gelu_backward(saved, g, "test")]),
    "layer_norm": _block(_layer_norm_forward,
                         lambda saved, g: K._layer_norm_backward(
                             g, saved[0], saved[1], "test")),
    "sdpa": _sdpa_block(),
    "sdpa_masked": _sdpa_block(mask=causal_mask(6)[None, None]),
}


def _sdpa(ts, scale=2.0, mask=None, dropout_p=0.0, rng=None, training=False):
    return F.scaled_dot_product_attention(
        ts[0], ts[1], ts[2], scale=scale, mask=mask,
        dropout_p=dropout_p, rng=rng, training=training)


REFERENCES = {
    "softmax": (lambda ts: F.softmax(ts[0], axis=-1), [(4, 9)]),
    "softmax_axis0": (lambda ts: F.softmax(ts[0], axis=0), [(4, 9)]),
    "log_softmax": (lambda ts: F._log_softmax_reference(ts[0], axis=-1), [(4, 9)]),
    "gelu": (lambda ts: F.gelu(ts[0]), [(5, 7)]),
    "layer_norm": (lambda ts: F.layer_norm(ts[0], ts[1], ts[2]),
                   [(3, 4, 8), (8,), (8,)]),
    "sdpa": (_sdpa, [(2, 3, 6, 4)] * 3),
    "sdpa_masked": (lambda ts: _sdpa(ts, mask=causal_mask(6)[None, None]),
                    [(2, 3, 6, 4)] * 3),
}


class TestFiniteDifferences:
    """Float64 central-difference gradient checks of the kernel blocks."""

    def test_softmax(self):
        check_gradients(lambda ts: (BLOCKS["softmax"](ts) ** 2).sum(), [(3, 5)])

    def test_softmax_axis0(self):
        check_gradients(lambda ts: (BLOCKS["softmax_axis0"](ts) ** 2).sum(), [(4, 3)])

    def test_log_softmax(self):
        check_gradients(
            lambda ts: (F.log_softmax(ts[0], axis=-1)
                        * np.arange(15.0).reshape(3, 5)).sum(),
            [(3, 5)])

    def test_gelu(self):
        check_gradients(lambda ts: BLOCKS["gelu"](ts).sum(), [(4, 4)])

    def test_layer_norm(self):
        check_gradients(lambda ts: (BLOCKS["layer_norm"](ts) ** 2).sum(),
                        [(2, 3, 6), (6,), (6,)])

    def test_sdpa(self):
        check_gradients(lambda ts: (BLOCKS["sdpa"](ts) ** 2).sum(),
                        [(1, 2, 4, 3)] * 3)

    def test_sdpa_with_mask(self):
        # A moderate additive mask keeps finite differences well-conditioned.
        mask = np.triu(np.full((4, 4), -1.5, dtype=np.float64), k=1)[None, None]
        check_gradients(lambda ts: (_sdpa_block(mask)(ts) ** 2).sum(),
                        [(1, 2, 4, 3)] * 3)


def _run(build, shapes, dtype, seed=0):
    """``build`` on fixed inputs; returns the output and every input grad."""
    rng = np.random.default_rng(seed)
    ts = [Tensor(rng.standard_normal(s).astype(dtype), requires_grad=True,
                 dtype=dtype) for s in shapes]
    out = build(ts)
    (out * out).sum().backward()
    return out.data, [t.grad for t in ts]


class TestFusedMatchesReference:
    """Each block and its reference must agree bit-for-bit (≫ 1e-6 relative)."""

    @pytest.mark.parametrize("name", sorted(BLOCKS))
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_identical(self, name, dtype):
        reference, shapes = REFERENCES[name]
        out_k, grads_k = _run(BLOCKS[name], shapes, dtype)
        out_r, grads_r = _run(reference, shapes, dtype)
        assert out_k.dtype == out_r.dtype == dtype
        assert np.array_equal(out_k, out_r), f"{name}: forward differs"
        for i, (gk, gr) in enumerate(zip(grads_k, grads_r)):
            assert np.array_equal(gk, gr), f"{name}: grad of input {i} differs"

    def test_sdpa_dropout_bitwise_identical(self):
        """With dropout active, both sides must consume the RNG stream
        identically and produce identical masks, outputs, and gradients."""
        shapes = [(2, 3, 6, 4)] * 3
        kernel = _sdpa_block(site=(0.25, np.random.default_rng(42)))
        out_k, grads_k = _run(kernel, shapes, np.float32)
        out_r, grads_r = _run(
            lambda ts: _sdpa(ts, dropout_p=0.25, rng=np.random.default_rng(42),
                             training=True), shapes, np.float32)
        assert np.array_equal(out_k, out_r)
        for gk, gr in zip(grads_k, grads_r):
            assert np.array_equal(gk, gr)

    def test_multi_head_attention_module_bitwise_identical(self):
        """The kernel's attention block (projections + SDPA core + output
        GEMM) agrees with the ``MultiHeadAttention`` module."""
        results = []
        for kernel in (True, False):
            layer = TransformerEncoderLayer(16, 4, dropout=0.0,
                                            rng=np.random.default_rng(3))
            x = Tensor(np.random.default_rng(5)
                       .standard_normal((2, 6, 16)).astype(np.float32),
                       requires_grad=True)
            out = _attention_node(layer, x) if kernel else layer.attention(x)
            (out * out).sum().backward()
            results.append((out.data, x.grad,
                            {k: p.grad for k, p in
                             layer.attention.named_parameters()}))
        (out_k, gx_k, gp_k), (out_r, gx_r, gp_r) = results
        assert np.array_equal(out_k, out_r)
        assert np.array_equal(gx_k, gx_r)
        assert gp_k.keys() == gp_r.keys()
        for key in gp_k:
            assert np.array_equal(gp_k[key], gp_r[key]), key

    def test_fused_dropout_validates_probability(self):
        ts = [Tensor(np.zeros((1, 1, 2, 2), dtype=np.float32), requires_grad=True)
              for _ in range(3)]
        with pytest.raises(ValueError):
            _sdpa_block(site=(1.0, np.random.default_rng(0)))(ts)


def _attention_node(layer, x):
    """The kernel's attention block over ``layer``'s weights, as one node."""
    weights = layer._kernel_weights(x.shape[1])
    params = layer._kernel_params()
    out_data, saved = K._attention(weights, x.data, None, True)
    out = _make_node(out_data, (x, *params.values()))

    def _backward(grad):
        grads = {}
        for g in K._attention_backward(weights, saved, grad, grads):
            x._accumulate(g, owned=True)
        for key, g in grads.items():
            params[key]._accumulate(g, owned=True)

    out._backward = _backward
    return out


class TestFusedGraphShape:
    def test_fused_ops_are_single_nodes(self):
        x = Tensor(np.random.default_rng(0).standard_normal((2, 3, 8))
                   .astype(np.float32), requires_grad=True)
        assert F.log_softmax(x, axis=-1)._prev == (x,)
        layer = TransformerEncoderLayer(8, 2, rng=np.random.default_rng(0))
        out = layer(x)
        assert out._prev == (x, *layer._kernel_params().values())

    def test_no_graph_under_no_grad(self):
        x = Tensor(np.random.default_rng(0).standard_normal((2, 3, 8))
                   .astype(np.float32), requires_grad=True)
        layer = TransformerEncoderLayer(8, 2, rng=np.random.default_rng(0))
        with no_grad():
            outs = [F.log_softmax(x, axis=-1), layer(x)]
        for out in outs:
            assert out._prev == ()
            assert out._backward is None
            assert not out.requires_grad
