"""The encoder-layer kernel pair against the reference op graph.

``TransformerEncoderLayer.forward`` runs one autograd node over
``encoder_layer_forward``/``encoder_layer_backward``;
``reference_forward`` composes the same layer from the submodules.  At the
same dropout seeds the two must agree bit for bit: output, input gradient
and every parameter gradient, in every mode the layer runs in.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Tensor, TransformerEncoderLayer, no_grad
from repro.nn.encoder_layer import (
    PARAM_NAMES,
    EncoderLayerWeights,
    NormWeights,
    PackedLinear,
    encoder_layer_backward,
    encoder_layer_forward,
)

from ..helpers import numeric_gradient


def _layer(d_model, heads, p, causal, seed=0):
    return TransformerEncoderLayer(d_model, heads, dropout=p, causal=causal,
                                   rng=np.random.default_rng(seed))


def _grads(layer):
    return {name: param.grad for name, param in layer.named_parameters()}


def _assert_same(a, b):
    out_a, gx_a, gp_a = a
    out_b, gx_b, gp_b = b
    assert out_a.dtype == out_b.dtype
    assert np.array_equal(out_a, out_b), "forward differs"
    if gx_a is None or gx_b is None:
        assert gx_a is None and gx_b is None
    else:
        assert np.array_equal(gx_a, gx_b), "input gradient differs"
    assert gp_a.keys() == gp_b.keys()
    for key in gp_a:
        if gp_a[key] is None or gp_b[key] is None:
            assert gp_a[key] is None and gp_b[key] is None, key
        else:
            assert np.array_equal(gp_a[key], gp_b[key]), key


@given(heads=st.integers(1, 3), head_dim=st.integers(1, 4),
       tokens=st.integers(1, 6), batch=st.integers(1, 3),
       causal=st.booleans(), p=st.sampled_from([0.0, 0.1, 0.5]),
       train=st.booleans(), grad=st.booleans(), x_grad=st.booleans(),
       seed=st.integers(0, 1000))
@settings(max_examples=60, deadline=None)
def test_kernel_matches_reference_graph(heads, head_dim, tokens, batch,
                                        causal, p, train, grad, x_grad, seed):
    d_model = heads * head_dim
    data = np.random.default_rng(seed).standard_normal(
        (batch, tokens, d_model)).astype(np.float32)
    weight = np.random.default_rng(seed + 1).standard_normal(
        (batch, tokens, d_model)).astype(np.float32)
    runs = []
    for kernel in (True, False):
        layer = _layer(d_model, heads, p, causal, seed=seed).train(train)
        x = Tensor(data, requires_grad=x_grad)
        forward = layer if kernel else layer.reference_forward
        if grad:
            out = forward(x)
            (out * Tensor(weight)).sum().backward()
        else:
            with no_grad():
                out = forward(x)
            assert not out.requires_grad
        runs.append((out.data, x.grad, _grads(layer)))
    _assert_same(*runs)


class TestAccumulationAcrossNodes:
    def _two_views(self, kernel, p=0.1, causal=False):
        """The instance-contrastive shape: one input, two dropout views
        through the same parameters, both feeding the loss."""
        layer = _layer(8, 2, p, causal, seed=4)
        x = Tensor(np.random.default_rng(1).standard_normal((3, 5, 8))
                   .astype(np.float32), requires_grad=True)
        forward = layer if kernel else layer.reference_forward
        first, second = forward(x), forward(x)
        weight = np.random.default_rng(2).standard_normal(
            first.shape).astype(np.float32)
        ((first * first).sum() + (second * Tensor(weight)).sum()).backward()
        return first.data, x.grad, _grads(layer)

    def test_two_views_share_parameters(self):
        _assert_same(self._two_views(True), self._two_views(False))

    def test_two_views_causal_without_dropout(self):
        _assert_same(self._two_views(True, p=0.0, causal=True),
                     self._two_views(False, p=0.0, causal=True))

    def test_stacked_layers(self):
        runs = []
        for kernel in (True, False):
            layers = [_layer(8, 2, 0.2, False, seed=s) for s in (5, 6)]
            x = Tensor(np.random.default_rng(3).standard_normal((2, 4, 8))
                       .astype(np.float32), requires_grad=True)
            h = x
            for layer in layers:
                h = layer(h) if kernel else layer.reference_forward(h)
            (h * h).sum().backward()
            grads = {f"{i}.{k}": g for i, layer in enumerate(layers)
                     for k, g in _grads(layer).items()}
            runs.append((h.data, x.grad, grads))
        _assert_same(*runs)


def _weights(arrays: dict, heads: int) -> EncoderLayerWeights:
    linears = {lin: PackedLinear(arrays[f"{lin}.weight"].T,
                                 arrays[f"{lin}.bias"])
               for lin in ("q", "k", "v", "out", "ff1", "ff2")}
    norms = {norm: NormWeights(arrays[f"{norm}.weight"],
                               arrays[f"{norm}.bias"])
             for norm in ("norm1", "norm2")}
    return EncoderLayerWeights(num_heads=heads, **linears, **norms)


def test_backward_matches_finite_differences():
    """Float64 central differences of ``encoder_layer_backward`` for the
    input and every parameter, with fixed dropout masks."""
    heads, d_model, d_ff = 2, 4, 6
    rng = np.random.default_rng(0)
    shapes = {"q.weight": (d_model, d_model), "k.weight": (d_model, d_model),
              "v.weight": (d_model, d_model), "out.weight": (d_model, d_model),
              "ff1.weight": (d_ff, d_model), "ff2.weight": (d_model, d_ff)}
    arrays = {}
    for name in PARAM_NAMES:
        lin, part = name.split(".")
        if part == "weight":
            shape = shapes.get(name, (d_model,))
        else:
            shape = (d_ff,) if lin == "ff1" else (d_model,)
        arrays[name] = rng.standard_normal(shape) * 0.5
    arrays["norm1.weight"] += 1.0
    arrays["norm2.weight"] += 1.0
    x = rng.standard_normal((2, 3, d_model))
    weight = rng.standard_normal((2, 3, d_model))

    def sites():
        return [(0.25, np.random.default_rng(seed)) for seed in range(4)]

    def loss(values):
        params = dict(zip(PARAM_NAMES, values[1:]))
        out, __ = encoder_layer_forward(_weights(params, heads), values[0],
                                        dropout=sites())
        return float((out * weight).sum())

    out, saved = encoder_layer_forward(_weights(arrays, heads), x, save=True,
                                       dropout=sites())
    x_grads, param_grads = encoder_layer_backward(saved, weight)
    assert len(x_grads) == 4
    values = [x] + [arrays[name] for name in PARAM_NAMES]
    analytic = [sum(x_grads)] + [param_grads[name] for name in PARAM_NAMES]
    for index, name in enumerate(("x",) + PARAM_NAMES):
        np.testing.assert_allclose(
            analytic[index], numeric_gradient(loss, values, index),
            atol=1e-6, rtol=1e-5, err_msg=f"gradient mismatch for {name}")
