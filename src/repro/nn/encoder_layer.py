"""The encoder-layer kernel pair: one post-norm Transformer block in NumPy.

:func:`encoder_layer_forward` and :func:`encoder_layer_backward` are the
only implementation of the TimeDRL backbone layer that runs:

* in training, :class:`~repro.nn.transformer.TransformerEncoderLayer`
  wraps the pair as a single autograd node;
* under ``no_grad``/eval the same forward runs with ``save=False``;
* the compiled artifacts (:mod:`repro.compile.packing`) call the same
  forward over pre-transposed, possibly int8, operands.

The kernels replay, expression by expression, the op graph that
``TransformerEncoderLayer.reference_forward`` builds from the submodules
(``MultiHeadAttention``, ``LayerNorm``, ``GELU``, ``Linear``,
``Dropout``): the same NumPy calls on the same operand layouts, the same
dropout draw order (attention probabilities, ``dropout1``,
``ff_dropout``, ``dropout2``) and the same gradient accumulation order.
Forward outputs and every gradient are therefore bit-identical to that
reference graph; ``tests/nn/test_encoder_layer.py`` locks this.

Operands come as :class:`PackedLinear` (weight already transposed to
``(in, out)``) so the training layer and the compiled path share one
GEMM call.  Two compile-time fast-mode options leave the reference
behind on purpose: a column-fused ``qkv`` GEMM (BLAS blocking differs,
~1 ulp) and tanh GELU (:func:`gelu_tanh`, ~1e-3).  The backward supports
the exact mode only.

Under ``profiler._ACTIVE`` the kernels record per-block rows
(``<name>.sdpa``, ``<name>.gelu``, ``<name>.layer_norm``, one row per
GEMM, and a ``.backward`` row for each); the disabled profiler costs one
attribute read per block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import profiler as _prof
from .tensor import DEFAULT_DTYPE, _unbroadcast

__all__ = [
    "PackedLinear",
    "NormWeights",
    "EncoderLayerWeights",
    "PARAM_NAMES",
    "encoder_layer_forward",
    "encoder_layer_backward",
    "gelu_tanh",
]

# Constants are float32 0-d arrays — what ``as_tensor(python_float)`` gives
# the reference graph — so both sides make the same NumPy calls.
_SQRT_2 = np.asarray(float(np.sqrt(2.0)), dtype=DEFAULT_DTYPE)
_ONE = np.asarray(1.0, dtype=DEFAULT_DTYPE)
_HALF = np.asarray(0.5, dtype=DEFAULT_DTYPE)
# d/dx erf(x) = (2/sqrt(pi)) * exp(-x^2); a weak Python scalar, as in
# ``Tensor.erf``'s backward.
_ERF_COEFF = float(2.0 / np.sqrt(np.pi))

# tanh-GELU constants (float32 so the f32 pipeline never upcasts):
# 0.5 * x * (1 + tanh(sqrt(2/pi) * (x + 0.044715 * x^3)))
_TANH_C0 = np.float32(0.7978845608028654)
_TANH_C1 = np.float32(0.044715)
_F32_ONE = np.float32(1.0)
_F32_HALF = np.float32(0.5)

_LINEARS = ("q", "k", "v", "out", "ff1", "ff2")
PARAM_NAMES = tuple(f"{lin}.{part}" for lin in _LINEARS
                    for part in ("weight", "bias")) + (
    "norm1.weight", "norm1.bias", "norm2.weight", "norm2.bias")


@dataclass
class PackedLinear:
    """Affine map with the weight pre-transposed to ``(in, out)``.

    ``weight`` is Fortran-order — exactly the layout ``nn.Linear``'s
    ``x @ W.T`` hands BLAS, so both make the same GEMM call.  For
    int8-quantized layers the stored values are the quantized grid points
    cast to float32 once at build time ("dequant-free": one fp32 GEMM,
    then the per-output-channel ``scale`` applied to the *output*).
    """

    weight: np.ndarray            # (in, out), F-order
    bias: np.ndarray | None       # (out,)
    scale: np.ndarray | None = None  # (out,) per-channel int8 scale, or None
    name: str = "packed.linear"

    def __call__(self, x: np.ndarray) -> np.ndarray:
        profiled = _prof._ACTIVE
        t0 = _prof._now() if profiled else 0.0
        out = np.matmul(x, self.weight)
        if self.scale is not None:
            out *= self.scale
        if self.bias is not None:
            out += self.bias
        if profiled:
            _prof._profiler.record(self.name, _prof._now() - t0, out.nbytes)
        return out

    def backward(self, x: np.ndarray, grad: np.ndarray):
        """``(grad_x, grad_weight (out, in), grad_bias)`` of ``x @ W + b``."""
        profiled = _prof._ACTIVE
        t0 = _prof._now() if profiled else 0.0
        weight = self.weight
        grad_x = np.matmul(grad, np.swapaxes(weight, -1, -2))
        grad_wt = _unbroadcast(np.matmul(np.swapaxes(x, -1, -2), grad),
                               weight.shape)
        grad_b = _unbroadcast(grad, self.bias.shape)
        if profiled:
            _prof._profiler.record(f"{self.name}.backward", _prof._now() - t0)
        return grad_x, grad_wt.T, grad_b


class NormWeights(NamedTuple):
    """Affine LayerNorm parameters over the last axis."""

    weight: np.ndarray
    bias: np.ndarray
    eps: float = 1e-5


@dataclass
class EncoderLayerWeights:
    """One layer's operands.  ``q``/``k``/``v`` or a fused ``qkv``."""

    out: PackedLinear
    ff1: PackedLinear
    ff2: PackedLinear
    norm1: NormWeights
    norm2: NormWeights
    num_heads: int
    q: PackedLinear | None = None
    k: PackedLinear | None = None
    v: PackedLinear | None = None
    qkv: PackedLinear | None = None   # fast mode: one (in, 3d) GEMM
    mask: np.ndarray | None = None    # (1, 1, T, T) additive, or None
    exact_gelu: bool = True
    name: str = "encoder_layer"       # profiler row prefix


def gelu_tanh(u: np.ndarray) -> np.ndarray:
    """tanh-approximation GELU (compile fast mode; ``u`` untouched).

    scipy's erf is a scalar cephes loop — ~40% of the 1-core packed
    forward — while ``np.tanh`` is vectorised.  Max drift vs exact GELU
    is ~1e-3 on layer-norm-scale activations (tolerance policy in
    ``docs/inference.md``).
    """
    inner = u * u
    np.multiply(inner, u, out=inner)
    np.multiply(inner, _TANH_C1, out=inner)
    np.add(inner, u, out=inner)
    np.multiply(inner, _TANH_C0, out=inner)
    np.tanh(inner, out=inner)
    np.add(inner, _F32_ONE, out=inner)
    np.multiply(inner, u, out=inner)
    np.multiply(inner, _F32_HALF, out=inner)
    return inner


def _dropout_mask(site, shape, dtype):
    """Inverted-dropout mask for ``site = (p, rng)``, or ``None``."""
    if site is None or site[0] <= 0.0:
        return None
    p, rng = site
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    keep = 1.0 - p
    return (rng.random(shape) < keep).astype(dtype) / keep


# ----------------------------------------------------------------------
# Blocks: each forward returns ``(out, saved)`` (``saved`` is ``None``
# when ``save=False``) and each backward replays the reference op
# graph's backward expressions for that block.
# ----------------------------------------------------------------------
def _softmax(x: np.ndarray, axis: int, save: bool):
    """Max-shifted softmax along ``axis``, overwriting ``x``."""
    e = np.subtract(x, x.max(axis=axis, keepdims=True), out=x)
    np.exp(e, out=e)
    s = e.sum(axis=axis, keepdims=True)
    if save:
        return e / s, (e, s)
    return np.divide(e, s, out=e), None


def _softmax_backward(grad: np.ndarray, saved) -> np.ndarray:
    e, s = saved
    g = grad / s
    g += _unbroadcast((-grad) * e / (s**2), s.shape)
    g *= e
    return g


def _sdpa(q, k, v, scale: float, mask, site, save: bool, name: str):
    """``dropout(softmax(q @ k^T / scale + mask)) @ v`` on ``(N, H, T, hd)``."""
    profiled = _prof._ACTIVE
    t0 = _prof._now() if profiled else 0.0
    scale = np.asarray(scale, dtype=DEFAULT_DTYPE)
    scores = np.matmul(q, np.transpose(k, (0, 1, 3, 2)))
    scores /= scale
    if mask is not None:
        scores = scores + mask
    probs, soft = _softmax(scores, -1, save)
    dmask = _dropout_mask(site, probs.shape, probs.dtype)
    dropped = probs * dmask if dmask is not None else probs
    context = np.matmul(dropped, v)
    if profiled:
        _prof._profiler.record(f"{name}.sdpa", _prof._now() - t0, context.nbytes)
    return context, (q, k, v, scale, soft, dmask, dropped) if save else None


def _sdpa_backward(saved, grad: np.ndarray, name: str):
    """``(grad_q, grad_k, grad_v)``."""
    profiled = _prof._ACTIVE
    t0 = _prof._now() if profiled else 0.0
    q, k, v, scale, soft, dmask, dropped = saved
    g_probs = np.matmul(grad, np.swapaxes(v, -1, -2))
    g_v = np.matmul(np.swapaxes(dropped, -1, -2), grad)
    if dmask is not None:
        g_probs *= dmask
    g_scores = _softmax_backward(g_probs, soft)
    g_scores /= scale
    g_q = np.matmul(g_scores, k)
    g_k = np.transpose(np.matmul(np.swapaxes(q, -1, -2), g_scores), (0, 1, 3, 2))
    if profiled:
        _prof._profiler.record(f"{name}.sdpa.backward", _prof._now() - t0)
    return g_q, g_k, g_v


def _attention(weights: EncoderLayerWeights, x: np.ndarray, site, save: bool):
    """Multi-head self-attention: projections, SDPA core, output GEMM."""
    n, t, d = x.shape
    h = weights.num_heads
    hd = d // h
    if weights.qkv is not None:
        qkv = weights.qkv(x)
        q_lin, k_lin, v_lin = qkv[..., :d], qkv[..., d:2 * d], qkv[..., 2 * d:]
    else:
        q_lin, k_lin, v_lin = weights.q(x), weights.k(x), weights.v(x)
    heads = [lin.reshape(n, t, h, hd).transpose(0, 2, 1, 3)
             for lin in (q_lin, k_lin, v_lin)]
    context, sdpa = _sdpa(*heads, float(np.sqrt(hd)), weights.mask, site,
                          save, weights.name)
    merged = context.transpose(0, 2, 1, 3).reshape(n, t, d)
    return weights.out(merged), (x, merged, sdpa) if save else None


def _attention_backward(weights: EncoderLayerWeights, saved, grad: np.ndarray,
                        grads: dict) -> list[np.ndarray]:
    """Fills ``grads`` for q/k/v/out; returns the input's q, k, v terms."""
    x, merged, sdpa = saved
    g_merged, grads["out.weight"], grads["out.bias"] = weights.out.backward(
        merged, grad)
    n, t, d = g_merged.shape
    h = weights.num_heads
    g_context = g_merged.reshape(n, t, h, d // h).transpose(0, 2, 1, 3)
    x_grads = []
    for lin, g_head in zip("qkv", _sdpa_backward(sdpa, g_context, weights.name)):
        g_lin = g_head.transpose(0, 2, 1, 3).reshape(n, t, d)
        g_x, grads[f"{lin}.weight"], grads[f"{lin}.bias"] = getattr(
            weights, lin).backward(x, g_lin)
        x_grads.append(g_x)
    return x_grads


def _gelu(u: np.ndarray, save: bool, name: str, exact: bool = True):
    """Exact erf GELU ``u * (erf(u / sqrt 2) + 1) * 0.5``, or
    :func:`gelu_tanh` when not ``exact`` (``u`` untouched)."""
    from scipy.special import erf as _erf

    profiled = _prof._ACTIVE
    t0 = _prof._now() if profiled else 0.0
    saved = None
    if not exact:
        out = gelu_tanh(u)
    else:
        u_scaled = u / _SQRT_2
        a = _erf(u_scaled) if save else _erf(u_scaled, u_scaled)
        a += _ONE
        out = np.multiply(u, a) if save else np.multiply(u, a, out=a)
        out *= _HALF
        saved = (u, u_scaled, a) if save else None
    if profiled:
        _prof._profiler.record(f"{name}.gelu", _prof._now() - t0, out.nbytes)
    return out, saved


def _gelu_backward(saved, grad: np.ndarray, name: str) -> np.ndarray:
    """The outer muls' term first, then the erf chain's, as the engine adds
    them."""
    profiled = _prof._ACTIVE
    t0 = _prof._now() if profiled else 0.0
    u, u_scaled, a = saved
    gw = grad * _HALF
    g_u = gw * a
    g_u += (((gw * u) * _ERF_COEFF) * np.exp(-(u_scaled**2))) / _SQRT_2
    if profiled:
        _prof._profiler.record(f"{name}.gelu.backward", _prof._now() - t0)
    return g_u


def _layer_norm(x: np.ndarray, norm: NormWeights, save: bool, name: str):
    """LayerNorm over the last axis, overwriting ``x``."""
    profiled = _prof._ACTIVE
    t0 = _prof._now() if profiled else 0.0
    d_arr = np.asarray(float(x.shape[-1]), dtype=DEFAULT_DTYPE)
    mu = x.sum(axis=-1, keepdims=True)
    mu /= d_arr
    c = np.subtract(x, mu, out=x)
    var = (c * c).sum(axis=-1, keepdims=True)
    var /= d_arr
    var += np.asarray(norm.eps, dtype=DEFAULT_DTYPE)
    sd = np.sqrt(var, out=var)
    if save:
        normed = c / sd
        out = normed * norm.weight
    else:
        out = np.divide(c, sd, out=c)
        out *= norm.weight
    out += norm.bias
    if profiled:
        _prof._profiler.record(f"{name}.layer_norm", _prof._now() - t0, out.nbytes)
    return out, (normed, c, sd) if save else None


def _layer_norm_backward(grad, norm: NormWeights, saved, name: str):
    """``(grad_x, grad_weight, grad_bias)``.  ``grad_x`` sums the four
    reference terms in the engine's order: centring pass-through, first
    mean, variance chain, second mean."""
    profiled = _prof._ACTIVE
    t0 = _prof._now() if profiled else 0.0
    normed, c, sd = saved
    d_arr = np.asarray(float(c.shape[-1]), dtype=DEFAULT_DTYPE)
    g_bias = _unbroadcast(grad, norm.bias.shape)
    g_weight = _unbroadcast(grad * normed, norm.weight.shape)
    gn = grad * norm.weight
    gx = gn / sd
    g_s1 = _unbroadcast(-gx, sd.shape) / d_arr
    g_sd = _unbroadcast((-gn) * c / (sd**2), sd.shape)
    uc = np.broadcast_to((g_sd * 0.5 / sd) / d_arr, c.shape) * c
    gc = uc + uc
    g_s2 = _unbroadcast(-gc, sd.shape) / d_arr
    gx += g_s1
    gx += gc
    gx += g_s2
    if profiled:
        _prof._profiler.record(f"{name}.layer_norm.backward", _prof._now() - t0)
    return gx, g_weight, g_bias


# ----------------------------------------------------------------------
# The kernel pair
# ----------------------------------------------------------------------
def encoder_layer_forward(weights: EncoderLayerWeights, x: np.ndarray,
                          save: bool = False, dropout=None):
    """One post-norm block over ``x (N, T, d)``; returns ``(out, saved)``.

    ``dropout`` is ``None`` (no dropout) or four sites — attention
    probabilities, ``dropout1``, ``ff_dropout``, ``dropout2`` — each a
    ``(p, rng)`` pair or ``None``; masks are drawn in that order.  With
    ``save=True`` the returned ``saved`` feeds
    :func:`encoder_layer_backward`; otherwise it is ``None`` and the
    intermediates are computed in place.
    """
    if save and (not weights.exact_gelu or weights.qkv is not None):
        raise ValueError("the encoder-layer backward supports exact mode only")
    name = weights.name
    sites = dropout or (None, None, None, None)
    residual, attention = _attention(weights, x, sites[0], save)
    mask1 = _dropout_mask(sites[1], residual.shape, residual.dtype)
    if mask1 is not None:
        residual *= mask1
    residual += x
    h1, ln1 = _layer_norm(residual, weights.norm1, save, name)

    act, gelu = _gelu(weights.ff1(h1), save, name, weights.exact_gelu)
    ff_mask = _dropout_mask(sites[2], act.shape, act.dtype)
    if ff_mask is not None:
        act *= ff_mask
    hidden = weights.ff2(act)
    mask2 = _dropout_mask(sites[3], hidden.shape, hidden.dtype)
    if mask2 is not None:
        hidden *= mask2
    hidden += h1
    out, ln2 = _layer_norm(hidden, weights.norm2, save, name)
    if not save:
        return out, None
    return out, (weights, attention, mask1, ln1, h1, gelu, ff_mask, act,
                 mask2, ln2)


def encoder_layer_backward(saved, grad: np.ndarray):
    """Gradients of one :func:`encoder_layer_forward` call.

    Returns ``(x_grads, param_grads)``.  ``x_grads`` holds the input's
    four terms in the order the autograd engine adds them — residual, q,
    k, v — so a caller that accumulates them one by one matches the
    reference graph bit for bit, also when ``x`` feeds several layers.
    ``param_grads`` maps :data:`PARAM_NAMES` to arrays shaped like the
    module parameters (weights ``(out, in)``).
    """
    (weights, attention, mask1, ln1, h1, gelu, ff_mask, act, mask2,
     ln2) = saved
    name = weights.name
    grads = {}
    g_r2, grads["norm2.weight"], grads["norm2.bias"] = _layer_norm_backward(
        grad, weights.norm2, ln2, name)
    g_hidden = g_r2 * mask2 if mask2 is not None else g_r2
    g_act, grads["ff2.weight"], grads["ff2.bias"] = weights.ff2.backward(
        act, g_hidden)
    if ff_mask is not None:
        g_act *= ff_mask
    g_h1, grads["ff1.weight"], grads["ff1.bias"] = weights.ff1.backward(
        h1, _gelu_backward(gelu, g_act, name))
    # h1 feeds ff1 and the second residual: two terms, so the order is
    # moot, but adding into the residual's buffer keeps its memory layout.
    g_r2 += g_h1
    g_r1, grads["norm1.weight"], grads["norm1.bias"] = _layer_norm_backward(
        g_r2, weights.norm1, ln1, name)
    g_att = g_r1 * mask1 if mask1 is not None else g_r1
    x_grads = _attention_backward(weights, attention, g_att, grads)
    return [g_r1, *x_grads], grads
