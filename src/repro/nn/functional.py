"""Functional (stateless) neural-network operations.

These compose the primitive autograd ops in :mod:`repro.nn.tensor` into the
higher-level operations the library needs: stable softmax, GELU, dropout,
layer normalisation, scaled-dot-product attention, and similarity measures.

``softmax``, ``gelu``, ``layer_norm`` and ``scaled_dot_product_attention``
are plain compositions of primitive ``Tensor`` ops.  The Transformer
encoder layer does not run them: it runs the kernel pair in
:mod:`repro.nn.encoder_layer`, and these compositions (through the
submodules of ``TransformerEncoderLayer.reference_forward``) are the
oracle it is tested against.  ``log_softmax`` is a single-node kernel,
because every contrastive loss calls it; its backward replays the
reference chain's NumPy op sequence, so it is bit-identical to
``_log_softmax_reference``.
"""

from __future__ import annotations

import numpy as np

from . import profiler as _prof
from .tensor import DEFAULT_DTYPE, Tensor, _make_node, _unbroadcast, as_tensor

__all__ = [
    "softmax",
    "log_softmax",
    "relu",
    "gelu",
    "sigmoid",
    "tanh",
    "dropout",
    "layer_norm",
    "scaled_dot_product_attention",
    "one_hot",
    "cosine_similarity",
    "normalize",
]

# A float32 0-d array — exactly what ``as_tensor(python_float)`` produces.
_SQRT_2 = np.asarray(float(np.sqrt(2.0)), dtype=DEFAULT_DTYPE)


# ----------------------------------------------------------------------
# Softmax
# ----------------------------------------------------------------------
def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``.

    The max-shift term is detached: it is constant w.r.t. the gradient of
    softmax, so excluding it from the graph is exact and cheaper.
    """
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


# ----------------------------------------------------------------------
# Log-softmax
# ----------------------------------------------------------------------
def _log_softmax_reference(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``, as one graph node
    whose backward replays :func:`_log_softmax_reference` bit for bit."""
    profiled = _prof._ACTIVE
    t0 = _prof._now() if profiled else 0.0
    data = x.data
    shifted = data - data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e.sum(axis=axis, keepdims=True)
    out_data = shifted - np.log(s)
    if profiled:
        _prof._profiler.record("fused.log_softmax", _prof._now() - t0, out_data.nbytes)
    out = _make_node(out_data, (x,))
    if out.requires_grad:

        def _backward(grad):
            if _prof._ACTIVE:
                t1 = _prof._now()
            # Mirrors: sub, log, sum broadcast, exp, sub pass-through.
            gl = _unbroadcast(-grad, s.shape)
            ge = np.broadcast_to(gl / s, e.shape)
            x._accumulate(grad + ge * e, owned=True)
            if _prof._ACTIVE:
                _prof._profiler.record("fused.log_softmax.backward", _prof._now() - t1)

        out._backward = _backward
    return out


# ----------------------------------------------------------------------
# Elementwise wrappers
# ----------------------------------------------------------------------
def relu(x: Tensor) -> Tensor:
    return x.relu()


def gelu(x: Tensor) -> Tensor:
    """Gaussian Error Linear Unit, exact (erf) formulation."""
    return x * (x / _SQRT_2).erf().__add__(1.0) * 0.5


def sigmoid(x: Tensor) -> Tensor:
    return x.sigmoid()


def tanh(x: Tensor) -> Tensor:
    return x.tanh()


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout: zero elements with probability ``p`` and rescale.

    Dropout is the *only* source of stochasticity TimeDRL uses to create the
    two contrastive views (paper Section IV-C), so the mask RNG is threaded
    explicitly for reproducibility.
    """
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    keep = 1.0 - p
    mask = (rng.random(x.shape) < keep).astype(x.data.dtype) / keep
    return x * Tensor(mask)


# ----------------------------------------------------------------------
# Layer normalisation
# ----------------------------------------------------------------------
def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalisation over the last axis with affine parameters."""
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    normed = (x - mean) / (var + eps).sqrt()
    return normed * weight + bias


# ----------------------------------------------------------------------
# Scaled-dot-product attention
# ----------------------------------------------------------------------
def scaled_dot_product_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    scale: float,
    mask: Tensor | np.ndarray | None = None,
    dropout_p: float = 0.0,
    rng: np.random.Generator | None = None,
    training: bool = False,
) -> Tensor:
    """Attention core ``softmax(q @ k^T / scale + mask) @ v`` on 4-D inputs.

    ``q``/``k``/``v`` have shape ``(batch, heads, seq, head_dim)``.  The
    optional additive ``mask`` broadcasts against the score matrix; dropout
    is applied to the attention probabilities (TimeDRL's augmentation).
    """
    scores = (q @ k.transpose(0, 1, 3, 2)) / scale
    if mask is not None:
        scores = scores + as_tensor(mask)
    probs = softmax(scores, axis=-1)
    if rng is not None:
        probs = dropout(probs, dropout_p, rng, training=training)
    return probs @ v


# ----------------------------------------------------------------------
# Encodings and similarity
# ----------------------------------------------------------------------
def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Integer labels ``(N,)`` to a one-hot float matrix ``(N, num_classes)``."""
    labels = np.asarray(labels).astype(np.int64).reshape(-1)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError("labels out of range for one_hot")
    encoded = np.zeros((labels.shape[0], num_classes), dtype=np.float32)
    encoded[np.arange(labels.shape[0]), labels] = 1.0
    return encoded


def normalize(x: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """L2-normalise ``x`` along ``axis``."""
    norm = ((x * x).sum(axis=axis, keepdims=True) + eps).sqrt()
    return x / norm


def cosine_similarity(a: Tensor, b: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Cosine similarity along ``axis`` (keeps the reduced axis collapsed)."""
    a, b = as_tensor(a), as_tensor(b)
    return (normalize(a, axis=axis, eps=eps) * normalize(b, axis=axis, eps=eps)).sum(axis=axis)
