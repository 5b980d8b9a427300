"""Transformer encoder stack (the TimeDRL backbone) and causal variant.

Post-norm layout as in the original Transformer / BERT: each sub-layer is
``x + Dropout(sublayer(x))`` followed by LayerNorm.  The dropout layers are
the randomness source for TimeDRL's two contrastive views.
"""

from __future__ import annotations

import numpy as np

from .attention import MultiHeadAttention, causal_mask
from .encoder_layer import (
    EncoderLayerWeights,
    NormWeights,
    PackedLinear,
    encoder_layer_backward,
    encoder_layer_forward,
)
from .layers import Dropout, GELU, LayerNorm, Linear
from .module import Module, ModuleList, Parameter
from . import init
from .tensor import Tensor, _make_node, is_grad_enabled

__all__ = [
    "TransformerEncoderLayer",
    "TransformerEncoder",
    "LearnablePositionalEncoding",
]


def _packed(linear: Linear, name: str) -> PackedLinear:
    return PackedLinear(linear.weight.data.T, linear.bias.data,
                        name=f"encoder_layer.{name}")


class TransformerEncoderLayer(Module):
    """One Transformer block: self-attention + position-wise FFN.

    ``forward`` runs the block as one autograd node over the
    :mod:`~repro.nn.encoder_layer` kernel pair.  The submodules hold the
    parameters (and so the ``state_dict`` keys) and compose
    :meth:`reference_forward`, the op-graph oracle the kernel is tested
    against.
    """

    def __init__(self, d_model: int, num_heads: int, d_ff: int | None = None,
                 dropout: float = 0.1, causal: bool = False,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        d_ff = d_ff or 4 * d_model
        self.causal = causal
        self.attention = MultiHeadAttention(d_model, num_heads, dropout=dropout, rng=rng)
        self.norm1 = LayerNorm(d_model)
        self.norm2 = LayerNorm(d_model)
        self.ff1 = Linear(d_model, d_ff, rng=rng)
        self.ff2 = Linear(d_ff, d_model, rng=rng)
        self.activation = GELU()
        self.dropout1 = Dropout(dropout, rng=rng)
        self.dropout2 = Dropout(dropout, rng=rng)
        self.ff_dropout = Dropout(dropout, rng=rng)

    def _kernel_params(self) -> dict[str, Parameter]:
        """The parameters keyed by ``encoder_layer.PARAM_NAMES``."""
        attn = self.attention
        owners = {"q": attn.q_proj, "k": attn.k_proj, "v": attn.v_proj,
                  "out": attn.out_proj, "ff1": self.ff1, "ff2": self.ff2,
                  "norm1": self.norm1, "norm2": self.norm2}
        return {f"{key}.{part}": getattr(module, part)
                for key, module in owners.items() for part in ("weight", "bias")}

    def _kernel_weights(self, tokens: int) -> EncoderLayerWeights:
        attn = self.attention
        return EncoderLayerWeights(
            q=_packed(attn.q_proj, "q_proj"), k=_packed(attn.k_proj, "k_proj"),
            v=_packed(attn.v_proj, "v_proj"), out=_packed(attn.out_proj, "out_proj"),
            ff1=_packed(self.ff1, "ff1"), ff2=_packed(self.ff2, "ff2"),
            norm1=NormWeights(self.norm1.weight.data, self.norm1.bias.data,
                              self.norm1.eps),
            norm2=NormWeights(self.norm2.weight.data, self.norm2.bias.data,
                              self.norm2.eps),
            num_heads=attn.num_heads,
            mask=causal_mask(tokens)[None, None] if self.causal else None)

    def forward(self, x: Tensor) -> Tensor:
        params = self._kernel_params()
        sites = (self.attention.attn_dropout, self.dropout1, self.ff_dropout,
                 self.dropout2)
        dropout = tuple((site.p, site.rng) if site.training else None
                        for site in sites)
        save = is_grad_enabled() and (
            x.requires_grad or any(p.requires_grad for p in params.values()))
        out_data, saved = encoder_layer_forward(
            self._kernel_weights(x.shape[1]), x.data, save=save, dropout=dropout)
        out = _make_node(out_data, (x, *params.values()))
        if out.requires_grad:

            def _backward(grad):
                x_grads, param_grads = encoder_layer_backward(saved, grad)
                for key, param in params.items():
                    param._accumulate(param_grads[key], owned=True)
                # One at a time, in the engine's order: x may feed other nodes.
                for g in x_grads:
                    x._accumulate(g, owned=True)

            out._backward = _backward
        return out

    def reference_forward(self, x: Tensor) -> Tensor:
        """The same block as a graph of submodule ops (the test oracle)."""
        mask = causal_mask(x.shape[1]) if self.causal else None
        attended = self.attention(x, attn_mask=mask)
        x = self.norm1(x + self.dropout1(attended))
        hidden = self.ff2(self.ff_dropout(self.activation(self.ff1(x))))
        return self.norm2(x + self.dropout2(hidden))


class TransformerEncoder(Module):
    """Stack of ``num_layers`` encoder blocks.

    With ``causal=True`` this becomes the "Transformer Decoder" ablation of
    the paper's Table VIII: identical parameter count, masked self-attention.
    """

    def __init__(self, d_model: int, num_heads: int, num_layers: int,
                 d_ff: int | None = None, dropout: float = 0.1,
                 causal: bool = False, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.layers = ModuleList(
            TransformerEncoderLayer(d_model, num_heads, d_ff=d_ff,
                                    dropout=dropout, causal=causal, rng=rng)
            for __ in range(num_layers)
        )

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x


class LearnablePositionalEncoding(Module):
    """Learnable additive positional embedding ``PE ∈ R^{max_len × d_model}``
    (paper Eq. 3)."""

    def __init__(self, max_len: int, d_model: int, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.max_len = max_len
        self.weight = Parameter(init.normal((max_len, d_model), rng))

    def forward(self, x: Tensor) -> Tensor:
        length = x.shape[-2]
        if length > self.max_len:
            raise ValueError(
                f"sequence length {length} exceeds positional table ({self.max_len})"
            )
        return x + self.weight[:length, :]
