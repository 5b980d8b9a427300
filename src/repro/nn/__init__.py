"""``repro.nn`` — a from-scratch NumPy deep-learning substrate.

This package replaces PyTorch for the TimeDRL reproduction: a reverse-mode
autograd :class:`~repro.nn.tensor.Tensor`, a module system, the layer zoo
(Linear / Conv1d / LSTM / Transformer / normalisation / dropout), losses and
optimizers.  Everything is seeded through explicit
``numpy.random.Generator`` objects for reproducibility.
"""

from . import encoder_layer
from . import functional
from . import profiler
from .attention import MultiHeadAttention, causal_mask
from .conv import (
    CausalConv1d,
    Conv1d,
    GlobalAveragePool1d,
    MaxPool1d,
    ResNet1d,
    ResNetBlock1d,
    TCN,
    TCNBlock,
)
from .encoder_layer import encoder_layer_backward, encoder_layer_forward
from .layers import (
    BatchNorm1d,
    Dropout,
    Flatten,
    GELU,
    Identity,
    LayerNorm,
    Linear,
    ReLU,
    Sigmoid,
    Tanh,
)
from .losses import (
    binary_cross_entropy_with_logits,
    cross_entropy,
    hierarchical_contrastive_loss,
    huber_loss,
    mae_loss,
    mse_loss,
    negative_cosine_similarity,
    nt_xent_loss,
    triplet_loss,
)
from .module import LoadResult, Module, ModuleList, Parameter, Sequential
from .optim import (
    Adam,
    AdamW,
    CosineScheduler,
    WarmupCosineScheduler,
    Optimizer,
    SGD,
    StepScheduler,
    clip_grad_norm,
)
from .rnn import GRU, BiLSTM, LSTM
from .tensor import (
    Tensor,
    as_tensor,
    concatenate,
    is_grad_enabled,
    maximum,
    minimum,
    no_grad,
    stack,
    where,
)
from .transformer import (
    LearnablePositionalEncoding,
    TransformerEncoder,
    TransformerEncoderLayer,
)

__all__ = [
    "encoder_layer", "functional", "profiler",
    "encoder_layer_forward", "encoder_layer_backward",
    "Tensor", "as_tensor", "no_grad", "is_grad_enabled",
    "concatenate", "stack", "where", "maximum", "minimum",
    "LoadResult", "Module", "ModuleList", "Parameter", "Sequential",
    "Linear", "Dropout", "LayerNorm", "BatchNorm1d",
    "ReLU", "GELU", "Tanh", "Sigmoid", "Identity", "Flatten",
    "MultiHeadAttention", "causal_mask",
    "TransformerEncoder", "TransformerEncoderLayer", "LearnablePositionalEncoding",
    "Conv1d", "CausalConv1d", "TCN", "TCNBlock", "ResNet1d", "ResNetBlock1d",
    "MaxPool1d", "GlobalAveragePool1d",
    "LSTM", "BiLSTM", "GRU",
    "Optimizer", "SGD", "Adam", "AdamW",
    "CosineScheduler", "WarmupCosineScheduler", "StepScheduler", "clip_grad_norm",
    "mse_loss", "mae_loss", "huber_loss", "cross_entropy",
    "binary_cross_entropy_with_logits",
    "negative_cosine_similarity", "nt_xent_loss", "triplet_loss",
    "hierarchical_contrastive_loss",
]
