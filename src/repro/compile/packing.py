"""The pre-packing pass: model parameters → GEMM-ready packed layouts.

``export_model_arrays`` walks a :class:`~repro.core.model.TimeDRL` (or a
distilled :class:`~repro.compile.distill.StudentModel`) and exports every
inference-relevant parameter into one flat ``name -> ndarray`` dict — the
canonical form that is checksummed, quantized, and serialized by
:mod:`repro.compile.artifact`.  ``build_packed_encoder`` turns that dict
back into a :class:`PackedSequenceEncoder`, whose layers run the same
:func:`~repro.nn.encoder_layer.encoder_layer_forward` as training,
performing the layout work exactly once:

* Linear weights transpose to ``(in, out)`` Fortran order (the optimal
  GEMM operand; for a C-contiguous ``(out, in)`` weight this is a view);
* in fast mode the Q/K/V projections fuse column-wise into a single
  ``(in, 3*d)`` weight — one GEMM per layer instead of three (BLAS
  blocking differs, so exact mode keeps three GEMMs);
* the positional table and the causal mask (decoder ablation) are baked
  for the encoder's fixed ``1 + T_p`` token count;
* int8 entries are cast to float32 grid points once ("dequant-free").

Only the transformer backbones compile; the recurrent/convolutional
ablation backbones raise :class:`~repro.compile.errors.CompileError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..nn.attention import causal_mask
from ..nn.encoder_layer import (
    EncoderLayerWeights,
    NormWeights,
    PackedLinear,
    encoder_layer_forward,
)
from ..nn.tensor import DEFAULT_DTYPE
from .errors import CompileError

__all__ = [
    "COMPILABLE_BACKBONES",
    "PackedSequenceEncoder",
    "export_model_arrays",
    "build_packed_encoder",
    "build_packed_linear",
    "linear_prefixes",
]

COMPILABLE_BACKBONES = ("transformer", "transformer_decoder")


def _export_linear(arrays: dict, prefix: str, linear) -> None:
    arrays[f"{prefix}.weight"] = np.ascontiguousarray(linear.weight.data)
    if linear.bias is not None:
        arrays[f"{prefix}.bias"] = np.ascontiguousarray(linear.bias.data)


def export_model_arrays(model) -> tuple[dict[str, np.ndarray], dict]:
    """Export ``model``'s inference parameters as ``(arrays, structure)``.

    ``model`` is a ``TimeDRL`` or a distilled ``StudentModel`` (duck
    typed: ``.config``, ``.encoder``, ``.predictive_head``, and for
    students ``.patch_proj`` / ``.inst_proj``).  ``structure`` carries
    the non-array facts ``build_packed_encoder`` needs (layer count,
    heads, causal flag, per-norm eps).
    """
    config = model.config
    if config.backbone not in COMPILABLE_BACKBONES:
        raise CompileError(
            f"backbone {config.backbone!r} is not compilable; "
            f"repro.compile supports {', '.join(COMPILABLE_BACKBONES)}")
    encoder = model.encoder
    arrays: dict[str, np.ndarray] = {
        "cls_token": np.ascontiguousarray(encoder.cls_token.data),
        "pos": np.ascontiguousarray(encoder.positional_encoding.weight.data),
    }
    _export_linear(arrays, "token", encoder.token_encoding)
    eps: dict[str, float] = {}
    layers = list(encoder.backbone.layers)
    causal = False
    for index, layer in enumerate(layers):
        prefix = f"layers.{index}"
        attn = layer.attention
        causal = bool(layer.causal)
        _export_linear(arrays, f"{prefix}.q", attn.q_proj)
        _export_linear(arrays, f"{prefix}.k", attn.k_proj)
        _export_linear(arrays, f"{prefix}.v", attn.v_proj)
        _export_linear(arrays, f"{prefix}.out", attn.out_proj)
        _export_linear(arrays, f"{prefix}.ff1", layer.ff1)
        _export_linear(arrays, f"{prefix}.ff2", layer.ff2)
        for norm_name in ("norm1", "norm2"):
            norm = getattr(layer, norm_name)
            arrays[f"{prefix}.{norm_name}.weight"] = np.ascontiguousarray(
                norm.weight.data)
            arrays[f"{prefix}.{norm_name}.bias"] = np.ascontiguousarray(
                norm.bias.data)
            eps[f"{prefix}.{norm_name}"] = float(norm.eps)
    _export_linear(arrays, "head", model.predictive_head.proj)
    distilled = hasattr(model, "patch_proj")
    if distilled:
        _export_linear(arrays, "patch_proj", model.patch_proj)
        _export_linear(arrays, "inst_proj", model.inst_proj)
    structure = {
        "num_layers": len(layers),
        "num_heads": int(layers[0].attention.num_heads) if layers else 0,
        "causal": causal,
        "norm_eps": eps,
        "distilled": distilled,
    }
    return arrays, structure


def linear_prefixes(structure: dict) -> list[str]:
    """The quantizable linear-layer prefixes, in forward order."""
    prefixes = ["token"]
    for index in range(structure["num_layers"]):
        prefixes += [f"layers.{index}.q", f"layers.{index}.k",
                     f"layers.{index}.v", f"layers.{index}.out",
                     f"layers.{index}.ff1", f"layers.{index}.ff2"]
    prefixes.append("head")
    if structure.get("distilled"):
        prefixes += ["patch_proj", "inst_proj"]
    return prefixes


def build_packed_linear(arrays: dict, prefix: str,
                        name: str | None = None) -> PackedLinear:
    """Build the packed GEMM operand for one (possibly int8) linear."""
    weight = arrays[f"{prefix}.weight"]
    scale = arrays.get(f"{prefix}.scale")
    if scale is not None:
        # int8 grid points cast to fp32 once; the per-channel scale is
        # applied to the layer *output*, never to the weight per call.
        weight = weight.astype(DEFAULT_DTYPE)
        scale = np.ascontiguousarray(scale, dtype=DEFAULT_DTYPE)
    packed = np.asfortranarray(weight.T)
    bias = arrays.get(f"{prefix}.bias")
    return PackedLinear(weight=packed, bias=bias, scale=scale,
                        name=name or f"packed.{prefix.split('.')[-1]}")


def _fused_qkv(arrays: dict, prefix: str) -> PackedLinear | None:
    """Column-fuse q/k/v into one GEMM operand, or ``None`` if the three
    disagree on quantization (a mixed triple keeps separate GEMMs)."""
    scales = [arrays.get(f"{prefix}.{part}.scale") for part in "qkv"]
    if sum(scale is not None for scale in scales) not in (0, 3):
        return None
    weights = [arrays[f"{prefix}.{part}.weight"] for part in "qkv"]
    weight = np.concatenate(
        [w.astype(DEFAULT_DTYPE) for w in weights], axis=0)
    scale = (np.concatenate(scales).astype(DEFAULT_DTYPE)
             if scales[0] is not None else None)
    bias = np.concatenate([arrays[f"{prefix}.{part}.bias"] for part in "qkv"])
    return PackedLinear(weight=np.asfortranarray(weight.T), bias=bias,
                        scale=scale, name="packed.qkv")


@dataclass
class PackedSequenceEncoder:
    """The full TimeDRL encoder forward over pre-packed weights.

    Consumes *already patched* input ``(N, T_p, token_dim)`` (the
    :func:`repro.core.patching` pipeline stays upstream, it is plain
    NumPy either way) and returns ``z (N, 1+T_p, d_model)``.  The [CLS]
    row, positional slice and causal mask are baked at pack time for the
    encoder's fixed token count — nothing is re-materialized per call.
    """

    cls_token: np.ndarray             # (token_dim,)
    token: PackedLinear
    pos: np.ndarray                   # (1+T_p, d_model), contiguous slice
    layers: list[EncoderLayerWeights] = field(default_factory=list)
    token_dim: int = 0

    def __call__(self, x_patched: np.ndarray) -> np.ndarray:
        if x_patched.ndim != 3:
            raise ValueError(
                f"expected (N, T_p, token_dim), got shape {x_patched.shape}")
        if x_patched.shape[2] != self.token_dim:
            raise ValueError(
                f"token width {x_patched.shape[2]} != packed token_dim "
                f"= {self.token_dim}")
        n = x_patched.shape[0]
        cls_rows = np.broadcast_to(
            self.cls_token.reshape(1, 1, -1), (n, 1, self.token_dim))
        with_cls = np.concatenate([cls_rows, x_patched], axis=1)
        h = self.token(with_cls)
        h += self.pos
        for layer in self.layers:
            h, __ = encoder_layer_forward(layer, h)
        return h


def build_packed_encoder(arrays: dict, structure: dict,
                         config, exact_gelu: bool = True,
                         fuse_qkv: bool = False) -> PackedSequenceEncoder:
    """Assemble the packed hot path from exported arrays.

    ``config`` is the encoder's :class:`~repro.core.TimeDRLConfig` (the
    student's, for distilled artifacts) — it fixes the token geometry.
    ``fuse_qkv`` trades the bit-identity of separate q/k/v GEMMs for one
    fused GEMM per layer (fast mode only).
    """
    tokens = 1 + config.num_patches
    eps = structure.get("norm_eps", {})
    mask = causal_mask(tokens)[None, None] if structure.get("causal") else None
    layers = []
    for index in range(structure["num_layers"]):
        prefix = f"layers.{index}"

        def linear(part: str, name: str) -> PackedLinear:
            return build_packed_linear(arrays, f"{prefix}.{part}", f"packed.{name}")

        def norm(part: str) -> NormWeights:
            return NormWeights(arrays[f"{prefix}.{part}.weight"],
                               arrays[f"{prefix}.{part}.bias"],
                               eps.get(f"{prefix}.{part}", 1e-5))

        qkv = _fused_qkv(arrays, prefix) if fuse_qkv else None
        separate = qkv is None
        layers.append(EncoderLayerWeights(
            q=linear("q", "q_proj") if separate else None,
            k=linear("k", "k_proj") if separate else None,
            v=linear("v", "v_proj") if separate else None,
            qkv=qkv,
            out=linear("out", "out_proj"),
            ff1=linear("ff1", "ff1"),
            ff2=linear("ff2", "ff2"),
            norm1=norm("norm1"),
            norm2=norm("norm2"),
            num_heads=structure["num_heads"],
            mask=mask,
            exact_gelu=exact_gelu,
            name="packed"))
    pos = np.ascontiguousarray(arrays["pos"][:tokens, :])
    return PackedSequenceEncoder(
        cls_token=arrays["cls_token"],
        token=build_packed_linear(arrays, "token", "packed.token_encoding"),
        pos=pos,
        layers=layers,
        token_dim=config.token_dim)
