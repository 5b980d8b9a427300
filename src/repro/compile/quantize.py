"""The weight-quantization pass: per-channel symmetric int8 + calibration.

Every quantizable linear weight ``W (out, in)`` gets one scale per
*output channel*: ``scale_j = max_i |W[j, i]| / 127`` and
``Q = clip(round(W / scale), -127, 127)`` — symmetric (no zero point),
so the dequantized grid ``Q * scale`` is exactly representable and the
hot path stays dequant-free (one fp32 GEMM against the int8 grid cast
to fp32 at build time, the scale applied to the layer output).

Calibration (driven by a ``repro.data.specs`` data spec) records each
linear's input activation range on real windows and turns the per-layer
rounding error into a predicted *output* error bound::

    predicted = act_absmax * max_j(scale_j) / 2 * sqrt(in_features)

(a root-sum-square accumulation estimate over the reduction axis).  A
layer whose prediction exceeds ``error_budget`` is left in fp32 — the
mixed plan is recorded per layer in the compile report, never silent.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..nn.tensor import DEFAULT_DTYPE
from .packing import linear_prefixes

__all__ = [
    "LayerQuantization",
    "quantize_weight",
    "ActivationObserver",
    "observe_activation_ranges",
    "record_range",
    "plan_quantization",
]


@dataclass
class LayerQuantization:
    """One layer's quantization decision, as reported to the user."""

    name: str
    quantized: bool
    weight_max_abs_err: float   # max |W - Q*scale| over the weight
    scale_max: float            # largest per-channel scale
    act_absmax: float           # calibrated input range (0 if uncalibrated)
    predicted_output_err: float  # calibrated output error bound
    reason: str                 # "quantized" | "over error budget" | ...

    def to_json(self) -> dict:
        return asdict(self)


def quantize_weight(weight: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, float]:
    """Per-channel symmetric int8: ``(Q, scale, max_abs_err)``.

    All-zero rows get ``scale=1`` so the division is always defined (the
    row quantizes to zeros exactly).
    """
    weight = np.asarray(weight, dtype=DEFAULT_DTYPE)
    absmax = np.abs(weight).max(axis=1)
    scale = (absmax / np.float32(127.0)).astype(DEFAULT_DTYPE)
    scale[scale == 0] = np.float32(1.0)
    q = np.clip(np.rint(weight / scale[:, None]), -127, 127).astype(np.int8)
    dequantized = q.astype(DEFAULT_DTYPE) * scale[:, None]
    max_err = float(np.abs(weight - dequantized).max()) if weight.size else 0.0
    return q, scale, max_err


class ActivationObserver:
    """Wraps a ``PackedLinear`` and records its input absmax.

    Used only during calibration: the packed fp32 encoder's linears are
    temporarily replaced by observers, a few calibration batches run
    through, and the ranges are read back.  The hot path never carries
    observer overhead.
    """

    def __init__(self, inner, ranges: dict, key: str):
        self.inner = inner
        self.ranges = ranges
        self.key = key

    def __call__(self, x: np.ndarray) -> np.ndarray:
        observed = float(np.abs(x).max()) if x.size else 0.0
        if observed > self.ranges.get(self.key, 0.0):
            self.ranges[self.key] = observed
        return self.inner(x)


def _linear_sites(encoder) -> list[tuple[object, str, str]]:
    """``(owner, attribute, prefix)`` for every linear in the encoder."""
    sites = [(encoder, "token", "token")]
    for index, layer in enumerate(encoder.layers):
        prefix = f"layers.{index}"
        sites += [(layer, part, f"{prefix}.{part}")
                  for part in ("q", "k", "v", "out", "ff1", "ff2")]
    return sites


def record_range(ranges: dict[str, float], key: str, x: np.ndarray) -> None:
    """Fold one observed input into the calibration ranges."""
    observed = float(np.abs(x).max()) if x.size else 0.0
    if observed > ranges.get(key, 0.0):
        ranges[key] = observed


def observe_activation_ranges(encoder, batches, post=None) -> dict[str, float]:
    """Run ``batches`` of patched input through ``encoder`` with every
    linear observed; returns ``prefix -> input absmax``.

    ``post(z, ranges)`` (optional) runs on each forward's output — the
    predictive head and the student projections live outside the encoder
    stack, so the caller records their input ranges there via
    :func:`record_range`.
    """
    ranges: dict[str, float] = {}
    sites = _linear_sites(encoder)
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in sites]
    try:
        for (owner, attr, prefix), (_, _, inner) in zip(sites, originals):
            setattr(owner, attr, ActivationObserver(inner, ranges, prefix))
        for batch in batches:
            z = encoder(batch)
            if post is not None:
                post(z, ranges)
    finally:
        for owner, attr, inner in originals:
            setattr(owner, attr, inner)
    return ranges


def plan_quantization(arrays: dict[str, np.ndarray], structure: dict,
                      act_ranges: dict[str, float],
                      error_budget: float = 1.0
                      ) -> tuple[dict[str, np.ndarray],
                                 list[LayerQuantization]]:
    """Apply int8 quantization to every linear within the error budget.

    Returns a new arrays dict (int8 ``.weight`` + ``.scale`` entries for
    quantized layers, untouched fp32 entries otherwise) plus the
    per-layer decision log.
    """
    if error_budget <= 0:
        raise ValueError(f"error_budget must be > 0, got {error_budget}")
    out = dict(arrays)
    decisions: list[LayerQuantization] = []
    for prefix in linear_prefixes(structure):
        weight = arrays[f"{prefix}.weight"]
        q, scale, max_err = quantize_weight(weight)
        act_absmax = float(act_ranges.get(prefix, 0.0))
        predicted = (act_absmax * float(scale.max()) / 2.0
                     * float(np.sqrt(weight.shape[1])))
        quantized = predicted <= error_budget
        if quantized:
            out[f"{prefix}.weight"] = q
            out[f"{prefix}.scale"] = scale
            reason = "quantized"
        else:
            reason = (f"over error budget ({predicted:.4g} > "
                      f"{error_budget:.4g}); kept fp32")
        decisions.append(LayerQuantization(
            name=prefix, quantized=quantized,
            weight_max_abs_err=max_err, scale_max=float(scale.max()),
            act_absmax=act_absmax, predicted_output_err=float(predicted),
            reason=reason))
    return out, decisions
