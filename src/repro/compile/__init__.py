"""``repro.compile`` — the quantized + distilled fast inference path.

Turns a pre-trained checkpoint into a packed, checksummed inference
artifact (ROADMAP item 3 / ISSUE 10):

* **pre-packing** — transposed, contiguous (optionally QKV-fused)
  weight layouts consumed by the same encoder-layer forward that
  training runs (:mod:`repro.nn.encoder_layer`); the fp32 exact path is
  bit-identical to the model's ``no_grad`` forward;
* **quantization** — per-channel symmetric int8 with activation-range
  calibration from a data spec and a strict ``max_abs_diff`` report;
* **distillation** — an optional smaller student trained against the
  frozen teacher's dual-level embeddings with the paper's own
  stop-gradient machinery (:mod:`repro.compile.distill`);
* **serving** — :class:`CompiledModel` speaks the ``InferenceAPI``
  protocol; artifacts load straight into the
  :class:`~repro.serve.registry.ModelRegistry` (and therefore behind
  the gateway / ``repro swap``) like any checkpoint.

CLI: ``repro compile <ckpt> [--int8|--fp32] [--distill]
[--calibrate <spec>]``.  Workflow guide: ``docs/inference.md``.
"""

from .artifact import (
    COMPILED_FORMAT_VERSION,
    COMPILED_MAGIC,
    is_compiled_artifact,
    load_compiled,
    save_compiled,
)
from .distill import DistillConfig, DistillResult, StudentModel, run_distillation
from .errors import CompiledArtifactError, CompileError
from .model import CompiledModel
from .packing import (
    COMPILABLE_BACKBONES,
    build_packed_encoder,
    export_model_arrays,
)
from .pipeline import (
    CompileOptions,
    compile_checkpoint,
    compile_model,
    resolve_calibration_spec,
)
from .quantize import LayerQuantization, plan_quantization, quantize_weight

__all__ = [
    "COMPILABLE_BACKBONES",
    "COMPILED_FORMAT_VERSION",
    "COMPILED_MAGIC",
    "CompileError",
    "CompileOptions",
    "CompiledArtifactError",
    "CompiledModel",
    "DistillConfig",
    "DistillResult",
    "LayerQuantization",
    "StudentModel",
    "build_packed_encoder",
    "compile_checkpoint",
    "compile_model",
    "export_model_arrays",
    "is_compiled_artifact",
    "load_compiled",
    "plan_quantization",
    "quantize_weight",
    "run_distillation",
    "save_compiled",
]
