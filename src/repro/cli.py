"""Command-line interface: regenerate any paper table/figure directly.

Examples::

    python -m repro table3 --datasets ETTh1 Exchange --scale smoke
    python -m repro table5 --scale default --output results/
    python -m repro fig6 --scale smoke
    python -m repro profile --steps 20 --sort-by self_s
    python -m repro pretrain --synthetic 2048 --epochs 2 --workers 2
    python -m repro finetune --from results/ckpt --dataset ETTh1
    python -m repro transfer --source ETTh1 --target ETTh2 --scale smoke
    python -m repro table3 --datasets ETTh1 --checkpoint results/ckpt --resume
    python -m repro serve --checkpoint results/ckpt/ETTh1 --repeats 2 --report report.json
    python -m repro data build --tier smallest --root results/data
    python -m repro data info results/data/smallest
    python -m repro data verify results/data/smallest
    python -m repro runs list
    python -m repro runs show 20260806-120301-a1b2c3 --svg losses.svg
    python -m repro runs resume 20260806-120301-a1b2c3
    python -m repro runs diff <run_a> <run_b>
    python -m repro list
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from .experiments import (
    augmentation_ablation,
    backbone_ablation,
    classification_table,
    forecasting_table,
    get_scale,
    lambda_sensitivity,
    pooling_ablation,
    semi_supervised_classification,
    semi_supervised_forecasting,
    stop_gradient_ablation,
    training_time_table,
)
from .telemetry import (
    NULL_RUN,
    Run,
    console_log,
    diff_runs,
    find_run,
    list_runs,
    loss_curve_svg,
    tail_events,
)

__all__ = ["main", "build_parser", "EXPERIMENTS"]

_FORECAST_DATASETS = ("ETTh1", "ETTh2", "ETTm1", "ETTm2", "Exchange", "Weather")
_CLASS_DATASETS = ("FingerMovements", "PenDigits", "HAR", "Epilepsy", "WISDM")
_DEFAULT_RUN_ROOT = pathlib.Path("results/runs")


def _checkpoint_from_args(args):
    """Build a CheckpointConfig from ``--checkpoint``/``--resume`` flags
    (``None`` when neither is given — checkpointing stays off)."""
    from .checkpoint import CheckpointConfig

    directory = getattr(args, "checkpoint", None)
    resume = bool(getattr(args, "resume", False))
    if directory is None and not resume:
        return None
    return CheckpointConfig(directory=str(directory) if directory else None,
                            resume=resume)


def _runtime_from_args(args):
    """Fold the CLI's runtime flags into the shared RuntimeOptions bundle
    every driver accepts (telemetry run creation stays in ``main``, which
    owns the Run object's lifecycle)."""
    from .core import RuntimeOptions

    return RuntimeOptions(
        telemetry=bool(getattr(args, "telemetry", False)),
        run_root=str(getattr(args, "run_root", _DEFAULT_RUN_ROOT)),
        checkpoint=_checkpoint_from_args(args))


def _run_table3(args, preset, run=NULL_RUN):
    return forecasting_table(datasets=tuple(args.datasets or _FORECAST_DATASETS),
                             univariate=False, preset=preset, seed=args.seed,
                             run=run, runtime=_runtime_from_args(args))


def _run_table4(args, preset, run=NULL_RUN):
    return forecasting_table(datasets=tuple(args.datasets or _FORECAST_DATASETS),
                             univariate=True, preset=preset, seed=args.seed,
                             run=run, runtime=_runtime_from_args(args))


def _run_table5(args, preset, run=NULL_RUN):
    return classification_table(datasets=tuple(args.datasets or _CLASS_DATASETS),
                                preset=preset, seed=args.seed, run=run,
                                runtime=_runtime_from_args(args))


def _run_table6(args, preset, run=NULL_RUN):
    return augmentation_ablation(datasets=tuple(args.datasets or ("ETTh1", "Exchange")),
                                 preset=preset, seed=args.seed)


def _run_table7(args, preset, run=NULL_RUN):
    return pooling_ablation(datasets=tuple(args.datasets or ("FingerMovements", "Epilepsy")),
                            preset=preset, seed=args.seed)


def _run_table8(args, preset, run=NULL_RUN):
    return backbone_ablation(datasets=tuple(args.datasets or ("ETTh1", "Exchange")),
                             preset=preset, seed=args.seed)


def _run_table9(args, preset, run=NULL_RUN):
    return stop_gradient_ablation(
        datasets=tuple(args.datasets or ("FingerMovements", "Epilepsy")),
        preset=preset, seed=args.seed)


def _run_fig4(args, preset, run=NULL_RUN):
    return training_time_table(datasets=tuple(args.datasets or ("ETTh1", "Exchange")),
                               preset=preset, seed=args.seed)


def _run_fig5(args, preset, run=NULL_RUN):
    return {
        "forecasting": semi_supervised_forecasting(
            datasets=tuple(args.datasets or ("ETTh1",)), preset=preset,
            seed=args.seed, run=run),
        "classification": semi_supervised_classification(
            datasets=("Epilepsy",), preset=preset, seed=args.seed, run=run),
    }


def _run_fig6(args, preset, run=NULL_RUN):
    return lambda_sensitivity(preset=preset, seed=args.seed)


EXPERIMENTS = {
    "table3": (_run_table3, "Table III: multivariate forecasting linear evaluation"),
    "table4": (_run_table4, "Table IV: univariate forecasting linear evaluation"),
    "table5": (_run_table5, "Table V: classification linear evaluation"),
    "table6": (_run_table6, "Table VI: data-augmentation ablation"),
    "table7": (_run_table7, "Table VII: pooling-method ablation"),
    "table8": (_run_table8, "Table VIII: backbone-encoder ablation"),
    "table9": (_run_table9, "Table IX: stop-gradient ablation"),
    "fig4": (_run_fig4, "Fig. 4: pre-training wall-clock comparison"),
    "fig5": (_run_fig5, "Fig. 5: semi-supervised learning curves"),
    "fig6": (_run_fig6, "Fig. 6: lambda sensitivity"),
}


def _run_profile_inference(args) -> int:
    """``repro profile --no-grad`` — profile the inference forward only.

    ``--compiled [fp32|int8]`` profiles the packed artifact instead of
    the model's own forward; both run the same encoder-layer kernel, so
    its rows (``packed.*``) line up with the ``encoder_layer.*`` rows
    (see docs/inference.md).
    """
    import time

    import numpy as np

    from .core.config import TimeDRLConfig
    from .core.model import TimeDRL
    from .nn import no_grad, profiler
    from .utils.training import format_profile

    model_config = TimeDRLConfig(seq_len=args.seq_len,
                                 input_channels=args.channels, seed=args.seed)
    model = TimeDRL(model_config)
    model.eval()
    rng = np.random.default_rng(args.seed)
    batch = rng.standard_normal(
        (args.batch_size, args.seq_len, args.channels)).astype(np.float32)
    if args.compiled is not None:
        from .compile import CompileOptions, compile_model

        target, __ = compile_model(
            model, CompileOptions(precision=args.compiled), calibration=batch)
        label = f"compiled {target.kind}"
        encode = target.encode
    else:
        label = "no_grad"

        def encode(x):
            with no_grad():
                return model.encode(x)

    started = time.perf_counter()
    with profiler.profile() as prof:
        for __ in range(args.steps):
            encode(batch)
    elapsed = time.perf_counter() - started
    console_log(f"profiled {args.steps} {label} encode passes "
                f"(batch={args.batch_size}, T={args.seq_len}, "
                f"C={args.channels}) in {elapsed:.3f}s")
    stats = prof.snapshot()
    console_log(format_profile(stats, sort_by=args.sort_by, limit=args.limit))
    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(json.dumps(stats, indent=2) + "\n")
        console_log(f"wrote {args.output}")
    return 0


def _run_profile(args) -> int:
    """``repro profile`` — op-level profile of a short pre-training run."""
    import numpy as np

    from .core.config import PretrainConfig, TimeDRLConfig
    from .core.pretrain import run_pretrain
    from .utils.training import format_profile

    if args.no_grad or args.compiled is not None:
        return _run_profile_inference(args)
    model_config = TimeDRLConfig(seq_len=args.seq_len, input_channels=args.channels,
                                 seed=args.seed)
    train_config = PretrainConfig(epochs=1, batch_size=args.batch_size,
                                  max_batches_per_epoch=args.steps,
                                  profile=True, seed=args.seed)
    rng = np.random.default_rng(args.seed)
    samples = rng.standard_normal(
        (args.steps * args.batch_size, args.seq_len, args.channels)).astype(np.float32)
    result = run_pretrain(model_config, samples, train_config)
    console_log(f"profiled {args.steps} pre-training steps "
                f"(batch={args.batch_size}, T={args.seq_len}, C={args.channels}) "
                f"in {result.wall_clock_seconds:.3f}s")
    console_log(format_profile(result.profile, sort_by=args.sort_by, limit=args.limit))
    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(json.dumps(result.profile, indent=2) + "\n")
        console_log(f"wrote {args.output}")
    return 0


# ----------------------------------------------------------------------
# ``repro compile`` — checkpoint → packed (int8/fp32) serving artifact
# ----------------------------------------------------------------------
def _run_compile(args) -> int:
    """``repro compile`` — quantize/distill a checkpoint into a compiled
    artifact servable behind a registry alias (exit 4 when the measured
    drift exceeds ``--max-abs-diff``)."""
    from .checkpoint.manager import CheckpointError
    from .compile import (
        CompileError,
        CompileOptions,
        DistillConfig,
        compile_checkpoint,
    )

    options = CompileOptions(
        precision="fp32" if args.fp32 else "int8",
        exact_gelu=True if args.exact_gelu else None,
        error_budget=args.layer_error_budget)
    distill = None
    if args.distill:
        distill = DistillConfig(
            d_model=args.student_d_model,
            num_layers=args.student_layers,
            num_heads=args.student_heads,
            epochs=args.distill_epochs,
            batch_size=args.distill_batch_size,
            learning_rate=args.distill_lr,
            seed=args.seed)
    try:
        path, compiled, report = compile_checkpoint(
            args.source, options,
            calibrate=args.calibrate,
            calibration_windows=args.windows,
            distill=distill,
            output=args.output,
            run_root=str(args.run_root),
            seed=args.seed,
            log=console_log)
    except (CompileError, CheckpointError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    console_log(f"compiled {compiled.kind} artifact: {path} "
                f"({report['artifact_bytes']} bytes, "
                f"fingerprint={compiled.fingerprint[:12]})")
    console_log(f"quantized {report['quantized_layers']}/"
                f"{report['total_layers']} linear layers "
                f"(calibration: {report['calibration_windows']} windows)")
    for decision in report["layers"]:
        if not decision["quantized"]:
            console_log(f"  kept fp32: {decision['name']} "
                        f"({decision['reason']})")
    diff = report.get("max_abs_diff")
    if diff is not None:
        console_log("max_abs_diff vs fp reference: "
                    f"timestamp={diff['timestamp']:.3g} "
                    f"instance={diff['instance']:.3g} "
                    f"scores={diff['scores']:.3g}")
    if report.get("distill_history"):
        losses = ", ".join(f"{epoch['total']:.4f}"
                           for epoch in report["distill_history"])
        console_log(f"distillation loss per epoch: {losses}")
    if args.report is not None:
        args.report.parent.mkdir(parents=True, exist_ok=True)
        args.report.write_text(json.dumps(report, indent=2) + "\n")
        console_log(f"wrote {args.report}")
    if args.max_abs_diff > 0 and diff is not None:
        worst = max(diff["timestamp"], diff["instance"])
        if worst > args.max_abs_diff:
            console_log(f"tolerance gate FAILED: embedding drift {worst:.3g} "
                        f"> --max-abs-diff {args.max_abs_diff:.3g} "
                        f"(artifact kept at {path} for inspection)")
            return 4
        console_log(f"tolerance gate passed: {worst:.3g} <= "
                    f"{args.max_abs_diff:.3g}")
    return 0


# ----------------------------------------------------------------------
# ``repro pretrain|finetune|transfer`` — the unified training driver
# ----------------------------------------------------------------------
def _add_training_flags(parser, workers_help="data-parallel pre-training "
                                             "workers (1 = in-process)"):
    """The normalized training flag set.

    Every training-capable subcommand (``pretrain``, ``finetune``,
    ``transfer``) spells and defaults these identically — locked by
    ``tests/train/test_cli_flags.py``.  ``serve`` shares the
    ``--telemetry``/``--run-root`` pair."""
    parser.add_argument("--checkpoint", type=pathlib.Path, default=None,
                        metavar="DIR",
                        help="checkpoint training state under DIR")
    parser.add_argument("--resume", action="store_true",
                        help="resume from the newest valid checkpoint "
                             "under --checkpoint")
    parser.add_argument("--telemetry", action="store_true",
                        help="record the session as a telemetry run")
    parser.add_argument("--run-root", type=pathlib.Path,
                        default=_DEFAULT_RUN_ROOT,
                        help="where --telemetry writes the run directory")
    parser.add_argument("--prefetch", action="store_true",
                        help="stage batches through a background prefetch "
                             "loader")
    parser.add_argument("--workers", type=int, default=1, help=workers_help)


def _training_options(args, **extra):
    """:class:`repro.train.TrainOptions` from the normalized flags.

    Absent flags map to ``None`` ("no opinion"), so facade defaults and
    checkpoint metadata stay authoritative."""
    from .train import TrainOptions

    workers = getattr(args, "workers", 1)
    return TrainOptions(
        checkpoint=_checkpoint_from_args(args),
        telemetry=True if args.telemetry else None,
        prefetch=True if getattr(args, "prefetch", False) else None,
        run_root=str(args.run_root) if args.telemetry else None,
        distributed=workers if workers and workers > 1 else None,
        **extra)


def _pretrain_overrides(args) -> dict:
    """PretrainConfig overrides from the optimisation flags (only the
    flags actually given — driver defaults stay authoritative)."""
    overrides = {"seed": args.seed}
    if args.epochs is not None:
        overrides["epochs"] = args.epochs
    if args.batch_size is not None:
        overrides["batch_size"] = args.batch_size
    if args.lr is not None:
        overrides["learning_rate"] = args.lr
    if getattr(args, "max_batches", None) is not None:
        overrides["max_batches_per_epoch"] = args.max_batches
    return overrides


def _run_pretrain_cmd(args) -> int:
    """``repro pretrain`` — self-supervised pre-training through
    :class:`repro.train.TrainSession`, optionally data-parallel."""
    import numpy as np

    from .core.config import PretrainConfig, TimeDRLConfig
    from .data import resolve_data_source, synthetic_windows_spec
    from .train import TrainSession

    if (args.data is None) == (not args.synthetic):
        print("error: pass exactly one of --data or --synthetic N",
              file=sys.stderr)
        return 1
    if args.data is not None:
        if args.data.is_file():
            payload = np.load(args.data)
            data = (payload if isinstance(payload, np.ndarray)
                    else payload[list(payload.keys())[0]])
        else:
            data = args.data  # store directory: opened by the driver
        probe = resolve_data_source(data)
        sample = (probe.batch(np.array([0])) if hasattr(probe, "batch")
                  else np.asarray(probe)[:1])
        __, seq_len, channels = sample.shape
        if hasattr(probe, "close") and probe is not data:
            probe.close()
    else:
        seq_len, channels = args.seq_len, args.channels
        data = synthetic_windows_spec(windows=args.synthetic,
                                      seq_len=seq_len, channels=channels,
                                      seed=args.seed)
    model_config = TimeDRLConfig(
        seq_len=seq_len, input_channels=channels, patch_len=args.patch_len,
        stride=args.patch_len, d_model=args.d_model,
        num_layers=args.num_layers, num_heads=args.num_heads,
        dropout=args.dropout, enable_contrastive=not args.no_contrastive,
        channel_independence=args.channel_independence, seed=args.seed)
    options = _training_options(args)
    options.pretrain = PretrainConfig(**_pretrain_overrides(args))
    result = TrainSession(model_config).pretrain(data, options=options)
    console_log(f"pre-trained {len(result.history)} epoch(s) in "
                f"{result.wall_clock_seconds:.2f}s "
                f"(world_size={result.world_size}, "
                f"restarts={result.worker_restarts}) "
                f"final_total={result.final_loss:.6f}")
    if result.run_id is not None:
        console_log(f"recorded run {result.run_id}")
    if args.history_json is not None:
        args.history_json.parent.mkdir(parents=True, exist_ok=True)
        args.history_json.write_text(json.dumps(
            {"history": result.history,
             "world_size": result.world_size,
             "worker_restarts": result.worker_restarts,
             "wall_clock_seconds": result.wall_clock_seconds},
            indent=2) + "\n")
        console_log(f"wrote {args.history_json}")
    return 0


def _run_finetune_cmd(args) -> int:
    """``repro finetune`` — fine-tune a (pre-trained or fresh) model on a
    named dataset through :class:`repro.train.TrainSession`."""
    from .data import CLASSIFICATION_DATASETS, FORECASTING_DATASETS
    from .experiments import get_scale
    from .train import TrainSession

    preset = get_scale(args.scale)
    if args.dataset in FORECASTING_DATASETS:
        from .experiments.forecasting import (
            prepare_forecasting_data,
            timedrl_config_for,
        )

        task = "forecasting"
        prepared = prepare_forecasting_data(args.dataset, preset,
                                            seed=args.seed)
        horizon = min(prepared["horizons"])
        data = prepared["horizons"][horizon]
        config = timedrl_config_for(prepared["n_features"], preset,
                                    seed=args.seed)
    elif args.dataset in CLASSIFICATION_DATASETS:
        from .experiments.classification import (
            prepare_classification_data,
            timedrl_classification_config,
        )

        task = "classification"
        data = prepare_classification_data(args.dataset, preset,
                                           seed=args.seed)
        config = timedrl_classification_config(args.dataset, preset,
                                               seed=args.seed)
    else:
        known = ", ".join((*FORECASTING_DATASETS, *CLASSIFICATION_DATASETS))
        print(f"error: unknown dataset {args.dataset!r} (known: {known})",
              file=sys.stderr)
        return 1
    if args.workers > 1:
        console_log("note: fine-tuning is single-process; --workers applies "
                    "to pre-training only")
    options = _training_options(
        args, label_fraction=args.label_fraction, epochs=args.epochs,
        batch_size=args.batch_size, learning_rate=args.lr, seed=args.seed)
    options.distributed = None
    if args.source_checkpoint is not None:
        session = TrainSession.from_checkpoint(args.source_checkpoint,
                                               options=options)
        loaded = session.model_config
        if (task == "forecasting" and not loaded.channel_independence
                and prepared["n_features"] > 1):
            print(f"error: checkpoint {args.source_checkpoint} was "
                  f"pre-trained without channel independence; its "
                  f"channel-mixing head cannot forecast the "
                  f"{prepared['n_features']}-variate {args.dataset} "
                  f"(re-run `repro pretrain` with --channel-independence)",
                  file=sys.stderr)
            return 1
    else:
        session = TrainSession(config, options=options)
    result = session.finetune(data, task=task)
    if task == "forecasting":
        console_log(f"finetune complete ({args.dataset}, horizon={horizon}): "
                    f"mse={result.mse:.4f} mae={result.mae:.4f}")
    else:
        console_log(f"finetune complete ({args.dataset}): "
                    f"accuracy={result.accuracy:.2f} "
                    f"macro_f1={result.macro_f1:.2f}")
    return 0


def _run_transfer_cmd(args) -> int:
    """``repro transfer`` — pre-train on one forecasting dataset, probe the
    frozen encoder on another (:meth:`TrainSession.transfer`)."""
    from .core.config import PretrainConfig
    from .experiments import get_scale
    from .experiments.forecasting import (
        prepare_forecasting_data,
        timedrl_config_for,
    )
    from .train import TrainSession

    preset = get_scale(args.scale)
    source = prepare_forecasting_data(args.source, preset, seed=args.seed)
    target = prepare_forecasting_data(args.target, preset, seed=args.seed)
    horizon = min(set(source["horizons"]) & set(target["horizons"]))
    config = timedrl_config_for(source["n_features"], preset, seed=args.seed)
    options = _training_options(args, alpha=args.alpha, seed=args.seed)
    options.pretrain = PretrainConfig(**_pretrain_overrides(args))
    session = TrainSession(config, options=options)
    result = session.transfer(source["horizons"][horizon],
                              target["horizons"][horizon])
    console_log(f"transfer {args.source} -> {args.target} "
                f"(horizon={horizon}): "
                f"transfer_mse={result.transfer_mse:.4f} "
                f"in_domain_mse={result.in_domain_mse:.4f} "
                f"random_mse={result.random_mse:.4f} "
                f"gap_retained={result.transfer_gap:.3f}")
    return 0


# ----------------------------------------------------------------------
# ``repro serve`` — batch inference from a checkpoint
# ----------------------------------------------------------------------
def _serve_load_input(args, loaded):
    """Resolve the serving workload: an ``.npz``/``.npy`` file, synthetic
    windows, or (default) the dataset recorded in the checkpoint's own
    data spec — the checkpoint → serving handoff."""
    import numpy as np

    if args.input is not None:
        payload = np.load(args.input)
        if isinstance(payload, np.ndarray):
            windows = payload
        else:
            key = next((k for k in ("windows", "x") if k in payload.files),
                       payload.files[0] if payload.files else None)
            if key is None:
                raise ValueError(f"{args.input} contains no arrays")
            windows = payload[key]
    elif args.synthetic:
        rng = np.random.default_rng(args.seed)
        windows = rng.standard_normal(
            (args.synthetic, loaded.config.seq_len,
             loaded.config.input_channels)).astype(np.float32)
    else:
        from .data import materialize_data_spec
        from .data.datasets import ForecastingWindows

        spec = loaded.data_spec
        if not spec:
            raise ValueError(
                "checkpoint carries no data spec; pass --input FILE.npz or "
                "--synthetic N to provide a workload")
        data = materialize_data_spec(spec)
        if isinstance(data, ForecastingWindows):
            count = min(len(data), args.limit or len(data))
            windows, __ = data.batch(np.arange(count))
        else:
            windows = np.asarray(data)
    if args.limit:
        windows = windows[:args.limit]
    if windows.ndim != 3:
        raise ValueError(f"workload must be (N, T, C) windows, got shape "
                         f"{windows.shape}")
    return np.ascontiguousarray(windows, dtype=np.float32)


def _parse_tenants(specs):
    """``name[:weight[:rate[:burst]]]`` strings -> TenantConfig tuple."""
    import math

    from .serve import TenantConfig

    tenants = []
    for spec in specs:
        parts = spec.split(":")
        if not parts[0]:
            raise ValueError(f"tenant spec {spec!r} has an empty name")
        weight = float(parts[1]) if len(parts) > 1 and parts[1] else 1.0
        rate = float(parts[2]) if len(parts) > 2 and parts[2] else math.inf
        burst = float(parts[3]) if len(parts) > 3 and parts[3] else (
            rate if math.isfinite(rate) else math.inf)
        tenants.append(TenantConfig(name=parts[0], weight=weight,
                                    rate=rate, burst=burst))
    return tuple(tenants)


def _run_serve_gateway(args, run) -> int:
    """``repro serve --gateway`` — the workload through the resilient
    multi-tenant front door (admission, deadlines, breaker)."""
    from .serve import (BatchingConfig, DeadlineExceeded, GatewayConfig,
                        ModelRegistry, RegistryError, RetryableError,
                        ServingGateway)

    try:
        registry = ModelRegistry(run=run)
        registry.load(str(args.checkpoint), alias="serving",
                      run_root=str(args.run_root))
        tenants = (_parse_tenants(args.tenant) if args.tenant
                   else _parse_tenants(["default"]))
        gateway = ServingGateway(registry, "serving", GatewayConfig(
            tenants=tenants,
            max_queue_windows=args.queue_windows,
            default_deadline_ms=args.deadline_ms or None,
            stale_ok=args.stale_ok,
            batching=BatchingConfig(max_batch_size=args.batch_size,
                                    max_wait_ms=args.max_wait_ms),
            cache_size=args.cache_size))
        windows = _serve_load_input(args, gateway.loaded)
    except (RegistryError, ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        if run is not None:
            run.finish(status="failed")
        return 1
    names = [tenant.name for tenant in tenants]
    console_log(f"gateway serving {len(windows)} windows x{args.repeats} "
                f"(tenants={','.join(names)}, queue budget "
                f"{args.queue_windows} windows, "
                f"deadline={args.deadline_ms or 'none'}ms, "
                f"stale_ok={args.stale_ok}) "
                f"[{gateway.fingerprint[:12]}]")
    size = max(1, args.request_size)
    served = rejected = 0
    with gateway:
        for _ in range(args.repeats):
            pending = []
            for start in range(0, len(windows), size):
                tenant = names[(start // size) % len(names)]
                x = windows[start:start + size]
                try:
                    pending.append(gateway.submit(x, args.mode,
                                                  tenant=tenant))
                except (RetryableError, DeadlineExceeded):
                    # Behave like a well-mannered client: drain the
                    # admitted backlog, then retry once.
                    gateway.flush()
                    try:
                        pending.append(gateway.submit(x, args.mode,
                                                      tenant=tenant))
                    except (RetryableError, DeadlineExceeded):
                        rejected += 1
            gateway.flush()
            for request in pending:
                try:
                    request.result(0.0)
                    served += 1
                except (RetryableError, DeadlineExceeded):
                    rejected += 1
        report = gateway.report()
    console_log(f"served {served} requests, shed {rejected} "
                f"({report['shed']}) — admitted per tenant "
                f"{report['admission']['admitted']}")
    latency = report["latency"][args.mode]
    if latency["count"]:
        console_log(f"latency per request: p50={latency['p50_ms']:.2f}ms "
                    f"p95={latency['p95_ms']:.2f}ms over "
                    f"{latency['count']} requests")
    if args.report is not None:
        args.report.parent.mkdir(parents=True, exist_ok=True)
        args.report.write_text(json.dumps(report, indent=2, sort_keys=True)
                               + "\n")
        console_log(f"wrote {args.report}")
    if args.obs_export is not None:
        from . import obs

        args.obs_export.parent.mkdir(parents=True, exist_ok=True)
        args.obs_export.write_text(obs.prometheus_text(obs.get_registry()))
        console_log(f"wrote {args.obs_export}")
    if run is not None:
        run.finish(status="completed")
        console_log(f"recorded run {run.run_id} under {args.run_root}")
    return 0


def _run_serve(args) -> int:
    """``repro serve`` — serve embeddings/predictions from a checkpoint."""
    import numpy as np

    from .serve import InferenceService, RegistryError, ServiceConfig

    if args.obs:
        from . import obs
        obs.enable()
    run = None
    if args.telemetry:
        run = Run.create(root=args.run_root, name="serve",
                         tags={"mode": args.mode,
                               "checkpoint": str(args.checkpoint),
                               "gateway": bool(args.gateway)})
    if args.gateway:
        return _run_serve_gateway(args, run)
    config = ServiceConfig(max_batch_size=args.batch_size,
                           max_wait_ms=args.max_wait_ms,
                           cache_size=args.cache_size)
    try:
        service = InferenceService.from_checkpoint(
            str(args.checkpoint), config, run=run, run_root=args.run_root)
        windows = _serve_load_input(args, service.loaded)
        console_log(
            f"serving {len(windows)} windows x{args.repeats} "
            f"(mode={args.mode}, batch={args.batch_size}, "
            f"cache={args.cache_size}) from {service.loaded.source} "
            f"[{service.loaded.fingerprint[:12]}]")
        result = None
        for __ in range(args.repeats):
            result = service.serve_windows(windows, mode=args.mode,
                                           request_size=args.request_size)
    except (RegistryError, ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        if run is not None:
            run.finish(status="failed")
        return 1

    report = service.report()
    throughput = report["throughput"]
    latency = report["latency_ms"][args.mode]
    console_log(f"served {throughput['windows']} windows in "
                f"{throughput['elapsed_s']:.3f}s "
                f"({throughput['windows_per_s']:.0f} windows/s)")
    console_log(f"latency per request: p50={latency['p50_ms']:.2f}ms "
                f"p95={latency['p95_ms']:.2f}ms over {latency['count']} "
                f"requests in {report['engine']['batches_run']} micro-batches")
    if "cache" in report:
        cache = report["cache"]
        console_log(f"cache: {cache['hits']} hits / {cache['misses']} misses "
                    f"(hit rate {cache['hit_rate']:.1%}, "
                    f"{cache['evictions']} evictions)")

    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        if args.mode == "encode":
            timestamp, instance = result
            np.savez_compressed(args.output, timestamp=timestamp,
                                instance=instance)
        else:
            np.savez_compressed(args.output, prediction=result)
        console_log(f"wrote {args.output}")
    if args.report is not None:
        args.report.parent.mkdir(parents=True, exist_ok=True)
        args.report.write_text(json.dumps(report, indent=2, sort_keys=True)
                               + "\n")
        console_log(f"wrote {args.report}")
    if args.obs_export is not None:
        from . import obs

        args.obs_export.parent.mkdir(parents=True, exist_ok=True)
        args.obs_export.write_text(obs.prometheus_text(obs.get_registry()))
        console_log(f"wrote {args.obs_export}")
    if run is not None:
        run.finish(status="completed")
        console_log(f"recorded run {run.run_id} under {args.run_root}")
    return 0


# ----------------------------------------------------------------------
# ``repro swap`` — zero-downtime rolling model swap
# ----------------------------------------------------------------------
def _run_swap(args) -> int:
    """Shadow-validate ``--candidate`` on live traffic and flip the alias.

    Exit codes: 0 the candidate was promoted, 4 it was rolled back
    (shadow validation failed), 1 anything else went wrong.
    """
    import numpy as np

    from .serve import (GatewayConfig, ModelRegistry, RegistryError,
                        ServingGateway, SwapConfig, SwapFailed)

    run = None
    if args.telemetry:
        run = Run.create(root=args.run_root, name="swap",
                         tags={"checkpoint": str(args.checkpoint),
                               "candidate": str(args.candidate)})
    try:
        registry = ModelRegistry(run=run)
        registry.load(str(args.checkpoint), alias="serving",
                      run_root=str(args.run_root))
        gateway = ServingGateway(registry, "serving", GatewayConfig(),
                                 run=run)
        config = SwapConfig(shadow_requests=args.shadow_requests,
                            latency_budget_ms=args.latency_budget_ms,
                            max_abs_diff=args.max_abs_diff)
        console_log(f"serving {gateway.fingerprint[:12]} — shadowing "
                    f"candidate {args.candidate} over "
                    f"{config.shadow_requests} mirrored requests "
                    f"(budget {config.latency_budget_ms:.0f}ms, "
                    f"tolerance {config.max_abs_diff})")
        with gateway:
            handle = gateway.begin_swap(str(args.candidate), config,
                                        run_root=str(args.run_root))
            # Drive live traffic so there is something to mirror.  Each
            # request both serves the caller and feeds one shadow verdict.
            loaded = gateway.loaded
            rng = np.random.default_rng(args.seed)
            size = max(1, args.request_size)
            requests = max(args.traffic // size if args.traffic else 0,
                           config.shadow_requests + 2)
            for index in range(requests):
                x = rng.standard_normal(
                    (size, loaded.config.seq_len,
                     loaded.config.input_channels)).astype(np.float32)
                if args.mode == "encode":
                    gateway.encode(x)
                else:
                    gateway.predict(x)
                if handle.done():
                    break
            if not handle.done():
                gateway.abort_swap()
            report = handle.wait(60.0)
    except (RegistryError, SwapFailed, ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        if run is not None:
            run.finish(status="failed")
        return 1
    shadow = report["shadow"]
    console_log(f"shadow verdicts: {shadow['passed']} passed, "
                f"{shadow['failed']} failed of {shadow['mirrored']} "
                f"mirrored (max |diff| {shadow['max_abs_diff']:.3g}, "
                f"max latency {shadow['max_latency_ms']:.2f}ms)")
    console_log(f"{report['outcome']}: serving "
                f"{report['serving_fingerprint'][:12]} "
                f"(was {report['previous_fingerprint'][:12]}, candidate "
                f"{report['candidate_fingerprint'][:12]})")
    if args.report is not None:
        args.report.parent.mkdir(parents=True, exist_ok=True)
        args.report.write_text(json.dumps(report, indent=2, sort_keys=True)
                               + "\n")
        console_log(f"wrote {args.report}")
    if run is not None:
        run.finish(status="completed")
        console_log(f"recorded run {run.run_id} under {args.run_root}")
    return 0 if report["outcome"] == "promoted" else 4


# ----------------------------------------------------------------------
# ``repro obs`` — metrics snapshot / export / live dashboard
# ----------------------------------------------------------------------
def _obs_service(args, run=None):
    """Optionally stand up an InferenceService for a synthetic workload.

    Returns ``(service, windows)`` or ``(None, None)`` when no checkpoint
    was given — the obs commands then report whatever the process has
    already collected (resource gauges at minimum).
    """
    import numpy as np

    from .serve import InferenceService, ServiceConfig

    if args.checkpoint is None:
        return None, None
    service = InferenceService.from_checkpoint(
        str(args.checkpoint), ServiceConfig(), run=run,
        run_root=str(_DEFAULT_RUN_ROOT))
    rng = np.random.default_rng(args.seed)
    count = args.synthetic or 16
    windows = rng.standard_normal(
        (count, service.loaded.config.seq_len,
         service.loaded.config.input_channels)).astype(np.float32)
    return service, windows


def _obs_slo_rules(args):
    from . import obs

    if not args.slo:
        return None
    return obs.SloRules(args.slo)


def _run_obs(args) -> int:
    """``repro obs snapshot|export|watch`` — the observability CLI."""
    import time as _time

    from . import obs
    from .serve import RegistryError

    obs.enable()
    sampler = obs.ResourceSampler(interval=max(args.interval / 2, 0.1))
    try:
        rules = _obs_slo_rules(args)
    except obs.SloParseError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    try:
        service, windows = _obs_service(args)
    except (RegistryError, ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    def tick():
        if service is not None:
            service.serve_windows(windows, mode="encode",
                                  request_size=args.request_size)
            if service.cache is not None:
                service.cache.stats()  # refreshes the hit-rate gauge
        sampler.sample_once()

    registry = obs.get_registry()
    if args.obs_command == "export":
        tick()
        if args.format == "prometheus":
            text = obs.prometheus_text(registry)
        else:
            text = json.dumps(obs.json_snapshot(registry), indent=2,
                              sort_keys=True) + "\n"
        if args.output is not None:
            args.output.parent.mkdir(parents=True, exist_ok=True)
            args.output.write_text(text)
            console_log(f"wrote {args.output}")
        else:
            print(text, end="")
        return _obs_verdict(rules, registry)

    if args.obs_command == "snapshot":
        tick()
        if args.output is not None:
            obs.write_json_snapshot(registry, args.output)
            console_log(f"wrote {args.output}")
        dashboard = obs.Dashboard(registry, slo_rules=rules)
        print(dashboard.render())
        return _obs_verdict(rules, registry)

    # watch: live-refreshing terminal dashboard
    dashboard = obs.Dashboard(registry, slo_rules=rules)
    iterations = args.iterations
    rendered = 0
    try:
        while iterations == 0 or rendered < iterations:
            tick()
            frame = dashboard.render()
            if rendered and not args.no_clear:
                # ANSI: home the cursor and clear below, then repaint.
                print("\x1b[H\x1b[J", end="")
            print(frame, flush=True)
            rendered += 1
            if iterations == 0 or rendered < iterations:
                _time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    return _obs_verdict(rules, registry)


def _obs_verdict(rules, registry) -> int:
    """Exit code 0 unless an SLO rule is violated (unknowns don't fail)."""
    if rules is None:
        return 0
    violations = rules.violations(registry)
    for violation in violations:
        print(f"SLO violated: {violation['rule']} "
              f"(value: {violation['value']})", file=sys.stderr)
    return 2 if violations else 0


# ----------------------------------------------------------------------
# ``repro data`` — build/inspect/verify on-disk window stores
# ----------------------------------------------------------------------
def _data_build(args) -> int:
    """``repro data build`` — materialize ladder tiers (or a custom
    synthetic corpus) as sharded on-disk stores."""
    from .data import (DATA_LADDER, build_ladder_tier, build_store,
                       open_store, synthetic_windows_spec)

    built = []
    if args.windows:
        spec = synthetic_windows_spec(args.windows, seq_len=args.seq_len,
                                      channels=args.channels, seed=args.seed)
        root = pathlib.Path(args.root) / "custom"
        built.append(build_store(spec, root, force=args.force))
    else:
        tiers = args.tier or ["smallest"]
        if tiers == ["all"]:
            tiers = list(DATA_LADDER)
        for tier in tiers:
            built.append(build_ladder_tier(
                args.root, tier, seq_len=args.seq_len, channels=args.channels,
                seed=args.seed, scale=args.scale, force=args.force))
    for root in built:
        with open_store(root) as store:
            console_log(f"{root}: {len(store)} windows "
                        f"{store.window_shape} {store.manifest.dtype}, "
                        f"{len(store.manifest.shards)} shard(s), "
                        f"{store.nbytes / 1e6:.1f} MB")
    return 0


def _data_info(args) -> int:
    """``repro data info`` — print a store's manifest summary."""
    from .data import open_store

    with open_store(args.path) as store:
        manifest = store.manifest
        console_log(f"# Store {store.root}")
        console_log(f"{'windows':>12}: {len(store)}")
        console_log(f"{'window shape':>12}: {manifest.window_shape}")
        console_log(f"{'dtype':>12}: {manifest.dtype}")
        console_log(f"{'bytes':>12}: {store.nbytes}")
        console_log(f"{'tier':>12}: {manifest.tier or '—'}")
        console_log(f"{'spec':>12}: {json.dumps(manifest.spec, sort_keys=True)}")
        console_log(f"{'shards':>12}: {len(manifest.shards)} "
                    f"x {manifest.shard_rows} rows (last may be short)")
        for shard in manifest.shards:
            console_log(f"{'':>14}{shard.file}  rows={shard.rows:<8} "
                        f"sha256={shard.sha256[:12]}")
    return 0


def _data_verify(args) -> int:
    """``repro data verify`` — full checksum pass over every shard."""
    from .data import DataValidationError, verify_store

    try:
        manifest = verify_store(args.path)
    except DataValidationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    console_log(f"{args.path}: OK — {manifest.total_windows} windows in "
                f"{len(manifest.shards)} shard(s), all checksums match")
    return 0


_DATA_COMMANDS = {"build": _data_build, "info": _data_info,
                  "verify": _data_verify}


# ----------------------------------------------------------------------
# ``repro runs`` — inspect recorded telemetry runs
# ----------------------------------------------------------------------
def _format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    if value is None:
        return "—"
    return str(value)


def _runs_list(args) -> int:
    summaries = list_runs(args.root)
    if not summaries:
        console_log(f"no runs under {args.root}")
        return 0
    header = f"{'run_id':<36}  {'status':<10}  {'created':<20}  {'final total':>12}  health"
    console_log(header)
    console_log("-" * len(header))
    for summary in summaries:
        final = summary["summary"].get("final_total")
        issues = len(summary["health"])
        console_log(
            f"{summary['run_id']:<36}  {summary['status']:<10}  "
            f"{(summary['created_at'] or '—'):<20}  "
            f"{_format_value(final):>12}  "
            f"{'ok' if not issues else f'{issues} issue(s)'}")
    return 0


_MANIFEST_SHOW_FIELDS = ("run_id", "name", "status", "created_at", "finished_at",
                         "package_version", "seed", "wall_clock_seconds")
_EPOCH_HIDE_KEYS = ("type", "seq", "time")


def _checkpoint_directories(run_dir) -> list[pathlib.Path]:
    """The run's checkpoint directory plus one level of phase/task
    subdirectories (transfer phases, fine-tuning tasks)."""
    root = pathlib.Path(run_dir) / "checkpoints"
    if not root.is_dir():
        return []
    candidates = [root] + sorted(p for p in root.iterdir() if p.is_dir())
    return [p for p in candidates
            if (p / "index.json").is_file() or any(p.glob("ckpt-*.npz"))]


def _show_checkpoints(run_dir) -> None:
    from .checkpoint import CheckpointManager

    root = pathlib.Path(run_dir) / "checkpoints"
    for directory in _checkpoint_directories(run_dir):
        entries = CheckpointManager(directory).inventory()
        if not entries:
            continue
        label = directory.relative_to(root.parent)
        console_log("")
        console_log(f"checkpoints ({label}):")
        last_step = max(entry.step for entry in entries)
        for entry in entries:
            markers = " ".join(name for name, hit in
                               (("best", entry.is_best),
                                ("last", entry.step == last_step)) if hit)
            console_log(
                f"  {entry.path.name}  step={entry.step:<6} "
                f"epoch={entry.epoch:<4} size={entry.size_bytes / 1024:.1f}KiB  "
                f"sha256={entry.sha256[:12]}  {markers}")


def _runs_show(args) -> int:
    run = find_run(args.run_id, args.root)
    console_log(f"# Run {run.run_id}")
    for field in _MANIFEST_SHOW_FIELDS:
        if run.manifest.get(field) is not None:
            console_log(f"{field:>20}: {_format_value(run.manifest[field])}")
    for section in ("dataset", "model_config", "train_config"):
        payload = run.manifest.get(section)
        if payload:
            body = " ".join(f"{k}={_format_value(v)}"
                            for k, v in sorted(payload.items()))
            console_log(f"{section:>20}: {body}")
    for issue in run.manifest.get("health", []):
        console_log(f"{'health':>20}: {issue}")

    if run.epoch_metrics:
        keys: list[str] = []
        for record in run.epoch_metrics:
            for key in record:
                if key not in keys and key not in _EPOCH_HIDE_KEYS:
                    keys.append(key)
        console_log("")
        console_log("  ".join(f"{key:>12}" for key in keys))
        for record in run.epoch_metrics:
            console_log("  ".join(
                f"{_format_value(record.get(key)):>12}" for key in keys))
    summary = run.manifest.get("summary") or {}
    if summary:
        console_log("")
        console_log("summary: " + " ".join(
            f"{k}={_format_value(v)}" for k, v in sorted(summary.items())))
    _show_checkpoints(run.directory)
    if args.svg is not None:
        loss_curve_svg(run, args.svg)
        console_log(f"wrote {args.svg}")
    return 0


def _runs_diff(args) -> int:
    left = find_run(args.run_a, args.root)
    right = find_run(args.run_b, args.root)
    delta = diff_runs(left, right)
    console_log(f"# {left.run_id} vs {right.run_id}")
    if delta["config"]:
        console_log("config differences:")
        for key, (a_value, b_value) in sorted(delta["config"].items()):
            console_log(f"  {key}: {_format_value(a_value)} -> "
                        f"{_format_value(b_value)}")
    else:
        console_log("config differences: none")
    if delta["metrics"]:
        console_log("final metrics:")
        for key, entry in delta["metrics"].items():
            line = (f"  {key}: a={_format_value(entry['a'])} "
                    f"b={_format_value(entry['b'])}")
            if "delta" in entry:
                line += f" delta={_format_value(entry['delta'])}"
            console_log(line)
    return 0


def _runs_tail(args) -> int:
    run = find_run(args.run_id, args.root)
    types = tuple(args.type) if args.type else None
    for event in tail_events(run, args.count, types=types):
        console_log(json.dumps(event, sort_keys=True))
    return 0


def _runs_resume(args) -> int:
    """``repro runs resume`` — restart pre-training from a run's newest
    valid checkpoint (corrupt ones are skipped with a warning).

    The session is rebuilt through :class:`repro.train.TrainSession`; the
    checkpoint's own metadata decides distributed topology and prefetch
    (``--workers`` overrides the recorded world size)."""
    from .checkpoint import CheckpointManager
    from .core.config import PretrainConfig, TimeDRLConfig
    from .train import TrainOptions, TrainSession

    as_path = pathlib.Path(args.run_id)
    if as_path.is_dir() and any(as_path.glob("ckpt-*.npz")):
        # A checkpoint directory given directly (e.g. from an experiment's
        # --checkpoint DIR) works too.
        ckpt_dir, label = as_path, str(as_path)
    else:
        run = find_run(args.run_id, args.root)
        ckpt_dir, label = pathlib.Path(run.directory) / "checkpoints", run.run_id
        if not ckpt_dir.is_dir():
            raise ValueError(f"run {run.run_id} has no checkpoints directory "
                             f"(was it trained with PretrainConfig(checkpoint=...)?)")
    loaded = CheckpointManager(ckpt_dir).load_latest()
    if loaded is None:
        raise ValueError(f"no valid checkpoint under {ckpt_dir}")
    state, meta = loaded
    model_cfg = meta.get("model_config")
    train_cfg = meta.get("train_config")
    data_spec = meta.get("data_spec")
    if not (model_cfg and train_cfg and data_spec):
        raise ValueError(
            "checkpoint lacks self-describing metadata (model_config/"
            "train_config/data_spec); resume from the original script with "
            "CheckpointConfig(resume=True) instead")
    console_log(f"resuming {label} from step {state.global_step} "
                f"(epoch {state.epoch}, batch {state.batch_in_epoch})")
    train_dict = dict(train_cfg)
    ckpt_dict = dict(train_dict.get("checkpoint") or {})
    ckpt_dict["directory"] = str(ckpt_dir)
    ckpt_dict["resume"] = True
    train_dict["checkpoint"] = ckpt_dict
    if getattr(args, "prefetch", False):
        train_dict["prefetch"] = True
    distributed = meta.get("distributed")
    if getattr(args, "workers", None) is not None:
        distributed = args.workers if args.workers > 1 else None
    session = TrainSession(TimeDRLConfig(**model_cfg))
    result = session.pretrain(
        data_spec,  # spec dict: workers materialize only their shard
        options=TrainOptions(pretrain=PretrainConfig(**train_dict),
                             distributed=distributed))
    console_log(f"resume complete: epochs={len(result.history)} "
                f"world_size={result.world_size} "
                f"final_total={result.final_loss:.4f}")
    if result.run_id is not None:
        console_log(f"recorded as run {result.run_id}")
    return 0


_RUNS_COMMANDS = {"list": _runs_list, "show": _runs_show,
                  "diff": _runs_diff, "tail": _runs_tail,
                  "resume": _runs_resume}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate tables/figures of the TimeDRL paper (ICDE 2024).")
    sub = parser.add_subparsers(dest="experiment", required=True)
    list_parser = sub.add_parser("list", help="list available experiments")
    list_parser.set_defaults(experiment="list")
    prof = sub.add_parser(
        "profile", help="op-level profile of a short synthetic pre-training run")
    prof.set_defaults(experiment="profile")
    prof.add_argument("--steps", type=int, default=10, help="training steps to profile")
    prof.add_argument("--batch-size", type=int, default=8)
    prof.add_argument("--seq-len", type=int, default=128)
    prof.add_argument("--channels", type=int, default=7)
    prof.add_argument("--sort-by", choices=("count", "total_s", "self_s", "bytes"),
                      default="total_s")
    prof.add_argument("--limit", type=int, default=25, help="max rows to print")
    prof.add_argument("--no-grad", action="store_true",
                      help="profile the inference (encode) forward instead "
                           "of full training steps")
    prof.add_argument("--compiled", nargs="?", const="fp32",
                      choices=("fp32", "int8"), default=None,
                      help="profile a compiled packed model instead of the "
                           "autograd forward (implies --no-grad; default "
                           "precision fp32)")
    prof.add_argument("--seed", type=int, default=0)
    prof.add_argument("--output", type=pathlib.Path, default=None,
                      help="write the raw op stats as JSON to this file")

    comp = sub.add_parser(
        "compile", help="compile a checkpoint into a packed (optionally "
                        "int8-quantized / distilled) inference artifact "
                        "servable via `repro serve` / `repro swap`")
    comp.set_defaults(experiment="compile")
    comp.add_argument("source",
                      help="checkpoint file, checkpoint directory, or run id")
    precision = comp.add_mutually_exclusive_group()
    precision.add_argument("--int8", action="store_true", default=True,
                           help="per-channel symmetric int8 weights "
                                "(default)")
    precision.add_argument("--fp32", action="store_true",
                           help="packed fp32 (bit-identical exact mode)")
    comp.add_argument("--distill", action="store_true",
                      help="first distill into a narrower/shallower student "
                           "on the calibration windows, then compile it")
    comp.add_argument("--calibrate", default=None, metavar="SPEC",
                      help="calibration data: 'synthetic[:N[:seed]]' or a "
                           "window-store directory (default: synthetic "
                           "windows matching the model geometry)")
    comp.add_argument("--windows", type=int, default=64,
                      help="calibration windows to materialize")
    comp.add_argument("--exact-gelu", action="store_true",
                      help="keep the exact erf GELU (and separate q/k/v "
                           "GEMMs) even for int8 — slower, less drift")
    comp.add_argument("--layer-error-budget", type=float, default=1.0,
                      help="per-layer predicted output error above which a "
                           "layer stays fp32")
    comp.add_argument("--student-d-model", type=int, default=32)
    comp.add_argument("--student-layers", type=int, default=1)
    comp.add_argument("--student-heads", type=int, default=2)
    comp.add_argument("--distill-epochs", type=int, default=3)
    comp.add_argument("--distill-batch-size", type=int, default=32)
    comp.add_argument("--distill-lr", type=float, default=1e-3)
    comp.add_argument("--max-abs-diff", type=float, default=0.0,
                      help="fail (exit 4) if the embedding drift vs the fp "
                           "reference exceeds this (0 = report only). The "
                           "drift is the maximum over the calibration "
                           "windows, not a bound on served traffic; gate "
                           "that with `repro swap --max-abs-diff`")
    comp.add_argument("--seed", type=int, default=0)
    comp.add_argument("--output", type=pathlib.Path, default=None,
                      help="artifact path (default ./compiled-<kind>.npz)")
    comp.add_argument("--report", type=pathlib.Path, default=None,
                      help="write the JSON compile report here")
    comp.add_argument("--run-root", type=pathlib.Path,
                      default=_DEFAULT_RUN_ROOT,
                      help="run directory root for run-id sources")

    pre = sub.add_parser(
        "pretrain", help="self-supervised pre-training through the "
                         "repro.train driver (data-parallel with --workers)")
    pre.set_defaults(experiment="pretrain")
    pre.add_argument("--data", type=pathlib.Path, default=None,
                     help="window store directory (repro data build) or "
                          ".npz/.npy of raw windows (N, T, C)")
    pre.add_argument("--synthetic", type=int, default=0, metavar="N",
                     help="pre-train on N synthetic windows instead of "
                          "--data (each worker generates only its shard)")
    pre.add_argument("--seq-len", type=int, default=64,
                     help="synthetic window length (ignored with --data)")
    pre.add_argument("--channels", type=int, default=7,
                     help="synthetic channel count (ignored with --data)")
    pre.add_argument("--patch-len", type=int, default=8)
    pre.add_argument("--d-model", type=int, default=64)
    pre.add_argument("--num-layers", type=int, default=2)
    pre.add_argument("--num-heads", type=int, default=4)
    pre.add_argument("--dropout", type=float, default=0.1)
    pre.add_argument("--channel-independence", action="store_true",
                     help="encode each channel independently (required to "
                          "later fine-tune the checkpoint on multivariate "
                          "forecasting)")
    pre.add_argument("--no-contrastive", action="store_true",
                     help="disable the contrastive task; its BatchNorm "
                          "predictor gives data-parallel replicas per-shard "
                          "batch statistics (see docs/training.md)")
    pre.add_argument("--epochs", type=int, default=None,
                     help="training epochs (default: the driver default)")
    pre.add_argument("--batch-size", type=int, default=None)
    pre.add_argument("--lr", type=float, default=None)
    pre.add_argument("--max-batches", type=int, default=None,
                     help="cap batches per epoch (CI/smoke runs)")
    pre.add_argument("--seed", type=int, default=0)
    pre.add_argument("--history-json", type=pathlib.Path, default=None,
                     metavar="FILE",
                     help="write the per-epoch loss history and worker "
                          "stats as JSON")
    _add_training_flags(pre)

    fine = sub.add_parser(
        "finetune", help="fine-tune a pre-trained (or fresh) model on a "
                         "named dataset through the repro.train driver")
    fine.set_defaults(experiment="finetune")
    fine.add_argument("--from", dest="source_checkpoint", default=None,
                      metavar="CKPT",
                      help="pre-trained checkpoint to start from (file, "
                           "directory, or run id); omitted = random "
                           "initialisation (supervised baseline)")
    fine.add_argument("--dataset", required=True,
                      help="forecasting or classification dataset name")
    fine.add_argument("--scale", choices=("smoke", "default", "full"),
                      default=None,
                      help="scale preset (default: env or 'default')")
    fine.add_argument("--label-fraction", type=float, default=1.0)
    fine.add_argument("--epochs", type=int, default=None,
                      help="training epochs (default: the task default)")
    fine.add_argument("--batch-size", type=int, default=None)
    fine.add_argument("--lr", type=float, default=None)
    fine.add_argument("--seed", type=int, default=0)
    _add_training_flags(fine, workers_help="accepted for flag parity; "
                                           "fine-tuning runs single-process "
                                           "(workers apply to pre-training)")

    trans = sub.add_parser(
        "transfer", help="pre-train on one forecasting dataset, probe the "
                         "frozen encoder on another")
    trans.set_defaults(experiment="transfer")
    trans.add_argument("--source", required=True,
                       help="forecasting dataset to pre-train on")
    trans.add_argument("--target", required=True,
                       help="forecasting dataset to probe on")
    trans.add_argument("--scale", choices=("smoke", "default", "full"),
                       default=None,
                       help="scale preset (default: env or 'default')")
    trans.add_argument("--epochs", type=int, default=None,
                       help="pre-training epochs (default: the driver "
                            "default)")
    trans.add_argument("--batch-size", type=int, default=None)
    trans.add_argument("--lr", type=float, default=None)
    trans.add_argument("--alpha", type=float, default=1.0,
                       help="ridge strength of the frozen linear probe")
    trans.add_argument("--seed", type=int, default=0)
    _add_training_flags(trans)

    serve = sub.add_parser(
        "serve", help="serve embeddings/predictions from a checkpoint "
                      "(micro-batched, cached, with a latency report)")
    serve.set_defaults(experiment="serve")
    serve.add_argument("--checkpoint", required=True,
                       help="checkpoint file, checkpoint directory, or run id")
    serve.add_argument("--mode", choices=("encode", "predict"),
                       default="encode",
                       help="encode: dual-level embeddings; predict: "
                            "per-patch reconstruction-error scores")
    serve.add_argument("--input", type=pathlib.Path, default=None,
                       help=".npz/.npy of raw windows (N, T, C); default: "
                            "rebuild the checkpoint's own data spec")
    serve.add_argument("--synthetic", type=int, default=0, metavar="N",
                       help="serve N synthetic windows matching the model's "
                            "geometry instead of real data")
    serve.add_argument("--limit", type=int, default=0,
                       help="cap the number of windows served (0 = all)")
    serve.add_argument("--repeats", type=int, default=1,
                       help="serve the workload this many times (cache "
                            "hit-rate demonstration)")
    serve.add_argument("--batch-size", type=int, default=64,
                       help="micro-batch size (max windows per forward pass)")
    serve.add_argument("--max-wait-ms", type=float, default=2.0,
                       help="micro-batch deadline for the threaded engine")
    serve.add_argument("--request-size", type=int, default=1,
                       help="windows per request (cache granularity)")
    serve.add_argument("--cache-size", type=int, default=1024,
                       help="embedding-cache capacity in requests (0 = off)")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--output", type=pathlib.Path, default=None,
                       help="write embeddings/predictions to this .npz")
    serve.add_argument("--report", type=pathlib.Path, default=None,
                       help="write the JSON latency report here")
    serve.add_argument("--telemetry", action="store_true",
                       help="record the serving session as a telemetry run")
    serve.add_argument("--run-root", type=pathlib.Path,
                       default=_DEFAULT_RUN_ROOT)
    serve.add_argument("--obs", action="store_true",
                       help="collect metrics/traces into the process "
                            "observability registry while serving")
    serve.add_argument("--obs-export", type=pathlib.Path, default=None,
                       metavar="FILE",
                       help="after serving, write the Prometheus text "
                            "exposition here (implies --obs)")
    serve.add_argument("--gateway", action="store_true",
                       help="serve through the resilient multi-tenant "
                            "gateway (admission control, deadlines, "
                            "circuit breaker) instead of the bare service")
    serve.add_argument("--tenant", action="append", default=None,
                       metavar="NAME[:WEIGHT[:RATE[:BURST]]]",
                       help="gateway tenant spec (repeatable); WEIGHT is "
                            "the fair-share weight, RATE/BURST the "
                            "token-bucket quota in windows/s")
    serve.add_argument("--deadline-ms", type=float, default=0.0,
                       help="gateway per-request deadline (0 = none)")
    serve.add_argument("--queue-windows", type=int, default=1024,
                       help="gateway in-flight window budget before "
                            "overload shedding")
    serve.add_argument("--stale-ok", action="store_true",
                       help="while the breaker is open, allow cache "
                            "answers computed by previous model weights")

    swap = sub.add_parser(
        "swap", help="zero-downtime rolling model swap: shadow-validate a "
                     "candidate checkpoint on live traffic, then flip "
                     "(exit 0 promoted, 4 rolled back)")
    swap.set_defaults(experiment="swap")
    swap.add_argument("--checkpoint", required=True,
                      help="currently-serving checkpoint (file, directory, "
                           "or run id)")
    swap.add_argument("--candidate", required=True,
                      help="candidate checkpoint to shadow-validate")
    swap.add_argument("--shadow-requests", type=int, default=8,
                      help="mirrored live requests the candidate must pass")
    swap.add_argument("--latency-budget-ms", type=float, default=250.0,
                      help="max per-mirror candidate latency")
    swap.add_argument("--max-abs-diff", type=float, default=0.0,
                      help="output tolerance vs live (0 = bit-compare)")
    swap.add_argument("--traffic", type=int, default=0, metavar="N",
                      help="drive N synthetic live windows through the "
                           "gateway during shadowing (default: just enough "
                           "to score the shadow requests)")
    swap.add_argument("--request-size", type=int, default=2,
                      help="windows per live request")
    swap.add_argument("--mode", choices=("encode", "predict"),
                      default="encode")
    swap.add_argument("--seed", type=int, default=0)
    swap.add_argument("--report", type=pathlib.Path, default=None,
                      help="write the JSON swap report here")
    swap.add_argument("--telemetry", action="store_true",
                      help="record the swap as a telemetry run "
                           "(swap/swap_shadow events)")
    swap.add_argument("--run-root", type=pathlib.Path,
                      default=_DEFAULT_RUN_ROOT)

    obs_parser = sub.add_parser(
        "obs", help="observability: metrics snapshot, Prometheus/JSON "
                    "export, live terminal dashboard")
    obs_parser.set_defaults(experiment="obs")
    obs_sub = obs_parser.add_subparsers(dest="obs_command", required=True)
    obs_snapshot = obs_sub.add_parser(
        "snapshot", help="render the dashboard once (and optionally write "
                         "a JSON snapshot)")
    obs_export = obs_sub.add_parser(
        "export", help="emit the metric registry as Prometheus text "
                       "exposition or a JSON snapshot")
    obs_export.add_argument("--format", choices=("prometheus", "json"),
                            default="prometheus")
    obs_watch = obs_sub.add_parser(
        "watch", help="live-refreshing terminal dashboard")
    obs_watch.add_argument("--interval", type=float, default=1.0,
                           help="seconds between refreshes (default 1.0)")
    obs_watch.add_argument("--iterations", type=int, default=0,
                           help="stop after N refreshes (0 = until Ctrl-C)")
    obs_watch.add_argument("--no-clear", action="store_true",
                           help="append frames instead of repainting "
                                "(log-friendly)")
    for obs_cmd in (obs_snapshot, obs_export, obs_watch):
        obs_cmd.add_argument("--checkpoint", default=None,
                             help="serve a synthetic workload from this "
                                  "checkpoint each tick so the serve metrics "
                                  "are live")
        obs_cmd.add_argument("--synthetic", type=int, default=0, metavar="N",
                             help="synthetic windows per tick (default 16)")
        obs_cmd.add_argument("--request-size", type=int, default=1)
        obs_cmd.add_argument("--slo", action="append", default=None,
                             metavar="RULE",
                             help="SLO predicate such as "
                                  "'serve_request_ms_p95 < 10' (repeatable; "
                                  "violations exit 2)")
        obs_cmd.add_argument("--seed", type=int, default=0)
        obs_cmd.add_argument("--output", type=pathlib.Path, default=None,
                             help="write the export/snapshot to this file")
        if obs_cmd is not obs_watch:
            obs_cmd.set_defaults(interval=1.0, iterations=1, no_clear=True)

    data = sub.add_parser(
        "data", help="build/inspect/verify on-disk window stores "
                     "(the out-of-core corpus ladder)")
    data.set_defaults(experiment="data")
    data_sub = data.add_subparsers(dest="data_command", required=True)
    data_build = data_sub.add_parser(
        "build", help="materialize ladder tiers as sharded stores")
    data_build.add_argument("--root", type=pathlib.Path,
                            default=pathlib.Path("results/data"),
                            help="store root (one subdirectory per tier)")
    data_build.add_argument("--tier", action="append", default=None,
                            choices=("smallest", "small", "mid", "large", "all"),
                            help="ladder tier to build (repeatable; "
                                 "default smallest; 'all' builds every tier)")
    data_build.add_argument("--windows", type=int, default=0,
                            help="build a custom corpus of N windows "
                                 "instead of a ladder tier")
    data_build.add_argument("--scale", type=float, default=1.0,
                            help="shrink tier window counts (CI/smoke builds)")
    data_build.add_argument("--seq-len", type=int, default=64)
    data_build.add_argument("--channels", type=int, default=7)
    data_build.add_argument("--seed", type=int, default=0)
    data_build.add_argument("--force", action="store_true",
                            help="rebuild even if a conflicting store exists")
    data_info = data_sub.add_parser(
        "info", help="print a store's manifest summary")
    data_info.add_argument("path", type=pathlib.Path, help="store directory")
    data_verify = data_sub.add_parser(
        "verify", help="re-hash every shard against the manifest checksums")
    data_verify.add_argument("path", type=pathlib.Path, help="store directory")

    runs = sub.add_parser("runs", help="inspect recorded training runs")
    runs.set_defaults(experiment="runs")
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)
    runs_list = runs_sub.add_parser("list", help="list runs under the run root")
    runs_show = runs_sub.add_parser(
        "show", help="manifest + per-epoch metrics of one run")
    runs_show.add_argument("run_id", help="run id, unique prefix, or directory")
    runs_show.add_argument("--svg", type=pathlib.Path, default=None,
                           help="also export the loss curves as SVG here")
    runs_diff = runs_sub.add_parser(
        "diff", help="compare two runs' configs and final metrics")
    runs_diff.add_argument("run_a")
    runs_diff.add_argument("run_b")
    runs_tail = runs_sub.add_parser("tail", help="print a run's last events")
    runs_tail.add_argument("run_id")
    runs_tail.add_argument("-n", "--count", type=int, default=20)
    runs_tail.add_argument("--type", action="append", default=None,
                           metavar="TYPE",
                           help="only events of this type (repeatable; e.g. "
                                "--type swap --type swap_shadow)")
    runs_resume = runs_sub.add_parser(
        "resume", help="restart pre-training from a run's newest valid "
                       "checkpoint (or from a checkpoint directory)")
    runs_resume.add_argument("run_id", help="run id, unique prefix, run "
                                            "directory, or checkpoint directory")
    runs_resume.add_argument("--workers", type=int, default=None,
                             help="override the recorded data-parallel "
                                  "world size (default: honor the "
                                  "checkpoint's own metadata)")
    runs_resume.add_argument("--prefetch", action="store_true",
                             help="force prefetch on for the resumed "
                                  "session (default: honor the checkpoint)")
    for runs_cmd in (runs_list, runs_show, runs_diff, runs_tail, runs_resume):
        runs_cmd.add_argument("--root", type=pathlib.Path,
                              default=_DEFAULT_RUN_ROOT,
                              help="run directory root (default results/runs)")

    for name, (__, description) in EXPERIMENTS.items():
        exp = sub.add_parser(name, help=description)
        exp.add_argument("--scale", choices=("smoke", "default", "full"),
                         default=None, help="scale preset (default: env or 'default')")
        exp.add_argument("--datasets", nargs="*", default=None,
                         help="override the experiment's dataset list")
        exp.add_argument("--seed", type=int, default=0)
        exp.add_argument("--output", type=pathlib.Path, default=None,
                         help="directory to write markdown tables into")
        exp.add_argument("--telemetry", action="store_true",
                         help="record the experiment as a run under "
                              "results/runs (manifest + events + metrics)")
        exp.add_argument("--run-root", type=pathlib.Path,
                         default=_DEFAULT_RUN_ROOT,
                         help="where --telemetry writes the run directory")
        if name in ("table3", "table4", "table5"):
            exp.add_argument("--checkpoint", type=pathlib.Path, default=None,
                             metavar="DIR",
                             help="checkpoint TimeDRL pre-training under DIR "
                                  "(one subdirectory per dataset)")
            exp.add_argument("--resume", action="store_true",
                             help="resume TimeDRL pre-training from the "
                                  "newest valid checkpoint under the "
                                  "--checkpoint directory")
    return parser


def _emit(result, name: str, output: pathlib.Path | None) -> None:
    tables = result if isinstance(result, dict) else {"": result}
    for key, table in tables.items():
        table.print()
        if output is not None:
            output.mkdir(parents=True, exist_ok=True)
            suffix = f"_{key.lower()}" if key else ""
            path = output / f"{name}{suffix}.md"
            path.write_text(table.to_markdown() + "\n")
            console_log(f"wrote {path}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.experiment == "list":
        for name, (__, description) in EXPERIMENTS.items():
            console_log(f"{name:8} {description}")
        return 0
    if args.experiment == "profile":
        return _run_profile(args)
    if args.experiment == "compile":
        return _run_compile(args)
    if args.experiment == "pretrain":
        return _run_pretrain_cmd(args)
    if args.experiment == "finetune":
        return _run_finetune_cmd(args)
    if args.experiment == "transfer":
        return _run_transfer_cmd(args)
    if args.experiment == "serve":
        if args.obs_export is not None:
            args.obs = True
        return _run_serve(args)
    if args.experiment == "swap":
        return _run_swap(args)
    if args.experiment == "obs":
        return _run_obs(args)
    if args.experiment == "data":
        from .data import DataValidationError

        try:
            return _DATA_COMMANDS[args.data_command](args)
        except (DataValidationError, FileNotFoundError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
    if args.experiment == "runs":
        try:
            return _RUNS_COMMANDS[args.runs_command](args)
        except (FileNotFoundError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
    runner, __ = EXPERIMENTS[args.experiment]
    preset = get_scale(args.scale)
    console_log(f"running {args.experiment} at scale {preset.name!r}")
    if args.telemetry:
        run = Run.create(root=args.run_root, name=args.experiment,
                         seed=args.seed, tags={"experiment": args.experiment,
                                               "scale": preset.name})
        with run:
            result = runner(args, preset, run)
        console_log(f"recorded run {run.run_id} under {args.run_root}")
    else:
        result = runner(args, preset)
    _emit(result, args.experiment, args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
