"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload pretrain_store --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` installs the span wrappers and prints the per-layer
metrics instead (a per-layer metric whose layer does no work in the
workload reads 0).  Every run checks its outputs, appends its result to
``.perfbench/ledger.jsonl`` under the git sha with the host fingerprint,
and a traced run writes its spans to ``.perfbench/traces/``.  Run from
the root of a checkout; ``src/repro`` must be next to this directory.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import sys
import tempfile
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402

WORKLOADS = ("pretrain_store", "pretrain_dp2", "serve_mixed",
             "serve_compiled")


def _declared() -> dict:
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def _metrics(measured: dict, declared: dict[str, str], zero_missing: bool
             ) -> dict:
    """Every declared metric, in declared order and unit.  With
    ``zero_missing`` (per-layer), a metric whose layer did no work in the
    workload reads 0; a missing end-to-end metric is an error."""
    out = {}
    for name, unit in declared.items():
        if name not in measured and not zero_missing:
            raise RuntimeError(f"end-to-end metric {name} was not measured")
        value, measured_unit = measured.get(name, (0.0, unit))
        if measured_unit != unit:
            raise RuntimeError(f"{name}: measured in {measured_unit}, "
                               f"declared in {unit}")
        out[name] = {"value": float(value), "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    common.require_sources()
    common.pin_process()
    declared = _declared()
    from perfbench.serve_workloads import run_serve_workload
    from perfbench.train_workloads import run_pretrain_workload

    runner = (run_pretrain_workload if args.workload.startswith("pretrain")
              else run_serve_workload)
    common.OUT_DIR.mkdir(exist_ok=True)
    work = pathlib.Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                         dir=common.OUT_DIR))
    started = time.perf_counter()
    cpu_before = common.cpu_times()
    try:
        result = runner(args.workload, args.seed, args.seconds,
                        bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    cpu_after = common.cpu_times()
    if cpu_before and cpu_after and cpu_after[1] > cpu_before[1]:
        # Host CPU time stolen from this machine while the run measured.
        result["info"]["steal_pct"] = 100.0 * (
            (cpu_after[0] - cpu_before[0]) / (cpu_after[1] - cpu_before[1]))
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = _metrics(result["metrics"], declared[kind],
                       zero_missing=bool(args.trace))
    line = {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics}
    if args.trace:
        traces = common.OUT_DIR / "traces"
        traces.mkdir(exist_ok=True)
        trace_path = traces / f"{args.workload}-seed{args.seed}.jsonl"
        from perfbench.tracer import write_spans

        write_spans(result["spans"], trace_path)
    # The ledger keeps every measured value, declared or not (the
    # latency tails, for one: measured on every run, too unsteady on a
    # shared host to carry a regression bound).
    measured = {name: value for name, (value, _) in result["metrics"].items()}
    common.append_ledger({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "wall_s": time.perf_counter() - started,
        "problems": result["problems"], "notes": result.get("notes", []),
        "info": result["info"],
        "measured": measured, **line})
    for problem in result["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    for note in result.get("notes", ()):
        print(f"perfbench: note: {note}", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
