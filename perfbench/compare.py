"""Compare two result sets from the ledger, one row per workload and metric.

    python3 perfbench/compare.py BASE CHANGE [--ledger .perfbench/ledger.jsonl]

``BASE`` and ``CHANGE`` are git sha prefixes of ledger entries.  Only
untraced runs are compared, and only when every run on both sides has
the same host fingerprint.

The rule: runs are paired in time order, and the pairs should
alternate which side ran first.  A metric is *better* only
when the change wins at least 9 of every 10 pairs (ties count for
neither) and the medians differ by more than the base's own quartile
distance; *worse* when the change's median is worse by more than the
metric's bound; *unresolved* when either side's quartile spread is wider
than the bound (unless every change run beats every base run) or fewer
than 10 pairs exist; otherwise *same*.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from perfbench import stats  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def _improves(a: float, b: float, better: str) -> bool:
    """Whether ``b`` is better than ``a``."""
    return b > a if better == "higher" else b < a


def verdict(base: list[float], change: list[float], better: str,
            bound: float) -> tuple[str, int, int]:
    """``(verdict, wins, pairs)`` for one metric on one workload."""
    pairs = min(len(base), len(change))
    wins = sum(_improves(b, c, better) for b, c in zip(base, change))
    if pairs < MIN_PAIRS:
        return "unresolved", wins, pairs
    q1_b, med_b, q3_b = stats.quartiles(base)
    med_c = stats.median(change)
    if wins >= WIN_SHARE * pairs and abs(med_c - med_b) > q3_b - q1_b:
        return "better", wins, pairs
    worse_by = (med_b - med_c if better == "higher" else med_c - med_b)
    if worse_by > bound * abs(med_b):
        return "worse", wins, pairs
    if max(stats.spread(base), stats.spread(change)) > bound:
        if (better == "higher" and min(change) > max(base)) or (
                better == "lower" and max(change) < min(base)):
            return "better", wins, pairs
        return "unresolved", wins, pairs
    return "same", wins, pairs


def _load(sha: str, ledger: pathlib.Path) -> list[dict]:
    with open(ledger, encoding="utf-8") as handle:
        entries = [json.loads(line) for line in handle if line.strip()]
    return sorted((e for e in entries
                   if e["sha"].startswith(sha) and not e["trace"]),
                  key=lambda e: e["unix"])


def compare(base_runs: list[dict], change_runs: list[dict],
            metrics: list[dict]) -> list[dict]:
    fingerprints = {json.dumps(run["fingerprint"], sort_keys=True)
                    for run in base_runs + change_runs}
    if len(fingerprints) > 1:
        raise ValueError("result sets have different host fingerprints; "
                         "they are never compared")
    rows = []
    workloads = sorted({r["workload"] for r in base_runs}
                       & {r["workload"] for r in change_runs})
    for workload in workloads:
        base = [r for r in base_runs if r["workload"] == workload]
        change = [r for r in change_runs if r["workload"] == workload]
        for metric in metrics:
            name = metric["name"]
            b = [r["metrics"][name]["value"] for r in base]
            c = [r["metrics"][name]["value"] for r in change]
            result, wins, pairs = verdict(b, c, metric["better"],
                                          metric["bound"])
            incorrect = sum(not r["correct"] for r in base + change)
            rows.append({"workload": workload, "metric": name,
                         "unit": metric["unit"],
                         "base": stats.quartiles(b), "change": stats.quartiles(c),
                         "wins": wins, "pairs": pairs,
                         "verdict": result if not incorrect
                         else f"{result} ({incorrect} incorrect runs)"})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--ledger", type=pathlib.Path,
                        default=ROOT / ".perfbench" / "ledger.jsonl")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, change = _load(args.base, args.ledger), _load(args.change,
                                                         args.ledger)
    if not base or not change:
        print("compare: no untraced runs found for one side", file=sys.stderr)
        return 2
    try:
        rows = compare(base, change, spec["end_to_end"])
    except ValueError as error:
        print(f"compare: {error}", file=sys.stderr)
        return 2
    header = (f"{'workload':<16} {'metric':<26} {'base q1/med/q3':>28} "
              f"{'change q1/med/q3':>28} {'wins':>7}  verdict")
    print(header)
    for row in rows:
        fmt = "/".join(f"{v:.4g}" for v in row["base"])
        cmt = "/".join(f"{v:.4g}" for v in row["change"])
        print(f"{row['workload']:<16} {row['metric']:<26} {fmt:>28} "
              f"{cmt:>28} {row['wins']:>3}/{row['pairs']:<3}  "
              f"{row['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
