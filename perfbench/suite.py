"""Run all four workloads, untraced and traced, and print one row each.

    python3 perfbench/suite.py --seed 1 [--seconds 28] [--out perfbench/BENCH_<label>.json]

With ``--out`` the full results (provenance, summaries with quartiles,
end-to-end and per-layer metrics) are written as JSON, so that the
numbers of successive commits build up a trajectory.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if run.sources_missing():
        return 2

    columns = [*run.END_TO_END, "failed_ops_ratio", "trace.overhead_s"]
    print(f"{'workload':18s}" + "".join(f"{c:>18s}" for c in columns))
    results = {}
    for name, workload in run.WORKLOADS.items():
        entry = {}
        for trace in (False, True):
            prov, summary, result = run.run(name, workload, args.seed, args.seconds, trace)
            entry["traced" if trace else "untraced"] = {
                "provenance": prov, "summary": summary, "result": result,
            }
        results[name] = entry
        untraced, traced = entry["untraced"], entry["traced"]
        row = {m: v["value"] for m, v in untraced["result"]["metrics"].items()}
        row["failed_ops_ratio"] = untraced["summary"]["failed_ops_ratio"]
        row["trace.overhead_s"] = traced["result"]["metrics"].get(
            "trace.overhead_s", {}).get("value", float("nan"))
        print(f"{name:18s}" + "".join(f"{row.get(c, float('nan')):18.4f}" for c in columns),
              flush=True)
    if args.out:
        args.out.write_text(json.dumps(results, indent=1) + "\n")
    correct = all(e[k]["result"]["correct"] for e in results.values() for k in e)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
