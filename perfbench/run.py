"""triweil benchmark: one pinned workload, cold runs, golden-checked reports.

    python3 perfbench/run.py --workload spectrum-family --seed 1 --seconds 28 --trace 0

Each measured iteration is a fresh interpreter (``perfbench/child.py``)
started by this process, so every iteration pays what ``triweil <cmd>``
pays: interpreter start, ``import triweil`` and field construction.  One
closed-loop client, runs strictly one after another: at most two processes
(this one and one child) are alive at any time.

``--trace 0`` measures untraced iterations for ``--seconds`` and reports
the end-to-end metrics as medians.  ``--trace 1`` alternates untraced and
traced iterations and reports the per-layer metrics (medians over traced
iterations) and the tracing overhead.  Before the last line it prints the
provenance and a summary (quartiles, failed-operation ratio, errors); the
last line is ``{"correct", "attempted", "failed", "metrics"}``.

See ``perfbench/README.md`` for the workloads and what each metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
GOLDEN = HERE / "golden"

# 3^15: the table ceiling every child runs under, so a ceiling applied to
# divisibility/proof-check cannot turn n = 15 into a usage error.
CEILING = 3**15
CHILD_TIMEOUT_S = 120
MIN_ITERATIONS = 3

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "verify_s": "s",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    "triweil.import_s": "s",
    "triweil.rss_rise_mib": "MiB",
    "ff.build_field_s": "s",
    "ff.field_elements": "count",
    "ff.table_bytes": "bytes",
    "ff.rss_rise_mib": "MiB",
    "weil.spectrum_s": "s",
    "weil.coefficients": "count",
    "weil.fiber_keys": "count",
    "weil.weil_sum_s": "s",
    "weil.weil_sum_calls": "count",
    "weil.rss_rise_mib": "MiB",
    "kernel_curve.direct_s": "s",
    "kernel_curve.charsum_s": "s",
    "kernel_curve.elements": "count",
    "kernel_curve.rss_rise_mib": "MiB",
    "digits.verify_divisibility_s": "s",
    "digits.residues": "count",
    "digits.rss_rise_mib": "MiB",
    "proof_lab.minimizer_structure_s": "s",
    "proof_lab.motifs_sequences_s": "s",
    "proof_lab.doubly_minimal": "count",
    "proof_lab.rss_rise_mib": "MiB",
    "motif_graph.graph_report_s": "s",
    "motif_graph.trace_cycle_s": "s",
    "motif_graph.walks": "count",
    "motif_graph.rss_rise_mib": "MiB",
    "cli.self_s": "s",
    "cli.rss_rise_mib": "MiB",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Workload:
    fields: tuple[tuple[int, int], ...]  # (p, n) built during set-up
    commands: tuple[tuple[str, ...], ...]  # triweil CLI arguments, after --json
    spot: str | None = None  # "weil_sum" or "trace_cycle"
    spot_n: int = 0
    spot_count: int = 0


WORKLOADS = {
    "spectrum-family": Workload(
        fields=((3, 9),),
        commands=(("spectrum", "--family", "9"),),
        spot="weil_sum", spot_n=9, spot_count=256,
    ),
    "spectrum-general": Workload(
        fields=((5, 6), (7, 5)),
        commands=(
            ("spectrum", "--p", "5", "--n", "6", "--d", "11"),
            ("spectrum", "--p", "7", "--n", "5", "--d", "5"),
        ),
    ),
    "field-kernel": Workload(
        fields=((3, 11),),
        commands=(("kernel", "--n", "11", "--r", "3"),),
    ),
    "digits-proof": Workload(
        fields=(),
        commands=(
            ("divisibility", "--n", "15"),
            ("proof-check", "--n", "15"),
            ("graph-verify",),
        ),
        spot="trace_cycle", spot_n=15, spot_count=1000,
    ),
}

# The same four shapes on tiny inputs (n = 5, 7), for perfbench/selftest.py.
SELFTEST_WORKLOADS = {
    "tiny-spectrum-family": Workload(
        fields=((3, 5),),
        commands=(("spectrum", "--family", "5"),),
        spot="weil_sum", spot_n=5, spot_count=8,
    ),
    "tiny-spectrum-general": Workload(
        fields=((5, 3), (7, 2)),
        commands=(
            ("spectrum", "--p", "5", "--n", "3", "--d", "3"),
            ("spectrum", "--p", "7", "--n", "2", "--d", "5"),
        ),
    ),
    "tiny-field-kernel": Workload(
        fields=((3, 7),),
        commands=(("kernel", "--n", "7", "--r", "2"),),
    ),
    "tiny-digits-proof": Workload(
        fields=(),
        commands=(("divisibility", "--n", "7"), ("proof-check", "--n", "7"), ("graph-verify",)),
        spot="trace_cycle", spot_n=7, spot_count=8,
    ),
}


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)  # shared with child.py


def golden_path(command: tuple[str, ...]) -> Path:
    return GOLDEN / ("_".join(a.lstrip("-") for a in command) + ".json")


def build_spec(name: str, workload: Workload, seed: int) -> dict:
    """Everything one child needs; spot-check inputs are derived from seed."""
    commands = [
        {"argv": ["--json", *c], "golden": golden_path(c).read_text()}
        for c in workload.commands
    ]
    rng = random.Random(f"{name}/{seed}")
    spot = None
    n = workload.spot_n
    if workload.spot == "weil_sum":
        golden = json.loads(golden_path(("spectrum", "--family", str(n))).read_text())
        spot = {
            "kind": "weil_sum", "p": 3, "n": n, "d": 3 ** pow(4, -1, n) + 2,
            "values": sorted(int(v) for v in golden["results"]["spectrum"]),
            "inputs": [rng.randrange(1, 3**n) for _ in range(workload.spot_count)],
        }
    elif workload.spot == "trace_cycle":
        spot = {
            "kind": "trace_cycle", "n": n,
            "inputs": [rng.randrange(1, 3**n - 1) for _ in range(workload.spot_count)],
        }
    return {
        "src": str(ROOT / "src"),
        "fields": [list(f) for f in workload.fields],
        "commands": commands,
        "spot": spot,
    }


def operation_count(spec: dict) -> int:
    return len(spec["commands"]) + (len(spec["spot"]["inputs"]) if spec["spot"] else 0)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)  # the child puts <root>/src first itself
    env["TRIWEIL_CEILING"] = str(CEILING)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # no BLAS thread pool: one thread per run
    return env


def run_child(spec: dict, traced: bool) -> dict:
    """One cold iteration.  A crash or timeout fails all its operations."""
    payload = json.dumps({**spec, "trace": traced})
    t_spawn = clock()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD)], input=payload, capture_output=True,
            text=True, env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"traced": traced, "crashed": f"timed out after {CHILD_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return {"traced": traced, "crashed": f"exit {proc.returncode}: {tail[0]}"}
    res = json.loads(lines[-1])
    return {
        "traced": traced,
        "crashed": None,
        "ops": res["ops"],
        "numpy": res["numpy"],
        "wall_s": res["t_last"] - t_spawn,
        "setup_s": res["t_verify"] - res["t_setup"],
        "verify_s": res["t_last"] - res["t_verify"],
        "peak_rss_mib": res["peak_rss_kib"] / 1024,
        "spans": res.get("spans"),
        "counters": res.get("counters"),
    }


def measure(spec: dict, seconds: float, trace: bool, min_iterations: int = MIN_ITERATIONS):
    """A discarded warm-up (byte-compiles src, fills the page cache), then
    iterations, with ``trace`` alternating untraced and traced.  A new
    iteration starts only if it is expected to end within ``seconds`` of
    the start, so a run takes about ``seconds`` whatever the workload.
    Returns (warm-up, measured iterations)."""
    start = clock()
    warmup = run_child(spec, traced=False)
    iterations = []
    want = min_iterations * (2 if trace else 1)
    last = clock() - start
    while len(iterations) < want or clock() - start + last <= seconds:
        t0 = clock()
        iterations.append(run_child(spec, traced=trace and len(iterations) % 2 == 1))
        last = clock() - t0
    return warmup, iterations


def layer_metrics(spans: list, counters: dict) -> dict:
    """Per-layer values of one traced iteration.  A span's time is its self
    time, its duration minus its child spans; cli.main's is ``cli.self_s``.
    Layers that do not run on a workload report 0."""
    values = {k: 0 for k in PER_LAYER if k not in ("trace.wall_s", "trace.overhead_s")}
    self_time = [t1 - t0 for _, _, t0, t1, _ in spans]
    for _, parent, t0, t1, _ in spans:
        if parent >= 0:
            self_time[parent] -= t1 - t0
    for (name, _, _, _, rise_kib), own in zip(spans, self_time):
        values["cli.self_s" if name == "cli.main" else f"{name}_s"] += own
        values[name.split(".")[0] + ".rss_rise_mib"] += rise_kib / 1024
    for key, count in counters.items():
        values[key] += count
    return values


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "n": len(values)}


def summarise(spec: dict, warmup: dict, iterations: list[dict], trace: bool):
    """(summary, result line) from a warm-up and the measured iterations."""
    attempted = failed = 0
    errors: list[str] = []
    for it in [warmup, *iterations]:
        if it["crashed"]:
            attempted += operation_count(spec)
            failed += operation_count(spec)
            errors.append(f"child {it['crashed']}")
            continue
        attempted += len(it["ops"])
        for op in it["ops"]:
            if not op["ok"]:
                failed += 1
                errors.append(f"{op['name']}: {op['error']}")
    good = [it for it in iterations if not it["crashed"]]
    plain = [it for it in good if not it["traced"]]
    traced = [it for it in good if it["traced"]]
    stats = {m: quartiles([it[m] for it in plain]) for m in END_TO_END if plain}
    metrics: dict[str, dict] = {}
    if trace and plain and traced:
        per_iter = [layer_metrics(it["spans"], it["counters"]) for it in traced]
        for m in PER_LAYER:
            if m in per_iter[0]:
                metrics[m] = {"value": statistics.median(v[m] for v in per_iter)}
        traced_wall = statistics.median(it["wall_s"] for it in traced)
        metrics["trace.wall_s"] = {"value": traced_wall}
        metrics["trace.overhead_s"] = {"value": traced_wall - stats["wall_s"]["median"]}
        for m, entry in metrics.items():
            entry["unit"] = PER_LAYER[m]
    elif not trace and plain:
        metrics = {m: {"value": stats[m]["median"], "unit": u} for m, u in END_TO_END.items()}
    summary = {
        "iterations": {"untraced": len(plain), "traced": len(traced)},
        "failed_ops_ratio": failed / attempted,
        "stats": stats,
        "report_digests": sorted({
            op["digest"] for it in good for op in it["ops"] if op["digest"]
        }),
        "errors": sorted(set(errors))[:10],
    }
    result = {"correct": failed == 0 and bool(metrics), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return summary, result


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # e.g. an exported checkout
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def cpu_info() -> tuple[str | None, str | None]:
    model = l3 = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            if (index / "level").read_text().strip() == "3":
                l3 = (index / "size").read_text().strip()
    except OSError:
        pass
    return model, l3


def provenance(name: str, workload: Workload, seed: int, seconds: float,
               trace: bool, numpy_version: str | None) -> dict:
    model, l3 = cpu_info()
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "params": {"fields": workload.fields, "commands": workload.commands,
                   "spot": workload.spot, "spot_n": workload.spot_n,
                   "spot_count": workload.spot_count},
        "nproc": os.cpu_count(), "cpu_model": model, "l3_cache": l3,
        "python": platform.python_version(), "numpy": numpy_version,
        "git_commit": git_commit(), "source_sha256": source_digest(),
        "TRIWEIL_CEILING": CEILING,
    }


def sources_missing() -> bool:
    """True, with a message, when the checkout has no triweil sources."""
    if (ROOT / "src" / "triweil" / "__init__.py").is_file():
        return False
    print(f"error: no triweil sources under {ROOT / 'src'}", file=sys.stderr)
    return True


def run(name: str, workload: Workload, seed: int, seconds: float, trace: bool,
        min_iterations: int = MIN_ITERATIONS) -> tuple[dict, dict, dict]:
    """(provenance, summary, result line) for one workload."""
    spec = build_spec(name, workload, seed)
    warmup, iterations = measure(spec, seconds, trace, min_iterations)
    numpy_version = next((it["numpy"] for it in iterations if not it["crashed"]), None)
    summary, result = summarise(spec, warmup, iterations, trace)
    return provenance(name, workload, seed, seconds, trace, numpy_version), summary, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if sources_missing():
        return 2
    prov, summary, result = run(args.workload, WORKLOADS[args.workload],
                                args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"provenance": prov}))
    print(json.dumps({"summary": summary}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
