"""Self-tests of the benchmark harness on tiny inputs (n = 5, 7).

    python3 -m pytest -q perfbench/selftest.py

They check the harness, not triweil: every named metric appears with its
unit, broken operations count as failed instead of crashing the run,
traced and untraced runs give identical reports, and the benchmark
refuses to run without the sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEED = 7

# Per-layer metrics that must be nonzero where the layer runs.
RUNNING = {
    "tiny-spectrum-family": ["ff.build_field_s", "weil.spectrum_s", "weil.weil_sum_s"],
    "tiny-spectrum-general": ["ff.build_field_s", "weil.spectrum_s"],
    "tiny-field-kernel": ["ff.build_field_s", "kernel_curve.direct_s", "kernel_curve.charsum_s"],
    "tiny-digits-proof": [
        "digits.verify_divisibility_s", "proof_lab.minimizer_structure_s",
        "proof_lab.motifs_sequences_s", "motif_graph.graph_report_s",
        "motif_graph.trace_cycle_s",
    ],
}

COUNTS = {
    "tiny-spectrum-family": {
        "ff.field_elements": 243, "weil.coefficients": 242, "weil.fiber_keys": 3,
        "weil.weil_sum_calls": 8,
    },
    "tiny-spectrum-general": {"ff.field_elements": 125 + 49, "weil.coefficients": 124 + 48},
    "tiny-field-kernel": {"ff.field_elements": 2187, "kernel_curve.elements": 2186 + 4373},
    "tiny-digits-proof": {
        "ff.field_elements": 0, "digits.residues": 3**7 - 2, "motif_graph.walks": 8,
        "proof_lab.doubly_minimal": json.loads(
            run.golden_path(("proof-check", "--n", "7")).read_text()
        )["results"]["num_doubly_minimal"],
    },
}


def measure(spec: dict, trace: bool):
    warmup, iterations = run.measure(spec, seconds=0, trace=trace, min_iterations=1)
    return run.summarise(spec, warmup, iterations, trace)


@pytest.fixture(scope="module")
def results():
    out = {}
    for name, workload in run.SELFTEST_WORKLOADS.items():
        spec = run.build_spec(name, workload, SEED)
        for trace in (False, True):
            out[name, trace] = measure(spec, trace)
    return out


@pytest.mark.parametrize("name", run.SELFTEST_WORKLOADS)
def test_every_metric_appears_with_its_unit(results, name):
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        summary, result = results[name, trace]
        assert result["correct"] and result["failed"] == 0, summary["errors"]
        assert summary["failed_ops_ratio"] == 0
        got = {m: v["unit"] for m, v in result["metrics"].items()}
        assert got == {m["name"]: m["unit"] for m in BENCH[key]}
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


@pytest.mark.parametrize("name", run.SELFTEST_WORKLOADS)
def test_traced_run_measures_the_layers_that_run(results, name):
    metrics = results[name, True][1]["metrics"]
    for m in ["triweil.import_s", "cli.self_s", *RUNNING[name]]:
        assert metrics[m]["value"] > 0, m
    for m, count in COUNTS[name].items():
        assert metrics[m]["value"] == count, m


@pytest.mark.parametrize("name", run.SELFTEST_WORKLOADS)
def test_traced_and_untraced_reports_are_identical(results, name):
    untraced = results[name, False][0]["report_digests"]
    both = results[name, True][0]["report_digests"]  # traced and untraced iterations
    assert len(untraced) == len(run.SELFTEST_WORKLOADS[name].commands)
    assert both == untraced


def _tamper_golden(spec):
    golden = spec["commands"][0]["golden"]
    spec["commands"][0]["golden"] = golden[:10] + ("X" if golden[10] != "X" else "Y") + golden[11:]
    return "report differs from golden"


def _raise_in_spot_check(spec):
    spec["spot"]["inputs"][0] = 0  # trace_cycle rejects the zero residue
    return "ValueError"


def _usage_error(spec):
    spec["commands"][0]["argv"] = ["--json", "divisibility"]  # --n missing
    return "exit code 2"


@pytest.mark.parametrize("breaks", [_tamper_golden, _raise_in_spot_check, _usage_error])
@pytest.mark.parametrize("trace", [False, True])
def test_broken_operation_counts_as_failed(breaks, trace):
    spec = run.build_spec("tiny-digits-proof", run.SELFTEST_WORKLOADS["tiny-digits-proof"], SEED)
    expected_error = breaks(spec)
    summary, result = measure(spec, trace)
    iterations = 1 + summary["iterations"]["untraced"] + summary["iterations"]["traced"]
    assert result["attempted"] == iterations * run.operation_count(spec)
    assert result["failed"] == iterations  # one broken operation per iteration
    assert result["correct"] is False
    assert result["metrics"]  # the run still measured
    assert any(expected_error in e for e in summary["errors"]), summary["errors"]


def test_spot_inputs_follow_the_seed():
    workload = run.WORKLOADS["digits-proof"]
    a = run.build_spec("digits-proof", workload, 1)["spot"]["inputs"]
    assert a == run.build_spec("digits-proof", workload, 1)["spot"]["inputs"]
    assert a != run.build_spec("digits-proof", workload, 2)["spot"]["inputs"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "spectrum-family",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
