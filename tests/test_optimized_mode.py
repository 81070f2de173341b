"""Checks stay in force under `python -O`, which strips assert statements."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "triweil"


def test_no_assert_statements_in_src():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], "checks that python -O strips: " + ", ".join(found)


def test_report_under_optimize_matches_golden():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("TRIWEIL_CEILING", None)
    golden = ROOT / "perfbench" / "golden"
    for argv, path in [
        (("divisibility", "--n", "7"), golden / "divisibility_n_7.json"),
        (("proof-check", "--n", "7"), golden / "proof-check_n_7.json"),
        (("kernel", "--n", "7", "--r", "2"), golden / "kernel_n_7_r_2.json"),
        (("graph-verify",), golden / "graph-verify.json"),
        (("spectrum", "--p", "7", "--n", "5", "--d", "5"), golden / "spectrum_p_7_n_5_d_5.json"),
        (("--ceiling", "14348907", "divisibility", "--n", "15"), golden / "divisibility_n_15.json"),
        (("--ceiling", "14348907", "proof-check", "--n", "15"), golden / "proof-check_n_15.json"),
        (("verify-all",), ROOT / "tests" / "golden" / "verify-all.json"),
        (("spectrum", "--p", "131", "--n", "1", "--d", "3"),
         ROOT / "tests" / "golden" / "spectrum_p_131_n_1_d_3.json"),
    ]:
        out = subprocess.run(
            [sys.executable, "-O", "-m", "triweil.cli", "--json", *argv],
            env=env, capture_output=True, check=True, timeout=60,
        ).stdout
        assert out == path.read_bytes(), argv
