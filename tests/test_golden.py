"""Every benchmark report, and the verify-all report, is byte-identical
to its golden.

The goldens in perfbench/golden/ are the `--json` reports the benchmark
compares against; this module only reads them.  It runs them at the
benchmark's ceiling, 3^15, which admits the n = 15 reports; no report
states its ceiling.  tests/golden/verify-all.json is the `--json
verify-all` report at the default ceiling, and
tests/golden/spectrum_p_131_n_1_d_3.json the `--json` spectrum of a prime
field, whose transform tallies one row per chunk.  The carry-graph reports are
also checked under python3.10, the floor pyproject.toml states, when one
runs on PATH (the test skips otherwise).
"""

import os
import shutil
import subprocess
from pathlib import Path

import pytest

from triweil.cli import main
from triweil.ff import CEILING_ENV_VAR

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "perfbench" / "golden"
VERIFY_ALL_GOLDEN = Path(__file__).resolve().parent / "golden" / "verify-all.json"
PRIME_FIELD_ARGV = ("spectrum", "--p", "131", "--n", "1", "--d", "3")
PRIME_FIELD_GOLDEN = VERIFY_ALL_GOLDEN.with_name("spectrum_p_131_n_1_d_3.json")

COMMANDS = [
    ("spectrum", "--family", "5"),
    ("spectrum", "--family", "9"),
    ("spectrum", "--p", "5", "--n", "3", "--d", "3"),
    ("spectrum", "--p", "5", "--n", "6", "--d", "11"),
    ("spectrum", "--p", "7", "--n", "2", "--d", "5"),
    ("spectrum", "--p", "7", "--n", "5", "--d", "5"),
    ("kernel", "--n", "7", "--r", "2"),
    ("kernel", "--n", "11", "--r", "3"),
    ("divisibility", "--n", "7"),
    ("proof-check", "--n", "7"),
    ("divisibility", "--n", "15"),
    ("proof-check", "--n", "15"),
    ("graph-verify",),
]

BENCHMARK_CEILING = str(3**15)


def golden_of(argv) -> Path:
    return GOLDEN / ("_".join(a.lstrip("-") for a in argv) + ".json")


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_report_matches_golden(capsys, monkeypatch, argv):
    monkeypatch.setenv(CEILING_ENV_VAR, BENCHMARK_CEILING)
    assert main(["--json", *argv]) == 0
    assert capsys.readouterr().out.encode() == golden_of(argv).read_bytes()


def test_verify_all_matches_golden(capsys, monkeypatch):
    monkeypatch.delenv(CEILING_ENV_VAR, raising=False)
    assert main(["--json", "verify-all"]) == 0
    assert capsys.readouterr().out.encode() == VERIFY_ALL_GOLDEN.read_bytes()


def test_prime_field_spectrum_matches_golden(capsys, monkeypatch):
    # one row per transform chunk, 131 columns: the merge of the chunks ranks its keys
    monkeypatch.delenv(CEILING_ENV_VAR, raising=False)
    assert main(["--json", *PRIME_FIELD_ARGV]) == 0
    assert capsys.readouterr().out.encode() == PRIME_FIELD_GOLDEN.read_bytes()


def test_carry_graph_reports_match_golden_at_the_python_floor():
    # pyproject.toml admits Python 3.10, whose NamedTuple rules differ from
    # later versions'; the commands that build no field need no numpy there
    exe = shutil.which("python3.10")
    probe = "import sys; sys.exit(sys.version_info[:2] != (3, 10))"
    if exe is None or subprocess.run([exe, "-c", probe], capture_output=True).returncode:
        pytest.skip("no runnable python3.10 on PATH")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop(CEILING_ENV_VAR, None)
    for argv in [("divisibility", "--n", "7"), ("proof-check", "--n", "7"), ("graph-verify",)]:
        out = subprocess.run(
            [exe, "-m", "triweil.cli", "--json", *argv],
            env=env, capture_output=True, check=True, timeout=60,
        ).stdout
        assert out == golden_of(argv).read_bytes(), argv
