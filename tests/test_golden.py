"""Every benchmark report, and the verify-all report, is byte-identical
to its golden.

The goldens in perfbench/golden/ are the `--json` reports the benchmark
compares against; this module only reads them.  It runs them at the
benchmark's ceiling, 3^15, which admits the n = 15 reports; no report
states its ceiling.  tests/golden/verify-all.json is the `--json
verify-all` report at the default ceiling.
"""

from pathlib import Path

import pytest

from triweil.cli import main
from triweil.ff import CEILING_ENV_VAR

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"
VERIFY_ALL_GOLDEN = Path(__file__).resolve().parent / "golden" / "verify-all.json"

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


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_report_matches_golden(capsys, monkeypatch, argv):
    monkeypatch.setenv(CEILING_ENV_VAR, BENCHMARK_CEILING)
    golden = GOLDEN / ("_".join(a.lstrip("-") for a in argv) + ".json")
    assert main(["--json", *argv]) == 0
    assert capsys.readouterr().out.encode() == golden.read_bytes()


def test_verify_all_matches_golden(capsys, monkeypatch):
    monkeypatch.delenv(CEILING_ENV_VAR, raising=False)
    assert main(["--json", "verify-all"]) == 0
    assert capsys.readouterr().out.encode() == VERIFY_ALL_GOLDEN.read_bytes()
