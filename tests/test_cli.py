"""CLI surface: exit codes, payload content, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triweil import weil
from triweil.cli import _build_parser, main
from triweil.ff import FieldError

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_family_spectrum_passes(capsys):
    code, out = run(capsys, "spectrum", "--family", "5")
    assert code == 0
    assert "161" in out and "45" in out and "36" in out
    assert "ALL CHECKS PASSED" in out


def test_family_spectrum_json(capsys):
    code, out = run(capsys, "--json", "spectrum", "--family", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["results"]["spectrum"] == {"-27": 36, "0": 161, "27": 45}
    assert payload["params"]["d"] == 83


def test_degenerate_spectrum(capsys):
    code, out = run(capsys, "--json", "spectrum", "--d", "1", "--n", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["spectrum"] == {"0": 241, "243": 1}


def test_non_family_moment4(capsys):
    code, out = run(capsys, "--json", "spectrum", "--d", "5", "--n", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["moment_4"] == 3 * 243**3


def test_kernel_command(capsys):
    code, out = run(capsys, "--json", "kernel", "--n", "5", "--r", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["count_direct"] == 729
    assert payload["results"]["count_charsum"] == 729


@pytest.mark.parametrize("n,direct,charsum", [(2, 21, 27), (4, 381, 243)])
def test_kernel_even_n_is_flagged(capsys, n, direct, charsum):
    # -1 is a square at even n, so the character-sum identity breaks
    code, out = run(capsys, "--json", "kernel", "--n", str(n), "--r", "1")
    assert code == 1
    res = json.loads(out)["results"]
    assert (res["count_direct"], res["count_charsum"]) == (direct, charsum)


def test_divisibility_command(capsys):
    code, out = run(capsys, "--json", "divisibility", "--n", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["min_weight_sum"] == 8


def test_graph_verify(capsys):
    code, out = run(capsys, "--json", "graph-verify")
    assert code == 0
    payload = json.loads(out)
    res = payload["results"]
    assert (res["vertices"], res["edges"], res["scc_count"]) == (729, 2187, 258)
    assert res["nontrivial_sizes"] == [471, 2]
    assert res["negative_cycle"] is None


def test_graph_verify_byte_stable(capsys):
    _, first = run(capsys, "--json", "graph-verify")
    _, second = run(capsys, "--json", "graph-verify")
    assert first == second


def test_proof_check(capsys):
    code, out = run(capsys, "--json", "proof-check", "--n", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["k"] == 2
    assert len(payload["results"]["sequences"]) == 10


# Run in a fresh interpreter: the modules that `import triweil, triweil.cli`
# adds to those loaded before it (site hooks may load some), the reports of
# the commands named in argv[1], whether numpy was loaded after them, the
# triweil modules loaded, and whether numpy was loaded after one command
# that builds a field.
FRESH_RUN = """
import contextlib, io, json, sys
before = set(sys.modules)
import triweil, triweil.cli
imported = sorted(set(sys.modules) - before)

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = triweil.cli.main(argv)
    return code, out.getvalue()

reports = {name: run(argv) for name, argv in json.loads(sys.argv[1]).items()}
triweil.motif_graph.trace_cycle(7, 22)
result = {"imported": imported, "reports": reports, "numpy_before": "numpy" in sys.modules,
          "modules": sorted(m for m in sys.modules if m.startswith("triweil."))}
run(["spectrum", "--family", "5"])
result["numpy_after_spectrum"] = "numpy" in sys.modules
print(json.dumps(result))
"""


def test_carry_graph_commands_run_without_numpy():
    # the graph-theory leg builds no field, so it never loads numpy, while
    # `import triweil, triweil.cli` still imports every module the benchmark
    # traces by name; the first command that builds a field loads numpy
    commands = {
        "divisibility_n_7.json": ["--json", "divisibility", "--n", "7"],
        "proof-check_n_7.json": ["--json", "proof-check", "--n", "7"],
        "graph-verify.json": ["--json", "graph-verify"],
    }
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("TRIWEIL_CEILING", None)
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_RUN, json.dumps(commands)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    # the records are NamedTuples: the import defines no dataclass
    assert {"dataclasses", "inspect"}.isdisjoint(result["imported"])
    assert result["numpy_before"] is False
    traced = ("ff", "weil", "kernel_curve", "digits", "proof_lab", "motif_graph")
    assert {f"triweil.{m}" for m in traced} <= set(result["modules"])
    for name, (code, report) in result["reports"].items():
        assert code == 0
        assert report == (ROOT / "perfbench" / "golden" / name).read_text(), name
    assert result["numpy_after_spectrum"] is True


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["spectrum"])  # neither --family nor --d
    assert exc.value.code == 2


def test_parser_is_built_once_and_reused_after_usage_errors(capsys):
    # one parser per process: a usage error or --help leaves it as it was
    assert _build_parser() is _build_parser()
    for argv in (["spectrum"], ["spectrum", "--d", "5"], ["--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == (0 if argv == ["--help"] else 2)
    capsys.readouterr()
    code, out = run(capsys, "--json", "divisibility", "--n", "5")
    assert code == 0 and json.loads(out)["params"] == {"d": 83, "n": 5, "r": 4}


def test_over_ceiling_is_usage_error(capsys, monkeypatch):
    monkeypatch.delenv("TRIWEIL_CEILING", raising=False)
    for argv in (("spectrum", "--family"), ("divisibility", "--n"), ("proof-check", "--n")):
        code = main([*argv, "15"])
        err = capsys.readouterr().err
        assert code == 2, argv
        assert "ceiling" in err


def test_ceiling_message_states_table_memory(capsys, monkeypatch):
    monkeypatch.delenv("TRIWEIL_CEILING", raising=False)
    tail = "raise it via ceiling= or $TRIWEIL_CEILING\n"
    head = "error: q = 3^15 = 14348907 exceeds the table ceiling 1594323"
    assert main(["spectrum", "--family", "15"]) == 2
    # exp, log and trace_table: int32, int32 and uint8, 9 bytes per element
    assert capsys.readouterr().err == f"{head} (~123 MiB of tables); {tail}"
    assert main(["divisibility", "--n", "15"]) == 2
    # the walk route builds no q-sized table, so the message names no memory
    assert capsys.readouterr().err == (
        f"error: q = 3^15 = 14348907 exceeds the ceiling 1594323; {tail}"
    )


def test_spectrum_work_over_budget_is_usage_error(capsys, monkeypatch):
    monkeypatch.delenv("TRIWEIL_CEILING", raising=False)
    refusals = {
        # a prime field just under the ceiling: its tables fit, its ~q^2 transform does not
        ("1594301", "1"): "error: spectrum at q = 1594301^1 needs ~2541795678601 element "
        "operations, over the budget 186535791 of the family at q = ceiling 1594323; "
        "raise it via ceiling= or $TRIWEIL_CEILING\n",
        # a composite p over the budget is refused for what it is, not for its work
        ("9", "6"): "error: p = 9 is not prime\n",
    }
    for (p, n), message in refusals.items():
        t0 = time.perf_counter()
        assert main(["spectrum", "--p", p, "--n", n, "--d", "5"]) == 2
        assert time.perf_counter() - t0 < 1.0
        assert capsys.readouterr().err == message
    # admitted: the family at the ceiling, the goldens' and the benchmark's fields
    for p, n in [(3, 13), (1009, 1), (101, 2), (5, 6), (7, 5), (7, 2), (5, 3)]:
        weil.check_spectrum_work(p, n)
    # the family at n = floor(log_3 ceiling) is admitted at any ceiling
    for n in (5, 7, 9):
        weil.check_spectrum_work(3, n, 3**n)
    with pytest.raises(FieldError, match="budget"):
        weil.check_spectrum_work(1009, 1, 3**7)  # admitted at the default ceiling


def test_admitted_prime_field_spectrum_runs_at_once(capsys, monkeypatch):
    # each of the p chunks of a prime field's transform tallies one row: a
    # per-column pass over it would make ~p^2 numpy calls (~12 s at p = 1009)
    monkeypatch.delenv("TRIWEIL_CEILING", raising=False)
    t0 = time.perf_counter()
    assert main(["--json", "spectrum", "--p", "1009", "--n", "1", "--d", "5"]) == 0
    assert time.perf_counter() - t0 < 2.0
    fibers = json.loads(capsys.readouterr().out)["results"]["fiber_spectrum"]
    assert sum(fibers.values()) == 1008


@pytest.mark.parametrize("p,n", [(0, -1), (0, 0), (2, -1)])
def test_bad_field_degree_is_usage_error(capsys, p, n):
    # the work check runs first and must leave a bad degree to build_field
    assert main(["spectrum", "--p", str(p), "--n", str(n), "--d", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_large_prime_p_over_ceiling_is_refused_at_once():
    # the ceiling is checked before is_prime, whose trial division would run
    # to sqrt(p) ~ 10^9 for this prime p
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("TRIWEIL_CEILING", None)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "triweil.cli", "spectrum", "--p", "1000000000000000003",
         "--n", "1", "--d", "5"],
        env=env, capture_output=True, text=True, timeout=10,
    )
    assert time.perf_counter() - t0 < 1.0
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith(
        "error: q = 1000000000000000003^1 = ~10^18 exceeds the table ceiling "
    )
    assert proc.stderr.count("\n") == 1


def test_huge_field_message_is_one_line(capsys):
    # the table memory of q = 2^2000 is stated exactly, not through a float
    assert main(["spectrum", "--p", "2", "--n", "2000", "--d", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: q = 2^2000 = ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv,head",
    [
        (("kernel", "--n", "100000", "--r", "1"),
         "error: q = 3^100000 = ~10^47712 exceeds the table ceiling 1594323 "
         "(~10^47707 MiB of tables); "),
        (("divisibility", "--n", "100001"),
         "error: q = 3^100001 = ~10^47712 exceeds the ceiling 1594323; "),
    ],
)
def test_ceiling_message_states_size_of_long_q(capsys, monkeypatch, argv, head):
    # q has ~47700 digits, past what str() formats: its size is stated instead
    monkeypatch.delenv("TRIWEIL_CEILING", raising=False)
    assert main(list(argv)) == 2
    assert capsys.readouterr().err == f"{head}raise it via ceiling= or $TRIWEIL_CEILING\n"


@pytest.mark.parametrize(
    "argv,ceiling",
    [
        (("divisibility", "--n"), "the ceiling 1594323"),
        (("proof-check", "--n"), "the ceiling 1594323"),
        (("spectrum", "--family"), "the table ceiling 1594323 (~10^1431359 MiB of tables)"),
    ],
    ids=["divisibility", "proof-check", "spectrum-family"],
)
def test_huge_family_n_is_refused_before_full_size_arithmetic(argv, ceiling):
    # the gcd of family_params and the surgery identities mod 3^n - 1 would
    # take minutes at this n; the refusal must come before them
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("TRIWEIL_CEILING", None)
    proc = subprocess.run(
        [sys.executable, "-m", "triweil.cli", *argv, "3000001"],
        env=env, capture_output=True, timeout=10,
    )
    assert proc.returncode == 2 and proc.stdout == b""
    assert proc.stderr.decode() == (
        f"error: q = 3^3000001 = ~10^1431364 exceeds {ceiling}; "
        "raise it via ceiling= or $TRIWEIL_CEILING\n"
    )


@pytest.mark.parametrize(
    "argv,head",
    [
        (("kernel", "--n", "1000000001", "--r", "1"),
         "error: q = 3^1000000001 = ~10^477121255 exceeds the table ceiling 1594323 "
         "(~10^477121250 MiB of tables); "),
        (("spectrum", "--p", "3", "--n", "1000000001", "--d", "5"),
         "error: q = 3^1000000001 = ~10^477121255 exceeds the table ceiling 1594323 "
         "(~10^477121250 MiB of tables); "),
    ],
    ids=["kernel", "spectrum-p"],
)
def test_huge_field_n_is_refused_without_building_q(argv, head):
    # 3^n alone would take minutes at this n: the ceiling is decided and
    # stated from logarithms
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("TRIWEIL_CEILING", None)
    proc = subprocess.run(
        [sys.executable, "-m", "triweil.cli", *argv],
        env=env, capture_output=True, timeout=10,
    )
    assert proc.returncode == 2 and proc.stdout == b""
    assert proc.stderr.decode() == f"{head}raise it via ceiling= or $TRIWEIL_CEILING\n"


def test_closed_stdout_exits_quietly():
    # the reader closes the pipe before the report is written, as `| head -1` does
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "triweil.cli", "--json", "divisibility", "--n", "3"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


def test_exponent_not_coprime_to_q_minus_1_is_usage_error(capsys):
    # the moment identities need gcd(d, q - 1) = 1; such a d is refused, not failed
    assert main(["spectrum", "--p", "2", "--n", "2", "--d", "3"]) == 2
    assert capsys.readouterr().err == "error: d = 3 is not coprime to 2^2 - 1\n"
    assert main(["spectrum", "--n", "5", "--d", "11"]) == 2  # 242 = 2 * 11^2
    assert capsys.readouterr().err == "error: d = 11 is not coprime to 3^5 - 1\n"


def test_family_refuses_p_and_n(capsys):
    # the family fixes p = 3 and n; another --p or any --n would be ignored
    for extra in (("--n", "3"), ("--n", "5"), ("--p", "7"), ("--p", "3", "--n", "5")):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--family", "5", *extra])
        assert exc.value.code == 2
        assert "--family sets p = 3 and n" in capsys.readouterr().err
    code, out = run(capsys, "--json", "spectrum", "--family", "5", "--p", "3")
    assert code == 0 and json.loads(out)["params"]["n"] == 5


def test_bad_n_is_usage_error(capsys):
    assert main(["divisibility", "--n", "6"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("n", [1, 4, 3000000])
@pytest.mark.parametrize(
    "argv", [("divisibility", "--n"), ("proof-check", "--n"), ("spectrum", "--family")]
)
def test_bad_family_n_message(capsys, argv, n):
    # the odd-n message comes before the ceiling, also where both apply
    code = main([*argv, str(n)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: family exponent needs odd n > 1, got {n}\n"


def test_bad_ceiling_env_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("TRIWEIL_CEILING", "abc")
    assert main(["--json", "graph-verify"]) == 0  # reads no ceiling
    capsys.readouterr()
    code = main(["kernel", "--n", "5", "--r", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "TRIWEIL_CEILING" in err
    assert err.count("\n") == 1


_COMMANDS = (
    ("spectrum", "--family"),
    ("spectrum", "--d", "--n"),
    ("spectrum", "--d", "--p", "--n"),
    ("kernel", "--n", "--r"),
    ("kernel", "--n"),
    ("divisibility", "--n"),
    ("proof-check", "--n"),
    ("graph-verify",),
    ("verify-all",),
)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_cli_always_exits_cleanly(data):
    # every argument vector ends in a report or a usage error, never a traceback
    sub, *flags = data.draw(st.sampled_from(_COMMANDS))
    argv = [sub]
    for flag in flags:
        argv += [flag, str(data.draw(st.integers(-2, 9)))]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(["--ceiling", str(3**7), *argv])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2), argv
