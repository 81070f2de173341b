"""Command-line front end producing reproducible verification reports.

Exit codes: 0 all checks passed, 1 a verification check failed, 2 usage
error; a reader that closes stdout early cuts the report short but not
the exit code.  Reports are deterministic given identical parameters; --json
emits a machine-readable form (sorted keys, exact decimal integers,
no timing field so output is byte-stable).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from typing import Any, NamedTuple

from . import digits, kernel_curve, motif_graph, proof_lab, weil
from .ff import CEILING_ENV_VAR, DEFAULT_Q_CEILING, FieldError, build_field
from .report import Check, passed

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2


# what a command returns: its params, its results and its checks
Outcome = tuple[dict[str, Any], dict[str, Any], list[Check]]


class RunReport(NamedTuple):
    command: str
    params: dict[str, Any]
    results: dict[str, Any]
    checks: list[Check]
    wall_time_ms: float

    def to_json(self) -> str:
        # wall time is excluded: json output is byte-stable across runs
        payload = {
            "command": self.command,
            "params": self.params,
            "results": self.results,
            "checks": [
                {
                    "claim": c.claim,
                    "expected": _jsonable(c.expected),
                    "got": _jsonable(c.got),
                    "pass": c.ok,
                }
                for c in self.checks
            ],
            "passed": passed(self.checks),
        }
        return json.dumps(payload, sort_keys=True, indent=2)

    def to_text(self) -> str:
        lines = [f"== {self.command} =="]
        for k in sorted(self.params):
            lines.append(f"  {k} = {self.params[k]}")
        for k in sorted(self.results):
            lines.append(f"  {k}: {self.results[k]}")
        for c in self.checks:
            lines.append("  " + c.line())
        verdict = "ALL CHECKS PASSED" if passed(self.checks) else "VERIFICATION FAILED"
        lines.append(f"  {verdict} ({self.wall_time_ms:.0f} ms)")
        return "\n".join(lines)


def _jsonable(v):
    if isinstance(v, (dict,)):
        return {str(k): _jsonable(x) for k, x in sorted(v.items(), key=lambda kv: str(kv[0]))}
    if isinstance(v, (list, tuple, set, frozenset)):
        items = list(v)
        if isinstance(v, (set, frozenset)):
            items = sorted(items, key=str)
        return [_jsonable(x) for x in items]
    return v


def _field_params(ctx) -> dict[str, Any]:
    return {"p": ctx.p, "n": ctx.n, "modulus": list(ctx.modulus)}


def cmd_spectrum(args) -> Outcome:
    if args.family is not None:
        rep = weil.check_family(args.family, ceiling=args.ceiling)
        params = _field_params(rep.ctx) | {"d": rep.d, "r": rep.r}
        return params, {"spectrum": dict(sorted(rep.spectrum.entries.items()))}, rep.checks
    weil.check_spectrum_work(args.p, args.n, args.ceiling)
    ctx = build_field(args.p, args.n, ceiling=args.ceiling)
    if math.gcd(args.d, ctx.q - 1) != 1:  # the moment identities need it
        raise ValueError(f"d = {args.d} is not coprime to {ctx.p}^{ctx.n} - 1")
    params = _field_params(ctx) | {"d": args.d}
    spec = weil.spectrum(ctx, args.d)
    if not spec.is_integer:
        results = {
            "spectrum_integer": False,
            "fiber_spectrum": {str(list(k)): v for k, v in sorted(spec.fiber_entries.items())},
        }
        return params, results, []
    results = {
        "spectrum": dict(sorted(spec.entries.items())),
        "moment_1": weil.power_moment(spec, 1),
        "moment_2": weil.power_moment(spec, 2),
        "moment_4": weil.power_moment(spec, 4),
    }
    checks = [
        Check("moment.1", ctx.q, results["moment_1"]),
        Check("moment.2", ctx.q**2, results["moment_2"]),
    ]
    return params, results, checks


def cmd_kernel(args) -> Outcome:
    ctx = build_field(3, args.n, ceiling=args.ceiling)
    rep = kernel_curve.kernel_report(ctx, args.r)
    results = {
        "count_direct": rep.count_direct,
        "count_charsum": rep.count_charsum,
        "axes_count": rep.axes_count,
        "eta_sum": rep.eta_sum,
    }
    return _field_params(ctx) | {"r": args.r}, results, rep.checks


def cmd_divisibility(args) -> Outcome:
    rep = digits.verify_divisibility(args.n, ceiling=args.ceiling)
    results = {
        "min_weight_sum": rep.min_weight_sum,
        "num_minimizers": rep.num_minimizers,
        "minimizers_capped": list(rep.minimizers),
    }
    return {"n": args.n, "r": rep.r, "d": rep.d}, results, rep.checks


def cmd_graph_verify(args) -> Outcome:
    rep = motif_graph.graph_report()
    results = {
        "vertices": rep.num_vertices,
        "edges": rep.num_edges,
        "scc_count": rep.num_components,
        "nontrivial_sizes": list(rep.nontrivial_sizes),
        "pair_component": [list(t) for t in rep.pair_component],
        "pair_cycle_cost": rep.pair_cycle_cost,
        "negative_cycle": list(rep.negative_cycle) if rep.negative_cycle else None,
    }
    return {}, results, rep.checks


def cmd_proof_check(args) -> Outcome:
    # first, so that a bad or over-ceiling n is refused before any
    # arithmetic mod 3^n - 1; its checks still come last in the report
    n = args.n
    rep = proof_lab.check_minimizer_structure(n, ceiling=args.ceiling)

    motifs = proof_lab.derive_motifs()
    sequences = proof_lab.enumerate_sequences()
    bad_identity = [
        sid
        for sid in proof_lab.SURGERIES
        if not proof_lab.surgery_identity_holds(sid, n, rep.r)
    ]
    checks = [
        Check("motifs.count", 9, len(motifs)),
        Check("sequences.count", 10, len(sequences)),
        Check("surgeries.identities", [], bad_identity),
        *rep.checks,
    ]

    results = {
        "motifs": [m_.name for m_ in motifs],
        "sequences": {s.name: list(s.motifs) for s in sequences},
        "k": rep.k,
        "num_minimizers": rep.num_minimizers,
        "num_doubly_minimal": rep.num_doubly_minimal,
    }
    return {"n": n, "r": rep.r, "d": rep.d}, results, checks


# the whole desk-scale reproduction, one argument vector per report
VERIFY_ALL = (
    *(("spectrum", "--family", str(n)) for n in (5, 7, 9, 11)),
    *(("kernel", "--n", str(n), "--r", str(r)) for n, r in ((5, 1), (5, 4), (7, 2), (9, 7))),
    *(("divisibility", "--n", str(n)) for n in (5, 7, 9, 11, 13)),
    ("graph-verify",),
    *(("proof-check", "--n", str(n)) for n in (5, 7, 9)),
)


def _run(args) -> RunReport:
    """Run one command and time it."""
    t0 = time.perf_counter()
    params, results, checks = args.func(args)
    return RunReport(
        command=args.subcommand,
        params=params,
        results=results,
        checks=list(checks),
        wall_time_ms=(time.perf_counter() - t0) * 1000,
    )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing leaves it as it is)."""
    parser = argparse.ArgumentParser(
        prog="triweil",
        description="Exact verification of three-valued binomial character sums "
        "over GF(3^n) and the supporting divisibility machinery.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument(
        "--ceiling",
        type=int,
        default=None,
        help=f"max size q = p^n of the field tables and of the residues that divisibility "
        f"and proof-check cover (default "
        f"${CEILING_ENV_VAR} or {DEFAULT_Q_CEILING})",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("spectrum", help="value spectrum and power moments")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--family", type=int, help="odd n: use the family exponent")
    group.add_argument("--d", type=int, help="explicit exponent (with --p/--n)")
    sp.add_argument("--p", type=int, default=3)
    sp.add_argument("--n", type=int)
    sp.set_defaults(func=cmd_spectrum)

    kp = sub.add_parser("kernel", help="trilinear-form kernel counts")
    kp.add_argument("--n", type=int, required=True)
    kp.add_argument("--r", type=int, required=True)
    kp.set_defaults(func=cmd_kernel)

    dp = sub.add_parser("divisibility", help="exhaustive digit-weight bound")
    dp.add_argument("--n", type=int, required=True)
    dp.set_defaults(func=cmd_divisibility)

    gp = sub.add_parser("graph-verify", help="carry graph statistics and cycles")
    gp.set_defaults(func=cmd_graph_verify)

    pp = sub.add_parser("proof-check", help="motif/sequence machinery checks")
    pp.add_argument("--n", type=int, required=True)
    pp.set_defaults(func=cmd_proof_check)

    sub.add_parser("verify-all", help="full desk-scale reproduction")

    return parser


def _parse(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    args = parser.parse_args(argv)
    if args.subcommand == "spectrum":
        if args.d is not None and args.n is None:
            parser.error("--d requires --n")
        if args.family is not None and (args.n, args.p) != (None, 3):
            parser.error("--family sets p = 3 and n: it takes no --n and no --p other than 3")
    return args


def main(argv=None) -> int:
    parser = _build_parser()
    args = _parse(parser, argv)
    runs = [args]
    if args.subcommand == "verify-all":
        ceiling = [] if args.ceiling is None else ["--ceiling", str(args.ceiling)]
        runs = [_parse(parser, [*ceiling, *command]) for command in VERIFY_ALL]
    try:
        reports = [_run(a) for a in runs]
    except (FieldError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.json:
            if len(reports) == 1:
                print(reports[0].to_json())
            else:
                print("[\n" + ",\n".join(r.to_json() for r in reports) + "\n]")
        else:
            for r in reports:
                print(r.to_text())
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (`| head`): stop quietly, and point stdout
        # at devnull so that the flush at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return EXIT_OK if all(passed(r.checks) for r in reports) else EXIT_VERIFICATION_FAILED


if __name__ == "__main__":
    sys.exit(main())
