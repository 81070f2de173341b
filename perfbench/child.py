"""One cold run of a workload, in a fresh interpreter.

Reads a spec (JSON) on stdin, imports triweil from ``<root>/src``, builds
the workload's fields (set-up), runs every operation and prints one JSON
result on stdout.  An operation is one ``triweil.cli.main`` invocation,
checked byte for byte against its golden report, or one seeded spot
check.  An operation that exits nonzero, raises, or prints anything other
than its golden report counts as failed; it never aborts the run.

With ``"trace": true`` the public functions named in ``TRACED`` are
wrapped from here, so every call into them records a span (name, parent
span, start, end, rise of ``ru_maxrss``).  Spans stay in memory and are
written with the result.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time


def clock() -> float:
    # CLOCK_MONOTONIC is system-wide, so the parent's spawn time and this
    # process's timestamps share one time base.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def maxrss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Spans recorded around calls into the program's public functions."""

    def __init__(self) -> None:
        # [name, parent index or -1, start, end, rss rise in KiB]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self._fields: set[tuple[int, int]] = set()

    def call(self, name, fn, args, kwargs):
        idx = len(self.spans)
        rec = [name, self.stack[-1] if self.stack else -1, 0.0, 0.0, 0]
        self.spans.append(rec)
        self.stack.append(idx)
        rss0 = maxrss_kib()
        rec[2] = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[3] = clock()
            rec[4] = maxrss_kib() - rss0
            self.stack.pop()

    def count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def count_field(self, ctx) -> None:
        # build_field is memoised, so count each distinct field once
        if (ctx.p, ctx.n) not in self._fields:
            self._fields.add((ctx.p, ctx.n))
            self.count("ff.field_elements", ctx.q)
            self.count(
                "ff.table_bytes",
                ctx.exp.nbytes + ctx.log.nbytes + ctx.trace_table.nbytes,
            )


def _ctx(args, kwargs):
    return args[0] if args else kwargs["ctx"]


# (module, function, span name, counters from (tracer, args, kwargs, result))
TRACED = (
    ("ff", "build_field", "ff.build_field",
     lambda t, a, k, ctx: t.count_field(ctx)),
    ("weil", "spectrum", "weil.spectrum",
     lambda t, a, k, s: (t.count("weil.coefficients", s.p**s.n - 1),
                         t.count("weil.fiber_keys", len(s.fiber_entries)))),
    ("weil", "weil_sum", "weil.weil_sum",
     lambda t, a, k, v: t.count("weil.weil_sum_calls", 1)),
    ("kernel_curve", "kernel_count_direct", "kernel_curve.direct",
     lambda t, a, k, c: t.count("kernel_curve.elements", _ctx(a, k).q - 1)),
    ("kernel_curve", "kernel_count_charsum", "kernel_curve.charsum",
     lambda t, a, k, c: t.count("kernel_curve.elements", 2 * _ctx(a, k).q - 1)),
    ("digits", "verify_divisibility", "digits.verify_divisibility",
     lambda t, a, k, r: t.count("digits.residues", 3**r.n - 2)),
    ("proof_lab", "check_minimizer_structure", "proof_lab.minimizer_structure",
     lambda t, a, k, r: t.count("proof_lab.doubly_minimal", r.num_doubly_minimal)),
    ("proof_lab", "derive_motifs", "proof_lab.motifs_sequences", None),
    ("proof_lab", "enumerate_sequences", "proof_lab.motifs_sequences", None),
    ("motif_graph", "graph_report", "motif_graph.graph_report", None),
    ("motif_graph", "trace_cycle", "motif_graph.trace_cycle",
     lambda t, a, k, r: t.count("motif_graph.walks", 1)),
)


def install_tracing(tracer: Tracer) -> None:
    """Replace each traced function by a recording wrapper, in every
    triweil module that holds a reference to it (``from .ff import
    build_field`` copies the name into ``cli`` and ``weil``)."""
    for mod_name, fn_name, span, counter in TRACED:
        orig = getattr(sys.modules[f"triweil.{mod_name}"], fn_name)

        def wrapper(*args, _orig=orig, _span=span, _counter=counter, **kwargs):
            result = tracer.call(_span, _orig, args, kwargs)
            if _counter is not None:
                _counter(tracer, args, kwargs, result)
            return result

        for name, mod in list(sys.modules.items()):
            if (name == "triweil" or name.startswith("triweil.")) and getattr(
                mod, fn_name, None
            ) is orig:
                setattr(mod, fn_name, wrapper)


def digit_weight(x: int, n: int) -> int:
    """Base-3 digit sum of x mod 3^n - 1, computed independently of triweil."""
    x %= 3**n - 1
    w = 0
    for _ in range(n):
        w += x % 3
        x //= 3
    return w


def spot_operations(triweil, spot):
    """Yield (name, check) pairs; each check raises AssertionError on a
    wrong answer."""
    if spot is None:
        return
    n = spot["n"]
    if spot["kind"] == "weil_sum":
        p, q, d = spot["p"], spot["p"] ** n, spot["d"]
        ctx = triweil.ff.build_field(p, n)
        values = set(spot["values"])

        def check(a):
            got = triweil.weil.weil_sum(ctx, d, a)
            v = got.fiber_counts[0] - got.fiber_counts[1]
            # an integer value v has N_0 = (q + (p-1) v)/p and N_t = (q - v)/p
            fibers = ((q + (p - 1) * v) // p,) + ((q - v) // p,) * (p - 1)
            if v not in values or got.fiber_counts != fibers:
                raise AssertionError(f"weil_sum a={a}: {got.fiber_counts}")

    elif spot["kind"] == "trace_cycle":
        d = 3 ** pow(4, -1, n) + 2

        def check(x):
            got = triweil.motif_graph.trace_cycle(n, x)
            want = n + digit_weight(d * x, n) - digit_weight(x, n)
            if got.cost != want or want < 1 or len(got.walk) != n:
                raise AssertionError(f"trace_cycle x={x}: cost {got.cost} != {want}")

    else:
        raise ValueError(f"unknown spot check {spot['kind']!r}")
    for x in spot["inputs"]:
        yield f"{spot['kind']}({x})", (lambda x=x: check(x))


def main() -> int:
    spec = json.loads(sys.stdin.read())
    sys.path.insert(0, spec["src"])
    tracer = Tracer() if spec["trace"] else None

    t_setup = clock()
    rss0 = maxrss_kib()
    import triweil  # noqa: E402  (timed: part of set-up)
    import triweil.cli

    if tracer is not None:
        tracer.spans.append(["triweil.import", -1, t_setup, clock(), maxrss_kib() - rss0])
    if not triweil.__file__.startswith(spec["src"] + os.sep):
        print(f"triweil imported from {triweil.__file__}, not {spec['src']}", file=sys.stderr)
        return 3
    if tracer is not None:
        install_tracing(tracer)
    for p, n in spec["fields"]:
        triweil.ff.build_field(p, n)
    t_verify = clock()

    ops = []

    def record(name, fn):
        entry = {"name": name, "ok": False, "digest": None, "error": None}
        try:
            entry["ok"], entry["digest"], entry["error"] = fn()
        except Exception as exc:  # an operation failing must not end the run
            entry["error"] = f"{type(exc).__name__}: {exc}"
        ops.append(entry)

    for command in spec["commands"]:

        def run_cli(command=command):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                try:
                    if tracer is None:
                        code = triweil.cli.main(command["argv"])
                    else:
                        code = tracer.call("cli.main", triweil.cli.main, (command["argv"],), {})
                except SystemExit as exc:  # argparse rejects bad arguments this way
                    code = exc.code
            report = out.getvalue().encode()
            digest = hashlib.sha256(report).hexdigest()
            if code != 0:
                return False, digest, f"exit code {code}"
            if report != command["golden"].encode():
                return False, digest, "report differs from golden"
            return True, digest, None

        record(" ".join(command["argv"]), run_cli)

    for name, check in spot_operations(triweil, spec["spot"]):

        def run_spot(check=check):
            check()
            return True, None, None

        record(name, run_spot)
    t_last = clock()

    import numpy

    result = {
        "t_setup": t_setup,
        "t_verify": t_verify,
        "t_last": t_last,
        "peak_rss_kib": maxrss_kib(),
        "numpy": numpy.__version__,
        "ops": ops,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counters"] = tracer.counters
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
