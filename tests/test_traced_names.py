"""Every function the benchmark traces exists under its module, and every
counter it keeps reads the result it is given.

perfbench/child.py wraps the (module, function) pairs of its TRACED table
by name and counts from each call's arguments and result; this module
reads that table with ast, loads the file by path to run its counters,
and leaves the file as it is.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

from triweil.digits import family_params
from triweil.ff import build_field

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def traced_names() -> list[tuple[str, str]]:
    tree = ast.parse(CHILD.read_text(), filename=str(CHILD))
    (table,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]
    ]
    return [(entry.elts[0].value, entry.elts[1].value) for entry in table.elts]


def test_traced_names_are_callables_of_triweil():
    names = traced_names()
    assert names
    missing = [
        f"triweil.{module}.{fn}"
        for module, fn in names
        if not callable(getattr(importlib.import_module(f"triweil.{module}"), fn, None))
    ]
    assert missing == []


def test_every_benchmark_counter_reads_its_result():
    # each traced function on a tiny input: GF(3^5), the n = 5 family, r = 1
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    ctx = build_field(3, 5)
    d = family_params(5).d
    args = {
        "build_field": (3, 5),
        "spectrum": (ctx, d),
        "weil_sum": (ctx, d, 1),
        "kernel_count_direct": (ctx, 1),
        "kernel_count_charsum": (ctx, 1),
        "verify_divisibility": (5,),
        "check_minimizer_structure": (5,),
        "derive_motifs": (),
        "enumerate_sequences": (),
        "graph_report": (),
        "trace_cycle": (5, 1),
    }
    tracer = child.Tracer()
    for module, fn, span, counter in child.TRACED:
        a = args[fn]
        result = tracer.call(span, getattr(importlib.import_module(f"triweil.{module}"), fn), a, {})
        if counter is not None:
            counter(tracer, a, {}, result)
    assert len(tracer.spans) == len(child.TRACED)
    counters = dict(tracer.counters)
    assert counters.pop("ff.table_bytes") > 0
    assert counters == {
        "ff.field_elements": 243,
        "weil.coefficients": 242,
        "weil.fiber_keys": 3,  # the three values of the family's spectrum
        "weil.weil_sum_calls": 1,
        "kernel_curve.elements": 242 + 485,  # q - 1 direct, 2q - 1 charsum
        "digits.residues": 241,
        "proof_lab.doubly_minimal": 5,
        "motif_graph.walks": 1,
    }
