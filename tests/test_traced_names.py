"""Every function the benchmark traces exists under its module.

perfbench/child.py wraps the (module, function) pairs of its TRACED table
by name; this module reads that table with ast and leaves the file as it is.
"""

import ast
import importlib
from pathlib import Path

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
