"""Every top-level definition under src/triweil is reached by the program.

A def or class passes when its name is used somewhere in src/triweil
outside its own body and outside __init__.py (whose exports reach
nothing), when perfbench/child.py traces it (TRACED), or when the
allowlist below names it with a reason.  The modules are read with ast,
not imported.
"""

import ast
from pathlib import Path

from test_traced_names import traced_names

SRC = Path(__file__).resolve().parents[1] / "src" / "triweil"

# name -> why it stays in src/ with no caller there
ALLOWED = {
    "stickelberger_bound": "the digit-weight bound at any p and d; the exponent census "
    "(ROADMAP item 9) gives it a command",
    "is_degenerate": "the exponent census (ROADMAP item 9) labels its degenerate classes with it",
}


def _scan() -> tuple[list[tuple[str, str]], set[str]]:
    """(module, name) of every top-level def or class, and every name that
    code outside __init__.py uses outside its own top-level definition."""
    defined, reached = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            own = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
            if own is not None:
                defined.append((path.stem, own))
            if path.name == "__init__.py":
                continue
            used = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    used.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    used.add(sub.attr)
                elif isinstance(sub, ast.alias):
                    used.add(sub.name)
            reached |= used - {own}  # a definition's own body (recursion) reaches nothing
    return defined, reached


def test_every_definition_is_reached():
    defined, reached = _scan()
    traced = {fn for _, fn in traced_names()}
    unreached = [
        f"{module}.{name}"
        for module, name in defined
        if name not in reached | traced | set(ALLOWED)
    ]
    assert unreached == []


def test_the_allowlist_names_only_unreached_definitions():
    # an allowed name that gains a caller, or is deleted, leaves the list
    defined, reached = _scan()
    assert set(ALLOWED) <= {name for _, name in defined}
    assert set(ALLOWED) & reached == set()
