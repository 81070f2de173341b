"""Small shared report primitives used by the verification modules."""

from __future__ import annotations

from typing import Any, NamedTuple


class Check(NamedTuple):
    """One named claim with its expected and computed values."""

    claim: str
    expected: Any
    got: Any

    @property
    def ok(self) -> bool:
        return self.expected == self.got

    def line(self) -> str:
        mark = "PASS" if self.ok else "FAIL"
        return f"[{mark}] {self.claim}: expected {self.expected!r}, got {self.got!r}"


def passed(checks: list[Check]) -> bool:
    """A report passes when every one of its checks holds."""
    return all(c.ok for c in checks)
