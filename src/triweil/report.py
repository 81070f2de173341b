"""Small shared report primitives used by the verification modules."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class Check:
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


class Verdict:
    """Mixin for a report holding ``checks``: it passes when every check holds."""

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)
