"""Capture the golden ``--json`` report of every benchmark CLI invocation.

    python3 perfbench/capture_golden.py

The goldens were captured once, at the commit that introduced the
benchmark; every run compares reports against them byte for byte.  This
script only writes goldens that are missing, so it never overwrites a
reference with the output of the code under test.
"""

from __future__ import annotations

import subprocess
import sys

from run import ROOT, SELFTEST_WORKLOADS, WORKLOADS, child_env, golden_path


def main() -> int:
    env = child_env()
    env["PYTHONPATH"] = str(ROOT / "src")
    commands = {c for w in [*WORKLOADS.values(), *SELFTEST_WORKLOADS.values()]
                for c in w.commands}
    for command in sorted(commands):
        path = golden_path(command)
        if path.exists():
            print(f"kept    {path.relative_to(ROOT)}")
            continue
        proc = subprocess.run(
            [sys.executable, "-m", "triweil.cli", "--json", *command],
            capture_output=True, env=env, cwd=ROOT,
        )
        if proc.returncode != 0:
            print(f"error: {' '.join(command)} exited {proc.returncode}", file=sys.stderr)
            return 1
        path.parent.mkdir(exist_ok=True)
        path.write_bytes(proc.stdout)
        print(f"wrote   {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
