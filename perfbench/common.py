"""What the perfbench entry points share: where the program is, the
benchmark's own settings, and counter sums read from the program's
metrics registry."""

from __future__ import annotations

import json
import os
import sys
from typing import Dict

#: Every entry point runs from the repository root.
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def require_program(tool: str) -> bool:
    """Put ``./src`` on the import path; False (with a message) when
    there is no program there."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"{tool}: no program at {SRC}/repro; run from the repository root",
              file=sys.stderr)
        return False
    sys.path.insert(0, SRC)
    return True


def spec() -> Dict:
    """The repository's ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def recheck_count(counters: Dict[str, float]) -> float:
    """Rechecks the verifier ran, from ``verify.recheck.*_checks``
    counter deltas."""
    return sum(
        value for name, value in counters.items()
        if name.startswith("verify.recheck.") and name.endswith("_checks")
    )
