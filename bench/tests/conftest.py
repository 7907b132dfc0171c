"""Make the benchmark's modules (and the program) importable by its tests."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
for entry in (BENCH.parent / "src", BENCH):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))
