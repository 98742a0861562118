"""Benchmark of the fragvrp solver; see README.md.

The benchmark measures the source tree it sits in, so that tree's
``src`` goes first on the import path.
"""

import sys
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
