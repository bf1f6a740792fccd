"""Locations inside the checkout, and the import of its asp_testkit sources.

The benchmark always measures the sources next to it (`../src`), never an
installed copy: a benchmark directory copied on its own must fail to start.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "asp_testkit"
FIXTURES = ROOT / "fixtures"
OUT = HERE / "out"  # solver temp files and span dumps; ignored by git


class BenchmarkError(Exception):
    """The checkout cannot be benchmarked (missing sources, broken child)."""


def import_checkout() -> None:
    """Put this checkout's `src` first on sys.path and check that
    `asp_testkit` really comes from there."""
    if not (PACKAGE / "__init__.py").is_file() or not FIXTURES.is_dir():
        raise BenchmarkError(f"no asp_testkit sources and fixtures under {ROOT}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import asp_testkit
    found = Path(asp_testkit.__file__).resolve().parent
    if found != PACKAGE:
        raise BenchmarkError(f"asp_testkit imported from {found}, not from {PACKAGE}")
