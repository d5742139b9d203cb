"""Benchmark harness configuration.

Every benchmark regenerates one of the paper's tables or figures, prints the
measured rows (and, where the paper reports numbers, the paper's values next
to them), and asserts the qualitative shape — who wins, by roughly what
factor, where crossovers fall.  Run with ``pytest benchmarks/ --benchmark-only``
(add ``-s`` to see the printed tables).

The shared best-of-N timing helper lives in ``benchmarks/_timing.py``
(pytest-free, so ``tools/bench_guard.py`` can load it too); this conftest
injects it into the benchmark tests as the ``best_of`` fixture.  The
scalar references the benchmarks time against come from the test oracle,
``tests/oracle.py``, which this conftest puts on the import path.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Callable

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from _timing import best_of as _best_of  # noqa: E402


@pytest.fixture(name="best_of")
def best_of_fixture() -> Callable:
    """The shared :func:`benchmarks._timing.best_of` helper."""
    return _best_of
