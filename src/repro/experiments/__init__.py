"""Experiment harnesses: one module per paper figure/table.

Each module exposes a ``run()`` entry point returning structured results; the
benchmarks in ``benchmarks/`` call these and print the paper-vs-measured
comparison.  The co-search figures (Fig. 10, Fig. 13, the search-stats
table) run the scenario cells of :mod:`repro.scenarios.ports`.
"""

from repro.experiments import (
    common,
    fig2,
    fig4,
    fig9,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    tables,
)

__all__ = [
    "common",
    "fig2",
    "fig4",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "tables",
]
