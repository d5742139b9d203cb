"""Tables I, III, IV and V of the paper as structured data.

Tables I and III are qualitative feature comparisons (reproduced directly from
the baseline registry); Table IV is the evaluation setup (reproduced from the
architecture specs); Table V is the post-PnR area/power of FEATHER at several
shapes (paper values next to the analytical model's estimate).

:func:`search_stats_table` is reproduction tooling rather than a paper
table: it runs the cells of :func:`repro.scenarios.ports.tables_scenarios`
(one workload set across the Fig. 13 suite) and reports per-architecture
engine statistics (evaluations, pruned candidates, cache hit rate, wall
time) — useful for sizing figure-reproduction runs.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Dict, List, Optional

from repro.area.asic import table_v
from repro.baselines.registry import (
    feature_table,
    fig13_arch_suite,
    reorder_support_table,
)
from repro.scenarios import run_cell
from repro.scenarios.ports import tables_scenarios


def table_i() -> List[Dict[str, object]]:
    """Table I: dataflow switching / layout reordering support of prior work."""
    return [asdict(row) for row in feature_table()]


def table_iii() -> List[Dict[str, object]]:
    """Table III: on-chip reordering patterns and implementations."""
    return [asdict(row) for row in reorder_support_table()]


def table_iv() -> List[Dict[str, object]]:
    """Table IV: the Layoutloop evaluation setup, one row per architecture."""
    rows = []
    for arch in fig13_arch_suite():
        rows.append({
            "name": arch.name,
            "pes": arch.num_pes,
            "layout": "flexible" if arch.runtime_layout_flexible else (arch.fixed_layout or "fixed"),
            "dataflow": ("TOPS" if arch.flexible_parallelism and arch.flexible_order
                         and arch.flexible_shape else
                         ("TS" if arch.flexible_shape else "T")),
            "reorder_pattern": arch.reorder_pattern.value,
            "reorder_implementation": arch.reorder_implementation.value,
            "datatype": f"int{arch.mac_bits}",
        })
    return rows


def table_v_rows() -> List[Dict[str, float]]:
    """Table V: FEATHER post-PnR area/power across shapes (paper vs model)."""
    return table_v()


def search_stats_table(workload_set: str = "resnet50", gemm: bool = False,
                       max_mappings: int = 50,
                       workers: Optional[int] = None,
                       seed: int = 0) -> List[Dict[str, object]]:
    """Engine statistics of a Fig. 13-style co-search, one row per arch.

    ``workload_set`` is a workload-set registry name (``"resnet50[:2]"``
    slices); ``gemm`` selects the GEMM suite.  ``workers`` and
    ``elapsed_s`` are run metadata; every other column is deterministic.
    """
    table = []
    for scenario in tables_scenarios(workload_set, gemm=gemm,
                                     max_mappings=max_mappings, seed=seed):
        record = run_cell(scenario, workers=workers).record
        search = record.search
        lookups = search["cache_hits"] + search["cache_misses"]
        table.append({
            "arch": record.arch,
            "unique_layers": search["layers_unique"],
            "evaluations": search["evaluations"],
            "pruned": search["pruned"],
            "cache_hit_rate": (search["cache_hits"] / lookups
                               if lookups else 0.0),
            "workers": record.workers,
            "elapsed_s": record.elapsed_s,
        })
    return table
