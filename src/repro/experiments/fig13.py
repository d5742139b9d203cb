"""Fig. 13 — FEATHER vs SoTA accelerators in Layoutloop (latency and pJ/MAC).

For BERT, ResNet-50 and MobileNet-V3 the paper compares nine accelerator
configurations (Table IV) after a per-layer (dataflow, layout) co-search with
the energy-delay-product objective, reporting per-design normalised latency
and normalised energy per MAC (both relative to FEATHER), average steady-state
utilization, the bank-conflict stall share and the off-chip reordering share.

The charts run as the scenario cells of
:func:`repro.scenarios.ports.fig13_scenarios` (one cell per workload and
architecture, executed by :func:`repro.scenarios.run_cell`) and are
rebuilt from the cell records.  ``max_mappings`` bounds the pruned-random
mapping search per layer; the default keeps a full-model run in the tens
of seconds while preserving the orderings.  ``workers`` fans unique layer
shapes out across processes (``None`` honours ``REPRO_SEARCH_WORKERS``);
results are bit-identical for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.scenarios import ScenarioRecord, run_cell
from repro.scenarios.ports import fig13_scenarios


@dataclass
class Fig13Series:
    """Normalised results for one workload chart."""

    workload: str
    reference: str
    normalized_latency: Dict[str, float] = field(default_factory=dict)
    normalized_energy_per_mac: Dict[str, float] = field(default_factory=dict)
    utilization: Dict[str, float] = field(default_factory=dict)
    stall_fraction: Dict[str, float] = field(default_factory=dict)
    reorder_fraction: Dict[str, float] = field(default_factory=dict)

    def arch_names(self) -> List[str]:
        return list(self.normalized_latency)


def series_from_records(workload: str, records: Sequence[ScenarioRecord],
                        reference: str = "FEATHER") -> Fig13Series:
    """One workload's chart from its cell records (in suite order)."""
    ref = next(r for r in records if r.arch == reference).totals
    series = Fig13Series(workload=workload, reference=reference)
    for record in records:
        totals = record.totals
        series.normalized_latency[record.arch] = (
            totals["total_cycles"] / ref["total_cycles"]
            if ref["total_cycles"] else 0.0)
        series.normalized_energy_per_mac[record.arch] = (
            totals["energy_per_mac_pj"] / ref["energy_per_mac_pj"]
            if ref["energy_per_mac_pj"] else 0.0)
        series.utilization[record.arch] = totals["avg_utilization"]
        series.stall_fraction[record.arch] = totals["stall_fraction"]
        series.reorder_fraction[record.arch] = totals["reorder_fraction"]
    return series


def run(workload_names: Sequence[str] = ("bert", "resnet50", "mobilenet_v3"),
        max_mappings: int = 50, max_layers: Optional[int] = None,
        workers: Optional[int] = None, seed: int = 0) -> Dict[str, Fig13Series]:
    """Reproduce Fig. 13's three charts (or a subset of them).

    ``workload_names`` are workload-set registry names (an unknown name
    raises :class:`~repro.errors.InvalidRequestError`); ``max_layers``
    keeps the first layers of each set.
    """
    return {
        name: series_from_records(name, [
            run_cell(scenario, workers=workers).record
            for scenario in fig13_scenarios((name,), max_layers=max_layers,
                                            max_mappings=max_mappings,
                                            seed=seed)])
        for name in workload_names}


# The paper's reported normalised latency / energy (for the benchmark printout
# and the shape checks in tests — keys follow the arch names of
# ``fig13_arch_suite``).
PAPER_LATENCY = {
    "bert": {"NVDLA-like": 2.00, "Eyeriss-like": 1.43, "SIGMA-like (MK_K32)": 1.00,
             "FEATHER": 1.00},
    "resnet50": {"NVDLA-like": 2.00, "Eyeriss-like": 1.27,
                 "SIGMA-like (HWC_C32)": 1.01, "SIGMA-like (HWC_C4W8)": 1.03,
                 "SIGMA-like (off-chip reorder)": 1.70, "Medusa-like": 1.01,
                 "MTIA-like": 1.15, "TPU-like": 1.15, "FEATHER": 1.00},
    "mobilenet_v3": {"NVDLA-like": 2.89, "Eyeriss-like": 1.87,
                     "SIGMA-like (HWC_C32)": 1.17, "SIGMA-like (HWC_C4W8)": 1.07,
                     "SIGMA-like (off-chip reorder)": 1.70, "Medusa-like": 1.18,
                     "MTIA-like": 1.36, "TPU-like": 1.36, "FEATHER": 1.00},
}

PAPER_ENERGY = {
    "bert": {"NVDLA-like": 6.43, "Eyeriss-like": 5.98, "SIGMA-like (MK_K32)": 1.44,
             "FEATHER": 1.00},
    "resnet50": {"NVDLA-like": 1.30, "Eyeriss-like": 3.09,
                 "SIGMA-like (HWC_C32)": 1.09, "SIGMA-like (HWC_C4W8)": 1.46,
                 "SIGMA-like (off-chip reorder)": 1.99, "Medusa-like": 1.90,
                 "MTIA-like": 2.20, "TPU-like": 2.20, "FEATHER": 1.00},
    "mobilenet_v3": {"NVDLA-like": 1.35, "Eyeriss-like": 1.92,
                     "SIGMA-like (HWC_C32)": 1.29, "SIGMA-like (HWC_C4W8)": 1.54,
                     "SIGMA-like (off-chip reorder)": 1.66, "Medusa-like": 1.85,
                     "MTIA-like": 2.06, "TPU-like": 2.06, "FEATHER": 1.00},
}
