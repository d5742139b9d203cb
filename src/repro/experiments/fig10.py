"""Fig. 10 — FEATHER vs a rigid systolic array on skewed GEMMs.

Four GEMM workloads (A regular, B reduction-free, C mixed, D reduction-heavy)
run on (a) an output/weight-stationary systolic array with its single fixed
mapping and (b) FEATHER, whose BIRRD allows cross-column spatial reduction and
per-column independent mappings.  The paper's takeaway: FEATHER sustains near
full utilization on the skewed shapes where the systolic array collapses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.baselines.systolic import SystolicArray
from repro.scenarios import run_cell
from repro.scenarios.ports import fig10_scenario
from repro.workloads.gemm import fig10_workloads


@dataclass
class Fig10Row:
    """Utilization of both designs on one workload."""

    workload: str
    m: int
    k: int
    n: int
    systolic_utilization: float
    feather_utilization: float

    @property
    def feather_advantage(self) -> float:
        if self.systolic_utilization <= 0:
            return float("inf")
        return self.feather_utilization / self.systolic_utilization


def run(max_mappings: int = 200, seed: int = 0) -> List[Fig10Row]:
    """Evaluate the four Fig. 10 workloads on a 4x4 array (as drawn).

    The FEATHER side is the :func:`repro.scenarios.ports.fig10_scenario`
    cell (a latency co-search of the four GEMMs on ``FEATHER-4x4``); its
    record carries each GEMM's practical utilization.
    """
    systolic = SystolicArray(4, 4, name="systolic")
    record = run_cell(fig10_scenario(max_mappings=max_mappings,
                                     seed=seed)).record
    feather = {layer.workload: layer.practical_utilization
               for layer in record.layers}
    return [Fig10Row(workload=gemm.name, m=gemm.m, k=gemm.k, n=gemm.n,
                     systolic_utilization=(
                         systolic.steady_state_utilization_gemm(gemm)),
                     feather_utilization=feather[gemm.name])
            for gemm in fig10_workloads()]


def summary(rows: List[Fig10Row]) -> Dict[str, float]:
    """Aggregate comparison: average utilization of each design."""
    return {
        "systolic_avg_utilization": sum(r.systolic_utilization for r in rows) / len(rows),
        "feather_avg_utilization": sum(r.feather_utilization for r in rows) / len(rows),
    }
