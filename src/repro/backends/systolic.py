"""Systolic-array evaluation backend: the rigid baseline, first class.

Promotes the weight-stationary :class:`~repro.baselines.systolic.SystolicArray`
timing model (Fig. 4 / Fig. 10 baseline, also the Gemmini/DPU utilization
model) from passive comparison data to a registered
:class:`~repro.backends.base.EvaluationBackend`, so scenario sweeps and
``SearchRequest(backend="systolic")`` searches can put it on the same grid
as FEATHER's analytical model.

Timing comes from the systolic pipeline: the mapping's M-parallel and
reduction-parallel degrees configure the array's two physical axes, and
cycles are the ``passes * (stream + fill/drain)`` estimate of
:meth:`SystolicArray.run_gemm` (convs lower through im2col).  Energy is
borrowed from the analytical cost model per (mapping, layout) cell, one
batched cache pass per mapping —
mirroring the simulator backend — so energy columns stay comparable across
backends and the layout axis stays meaningful.

The backend carries :func:`~repro.constraints.systolic_constraints` as its
``constraints`` attribute: searches on it repair every candidate to the
array's legal loop orders and M x C/K parallelism before scoring.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.backends.base import BackendReport, EvaluationBackend
from repro.baselines.systolic import SystolicArray
from repro.constraints import systolic_constraints
from repro.layoutloop.arch import ArchSpec
from repro.layoutloop.cost_model import CostModel
from repro.search.cache import EvaluationCache
from repro.workloads.conv import ConvLayerSpec


class SystolicBackend(EvaluationBackend):
    """Price cells on a weight-stationary systolic array of the arch's shape."""

    name = "systolic"

    def __init__(self, arch: ArchSpec, energy=None, seed: int = 0):
        super().__init__(arch)
        self.seed = seed
        # Energy companion: the analytical model prices the same cell's
        # energy so cross-backend energy columns compare like for like.
        self._cost_model = CostModel(arch, energy)
        self._energy_cache = EvaluationCache()
        self.constraints = systolic_constraints(arch)

    def _array_for(self, mapping) -> SystolicArray:
        """The array the mapping configures: M on one axis, reduction on
        the other.  Serial mappings degrade to a 1x1 pipeline — exactly
        the rigidity the constraints steer the search away from."""
        parallel_m = max(1, mapping.parallel_degree("M"))
        parallel_k = max(1, mapping.spatial_reduction_size)
        return SystolicArray(self.arch.pe_rows, self.arch.pe_cols,
                             parallel_m=parallel_m, parallel_k=parallel_k,
                             name=f"systolic:{self.arch.name}")

    def evaluate(self, workload, mapping, layout) -> BackendReport:
        return self.evaluate_mapping(workload, mapping, [layout])[0]

    def evaluate_mapping(self, workload, mapping,
                         layouts: Sequence) -> List[BackendReport]:
        """Time the mapping once (systolic timing is layout-independent) and
        borrow every layout's analytical energy from one batched cache pass."""
        scored = self._energy_cache.evaluate_batch(self._cost_model,
                                                   workload, mapping, layouts)
        array = self._array_for(mapping)
        if isinstance(workload, ConvLayerSpec):
            timing = array.run_conv(workload)
        else:
            timing = array.run_gemm(workload)
        total_cycles = float(timing.cycles)
        compute = float(timing.macs) / max(
            1, array.parallel_m * array.parallel_k)
        stall = max(0.0, total_cycles - compute)
        num_pes = self.arch.num_pes
        practical = (timing.macs / (total_cycles * num_pes)
                     if total_cycles else 0.0)
        workload_name = getattr(workload, "name", str(workload))
        return [BackendReport(
            backend=self.name,
            workload=workload_name,
            arch=self.arch.name,
            mapping=mapping.name,
            layout=layout.name,
            macs=timing.macs,
            compute_cycles=compute,
            slowdown=total_cycles / compute if compute else 1.0,
            stall_cycles=stall,
            reorder_cycles_exposed=0.0,
            total_cycles=total_cycles,
            utilization=min(1.0, timing.utilization),
            practical_utilization=min(1.0, practical),
            energy_breakdown_pj=record.energy_breakdown_pj,
            extra={
                "fill_drain_cycles": float(timing.fill_drain_cycles),
                "parallel_m": float(array.parallel_m),
                "parallel_k": float(array.parallel_k),
                "macs_per_cycle": float(timing.macs_per_cycle),
            },
        ) for layout, (record, _) in zip(layouts, scored)]
