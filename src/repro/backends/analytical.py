"""The analytical backend: Layoutloop's cost model behind the protocol.

A thin, state-carrying wrapper over :class:`~repro.layoutloop.cost_model.CostModel`
plus an :class:`~repro.search.cache.EvaluationCache`.  The wrapper is what
:class:`~repro.layoutloop.mapper.Mapper` builds on: the mapper keeps using
``backend.cost_model`` / ``backend.cache`` directly on its hot path (cached
batch evaluation, admissible pruning), so the analytical numbers are
bit-identical to the pre-backend code — the protocol adds a uniform surface,
not a new code path.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.backends.base import BackendReport, EvaluationBackend, report_from_cost
from repro.layoutloop.arch import ArchSpec
from repro.layoutloop.cost_model import CostModel
from repro.layoutloop.energy import EnergyTable
from repro.search.cache import EvaluationCache


class AnalyticalBackend(EvaluationBackend):
    """Timeloop-style analytical evaluation (§V), memoized and vectorized.

    ``cache`` may be shared across backends/mappers (keys embed the full
    arch + energy signature).  ``seed`` is accepted for registry-signature
    uniformity and ignored: the analytical model is deterministic by
    construction.
    """

    name = "analytical"

    def __init__(self, arch: ArchSpec, energy: Optional[EnergyTable] = None,
                 seed: int = 0, cache: Optional[EvaluationCache] = None):
        super().__init__(arch)
        del seed  # deterministic: nothing to seed
        self.cost_model = CostModel(arch, energy)
        self.cache = cache if cache is not None else EvaluationCache()

    @property
    def energy(self):
        """The energy table the cost model prices components with."""
        return self.cost_model.energy

    def evaluate(self, workload, mapping, layout) -> BackendReport:
        report, _ = self.cache.evaluate(self.cost_model, workload, mapping,
                                        layout)
        return report_from_cost(report, backend=self.name)

    def evaluate_mapping(self, workload, mapping,
                         layouts: Sequence) -> List[BackendReport]:
        scored = self.cache.evaluate_batch(self.cost_model, workload,
                                           mapping, layouts)
        return [report_from_cost(record.report(workload, mapping, layout),
                                 backend=self.name)
                for layout, (record, _) in zip(layouts, scored)]
