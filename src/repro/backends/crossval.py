"""Cross-validation of the analytical model against the cycle-level simulator.

The paper's central claim — reorder-in-reduction makes layout switching
free, so co-searched (mapping, layout) pairs never stall on bank conflicts
or write serialization — is encoded in the analytical model as
``slowdown = 1.0`` for RIR architectures.  Cross-validation machine-checks
that encoding: run the analytical co-search, then *execute* every winning
pair on the simulator and record the per-cell analytical-vs-simulated
cycle and utilization deltas alongside the simulator's independently
measured read slowdown and write serialization.

:func:`cross_validate_model` is the library API;
``python -m repro.scenarios run`` embeds its output in the records of
``backend="crossval"`` scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.backends.simulator import SimulatorBackend
from repro.layoutloop.arch import ArchSpec
from repro.layoutloop.cosearch import ModelCost
from repro.layoutloop.energy import EnergyTable


@dataclass(frozen=True)
class CellValidation:
    """Analytical-vs-simulated comparison of one co-searched winner."""

    workload: str
    count: int
    mapping: str
    layout: str
    analytical_cycles: float
    simulated_cycles: float
    cycle_delta: float
    """Relative latency gap ``simulated / analytical - 1`` (0.0 = exact)."""
    analytical_utilization: float
    """Analytical practical utilization (0..1)."""
    simulated_utilization: float
    """Simulated practical utilization (0..1)."""
    utilization_delta: float
    """``simulated - analytical`` utilization (absolute, -1..1)."""
    analytical_slowdown: float
    """The model's bank-conflict slowdown (1.0 for RIR by construction)."""
    simulated_read_slowdown: float
    """The simulator's measured StaB read slowdown."""
    simulated_write_serialization: float
    """The simulator's measured oAct write serialization (the RIR claim
    says this is 1.0 for co-searched pairs)."""

    def as_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "count": self.count,
            "mapping": self.mapping,
            "layout": self.layout,
            "analytical_cycles": self.analytical_cycles,
            "simulated_cycles": self.simulated_cycles,
            "cycle_delta": self.cycle_delta,
            "analytical_utilization": self.analytical_utilization,
            "simulated_utilization": self.simulated_utilization,
            "utilization_delta": self.utilization_delta,
            "analytical_slowdown": self.analytical_slowdown,
            "simulated_read_slowdown": self.simulated_read_slowdown,
            "simulated_write_serialization": self.simulated_write_serialization,
        }


@dataclass
class CrossValidation:
    """Per-cell deltas of one cross-validated co-search."""

    arch: str
    model: str
    seed: int
    cells: List[CellValidation] = field(default_factory=list)

    @property
    def max_abs_cycle_delta(self) -> float:
        """Largest relative latency gap across cells (0.0 when empty)."""
        return max((abs(c.cycle_delta) for c in self.cells), default=0.0)

    @property
    def rir_claim_holds(self) -> bool:
        """True when no co-searched cell stalled in the simulator —
        every read slowdown and write serialization is exactly 1.0."""
        return all(c.simulated_read_slowdown == 1.0
                   and c.simulated_write_serialization == 1.0
                   for c in self.cells)

    def as_dict(self) -> Dict[str, object]:
        return {
            "arch": self.arch,
            "model": self.model,
            "seed": self.seed,
            "max_abs_cycle_delta": self.max_abs_cycle_delta,
            "rir_claim_holds": self.rir_claim_holds,
            "cells": [cell.as_dict() for cell in self.cells],
        }


def cross_validate_model(arch: ArchSpec, workloads: Sequence,
                         model_name: str = "model", metric: str = "edp",
                         max_mappings: int = 50, seed: int = 0,
                         energy: Optional[EnergyTable] = None,
                         workers: Optional[int] = 1, prune: bool = True,
                         arch_label: Optional[str] = None,
                         cost: Optional[ModelCost] = None,
                         simulator: Optional[SimulatorBackend] = None,
                         ) -> Tuple[ModelCost, CrossValidation]:
    """Analytical co-search plus simulator execution of every winner.

    Returns ``(analytical ModelCost, CrossValidation)``; the analytical
    cost is exactly what :func:`repro.search.engine.search_model` returns
    for the same arguments, so cross-validation scenarios stay comparable
    with plain analytical ones cell for cell.  ``arch_label`` overrides
    the architecture name embedded in the validation (the scenario runner
    passes its registry name so record and payload agree).

    ``cost`` (if given) is an already-computed analytical co-search of
    exactly these arguments and skips the internal search — the
    :class:`repro.api.Session` passes its own so the analytical leg runs
    on the session's caches and pool rather than this function's;
    ``simulator`` likewise substitutes a caller-owned (memo-warm) backend
    instance for the same ``(arch, energy, seed)``.  Results are
    bit-identical either way.

    Simulator compatibility is checked *before* the analytical search —
    an incompatible cell (non-RIR arch, workload over the MAC bound)
    fails fast instead of burning a full co-search first.
    """
    from repro.layoutloop.cosearch import unique_workloads
    from repro.search.engine import search_model

    workloads = list(workloads)
    if simulator is None:
        simulator = SimulatorBackend(arch, energy=energy, seed=seed)
    for workload, _ in unique_workloads(workloads):
        simulator.check_cell(workload)
    if cost is None:
        cost = search_model(arch, workloads, model_name=model_name,
                            metric=metric, max_mappings=max_mappings,
                            energy=energy, workers=workers, seed=seed,
                            prune=prune)
    validation = CrossValidation(arch=arch_label or cost.arch,
                                 model=cost.model, seed=seed)
    for choice, (workload, count) in zip(cost.layer_choices,
                                         unique_workloads(workloads)):
        result = choice.result
        analytical = result.best_report
        simulated = simulator.evaluate(workload, result.best_mapping,
                                       result.best_layout)
        cycle_delta = (simulated.total_cycles / analytical.total_cycles - 1.0
                       if analytical.total_cycles else 0.0)
        validation.cells.append(CellValidation(
            workload=result.workload,
            count=count,
            mapping=result.best_mapping.name,
            layout=result.best_layout.name,
            analytical_cycles=analytical.total_cycles,
            simulated_cycles=simulated.total_cycles,
            cycle_delta=cycle_delta,
            analytical_utilization=analytical.practical_utilization,
            simulated_utilization=simulated.practical_utilization,
            utilization_delta=(simulated.practical_utilization
                               - analytical.practical_utilization),
            analytical_slowdown=analytical.slowdown,
            simulated_read_slowdown=simulated.extra["read_slowdown"],
            simulated_write_serialization=(
                simulated.extra["write_serialization"]),
        ))
    return cost, validation
