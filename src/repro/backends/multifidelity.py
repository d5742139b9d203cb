"""Multi-fidelity co-search: analytical shortlist, simulator verification.

The analytical model can rank thousands of (mapping, layout) candidates per
second; the cycle-level simulator prices one candidate in milliseconds-to-
seconds but is numerically exact.  Multi-fidelity search composes them the
way hardware DSE tools do: the analytical backend scores the *full*
candidate space of a shape and keeps the top-k pairs, then the simulator
re-prices only those k and picks the verified winner.

Tie handling preserves the analytical ranking (the simulator winner must be
*strictly* better to displace a higher-ranked candidate), so whenever the
simulator agrees with the model — in particular on concordant co-searched
pairs, where both see slowdown 1.0 — multi-fidelity returns exactly the
winner pure-analytical search returns, now carrying simulated evidence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.backends.analytical import AnalyticalBackend
from repro.backends.base import BackendReport
from repro.backends.simulator import SimulatorBackend
from repro.layoutloop.arch import ArchSpec
from repro.layoutloop.cosearch import unique_workloads
from repro.layoutloop.energy import EnergyTable
from repro.layoutloop.mapper import Mapper, _metric_value


@dataclass
class VerifiedCandidate:
    """One shortlisted (mapping, layout) pair with both backends' reports."""

    rank: int
    """Analytical rank within the shortlist (0 = analytical winner)."""
    mapping: object
    """The candidate dataflow mapping."""
    layout: object
    """The candidate streaming-tensor layout."""
    analytical: BackendReport
    """The analytical backend's report of the pair."""
    simulated: BackendReport
    """The simulator backend's report of the pair."""

    def cycle_delta(self) -> float:
        """Relative simulated-vs-analytical latency gap (0.0 = exact)."""
        if not self.analytical.total_cycles:
            return 0.0
        return (self.simulated.total_cycles / self.analytical.total_cycles
                - 1.0)


@dataclass
class MultiFidelityResult:
    """Outcome of one shape's multi-fidelity search."""

    workload: str
    arch: str
    metric: str
    top_k: int
    candidates: List[VerifiedCandidate]
    """The shortlist in analytical rank order (length <= ``top_k``)."""
    best: VerifiedCandidate
    """The simulator-verified winner."""
    analytical_evaluated: int
    """(mapping, layout) pairs the analytical stage scored."""

    @property
    def agreement(self) -> bool:
        """True when verification kept the analytical winner (rank 0)."""
        return self.best.rank == 0


@dataclass
class MultiFidelityModelResult:
    """Per-unique-shape multi-fidelity results for a whole model."""

    arch: str
    model: str
    metric: str
    layers: List[Tuple[MultiFidelityResult, int]] = field(default_factory=list)
    """(result, occurrence count) per unique shape, first-seen order."""

    @property
    def agreement(self) -> bool:
        """True when every shape's verified winner is the analytical one."""
        return all(result.agreement for result, _ in self.layers)

    @property
    def total_cycles(self) -> float:
        """Whole-model simulated latency of the verified winners (cycles)."""
        return sum(result.best.simulated.total_cycles * count
                   for result, count in self.layers)


def multifidelity_search_layer(
        arch: ArchSpec, workload, metric: str = "edp",
        max_mappings: int = 50, top_k: int = 3, seed: int = 0,
        energy: Optional[EnergyTable] = None,
        analytical: Optional[AnalyticalBackend] = None,
        simulator: Optional[SimulatorBackend] = None) -> MultiFidelityResult:
    """Multi-fidelity co-search of one shape.

    The analytical stage enumerates exactly the candidate space
    :class:`~repro.layoutloop.mapper.Mapper` searches (same mapping sampler,
    same seed, same layout library) and ranks every pair without pruning;
    the simulator stage re-prices the ``top_k`` best pairs.  Backends may
    be passed in to share caches across shapes.
    """
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    analytical = analytical or AnalyticalBackend(arch, energy=energy)
    simulator = simulator or SimulatorBackend(arch, energy=energy, seed=seed)
    mapper = Mapper(arch, energy=energy, metric=metric,
                    max_mappings=max_mappings, seed=seed,
                    evaluation_cache=analytical.cache)

    layouts = mapper.candidate_layouts(workload)
    ranked: List[Tuple[float, int, object, object, BackendReport]] = []
    order = 0
    for mapping in mapper.candidate_mappings(workload):
        for layout, report in zip(
                layouts, analytical.evaluate_mapping(workload, mapping,
                                                     layouts)):
            ranked.append((_metric_value(report, metric), order, mapping,
                           layout, report))
            order += 1
    # Stable sort on (value, first-seen order): the top-1 entry is exactly
    # the strict-improvement winner Mapper.search selects.
    ranked.sort(key=lambda item: (item[0], item[1]))
    shortlist = ranked[:top_k]

    candidates = []
    for rank, (_, _, mapping, layout, analytical_report) in enumerate(shortlist):
        simulated = simulator.evaluate(workload, mapping, layout)
        candidates.append(VerifiedCandidate(
            rank=rank, mapping=mapping, layout=layout,
            analytical=analytical_report, simulated=simulated))

    best = candidates[0]
    best_value = _metric_value(best.simulated, metric)
    for candidate in candidates[1:]:
        value = _metric_value(candidate.simulated, metric)
        if value < best_value:  # strict: ties keep the analytical ranking
            best, best_value = candidate, value

    return MultiFidelityResult(
        workload=getattr(workload, "name", str(workload)),
        arch=arch.name, metric=metric, top_k=top_k,
        candidates=candidates, best=best, analytical_evaluated=order)


def multifidelity_search(arch: ArchSpec, workloads: Sequence,
                         model_name: str = "model", metric: str = "edp",
                         max_mappings: int = 50, top_k: int = 3,
                         seed: int = 0,
                         energy: Optional[EnergyTable] = None,
                         ) -> MultiFidelityModelResult:
    """Multi-fidelity co-search over a whole model (shape-deduplicated).

    Shares one analytical cache and one simulator instance across the
    unique shapes, as the serial engine shares its evaluation cache.
    """
    workloads = list(workloads)
    if not workloads:
        raise ValueError(
            f"multifidelity_search({model_name!r}) requires at least one "
            f"workload")
    analytical = AnalyticalBackend(arch, energy=energy)
    simulator = SimulatorBackend(arch, energy=energy, seed=seed)
    out = MultiFidelityModelResult(arch=arch.name, model=model_name,
                                   metric=metric)
    for workload, count in unique_workloads(workloads):
        result = multifidelity_search_layer(
            arch, workload, metric=metric, max_mappings=max_mappings,
            top_k=top_k, seed=seed, energy=energy,
            analytical=analytical, simulator=simulator)
        out.layers.append((result, count))
    return out
