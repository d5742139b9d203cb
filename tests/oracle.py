"""The scalar reference of the co-search: the oracle of the equivalence tests.

Production search (:class:`repro.layoutloop.mapper.Mapper`) scans a
:class:`~repro.search.bulk.BulkUniverse` — bounds, cycle floors and tile
footprints of every candidate in one numpy pass, mappings built on demand —
and scores each mapping under all its layouts with one batched kernel call.
This module keeps the plain loops that path must agree with:

* the materializing sampler (``MappingSpace.sample(materialize=True)``);
* one :func:`~repro.search.bounds.metric_lower_bound` per mapping, computed
  when the scan reaches it;
* one scalar :meth:`~repro.search.cache.EvaluationCache.evaluate` per
  (mapping, layout) pair (:func:`evaluate_layouts` without the cache);
* pure-Python Pareto dominance in the frontier scan.

:class:`ScalarMapper` is a :class:`Mapper` whose exhaustive scan, frontier
scan, candidate universe and mapping scorer are those loops.  The budgeted
policies and the adaptive universe keep their production control flow and
run it on the scalar pieces.  ``batched=True`` keeps the scalar bounds but
samples by index and scores through ``evaluate_batch``: the reference of
the bulk-bounds gate, which times the bound pipeline alone.

Non-analytical backends have no scalar evaluation path of their own; the
oracle scores them through ``evaluate_mapping`` as production does, so on
them it checks the universe and the scan, not the backend.

The equivalence tests and ``benchmarks/`` import this module directly;
``tools/bench_guard.py`` loads it by file path.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.layoutloop.mapper import (
    Mapper,
    SearchResult,
    _metric_value,
    _winner_report,
)
from repro.search.bounds import cached_bound_statics, metric_lower_bound
from repro.search.cache import EvaluationCache
from repro.search.frontier import (
    FrontierPoint,
    ShapeFrontier,
    buffer_footprint_bytes,
    pareto_fold,
)


def evaluate_layouts(cost_model, workload, mapping, layouts) -> List:
    """One scalar :meth:`~repro.layoutloop.cost_model.CostModel.evaluate`
    report per layout: the reference of the batched
    ``CostModel.evaluate_mapping_batch``."""
    return [cost_model.evaluate(workload, mapping, layout)
            for layout in layouts]


class ScalarUniverse(list):
    """A materialized candidate list whose bounds are computed one mapping
    at a time (the part of the :class:`~repro.search.bulk.BulkUniverse`
    interface the budgeted policies read)."""

    def __init__(self, mappings, workload) -> None:
        super().__init__(mappings)
        self.workload = workload

    def bounds(self, metric: str, statics) -> np.ndarray:
        return np.asarray([metric_lower_bound(
            metric, m.compute_cycles(self.workload), statics) for m in self],
            dtype=np.float64)


class ScalarMapper(Mapper):
    """A :class:`Mapper` running the scalar reference loops.

    Takes the production constructor arguments plus ``batched``: ``False``
    (default) is the fully scalar reference, ``True`` samples by index and
    scores with ``evaluate_batch`` but still bounds one mapping at a time.
    """

    def __init__(self, *args, batched: bool = False, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.batched = batched

    # ------------------------------------------------------------- universe
    def candidate_mappings(self, workload) -> List:
        space = self._mapping_space(workload)
        if self.batched or space is None:
            return super().candidate_mappings(workload)
        mappings = space.sample(self.max_mappings, seed=self.seed,
                                materialize=True)
        mappings.extend(self._canonical_tail(workload))
        if self.constraints is None:
            return mappings
        return self._repaired_universe(workload, mappings)[0]

    def candidates(self, workload) -> ScalarUniverse:
        return ScalarUniverse(self.candidate_mappings(workload), workload)

    def score_mapping(self, workload, mapping, layouts
                      ) -> List[Tuple[object, bool]]:
        if self.batched or not self._analytical:
            return super().score_mapping(workload, mapping, layouts)
        return [self.evaluation_cache.evaluate(self.cost_model, workload,
                                               mapping, layout)
                for layout in layouts]

    # ------------------------------------------------------------ exhaustive
    def _exhaustive_scan(self, workload,
                         layouts: Optional[Sequence]) -> SearchResult:
        layouts = list(layouts) if layouts else self.candidate_layouts(workload)
        statics = (cached_bound_statics(self.cost_model, workload)
                   if self.prune and self._analytical else None)
        best = None
        best_value = math.inf
        best_mapping = best_layout = None
        evaluated = pruned = cache_hits = 0
        for mapping in self.candidate_mappings(workload):
            if statics is not None and best is not None:
                bound = metric_lower_bound(
                    self.metric, mapping.compute_cycles(workload), statics)
                if bound >= best_value:
                    pruned += len(layouts)
                    continue
            scored = self.score_mapping(workload, mapping, layouts)
            for layout, (score, hit) in zip(layouts, scored):
                evaluated += 1
                cache_hits += hit
                value = _metric_value(score, self.metric)
                if best is None or value < best_value:
                    best, best_mapping, best_layout = score, mapping, layout
                    best_value = value
        return SearchResult(
            workload=getattr(workload, "name", str(workload)),
            arch=self.arch.name,
            best_report=_winner_report(best, workload, best_mapping,
                                       best_layout),
            best_mapping=best_mapping, best_layout=best_layout,
            evaluated=evaluated, metric=self.metric, pruned=pruned,
            cache_hits=cache_hits)

    # -------------------------------------------------------------- frontier
    def search_frontier(self, workload, layouts: Optional[Sequence] = None
                        ) -> Tuple[SearchResult, ShapeFrontier]:
        if self.max_mappings == "auto":
            raise ValueError("frontier search requires an integer "
                             "max_mappings")
        result, frontier = self._frontier_scan(workload, layouts)
        self._finalize_repair(result, workload, layouts)
        return result, frontier

    def _frontier_scan(self, workload, layouts: Optional[Sequence]):
        layouts = list(layouts) if layouts else self.candidate_layouts(workload)
        arch = self.arch
        statics = (cached_bound_statics(self.cost_model, workload)
                   if self.prune else None)
        best = None
        best_value = math.inf
        best_mapping = best_layout = None
        winner_key = None
        evaluated = pruned = cache_hits = 0
        front: List[Tuple[Tuple[float, ...], Tuple]] = []
        for m_idx, mapping in enumerate(self.candidate_mappings(workload)):
            footprint = buffer_footprint_bytes(workload, mapping, arch)
            if statics is not None and front:
                cycles_floor = (mapping.compute_cycles(workload)
                                + statics.reorder_cycles)
                lower = (statics.energy_floor_pj * cycles_floor, cycles_floor,
                         statics.energy_floor_pj, footprint)
                if any(all(k <= b for k, b in zip(kept, lower))
                       for kept, _ in front):
                    pruned += len(layouts)
                    continue
            scored = self.score_mapping(workload, mapping, layouts)
            for l_idx, (layout, (score, hit)) in enumerate(zip(layouts,
                                                               scored)):
                evaluated += 1
                cache_hits += hit
                value = _metric_value(score, self.metric)
                if best is None or value < best_value:
                    best, best_mapping, best_layout = score, mapping, layout
                    best_value = value
                    winner_key = (m_idx, l_idx)
                vector = (score.edp, score.total_cycles,
                          score.total_energy_pj, footprint)
                pareto_fold(front, vector, (m_idx, l_idx, mapping, layout))
        if not any(payload[:2] == winner_key for _, payload in front):
            front.append(((best.edp, best.total_cycles, best.total_energy_pj,
                           buffer_footprint_bytes(workload, best_mapping,
                                                  arch)),
                          winner_key + (best_mapping, best_layout)))
        front.sort(key=lambda entry: (entry[0], entry[1][0], entry[1][1]))
        points = [FrontierPoint(
            mapping=payload[2].name, layout=payload[3].name,
            mapping_index=payload[0], layout_index=payload[1],
            edp=vector[0], total_cycles=vector[1], total_energy_pj=vector[2],
            buffer_footprint_bytes=vector[3]) for vector, payload in front]
        winner_index = next(i for i, (_, payload) in enumerate(front)
                            if payload[:2] == winner_key)
        result = SearchResult(
            workload=getattr(workload, "name", str(workload)),
            arch=arch.name,
            best_report=_winner_report(best, workload, best_mapping,
                                       best_layout),
            best_mapping=best_mapping, best_layout=best_layout,
            evaluated=evaluated, metric=self.metric, pruned=pruned,
            cache_hits=cache_hits)
        return result, ShapeFrontier(
            workload=result.workload, arch=arch.name, metric=self.metric,
            points=points, winner_index=winner_index, evaluated=evaluated,
            pruned=pruned)


def search_model(arch, workloads, model_name: str = "model",
                 batched: bool = False, **config):
    """Whole-model co-search through the engine on a :class:`ScalarMapper`
    (serial, fresh evaluation cache): the reference of ``search_model``.
    ``config`` takes the search settings both accept (``metric``,
    ``max_mappings``, ``seed``, ``prune``, ``policy``, ``budget``,
    ``constraints``)."""
    from repro.search.engine import _search_model_impl

    mapper = ScalarMapper(arch, evaluation_cache=EvaluationCache(),
                          batched=batched, **config)
    return _search_model_impl(arch, workloads, model_name=model_name,
                              mapper=mapper, **config)
