"""The batch co-search engine: the one function every search runs through.

:func:`_search_model_impl` is the whole-model (dataflow, layout)
co-search.  :class:`repro.api.Session` calls it for every search request
(the scenario runner and the figure reproductions reach it that way), as
do the session's offload worker, :func:`repro.backends.cross_validate_model`
and the scalar test oracle.  It composes the three optimisations this
package exists for:

1. **Shape deduplication** — DNNs repeat layer shapes; only unique shapes
   are searched and each result is weighted by its occurrence count
   (:func:`repro.layoutloop.cosearch.unique_workloads`).
2. **Memoization + pruning** — every per-shape search runs through a
   :class:`~repro.layoutloop.mapper.Mapper` configured with an
   :class:`~repro.search.cache.EvaluationCache` and the admissible metric
   bounds of :mod:`repro.search.bounds`.
3. **Process fan-out** — with ``workers > 1`` unique shapes are chunked
   across a ``ProcessPoolExecutor`` (:mod:`repro.search.parallel`); each
   worker runs the identical deterministic per-shape search, so parallel
   results are bit-identical to serial ones.

The returned :class:`~repro.layoutloop.cosearch.ModelCost` carries a
:class:`SearchStats` record (evaluations, pruned candidates, cache hit
rate, worker count, wall time) in its ``search_stats`` field.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import InvalidRequestError
from repro.layoutloop.arch import ArchSpec
from repro.layoutloop.cosearch import LayerChoice, ModelCost, unique_workloads
from repro.layoutloop.mapper import Mapper, SearchResult
from repro.search.cache import CacheStats, EvaluationCache
from repro.search.parallel import (
    chunked,
    default_chunk_size,
    run_fanout,
)


@dataclass
class SearchStats:
    """Bookkeeping of one whole-model search."""

    model: str
    arch: str
    layers_total: int
    """Number of layers in the input model (before deduplication)."""
    layers_unique: int
    """Number of unique layer shapes actually searched."""
    evaluations: int = 0
    """(mapping, layout) candidates scored, including cache hits."""
    backend: str = "analytical"
    """Evaluation backend the candidates were scored on."""
    policy: str = "exhaustive"
    """Search policy the candidates were selected by."""
    budget: Optional[int] = None
    """Per-shape cap on scored pairs (budgeted policies only)."""
    pruned: int = 0
    """Candidates skipped by the admissible lower bound."""
    repaired: int = 0
    """(mapping, layout) pairs of the raw universe that constraint repair
    merged into an already-seen legal candidate (0 with no ConstraintSet
    bound).  ``evaluations + pruned + repaired`` covers the raw universe."""
    repair: Optional[Dict] = None
    """Aggregated :class:`repro.constraints.RepairLog` counters across the
    unique shapes (``None`` with no ConstraintSet bound); carries
    ``universe_pairs`` so coverage checks line up per run."""
    cache: CacheStats = field(default_factory=CacheStats)
    """Merged evaluation-cache counters across all workers."""
    workers: int = 1
    """Worker processes used (1 = serial)."""
    elapsed_s: float = 0.0
    """Wall-clock time of the whole search in seconds."""

    def __str__(self) -> str:
        return (f"search[{self.model} on {self.arch}]: "
                f"{self.layers_unique}/{self.layers_total} unique layers, "
                f"{self.evaluations} evaluations (+{self.pruned} pruned), "
                f"cache {self.cache}, {self.workers} worker(s), "
                f"{self.elapsed_s:.2f}s")


# ----------------------------------------------------------------- batch API
def _search_chunk(payload: Tuple) -> Tuple[List[SearchResult], int, int]:
    """Worker entry point: search one chunk of unique shapes.

    Must stay a module-level function (pickled by ``ProcessPoolExecutor``).
    The payload carries everything needed to rebuild the exact serial search
    configuration, so a chunk's results do not depend on which process (or
    how many) ran it.
    """
    (arch, metric, max_mappings, seed, prune, layouts, policy, budget,
     constraints, shapes) = payload
    mapper = Mapper(arch, metric=metric, max_mappings=max_mappings, seed=seed,
                    prune=prune, evaluation_cache=EvaluationCache(),
                    policy=policy, budget=budget, constraints=constraints)
    results = [mapper.search(wl, layouts=layouts) for wl in shapes]
    stats = mapper.evaluation_cache.stats
    return results, stats.hits, stats.misses


def _search_model_impl(arch: ArchSpec, workloads: Sequence,
                       model_name: str = "model", metric: str = "edp",
                       max_mappings=200, workers: int = 1,
                       prune: bool = True, seed: int = 0,
                       cache: Optional[EvaluationCache] = None,
                       backend="analytical",
                       layouts: Optional[Sequence] = None,
                       executor=None,
                       mapper: Optional[Mapper] = None,
                       policy: str = "exhaustive",
                       budget: Optional[int] = None,
                       frontier: bool = False, fused: bool = False,
                       constraints=None) -> ModelCost:
    """Co-search a whole model on one architecture and aggregate the cost.

    Parameters mirror :class:`~repro.layoutloop.mapper.Mapper` and
    :class:`repro.api.SearchRequest`.  This is the execution layer:
    ``workers`` must already be a concrete count (user-facing resolution —
    explicit argument over the session default over the
    ``REPRO_SEARCH_WORKERS`` environment variable over serial — happens in
    exactly one place, :meth:`repro.api.Session.resolve_workers`).
    ``backend`` is ``"analytical"`` or a constructed non-analytical
    backend instance (those run serially: their in-process state does not
    ship to worker processes).  ``cache`` is a shared
    :class:`EvaluationCache` (serial analytical path; ``None`` builds a
    fresh one).  ``layouts`` optionally restricts the candidate layout
    library, and ``executor`` is an optional caller-owned persistent
    process pool (see :func:`repro.search.parallel.run_fanout`).

    ``mapper`` (serial paths only) is a caller-owned persistent
    :class:`Mapper` whose configuration must match the other arguments —
    the :class:`repro.api.Session` passes one per configuration so repeat
    requests hit its whole-result memo instead of re-sampling; determinism
    makes the memoized results identical to fresh ones, but the cache
    counters then report the memo (zero lookups on a full hit), which is
    why per-call-deterministic callers (records, golden files) do not
    pass one.

    Raises :class:`~repro.errors.InvalidRequestError` on an empty workload
    list — silently returning an all-zero :class:`ModelCost` hid bugs in
    callers.
    """
    workloads = list(workloads)
    if not workloads:
        raise InvalidRequestError(
            f"search of model {model_name!r} requires at least one workload")
    analytical = backend == "analytical"
    if frontier or fused:
        # Frontier/fused searches are statements about the analytical
        # model (the dominance prune reuses its admissible bounds, the
        # fused energy/cycle discounts its DRAM terms) and must see the
        # whole candidate universe.
        if not analytical or policy != "exhaustive":
            raise InvalidRequestError(
                "frontier/fused search requires the analytical backend and "
                "policy='exhaustive'")
        if fused and len(workloads) < 2:
            raise InvalidRequestError(
                "fused search requires at least two workloads "
                "(adjacency is what gets fused)")
        # Frontier objects and fused pairs live on the ModelCost, which
        # the fan-out's chunked workers cannot assemble: run serially
        # (results are bit-identical for any worker count anyway).
        workers = 1
    start = time.perf_counter()
    grouped = unique_workloads(workloads)
    shapes = [wl for wl, _ in grouped]
    workers = max(1, int(workers)) if analytical else 1
    layouts = list(layouts) if layouts else None

    backend_name = ("analytical" if analytical
                    else getattr(backend, "name", None) or str(backend))
    stats = SearchStats(model=model_name, arch=arch.name,
                        layers_total=len(workloads),
                        layers_unique=len(grouped), workers=workers,
                        backend=backend_name, policy=policy, budget=budget)

    shape_frontiers = None
    if not analytical:
        if mapper is None:
            mapper = Mapper(arch, metric=metric,
                            max_mappings=max_mappings, seed=seed, prune=prune,
                            backend=backend, policy=policy, budget=budget,
                            constraints=constraints)
        results = [mapper.search(wl, layouts=layouts) for wl in shapes]
    elif workers <= 1 or len(shapes) <= 1:
        stats.workers = 1
        if mapper is None:
            eval_cache = cache if cache is not None else EvaluationCache()
            mapper = Mapper(arch, metric=metric,
                            max_mappings=max_mappings, seed=seed, prune=prune,
                            evaluation_cache=eval_cache, policy=policy,
                            budget=budget, constraints=constraints)
        else:
            eval_cache = mapper.evaluation_cache
        # Shared caches outlive this call: report this run's delta, not the
        # cache's cumulative counters.
        before_hits = eval_cache.stats.hits
        before_misses = eval_cache.stats.misses
        if frontier:
            pairs = [mapper.search_frontier(wl, layouts=layouts)
                     for wl in shapes]
            results = [result for result, _ in pairs]
            shape_frontiers = [shape_frontier for _, shape_frontier in pairs]
        else:
            results = [mapper.search(wl, layouts=layouts) for wl in shapes]
        stats.cache = CacheStats(hits=eval_cache.stats.hits - before_hits,
                                 misses=eval_cache.stats.misses - before_misses)
    else:
        size = default_chunk_size(len(shapes), workers)
        payloads = [(arch, metric, max_mappings, seed, prune, layouts,
                     policy, budget, constraints, chunk)
                    for chunk in chunked(shapes, size)]
        chunk_outputs, stats.workers = run_fanout(_search_chunk, payloads,
                                                  workers, executor=executor)
        results = []
        for chunk_results, hits, misses in chunk_outputs:
            results.extend(chunk_results)
            stats.cache = stats.cache.merge(CacheStats(hits=hits,
                                                       misses=misses))

    cost = ModelCost(arch=arch.name, model=model_name)
    for index, (result, (_, count)) in enumerate(zip(results, grouped)):
        choice = LayerChoice(result=result, count=count)
        if shape_frontiers is not None:
            choice.frontier = shape_frontiers[index]
        cost.layer_choices.append(choice)
        stats.evaluations += result.evaluated
        stats.pruned += result.pruned
        stats.repaired += result.repaired
        if result.repair is not None:
            # Sum the numeric repair-log counters over unique shapes; the
            # non-numeric fields (the ConstraintSet name) agree by
            # construction, keep the first.
            agg = dict(stats.repair or {})
            for rkey, rval in result.repair.items():
                if isinstance(rval, (int, float)):
                    agg[rkey] = agg.get(rkey, 0) + rval
                else:
                    agg.setdefault(rkey, rval)
            stats.repair = agg
    if shape_frontiers is not None:
        cost.frontiers = shape_frontiers
    if fused:
        from repro.layoutloop.cosearch import fused_model_search

        # Adjacency is positional: the fused pass walks the original layer
        # order, not the deduplicated shapes.  The per-layout consumer
        # searches memoize in the same mapper, so repeat pairs stay cheap.
        cost.fused_pairs = fused_model_search(mapper, workloads,
                                              layouts=layouts)
    stats.elapsed_s = time.perf_counter() - start
    cost.search_stats = stats
    return cost

