"""Dataflow (and layout) search on top of the Layoutloop cost model.

Timeloop's hybrid mapper combines pruned random sampling with exhaustive
enumeration of small subspaces; the paper uses that search (§VI-A2) with a
bound on the number of evaluated mappings.  :class:`Mapper` mirrors this: it
derives the structured mapping space allowed by an architecture's declared
flexibility (fixed-parallelism designs collapse to a handful of mappings,
fully flexible designs enumerate parallelism assignments and loop orders),
optionally samples it, and scores every candidate with the cost model under
each candidate layout.

Candidate scoring runs through :mod:`repro.search`: cost-model scores are
memoized as compact :class:`~repro.layoutloop.cost_model.ScoreRecord`
entries in an :class:`~repro.search.cache.EvaluationCache` (shareable
across mappers), the full report is assembled only for the winner, and
mappings whose admissible lower bound
(:mod:`repro.search.bounds`) already exceeds the incumbent best are skipped
without evaluating any layout.  Both optimisations are exact — the search
returns the same best (mapping, layout) pair it would have found
exhaustively, just faster.

Scoring itself goes through an :mod:`repro.backends` evaluation backend.
The default ``"analytical"`` backend runs the exact cached/batched path
described above (bit-identical to the pre-backend mapper); any other
registered backend (e.g. ``"simulator"``) scores candidates through its
``evaluate_mapping`` — with admissible pruning disabled, since the bounds
are statements about the analytical model only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dataflow.mapping import (
    CONV_REDUCTION_DIMS,
    GEMM_REDUCTION_DIMS,
    Mapping,
    ParallelSpec,
    TileLevel,
)
from repro.dataflow.space import MappingSpace
from repro.layout.layout import Layout, parse_layout
from repro.layout.library import conv_layout_library, gemm_layout_library
from repro.layoutloop.arch import ArchSpec
from repro.layoutloop.cost_model import CostModel, CostReport, ScoreRecord
from repro.layoutloop.energy import EnergyTable
from repro.search.bounds import cached_bound_statics
from repro.search.bulk import BulkUniverse, adaptive_search, candidate_universe
from repro.search.cache import EvaluationCache
from repro.search.signatures import workload_signature
from repro.workloads.conv import ConvLayerSpec
from repro.workloads.gemm import GemmSpec

_METRICS = ("edp", "latency", "energy")
_POLICIES = ("exhaustive", "halving", "evolutionary")


@dataclass
class SearchResult:
    """Best (mapping, layout) found for one workload on one architecture."""

    workload: str
    """Name of the searched workload (free-text layer label)."""
    arch: str
    """Name of the architecture the search ran on."""
    best_report: CostReport
    """Full cost report (cycles, pJ breakdown) of the winning pair.  A
    :class:`~repro.layoutloop.cost_model.CostReport` on the analytical
    backend, a field-compatible :class:`~repro.backends.base.BackendReport`
    on any other."""
    best_mapping: Mapping
    """The winning dataflow."""
    best_layout: Layout
    """The winning data layout of the streaming tensor."""
    evaluated: int
    """(mapping, layout) candidates scored, including evaluation-cache hits."""
    metric: str
    """Objective the search minimised: ``edp``, ``latency`` or ``energy``."""
    pruned: int = 0
    """Candidates skipped because their lower bound could not beat the best."""
    cache_hits: int = 0
    """Scored candidates served from the evaluation cache."""
    repaired: int = 0
    """(mapping, layout) candidates collapsed away by constraint repair —
    raw candidates whose repaired form duplicated an earlier one, times the
    layout count, so ``evaluated + pruned + repaired`` covers the raw
    universe.  0 when no :class:`~repro.constraints.ConstraintSet` binds."""
    repair: Optional[Dict] = None
    """The :class:`~repro.constraints.RepairLog` payload of the candidate
    universe (plus ``universe_pairs``), or ``None`` when unconstrained."""

    @property
    def best_value(self) -> float:
        """Value of ``metric`` for the winning pair (cycles, pJ or pJ*cycles)."""
        return _metric_value(self.best_report, self.metric)


def _metric_value(report, metric: str) -> float:
    """``metric`` of a report or :class:`ScoreRecord` (same value for both)."""
    if metric == "edp":
        return report.edp
    if metric == "latency":
        return report.total_cycles
    if metric == "energy":
        return report.total_energy_pj
    raise ValueError(f"unknown metric {metric!r}")


def _winner_report(best, workload, mapping: Mapping, layout: Layout):
    """The winner's full report.  The analytical batch path scores with
    :class:`ScoreRecord` entries, assembled here once with the winner's
    labels; every other path already scored with reports."""
    if isinstance(best, ScoreRecord):
        return best.report(workload, mapping, layout)
    return best


class Mapper:
    """Search dataflows (and layouts) for an architecture.

    ``prune`` enables the admissible lower-bound pruning (exact; disable
    only for A/B testing).  ``evaluation_cache`` may be shared between
    mappers — keys embed the architecture and energy-table signature, so
    cross-architecture sharing is safe.

    ``backend`` selects the evaluation backend scoring candidates: a
    :mod:`repro.backends` registry name, an already-constructed
    :class:`~repro.backends.base.EvaluationBackend`, or ``None`` for the
    default analytical backend (in which case ``evaluation_cache``
    configures it).  Non-analytical backends disable pruning — the
    admissible bounds only hold for the analytical model.

    ``policy`` selects the search policy over the candidate universe:
    ``"exhaustive"`` (default, scan everything minus admissible prunes),
    ``"halving"`` or ``"evolutionary"`` (:mod:`repro.search.budget`);
    ``budget`` caps the scored (mapping, layout) pairs of the budgeted
    policies.  ``max_mappings="auto"`` (analytical, exhaustive policy only)
    replaces the fixed sample with the adaptive universe: a small seeded
    base sample grown only where the bound landscape is tight, returning
    exactly the uncapped exhaustive winner of the full structured space.

    ``constraints`` binds a :class:`~repro.constraints.ConstraintSet` (or
    the string ``"default"`` for the architecture's own rules, ``"none"``
    to force the layer off): every candidate universe is then repaired to
    legality and deduplicated before any policy scores it, with the repair
    accounted in ``SearchResult.repaired``/``repair``.  ``None`` inherits
    the backend's own constraints — the analytical backend has none, so by
    default nothing changes and results stay bit-identical.

    Every policy reads its candidates from :meth:`candidates` and scores a
    mapping with :meth:`score_mapping`; the scalar reference of both lives
    with the equivalence tests, not here.
    """

    def __init__(self, arch: ArchSpec, energy: Optional[EnergyTable] = None,
                 metric: str = "edp", max_mappings=200, seed: int = 0,
                 prune: bool = True,
                 evaluation_cache: Optional[EvaluationCache] = None,
                 backend=None, policy: str = "exhaustive",
                 budget: Optional[int] = None, constraints=None):
        from repro.backends import (
            AnalyticalBackend,
            EvaluationBackend,
            create_backend,
        )

        if metric not in _METRICS:
            raise ValueError(f"metric must be one of {_METRICS}")
        if policy not in _POLICIES:
            raise ValueError(f"policy must be one of {_POLICIES}")
        if isinstance(max_mappings, str):
            if max_mappings != "auto":
                raise ValueError(
                    "max_mappings must be a positive integer or 'auto'")
            if policy != "exhaustive":
                raise ValueError(
                    "max_mappings='auto' requires policy='exhaustive'")
        if budget is not None:
            if not isinstance(budget, int) or budget < 1:
                raise ValueError("budget must be a positive integer or None")
            if policy == "exhaustive":
                raise ValueError(
                    "budget requires policy='halving' or 'evolutionary'")
        self.arch = arch
        self.metric = metric
        self.max_mappings = max_mappings
        self.seed = seed
        self.prune = prune
        self.policy = policy
        self.budget = budget
        if backend is None or backend == "analytical":
            self.backend = AnalyticalBackend(arch, energy=energy,
                                             cache=evaluation_cache)
        elif isinstance(backend, EvaluationBackend):
            self.backend = backend
        else:
            self.backend = create_backend(backend, arch, energy=energy,
                                          seed=seed)
        self._analytical = isinstance(self.backend, AnalyticalBackend)
        from repro.constraints import resolve_constraints

        self.constraints = resolve_constraints(constraints, arch,
                                               backend=self.backend)
        # The universe stays symbolic (flat sample indices, mappings built
        # on demand) only where nothing needs every candidate materialized:
        # a bound ConstraintSet repairs each one, and other backends score
        # each one.
        self.bulk = self._analytical and self.constraints is None
        if max_mappings == "auto" and not self._analytical:
            raise ValueError(
                "max_mappings='auto' requires the analytical backend")
        if max_mappings == "auto" and self.constraints is not None:
            raise ValueError(
                "max_mappings='auto' is incompatible with a bound "
                "ConstraintSet (the adaptive universe is defined on the "
                "raw structured space)")
        if self._analytical:
            self.cost_model = self.backend.cost_model
            self.evaluation_cache = self.backend.cache
        else:
            # Kept for API compatibility (bound statics, shared-cache
            # callers, the budgeted policies' analytical cheap rung); the
            # exhaustive loop does not consult them.
            self.cost_model = CostModel(arch, energy)
            self.evaluation_cache = (evaluation_cache
                                     if evaluation_cache is not None
                                     else EvaluationCache())
        self._cache: Dict[Tuple, SearchResult] = {}
        # Frontier results memoize separately: the budgeted policies'
        # warm-start filters `_cache` positionally, and frontier pairs are
        # (SearchResult, ShapeFrontier) tuples, not SearchResults.
        self._frontier_cache: Dict[Tuple, Tuple] = {}
        # Repaired candidate universes per workload signature: (mappings,
        # RepairLog).  Only populated when a ConstraintSet binds.
        self._repair_cache: Dict[Tuple, Tuple] = {}

    # ------------------------------------------------------------- candidates
    def candidate_mappings(self, workload) -> List[Mapping]:
        """Mappings the architecture can actually run.

        With a bound :class:`~repro.constraints.ConstraintSet` the raw
        structured sample is repaired to legality and deduplicated (memoized
        per workload shape); every search policy consumes this method, so
        all of them enumerate the same repaired-legal universe.
        """
        space = self._mapping_space(workload)
        if space is None:
            mappings = self._fixed_parallelism_mappings(workload)
        else:
            mappings = space.sample(self.max_mappings, seed=self.seed)
            mappings.extend(self._canonical_tail(workload))
        if self.constraints is None:
            return mappings
        return self._repaired_universe(workload, mappings)[0]

    def candidates(self, workload) -> BulkUniverse:
        """The candidate universe every search policy scans.

        The entries of :meth:`candidate_mappings`, in the same order, as a
        :class:`~repro.search.bulk.BulkUniverse` whose bounds, cycle floors
        and footprints come in one numpy pass.  Symbolic (mappings built
        only when indexed) when :attr:`bulk`; otherwise it wraps the
        materialized (possibly repaired) list.
        """
        if self.bulk:
            return candidate_universe(self, workload)
        return BulkUniverse.from_mappings(self.candidate_mappings(workload),
                                          workload)

    def score_mapping(self, workload, mapping: Mapping,
                      layouts: Sequence[Layout]) -> List[Tuple[object, bool]]:
        """Score one mapping under every layout: ``[(score, was_hit)]``.

        Analytical scores are cached :class:`ScoreRecord` entries from one
        batched kernel call; any other backend scores through its
        ``evaluate_mapping`` (reports, never cache hits).
        """
        if self._analytical:
            return self.evaluation_cache.evaluate_batch(
                self.cost_model, workload, mapping, layouts)
        return [(report, False) for report in
                self.backend.evaluate_mapping(workload, mapping, layouts)]

    def _repaired_universe(self, workload,
                           raw: Optional[List[Mapping]] = None) -> Tuple:
        """The repaired-legal candidate list and its RepairLog, memoized."""
        key = self._workload_signature(workload)
        cached = self._repair_cache.get(key)
        if cached is None:
            if raw is None:
                return self._repaired_universe(
                    workload, self.candidate_mappings(workload))
            cached = self.constraints.repair_candidates(raw, workload,
                                                        self.arch)
            self._repair_cache[key] = cached
        return cached

    def repair_log(self, workload):
        """The :class:`~repro.constraints.RepairLog` of one workload's
        candidate universe (``None`` when unconstrained)."""
        if self.constraints is None:
            return None
        return self._repaired_universe(workload)[1]

    def _finalize_repair(self, result: SearchResult, workload,
                         layouts: Optional[Sequence[Layout]]) -> SearchResult:
        """Attach the repair counters to a freshly computed result."""
        if self.constraints is None:
            return result
        log = self.repair_log(workload)
        n_layouts = (len(layouts) if layouts
                     else len(self.candidate_layouts(workload)))
        result.repaired = log.merged * n_layouts
        result.repair = dict(log.as_dict(),
                             universe_pairs=log.candidates * n_layouts)
        return result

    def _mapping_space(self, workload) -> Optional[MappingSpace]:
        """The structured mapping space of a flexible architecture, or
        ``None`` when the architecture's parallelism is fixed (the universe
        collapses to :meth:`_fixed_parallelism_mappings`)."""
        arch = self.arch
        if arch.fixed_parallelism is not None:
            return None

        allowed_orders = None
        if not arch.flexible_order:
            # A single canonical weight-stationary order (innermost loops do
            # not index the weights).
            if isinstance(workload, ConvLayerSpec):
                allowed_orders = (("N", "M", "C", "R", "S", "P", "Q"),)
            else:
                allowed_orders = (("M", "K", "N"),)

        return MappingSpace(
            workload=workload,
            array_rows=arch.pe_rows,
            array_cols=arch.pe_cols,
            max_parallel_dims=arch.max_parallel_dims if arch.flexible_parallelism else 1,
            allowed_parallel_dims=arch.allowed_parallel_dims,
            allowed_orders=allowed_orders,
        )

    def _canonical_tail(self, workload) -> List[Mapping]:
        """The canonical weight-stationary mapping(s) appended after the
        sampled space, so the search never misses the obvious baseline —
        but only when the architecture is allowed to parallelise those
        dimensions."""
        arch = self.arch
        canonical = self._fixed_parallelism_mappings(
            workload, rows=arch.pe_rows, cols=arch.pe_cols)
        allowed = (set(d.upper() for d in arch.allowed_parallel_dims)
                   if arch.allowed_parallel_dims else None)
        return [mapping for mapping in canonical
                if allowed is None
                or all(p.dim in allowed for p in mapping.parallel)]

    def _fixed_parallelism_mappings(self, workload, rows: Optional[int] = None,
                                    cols: Optional[int] = None) -> List[Mapping]:
        arch = self.arch
        rows = rows or arch.pe_rows
        cols = cols or arch.pe_cols
        is_conv = isinstance(workload, ConvLayerSpec)
        reduction = CONV_REDUCTION_DIMS if is_conv else GEMM_REDUCTION_DIMS
        if is_conv:
            order = ("N", "M", "C", "R", "S", "P", "Q")
        else:
            order = ("M", "K", "N")

        if arch.fixed_parallelism is not None:
            parallel = tuple(ParallelSpec(d, n) for d, n in arch.fixed_parallelism
                             if self._dim_exists(workload, d))
            tile = TileLevel.of(**{p.dim: p.degree for p in parallel})
            return [Mapping(name=f"{arch.name}_fixed", array_rows=rows, array_cols=cols,
                            parallel=parallel, tile=tile, order=order,
                            reduction_dims=reduction)]

        # Canonical MxC (or MxK) weight-stationary assignment filling the array.
        dim_a = "M"
        dim_b = "C" if is_conv else "K"
        deg_a = min(rows, self._dim_extent(workload, dim_a)) or 1
        deg_b = min(cols, self._dim_extent(workload, dim_b)) or 1
        parallel = (ParallelSpec(dim_a, max(1, deg_a)), ParallelSpec(dim_b, max(1, deg_b)))
        tile = TileLevel.of(**{p.dim: p.degree for p in parallel})
        return [Mapping(name="canonical_ws", array_rows=rows, array_cols=cols,
                        parallel=parallel, tile=tile, order=order,
                        reduction_dims=reduction)]

    def candidate_layouts(self, workload) -> List[Layout]:
        """Layouts the architecture can hold for the streaming tensor.

        A fixed-layout architecture uses the workload-appropriate member of
        its family: conv layouts name C/H/W dimensions, GEMM layouts name
        M/K (the paper's BERT chart lists MK_K32 for the fixed-layout designs).
        """
        arch = self.arch
        if arch.fixed_layout:
            layout = parse_layout(arch.fixed_layout)
            needed = ("C", "H", "W") if isinstance(workload, ConvLayerSpec) else ("M", "K")
            if any(d in layout.intra_dims or d in layout.inter_order for d in needed):
                return [layout]
            fallback = "HWC_C32" if isinstance(workload, ConvLayerSpec) else "MK_K32"
            return [parse_layout(fallback)]
        if isinstance(workload, ConvLayerSpec):
            return conv_layout_library()
        return gemm_layout_library()

    # ----------------------------------------------------------------- search
    def search(self, workload, layouts: Optional[Sequence[Layout]] = None,
               ) -> SearchResult:
        """Find the best (mapping, layout) pair under the configured metric.

        Whole results are memoized per (workload, metric, layouts) tuple;
        individual cost-model evaluations are additionally memoized in the
        (possibly shared) evaluation cache.  When pruning is on, a mapping
        whose metric lower bound cannot beat the incumbent best skips all
        of its layouts without evaluation — the outcome is identical to the
        exhaustive scan because the bound never exceeds the true value and
        ties never replace the incumbent.
        """
        key = self._result_key(workload, layouts)
        if key in self._cache:
            return self._cache[key]

        if self.policy != "exhaustive":
            # Budgeted policies live in repro.search.budget (imported lazily:
            # it builds on this module).  They memoize here like the
            # exhaustive path so repeat searches stay free.
            from repro.search.budget import evolutionary_search, halving_search

            search_fn = (halving_search if self.policy == "halving"
                         else evolutionary_search)
            result = search_fn(self, workload, layouts=layouts,
                               budget=self.budget)
        elif self.max_mappings == "auto":
            # Adaptive universe: seeded base sample grown where the bound
            # landscape is tight; returns exactly the uncapped exhaustive
            # winner of the full structured space.
            result = adaptive_search(self, workload, layouts=layouts)
        else:
            result = self._exhaustive_scan(workload, layouts)
        self._finalize_repair(result, workload, layouts)
        self._cache[key] = result
        return result

    def _exhaustive_scan(self, workload,
                         layouts: Optional[Sequence[Layout]]) -> SearchResult:
        """Score the candidate universe in order, skipping every mapping
        whose admissible bound cannot beat the incumbent."""
        layouts = list(layouts) if layouts else self.candidate_layouts(workload)
        universe = self.candidates(workload)
        # The admissible bounds are statements about the analytical cost
        # model; any other backend scans exhaustively.
        bounds = None
        if self.prune and self._analytical:
            statics = cached_bound_statics(self.cost_model, workload)
            bounds = universe.bounds(self.metric, statics).tolist()

        best = None  # the winner's score record (or report)
        best_value = math.inf
        best_mapping: Optional[Mapping] = None
        best_layout: Optional[Layout] = None
        evaluated = 0
        pruned = 0
        cache_hits = 0
        for index in range(len(universe)):
            if (bounds is not None and best is not None
                    and bounds[index] >= best_value):
                pruned += len(layouts)
                continue
            mapping = universe[index]
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
            best_mapping=best_mapping,
            best_layout=best_layout,
            evaluated=evaluated,
            metric=self.metric,
            pruned=pruned,
            cache_hits=cache_hits,
        )

    def search_frontier(self, workload,
                        layouts: Optional[Sequence[Layout]] = None) -> Tuple:
        """Scan the candidate universe keeping the whole Pareto frontier.

        Returns ``(result, frontier)`` — see
        :func:`repro.search.frontier.frontier_search`.  ``result`` is
        bit-identical to :meth:`search` (same winner report, mapping and
        layout); ``frontier`` is the shape's non-dominated set over
        (EDP, latency, energy, buffer footprint), with the scalar winner a
        member by construction.  Memoized like :meth:`search`, in a
        separate cache.
        """
        from repro.search.frontier import frontier_search

        if self.max_mappings == "auto":
            raise ValueError(
                "frontier search requires an integer max_mappings "
                "(the adaptive universe is defined for the scalar winner only)")
        key = self._result_key(workload, layouts)
        cached = self._frontier_cache.get(key)
        if cached is None:
            cached = frontier_search(self, workload, layouts=layouts)
            self._finalize_repair(cached[0], workload, layouts)
            self._frontier_cache[key] = cached
        return cached

    def _result_key(self, workload,
                    layouts: Optional[Sequence[Layout]] = None) -> Tuple:
        """Memo key of a (workload, layout-restriction) search on this
        mapper's configuration.  The constraints signature is appended only
        when a set binds, so unconstrained keys are unchanged (and the
        budgeted policies' positional warm-start filter keeps working)."""
        key = (getattr(workload, "name", str(workload)),
               self._workload_signature(workload), self.metric,
               self.max_mappings, self.backend.name,
               tuple(l.name for l in layouts) if layouts else None,
               self.policy, self.budget)
        if self.constraints is not None:
            key += (self.constraints.signature(),)
        return key

    def has_result(self, workload,
                   layouts: Optional[Sequence[Layout]] = None) -> bool:
        """Whether :meth:`search` for this workload (under this layout
        restriction) would be served from the whole-result memo."""
        return self._result_key(workload, layouts) in self._cache

    def adopt_result(self, workload, result: SearchResult,
                     layouts: Optional[Sequence[Layout]] = None) -> None:
        """Seed the result-level cache with an externally computed result.

        Used by :class:`repro.search.engine.SearchEngine` (and the façade's
        request-level process offload) to bring results produced in worker
        processes (or by a sibling mapper) back into this mapper's cache,
        so later :meth:`search` calls for the same workload return
        instantly.  The result must have been computed with the same
        metric/max_mappings configuration as this mapper, under the same
        ``layouts`` restriction.
        """
        self._cache.setdefault(self._result_key(workload, layouts), result)

    # ---------------------------------------------------------------- helpers
    @staticmethod
    def _dim_exists(workload, dim: str) -> bool:
        try:
            return Mapper._dim_extent(workload, dim) > 0
        except KeyError:
            return False

    @staticmethod
    def _dim_extent(workload, dim: str) -> int:
        if isinstance(workload, ConvLayerSpec):
            try:
                return workload.dim(dim)
            except KeyError:
                return 0
        if isinstance(workload, GemmSpec):
            try:
                return workload.dim(dim)
            except KeyError:
                return 0
        raise TypeError(f"unsupported workload {type(workload)!r}")

    @staticmethod
    def _workload_signature(workload) -> Tuple:
        """Shape signature used for result-level memoization."""
        return workload_signature(workload)
