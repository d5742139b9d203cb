"""Budgeted search policies: spend evaluations where they can still win.

The exhaustive :meth:`repro.layoutloop.mapper.Mapper.search` scores every
sampled mapping under every candidate layout (minus admissibly-pruned
mappings).  The policies here keep the same candidate universe — the
mapper's seeded sample plus the canonical weight-stationary mapping — but
order and cap the full-fidelity evaluations:

* :func:`halving_search` — successive halving collapsed to its exact limit:
  rank every mapping by its cheap-rung score (the admissible
  :func:`repro.search.bounds.metric_lower_bound` on the analytical backend,
  a full analytical pre-pass on any other), then evaluate in rank order.
  Evaluating rungs of size 1 in bound order dominates any coarser halving
  schedule — no candidate is ever evaluated after the bound already proves
  it cannot win — and keeps the exhaustive guarantee: with an admissible
  bound and an uncapped budget the search stops only when every mapping
  whose bound could still beat the incumbent has been scored, so the winner
  is exactly the exhaustive one.
* :func:`evolutionary_search` — seeded population search over the same
  universe, warm-started from per-shape winners already memoized in the
  mapper's whole-result cache (repeat sessions start at the previous
  optimum), with elites mutated to their cheap-rank neighbours plus seeded
  random exploration.  No exactness guarantee at a capped budget, but
  seed-deterministic and exact once the budget covers the universe.

``budget=None`` is uncapped for *both* policies (use
:func:`default_budget` for the legacy quarter-universe refinement cap).

Budget accounting matches :class:`~repro.layoutloop.mapper.SearchResult`:
``evaluated`` counts scored (mapping, layout) pairs *including* evaluation-
cache hits, and a policy never starts a mapping it cannot finish — so
``evaluated <= budget`` whenever ``budget >= len(layouts)`` (one mapping is
always scored, even under a smaller budget, so the result is well-defined).

Winner selection is the lexicographic minimum of ``(value, mapping_index,
layout_index)``.  The exhaustive loop scans mappings and layouts in index
order and replaces only on strict improvement, so its winner *is* that
lexicographic minimum — tracking it explicitly makes the policies
tie-stable even though they visit candidates out of index order.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Sequence, Tuple

from repro.layoutloop.mapper import (
    Mapper,
    SearchResult,
    _metric_value,
    _winner_report,
)
from repro.search.bounds import cached_bound_statics
from repro.search.signatures import mapping_signature, workload_signature

POLICIES: Tuple[str, ...] = ("exhaustive", "halving", "evolutionary")
"""Search policies accepted by ``Mapper``/``SearchRequest``."""


def default_budget(n_mappings: int, n_layouts: int) -> int:
    """Quarter-universe evaluation budget (at least one mapping's worth).

    ``budget=None`` means *uncapped* for every policy; callers who want the
    refinement-style cap :func:`evolutionary_search` used to default to
    pass this explicitly: ``budget=default_budget(len(mappings),
    len(layouts))``.
    """
    pair_cost = max(1, int(n_layouts))
    return max(pair_cost, (int(n_mappings) * pair_cost) // 4)


def _cheap_rung(mapper: Mapper, workload, mappings, layouts
                ) -> Tuple[List[float], bool]:
    """Per-mapping cheap-rung scores and whether they are admissible bounds.

    Analytical backend: the admissible metric lower bound (orders of
    magnitude cheaper than an evaluation), for the whole universe in one
    vectorized pass — ranking *and* sound pruning.  Any other backend: the
    full analytical value (minimum over the candidate layouts), i.e. the
    multi-fidelity ladder's cheap rung — a fast-model
    ranking with no admissibility claim about the expensive model, so the
    caller may order by it but never prune on it.
    """
    if mapper._analytical:
        statics = cached_bound_statics(mapper.cost_model, workload)
        return (mappings.bounds(mapper.metric, statics).tolist(),
                mapper.prune)
    scores = []
    for mapping in mappings:
        records = mapper.cost_model.evaluate_mapping_batch(workload, mapping,
                                                           layouts)
        scores.append(min(_metric_value(record, mapper.metric)
                          for record in records))
    return scores, False


def _finish(mapper: Mapper, workload, state) -> SearchResult:
    """Package the incumbent into a :class:`SearchResult`."""
    best, best_mapping, best_layout, evaluated, pruned, cache_hits = state
    return SearchResult(
        workload=getattr(workload, "name", str(workload)),
        arch=mapper.arch.name,
        best_report=_winner_report(best, workload, best_mapping, best_layout),
        best_mapping=best_mapping,
        best_layout=best_layout,
        evaluated=evaluated,
        metric=mapper.metric,
        pruned=pruned,
        cache_hits=cache_hits,
    )


class _Incumbent:
    """Lexicographic-minimum tracker over scored (mapping, layout) pairs."""

    def __init__(self, mapper: Mapper, workload, layouts):
        self.mapper = mapper
        self.workload = workload
        self.layouts = layouts
        self.key: Optional[Tuple[float, int, int]] = None
        self.best = None
        self.mapping = None
        self.layout = None
        self.min_values = {}  # mapping index -> min metric value over layouts
        self.evaluated = 0
        self.cache_hits = 0

    def score(self, index: int, mapping) -> None:
        """Fully evaluate one mapping and fold it into the incumbent."""
        scored = self.mapper.score_mapping(self.workload, mapping,
                                           self.layouts)
        vmin = math.inf
        for layout_idx, (candidate, hit) in enumerate(scored):
            self.evaluated += 1
            self.cache_hits += int(hit)
            value = _metric_value(candidate, self.mapper.metric)
            if value < vmin:
                vmin = value
            key = (value, index, layout_idx)
            if self.key is None or key < self.key:
                self.key = key
                self.best = candidate
                self.mapping = mapping
                self.layout = self.layouts[layout_idx]
        self.min_values[index] = vmin

    @property
    def best_value(self) -> float:
        return math.inf if self.key is None else self.key[0]


def halving_search(mapper: Mapper, workload,
                   layouts: Optional[Sequence] = None,
                   budget: Optional[int] = None) -> SearchResult:
    """Bound-ordered successive halving over the mapper's candidate universe.

    Mappings are evaluated in ascending cheap-rung order; on the analytical
    backend the search additionally stops as soon as the next bound strictly
    exceeds the incumbent value, counting the remainder as ``pruned`` — the
    bound-order makes the stop cover every remaining mapping at once.  The
    stop is strict (``>``, not ``>=``) so exact ties with the incumbent are
    still evaluated: the exhaustive winner is the lexicographic minimum of
    ``(value, mapping_index, layout_index)``, and a tie at the incumbent
    value with a smaller mapping index must not be skipped.  With an
    uncapped budget (or one covering the whole universe) the result is
    therefore exactly the exhaustive one.

    ``budget`` caps ``evaluated`` (scored pairs, cache hits included); the
    search never starts a mapping it cannot finish, except the very first —
    every search scores at least one mapping.
    """
    layouts = list(layouts) if layouts else mapper.candidate_layouts(workload)
    mappings = mapper.candidates(workload)
    pair_cost = len(layouts)
    rung, admissible = _cheap_rung(mapper, workload, mappings, layouts)
    order = sorted(range(len(mappings)), key=lambda i: (rung[i], i))

    incumbent = _Incumbent(mapper, workload, layouts)
    pruned = 0
    for rank, index in enumerate(order):
        if (admissible and incumbent.key is not None
                and rung[index] > incumbent.best_value):
            # Bound order: every remaining mapping's bound is >= this one's,
            # so none of them can contain a pair below (or tying) the
            # incumbent — admissibly prune them all.
            pruned += pair_cost * (len(order) - rank)
            break
        if (budget is not None and incumbent.evaluated
                and incumbent.evaluated + pair_cost > budget):
            break
        incumbent.score(index, mappings[index])

    return _finish(mapper, workload,
                   (incumbent.best, incumbent.mapping, incumbent.layout,
                    incumbent.evaluated, pruned, incumbent.cache_hits))


def evolutionary_search(mapper: Mapper, workload,
                        layouts: Optional[Sequence] = None,
                        budget: Optional[int] = None) -> SearchResult:
    """Seeded evolutionary refinement over the mapper's candidate universe.

    The population is seeded from (a) per-shape winners already memoized in
    the mapper's whole-result cache — any prior search of the same workload
    shape under the same metric, regardless of policy, contributes its
    winning mapping, so warm sessions start at the previous optimum — (b)
    the canonical weight-stationary mapping, and (c) seeded random picks.
    Each generation fully evaluates the population, keeps the top three
    elites, and breeds the next generation from the elites' unevaluated
    neighbours in cheap-rung rank order (mappings with adjacent lower
    bounds behave similarly) plus seeded random exploration.

    Deterministic for a fixed ``(mapper.seed, cache state, budget)``.
    ``budget=None`` is uncapped — the same contract as
    :func:`halving_search`, under which the search covers the whole
    universe and returns exactly the exhaustive winner; pass
    :func:`default_budget` for the legacy quarter-universe refinement cap.
    """
    layouts = list(layouts) if layouts else mapper.candidate_layouts(workload)
    mappings = mapper.candidates(workload)
    n = len(mappings)
    pair_cost = len(layouts)
    rng = random.Random(mapper.seed)
    rung, _ = _cheap_rung(mapper, workload, mappings, layouts)
    order = sorted(range(n), key=lambda i: (rung[i], i))
    rank_of = {index: rank for rank, index in enumerate(order)}

    # Warm start: previous winners for this shape, mapped back into the
    # universe by structural signature (names never matter).
    sig_to_index = {}
    for index, mapping in enumerate(mappings):
        sig_to_index.setdefault(mapping_signature(mapping), index)
    shape_sig = workload_signature(workload)
    seeds = sorted({
        sig_to_index[mapping_signature(prior.best_mapping)]
        for key, prior in mapper._cache.items()
        if key[1] == shape_sig and key[2] == mapper.metric
        and mapping_signature(prior.best_mapping) in sig_to_index
    })
    population = list(seeds)
    canonical = n - 1  # candidate_mappings appends the canonical WS mapping
    if canonical not in population:
        population.append(canonical)
    population_size = max(4, min(n, 8))
    unseen_pool = [i for i in order if i not in set(population)]
    while len(population) < population_size and unseen_pool:
        population.append(unseen_pool.pop(rng.randrange(len(unseen_pool))))

    incumbent = _Incumbent(mapper, workload, layouts)
    seen = set()
    exhausted = False
    frontier = population
    while True:
        for index in frontier:
            if index in seen:
                continue
            if (budget is not None and incumbent.evaluated
                    and incumbent.evaluated + pair_cost > budget):
                exhausted = True
                break
            seen.add(index)
            incumbent.score(index, mappings[index])
        if exhausted or len(seen) >= n:
            break
        elites = sorted(incumbent.min_values,
                        key=lambda i: (incumbent.min_values[i], i))[:3]
        children: List[int] = []
        for elite in elites:
            rank = rank_of[elite]
            for delta in (1, -1, 2, -2):
                neighbour_rank = rank + delta
                if 0 <= neighbour_rank < n:
                    candidate = order[neighbour_rank]
                    if candidate not in seen and candidate not in children:
                        children.append(candidate)
        remaining = [i for i in order if i not in seen and i not in set(children)]
        while len(children) < population_size and remaining:
            children.append(remaining.pop(rng.randrange(len(remaining))))
        if not children:
            break
        frontier = children

    return _finish(mapper, workload,
                   (incumbent.best, incumbent.mapping, incumbent.layout,
                    incumbent.evaluated, 0, incumbent.cache_hits))
